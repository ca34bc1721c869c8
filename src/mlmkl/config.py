"""Experiment configuration: JSON in, validated dataclasses out.

Unknown keys are rejected loudly at every level; silently ignoring a
misspelled hyperparameter is how wrong numbers end up in tables.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError, ParseError
from .kernels import parse_kernel
from .pipeline import DEFAULT_CLASSIFIER_KERNEL, LayerConfig

__all__ = [
    "ClassifierConfig",
    "CvConfig",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "DEFAULT_SUBSAMPLE",
    "SVM_C_GRID",
]

DEFAULT_SUBSAMPLE = 3000
DEFAULT_PROBE_CAP = 3000
SVM_C_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class ClassifierConfig:
    kernel: object
    c: float = 1.0
    tol: float = 1e-3


@dataclass(frozen=True)
class CvConfig:
    kernel_sets: tuple  # tuple of tuples of KernelSpec
    gammas: tuple
    widths: tuple
    svm_c: tuple = SVM_C_GRID
    repeats: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    layers: tuple
    subsample: int = DEFAULT_SUBSAMPLE
    split: tuple | None = None  # (n_train, n_valid)
    classifier: ClassifierConfig = None
    cv: CvConfig | None = None
    probe_cap: int = DEFAULT_PROBE_CAP


def _reject_unknown(mapping, allowed, where):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError("unknown key %r in %s" % (unknown[0], where))


def _integer(value, key, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (key, value))
    if minimum is not None and value < minimum:
        raise ConfigError("%s must be >= %d, got %d" % (key, minimum, value))
    return value


def _number(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s must be a number, got %r" % (key, value))
    if not math.isfinite(value):  # json reads Infinity and NaN
        raise ConfigError("%s must be finite, got %r" % (key, value))
    return float(value)


def _kernel(text, where):
    try:
        return parse_kernel(text)
    except ParseError as exc:
        raise ConfigError("bad kernel in %s: %s" % (where, exc)) from None


def _kernel_list(value, where):
    if not isinstance(value, list) or not value:
        raise ConfigError("%s must be a nonempty list of kernel strings" % where)
    return tuple(_kernel(item, where) for item in value)


def _layer(entry, index):
    where = "layers[%d]" % index
    if not isinstance(entry, dict):
        raise ConfigError("%s must be an object" % where)
    _reject_unknown(entry, ("kernels", "width", "kpca_components", "gamma", "basis_size"), where)
    if "kernels" not in entry or "width" not in entry:
        raise ConfigError("%s needs 'kernels' and 'width'" % where)
    try:
        return LayerConfig(
            kernels=_kernel_list(entry["kernels"], where),
            width=_integer(entry["width"], where + ".width", 1),
            kpca_components=(
                _integer(entry["kpca_components"], where + ".kpca_components", 1)
                if "kpca_components" in entry
                else None
            ),
            gamma=_number(entry.get("gamma", 0.1), where + ".gamma"),
            basis_size=_integer(entry.get("basis_size", 10), where + ".basis_size", 1),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError("%s: %s" % (where, exc)) from None


def _classifier(entry):
    if entry is None:
        return ClassifierConfig(kernel=parse_kernel(DEFAULT_CLASSIFIER_KERNEL))
    if not isinstance(entry, dict):
        raise ConfigError("classifier must be an object")
    _reject_unknown(entry, ("kernel", "C", "tol"), "classifier")
    kernel = (
        _kernel(entry["kernel"], "classifier")
        if "kernel" in entry
        else parse_kernel(DEFAULT_CLASSIFIER_KERNEL)
    )
    c = _number(entry.get("C", 1.0), "classifier.C")
    tol = _number(entry.get("tol", 1e-3), "classifier.tol")
    if c <= 0 or tol <= 0:
        raise ConfigError("classifier C and tol must be positive")
    return ClassifierConfig(kernel=kernel, c=c, tol=tol)


def _cv(entry):
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ConfigError("cv must be an object")
    _reject_unknown(entry, ("kernels", "gamma", "width", "svm_c", "repeats"), "cv")
    raw_sets = entry.get("kernels")
    if raw_sets is not None:
        if not isinstance(raw_sets, list) or not raw_sets:
            raise ConfigError("cv.kernels must be a nonempty list of kernel lists")
        kernel_sets = tuple(
            _kernel_list(group, "cv.kernels[%d]" % i) for i, group in enumerate(raw_sets)
        )
    else:
        kernel_sets = ()
    gammas = entry.get("gamma", [])
    widths = entry.get("width", [])
    svm_c = entry.get("svm_c", list(SVM_C_GRID))
    if not isinstance(gammas, list) or not isinstance(widths, list) or not isinstance(svm_c, list):
        raise ConfigError("cv.gamma, cv.width and cv.svm_c must be lists")
    gammas = tuple(_number(g, "cv.gamma") for g in gammas)
    widths = tuple(_integer(w, "cv.width", 1) for w in widths)
    svm_c = tuple(_number(c, "cv.svm_c") for c in svm_c)
    if not svm_c:
        raise ConfigError("cv.svm_c must not be empty")
    if any(g < 0 for g in gammas):
        raise ConfigError("cv.gamma must be nonnegative, got %r" % min(gammas))
    if any(c <= 0 for c in svm_c):
        raise ConfigError("cv.svm_c must be positive, got %r" % min(svm_c))
    repeats = _integer(entry.get("repeats", 3), "cv.repeats", 1)
    return CvConfig(
        kernel_sets=kernel_sets, gammas=gammas, widths=widths, svm_c=svm_c, repeats=repeats
    )


def parse_config(raw):
    """Validate a configuration dictionary."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    _reject_unknown(
        raw, ("layers", "subsample", "split", "classifier", "cv", "probe_cap"), "config"
    )
    if "layers" not in raw or not isinstance(raw["layers"], list) or not raw["layers"]:
        raise ConfigError("config needs a nonempty 'layers' list")
    layers = tuple(_layer(entry, i) for i, entry in enumerate(raw["layers"]))
    subsample = _integer(raw.get("subsample", DEFAULT_SUBSAMPLE), "subsample", 0)
    split = None
    if raw.get("split") is not None:
        entry = raw["split"]
        if not isinstance(entry, dict):
            raise ConfigError("split must be an object")
        _reject_unknown(entry, ("train", "valid"), "split")
        if "train" not in entry:
            raise ConfigError("split needs 'train'")
        split = (
            _integer(entry["train"], "split.train", 1),
            _integer(entry.get("valid", 0), "split.valid", 0),
        )
    classifier = _classifier(raw.get("classifier"))
    cv = _cv(raw.get("cv"))
    widest = max(cv.widths, default=0) if cv is not None else 0
    for i, layer in enumerate(layers):  # each cv candidate keeps its layer's kpca_components
        if layer.kpca_components is not None and layer.kpca_components < widest:
            raise ConfigError("layers[%d].kpca_components %d is below cv.width %d"
                              % (i, layer.kpca_components, widest))
    return ExperimentConfig(
        layers=layers,
        subsample=subsample,
        split=split,
        classifier=classifier,
        cv=cv,
        probe_cap=_integer(raw.get("probe_cap", DEFAULT_PROBE_CAP), "probe_cap", 1),
    )


def load_config(path):
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("%s is not valid JSON: %s" % (path, exc)) from None
    return parse_config(raw)


def config_to_dict(cfg):
    """Canonical JSON-ready snapshot of a configuration."""
    out = {
        "layers": [layer.to_dict() for layer in cfg.layers],
        "subsample": int(cfg.subsample),
        "classifier": {
            "kernel": cfg.classifier.kernel.canonical(),
            "C": float(cfg.classifier.c),
            "tol": float(cfg.classifier.tol),
        },
        "probe_cap": int(cfg.probe_cap),
    }
    if cfg.split is not None:
        out["split"] = {"train": int(cfg.split[0]), "valid": int(cfg.split[1])}
    return out
