"""Experiment configuration: JSON in, validated dataclasses out.

Each setting has one owner here: ``LayerConfig``, ``ClassifierConfig`` (its
fields are the library's classifier defaults) and ``candidate_grids``, a
layer's cv candidates.  It imports no package module but kernels and errors.

Unknown keys are rejected loudly at every level; silently ignoring a
misspelled hyperparameter is how wrong numbers end up in tables.  The
parsers pass on only the keys present, so each default has one copy: its
dataclass field's.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ParseError
from .kernels import KernelSpec, parse_kernel

__all__ = [
    "LayerConfig",
    "ClassifierConfig",
    "CvConfig",
    "ExperimentConfig",
    "candidate_grids",
    "parse_config",
    "load_config",
    "config_to_dict",
    "DEFAULT_SUBSAMPLE",
    "SVM_C_GRID",
]

DEFAULT_SUBSAMPLE = 3000
SVM_C_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class LayerConfig:
    """Hyperparameters of one layer.

    ``kpca_components`` defaults to three times the layer width, leaving
    the univariate test a 3x surplus of candidate directions.
    """

    kernels: tuple
    width: int
    kpca_components: int | None = None
    gamma: float = 0.1
    basis_size: int = 10

    def __post_init__(self):
        kernels = tuple(self.kernels)
        if len(kernels) < 1:
            raise ValueError("a layer needs at least one base kernel")
        for k in kernels:
            if not isinstance(k, KernelSpec):
                raise TypeError("kernels must be KernelSpec instances, got %r" % (k,))
        if not isinstance(self.width, (int, np.integer)) or self.width < 1:
            raise ValueError("width must be a positive integer, got %r" % (self.width,))
        if self.kpca_components is not None and (
                not isinstance(self.kpca_components, (int, np.integer))
                or self.kpca_components < self.width):
            raise ValueError("kpca_components must be an integer >= width %d, got %r"
                             % (self.width, self.kpca_components))
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative and finite, got %r" % (self.gamma,))
        if not isinstance(self.basis_size, (int, np.integer)) or self.basis_size < 1:
            raise ValueError("basis_size must be a positive integer, got %r" % (self.basis_size,))
        object.__setattr__(self, "kernels", kernels)

    @property
    def components(self):
        return self.kpca_components if self.kpca_components is not None else 3 * self.width

    def to_dict(self):
        """JSON-ready form, as in model headers and configuration files."""
        return {
            "kernels": [k.canonical() for k in self.kernels],
            "width": int(self.width),
            "kpca_components": int(self.components),
            "gamma": float(self.gamma),
            "basis_size": int(self.basis_size),
        }


@dataclass(frozen=True)
class ClassifierConfig:
    kernel: KernelSpec = parse_kernel("arccos(n=1,L=1)")
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
    classifier: ClassifierConfig = ClassifierConfig()
    cv: CvConfig | None = None
    probe_cap: int = 3000


def candidate_grids(layer, cv):
    """The cv candidates of ``layer``: per kernel set, a row per gamma of one
    candidate per width, each ``layer`` with those fields replaced.  A ``cv``
    list left empty keeps the layer's value."""
    return [
        [[replace(layer, kernels=ks, width=w, gamma=g) for w in cv.widths or (layer.width,)]
         for g in cv.gammas or (layer.gamma,)]
        for ks in cv.kernel_sets or (layer.kernels,)
    ]


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
    fields = {
        "kernels": _kernel_list(entry["kernels"], where),
        "width": _integer(entry["width"], where + ".width"),
    }
    if "kpca_components" in entry:
        fields["kpca_components"] = _integer(entry["kpca_components"], where + ".kpca_components")
    if "gamma" in entry:
        fields["gamma"] = _number(entry["gamma"], where + ".gamma")
    if "basis_size" in entry:
        fields["basis_size"] = _integer(entry["basis_size"], where + ".basis_size")
    try:
        return LayerConfig(**fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError("%s: %s" % (where, exc)) from None


def _classifier(entry):
    if not isinstance(entry, dict):
        raise ConfigError("classifier must be an object")
    _reject_unknown(entry, ("kernel", "C", "tol"), "classifier")
    fields = {}
    if "kernel" in entry:
        fields["kernel"] = _kernel(entry["kernel"], "classifier")
    if "C" in entry:
        fields["c"] = _number(entry["C"], "classifier.C")
    if "tol" in entry:
        fields["tol"] = _number(entry["tol"], "classifier.tol")
    classifier = ClassifierConfig(**fields)
    if classifier.c <= 0 or classifier.tol <= 0:
        raise ConfigError("classifier C and tol must be positive")
    return classifier


def _cv(entry):
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ConfigError("cv must be an object")
    _reject_unknown(entry, ("kernels", "gamma", "width", "svm_c", "repeats"), "cv")
    raw_sets = entry.get("kernels")
    if raw_sets is not None and (not isinstance(raw_sets, list) or not raw_sets):
        raise ConfigError("cv.kernels must be a nonempty list of kernel lists")
    kernel_sets = tuple(_kernel_list(group, "cv.kernels[%d]" % i)
                        for i, group in enumerate(raw_sets or ()))
    if not all(isinstance(entry.get(key, []), list) for key in ("gamma", "width", "svm_c")):
        raise ConfigError("cv.gamma, cv.width and cv.svm_c must be lists")
    gammas = tuple(_number(g, "cv.gamma") for g in entry.get("gamma", []))
    widths = tuple(_integer(w, "cv.width") for w in entry.get("width", []))
    fields = {}
    if "svm_c" in entry:
        svm_c = tuple(_number(c, "cv.svm_c") for c in entry["svm_c"])
        if not svm_c:
            raise ConfigError("cv.svm_c must not be empty")
        if any(c <= 0 for c in svm_c):
            raise ConfigError("cv.svm_c must be positive, got %r" % min(svm_c))
        fields["svm_c"] = svm_c
    if "repeats" in entry:
        fields["repeats"] = _integer(entry["repeats"], "cv.repeats", 1)
    return CvConfig(kernel_sets=kernel_sets, gammas=gammas, widths=widths, **fields)


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
    fields = {}
    if "subsample" in raw:
        fields["subsample"] = _integer(raw["subsample"], "subsample", 0)
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
    if raw.get("classifier") is not None:
        fields["classifier"] = _classifier(raw["classifier"])
    cv = _cv(raw.get("cv"))
    for i, layer in enumerate(layers if cv is not None else ()):
        try:
            candidate_grids(layer, cv)
        except ValueError as exc:
            raise ConfigError("layers[%d] cv candidate: %s" % (i, exc)) from None
    if "probe_cap" in raw:
        fields["probe_cap"] = _integer(raw["probe_cap"], "probe_cap", 1)
    return ExperimentConfig(layers=layers, split=split, cv=cv, **fields)


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
