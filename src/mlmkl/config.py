"""Experiment configuration: JSON in, checked dataclasses out.

Each setting has one owner here: ``LayerConfig``, ``ClassifierConfig`` (its
fields are the library's classifier defaults), ``CvConfig``,
``ExperimentConfig`` and ``candidate_grids``, a layer's cv candidates.  It
imports no package module but kernels and errors.  Each dataclass checks
every value it holds in ``__post_init__``, so a config built in code fails
as one read from JSON, with the text that the reader puts after the
value's section path (``layers[0].gamma must be finite, got inf``).  The
reader only maps JSON: it rejects unknown, missing and repeated keys
(silently ignoring a misspelled hyperparameter is how wrong numbers end up
in tables) and every null, naming it by its JSON path (``split.valid must
not be null``), and passes on only the keys present, so each default has
one copy, its field's.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, ParseError, RowCountError
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


def _count(name, value, minimum, error=ValueError):
    """``value``, which must be an integer, not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError("%s must be an integer, got %r" % (name, value))
    if value < minimum:
        raise error("%s must be >= %d, got %d" % (name, minimum, value))
    return value


def _real(name, value, positive=False):
    """``value`` as a float: a finite number, not a bool, at least 0 or,
    when ``positive``, above 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("%s must be a number, got %r" % (name, value))
    value = float(value)
    if not math.isfinite(value):  # json reads Infinity and NaN
        raise ValueError("%s must be finite, got %r" % (name, value))
    if value < 0 or positive and value == 0:
        raise ValueError("%s must be %s, got %r"
                         % (name, "positive" if positive else "nonnegative and finite", value))
    return value


def _kernels(name, kernels):
    kernels = tuple(kernels)
    if not kernels:
        raise ValueError("%s must hold at least one kernel" % name)
    if not all(isinstance(k, KernelSpec) for k in kernels):
        raise TypeError("%s must be KernelSpec instances, got %r" % (name, kernels))
    return kernels


def _store(instance, **values):  # on a frozen dataclass
    for name, value in values.items():
        object.__setattr__(instance, name, value)


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
        _store(self, kernels=_kernels("kernels", self.kernels))
        width = _count("width", self.width, 1)
        components = self.kpca_components
        if components is not None and _count("kpca_components", components, 1) < width:
            raise ValueError("kpca_components must be an integer >= width %d, got %d"
                             % (width, components))
        _store(self, gamma=_real("gamma", self.gamma))
        _count("basis_size", self.basis_size, 1)

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

    def __post_init__(self):
        if not isinstance(self.kernel, KernelSpec):  # ``classifier`` in ``pipeline.fit``
            raise TypeError("classifier must be a KernelSpec, got %r" % (self.kernel,))
        _store(self, c=_real("C", self.c, positive=True),
               tol=_real("tol", self.tol, positive=True))


@dataclass(frozen=True)
class CvConfig:
    """A cv grid; an empty ``kernel_sets``, ``gammas`` or ``widths`` keeps
    the layer's value.  ``ExperimentConfig`` checks each gamma and width as
    a field of a candidate layer."""

    kernel_sets: tuple  # tuple of tuples of KernelSpec
    gammas: tuple
    widths: tuple
    svm_c: tuple = SVM_C_GRID
    repeats: int = 3

    def __post_init__(self):
        kernel_sets = tuple(_kernels("kernel_sets[%d]" % i, ks)
                            for i, ks in enumerate(self.kernel_sets))
        svm_c = tuple(_real("svm_c", c, positive=True) for c in self.svm_c)
        if not svm_c:
            raise ValueError("svm_c must not be empty")
        _count("repeats", self.repeats, 1)
        _store(self, kernel_sets=kernel_sets, svm_c=svm_c)


@dataclass(frozen=True)
class ExperimentConfig:
    layers: tuple
    subsample: int = DEFAULT_SUBSAMPLE
    split: tuple | None = None  # (n_train, n_valid)
    classifier: ClassifierConfig = ClassifierConfig()
    cv: CvConfig | None = None
    probe_cap: int = 3000

    def __post_init__(self):
        _store(self, layers=tuple(self.layers))
        if not self.layers:
            raise ValueError("layers must hold at least one LayerConfig")
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, LayerConfig):
                raise TypeError("layers[%d] must be a LayerConfig, got %r" % (i, layer))
        _count("subsample", self.subsample, 0, RowCountError)
        if self.split is not None:
            try:
                train, valid = self.split
            except (TypeError, ValueError) as exc:
                raise type(exc)("split must be a (train, valid) pair, got %r"
                                % (self.split,)) from None
            _store(self, split=(_count("split.train", train, 1),
                                _count("split.valid", valid, 0)))
        _count("probe_cap", self.probe_cap, 2)  # a probe SVM needs two rows of two classes
        for i, layer in enumerate(self.layers if self.cv is not None else ()):
            try:
                candidate_grids(layer, self.cv)  # LayerConfig checks each candidate
            except (ValueError, TypeError) as exc:
                raise type(exc)("layers[%d] cv candidate: %s" % (i, exc)) from None


def candidate_grids(layer, cv):
    """The cv candidates of ``layer``: per kernel set, a row per gamma of one
    candidate per width, each ``layer`` with those fields replaced.  A ``cv``
    list left empty keeps the layer's value."""
    return [
        [[replace(layer, kernels=ks, width=w, gamma=g) for w in cv.widths or (layer.width,)]
         for g in cv.gammas or (layer.gamma,)]
        for ks in cv.kernel_sets or (layer.kernels,)
    ]


# ---------------------------------------------------------------------------
# the JSON reader


def _object(entry, where, keys, required=()):
    """``entry``, a JSON object at ``where`` (None: the root) with only
    ``keys``, every ``required`` one and no null value.  A null is no
    value: in a file a key is left out to take its default."""
    name, prefix = (where, where + ".") if where else ("config", "")
    if not isinstance(entry, dict):
        raise ConfigError("%s must be an object" % name)
    unknown = sorted(set(entry) - set(keys))
    if unknown:
        raise ConfigError("unknown key %r in %s" % (unknown[0], name))
    if not all(key in entry for key in required):
        raise ConfigError("%s needs %s" % (name, " and ".join(map(repr, required))))
    null = [key for key, value in entry.items() if value is None]
    if null:
        raise ConfigError("%s%s must not be null" % (prefix, null[0]))
    return entry


def _list(value, where, item=None):
    if not isinstance(value, list):
        raise ConfigError("%s must be a list" % where)
    return tuple(value if item is None else map(item, value))


def _kernel(text, where):
    try:
        return parse_kernel(text)
    except ParseError as exc:
        raise ConfigError("bad kernel in %s: %s" % (where, exc)) from None


def _kernel_list(value, where):
    return _list(value, where, lambda text: _kernel(text, where))


def _build(cls, where, values, fields_of=None):
    """``cls(**values)``, each JSON key of ``values`` passed as the field
    ``fields_of`` maps it to (itself when unmapped); its ``ValueError`` or
    ``TypeError`` is a ``ConfigError`` naming the section ``where`` (None:
    the root)."""
    prefix = "" if where is None else where + "."
    fields_of = fields_of or {}
    try:
        return cls(**{fields_of.get(key, key): value for key, value in values.items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(prefix + str(exc)) from None


def _layer(entry, where):
    values = dict(_object(entry, where, [f.name for f in fields(LayerConfig)],
                          ("kernels", "width")))
    values["kernels"] = _kernel_list(values["kernels"], where + ".kernels")
    return _build(LayerConfig, where, values)


def _classifier(entry):
    values = dict(_object(entry, "classifier", ("kernel", "C", "tol")))
    if "kernel" in values:
        values["kernel"] = _kernel(values["kernel"], "classifier")
    return _build(ClassifierConfig, "classifier", values, {"C": "c"})


def _cv(entry):
    _object(entry, "cv", ("kernels", "gamma", "width", "svm_c", "repeats"))
    groups = entry.get("kernels", ())
    if "kernels" in entry and (not isinstance(groups, list) or not groups):
        raise ConfigError("cv.kernels must be a nonempty list of kernel lists")
    values = {
        "kernel_sets": tuple(_kernel_list(group, "cv.kernels[%d]" % i)
                             for i, group in enumerate(groups)),
        "gammas": _list(entry.get("gamma", []), "cv.gamma"),
        "widths": _list(entry.get("width", []), "cv.width"),
    }
    if "svm_c" in entry:
        values["svm_c"] = _list(entry["svm_c"], "cv.svm_c")
    if "repeats" in entry:
        values["repeats"] = entry["repeats"]
    return _build(CvConfig, "cv", values)


def parse_config(raw):
    """The ``ExperimentConfig`` of a decoded JSON configuration."""
    _object(raw, None, [f.name for f in fields(ExperimentConfig)], ("layers",))
    values = {key: raw[key] for key in ("subsample", "probe_cap") if key in raw}
    values["layers"] = tuple(_layer(entry, "layers[%d]" % i)
                             for i, entry in enumerate(_list(raw["layers"], "layers")))
    if "split" in raw:
        split = _object(raw["split"], "split", ("train", "valid"), ("train",))
        values["split"] = (split["train"], split.get("valid", 0))
    if "classifier" in raw:
        values["classifier"] = _classifier(raw["classifier"])
    if "cv" in raw:
        values["cv"] = _cv(raw["cv"])
    return _build(ExperimentConfig, None, values)


def _unique_keys(pairs):  # json.load would keep a repeated key's last value
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError("repeated key %r in a JSON object" % key)
        obj[key] = value
    return obj


def load_config(path):
    try:
        with open(path, "r") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
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
