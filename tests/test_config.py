import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from mlmkl import pipeline, svm
from mlmkl.config import (
    DEFAULT_SUBSAMPLE,
    SVM_C_GRID,
    ClassifierConfig,
    CvConfig,
    ExperimentConfig,
    LayerConfig,
    config_to_dict,
    load_config,
    parse_config,
)
from mlmkl.errors import ConfigError
from mlmkl.kernels import parse_kernel

MINIMAL = {"layers": [{"kernels": ["linear"], "width": 2}]}


def field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def layered(**extra):
    raw = {"layers": [
        {"kernels": ["arccos(n=1,L=2)", "rbf(gamma=0.5)"], "width": 10},
        {"kernels": ["linear"], "width": 4, "gamma": 0.3,
         "basis_size": 5, "kpca_components": 9},
    ]}
    raw.update(extra)
    return raw


def test_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert len(cfg.layers) == 1
    layer = cfg.layers[0]
    assert layer.width == 2
    assert layer.components == 6  # three times the width when unset
    assert layer.gamma == 0.1
    assert layer.basis_size == 10
    assert cfg.subsample == DEFAULT_SUBSAMPLE
    assert cfg.split is None
    assert cfg.cv is None
    assert cfg.classifier.kernel.canonical() == "arccos(n=1,L=1)"
    assert cfg.classifier.c == 1.0
    # each unset key takes its dataclass field's default, the one copy
    expected = [
        (layer, LayerConfig, {"kpca_components", "gamma", "basis_size"}),
        (cfg.classifier, ClassifierConfig, {"kernel", "c", "tol"}),
        (cfg, ExperimentConfig, {"subsample", "split", "classifier", "cv", "probe_cap"}),
    ]
    for parsed, cls, names in expected:
        defaults = field_defaults(cls)
        assert names <= set(defaults), cls
        assert {n: getattr(parsed, n) for n in names} == {n: defaults[n] for n in names}, cls
    assert DEFAULT_SUBSAMPLE is pipeline.DEFAULT_SUBSAMPLE
    assert LayerConfig is pipeline.LayerConfig
    # the library's own defaults are those fields too
    classifier = field_defaults(ClassifierConfig)
    assert classifier["kernel"].canonical() == "arccos(n=1,L=1)"
    tied = [
        (pipeline.fit, {"subsample": DEFAULT_SUBSAMPLE, "classifier": classifier["kernel"],
                        "svm_c": classifier["c"], "svm_tol": classifier["tol"]}),
        (pipeline.train_classifier, {"c": classifier["c"], "tol": classifier["tol"]}),
        (svm.train_multiclass, {"c": classifier["c"], "tol": classifier["tol"]}),
        (svm.train_binary, {"tol": classifier["tol"]}),
    ]
    for fn, want in tied:
        params = inspect.signature(fn).parameters
        assert {name: params[name].default for name in want} == want, fn.__name__
    assert inspect.signature(svm.train_binary).parameters["c"].default is inspect.Parameter.empty


def test_explicit_layer_values():
    cfg = parse_config(layered())
    assert [k.canonical() for k in cfg.layers[0].kernels] == [
        "arccos(n=1,L=2)", "rbf(gamma=0.5)"]
    second = cfg.layers[1]
    assert second.components == 9
    assert second.gamma == 0.3
    assert second.basis_size == 5


def test_split_and_classifier_parsing():
    raw = layered(
        split={"train": 100, "valid": 25},
        classifier={"kernel": "rbf(gamma=2)", "C": 10, "tol": 1e-4},
        subsample=50,
        probe_cap=80,
    )
    cfg = parse_config(raw)
    assert cfg.split == (100, 25)
    assert cfg.classifier.kernel.canonical() == "rbf(gamma=2)"
    assert cfg.classifier.c == 10.0
    assert cfg.subsample == 50
    assert cfg.probe_cap == 80


def test_cv_parsing():
    raw = layered(cv={
        "kernels": [["linear"], ["rbf(gamma=1)", "linear"]],
        "gamma": [0.05, 0.1],
        "width": [4, 8],
        "svm_c": [1, 10],
        "repeats": 2,
    })
    cv = parse_config(raw).cv
    assert len(cv.kernel_sets) == 2
    assert [k.canonical() for k in cv.kernel_sets[1]] == ["rbf(gamma=1)", "linear"]
    assert cv.gammas == (0.05, 0.1)
    assert cv.widths == (4, 8)
    assert cv.svm_c == (1.0, 10.0)
    assert cv.repeats == 2


def test_cv_defaults():
    cv = parse_config(layered(cv={})).cv
    assert cv.kernel_sets == ()
    assert cv.gammas == ()
    assert cv.widths == ()
    assert cv.svm_c == SVM_C_GRID
    assert cv.repeats == 3
    defaults = field_defaults(CvConfig)
    assert set(defaults) == {"kernel_sets", "gammas", "widths", "svm_c", "repeats"}
    assert {name: getattr(cv, name) for name in defaults} == defaults


def test_unknown_keys_rejected_everywhere():
    bad = [
        {"layers": [{"kernels": ["linear"], "width": 2}], "subsmaple": 1},
        {"layers": [{"kernels": ["linear"], "width": 2, "wdith": 3}]},
        layered(classifier={"kernl": "linear"}),
        layered(cv={"gammas": [0.1]}),
        layered(split={"train": 5, "vlaid": 2}),
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            parse_config(raw)


def test_structural_errors():
    for raw in (
        [],
        {},
        {"layers": []},
        {"layers": [{"width": 2}]},
        {"layers": [{"kernels": ["linear"]}]},
        {"layers": [{"kernels": [], "width": 2}]},
        {"layers": [{"kernels": ["linear"], "width": 2}], "split": {"valid": 3}},
        # a null is no value; in code None is kpca_components' default
        {"layers": [{"kernels": ["linear"], "width": 2, "kpca_components": None}]},
    ):
        with pytest.raises(ConfigError):
            parse_config(raw)


@pytest.mark.parametrize("section,key", [("classifier", "C"), ("classifier", "tol"),
                                         ("cv", "repeats")])
def test_a_null_is_named_by_its_json_key(section, key):
    with pytest.raises(ConfigError, match=r"^%s\.%s must not be null$" % (section, key)):
        parse_config(layered(**{section: {key: None}}))


# a null in each place a key sits: the root, a layer, the classifier, the
# split and the cv grid
@pytest.mark.parametrize("raw,path", [
    ({"layers": None}, "layers"),
    (dict(MINIMAL, subsample=None), "subsample"),
    (dict(MINIMAL, split=None), "split"),
    ({"layers": [{"kernels": None, "width": 2}]}, "layers[0].kernels"),
    (layered(classifier={"kernel": None}), "classifier.kernel"),
    (layered(split={"train": 5, "valid": None}), "split.valid"),
    (layered(cv={"kernels": None}), "cv.kernels"),
    (layered(cv={"gamma": None}), "cv.gamma"),
])
def test_every_null_is_named_by_its_json_path(raw, path):
    with pytest.raises(ConfigError, match=r"^%s must not be null$" % re.escape(path)):
        parse_config(raw)


def test_bad_kernel_text_is_config_error():
    with pytest.raises(ConfigError):
        parse_config({"layers": [{"kernels": ["sigmoid"], "width": 2}]})
    with pytest.raises(ConfigError):
        parse_config(layered(classifier={"kernel": "rbf(alpha=1)"}))


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError):
        parse_config({"layers": [{"kernels": ["linear"], "width": True}]})
    with pytest.raises(ConfigError):
        parse_config(layered(classifier={"C": True}))


def test_numeric_bounds():
    with pytest.raises(ConfigError):
        parse_config({"layers": [{"kernels": ["linear"], "width": 0}]})
    with pytest.raises(ConfigError):
        parse_config(layered(classifier={"C": -1}))
    with pytest.raises(ConfigError):
        parse_config(layered(cv={"svm_c": []}))
    with pytest.raises(ConfigError):
        parse_config(layered(subsample=-1))


def test_non_finite_numbers_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="rbf gamma"):
        parse_config({"layers": [{"kernels": ["rbf(gamma=inf)"], "width": 2}]})
    with pytest.raises(ConfigError, match="coef0"):
        parse_config(layered(classifier={"kernel": "poly(degree=2,coef0=nan)"}))
    # json reads the Infinity and NaN literals as floats
    path = tmp_path / "cfg.json"
    for text in ('"gamma": Infinity', '"gamma": NaN'):
        path.write_text('{"layers": [{"kernels": ["linear"], "width": 2, %s}]}' % text)
        with pytest.raises(ConfigError, match=r"layers\[0\].gamma must be finite"):
            load_config(path)
    for extra in ({"classifier": {"C": float("inf")}}, {"cv": {"gamma": [float("nan")]}},
                  {"cv": {"svm_c": [1.0, float("inf")]}}):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(layered(**extra))


def test_load_config_and_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(layered(subsample=17)))
    cfg = load_config(path)
    assert cfg.subsample == 17
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_snapshot_reparses_to_same_config():
    raw = layered(split={"train": 40, "valid": 10},
                  classifier={"kernel": "poly(degree=2)", "C": 5})
    cfg = parse_config(raw)
    snap = config_to_dict(cfg)
    again = parse_config(json.loads(json.dumps(snap)))
    assert config_to_dict(again) == snap
    assert again.split == cfg.split
    assert again.classifier.kernel == cfg.classifier.kernel


def test_a_repeated_key_is_an_error(tmp_path):
    # json keeps the last value, which would have set width 7 here
    path = tmp_path / "cfg.json"
    path.write_text('{"layers": [{"kernels": ["linear"], "width": 2, "width": 7}]}')
    with pytest.raises(ConfigError, match="^repeated key 'width' in a JSON object$"):
        load_config(path)
    path.write_text('{"layers": [{"kernels": ["rbf(gamma=1,gamma=2)"], "width": 2}]}')
    with pytest.raises(ConfigError) as caught:
        load_config(path)
    assert str(caught.value) == ("bad kernel in layers[0].kernels: "
                                 "repeated parameter 'gamma' in 'rbf(gamma=1,gamma=2)'")


def test_float_fields_hold_floats():
    cfg = parse_config(layered(classifier={"C": 10, "tol": 1}, cv={"svm_c": [1, 10]}))
    code = LayerConfig(kernels=cfg.layers[0].kernels, width=2, gamma=np.float32(0.5))
    values = [cfg.layers[1].gamma, cfg.classifier.c, cfg.classifier.tol, *cfg.cv.svm_c,
              code.gamma, ClassifierConfig(c=10).c]
    assert [type(v) for v in values] == [float] * len(values)
    assert values == [0.3, 10.0, 1.0, 1.0, 10.0, 0.5, 10.0]


LINEAR = parse_kernel("linear")
LAYER = LayerConfig(kernels=(LINEAR,), width=2)


def layer_json(**values):
    return [dict({"kernels": ["linear"], "width": 2}, **values)]


def cv_config(**values):
    return CvConfig(**dict({"kernel_sets": (), "gammas": (), "widths": ()}, **values))


# A bad value for each field of each dataclass: the JSON update that holds
# it, the same value built in code, the section path that the reader puts
# in front, and the text.  The reader rejects the JSON with a ConfigError
# of that path and text; the dataclass rejects the code with the text.
SAME_TEXT = [
    (LayerConfig, "kernels", {"layers": layer_json(kernels=[])},
     lambda: LayerConfig(kernels=(), width=2), "layers[0].",
     "kernels must hold at least one kernel"),
    (LayerConfig, "width", {"layers": layer_json(width=True)},
     lambda: LayerConfig(kernels=(LINEAR,), width=True), "layers[0].",
     "width must be an integer, got True"),
    (LayerConfig, "kpca_components", {"layers": layer_json(kpca_components=1)},
     lambda: LayerConfig(kernels=(LINEAR,), width=2, kpca_components=1), "layers[0].",
     "kpca_components must be an integer >= width 2, got 1"),
    (LayerConfig, "gamma", {"layers": layer_json(gamma="0.1")},
     lambda: LayerConfig(kernels=(LINEAR,), width=2, gamma="0.1"), "layers[0].",
     "gamma must be a number, got '0.1'"),
    (LayerConfig, "basis_size", {"layers": layer_json(basis_size=0)},
     lambda: LayerConfig(kernels=(LINEAR,), width=2, basis_size=0), "layers[0].",
     "basis_size must be >= 1, got 0"),
    (ClassifierConfig, "c", {"classifier": {"C": 0}},
     lambda: ClassifierConfig(c=0), "classifier.", "C must be positive, got 0.0"),
    (ClassifierConfig, "tol", {"classifier": {"tol": float("nan")}},
     lambda: ClassifierConfig(tol=float("nan")), "classifier.", "tol must be finite, got nan"),
    (CvConfig, "kernel_sets", {"cv": {"kernels": [["linear"], []]}},
     lambda: cv_config(kernel_sets=((LINEAR,), ())), "cv.",
     "kernel_sets[1] must hold at least one kernel"),
    (CvConfig, "gammas", {"cv": {"gamma": [0.1, -1]}},
     lambda: ExperimentConfig(layers=(LAYER,), cv=cv_config(gammas=(0.1, -1))), "",
     "layers[0] cv candidate: gamma must be nonnegative and finite, got -1.0"),
    (CvConfig, "widths", {"cv": {"width": [2, 0]}},
     lambda: ExperimentConfig(layers=(LAYER,), cv=cv_config(widths=(2, 0))), "",
     "layers[0] cv candidate: width must be >= 1, got 0"),
    (CvConfig, "svm_c", {"cv": {"svm_c": []}},
     lambda: cv_config(svm_c=()), "cv.", "svm_c must not be empty"),
    (CvConfig, "repeats", {"cv": {"repeats": 0}},
     lambda: cv_config(repeats=0), "cv.", "repeats must be >= 1, got 0"),
    (ExperimentConfig, "layers", {"layers": []},
     lambda: ExperimentConfig(layers=()), "", "layers must hold at least one LayerConfig"),
    (ExperimentConfig, "subsample", {"subsample": -1},
     lambda: ExperimentConfig(layers=(LAYER,), subsample=-1), "",
     "subsample must be >= 0, got -1"),
    (ExperimentConfig, "split", {"split": {"train": 0}},
     lambda: ExperimentConfig(layers=(LAYER,), split=(0, 0)), "",
     "split.train must be >= 1, got 0"),
    (ExperimentConfig, "classifier", {"classifier": {"tol": -1}},
     lambda: ExperimentConfig(layers=(LAYER,), classifier=ClassifierConfig(tol=-1)),
     "classifier.", "tol must be positive, got -1.0"),
    (ExperimentConfig, "cv", {"cv": {"svm_c": [1, -2]}},
     lambda: ExperimentConfig(layers=(LAYER,), cv=cv_config(svm_c=(1, -2))), "cv.",
     "svm_c must be positive, got -2.0"),
    (ExperimentConfig, "probe_cap", {"probe_cap": 1},
     lambda: ExperimentConfig(layers=(LAYER,), probe_cap=1), "",
     "probe_cap must be >= 2, got 1"),
]

# The classifier kernel is a string that the reader parses: the reader
# rejects a bad one with its own text, the dataclass a kernel built in code
# that is not a KernelSpec with another.
READER_READ = [
    (ClassifierConfig, "kernel", {"classifier": {"kernel": 5}},
     "bad kernel in classifier: kernel spec must be a string, got 5",
     lambda: ClassifierConfig(kernel=5), "classifier must be a KernelSpec, got 5"),
]


def test_every_field_has_a_bad_value_case():
    every = {(cls, f.name) for cls in (LayerConfig, ClassifierConfig, CvConfig, ExperimentConfig)
             for f in dataclasses.fields(cls)}
    assert {row[:2] for row in SAME_TEXT + READER_READ} == every


def rejected(raw, build):
    """(the reader's text for ``raw``, the dataclass's text for ``build()``)."""
    with pytest.raises(ConfigError) as from_json:
        parse_config(json.loads(json.dumps(raw)))
    with pytest.raises((ValueError, TypeError)) as from_code:
        build()
    return str(from_json.value), str(from_code.value)


@pytest.mark.parametrize("cls,field,updates,build,where,text", SAME_TEXT,
                         ids=["%s.%s" % (row[0].__name__, row[1]) for row in SAME_TEXT])
def test_each_bad_value_fails_in_its_dataclass_with_one_text(cls, field, updates, build,
                                                            where, text):
    assert rejected(dict({"layers": layer_json()}, **updates), build) == (where + text, text)


@pytest.mark.parametrize("cls,field,updates,json_text,build,text", READER_READ,
                         ids=["%s.%s" % (row[0].__name__, row[1]) for row in READER_READ])
def test_values_the_reader_reads_fail_in_the_reader(cls, field, updates, json_text, build, text):
    assert rejected(dict({"layers": layer_json()}, **updates), build) == (json_text, text)


@pytest.mark.parametrize("split,error", [((5,), ValueError), (5, TypeError),
                                         ((5, 1, 2), ValueError)])
def test_split_built_in_code_is_a_pair(split, error):
    with pytest.raises(error, match=r"^split must be a \(train, valid\) pair, got "):
        ExperimentConfig(layers=(LAYER,), split=split)
    assert ExperimentConfig(layers=(LAYER,), split=[5, 1]).split == (5, 1)
