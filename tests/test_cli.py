import argparse
import collections
import dataclasses
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import digits_like, direction_blobs, write_amat
from mlmkl import cli, data, pipeline, search
from mlmkl.config import load_config
from mlmkl.errors import ConfigError, ModelIOError, RowCountError
from mlmkl.kernels import parse_kernel
from mlmkl.pipeline import error_percent

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def corpus(tmp_path):
    x, y = digits_like(20, n_classes=2, seed=0)
    xt, yt = digits_like(10, n_classes=2, seed=1)
    train = tmp_path / "train.amat"
    test = tmp_path / "test.amat"
    write_amat(train, x, y)
    write_amat(test, xt, yt)
    config = {
        "layers": [
            {"kernels": ["rbf(gamma=0.05)", "linear"], "width": 4, "basis_size": 5},
        ],
        "subsample": 0,
        "classifier": {"kernel": "arccos(n=1,L=1)", "C": 10},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return {
        "tmp": tmp_path, "train": str(train), "test": str(test),
        "config": config, "cfg_path": cfg_path,
    }


def write_config(corpus, **updates):
    raw = dict(corpus["config"])
    raw.update(updates)
    corpus["cfg_path"].write_text(json.dumps(raw))
    return str(corpus["cfg_path"])


def test_train_eval_weights_flow(corpus, capsys):
    model_path = str(corpus["tmp"] / "model.bin")
    rc = cli.main([
        "train", "--config", str(corpus["cfg_path"]), "--train", corpus["train"],
        "--out", model_path,
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "layer 1" in out
    assert "model written to" in out

    rc = cli.main(["eval", "--model", model_path, "--test", corpus["test"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "error: 0.00%" in out
    assert "confusion" in out

    rc = cli.main(["weights", "--model", model_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("layer")
    assert "rbf(gamma=0.05)=" in out


def test_weights_json_rows_are_simplex_points(corpus, capsys):
    model_path = str(corpus["tmp"] / "model.bin")
    cfg = write_config(corpus, layers=[
        {"kernels": ["rbf(gamma=0.05)", "linear"], "width": 5, "basis_size": 5},
        {"kernels": ["arccos(n=1,L=1)", "linear"], "width": 3,
         "kpca_components": 5, "basis_size": 5},
    ])
    assert cli.main(["train", "--config", cfg, "--train", corpus["train"],
                     "--out", model_path]) == 0
    capsys.readouterr()
    assert cli.main(["weights", "--model", model_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["layers"]) == 2
    for i, row in enumerate(payload["layers"], 1):
        assert row["layer"] == i
        mu = np.array(row["mu"])
        assert mu.size == len(row["kernels"]) == 2
        assert np.all(mu >= 0.0)
        assert abs(mu.sum() - 1.0) <= 1e-10


def test_train_json_payload(corpus, capsys):
    model_path = str(corpus["tmp"] / "model.bin")
    rc = cli.main([
        "train", "--config", str(corpus["cfg_path"]), "--train", corpus["train"],
        "--out", model_path, "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_rows"] == 40
    assert payload["model_path"] == model_path
    assert len(payload["layers"]) == 1
    row = payload["layers"][0]
    assert row["kernels"] == ["rbf(gamma=0.05)", "linear"]
    assert abs(sum(row["mu"]) - 1.0) <= 1e-10
    assert payload["validation_error_percent"] is None
    assert payload["classifier"]["support_vectors"] > 0


def test_train_with_split_reports_validation(corpus, capsys):
    model_path = str(corpus["tmp"] / "model.bin")
    cfg = write_config(corpus, split={"train": 30, "valid": 10})
    rc = cli.main(["train", "--config", cfg, "--train", corpus["train"],
                   "--out", model_path, "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["validation_error_percent"] is not None
    assert payload["layers"][0]["valid_error_percent"] is not None


def without_seconds(report):
    """``report`` of ``pipeline.train`` or ``mlmkl train`` without its timings."""
    out = {key: value for key, value in report.items() if key != "seconds"}
    out["layers"] = [{k: v for k, v in row.items() if k != "seconds"} for row in out["layers"]]
    out["classifier"] = {k: v for k, v in out["classifier"].items() if k != "seconds"}
    return out


@pytest.mark.parametrize("split", [None, {"train": 30, "valid": 10}])
def test_train_prints_the_report_of_the_library_train(corpus, capsys, split):
    updates = {"layers": [
        {"kernels": ["rbf(gamma=0.05)", "linear"], "width": 5, "basis_size": 5},
        {"kernels": ["arccos(n=1,L=1)", "linear"], "width": 3, "kpca_components": 5,
         "basis_size": 5},
    ]}
    cfg = write_config(corpus, **updates, **({} if split is None else {"split": split}))
    model_path = str(corpus["tmp"] / "model.bin")
    assert cli.main(["train", "--config", cfg, "--train", corpus["train"], "--out", model_path,
                     "--format", "json", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    model, report = pipeline.train(data.load_amat(corpus["train"]), load_config(cfg), seed=3)
    assert {key: payload.pop(key) for key in ("train_file", "n_rows", "seed", "model_path")} == {
        "train_file": corpus["train"], "n_rows": 40, "seed": 3, "model_path": model_path}
    assert without_seconds(payload) == json.loads(json.dumps(without_seconds(report)))
    saved = corpus["tmp"] / "library.bin"
    pipeline.save(model, saved)
    assert saved.read_bytes() == Path(model_path).read_bytes()


def test_a_split_without_validation_rows_is_reported(corpus, capsys):
    # the split draws 30 of the 40 rows to fit on; it must say so
    cfg = write_config(corpus, split={"train": 30})
    model_path = str(corpus["tmp"] / "model.bin")
    assert cli.main(["train", "--config", cfg, "--train", corpus["train"],
                     "--out", model_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["loaded %s: 40 rows" % corpus["train"],
                         "split: 30 train / 0 validation (seed 0)"]
    assert cli.main(["train", "--config", cfg, "--train", corpus["train"],
                     "--out", model_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n_rows"], payload["n_train"], payload["n_valid"]) == (40, 30, 0)
    assert payload["validation_error_percent"] is None
    assert payload["layers"][0]["valid_error_percent"] is None


def test_a_failing_validation_probe_names_the_layer_and_the_probe_cap(corpus, capsys):
    # the first two training rows of this split share a class
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, probe_cap=2)
    model_path = corpus["tmp"] / "model.bin"
    assert cli.main(["train", "--config", cfg, "--train", corpus["train"],
                     "--out", str(model_path)]) == 2
    assert capsys.readouterr().err == (
        "error: layer 1 validation probe on 2 training rows (probe_cap 2): "
        "need at least two classes, got 1\n")
    assert not model_path.exists()


def test_train_runs_are_byte_identical(corpus, capsys):
    a = corpus["tmp"] / "a.bin"
    b = corpus["tmp"] / "b.bin"
    for path in (a, b):
        rc = cli.main(["train", "--config", str(corpus["cfg_path"]),
                       "--train", corpus["train"], "--out", str(path),
                       "--seed", "42"])
        assert rc == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_subsample_override_lands_in_metadata(corpus, capsys):
    model_path = str(corpus["tmp"] / "model.bin")
    rc = cli.main(["train", "--config", write_config(corpus, subsample=25),
                   "--train", corpus["train"], "--out", model_path])
    assert rc == 0
    capsys.readouterr()
    model = pipeline.load(model_path)
    assert model.metadata["subsample"] == 25
    assert model.layers[0].fit_sample.shape[0] == 25


def test_missing_train_file_fails_cleanly(corpus, capsys):
    rc = cli.main(["train", "--config", str(corpus["cfg_path"]),
                   "--train", str(corpus["tmp"] / "absent.amat"),
                   "--out", str(corpus["tmp"] / "m.bin")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("command,flag", [
    ("train", "--out"), ("train", "--config"), ("cv", "--out"), ("eval", "--model"),
])
def test_a_directory_in_place_of_a_file_fails_cleanly(corpus, capsys, monkeypatch,
                                                     command, flag):
    # a bad --out fails before the fit, not after it
    monkeypatch.setattr(pipeline, "fit", lambda *a, **kw: pytest.fail("fit was called"))
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, cv={"width": [3], "repeats": 1})
    argv = {
        "train": ["train", "--config", cfg, "--train", corpus["train"],
                  "--out", str(corpus["tmp"] / "m.bin")],
        "cv": ["cv", "--config", cfg, "--train", corpus["train"],
               "--out", str(corpus["tmp"] / "best.json")],
        "eval": ["eval", "--model", str(corpus["tmp"] / "m.bin"), "--test", corpus["test"]],
    }[command]
    argv[argv.index(flag) + 1] = str(corpus["tmp"])
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(corpus["tmp"]) in captured.err
    assert captured.err.count("\n") == 1


def test_train_out_in_a_missing_directory_fails_before_the_fit(corpus, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "fit", lambda *a, **kw: pytest.fail("fit was called"))
    out = corpus["tmp"] / "absent" / "m.bin"
    rc = cli.main(["train", "--config", str(corpus["cfg_path"]), "--train", corpus["train"],
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: '%s'\n" % out
    assert not out.parent.exists()


def test_cv_out_in_a_missing_directory_fails_before_the_search(corpus, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(search, "grid_search", lambda *a, **kw: calls.append(a))
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, cv={"width": [3], "repeats": 1})
    out = corpus["tmp"] / "absent" / "best.json"
    rc = cli.main(["cv", "--config", cfg, "--train", corpus["train"], "--out", str(out)])
    captured = capsys.readouterr()
    assert calls == []
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: '%s'\n" % out
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["train", "cv"])
def test_an_empty_out_fails_before_any_layer_is_fitted(corpus, capsys, monkeypatch, command):
    # train used to run the whole fit and then fail to open ''; cv took an
    # empty --out for no --out and printed the best config
    for name in ("fit", "fit_layer_grid"):
        monkeypatch.setattr(pipeline, name, lambda *a, **kw: pytest.fail("a layer was fitted"))
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, cv={"width": [3], "repeats": 1})
    rc = cli.main([command, "--config", cfg, "--train", corpus["train"], "--out", ""])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


def test_unknown_config_key_fails_cleanly(corpus, capsys):
    cfg = write_config(corpus, probecap=10)
    rc = cli.main(["train", "--config", cfg, "--train", corpus["train"],
                   "--out", str(corpus["tmp"] / "m.bin")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "probecap" in captured.err


@pytest.mark.parametrize("layer,message", [
    ({"kernels": ["rbf(gamma=inf)"], "width": 2}, "rbf gamma must be positive and finite"),
    ({"kernels": ["poly(degree=2,coef0=nan)"], "width": 2}, "coef0 must be finite"),
    ({"kernels": ["linear"], "width": 2, "gamma": float("inf")}, "gamma must be finite"),
], ids=["rbf_gamma_inf", "poly_coef0_nan", "layer_gamma_inf"])
def test_train_rejects_non_finite_parameters(corpus, capsys, layer, message):
    cfg = write_config(corpus, layers=[layer])  # json writes inf as Infinity
    rc = cli.main(["train", "--config", cfg, "--train", corpus["train"],
                   "--out", str(corpus["tmp"] / "m.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and message in err
    assert not (corpus["tmp"] / "m.bin").exists()


def test_train_rejects_negative_subsample_as_fit_does(corpus, capsys):
    layers = load_config(corpus["cfg_path"]).layers
    cfg = write_config(corpus, subsample=-5)
    rc = cli.main(["train", "--config", cfg, "--train", corpus["train"],
                   "--out", str(corpus["tmp"] / "m.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    with pytest.raises(ConfigError):
        load_config(cfg)
    ds = data.load_amat(corpus["train"])
    with pytest.raises(RowCountError) as caught:
        pipeline.fit(ds.features, ds.labels, layers, subsample=-5)
    assert err == "error: %s\n" % caught.value
    assert "subsample" in err


def test_cv_rejects_negative_subsample(corpus, capsys):
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, cv={"width": [3]},
                       subsample=-3)
    rc = cli.main(["cv", "--config", cfg, "--train", corpus["train"]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "subsample" in err


@pytest.mark.parametrize("command", ["train", "cv"])
def test_a_negative_seed_is_a_usage_error(corpus, capsys, command):
    # numpy's generators would raise their own ValueError past main
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, cv={"width": [3]})
    with pytest.raises(SystemExit) as caught:
        cli.main([command, "--config", cfg, "--train", corpus["train"],
                  "--out", str(corpus["tmp"] / "out"), "--seed", "-1"])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mlmkl %s" % command)
    assert "argument --seed: must be a nonnegative integer, got -1" in err
    assert not (corpus["tmp"] / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(corpus, capsys, jobs):
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, cv={"width": [3]})
    with pytest.raises(SystemExit) as caught:
        cli.main(["cv", "--config", cfg, "--train", corpus["train"], "--jobs", jobs])
    assert caught.value.code == 2
    assert "argument --jobs: must be a positive integer, got %s" % jobs in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--config", "c.json", "--train", "t.amat", "--subsample", "25"],
    ["cv", "--config", "c.json", "--train", "t.amat", "--subsample", "25"],
    ["eval", "--model", "m.bin", "--test", "t.amat", "--seed", "1"],
    ["weights", "--model", "m.bin", "--seed", "1"],
], ids=["train_subsample", "cv_subsample", "eval_seed", "weights_seed"])
def test_the_config_is_the_one_way_to_set_an_experiment(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        cli.main(argv)
    assert caught.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(argv[-2:]) in capsys.readouterr().err


def test_every_flag_is_read_by_its_command():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    emit = inspect.getsource(cli._emit)
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("func")) + emit
        for action in sub._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                assert "args.%s" % action.dest in source, (name, action.option_strings)


@pytest.mark.parametrize("updates,message", [
    ({"cv": {"gamma": [-1]}}, "layers[0] cv candidate: gamma must be nonnegative and finite, "
                              "got -1.0"),
    ({"cv": {"svm_c": [-1, 1]}}, "cv.svm_c must be positive, got -1.0"),
    ({"cv": {"svm_c": [0]}}, "cv.svm_c must be positive, got 0.0"),
    ({"cv": {"width": [3, 8]},
      "layers": [{"kernels": ["linear"], "width": 3, "kpca_components": 6}]},
     "layers[0] cv candidate: kpca_components must be an integer >= width 8, got 6"),
    ({"layers": [{"kernels": ["linear"], "width": 2, "gamma": -1}]},
     "layers[0].gamma must be nonnegative and finite, got -1.0"),
], ids=["cv_gamma", "cv_svm_c_negative", "cv_svm_c_zero", "kpca_below_cv_width",
        "layer_gamma"])
def test_cv_rejects_bad_values_where_the_config_is_read(corpus, capsys, updates, message):
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, **updates)
    with pytest.raises(ConfigError):  # before any layer is fitted
        load_config(cfg)
    rc = cli.main(["cv", "--config", cfg, "--train", corpus["train"]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and message in err


def test_split_larger_than_the_file_fails_cleanly(corpus, capsys):
    cfg = write_config(corpus, split={"train": 1000, "valid": 5}, cv={"width": [3]})
    for command in (["train", "--out", str(corpus["tmp"] / "m.bin")], ["cv"]):
        rc = cli.main(command + ["--config", cfg, "--train", corpus["train"]])
        assert rc == 2
        assert capsys.readouterr().err == "error: cannot draw 1000 + 5 rows from 40\n"


def test_width_beyond_the_kpca_spectrum_fails_cleanly(corpus, capsys):
    # 30 fit rows centre to at most 29 usable components, fewer than width 40
    cfg = write_config(corpus, layers=[{"kernels": ["rbf(gamma=0.05)", "linear"],
                                        "width": 40, "basis_size": 5}], subsample=30)
    with pytest.warns(UserWarning, match="only 29 eigenvalues are usable"):
        rc = cli.main(["train", "--config", cfg, "--train", corpus["train"],
                       "--out", str(corpus["tmp"] / "m.bin")])
    assert rc == 2
    assert capsys.readouterr().err == "error: width must be an integer in [1, 29], got 40\n"
    assert not (corpus["tmp"] / "m.bin").exists()


def test_train_pushes_validation_rows_through_each_layer_once(corpus, capsys, monkeypatch):
    pushed = []
    transform_layer = pipeline.transform_layer

    def counting(layer, features):
        pushed.append(len(features))
        return transform_layer(layer, features)

    monkeypatch.setattr(pipeline, "transform_layer", counting)
    model_path = str(corpus["tmp"] / "model.bin")
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, layers=[
        {"kernels": ["rbf(gamma=0.05)", "linear"], "width": 5, "basis_size": 5},
        {"kernels": ["arccos(n=1,L=1)", "linear"], "width": 3,
         "kpca_components": 5, "basis_size": 5},
    ])
    assert cli.main(["train", "--config", cfg, "--train", corpus["train"],
                     "--out", model_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert pushed == [10, 10]
    # the same rows predicted from scratch by the saved model
    _, valid = data.split(data.load_amat(corpus["train"]), 30, 10, seed=0)
    predicted = pipeline.predict(pipeline.load(model_path), valid.features)
    assert payload["validation_error_percent"] == error_percent(predicted, valid.labels)


def test_eval_rejects_corrupt_model(corpus, capsys):
    model_path = corpus["tmp"] / "model.bin"
    rc = cli.main(["train", "--config", str(corpus["cfg_path"]),
                   "--train", corpus["train"], "--out", str(model_path)])
    assert rc == 0
    blob = bytearray(model_path.read_bytes())
    blob[-1] ^= 0x01
    model_path.write_bytes(bytes(blob))
    rc = cli.main(["eval", "--model", str(model_path), "--test", corpus["test"]])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_a_model_without_a_classifier_kernel_fails_to_load(corpus, capsys):
    model_path = corpus["tmp"] / "model.bin"
    assert cli.main(["train", "--config", str(corpus["cfg_path"]),
                     "--train", corpus["train"], "--out", str(model_path)]) == 0
    capsys.readouterr()
    model = pipeline.load(model_path)
    unsaved = corpus["tmp"] / "unsaved.bin"
    with pytest.raises(ValueError, match="without support vectors and kernel"):
        pipeline.save(dataclasses.replace(model, classifier=dataclasses.replace(
            model.classifier, kernel=None)), unsaved)
    assert not unsaved.exists()
    # the header re-signed with a null kernel, so the checksum holds
    blob = model_path.read_bytes()
    prefix = struct.Struct("<IIQ")
    start = 8 + prefix.size
    version, header_len, total = prefix.unpack(blob[8:start])
    header = json.loads(blob[start:start + header_len])
    header["classifier"]["kernel"] = None
    head = json.dumps(header).encode("utf-8")
    payload = blob[start + header_len:total - 32]
    body = (blob[:8] + prefix.pack(version, len(head), start + len(head) + len(payload) + 32)
            + head + payload)
    model_path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ModelIOError, match="kernel spec must be a string, got None"):
        pipeline.load(model_path)
    rc = cli.main(["eval", "--model", str(model_path), "--test", corpus["test"]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cv_smoke_and_best_config(corpus, capsys):
    cfg = write_config(
        corpus,
        split={"train": 30, "valid": 10},
        cv={"width": [3, 4], "svm_c": [1, 10], "repeats": 2},
    )
    out_path = corpus["tmp"] / "best.json"
    rc = cli.main(["cv", "--config", cfg, "--train", corpus["train"],
                   "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cand 1/2" in out
    assert "selected C=" in out
    best = json.loads(out_path.read_text())
    assert best["layers"][0]["width"] in (3, 4)
    assert best["classifier"]["C"] in (1.0, 10.0)
    assert "cv" not in best
    # the printed table marks exactly one winner per layer
    assert out.count("<-- selected") == 1


def test_cv_json_report(corpus, capsys):
    cfg = write_config(
        corpus,
        split={"train": 30, "valid": 10},
        cv={"gamma": [0.1, 0.2], "svm_c": [10], "repeats": 1},
    )
    rc = cli.main(["cv", "--config", cfg, "--train", corpus["train"],
                   "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["layers"]) == 1
    assert len(report["layers"][0]) == 2
    assert sum(row["selected"] for row in report["layers"][0]) == 1
    assert report["best_config"]["classifier"]["C"] == 10.0
    assert "best_mean_error_percent" in report


def test_cv_requires_cv_section_and_split(corpus, capsys):
    rc = cli.main(["cv", "--config", str(corpus["cfg_path"]),
                   "--train", corpus["train"]])
    assert rc == 2
    assert "cv" in capsys.readouterr().err
    cfg = write_config(corpus, cv={"width": [3]})
    rc = cli.main(["cv", "--config", cfg, "--train", corpus["train"]])
    assert rc == 2
    assert "split" in capsys.readouterr().err


def test_eval_rejects_model_with_out_of_range_selection(corpus, capsys):
    model_path = corpus["tmp"] / "model.bin"
    assert cli.main(["train", "--config", str(corpus["cfg_path"]),
                     "--train", corpus["train"], "--out", str(model_path)]) == 0
    capsys.readouterr()
    model = pipeline.load(model_path)
    model.layers[0].selected = np.array([0, 1, 2, 99])  # the checksum stays valid
    pipeline.save(model, model_path)
    with pytest.raises(ModelIOError, match="selected"):
        pipeline.load(model_path)
    rc = cli.main(["eval", "--model", str(model_path), "--test", corpus["test"]])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("saved")
    x, y = digits_like(20, n_classes=2, seed=0)
    xt, yt = digits_like(10, n_classes=2, seed=1)
    write_amat(tmp / "test.amat", xt, yt)
    layer = pipeline.LayerConfig(kernels=(parse_kernel("rbf(gamma=0.05)"), parse_kernel("linear")),
                                 width=4, basis_size=5)
    pipeline.save(pipeline.fit(x, y, [layer], subsample=0), tmp / "model.bin")
    return {"model": tmp / "model.bin", "test": str(tmp / "test.amat"), "x_test": xt}


# each value of a model file that predict reads, by its name in the file,
# and where it sits in a model, as (owner, attribute)
MODEL_VALUES = {
    "layer0/weights": lambda m: (m.layers[0].weights, "mu"),
    "layer0/alphas": lambda m: (m.layers[0].kpca, "alphas"),
    "layer0/eigenvalues": lambda m: (m.layers[0].kpca, "eigenvalues"),
    "layer0/row_means": lambda m: (m.layers[0].kpca, "row_means"),
    "layer0/total_mean": lambda m: (m.layers[0].kpca, "total_mean"),
    "layer0/scores": lambda m: (m.layers[0], "scores"),
    "layer0/fit_sample": lambda m: (m.layers[0], "fit_sample"),
    "classifier/dual_coef": lambda m: (m.classifier, "dual_coef"),
    "classifier/biases": lambda m: (m.classifier, "biases"),
    "classifier/support_vectors": lambda m: (m.classifier, "support_vectors"),
    "classifier/c": lambda m: (m.classifier, "c"),
}


def save_with_one_entry(saved_model, path, name, value):
    """The saved model, with one entry of ``name`` set to ``value``, saved
    to ``path`` with a valid checksum."""
    model = pipeline.load(saved_model["model"])
    owner, attr = MODEL_VALUES[name](model)
    entry = getattr(owner, attr)
    if np.ndim(entry):
        entry = np.array(entry, copy=True)
        entry.flat[0] = value
    else:
        entry = value
    object.__setattr__(owner, attr, entry)  # also on frozen dataclasses
    pipeline.save(model, path)


@pytest.mark.parametrize("name,value", [
    (name, value) for name in MODEL_VALUES for value in (np.nan, np.inf)
    if (name, value) != ("layer0/scores", np.inf)
] + [("layer0/scores", -np.inf)])
def test_a_model_value_that_is_not_finite_fails_to_load(saved_model, tmp_path, capsys,
                                                         name, value):
    # a NaN or inf that predict reads used to load, and every row was then
    # predicted as the first class
    path = tmp_path / "model.bin"
    save_with_one_entry(saved_model, path, name, value)
    with pytest.raises(ModelIOError, match="^%s holds nan or inf$" % name):
        pipeline.load(path)
    rc = cli.main(["eval", "--model", str(path), "--test", saved_model["test"]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: %s holds nan or inf\n" % name


def test_a_model_score_may_be_infinite(saved_model, tmp_path):
    # featsel scores a perfectly separating component +inf; predict reads no score
    path = tmp_path / "model.bin"
    save_with_one_entry(saved_model, path, "layer0/scores", np.inf)
    back = pipeline.load(path)
    assert back.layers[0].scores[0] == np.inf
    np.testing.assert_array_equal(pipeline.predict(back, saved_model["x_test"]),
                                  pipeline.predict(pipeline.load(saved_model["model"]),
                                                   saved_model["x_test"]))


@pytest.fixture
def golden_corpus(tmp_path):
    """Two layers, 2 kernel sets x 2 gammas x 3 widths, 2 repeats on
    subsampled splits; width 40 is beyond every usable spectrum, width 10
    beyond some, so failed and warned candidates are both covered."""
    rng = np.random.default_rng(7)
    pool = rng.choice(784, size=40, replace=False)
    groups = [rng.choice(pool, size=16, replace=False) for _ in range(3)]
    x, y = direction_blobs(20, 784, groups, noise=0.3, lift=0.3, seed=7)
    train = tmp_path / "train.amat"
    write_amat(train, x, y)
    config = {
        "layers": [
            {"kernels": ["rbf(gamma=0.05)", "linear"], "width": 4, "basis_size": 5},
            {"kernels": ["arccos(n=1,L=1)", "linear"], "width": 3, "basis_size": 5},
        ],
        "subsample": 30,
        "split": {"train": 40, "valid": 20},
        "classifier": {"kernel": "arccos(n=1,L=1)", "C": 10},
        "cv": {
            "kernels": [["rbf(gamma=0.05)", "linear"], ["arccos(n=1,L=1)", "rbf(gamma=0.01)"]],
            "gamma": [0.05, 0.5], "width": [3, 10, 40], "svm_c": [1, 10], "repeats": 2,
        },
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return ["cv", "--config", str(cfg), "--train", str(train)]


# Captured from commit 3c86fa7, which fitted every candidate on its own and
# refitted the winners.  The kPCA warnings are that commit's per-candidate
# ones; the refits' repeats of them are gone.
GOLDEN_KPCA_WARNINGS = {
    "requested 120 components but only 10 eigenvalues are usable": 2,
    "requested 120 components but only 29 eigenvalues are usable": 14,
    "requested 30 components but only 10 eigenvalues are usable": 2,
    "requested 30 components but only 29 eigenvalues are usable": 14,
}


@pytest.mark.parametrize("fmt,golden", [("text", "cv_report.txt"), ("json", "cv_report.json")])
def test_cv_matches_golden_report(golden_corpus, fmt, golden, capsys):
    with pytest.warns(UserWarning) as caught:
        rc = cli.main(golden_corpus + ["--format", fmt])
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
    kpca_warnings = collections.Counter(
        str(w.message) for w in caught if "eigenvalues are usable" in str(w.message)
    )
    assert kpca_warnings == GOLDEN_KPCA_WARNINGS


def test_cv_prints_each_kpca_warning_text_once(golden_corpus, tmp_path):
    # Python's default filter shows a text once per source location; a row
    # of candidates that reuses another row's kernel PCA warns from the
    # location a fresh row does, so each distinct text is printed once
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONWARNINGS", None)
    result = subprocess.run(
        [sys.executable, "-W", "default", "-c",
         "import sys; from mlmkl.cli import main; sys.exit(main(sys.argv[1:]))",
         *golden_corpus],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    printed = [line for line in result.stderr.splitlines() if "eigenvalues are usable" in line]
    assert sorted(line.split("UserWarning: ")[1] for line in printed) == sorted(
        GOLDEN_KPCA_WARNINGS)


def test_jobs_is_deprecated_and_changes_only_a_note(golden_corpus, capsys):
    # --jobs still parses, for command lines written when cv had a process pool
    golden = (GOLDEN / "cv_report.json").read_text()
    with pytest.warns(UserWarning):
        assert cli.main(golden_corpus + ["--format", "json", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden
    assert captured.err.splitlines() == [
        "note: --jobs is deprecated and has no effect; cv runs in this process"]
    with pytest.warns(UserWarning):
        assert cli.main(golden_corpus + ["--format", "json", "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden
    assert captured.err == ""


def test_eval_confusion_counts_every_row(saved_model, tmp_path, capsys):
    x, y = digits_like(6, n_classes=3, seed=4)
    y = np.where(y == 2, 7, y)  # a true class the two-class model never predicts
    test = tmp_path / "test.amat"
    write_amat(test, x, y)
    predicted = pipeline.predict(pipeline.load(saved_model["model"]), data.load_amat(test).features)
    classes = [0, 1, 7]
    want = [[sum(1 for t, p in zip(y, predicted) if (t, p) == (a, b)) for b in classes]
            for a in classes]
    assert sum(want[2]) == 6 and want[2][2] == 0

    argv = ["eval", "--model", str(saved_model["model"]), "--test", str(test)]
    assert cli.main(argv + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classes"] == classes
    assert report["confusion"] == want
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["%4d | %s" % (c, " ".join("%5d" % v for v in row))
                          for c, row in zip(classes, want)]


BAD_AMAT = {
    "binary": (b"\xff\xfe\x00garbage\n", "error: line 1: row is not utf-8 text"),
    "columns": ((" ".join(["0"] * 784) + " 1\n0 0 1\n").encode("ascii"),
                "error: line 2: expected 785 values per row, got 3"),
    "empty": (b"", "error: no samples in "),
}


@pytest.mark.parametrize("kind", sorted(BAD_AMAT))
@pytest.mark.parametrize("command", ["train", "eval", "cv"])
def test_a_bad_amat_file_is_one_error_line(corpus, saved_model, capsys, recwarn, command, kind):
    content, message = BAD_AMAT[kind]
    bad = corpus["tmp"] / "bad.amat"
    bad.write_bytes(content)
    cfg = write_config(corpus, split={"train": 30, "valid": 10}, cv={"width": [3], "repeats": 1})
    argv = {
        "train": ["train", "--config", cfg, "--train", str(bad),
                  "--out", str(corpus["tmp"] / "m.bin")],
        "eval": ["eval", "--model", str(saved_model["model"]), "--test", str(bad)],
        "cv": ["cv", "--config", cfg, "--train", str(bad)],
    }[command]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert len(recwarn) == 0
