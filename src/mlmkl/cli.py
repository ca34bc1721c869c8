"""Command line front end.

Subcommands:

  train    fit a model from a config and an amat training file
  eval     error rate and confusion matrix of a saved model on a test file
  weights  per-layer kernel combination weights of a saved model
  cv       greedy per-layer grid search with repeated fits

The JSON config alone sets the experiment: layers, fit subsample, split,
classifier and cv grid.  The flags name the files and the output format,
and give train and cv their --seed.  Randomness is controlled by --seed
alone; two train runs with the same config and seed write byte-identical
model files.  cv runs in the calling process; its --jobs is deprecated and
has no effect.

The library owns the work and this module only parses and formats: train
prints the report of ``pipeline.train``, which splits, fits, probes each
layer and times it, and cv the report of ``search.grid_search``.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import data, pipeline, search
from .config import load_config
from .errors import MlmklError

__all__ = ["main"]


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _mu_text(row):
    return " ".join("%s=%.6f" % kw for kw in zip(row["kernels"], row["mu"]))


# ---------------------------------------------------------------------------
# train


def _writable(path):
    """Fail as ``open(path, "wb")`` fails when ``path`` is empty, is a
    directory or its parent directory is missing, but before the fit and
    creating no file."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_train(args):
    _writable(args.out)
    cfg = load_config(args.config)
    ds = data.load_amat(args.train)
    model, report = pipeline.train(ds, cfg, seed=args.seed)
    pipeline.save(model, args.out)

    lines = ["loaded %s: %d rows" % (args.train, ds.n)]
    if cfg.split is not None:
        lines.append("split: %d train / %d validation (seed %d)"
                     % (report["n_train"], report["n_valid"], args.seed))
    for row in report["layers"]:
        note = "" if row["valid_error_percent"] is None else (
            "  valid error %.2f%%" % row["valid_error_percent"]
        )
        lines.append(
            "layer %d [%.1fs]  mu: %s%s"
            % (row["layer"], row["seconds"], _mu_text(row), note)
        )
    clf = report["classifier"]
    lines.append(
        "classifier [%.1fs]  kernel=%s C=%g  support vectors: %d"
        % (clf["seconds"], clf["kernel"], clf["C"], clf["support_vectors"])
    )
    if report["validation_error_percent"] is not None:
        lines.append("validation error: %.2f%%" % report["validation_error_percent"])
    lines.append("total %.1fs, model written to %s" % (report["seconds"], args.out))
    payload = dict(report, train_file=args.train, n_rows=ds.n, seed=args.seed,
                   model_path=args.out)
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args):
    model = pipeline.load(args.model)
    ds = data.load_amat(args.test)
    predicted = pipeline.predict(model, ds.features)
    error = pipeline.error_percent(predicted, ds.labels)
    classes = np.union1d(model.classifier.classes, np.unique(ds.labels))
    k = classes.size
    cells = np.searchsorted(classes, ds.labels) * k + np.searchsorted(classes, predicted)
    confusion = np.bincount(cells, minlength=k * k).reshape(k, k)
    lines = [
        "test %s: %d rows" % (args.test, ds.n),
        "error: %.2f%%" % error,
        "confusion (rows true, cols predicted; classes %s):"
        % " ".join(str(c) for c in classes),
    ]
    for i, c in enumerate(classes):
        lines.append("%4d | %s" % (c, " ".join("%5d" % v for v in confusion[i])))
    payload = {
        "test_file": args.test,
        "n_rows": ds.n,
        "error_percent": error,
        "classes": [int(c) for c in classes],
        "confusion": confusion.tolist(),
    }
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# weights


def cmd_weights(args):
    model = pipeline.load(args.model)
    rows = [pipeline.layer_row(i, layer) for i, layer in enumerate(model.layers)]
    lines = ["layer  weights"] + ["%5d  %s" % (row["layer"], _mu_text(row)) for row in rows]
    _emit(args, {"layers": rows}, lines)
    return 0


# ---------------------------------------------------------------------------
# cv


def cmd_cv(args):
    if args.out is not None:
        _writable(args.out)
    if args.jobs > 1:
        print("note: --jobs is deprecated and has no effect; cv runs in this process",
              file=sys.stderr)
    result = search.grid_search(
        data.load_amat(args.train), load_config(args.config), seed=args.seed
    )
    report = result.report
    lines = []
    for li, rows in enumerate(report["layers"]):
        for ci, row in enumerate(rows):
            outcome = (
                "error %.2f%% +- %.2f%%" % (row["mean_error_percent"], row["std_error_percent"])
                if row["mean_error_percent"] is not None
                else "failed (%s)" % result.notes[li, ci]
            )
            lines.append(
                "layer %d cand %d/%d: kernels=[%s] gamma=%g width=%d  %s%s"
                % (li + 1, ci + 1, len(rows), " ".join(row["kernels"]), row["gamma"],
                   row["width"], outcome, " <-- selected" if row["selected"] else "")
            )
    for row in report["svm_c"]:
        lines.append(
            "svm C=%g  error %.2f%% +- %.2f%%"
            % (row["C"], row["mean_error_percent"], row["std_error_percent"])
        )
    best = report["best_config"]
    lines.append("selected C=%g" % best["classifier"]["C"])
    lines.append(
        "best: error %.2f%% +- %.2f%%"
        % (report["best_mean_error_percent"], report["best_std_error_percent"])
    )
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(best, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append("best config written to %s" % args.out)
    else:
        lines.append(json.dumps(best, indent=2, sort_keys=True))
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------


def _seed(text):
    """``--seed``: numpy's generators take only nonnegative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer, got %d" % seed)
    return seed


def _jobs(text):
    """``--jobs``: deprecated, kept so that existing command lines parse."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %d" % jobs)
    return jobs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mlmkl",
        description="Multi-layer multiple kernel machines: train, evaluate, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help="base random seed")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("train", help="fit a model on an amat training file")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--train", required=True, help="training data (amat)")
    p.add_argument("--out", default="model.mlmkl", help="model output path")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--test", required=True, help="test data (amat)")
    common(p, seed=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("weights", help="print per-layer kernel weights")
    p.add_argument("--model", required=True, help="model file from train")
    common(p, seed=False)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("cv", help="greedy per-layer grid search")
    p.add_argument("--config", required=True, help="JSON experiment config with a cv section")
    p.add_argument("--train", required=True, help="training data (amat)")
    p.add_argument("--out", default=None, help="where to write the best config JSON")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="deprecated, has no effect: cv runs in this process")
    common(p)
    p.set_defaults(func=cmd_cv)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MlmklError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
