"""Quick self-check of the benchmark at tiny sizes, in a few seconds.

    python3 bench/selfcheck.py

Checks that the generator is deterministic for a seed and makes what its
docstring promises, and that a run of every workload, shrunk, emits every
metric named in BENCHMARK.json with that metric's unit: the end-to-end ones
untraced and the per-layer ones traced.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import sys
import tempfile

import run


def _shrink_layers(layers):
    return [dict(layer, width=max(1, layer["width"] // 15)) for layer in layers]


def tiny(workload):
    """The same workload with every size cut down."""
    train = copy.deepcopy(workload.train_config)
    train.update(layers=_shrink_layers(train["layers"]), subsample=100)
    cv = copy.deepcopy(workload.cv_config)
    cv.update(layers=_shrink_layers(cv["layers"]), subsample=100,
              split={"train": 100, "valid": 60})
    cv["cv"]["width"] = [max(1, w // 15) for w in cv["cv"]["width"]]
    return dataclasses.replace(workload, train_rows=150, test_rows=60, train_config=train,
                               cv_rows=160, cv_config=cv, error_ceiling_pct=100.0)


def check(condition, message):
    if not condition:
        print("selfcheck FAILED: %s" % message, file=sys.stderr)
        sys.exit(1)


def check_generator(synth, np):
    x, y = synth.make(3, 400, synth.TRAIN)
    x2, y2 = synth.make(3, 400, synth.TRAIN)
    check(np.array_equal(x, x2) and np.array_equal(y, y2), "same seed, different data")
    x3, _ = synth.make(4, 400, synth.TRAIN)
    check(not np.array_equal(x, x3), "different seeds, same pixels")
    check(x.shape == (400, 784) and y.shape == (400,), "shapes %r %r" % (x.shape, y.shape))
    check(x.min() >= 0.0 and x.max() < 1.0, "pixels outside [0, 1)")
    check(np.array_equal(np.floor(x * 256) / 256, x), "pixels not multiples of 1/256")
    check(set(np.unique(y)) == set(range(10)), "labels are not the 10 classes")
    xt, _ = synth.make(3, 400, synth.TEST)
    check(not np.array_equal(x, xt), "streams share their rows")


def main():
    threads = run.pin_blas_threads()
    mlmkl = run.import_program()
    check(mlmkl is not None, "no mlmkl package under %s" % (run.ROOT / "src"))
    import numpy as np

    import synth
    from workloads import WORKLOADS

    check_generator(synth, np)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from bench/workloads.py")
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT)
            try:
                result, _ = run.run(mlmkl, tiny(workload), 1, 0, trace, None, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            where = "%s --trace %d" % (workload.name, trace)
            check(result["correct"] and result["failed"] == 0, "%s: failed operations" % where)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted[trace], "%s: metrics %s, BENCHMARK.json %s"
                  % (where, sorted(got.items()), sorted(wanted[trace].items())))
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                      "%s: %s = %r" % (where, name, m["value"]))
            print("ok %s (%d metrics)" % (where, len(got)))
    print("selfcheck passed (BLAS threads %d)" % threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
