"""Benchmark of mlmkl on synthetic digit-shaped data.

    python3 bench/run.py --workload stack3k --seed 0 --seconds 36 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and fails, printing no result, when that is missing.  BLAS threads
are pinned to the CPUs this process may use before numpy is imported.

A run makes its inputs from ``--seed`` (``bench/synth.py``) and sets up
SETUP_REPEATS times.  Then it runs train, eval and cv (``bench/workloads.py``),
interleaved, until each has run at least once and for a third of
``--seconds``: the short operations are measured over as long a time as the
long ones, and each over the whole run.

``--trace 0`` reports the end-to-end metrics, each the median of its samples.
``--trace 1`` runs one untraced train to warm up, then the same loop with every
public function of each module wrapped in a span (``bench/spans.py``), then
one more untraced train.  It reports per-layer totals for one train, one eval
and one cv, plus the tracing overhead: traced minus that last untraced
``train_s``.

Standard output ends with two lines: a JSON record (machine, raw samples,
warnings, and for traced runs the spans and each layer's stage times), then
the result ``{"correct", "attempted", "failed", "metrics"}``.

``bench/reference.json`` holds, for some seeds, the held-out errors, the
trained model's kernel weights and support vector count, and the cv best
config; a run with such a seed must reproduce them.  They are copied from the
record line of ``--seconds 0`` runs (``samples``, ``model``, ``cv_best_config``).
Record them again only when a change is meant to alter what the program
computes.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
OPS = ("train", "evaluate", "cross_validate")  # Session methods, in run order

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_rows_per_s": "1/s",
    "cv_s": "s",
    "peak_rss_mb": "MB",
    "test_error_pct": "%",
    "cv_best_error_pct": "%",
    "ops_ok_pct": "%",
}


def pin_blas_threads():
    """Pin every BLAS/OpenMP pool to this process's CPUs; call before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program():
    """The ``mlmkl`` package from this checkout's ``src/``, or None."""
    src = ROOT / "src"
    if not (src / "mlmkl" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mlmkl
    import mlmkl.cli

    if Path(mlmkl.__file__).resolve().parent != src / "mlmkl":
        return None
    return mlmkl


def machine_record(threads):
    import numpy as np

    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": threads,
        "platform": platform.platform(),
    }
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            record[lib] = "%s %s" % (deps[lib].get("name"), deps[lib].get("version"))
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        record["blas"] = record["lapack"] = "unknown"
    return record


def measure(session, seconds, span, ops=OPS):
    """Run the operations interleaved, always the one with the least time so
    far, until each has run at least once and for a share of ``seconds``.
    An operation that fails is not run again.  Returns (samples, attempted,
    failed)."""
    from workloads import CheckFailed

    samples = collections.defaultdict(list)
    attempted = failed = 0
    spent = dict.fromkeys(ops, 0.0)
    active = list(ops)
    while active:
        name = min(active, key=spent.get)
        began = time.perf_counter()
        attempted += 1
        try:
            values = getattr(session, name)(span)
        except CheckFailed as exc:
            print("check failed in %s: %s" % (name, exc), file=sys.stderr)
            values = None
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            values = None
        spent[name] += time.perf_counter() - began
        if values is None:
            failed += 1
            active.remove(name)
            continue
        for key, value in values.items():
            samples[key].append(value)
        if spent[name] >= seconds / len(ops):
            active.remove(name)
    return samples, attempted, failed


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced_train_s, untraced_train_s):
    """Per-layer totals of one train, one eval and one cv.

    Names ending in ``_self_s`` are self times: ``umkl.problem_self_s`` is
    ``problem_from_features`` minus its base Grams and neighbour bases, and
    ``cli.cv_self_s`` is ``mlmkl cv`` outside every traced function.  Other
    times include their children.  ``trace.unattributed_s`` is the part of a
    traced train that no span below it covers.
    """
    times, counts = tracer.per_operation()

    def inclusive(name):
        return times[name][1]

    def own(name):
        return times[name][2]

    binary_s = inclusive("svm.train_binary")
    metrics = {
        "kernels.gram_base_s": (inclusive("kernels.gram_base"), "s"),
        "kernels.gram_entries": (counts["gram_entries"], "count"),
        "kernels.gram_classifier_s": (inclusive("kernels.gram_classifier"), "s"),
        "kernels.cross_gram_s": (inclusive("kernels.cross_gram"), "s"),
        "kernels.cross_gram_entries": (counts["cross_gram_entries"], "count"),
        "umkl.problem_self_s": (own("umkl.problem"), "s"),
        "umkl.bases_s": (inclusive("umkl.bases"), "s"),
        "umkl.assemble_s": (inclusive("umkl.assemble"), "s"),
        "umkl.qp_s": (inclusive("umkl.qp"), "s"),
        "umkl.qp_iterations": (counts["qp_iterations"], "count"),
        "umkl.combine_s": (inclusive("umkl.combine"), "s"),
        "kpca.fit_s": (inclusive("kpca.fit"), "s"),
        "kpca.fit_calls": (times["kpca.fit"][0], "count"),
        "kpca.kept_ratio": (_ratio(counts["kpca_kept"], counts["kpca_requested"]), "ratio"),
        "kpca.transform_s": (inclusive("kpca.transform"), "s"),
        "featsel.select_s": (inclusive("featsel.select"), "s"),
        "svm.train_s": (inclusive("svm.train"), "s"),
        "svm.iterations": (counts["svm_iterations"], "count"),
        "svm.us_per_iteration": (1e6 * _ratio(binary_s, counts["svm_iterations"]), "us"),
        "svm.converged_ratio": (_ratio(counts["svm_converged"], counts["svm_machines"]), "ratio"),
        "svm.support_vectors": (counts["support_vectors"], "count"),
        "svm.predict_s": (inclusive("svm.predict"), "s"),
        "pipeline.fit_layer_calls": (times["pipeline.fit_layer"][0], "count"),
        "pipeline.fit_layer_self_s": (own("pipeline.fit_layer"), "s"),
        "pipeline.transform_layer_s": (inclusive("pipeline.transform_layer"), "s"),
        "pipeline.save_s": (inclusive("pipeline.save"), "s"),
        "pipeline.load_s": (inclusive("pipeline.load"), "s"),
        "pipeline.model_bytes": (counts["model_bytes"], "bytes"),
        "data.load_amat_s": (inclusive("data.load_amat"), "s"),
        "cli.cv_self_s": (own("cli.cv"), "s"),
        "trace.train_s": (traced_train_s, "s"),
        "trace.unattributed_s": (own("bench.train"), "s"),
        "trace.overhead_s": (traced_train_s - untraced_train_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_stages(tracer):
    """Stage times of each fit_layer inside each traced train operation."""
    out = []
    for root, s in enumerate(tracer.spans):
        if s.name != "bench.train":
            continue
        layers = [
            tracer.stages(i)
            for i, child in enumerate(tracer.spans)
            if child.parent == root and child.name == "pipeline.fit_layer"
        ]
        out.append({"train_s": s.end - s.start, "layers": layers, "all": tracer.stages(root)})
    return out


def run(mlmkl, workload, seed, seconds, trace, reference, workdir):
    """One benchmark run; returns (result, record)."""
    import spans
    from workloads import Session, plain_call

    session = Session(mlmkl, workload, seed, workdir, reference)
    setups = [session.set_up() for _ in range(SETUP_REPEATS)]
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_s": setups}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not trace:
            samples, attempted, failed = measure(session, seconds, plain_call)
            metrics = {
                "setup_s": statistics.median(setups),
                "train_s": _median(samples["train_s"]),
                "eval_rows_per_s": _median(samples["eval_rows_per_s"]),
                "cv_s": _median(samples["cv_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "test_error_pct": _median(samples["test_error_pct"]),
                "cv_best_error_pct": _median(samples["cv_best_error_pct"]),
                "ops_ok_pct": 100.0 * (attempted - failed) / attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        else:
            # the first train of a process runs cold, so it only warms up and
            # the untraced train_s to compare with is taken after the traced loop
            _, attempted, failed = measure(session, 0, plain_call, ops=("train",))
            tracer = spans.Tracer()
            tracer.install(mlmkl)
            try:
                samples, more, more_failed = measure(session, seconds, tracer.span)
            finally:
                tracer.uninstall()
            untraced, last, last_failed = measure(session, 0, plain_call, ops=("train",))
            attempted += more + last
            failed += more_failed + last_failed
            metrics = per_layer_metrics(
                tracer, _median(samples["train_s"]) or 0.0, _median(untraced["train_s"]) or 0.0
            )
            record["untraced_train_s"] = untraced["train_s"]
            record["layer_stages"] = layer_stages(tracer)
            record["spans"] = [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]
    messages = [str(w.message) for w in caught]
    record["warnings"] = {
        "smo": sum(m.startswith("SMO stopped") for m in messages),
        "kpca": sum("eigenvalues are usable" in m for m in messages),
        "other": [m for m in messages
                  if not m.startswith("SMO stopped") and "eigenvalues are usable" not in m],
    }
    record.update(samples=dict(samples), model=session.model_summary,
                  cv_best_config=session.cv_best_config)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def load_reference(name, seed):
    """The recorded answers of one workload for one seed, or None."""
    with open(BENCH / "reference.json") as fh:
        ref = json.load(fh)
    answers = ref["seeds"].get(str(seed), {}).get(name)
    return None if answers is None else dict(answers, tolerance_pct=ref["tolerance_pct"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    mlmkl = import_program()
    if mlmkl is None:
        print("error: no mlmkl package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        result, record = run(
            mlmkl, WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            load_reference(args.workload, args.seed), workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine_record(threads)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
