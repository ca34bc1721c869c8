"""Print the tracemalloc peak of one layer fit: the first layer of the
README's config (``arccos(n=1,L=2)``, ``rbf(gamma=0.005)`` and
``rbf(gamma=0.02)``, width 60) on seeded synthetic digit-shaped rows of
784 pixels, with its fit rows drawn as ``pipeline.fit`` draws them.

    python3 tools/layer_peak.py --rows 12000 --subsample 3000 --max-mb 200

prints the peak in MB (10**6 bytes) and the fit's seconds, and exits 1 when
the peak is above ``--max-mb``.  The rows are made before tracing starts,
so the peak is the fit's own: its Grams, crosses and projections.
"""
import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from mlmkl import pipeline  # noqa: E402
from mlmkl.config import LayerConfig  # noqa: E402
from mlmkl.kernels import parse_kernel  # noqa: E402

README_LAYER_1 = ("arccos(n=1,L=2)", "rbf(gamma=0.005)", "rbf(gamma=0.02)")


def digit_rows(rows, seed):
    """``rows`` rows of ten classes, each lighting its own 120 of 784 pixels
    more brightly than the faint noise elsewhere, and their labels."""
    rng = np.random.default_rng(seed)
    strokes = rng.random((10, 784)) < 120 / 784
    labels = np.arange(rows) % 10
    x = 0.1 * np.abs(rng.standard_normal((rows, 784)))
    x += strokes[labels] * rng.uniform(0.5, 1.0, size=(rows, 1))
    return np.clip(x, 0.0, 1.0, out=x), labels


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--subsample", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-mb", type=float, default=None)
    args = parser.parse_args(argv)
    x, y = digit_rows(args.rows, args.seed)
    config = LayerConfig(kernels=tuple(map(parse_kernel, README_LAYER_1)), width=60)
    fit_idx = pipeline.draw_fit_rows(np.random.default_rng(args.seed), args.rows, args.subsample)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        pipeline.fit_layer(x, y, config, fit_idx)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    print("layer 1 of %d rows, subsample %d: tracemalloc peak %.1f MB, %.2f s"
          % (args.rows, args.subsample, peak, time.perf_counter() - start))
    if args.max_mb is not None and peak > args.max_mb:
        print("peak above %.1f MB" % args.max_mb, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
