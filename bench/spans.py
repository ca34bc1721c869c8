"""Spans around the program's public functions, recorded from outside it.

The program binds names at import (``from .kernels import gram``), so each
function is patched on the module where its caller looks it up:
``mlmkl.pipeline.gram`` is the classifier Gram while ``mlmkl.kernels.gram``
is the base Gram that ``problem_from_features`` imports at call time, and
``mlmkl.pipeline.fit_layer`` is what both ``fit`` and ``cmd_cv`` reach.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

A span records its name, start, end and the span that was open when it
started.  Self time is a span's duration minus the time its children cover;
the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import collections
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root
    counts: dict = field(default_factory=dict)  # work done by this call


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        index = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), float("nan"), self._open[-1] if self._open else None)
        )
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            index = len(self.spans)
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.spans[index].counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, mlmkl):
        """Patch the public functions of each module of the ``mlmkl`` package."""
        m = mlmkl
        for module, attr, name, count in (
            (m.kernels, "gram", "kernels.gram_base", _count_gram),
            (m.pipeline, "gram", "kernels.gram_classifier", None),
            (m.pipeline, "cross_gram", "kernels.cross_gram", _count_cross),
            (m.pipeline, "problem_from_features", "umkl.problem", None),
            (m.umkl, "build_local_bases", "umkl.bases", None),
            (m.pipeline, "assemble_qp", "umkl.assemble", None),
            (m.umkl, "minimize_qp", "umkl.qp", _count_qp),
            (m.pipeline, "combine", "umkl.combine", None),
            (m.kpca, "fit", "kpca.fit", _count_kpca),
            (m.kpca, "transform", "kpca.transform", None),
            (m.featsel, "select", "featsel.select", None),
            (m.pipeline, "fit_layer", "pipeline.fit_layer", None),
            (m.pipeline, "transform_layer", "pipeline.transform_layer", None),
            (m.pipeline, "train_classifier", "pipeline.train_classifier", None),
            (m.pipeline, "classifier_predict", "pipeline.classifier_predict", None),
            (m.svm, "train_multiclass", "svm.train", _count_multiclass),
            (m.svm, "train_binary", "svm.train_binary", _count_binary),
            (m.svm, "predict", "svm.predict", None),
            (m.pipeline, "save", "pipeline.save", _count_save),
            (m.pipeline, "load", "pipeline.load", None),
            (m.data, "load_amat", "data.load_amat", None),
        ):
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Per-span self time, in span order."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_operation(self):
        """Totals of one operation of each kind.

        Each span is weighted by one over the number of root spans that share
        its root's name, so a run of three trains and one cv counts as one
        train plus one cv.  Returns ({name: [calls, inclusive s, self s]},
        {count: amount}).
        """
        roots = []
        for s in self.spans:
            roots.append(len(roots) if s.parent is None else roots[s.parent])
        ops = collections.Counter(s.name for s in self.spans if s.parent is None)
        times = collections.defaultdict(lambda: [0.0, 0.0, 0.0])
        counts = collections.Counter()
        for s, root, own in zip(self.spans, roots, self.self_times()):
            weight = 1.0 / ops[self.spans[root].name]
            row = times[s.name]
            row[0] += weight
            row[1] += weight * (s.end - s.start)
            row[2] += weight * own
            for key, amount in s.counts.items():
                counts[key] += weight * amount
        return times, counts

    def stages(self, root):
        """{name: inclusive seconds} of the descendants of span ``root``,
        plus ``self`` for the time no descendant covers."""
        own = self.self_times()
        inside = {root}
        out = collections.Counter()
        for i, s in enumerate(self.spans):
            if s.parent in inside:
                inside.add(i)
                out[s.name] += s.end - s.start
        out["self"] = own[root]
        return dict(out)


def _count_gram(counts, result, args):
    counts["gram_entries"] = result.n * result.n


def _count_cross(counts, result, args):
    counts["cross_gram_entries"] = result.size


def _count_qp(counts, result, args):
    counts["qp_iterations"] = len(result[1]) - 1


def _count_kpca(counts, result, args):
    counts["kpca_kept"] = result.n_components
    counts["kpca_requested"] = args[1]


def _count_multiclass(counts, result, args):
    counts["support_vectors"] = result.n_support


def _count_binary(counts, result, args):
    counts["svm_machines"] = 1
    counts["svm_iterations"] = result.iterations
    counts["svm_converged"] = int(result.converged)


def _count_save(counts, result, args):
    counts["model_bytes"] = os.path.getsize(args[1])
