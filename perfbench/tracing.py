"""In-memory span tracer and the wrappers that attach it to ``repro``.

A span is ``(name, start, end, parent)``. Spans are recorded only below a
phase root opened by the benchmark (``setup`` or ``query``), so calls the
checks make outside the timed phases never count. A layer's self time is the
duration of its spans minus the time covered by their direct children; the
benchmark process is single-threaded, so children never overlap.

``install`` wraps the public calls of each layer (module functions in every
``repro`` module that imported them, and methods on their classes) and
returns a function that restores the originals. Spark work runs in other
processes, so the Spark stages are spanned by the benchmark around each call
plus the action that materializes it.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

_NULL = nullcontext()


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def root(self) -> str | None:
        return self.spans[self._stack[0]][0] if self._stack else None

    def active(self) -> bool:
        return self.recording and bool(self._stack)

    def phase(self, name: str):
        """A root span (``setup`` or ``query``); recorded only while tracing."""
        return self._span(name) if self.recording else _NULL

    def span(self, name: str):
        """A layer span; recorded only below a phase root while tracing."""
        return self._span(name) if self.active() else _NULL

    @contextmanager
    def _span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if self.active():
            self.counts[(self.root(), name)] += value

    # -- derived figures ---------------------------------------------------
    def times(self) -> tuple[dict, dict]:
        """(self time, total time) per (phase root, layer). Total time counts
        each span not nested in a span of the same layer."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        roots: list[int] = []
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        total_s: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
            key = (self.spans[roots[i]][0], name)
            self_s[key] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total_s[key] += t1 - t0
        return self_s, total_s

    def dump(self, path) -> None:
        """Write every span and the derived self times as JSON."""
        t_base = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [[n, round(a - t_base, 7), round(b - t_base, 7), p] for n, a, b, p in self.spans],
            "self_s": {f"{r}/{n}": v for (r, n), v in sorted(self.times()[0].items())},
            "counts": {f"{r}/{n}": v for (r, n), v in sorted(self.counts.items())},
        }
        with open(path, "w") as f:
            json.dump(doc, f)


# -- wrappers ----------------------------------------------------------------
def _spanned(tr: Tracer, layer: str, fn, count=None, only_under=None):
    """Wrap ``fn`` in a ``layer`` span. ``count(args, kwargs, result)`` yields
    (counter, value) pairs; ``only_under`` restricts recording to calls whose
    innermost open span is one of those layers."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active() or (only_under is not None and tr.current() not in only_under):
            return fn(*args, **kwargs)
        with tr._span(layer):
            result = fn(*args, **kwargs)
        if count is not None:
            for name, value in count(args, kwargs, result):
                tr.count(name, value)
        return result

    return wrapper


def _patch_function(module_name: str, attr: str, make, undo: list) -> None:
    """Replace a module function everywhere ``repro`` imported it by name."""
    orig = getattr(sys.modules[module_name], attr)
    new = make(orig)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) and getattr(mod, attr, None) is orig:
            setattr(mod, attr, new)
            undo.append((mod, attr, orig))


def _patch_method(cls, attr: str, make, undo: list) -> None:
    orig = cls.__dict__[attr]
    setattr(cls, attr, make(orig))
    undo.append((cls, attr, orig))


_PROBE_METHODS = ("probe_matrix", "model_choice", "confidence", "leaf_probs")


def install(tr: Tracer):
    """Attach ``tr`` to the layers of ``repro``; returns the uninstaller."""
    import repro.index.search  # noqa: F401  (load every wrapped module)
    import repro.scann.pipelines  # noqa: F401
    from repro.core.ensemble import EnsemblePartitioner
    from repro.core.hierarchy import HierarchicalPartitioner
    from repro.core.partitioner import UnsupervisedSpacePartitioner
    from repro.index.base import PartitionIndex
    from repro.nn.model import MLP
    from repro.nn.optim import Adam
    from repro.scann.avq import AnisotropicPQ

    undo: list = []
    span = functools.partial(_spanned, tr)

    # knn: the k'-NN matrix, numpy and Spark.
    _patch_function("repro.knn.exact", "knn_matrix_numpy",
                    lambda f: span("knn.matrix", f, lambda a, k, r: [("knn.matrix_calls", 1)]), undo)
    _patch_function("repro.knn.exact", "knn_matrix_spark_collect",
                    lambda f: span("spark.knn", f), undo)

    # core.train / nn: the training loop and its three parts.
    _patch_function("repro.core.train", "train_usp_model", lambda f: span("train", f), undo)

    def predict_proba(orig):
        @functools.wraps(orig)
        def wrapper(self, x):
            layer = tr.current() if tr.active() else None
            if layer == "train":
                with tr._span("train.target"):
                    out = orig(self, x)
                tr.count("train.target_rows", len(x))
                return out
            if layer == "probe":
                tr.count("probe.model_evals", len(x))
            return orig(self, x)

        return wrapper

    _patch_method(MLP, "predict_proba", predict_proba, undo)

    def forward(orig):
        @functools.wraps(orig)
        def wrapper(self, x, train=True):
            if train and tr.active() and tr.current() == "train":
                with tr._span("train.fwdbwd"):
                    return orig(self, x, train)
            return orig(self, x, train)

        return wrapper

    _patch_method(MLP, "forward", forward, undo)
    _patch_method(MLP, "backward", lambda f: span("train.fwdbwd", f, only_under=("train",)), undo)
    _patch_method(Adam, "step",
                  lambda f: span("train.adam", f, lambda a, k, r: [("train.steps", 1)], ("train",)), undo)

    # core.partitioner / ensemble / hierarchy: assignment and probe scoring.
    _patch_method(MLP, "predict_bin", lambda f: span("assign", f, only_under=("setup",)), undo)
    for cls in (UnsupervisedSpacePartitioner, EnsemblePartitioner, HierarchicalPartitioner):
        for attr in _PROBE_METHODS:
            if attr in cls.__dict__:
                _patch_method(cls, attr, lambda f: span("probe", f), undo)

    # index: lookup table, candidate gathering, exact top-k in C(q).
    _patch_method(PartitionIndex, "bin_members", lambda f: span("lookup.build", f), undo)

    def cand_count(args, kwargs, result):
        return [("cand.ids", sum(len(c) for c in result))]

    for cls in (PartitionIndex, EnsemblePartitioner):
        _patch_method(cls, "candidate_ids", lambda f: span("cand.gather", f, cand_count), undo)
    _patch_function("repro.index.search", "topk_within", lambda f: span("topk", f), undo)

    # scann: PQ codebooks, ADC scan, search with exact re-rank.
    _patch_method(AnisotropicPQ, "fit", lambda f: span("pq.fit", f), undo)

    def adc_count(args, kwargs, result):
        return [("pq.codes_scanned", len(result))]

    _patch_method(AnisotropicPQ, "adc_distances", lambda f: span("pq.adc", f, adc_count), undo)
    _patch_method(AnisotropicPQ, "search", lambda f: span("pq.search", f), undo)

    # Exact distances: topk_within and the PQ re-rank both measure their
    # candidate rows with numpy.linalg.norm; count the rows they pass it.
    dist_counter = {"topk": "topk.dist_evals", "pq.search": "pq.rerank_evals"}
    norm = np.linalg.norm

    @functools.wraps(norm)
    def counted_norm(x, *args, **kwargs):
        counter = dist_counter.get(tr.current()) if tr.active() else None
        if counter is not None:
            tr.count(counter, len(x))
        return norm(x, *args, **kwargs)

    np.linalg.norm = counted_norm
    undo.append((np.linalg, "norm", norm))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall
