"""Benchmark of the USP index: build, query and sweep, with a per-layer trace.

    python3 perfbench/run.py --workload ens16-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed``; its index is built several times (``setup_s`` is the median),
then whole online rounds run until ``--seconds`` of round time have passed.
Every output is checked. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See perfbench/README.md for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"

BUILDS = 3         # timed index builds per run; setup_s is their median
MIN_ROUNDS = 3     # timed online rounds per run, at least
TRACED_BUILDS = 2  # traced runs: after one warm-up build, this many traced
                   # builds alternate with as many untraced ones

END_TO_END = {
    "setup_s": "s", "query_qps": "1/s", "query_p50_ms": "ms",
    "sweep_s": "s", "recall": "ratio", "cand_per_query": "count",
    "peak_rss_mb": "MB", "index_mb": "MB",
}

# Per-layer metrics: (name, unit, phase, source, key). Set-up figures are per
# index build, query-side times per online round, query-side counts per query
# answered; the Spark stage's figures are per Spark build and per Spark query
# pass, its row counts per query. Times are self times (a layer's spans minus
# their child spans), except train.s, the whole training loop.
PER_LAYER = [
    ("knn.matrix_s", "s", "setup", "self", "knn.matrix"),
    ("knn.matrix_calls", "count", "setup", "count", "knn.matrix_calls"),
    ("train.s", "s", "setup", "total", "train"),
    ("train.target_s", "s", "setup", "self", "train.target"),
    ("train.target_rows", "count", "setup", "count", "train.target_rows"),
    ("train.fwdbwd_s", "s", "setup", "self", "train.fwdbwd"),
    ("train.adam_s", "s", "setup", "self", "train.adam"),
    ("train.steps", "count", "setup", "count", "train.steps"),
    ("assign.s", "s", "setup", "self", "assign"),
    ("lookup.build_s", "s", "setup", "self", "lookup.build"),
    ("pq.fit_s", "s", "setup", "self", "pq.fit"),
    ("spark.knn_s", "s", "spark-setup", "self", "spark.knn"),
    ("spark.assign_s", "s", "spark-setup", "self", "spark.assign"),
    ("probe.s", "s", "query", "self", "probe"),
    ("probe.model_evals", "count", "query", "count", "probe.model_evals"),
    ("cand.gather_s", "s", "query", "self", "cand.gather"),
    ("cand.ids", "count", "query", "count", "cand.ids"),
    ("topk.s", "s", "query", "self", "topk"),
    ("topk.dist_evals", "count", "query", "count", "topk.dist_evals"),
    ("pq.adc_s", "s", "query", "self", "pq.adc"),
    ("pq.search_s", "s", "query", "self", "pq.search"),
    ("pq.codes_scanned", "count", "query", "count", "pq.codes_scanned"),
    ("pq.rerank_evals", "count", "query", "count", "pq.rerank_evals"),
    ("spark.join_s", "s", "spark-query", "self", "spark.join"),
    ("spark.topk_s", "s", "spark-query", "self", "spark.topk"),
    ("spark.cand_rows", "count", "spark-query", "count", "spark.cand_rows"),
    ("spark.jobs", "count", "spark-query", "jobs", 0),
    ("spark.stages", "count", "spark-query", "jobs", 1),
    ("spark.tasks", "count", "spark-query", "jobs", 2),
]


def _set_up_process() -> None:
    """One BLAS thread per process (this one and Spark's workers alike), set
    before numpy loads, and ``repro`` importable by both."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [str(HERE), src]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import resource

    import numpy as np

    import tracing
    import workloads

    tally = workloads.Tally()
    tr = tracing.Tracer()
    cls = workloads.WORKLOADS[name]
    # One fixed CPU for the timed work: migrations between CPUs otherwise
    # dominate the spread of short timings.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[-1:])
    w = cls(seed, tally, tr)
    uninstall = tracing.install(tr) if trace else (lambda: None)
    # (timed, traced) per build: a traced run warms up untimed first, then
    # alternates traced and untraced builds so both sides are warm.
    plan = ([(False, False)] + [(True, i % 2 == 0) for i in range(2 * TRACED_BUILDS)]
            if trace else [(True, False)] * BUILDS)
    builds: list[tuple[float, bool]] = []
    rounds: list[dict] = []
    try:
        for timed, traced in plan:
            tr.recording = traced
            gc.collect()
            t0 = time.perf_counter()
            with tr.phase("setup"):
                index = w.build()
            if timed:
                builds.append((time.perf_counter() - t0, traced))
            tr.recording = False
            tally.add(1, 0 if w.check_build(index) else 1)
        w.check_round(index, w.run_round(index))  # warm-up round: checked, not timed
        spent = 0.0
        # A traced run alternates untraced and traced rounds, as many of each.
        while len(rounds) < MIN_ROUNDS or spent < seconds or (trace and len(rounds) % 2):
            tr.recording = trace and len(rounds) % 2 == 1
            gc.collect()
            gc.freeze()  # long-lived objects leave the collector's scans
            t0 = time.perf_counter()
            rnd = w.run_round(index)
            wall = time.perf_counter() - t0
            traced, tr.recording = tr.recording, False
            spent += wall
            w.check_round(index, rnd)
            rounds.append({"wall": wall, "traced": traced, "t_batch": rnd["t_batch"],
                           "lat": rnd["lat"], "t_sweep": rnd["t_sweep"]})
        if not trace:  # measured before the Spark stage, which is not timed end to end
            metrics = {
                "setup_s": statistics.median([t for t, _ in builds]),
                "query_qps": w.NQ / statistics.median([t for r in rounds for t in r["t_batch"]]),
                "query_p50_ms": 1000.0 * statistics.median([np.percentile(r["lat"], 50) for r in rounds]),
                "sweep_s": statistics.median([t for r in rounds for t in r["t_sweep"]]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "index_mb": w.index_bytes(index) / 2**20,
                **w.quality(),
            }
            metrics = {k: {"value": float(metrics[k]), "unit": u} for k, u in END_TO_END.items()}
        tr.recording = trace
        w.stage(index, WORK_DIR, cpus)
        tr.recording = False
        if trace:
            metrics = _per_layer(w, tr, builds, rounds)
            WORK_DIR.mkdir(exist_ok=True)
            tr.dump(WORK_DIR / f"trace-{name}-seed{seed}.json")
    finally:
        uninstall()
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": tally.failed == 0 and finite, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _per_layer(w, tr, builds, rounds) -> dict:
    """Per-layer figures of the traced builds and rounds, and the tracing
    overhead against the untraced ones of the same run."""
    self_s, total_s = tr.times()
    traced = [r for r in rounds if r["traced"]]
    stage = w.spark
    n_passes = stage.PASSES if stage else 0
    per_phase = {"setup": sum(traced for _, traced in builds), "query": len(traced),
                 "spark-setup": 1 if stage else 0, "spark-query": n_passes}
    per_query = {"query": w.queries_per_round() * len(traced), "spark-query": n_passes * w.NQ}
    out = {}
    for name, unit, phase, source, key in PER_LAYER:
        per = per_query[phase] if source == "count" and phase in per_query else per_phase[phase]
        if per == 0:  # the layer's phase does not run on this workload
            value = 0.0
        elif source == "self":
            value = self_s.get((phase, key), 0.0) / per
        elif source == "total":
            value = total_s.get((phase, key), 0.0) / per
        elif source == "count":
            value = tr.counts.get((phase, key), 0.0) / per
        else:
            value = stage.jobs[key] / per
        out[name] = {"value": float(value), "unit": unit}
    med = statistics.median
    on = med([t for t, f in builds if f]) + med([r["wall"] for r in traced])
    off = med([t for t, f in builds if not f]) + med([r["wall"] for r in rounds if not r["traced"]])
    out["trace.overhead_pct"] = {"value": 100.0 * (on / off - 1.0), "unit": "%"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    _set_up_process()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
