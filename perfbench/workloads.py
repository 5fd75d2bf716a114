"""The workloads and the Spark stage: inputs, index builds, online rounds and
their checks.

Every workload builds its index through the public API of ``repro`` and
checks each output against computations of its own (brute-force k-NN,
partition and candidate-set properties, DuckDB), never against a stored copy
of earlier output. An operation is one index build or one query answered; a
query whose check fails is counted as failed. The first online round is
checked in full; every later round must reproduce its outputs exactly.
"""
from __future__ import annotations

import os
import shlex
import time
from pathlib import Path

import numpy as np
import pandas as pd

from repro import synth_data
from repro.core import ensemble, hierarchy, partitioner
from repro.core.train import TrainConfig
from repro.index import lookup as spark_lookup
from repro.index import search
from repro.knn import exact
from repro.scann.avq import AnisotropicPQ
from repro.scann.pipelines import ScannPipeline

K = 10            # neighbors per query (the paper's 10-NN accuracy, Eq. 1)
K_PRIME = 10      # k' of the k'-NN matrix
D = 32            # dimension of the sift_lite-style vectors
N = 5000          # indexed points per workload
EPOCHS = 3        # training epochs per USP model
LR = 5e-3         # Adam step; with 3 epochs the largest bin stays under 1.7 n/m
INDEX_SEED = 0    # model initialization and batch order, the same on every run


def train_cfg(m: int) -> TrainConfig:
    return TrainConfig(m=m, epochs=EPOCHS, lr=LR, seed=INDEX_SEED)


# -- inputs ------------------------------------------------------------------
def make_data(seed: int, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """The repository's ``sift_lite`` data: N points and ``n_queries`` queries
    from its 64-component anisotropic Gaussian mixture with a 5% uniform noise
    floor, all drawn with ``seed``."""
    return synth_data.sift_lite(n=N, d=D, n_queries=n_queries, seed=seed)


def brute_force(queries: np.ndarray, data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN by explicit differences, 32 queries at a time: (ids, dists)."""
    ids = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k))
    for lo in range(0, len(queries), 32):
        d = np.sqrt(((queries[lo:lo + 32, None, :] - data[None]) ** 2).sum(axis=2))
        top = np.argsort(d, axis=1, kind="stable")[:, :k]
        ids[lo:lo + 32] = top
        dists[lo:lo + 32] = np.take_along_axis(d, top, axis=1)
    return ids, dists


def exact_dist(data: np.ndarray, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return np.sqrt(((data[ids] - query) ** 2).sum(axis=1))


def recall(returned, gt_ids: np.ndarray) -> float:
    """Eq. 1: mean |returned ∩ true k-NN| / k over queries (-1 pads rows)."""
    hits = sum(np.isin(r[r >= 0], t).sum() for r, t in zip(returned, gt_ids))
    return float(hits) / gt_ids.size


# -- checks ------------------------------------------------------------------
_TOL = 1e-9


def partition_ok(data_bins: np.ndarray, members: list[np.ndarray], n: int) -> bool:
    """Every id lands in exactly one bin, the bin sizes sum to n, and each
    bin's members are the points assigned to it."""
    if sum(len(m) for m in members) != n or len(data_bins) != n:
        return False
    if not np.array_equal(np.sort(np.concatenate(members)), np.arange(n)):
        return False
    return all((data_bins[m] == b).all() for b, m in enumerate(members))


def candidates_ok(cand: np.ndarray, data_bins: np.ndarray, probed: np.ndarray, sizes: np.ndarray) -> bool:
    """C(q) is exactly the union of the probed bins."""
    return (len(cand) == sizes[probed].sum() and len(np.unique(cand)) == len(cand)
            and bool(np.isin(data_bins[cand], probed).all()))


def topk_ok(data: np.ndarray, query: np.ndarray, cand: np.ndarray, returned: np.ndarray,
            k: int, returned_dist: np.ndarray | None = None) -> bool:
    """Returned ids lie in C(q), are sorted by distance, and their distances
    are the k smallest distances over C(q)."""
    kk = min(k, len(cand))
    if len(returned) != kk or len(np.unique(returned)) != kk or not np.isin(returned, cand).all():
        return False
    d_ret = exact_dist(data, query, returned)
    if returned_dist is not None and not np.allclose(returned_dist, d_ret, rtol=_TOL, atol=_TOL):
        return False
    best = np.sort(exact_dist(data, query, cand))[:kk]
    return bool((np.diff(d_ret) >= -_TOL).all() and np.allclose(d_ret, best, rtol=_TOL, atol=_TOL))


def reranked_ok(data: np.ndarray, query: np.ndarray, data_bins: np.ndarray, sizes: np.ndarray,
                probed: np.ndarray, returned: np.ndarray, k: int) -> bool:
    """ScaNN output: min(k, |C(q)|) distinct ids from C(q), in exact-distance
    order (a batched row pads the rest with -1)."""
    kk = min(k, int(sizes[probed].sum()))
    if (returned[kk:] != -1).any():
        return False
    returned = returned[:kk]
    if len(returned) != kk or len(np.unique(returned)) != kk or not np.isin(data_bins[returned], probed).all():
        return False
    return bool((np.diff(exact_dist(data, query, returned)) >= -_TOL).all())


def _equal(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, n: int, n_failed: int = 0) -> None:
        self.attempted += n
        self.failed += n_failed


def _weights_bytes(model) -> int:
    return sum(w.nbytes for w in model.get_weights())


# -- workloads ---------------------------------------------------------------
class Workload:
    """``build`` makes one index and ``check_build`` validates it.
    ``run_round`` runs one online round (``BATCH_REPS`` batched passes, a
    single-query pass and a sweep) and returns its timings and outputs.
    ``check_round`` validates a round; the first round's outputs become the
    reference for later rounds and give the operating point in ``ref``."""

    name = ""
    NQ = 0           # queries of the batched pass and the sweep
    BATCH_REPS = 1   # batched passes per round

    def __init__(self, seed: int, tally: Tally, tracer):
        self.tally = tally
        self.tr = tracer
        self.x, self.q = make_data(seed, self.NQ)
        self.gt_ids, self.gt_d = brute_force(self.q, self.x, K)
        self.ref: dict = {}  # outputs of the first, fully checked round
        self.spark: SparkStage | None = None

    def _group(self, n: int, full_check, key: str, value) -> None:
        """Tally ``n`` queries: in the first round by ``full_check()``, which
        returns the failed count; later, by equality with the first round."""
        if key not in self.ref:
            self.ref[key] = value
            self.tally.add(n, full_check())
        else:
            self.tally.add(n, 0 if _equal(self.ref[key], value) else n)

    def quality(self) -> dict:
        """Recall and mean |C| at the operating point."""
        return {"recall": self.ref["recall"], "cand_per_query": self.ref["cand_per_query"]}

    def stage(self, index, work_dir: Path, cpus: list[int]) -> None:
        """Untimed work after the timed rounds, free to use ``cpus``; none here."""


class Ens16Sweep(Workload):
    """3-member USP ensemble, m=16, k'=10: batched and single-query passes
    at 3 probes, then the accuracy-vs-|C| sweep over probes 1..16. After the
    timed rounds, the Spark stage runs over member 0."""

    name = "ens16-sweep"
    NQ, BATCH_REPS, SINGLE_REPS = 300, 5, 4
    M, E, PROBES = 16, 3, 3

    def build(self):
        return ensemble.train_ensemble(
            self.x, m=self.M, e=self.E, k_prime=K_PRIME, cfg=train_cfg(self.M), seed=INDEX_SEED)

    def check_build(self, ens) -> bool:
        return len(ens.models) == self.E and all(
            partition_ok(m.data_bins(), m.bin_members(), N) for m in ens.models)

    def index_bytes(self, ens) -> int:
        return sum(_weights_bytes(m.model) + sum(a.nbytes for a in m.bin_members()) for m in ens.models)

    def stage(self, ens, work_dir: Path, cpus: list[int]) -> None:
        """The Spark flow over member 0 at the operating probe count."""
        self.spark = SparkStage(self, work_dir)
        self.spark.run(ens.models[0], self.PROBES, cpus)

    def run_round(self, ens) -> dict:
        x, q, p = self.x, self.q, self.PROBES

        def batched():
            cands = ens.candidate_ids(q, p)
            return cands, [search.topk_within(qi, x, c, K) for qi, c in zip(q, cands)]

        with self.tr.phase("query"):
            t_batch, batches = zip(*(_timed(batched) for _ in range(self.BATCH_REPS)))
            lat, singles = [], []
            for _ in range(self.SINGLE_REPS):
                single = []
                for qi in q:
                    t0 = time.perf_counter()
                    c = ens.candidate_ids(qi[None], p)[0]
                    single.append((c, search.topk_within(qi, x, c, K)))
                    lat.append(time.perf_counter() - t0)
                singles.append(single)
            t_sweep, curve = _timed(lambda: search.sweep_accuracy(
                ens, x, q, self.gt_ids, k=K, probe_counts=list(range(1, self.M + 1))))
        return {"t_batch": list(t_batch), "lat": lat, "t_sweep": [t_sweep],
                "batches": batches, "singles": singles, "curve": curve}

    def _failures(self, ens, cands, ret) -> int:
        """C(q) must be the chosen member's probed bins, and the top-k must
        be exact within C(q)."""
        choice = ens.model_choice(self.q)
        failed = 0
        for i, (c, r) in enumerate(zip(cands, ret)):
            member = ens.models[choice[i]]
            probed = member.probe_matrix(self.q[i][None])[0][: self.PROBES]
            failed += not (candidates_ok(c, member.data_bins(), probed, member.bin_sizes())
                           and topk_ok(self.x, self.q[i], c, r, K))
        return failed

    def check_round(self, ens, rnd) -> None:
        nq = self.NQ
        for cands, ret in rnd["batches"]:
            self._group(nq, lambda: self._failures(ens, cands, ret), "batch", ret)
        for single in rnd["singles"]:
            cands, ret = zip(*single)
            self._group(nq, lambda: self._failures(ens, cands, ret), "single", list(ret))
        if "recall" not in self.ref:
            self.ref["recall"] = recall(self.ref["batch"], self.gt_ids)
            self.ref["cand_per_query"] = float(np.mean([len(c) for c in rnd["batches"][0][0]]))
        curve = rnd["curve"]

        def sweep_failures() -> int:
            acc = curve["accuracy"].to_numpy()
            size = curve["mean_candidates"].to_numpy()
            at_p = curve[curve["n_probes"] == self.PROBES].iloc[0]
            ok = (list(curve["n_probes"]) == list(range(1, self.M + 1))
                  and (np.diff(acc) >= 0).all() and (np.diff(size) >= 0).all()
                  and size[-1] == N and acc[-1] == 1.0
                  and abs(at_p["accuracy"] - self.ref["recall"]) < _TOL
                  and abs(at_p["mean_candidates"] - self.ref["cand_per_query"]) < _TOL)
            return 0 if ok else nq * self.M

        self._group(nq * self.M, sweep_failures, "sweep", curve.to_numpy())

    def queries_per_round(self) -> int:
        return self.NQ * (self.BATCH_REPS + self.SINGLE_REPS + self.M)


class Hier64Scann(Workload):
    """8×8 hierarchical USP (nine node models) + anisotropic PQ through
    ``ScannPipeline``: batched and single-query passes at 8 of 64 leaves with
    a re-rank budget of 50, and the probe sweep of the Fig. 7 path."""

    name = "hier64-scann"
    NQ, BATCH_REPS, SINGLE_REPS = 500, 5, 2
    LEVELS, PROBES, RERANK = (8, 8), 8, 50
    SWEEP = (1, 2, 4, 8, 16, 32, 64)
    N_EXHAUSTIVE = 50  # queries of the all-leaves, full re-rank check

    def build(self):
        hier = hierarchy.HierarchicalPartitioner(
            list(self.LEVELS), k_prime=K_PRIME, cfg_factory=lambda level, m: train_cfg(m), seed=INDEX_SEED,
        ).fit(self.x)
        return ScannPipeline(AnisotropicPQ(n_sub=8, n_centers=16, seed=INDEX_SEED), hier).fit(self.x)

    def check_build(self, pipe) -> bool:
        """A partition, valid PQ codes, and an exact search when every leaf
        is probed and every candidate re-ranked (its queries are counted)."""
        hier, pq = pipe.partitioner, pipe.pq
        sub = self.q[: self.N_EXHAUSTIVE]
        ret = pipe.batch_search(sub, K, n_probes=hier.n_bins, rerank=N)
        d = np.stack([exact_dist(self.x, qi, r) for qi, r in zip(sub, ret)])
        exact_ok = np.isclose(d, self.gt_d[: len(sub)], rtol=_TOL, atol=_TOL).all(axis=1)
        self.tally.add(len(sub), int((~exact_ok).sum()))
        return (partition_ok(hier.data_bins(), hier.bin_members(), N)
                and pq.codes.shape == (N, pq.n_sub) and int(pq.codes.max()) < pq.n_centers)

    def index_bytes(self, pipe) -> int:
        hier, pq = pipe.partitioner, pipe.pq
        return (hier.n_parameters() * 8 + sum(a.nbytes for a in hier.bin_members())
                + pq.codes.nbytes + sum(c.nbytes for c in pq.codebooks))

    def run_round(self, pipe) -> dict:
        q, p, rr = self.q, self.PROBES, self.RERANK
        with self.tr.phase("query"):
            t_batch, batches = zip(*(_timed(lambda: pipe.batch_search(q, K, n_probes=p, rerank=rr))
                                     for _ in range(self.BATCH_REPS)))
            lat, singles = [], []
            for _ in range(self.SINGLE_REPS):
                single = []
                for qi in q:
                    t0 = time.perf_counter()
                    single.append(pipe.search(qi, K, n_probes=p, rerank=rr))
                    lat.append(time.perf_counter() - t0)
                singles.append(single)
            t_sweep, sweep = _timed(lambda: [pipe.batch_search(q, K, n_probes=s, rerank=rr) for s in self.SWEEP])
        return {"t_batch": list(t_batch), "lat": lat, "t_sweep": [t_sweep],
                "batches": batches, "singles": singles, "sweep": sweep}

    def _failures(self, hier, ret, orders, n_probes: int) -> int:
        bins, sizes = hier.data_bins(), hier.bin_sizes()
        return sum(not reranked_ok(self.x, self.q[i], bins, sizes, o[:n_probes], r, K)
                   for i, (r, o) in enumerate(zip(ret, orders)))

    def check_round(self, pipe, rnd) -> None:
        nq, hier, p = self.NQ, pipe.partitioner, self.PROBES
        if "orders" not in self.ref:
            self.ref["orders"] = hier.probe_matrix(self.q)
        orders = self.ref["orders"]
        for ret in rnd["batches"]:
            self._group(nq, lambda: self._failures(hier, ret, orders, p), "batch", ret)
        for single in rnd["singles"]:
            self._group(nq, lambda: self._failures(
                hier, single, [hier.probe_matrix(qi[None])[0] for qi in self.q], p), "single", single)
        if "recall" not in self.ref:
            self.ref["recall"] = recall(self.ref["batch"], self.gt_ids)
            self.ref["cand_per_query"] = float(hier.bin_sizes()[orders[:, :p]].sum(axis=1).mean())
        self._group(nq * len(self.SWEEP), lambda: sum(
            self._failures(hier, ret, orders, s) for s, ret in zip(self.SWEEP, rnd["sweep"])), "sweep", rnd["sweep"])

    def queries_per_round(self) -> int:
        return self.NQ * (self.BATCH_REPS + self.SINGLE_REPS + len(self.SWEEP))


class SparkStage:
    """The Spark flow over a fitted USP model (member 0 of the ensemble):
    the k'-NN matrix on Spark, ``assign_bins_spark`` and
    ``build_lookup_spark``, then query passes of probe → shuffle join →
    per-query exact top-k. It runs after the timed rounds, on local[2], and is
    checked like them; its spans feed the ``spark.*`` per-layer figures and
    nothing end to end, since its timings spread beyond any allowed bound."""

    CORES = 2        # Spark local[2]
    CPUS = 3         # two task slots, plus one for the JVM's own threads and this process
    PASSES = 3       # query passes over every query
    N_KNN_CHECK = 200  # rows of the Spark k'-NN matrix checked by brute force

    def __init__(self, w: Workload, work_dir: Path):
        self.w, self.tally, self.tr = w, w.tally, w.tr
        self.work_dir = work_dir
        self.spark = None

    def run(self, usp, n_probes: int, cpus: list[int]) -> None:
        """Set Spark up on the last CPUS of ``cpus``, build and check the
        Spark index of ``usp``, run and check the query passes, and stop
        Spark."""
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus[-self.CPUS:])
        try:
            self.open()
            with self.tr.phase("spark-setup"):
                knn = exact.knn_matrix_spark_collect(self.spark, self.w.x, K_PRIME)
                with self.tr.span("spark.assign"):
                    assign = partitioner.assign_bins_spark(
                        self.spark, self.vec_df, usp.config(), usp.model.get_weights())
                    table = spark_lookup.build_lookup_spark(self.spark, assign).cache()
                    table.count()
            self.tally.add(1, 0 if self.knn_ok(knn) and self.lookup_ok(usp, table) else 1)
            sc = self.spark.sparkContext
            for _ in range(self.PASSES):
                sc.setJobGroup("traced" if self.tr.recording else "untraced", "query passes")
                with self.tr.phase("spark-query"):
                    out = self._pass(usp, table, n_probes)
                sc.setJobGroup("other", "checks")
                self.tally.add(len(self.w.q), self._failures(usp, n_probes, out))
            self.jobs = self.job_counts("traced")
        finally:
            self.close()
            os.sched_setaffinity(0, pinned)

    # -- session -------------------------------------------------------------
    def open(self) -> None:
        tmp = self.work_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
        os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
            f"--master local[{self.CORES}]", "--driver-memory 1g",
            "--driver-java-options", shlex.quote(f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"),
            "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf", shlex.quote(f"spark.sql.warehouse.dir={self.work_dir / 'warehouse'}"),
            "pyspark-shell",
        ])
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(self.CORES))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self._warm_up()
        self.vec_df = self.spark.createDataFrame(
            pd.DataFrame({"id": np.arange(N, dtype=np.int64), "vec": list(self.w.x)})).cache()
        self.vec_df.count()

    def _warm_up(self) -> None:
        """One job that starts a Python worker per core and imports the
        modules the executors run, so no traced stage pays for it."""
        cores = self.CORES

        def imports(batches):
            import repro.core.partitioner  # noqa: F401
            import repro.index.lookup  # noqa: F401
            import repro.knn.exact  # noqa: F401
            for pdf in batches:
                yield pdf.assign(g=pdf["id"] % cores)

        def first(pdf):
            return pdf.head(1)

        (self.spark.range(0, 64 * cores, 1, cores)
         .mapInPandas(imports, "id long, g long")
         .groupBy("g").applyInPandas(first, "id long, g long").collect())

    def close(self) -> None:
        """Stop Spark, then end the JVM (it exits when its stdin closes) and
        wait for it."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is not None:
            gateway.shutdown()
            gateway.proc.stdin.close()
            gateway.proc.wait(timeout=60)

    # -- checks --------------------------------------------------------------
    def knn_ok(self, knn: np.ndarray) -> bool:
        """Sampled rows of the Spark k'-NN matrix hold K_PRIME distinct
        neighbors other than the point, sorted by distance, at the K_PRIME
        smallest distances of a brute force over all other points."""
        x = self.w.x
        if knn.shape != (N, K_PRIME):
            return False
        for i in range(self.N_KNN_CHECK):
            row = knn[i]
            if len(np.unique(row)) != K_PRIME or (row == i).any():
                return False
            d = exact_dist(x, x[i], np.arange(N))
            d[i] = np.inf
            d_row = exact_dist(x, x[i], row)
            if (np.diff(d_row) < -_TOL).any() or not np.allclose(
                    d_row, np.sort(d)[:K_PRIME], rtol=_TOL, atol=_TOL):
                return False
        return True

    def lookup_ok(self, usp, table) -> bool:
        """The lookup equals the in-process predict_bin, holds every id once,
        and its bin histogram matches DuckDB over the same rows."""
        import duckdb

        pdf = table.toPandas().sort_values("id", kind="stable")
        if not np.array_equal(pdf["id"].to_numpy(), np.arange(N)):
            return False
        if not np.array_equal(pdf["bin"].to_numpy(), usp.model.predict_bin(self.w.x)):
            return False
        hist = table.groupBy("bin").count().toPandas().sort_values("bin")
        con = duckdb.connect()
        try:
            con.register("lookup", pdf)
            want = con.execute("SELECT bin, count(*) AS n FROM lookup GROUP BY bin ORDER BY bin").fetchdf()
        finally:
            con.close()
        return (np.array_equal(hist["bin"].to_numpy(), want["bin"].to_numpy())
                and np.array_equal(hist["count"].to_numpy(), want["n"].to_numpy())
                and int(hist["count"].sum()) == N)

    def _failures(self, usp, n_probes, out) -> int:
        """The join must return exactly the in-process C(q), and each top-k
        must be exact within C(q)."""
        x, q = self.w.x, self.w.q
        n_cand, top = out
        bins = usp.data_bins()
        cands = [np.flatnonzero(np.isin(bins, o)) for o in usp.probe_matrix(q)[:, :n_probes]]
        if n_cand != sum(len(c) for c in cands):
            return len(q)
        groups = dict(iter(top.groupby("qid")))
        return sum(i not in groups or not topk_ok(x, q[i], c, groups[i]["id"].to_numpy(), K,
                                                  groups[i]["dist"].to_numpy())
                   for i, c in enumerate(cands))

    # -- online --------------------------------------------------------------
    def _pass(self, usp, table, n_probes):
        """One Spark query pass: probe scoring, the lookup join (materialized
        to count |C|), and the exact top-k per query."""
        x, q = self.w.x, self.w.q
        probes = spark_lookup.probes_df(self.spark, usp, q, n_probes)
        with self.tr.span("spark.join"):
            cand = spark_lookup.candidates_spark(probes, table).cache()
            n_cand = cand.count()
        with self.tr.span("spark.topk"):
            top = spark_lookup.topk_in_candidates_spark(self.spark, cand, x, q, K).toPandas()
        cand.unpersist()
        self.tr.count("spark.cand_rows", n_cand)
        return n_cand, top

    def job_counts(self, group: str) -> tuple[int, int, int]:
        """(jobs, stages run, tasks run) of a job group, from the status tracker."""
        st = self.spark.sparkContext.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        stages = [st.getStageInfo(s) for j in jobs if (info := st.getJobInfo(j)) for s in info.stageIds]
        ran = [s for s in stages if s is not None and s.numCompletedTasks > 0]
        return len(jobs), len(ran), sum(s.numCompletedTasks for s in ran)


WORKLOADS = {w.name: w for w in (Ens16Sweep, Hier64Scann)}
