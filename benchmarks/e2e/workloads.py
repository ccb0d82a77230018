"""The four workloads of the end-to-end TINGe benchmark.

``run.py`` starts this script once per workload, in a fresh interpreter
with ``src`` on the path and the program caches pointed at an empty
directory.  It builds the workload's inputs from ``--seed``, times set-up
and the workload's operations, checks the outputs outside the timed
region, and writes ``<out>/<workload>.json``.

Without ``--trace`` it reports the end-to-end metrics (:data:`E2E`) plus
workload-specific extras read from the program's public outputs.  With
``--trace`` it instead replays one reconstruction layer by layer
(:mod:`layers`) and reports the per-layer metrics.

Why each workload exists:

* ``genome-sharedmem`` - a 512-gene genome slice on SharedMemoryEngine(2).
  MI is nearly all of the wall time, so kernel, ``core.exec`` dispatch
  and ``parallel.engine`` changes show here.
* ``deep-samples`` - 256 genes at the paper's 3,137 samples, serial.
  Preprocess, weights and null dominate and no engine is involved, so
  kernel and engine changes should leave it unchanged.
* ``stream-update`` - 20 seeded ``add_samples`` batches on a live
  1000-gene network: null rebuilds plus many small filtered or 1x1 MI
  tiles written into a live matrix.
* ``serve-mixed`` - 2 closed-loop clients against the in-process daemon,
  in lockstep rounds: 12 datasets each submitted twice (fresh, then a
  cache hit).  It is the only workload through ``serve`` and
  ``GeneNetwork.edge_list``.  It runs this fixed mix rather than for
  ``--seconds``: the daemon keeps every job's result, so its memory grows
  with the jobs served.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import layers
from repro.core.bspline import weight_tensor
from repro.core.discretize import preprocess
from repro.core.exec import TensorSource, plan_tiles
from repro.core.incremental import NetworkUpdater
from repro.core.mi import mi_tile
from repro.core.pipeline import TingeConfig, TingePipeline, reconstruct_network
from repro.core.tiling import pair_count
from repro.data import arabidopsis_scale
from repro.data.expression import ExpressionDataset
from repro.data.io import save_dataset
from repro.parallel.engine import SharedMemoryEngine
from repro.serve.app import ServeApp, make_server

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The metrics BENCHMARK.json declares: name -> (unit, better).  Every
#: workload reports all of E2E untraced and all of PER_LAYER traced.
E2E = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

#: Workload shapes.  A pipeline or stream run measures at least
#: ``min_ops`` runs (one round of ``batches``) and keeps going until it has
#: also measured ``--seconds`` of them.
FULL = {
    "genome-sharedmem": {"n": 512, "m": 256, "workers": 2, "min_ops": 2},
    "deep-samples": {"n": 256, "m": 3137, "workers": 1, "min_ops": 3},
    "stream-update": {"n": 1000, "m": 256, "batches": (1,) * 15 + (4,) * 5},
    "serve-mixed": {"n": 400, "m": 256, "datasets": 12},
}
SMOKE = {
    "genome-sharedmem": {"n": 256, "m": 256, "workers": 2, "min_ops": 1},
    "deep-samples": {"n": 256, "m": 800, "workers": 1, "min_ops": 1},
    "stream-update": {"n": 300, "m": 256, "batches": (1, 1, 1, 4)},
    "serve-mixed": {"n": 150, "m": 256, "datasets": 3},
}

#: Set-up is repeated (at least SETUP_REPS times, until SETUP_MIN_S have
#: been measured, at most SETUP_MAX_REPS times) and reported as a median.
SETUP_REPS = 3
SETUP_MIN_S = 2.5
SETUP_MAX_REPS = 15
WARMUP_GENES = 64
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
POLL_S = 0.01


class Run:
    """One workload run: its settings and everything it measured."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.out = args.out
        self.params = (SMOKE if args.smoke else FULL)[args.workload]
        self.single_setup = args.smoke or bool(args.trace)
        self.work = args.out / "work" / args.workload
        self.metrics: dict = {}
        self.extras: dict = {}
        self.checks: dict = {}
        self.samples: dict = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit, better, extra=False):
        (self.extras if extra else self.metrics)[name] = {
            "value": float(value), "unit": unit, "better": better}

    def check(self, name, ok) -> None:
        self.checks[name] = bool(ok)
        if not ok:
            log(f"CHECK FAILED: {name}")

    def setup(self, once) -> list:
        """Time repeated calls of ``once()``; returns their outputs.

        The times land in ``samples["setup_s"]``.  Smoke and traced runs
        set up only once.
        """
        times, outs = [], []
        while not times or not self.single_setup and (
                len(times) < SETUP_REPS
                or sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
            t0 = time.perf_counter()
            outs.append(once())
            times.append(time.perf_counter() - t0)
        self.samples["setup_s"] = times
        return outs

    def measure(self, op):
        """Run one measured operation: ``(output, seconds)``.

        An exception counts the operation as failed (output ``None``).
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception:  # noqa: BLE001 - a failed operation is a measurement
            traceback.print_exc()
            self.failed += 1
            out = None
        return out, time.perf_counter() - t0


def log(msg: str) -> None:
    print(f"[e2e] {msg}", file=sys.stderr, flush=True)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def mi_digest(mi: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mi).tobytes()).hexdigest()


def gene_names(n: int) -> list:
    return [f"G{i:05d}" for i in range(n)]


def put_e2e(run, time_to_network, networks_per_s, peak_rss):
    values = {"setup_s": statistics.median(run.samples["setup_s"]),
              "time_to_network_s": time_to_network,
              "networks_per_s": networks_per_s,
              "peak_rss_mb": peak_rss}
    for name, (unit, better) in E2E.items():
        run.put(name, values[name], unit, better)
    run.put("failed_frac", run.failed / max(run.attempted, 1), "ratio", "lower", extra=True)


def traced(run, data, genes, make_engine, n_workers):
    """The ``--trace`` run: the layer-by-layer replay of one reconstruction
    under spans, between two untraced reference reconstructions (their
    mean is the base of ``trace.overhead_frac``, so drift cancels)."""
    cfg = TingeConfig()

    def reference():
        run.attempted += 1
        return timed(lambda: TingePipeline(cfg, make_engine()).run(data, genes))

    ref, before = reference()
    span_log = layers.SpanLog()
    metrics, checks, network, mi = layers.replay(data, genes, cfg, make_engine,
                                                 n_workers, span_log)
    run.attempted += 1
    after = reference()[1]
    ref_wall = (before + after) / 2
    metrics["trace.overhead_frac"] = layers.phase_seconds(span_log) / ref_wall - 1.0
    for name, (unit, better) in PER_LAYER.items():
        run.put(name, metrics[name], unit, better)
    run.put("network.edges", network.n_edges, "count", "higher", extra=True)
    run.put("reference.pipeline_s", ref_wall, "s", "lower", extra=True)
    for name, ok in checks.items():
        run.check(name, ok)
    run.check("replay_matches_pipeline",
              np.array_equal(mi, ref.mi)
              and np.array_equal(network.adjacency, ref.network.adjacency)
              and network.threshold == ref.network.threshold)
    span_log.write_jsonl(run.out / f"{run.workload}.trace.jsonl")
    return ref


# ---------------------------------------------------------------------------
# genome-sharedmem and deep-samples: whole TingePipeline runs
# ---------------------------------------------------------------------------


def check_pipeline(run, result, data, cfg) -> None:
    """Output checks of one pipeline result (outside the timed region).

    The MI sub-block is rebuilt with ``mi_tile`` tile by tile on the
    pipeline's own tile grid: bit-identity is promised per kernel call,
    and a GEMM of another shape may round differently.  The block spans
    at least WARMUP_GENES genes and a whole number of tiles (all genes
    when that is more than there are).  Only the upper triangle is
    compared, since the pipeline mirrors it into the lower.
    """
    n = data.shape[0]
    weights = weight_tensor(preprocess(data, cfg.transform), cfg.bins, cfg.order,
                            np.dtype(cfg.dtype))
    tile = plan_tiles(TensorSource(weights), tile=cfg.tile, base=cfg.base,
                      kernel_dtype=cfg.kernel_dtype, kernel=cfg.kernel).tile
    size = min(n, -(-WARMUP_GENES // tile) * tile)
    starts = np.random.default_rng([run.seed, 64]).integers(
        0, (n - size) // tile + 1, size=2) * tile
    i0, j0 = sorted(int(s) for s in starts)
    block = np.empty((size, size))
    for a in range(0, size, tile):
        for b in range(0, size, tile):
            block[a:a + tile, b:b + tile] = mi_tile(
                weights[i0 + a:i0 + min(a + tile, size)],
                weights[j0 + b:j0 + min(b + tile, size)], base=cfg.base)
    upper = np.arange(i0, i0 + size)[:, None] < np.arange(j0, j0 + size)
    got = result.mi[i0:i0 + size, j0:j0 + size]
    run.check("mi_subblock_bit_identical_to_mi_tile",
              np.array_equal(got[upper], block[upper]))
    thr = result.null.threshold(cfg.alpha, n_tests=pair_count(n), correction=cfg.correction)
    run.check("threshold_equals_null_threshold", thr == result.network.threshold)
    expected = result.mi > result.network.threshold
    np.fill_diagonal(expected, False)
    run.check("adjacency_is_mi_above_threshold",
              np.array_equal(result.network.adjacency, expected))


def pipeline_workload(run) -> None:
    p = run.params
    ds = arabidopsis_scale(n_genes=p["n"], m_samples=p["m"], seed=run.seed)
    data, genes = ds.expression, list(ds.genes)
    cfg = TingeConfig()

    def make_engine():
        return SharedMemoryEngine(n_workers=p["workers"]) if p["workers"] > 1 else None

    def set_up():
        engine = make_engine()
        TingePipeline(cfg, engine).run(data[:WARMUP_GENES], genes[:WARMUP_GENES])
        return engine

    engine = run.setup(set_up)[-1]
    if run.trace:
        ref = traced(run, data, genes, make_engine, p["workers"])
        check_pipeline(run, ref, data, cfg)
        return

    times, first, digests, edges = [], None, set(), set()
    layers.reset_peak_rss()
    while len(times) < p["min_ops"] or sum(times) < run.seconds:
        result, seconds = run.measure(lambda: TingePipeline(cfg, engine).run(data, genes))
        times.append(seconds)
        if result is not None:
            first = first or result
            digests.add(mi_digest(result.mi))
            edges.add(result.network.n_edges)
    peak = layers.peak_rss_mb()

    run.check("some_run_succeeded", first is not None)
    if first is not None:
        check_pipeline(run, first, data, cfg)
        run.check("mi_and_edges_identical_across_runs", len(digests) == 1 and len(edges) == 1)
        run.put("network.edges", first.network.n_edges, "count", "higher", extra=True)
        for phase, seconds in first.timings.items():
            run.put(f"pipeline.{phase}_s", seconds, "s", "lower", extra=True)
    run.samples["time_to_network_s"] = times
    put_e2e(run, statistics.median(times), len(times) / sum(times), peak)


# ---------------------------------------------------------------------------
# stream-update: seeded add_samples batches on a live network
# ---------------------------------------------------------------------------


def coupled_pairs(n: int, m: int, seed: int) -> np.ndarray:
    """Mostly-null expression with n/20 coupled gene pairs (as in E31), so
    the network has real edges whose neighbourhood stays dirty."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, m))
    for k in range(n // 20):
        data[2 * k + 1] = data[2 * k] + 0.3 * rng.normal(size=m)
    return data


def stream_workload(run) -> None:
    p = run.params
    n, m = p["n"], p["m"]
    sizes = list(p["batches"])
    np.random.default_rng([run.seed, 1]).shuffle(sizes)
    full = coupled_pairs(n, m + sum(sizes), run.seed)
    base = full[:, :m]
    genes = gene_names(n)
    cfg = TingeConfig()

    from_result_s = []

    def set_up():
        initial = reconstruct_network(base, genes, config=cfg)
        updater, seconds = timed(lambda: NetworkUpdater.from_result(initial, base))
        from_result_s.append(seconds)
        return initial, updater

    built = run.setup(set_up)
    initial = built[-1][0]
    updaters = [updater for _, updater in built]
    if run.trace:
        ref = traced(run, base, genes, lambda: None, 1)
        run.check("trace_reference_matches_setup", np.array_equal(ref.mi, initial.mi))
        return

    # Rounds replay the same seeded batch sequence from a fresh updater.
    times, deltas = [], []
    updater, col = updaters.pop(), m
    layers.reset_peak_rss()
    while len(times) < len(sizes) or sum(times) < run.seconds:
        if times and len(times) % len(sizes) == 0:
            updater = (updaters.pop() if updaters
                       else NetworkUpdater.from_result(initial, base))
            col = m
        dm = sizes[len(times) % len(sizes)]
        delta, seconds = run.measure(lambda: updater.add_samples(full[:, col:col + dm]))
        times.append(seconds)
        if delta is not None:
            col += dm
            deltas.append(delta)
    peak = layers.peak_rss_mb()

    ref = reconstruct_network(full[:, :col], genes, config=cfg).network
    net = updater.network
    run.check("threshold_bit_identical_to_scratch", net.threshold == ref.threshold)
    run.check("adjacency_identical_to_scratch", np.array_equal(net.adjacency, ref.adjacency))
    run.check("edge_weights_bit_identical_to_scratch",
              np.array_equal(net.weights[ref.adjacency], ref.weights[ref.adjacency]))

    first_round = deltas[:len(sizes)]
    run.samples["time_to_network_s"] = times
    run.samples["from_result_s"] = from_result_s
    run.put("update_p50_s", statistics.median(times), "s", "lower", extra=True)
    run.put("stream_total_s", sum(times[:len(sizes)]), "s", "lower", extra=True)
    run.put("incremental.recompute_fraction_mean",
            statistics.mean(d.recompute_fraction for d in first_round), "ratio", "lower",
            extra=True)
    run.put("incremental.tiles_dirty_total", sum(d.tiles_dirty for d in first_round),
            "count", "lower", extra=True)
    run.put("incremental.from_result_s", statistics.median(from_result_s), "s", "lower",
            extra=True)
    run.put("network.edges", net.n_edges, "count", "higher", extra=True)
    # Per-batch latency is bimodal (screened batches vs. batches whose
    # screen dirties nearly every tile), so the typical update is the mean.
    put_e2e(run, statistics.mean(times), len(times) / sum(times), peak)


# ---------------------------------------------------------------------------
# serve-mixed: closed-loop clients against the in-process daemon
# ---------------------------------------------------------------------------


def block_dataset(n: int, m: int, seed: int) -> ExpressionDataset:
    """Ten equal gene blocks, each sharing one latent profile.

    Every within-block pair is an edge and almost no cross-block pair is,
    so the edge count is fixed by ``n`` (10 * C(n/10, 2)).  ``edge_list``
    cost grows with the edge count, and ``arabidopsis_scale`` varies it by
    about 17% between seeds, which would swamp run-to-run comparisons.
    """
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(10, m))
    expression = np.repeat(latent, -(-n // 10), axis=0)[:n] + 0.5 * rng.normal(size=(n, m))
    return ExpressionDataset(expression=expression, genes=gene_names(n))


class Client:
    """A closed-loop HTTP client of the daemon, one connection per request."""

    def __init__(self, port: int):
        self.port = port

    def request(self, path: str, body: "dict | None" = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            if body is None:
                conn.request("GET", path)
            else:
                conn.request("POST", path, body=json.dumps(body).encode(),
                             headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def job(self, dataset: Path) -> dict:
        """Submit, poll every POLL_S until terminal, fetch the result."""
        t0 = time.perf_counter()
        status, body = self.request("/jobs", {"dataset": str(dataset)})
        if status != 202:
            return {"ok": False, "error": f"submit refused: HTTP {status}"}
        job_id = json.loads(body)["job_id"]
        polls = 0
        while True:
            job = json.loads(self.request(f"/jobs/{job_id}")[1])
            polls += 1
            if job["state"] in ("done", "failed", "interrupted"):
                break
            time.sleep(POLL_S)
        if job["state"] != "done":
            return {"ok": False, "error": f"job {job['state']}: {job['error']}"}
        status, raw = self.request(f"/jobs/{job_id}/result")
        latency = time.perf_counter() - t0
        if status != 200:
            return {"ok": False, "error": f"result refused: HTTP {status}"}
        result = json.loads(raw)
        return {
            "ok": True,
            "latency_s": latency,
            "server_s": job["finished_at"] - job["submitted_at"],
            "queue_wait_s": job["started_at"] - job["submitted_at"],
            "run_s": job["finished_at"] - job["started_at"],
            "polls": polls,
            "cached": result["cached"],
            "cache_key": result["cache_key"],
            "n_edges": result["n_edges"],
            "threshold": result["threshold"],
            "edges_digest": hashlib.sha256(json.dumps(result["edges"]).encode()).hexdigest(),
            "result_mb": len(raw) / 2**20,
        }


class Daemon:
    """ServeApp + HTTP server on an ephemeral localhost port."""

    def __init__(self, state_dir: Path):
        self.app = ServeApp(state_dir, n_workers=SERVE_WORKERS)
        self.server = make_server(self.app)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.port = self.server.server_address[1]

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.app.drain(timeout=60)


def serve_workload(run) -> None:
    p = run.params
    n, m = p["n"], p["m"]
    cfg = TingeConfig()
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    datasets = [block_dataset(n, m, seed=run.seed * 1000 + i) for i in range(p["datasets"])]
    paths = [run.work / f"dataset{i}.npz" for i in range(p["datasets"])]
    for ds, path in zip(datasets, paths):
        save_dataset(ds, path)
    warm = run.work / "warmup.npz"
    save_dataset(datasets[0].subset(n_genes=WARMUP_GENES), warm)

    def set_up():
        daemon = Daemon(run.work / f"state{len(daemons)}")
        daemons.append(daemon)
        client = Client(daemon.port)
        if client.request("/healthz")[0] != 200:
            raise RuntimeError("daemon /healthz did not return 200")
        warmup = client.job(warm)
        if not warmup["ok"]:
            raise RuntimeError(f"warm-up job failed: {warmup['error']}")

    daemons: list = []
    try:
        run.setup(set_up)
        while len(daemons) > 1:
            daemons.pop(0).stop()
        daemon = daemons[0]
        if run.trace:
            traced(run, datasets[0].expression, datasets[0].genes, lambda: None, 1)
            return

        client = Client(daemon.port)  # one connection per request: shareable
        records = []
        layers.reset_peak_rss()
        t_start = time.perf_counter()
        # Lockstep rounds: each client submits a fresh dataset and, once
        # every client has its network, resubmits it for a cache hit.  A
        # fresh job thus always runs beside a fresh job and a cached one
        # beside a cached one, so the mix a job competes with for the two
        # cores is the same on every run.
        with ThreadPoolExecutor(SERVE_CLIENTS) as pool:
            for first in range(0, p["datasets"], SERVE_CLIENTS):
                batch = range(first, min(first + SERVE_CLIENTS, p["datasets"]))
                for submission in ("fresh", "cached"):
                    for i, rec in zip(batch, pool.map(lambda i: client.job(paths[i]), batch)):
                        run.attempted += 1
                        if not rec["ok"]:
                            run.failed += 1
                            log(rec["error"])
                        records.append(dict(rec, dataset=i, submission=submission))
        loop_s = time.perf_counter() - t_start
        peak = layers.peak_rss_mb()
        cache_keys = [r["cache_key"] for r in records if r["ok"] and r["cached"]]
        cache_get_s = [timed(lambda k=k: daemon.app.cache.get(k))[1] for k in cache_keys[:5]]
    finally:
        for daemon in daemons:
            daemon.stop()

    ok = [r for r in records if r["ok"]]
    fresh = [r for r in ok if r["submission"] == "fresh"]
    cached = [r for r in ok if r["submission"] == "cached"]
    references = {}
    for i in sorted({r["dataset"] for r in ok}):
        net = reconstruct_network(datasets[i].expression, datasets[i].genes, config=cfg).network
        references[i] = (net.n_edges, net.threshold)
    run.check("jobs_match_in_process_reference",
              all((r["n_edges"], r["threshold"]) == references[r["dataset"]] for r in ok))
    run.check("fresh_jobs_computed_cached_jobs_hit",
              not any(r["cached"] for r in fresh) and all(r["cached"] for r in cached))
    fresh_digest = {r["dataset"]: r["edges_digest"] for r in fresh}
    run.check("cached_results_equal_fresh",
              all(r["edges_digest"] == fresh_digest.get(r["dataset"]) for r in cached))
    hit_ratio = len(cached) / max(len(ok), 1)
    run.check("cache_hit_ratio_is_half", hit_ratio == 0.5)

    def p50(rs, key):
        return statistics.median(r[key] for r in rs)

    # time_to_network_s is the daemon's own submit-to-finish time: client
    # latency adds the HTTP round trips and up to one poll interval.
    run.samples["time_to_network_s"] = [r["server_s"] for r in fresh]
    run.samples["cached_job_s"] = [r["server_s"] for r in cached]
    for name, value, unit, better in (
        ("fresh_job_p50_s", p50(fresh, "latency_s"), "s", "lower"),
        ("cached_job_p50_s", p50(cached, "latency_s"), "s", "lower"),
        ("jobs_per_s", len(ok) / loop_s, "1/s", "higher"),
        ("serve.queue_wait_s_p50", p50(ok, "queue_wait_s"), "s", "lower"),
        ("serve.run_fresh_s_p50", p50(fresh, "run_s"), "s", "lower"),
        ("serve.run_cached_s_p50", p50(cached, "run_s"), "s", "lower"),
        ("serve.http_overhead_s_p50",
         statistics.median(r["latency_s"] - r["server_s"] for r in ok), "s", "lower"),
        ("serve.cache_hit_ratio", hit_ratio, "ratio", "higher"),
        ("serve.cache_get_s", statistics.median(cache_get_s), "s", "lower"),
        ("serve.result_mb_p50", p50(ok, "result_mb"), "MB", "lower"),
        ("serve.polls_per_job", statistics.mean(r["polls"] for r in ok), "count", "lower"),
        ("network.edges", statistics.median(r["n_edges"] for r in ok), "count", "higher"),
    ):
        run.put(name, value, unit, better, extra=True)
    put_e2e(run, p50(fresh, "server_s"), len(ok) / loop_s, peak)


# ---------------------------------------------------------------------------
# Metadata and entry point
# ---------------------------------------------------------------------------


def bench_digest() -> str:
    """Hash of the benchmark's own code and BENCHMARK.json: results from
    different benchmark versions must not be compared."""
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")) + [ROOT / "BENCHMARK.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(run) -> dict:
    from repro.core.sparsekernel import sparse_backend

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cache = os.environ.get("REPRO_CC_CACHE")
    return {
        "git_sha": sha,
        "bench_digest": bench_digest(),
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "sparse_backend": sparse_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": run.seed,
        "seconds": run.seconds,
        "smoke": run.smoke,
        "trace": run.trace,
        "program_cache_dir": cache and os.path.relpath(cache, ROOT),
    }


RUNNERS = {
    "genome-sharedmem": pipeline_workload,
    "deep-samples": pipeline_workload,
    "stream-update": stream_workload,
    "serve-mixed": serve_workload,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    run = Run(ap.parse_args(argv))
    started = time.time()
    RUNNERS[run.workload](run)
    shutil.rmtree(run.work, ignore_errors=True)
    correct = bool(run.checks) and all(run.checks.values())
    result = {
        "workload": run.workload,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "metrics": run.metrics,
        "extras": run.extras,
        "samples": run.samples,
        "started_at": started,
        "wall_s": time.time() - started,
        "metadata": metadata(run),
    }
    (run.out / f"{run.workload}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
