"""Per-layer replay of one reconstruction, under benchmark-side spans.

The traced run does not instrument ``src/``: it calls the same public
functions :class:`repro.core.pipeline.TingePipeline` calls, in the same
order and with the same arguments (preprocess -> ``weight_tensor`` ->
``pooled_null`` -> ``mi_matrix`` -> threshold), and records a span
(name, start, end, parent) around each call.  It then makes the extra
calls that split the MI phase: the same ``mi_matrix`` call without a
tracer, one serial call per kernel configuration, and ``edge_list`` on
the finished network.

Peak memory per phase comes from ``VmHWM``, reset through
``/proc/self/clear_refs`` before each phase call (Linux only, like the
fork engines the benchmark drives).
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.bspline import weight_tensor
from repro.core.discretize import preprocess
from repro.core.exec import TensorSource
from repro.core.mi_matrix import mi_matrix
from repro.core.network import GeneNetwork
from repro.core.permutation import pooled_null
from repro.core.threshold import threshold_adjacency
from repro.core.tiling import pair_count
from repro.obs.tracer import Tracer
from repro.parallel.engine import SerialEngine

#: The pipeline phases whose spans add up to one reconstruction.
PHASES = ("preprocess", "weight_tensor", "pooled_null", "mi_matrix", "threshold")

#: Kernel configurations timed serially: name -> (kernel, kernel_dtype).
KERNELS = {
    "fused64": ("fused", None),
    "fused32": ("fused", "float32"),
    "sparse64": ("sparse", None),
    "sparse32": ("sparse", "float32"),
}

#: Agreement with the float64 fused matrix each variant promises.
KERNEL_ATOL = {"fused64": 0.0, "fused32": 1e-5, "sparse64": 1e-13, "sparse32": 1e-5}


class SpanLog:
    """Benchmark-side spans, kept in memory and written out at the end."""

    def __init__(self):
        self._t0 = time.perf_counter()
        self._stack: list = []
        self.spans: list = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """``VmHWM`` of this process since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM missing from /proc/self/status")


def _mi_call(weights, cfg, engine, tracer):
    """``mi_matrix`` with the arguments the pipeline passes.

    ``weights`` should be a fresh array or source: the program caches
    repacked operands and entropies per object, so reusing one would let
    a later call skip work an earlier call paid for.
    """
    return mi_matrix(weights, cfg.tile, cfg.base, engine, None, None, tracer,
                     cfg.schedule, policy=cfg.fault_policy(),
                     kernel_dtype=cfg.kernel_dtype, autotune=cfg.autotune,
                     kernel=cfg.kernel)


def replay(data, genes, cfg, make_engine, n_workers: int, log: SpanLog):
    """Replay one reconstruction of ``data`` layer by layer.

    ``make_engine()`` builds the workload's engine (``None`` for serial).
    Returns ``(metrics, checks, network, mi)``: ``metrics`` maps every
    per-layer metric BENCHMARK.json declares, except
    ``trace.overhead_frac``, to its value.
    """
    data = np.asarray(data, dtype=np.float64)
    n, m = data.shape
    metrics: dict = {}
    checks: dict = {}

    # As in the pipeline: an engine without a tracer reports into the
    # run's tracer, so engine_map spans nest under the MI phase.
    tracer = Tracer()
    engine = make_engine()
    if engine is not None:
        engine.tracer = tracer

    with log.span("reconstruct"):
        reset_peak_rss()
        with log.span("preprocess"):
            transformed = preprocess(data, cfg.transform)
        with log.span("weight_tensor"):
            weights = weight_tensor(transformed, cfg.bins, cfg.order, np.dtype(cfg.dtype))
        metrics["mem.weights_peak_mb"] = peak_rss_mb()
        source = TensorSource(weights)

        reset_peak_rss()
        with log.span("pooled_null"):
            null = pooled_null(weights, cfg.n_permutations,
                               min(cfg.n_null_pairs, pair_count(n)),
                               cfg.seed, cfg.base, engine)
        metrics["mem.null_peak_mb"] = peak_rss_mb()

        reset_peak_rss()
        maps_before = len(tracer.find_spans("engine_map"))
        with log.span("mi_matrix"):
            result = _mi_call(source, cfg, engine, tracer)
        metrics["mem.mi_peak_mb"] = peak_rss_mb()
        metrics["exec.dispatch_calls"] = len(tracer.find_spans("engine_map")) - maps_before

        with log.span("threshold"):
            thr = null.threshold(cfg.alpha, n_tests=pair_count(n),
                                 correction=cfg.correction)
            network = GeneNetwork(adjacency=threshold_adjacency(result.mi, thr),
                                  weights=result.mi, genes=list(genes), threshold=thr)

    metrics["discretize.preprocess_s"] = log.seconds("preprocess")
    metrics["bspline.weight_tensor_s"] = log.seconds("weight_tensor")
    metrics["bspline.weights_mb"] = weights.nbytes / 2**20
    metrics["permutation.pooled_null_s"] = log.seconds("pooled_null")
    metrics["permutation.null_mi_per_s"] = null.size / log.seconds("pooled_null")
    metrics["exec.mi_traced_s"] = log.seconds("mi_matrix")
    metrics["threshold.adjacency_s"] = log.seconds("threshold")

    # The same MI call with no tracer.  Serial workloads go through
    # SerialEngine, the in-process reference engine, so that the engine
    # layer reports busy and idle time for them too.
    untraced_engine = make_engine() or SerialEngine()
    with log.span("mi_matrix.untraced"):
        untraced = _mi_call(weights.copy(), cfg, untraced_engine, None)
    checks["untraced_mi_bit_identical"] = bool(np.array_equal(untraced.mi, result.mi))
    wall = log.seconds("mi_matrix.untraced")
    stats = untraced_engine.last_map_stats
    metrics["exec.mi_untraced_s"] = wall
    metrics["engine.busy_s"] = stats.busy_seconds
    metrics["engine.idle_s"] = n_workers * stats.wall_seconds - stats.busy_seconds
    metrics["engine.utilization"] = stats.busy_seconds / (n_workers * stats.wall_seconds)
    # Read before the kernel calls below: compiling the sparse kernel
    # runs the C compiler as a child process.
    metrics["mem.worker_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)

    pairs = pair_count(n)
    for name, (kernel, kernel_dtype) in KERNELS.items():
        # Untimed warm-up on a slice: the first sparse call compiles the
        # C kernel into the (empty) program cache.
        mi_matrix(weights[:32].copy(), kernel=kernel, kernel_dtype=kernel_dtype)
        with log.span(f"kernel.{name}"):
            out = mi_matrix(weights.copy(), kernel=kernel, kernel_dtype=kernel_dtype)
        diff = float(np.max(np.abs(out.mi - result.mi)))
        checks[f"kernel_{name}_within_tolerance"] = diff <= KERNEL_ATOL[name]
        metrics[f"kernel.{name}.pairs_per_s"] = pairs / log.seconds(f"kernel.{name}")
    b, k = cfg.bins, cfg.order
    metrics["kernel.fused64.gflops_computed"] = (
        2 * pairs * m * b * b / log.seconds("kernel.fused64") / 1e9)
    metrics["kernel.sparse64.gops_computed"] = (
        pairs * m * k * k / log.seconds("kernel.sparse64") / 1e9)
    metrics["exec.parallel_efficiency"] = (
        log.seconds("kernel.fused64") / (n_workers * wall))

    with log.span("edge_list"):
        edges = network.edge_list()
    metrics["network.edge_list_s"] = log.seconds("edge_list")
    checks["edge_list_matches_adjacency"] = len(edges) == network.n_edges
    return metrics, checks, network, result.mi


def phase_seconds(log: SpanLog) -> float:
    """Summed wall time of the replayed pipeline phases."""
    return sum(log.seconds(name) for name in PHASES)
