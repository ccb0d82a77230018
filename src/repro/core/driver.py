"""Auto-strategy whole-genome driver.

The integration layer a production user actually calls: given the data, a
memory budget and a working directory, it picks the execution strategy
(in-memory / checkpointed / out-of-core) the way an operator would, runs
the reconstruction, and leaves behind the artifacts a reproducible run
needs (network, edge list, provenance record, checkpoint ledger).

Strategy selection mirrors :func:`repro.machine.memory.memory_plan`:

* everything fits comfortably        → the plain in-memory pipeline;
* weights fit but the run is long    → block-row checkpointing
  (``checkpoint=True`` or a gene count above ``checkpoint_threshold``);
* weights exceed the budget          → the out-of-core path (weights and
  MI matrix on disk, streamed block-rows).

Every strategy runs :class:`repro.core.pipeline.TingePipeline`'s phases
(input checks, weights, null, MI, threshold and exact re-test) and differs
only in where the weights and the MI matrix live, so every path yields the
pipeline's network for the same seed — asserted by the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from pathlib import Path

import numpy as np

from repro.core.checkpoint import CheckpointSink
from repro.core.exec import DenseSink, MmapSource, TensorSource
from repro.core.network import GeneNetwork
from repro.core.outofcore import MmapMatrixSink, build_weight_store, open_weight_store
from repro.core.pipeline import TingeConfig, TingePipeline

__all__ = ["AutoRunResult", "auto_reconstruct"]

# The pooled-threshold strategies share one global null quantile, so only
# corrections expressible as a single adjusted alpha are supported here.
# ``"bh"`` needs per-edge p-values — use reconstruct_network for that path.
_SUPPORTED_CORRECTIONS = ("bonferroni", "none")

# Genes whose weights seed the out-of-core pooled null; beyond this the
# driver samples a random subset (with the run's seed) instead of loading
# every gene's weights into RAM.
_NULL_GENE_CAP = 2048


@dataclass
class AutoRunResult:
    """Outcome of an auto-strategy run.

    Attributes
    ----------
    network:
        The reconstructed network.
    strategy:
        ``"in-memory"``, ``"checkpointed"``, or ``"out-of-core"``.
    seconds:
        Wall-clock for the whole run.
    artifacts:
        Paths written (network, edge list, provenance, stores), by name.
    quarantined:
        Tiles abandoned under a fault policy
        (:class:`repro.faults.policy.QuarantinedTile` records); empty in
        normal runs.
    """

    network: GeneNetwork
    strategy: str
    seconds: float
    artifacts: dict
    quarantined: list = dataclasses_field(default_factory=list)


def _weights_bytes(n: int, m: int, bins: int, dtype: str) -> float:
    return float(n) * m * bins * np.dtype(dtype).itemsize


def _null_gene_subset(n: int, cap: int, seed) -> np.ndarray:
    """Sorted gene indices whose weights seed the out-of-core pooled null.

    All genes when ``n <= cap`` (matching the in-memory path exactly);
    otherwise a uniform random subset drawn with the run's seed — a
    contiguous prefix would be biased for genome-ordered inputs, where
    neighbouring genes are correlated.  Sorted for memmap read locality.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    if n <= cap:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=cap, replace=False))


def auto_reconstruct(
    data: np.ndarray,
    genes: "list[str] | None" = None,
    config: "TingeConfig | None" = None,
    workdir: "str | Path | None" = None,
    mem_budget_gb: float = 4.0,
    checkpoint: "bool | None" = None,
    checkpoint_threshold: int = 4000,
    engine=None,
    tracer=None,
    progress=None,
    policy=None,
) -> AutoRunResult:
    """Reconstruct with automatically chosen residency strategy.

    Parameters
    ----------
    data, genes, config:
        As in :func:`repro.core.pipeline.reconstruct_network` (pooled
        testing only — the strategies differ in how the MI matrix is
        computed, which exact mode fuses differently).

        Correction support: every strategy here thresholds against one
        pooled null quantile, so only ``config.correction`` values of
        ``"bonferroni"`` (family-wise, the TINGe default) and ``"none"``
        (per-test alpha) are accepted.  ``"bh"`` requires per-edge
        p-values and is rejected with a ValueError — run
        :func:`repro.core.pipeline.reconstruct_network` for the FDR path.
    workdir:
        Directory for artifacts; required for the checkpointed and
        out-of-core strategies (a ValueError names the reason otherwise).
    mem_budget_gb:
        Memory the weight tensor may occupy in RAM.
    checkpoint:
        Force checkpointing on/off; default: on for runs with more than
        ``checkpoint_threshold`` genes.
    engine:
        Optional execution engine (:mod:`repro.parallel.engine`) for the
        null and all-pairs MI phases of whichever strategy is chosen.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`; every phase runs under
        its pipeline span (and, via the engine, records worker metrics)
        regardless of strategy.
    progress:
        Optional ``progress(done, total)`` callback — tile-granular for
        the in-memory and out-of-core strategies, row-granular for the
        checkpointed one.
    policy:
        Optional :class:`repro.faults.policy.FaultPolicy` for the MI
        stage; defaults to the policy implied by the config's
        ``max_retries`` / ``task_timeout`` / ``on_fault`` fields
        (:meth:`repro.core.pipeline.TingeConfig.fault_policy`).  Under a
        non-raising policy, quarantined tiles are reported on the result
        instead of aborting the run.
    """
    config = config or TingeConfig()
    if config.testing != "pooled":
        raise ValueError("auto_reconstruct supports pooled testing only")
    if config.correction not in _SUPPORTED_CORRECTIONS:
        raise ValueError(
            f"auto_reconstruct does not support correction={config.correction!r}: "
            "the pooled-threshold strategies support only "
            f"{_SUPPORTED_CORRECTIONS} (correction='bh' needs per-edge "
            "p-values; use repro.core.pipeline.reconstruct_network instead)"
        )
    if mem_budget_gb <= 0:
        raise ValueError("mem_budget_gb must be positive")
    pipe = TingePipeline(config, engine=engine, tracer=tracer, progress=progress)
    data, genes = pipe.check_inputs(data, genes)
    n, m = data.shape
    workdir = Path(workdir) if workdir is not None else None

    fits = _weights_bytes(n, m, config.bins, config.dtype) <= mem_budget_gb * 1e9
    if checkpoint is None:
        checkpoint = n > checkpoint_threshold
    if fits and not checkpoint:
        strategy = "in-memory"
    elif fits:
        strategy = "checkpointed"
    else:
        strategy = "out-of-core"
    if strategy != "in-memory" and workdir is None:
        raise ValueError(f"strategy {strategy!r} needs a workdir for its artifacts")
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    artifacts: dict = {}

    # Every strategy runs the pipeline's phases over a different
    # (source, sink) pair; only weight residency and output storage differ.
    if strategy == "out-of-core":
        wpath = build_weight_store(
            pipe.transform(data), workdir / "weights", bins=config.bins,
            order=config.order, dtype=config.dtype,
        )
        artifacts["weight_store"] = wpath
        source = MmapSource(wpath)
        weights = open_weight_store(wpath)
        # The null needs the weights in RAM: every gene when small enough,
        # otherwise a seeded random sample (a contiguous prefix would bias
        # the null for genome-ordered data).
        subset = _null_gene_subset(n, _NULL_GENE_CAP, config.seed)
        null_weights = np.asarray(weights[subset], dtype=np.float64)
    else:
        weights = null_weights = pipe.weights(pipe.transform(data))
        source = TensorSource(weights)
    try:
        null = pipe.null(null_weights)
        del null_weights
        plan = pipe.plan(source)
        if strategy == "out-of-core":
            sink = MmapMatrixSink(workdir / "mi", n)
            artifacts["mi_store"] = sink.out_path
        elif strategy == "checkpointed":
            ck = workdir / "checkpoint"
            sink = CheckpointSink(ck, plan[0], source.fingerprint())
            artifacts["checkpoint_dir"] = ck
        else:
            sink = DenseSink(n)
        result = pipe.mi(source, sink, plan, policy=policy)
    finally:
        source.close()
    if strategy == "out-of-core":
        mi = np.asarray(np.load(result, mmap_mode="r"))
    else:
        mi = result
    network = pipe.network(mi, null, genes, weights)
    seconds = time.perf_counter() - t0

    if workdir is not None:
        net_path = workdir / "network.npz"
        network.save(net_path)
        artifacts["network"] = net_path
        from repro.data.io import write_edge_list

        edges_path = workdir / "edges.tsv"
        write_edge_list(network.edge_list(), edges_path)
        artifacts["edges"] = edges_path
    return AutoRunResult(
        network=network, strategy=strategy, seconds=seconds, artifacts=artifacts,
        quarantined=sink.quarantined,
    )
