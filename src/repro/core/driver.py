"""Auto-strategy whole-genome driver.

The integration layer a production user actually calls: given the data, a
memory budget and a working directory, it picks the execution strategy
(in-memory / checkpointed / codebook) the way an operator would, runs
the reconstruction, and leaves behind the artifacts a reproducible run
needs (network, edge list, provenance record, checkpoint ledger).

Strategy selection mirrors :func:`repro.machine.memory.memory_plan`:

* everything fits comfortably        → the plain in-memory pipeline;
* weights fit but the run is long    → block-row checkpointing
  (``checkpoint=True`` or a gene count above ``checkpoint_threshold``);
* weights exceed the budget          → the codebook path: the weights stay
  a ``(u, b)`` table plus an ``(n, m)`` index
  (:class:`~repro.core.exec.CodebookSource`), each tile stages its slabs,
  and block-rows are checkpointed.

The budget is compared with what the resident path holds: the dense
tensor plus the whole-tensor operands the executor hoists for the
configured kernel (two GEMM repackings for the fused kernel, the packed
lanes for the sparse one), about three times the tensor by default.

Every strategy runs :class:`repro.core.pipeline.TingePipeline`'s phases
(input checks, weights, null, MI, threshold and exact re-test) and differs
only in how the weights are held and where the MI blocks go; the codebook
gathers bitwise the dense tensor's rows, so every path yields the
pipeline's MI, null, threshold and network for the same seed — asserted
by the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from pathlib import Path

import numpy as np

from repro.core.checkpoint import CheckpointSink, checkpoint_status
from repro.core.exec import DenseSink, TensorSource
from repro.core.network import GeneNetwork
from repro.core.pipeline import TingeConfig, TingePipeline
from repro.core.sparsekernel import PACK_LANES

__all__ = ["AutoRunResult", "auto_reconstruct"]

# The pooled-threshold strategies share one global null quantile, so only
# corrections expressible as a single adjusted alpha are supported here.
# ``"bh"`` needs per-edge p-values — use reconstruct_network for that path.
_SUPPORTED_CORRECTIONS = ("bonferroni", "none")


@dataclass
class AutoRunResult:
    """Outcome of an auto-strategy run.

    Attributes
    ----------
    network:
        The reconstructed network.
    strategy:
        ``"in-memory"``, ``"checkpointed"``, or ``"codebook"``.
    seconds:
        Wall-clock for the whole run.
    artifacts:
        Paths written (network, edge list, checkpoint directory), by name.
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


def _resident_bytes(n: int, m: int, config: TingeConfig) -> float:
    """Bytes the resident path holds: the dense weight tensor plus the
    whole-tensor operands :func:`repro.core.exec.run_tile_plan` hoists for
    the configured kernel at its ``kernel_dtype``."""
    cells = float(n) * m
    tensor = cells * config.bins * np.dtype(config.dtype).itemsize
    itemsize = np.dtype(config.kernel_dtype or config.dtype).itemsize
    if config.kernel == "sparse":
        hoisted = cells * (PACK_LANES * itemsize + 4)  # values + int32 first
    else:  # fused (and "auto", which may pick it): two GEMM repackings
        hoisted = 2 * cells * config.bins * itemsize
    return tensor + hoisted


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
        codebook strategies (a ValueError names the reason otherwise).
    mem_budget_gb:
        Memory the resident weights may occupy in RAM: the dense tensor
        plus the kernel operands hoisted from it.  A run over budget keeps
        its weights as a rank codebook instead.
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
        Optional ``progress(done_tiles, total_tiles)`` callback, fired
        as each MI tile lands, whichever strategy is chosen (a resumed
        checkpoint counts its committed rows' tiles as done).
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

    fits = _resident_bytes(n, m, config) <= mem_budget_gb * 1e9
    if checkpoint is None:
        checkpoint = n > checkpoint_threshold
    if fits and not checkpoint:
        strategy = "in-memory"
    elif fits:
        strategy = "checkpointed"
    else:
        strategy = "codebook"
    if strategy != "in-memory" and workdir is None:
        raise ValueError(f"strategy {strategy!r} needs a workdir for its artifacts")
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    artifacts: dict = {}

    # Every strategy runs the pipeline's phases over a different
    # (source, sink) pair; only weight residency and output storage differ.
    transformed = pipe.transform(data)
    if strategy == "codebook":
        source = pipe.codebook(transformed)
    else:
        source = TensorSource(pipe.weights(transformed))
    del transformed
    null = pipe.null(source)
    if strategy == "in-memory":
        plan = pipe.plan(source)
        sink = DenseSink(n)
    else:
        ck = workdir / "checkpoint"
        plan = pipe.plan(source, checkpoint_status(ck).get("tile"))
        sink = CheckpointSink(ck, plan[0], source.fingerprint())
        artifacts["checkpoint_dir"] = ck
    mi = pipe.mi(source, sink, plan, policy=policy)
    network = pipe.network(mi, null, genes, source)
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
