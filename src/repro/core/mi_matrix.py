"""All-pairs mutual information over a gene set (the tiled driver).

Given the ``(n, m, b)`` B-spline weight tensor of ``n`` genes, computes the
symmetric ``(n, n)`` MI matrix by iterating cache-blocked tiles of the upper
triangle (see :mod:`repro.core.tiling`) and dispatching one kernel call per
tile (:func:`repro.core.exec.compute_tile`, re-exported here).  Marginal entropies
are hoisted: computed once per gene, reused by every tile.

This driver is a thin configuration of the unified execution core
(:mod:`repro.core.exec`): an in-memory :class:`~repro.core.exec.TensorSource`
feeding a dense :class:`~repro.core.exec.DenseSink` through
:func:`~repro.core.exec.run_tile_plan`, which owns the one supervised
engine dispatch, scheduling, fault handling, progress and tracing.  This is exactly
the decomposition the paper distributes over the Phi's 240 hardware
threads, which write disjoint blocks of the MI matrix in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exec import (
    DenseSink,
    WeightSource,
    as_source,
    compute_tile,
    plan_run,
    run_tile_plan,
)
from repro.core.tiling import warn_autotune

__all__ = ["MiMatrixResult", "compute_tile", "mi_matrix"]


@dataclass
class MiMatrixResult:
    """Output of :func:`mi_matrix`.

    Attributes
    ----------
    mi:
        ``(n, n)`` symmetric MI matrix with zero diagonal (self-MI is H(X),
        not useful for network edges, and is excluded by convention).
    marginal_entropy:
        ``(n,)`` per-gene marginal entropies (same log base as ``mi``).
    n_tiles, n_pairs:
        Workload bookkeeping, used by the benchmarks for throughput
        (pairs/second) reporting.
    quarantined:
        Tiles abandoned under a fault policy
        (:class:`repro.faults.policy.QuarantinedTile` records); empty in
        normal runs.  Their blocks are zero in ``mi``.
    """

    mi: np.ndarray
    marginal_entropy: np.ndarray
    n_tiles: int
    n_pairs: int
    quarantined: list = field(default_factory=list)

    @property
    def n_genes(self) -> int:
        return self.mi.shape[0]


def mi_matrix(
    weights: "np.ndarray | WeightSource",
    tile: int | None = None,
    base: str = "nat",
    engine=None,
    progress=None,
    out: "np.ndarray | None" = None,
    tracer=None,
    schedule=None,
    policy=None,
    kernel_dtype=None,
    autotune: bool = False,
    kernel=None,
) -> MiMatrixResult:
    """Compute the full symmetric MI matrix of a gene set.

    Parameters
    ----------
    weights:
        ``(n, m, b)`` B-spline weight tensor
        (:func:`repro.core.bspline.weight_tensor`), or a prepared
        :class:`repro.core.exec.WeightSource` (which carries cached
        marginal entropies across phases).
    tile:
        Tile edge; defaults to the measured rule's edge for the kernel
        variant (:func:`repro.core.tiling.rule_tile`).
    base:
        Entropy log base (``"nat"`` or ``"bit"``).
    engine:
        Optional execution engine; defaults to serial in-process execution.
        The whole grid is one supervised dispatch: every engine hands
        each tile's block back, and the parent writes it into the output
        matrix as it arrives.
    progress:
        Optional callback ``progress(done_tiles, total_tiles)``, called as
        *every* tile finishes on every engine (fork engines report from
        the parent's supervising loop) — whole-genome runs take hours and
        deserve a live progress line, not one callback after the final
        tile.
    out:
        Optional preallocated ``(n, n)`` float64 output (e.g. a memmap)
        the matrix is computed into, on every engine; allocated fresh when
        omitted.  Tiles quarantined under ``policy`` are zero-filled in
        it.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`.  The whole computation
        runs under an ``mi_matrix`` span holding one ``engine_map`` span
        (more only on retries or engine fallback); each finished tile
        ticks the ``tiles_done`` / ``pairs_done`` counters, so throughput
        over time is recoverable from the trace.
    schedule:
        Optional scheduling policy for the tile dispatch order: a name
        from :data:`repro.core.exec.SCHEDULE_NAMES` (``static``,
        ``cyclic``, ``dynamic``, ``cost``) or a
        :class:`repro.parallel.scheduler.SchedulerPolicy`; default is
        grid order (equivalent to dynamic chunk-1 pull).
    policy:
        Optional :class:`repro.faults.policy.FaultPolicy` (retries,
        timeouts, quarantine, engine fallback); ``None`` means one attempt
        per tile, and a failing or non-finite tile raises
        :class:`~repro.faults.policy.FaultToleranceExceeded`.
    kernel_dtype:
        GEMM precision of the fused tile kernel: ``None`` (default) keeps
        the weight tensor's own precision and stays bit-identical to
        previous releases; ``"float32"`` runs the mixed-precision kernel
        (float32 GEMM, float64 entropy accumulation; MI error ~1e-6);
        ``"float64"`` forces a float64 GEMM.
    autotune:
        Deprecated and ignored: tiles come from the measured rule.
        ``True`` emits a :class:`DeprecationWarning`.
    kernel:
        Tile kernel variant: ``None``/``"fused"`` (default, the GEMM
        workspace kernel, bit-identical to ``mi_tile``), ``"sparse"``
        (the compiled packed-weight kernel exploiting B-spline sparsity;
        float64 results within ~1 ulp of ``mi_tile``), or ``"auto"``
        (the measured rule's variant for the bin count:
        :func:`repro.core.exec.resolve_kernel`).  Composes with
        ``kernel_dtype``.

    Returns
    -------
    MiMatrixResult
    """
    source = as_source(weights)
    warn_autotune(autotune)
    plan, kernel = plan_run(source, tile=tile, base=base, schedule=schedule,
                            kernel=kernel)
    sink = DenseSink(source.n_genes, out=out)
    mi = run_tile_plan(plan, source, sink, engine=engine, tracer=tracer,
                       progress=progress, kernel=kernel, policy=policy,
                       kernel_dtype=kernel_dtype)
    return MiMatrixResult(
        mi=mi,
        marginal_entropy=source.entropies(base),
        n_tiles=plan.n_tiles,
        n_pairs=plan.n_pairs,
        quarantined=sink.quarantined,
    )

