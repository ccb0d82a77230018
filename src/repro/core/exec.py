"""Unified tile-execution core: one executor behind every MI driver.

The paper's central decomposition — independent upper-triangle tiles of
the MI matrix, scheduled across many workers — used to be re-implemented
by each driver (in-memory, checkpointed, distributed), each
with its own weight access, entropy hoisting and output writing.  This
module factors that loop into three small protocols plus one executor:

* :class:`WeightSource` — where the ``(n, m, b)`` weight tensor lives and
  how a block-row slab of it is produced (in-memory tensor, rank
  codebook, packed sparse layout).
  The source also owns the hoisted per-gene marginal entropies and the
  tensor fingerprint, so neither is recomputed per driver.
* :class:`MatrixSink` — where tile blocks go: a dense ``(n, n)`` array
  or a checkpointed block ledger.  Every sink is an ``(n, n)``
  :meth:`~MatrixSink.buffer` plus two small hooks: which tiles to run
  (a resumed ledger skips its committed rows) and a per-tile landing
  callback (where the ledger persists each finished block-row from the
  buffer).
* :class:`TilePlan` — the tile grid plus the schedule: a
  :class:`repro.parallel.scheduler.SchedulerPolicy` orders real dispatch
  (with per-tile costs for the cost-model policies), not just the
  simulator's replay.

:func:`run_tile_plan` then owns tile iteration, the one supervised
engine dispatch (``map_supervised``, with retries and engine fallback;
every engine returns each tile's block, which the executor writes into
the sink's buffer), progress reporting
and span/counter emission — identically for every driver, so a new
backend is one new protocol implementation, not a fourth fork of the
loop.  Every tile, whatever the driver, runs through
:func:`compute_tile`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from dataclasses import asdict, is_dataclass
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.entropy import marginal_entropies
from repro.core.mi import (
    KERNEL_NAMES,
    TileWorkspace,
    _fused_block,
    _resolve_kernel_dtype,
    _sparse_block,
    mi_tile,
    prepare_operands,
)
from repro.core.sparsekernel import PACK_LANES, pack_slab, prepare_packed
from repro.core.tiling import Tile, pair_count, rule_kernel, rule_tile, tile_grid
from repro.faults.policy import FaultPolicy, FaultToleranceExceeded, QuarantinedTile
from repro.obs.tracer import NULL_TRACER
from repro.parallel.engine import (
    EngineFailure,
    SerialEngine,
    WorkerLocal,
    engine_kind,
    fallback_engine,
)
from repro.parallel.scheduler import (
    DynamicScheduler,
    LptScheduler,
    SchedulerPolicy,
    make_scheduler,
)

__all__ = [
    "SCHEDULE_NAMES",
    "CodebookSource",
    "DenseSink",
    "MatrixSink",
    "PackedWeightSource",
    "TensorSource",
    "TilePlan",
    "WeightSource",
    "as_source",
    "compute_tile",
    "filter_plan",
    "mirror_upper",
    "plan_run",
    "plan_tiles",
    "resolve_kernel",
    "result_cache_key",
    "run_tile_plan",
    "schedule_policy",
    "supervised_map",
    "weights_fingerprint",
]

# Schedule names accepted by config/CLI.  "cost" is the LPT oracle: the
# plan orders tiles by descending kernel cost (n_elements), which a
# greedy puller turns into the classic LPT assignment.
SCHEDULE_NAMES = ("static", "cyclic", "dynamic", "cost")


def weights_fingerprint(weights: np.ndarray) -> str:
    """Cheap, deterministic fingerprint of a weight tensor.

    Hashes shape/dtype and a strided subsample (hashing 2 GB fully would
    cost more than a tile); collisions across *different experiments* are
    what matter, and shape+samples make those practically impossible.
    Shared by the checkpoint ledger and the serve result cache.
    """
    flat = weights.reshape(-1)
    return _hash_subsample(weights.shape, weights.dtype,
                           flat[:: _subsample_stride(flat.size)])


def _subsample_stride(size: int) -> int:
    return max(size // 65536, 1)


def _hash_subsample(shape, dtype, sample: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(tuple(shape)).encode())
    h.update(str(dtype).encode())
    h.update(np.ascontiguousarray(sample).tobytes())
    return h.hexdigest()[:32]


def result_cache_key(fingerprint: str, config) -> str:
    """Deterministic identity of one ``(weight tensor, config)`` result.

    The serve layer's cache key: the :meth:`WeightSource.fingerprint` of
    the input tensor (which already encodes the dataset *and* the
    preprocessing that produced the weights) combined with a canonical
    JSON rendering of the reconstruction config.  Two submissions with
    the same key are guaranteed to produce the same network, so the cache
    can return the stored result without running a single tile.

    ``config`` may be a dataclass (e.g. ``TingeConfig``) or any
    JSON-serializable mapping.
    """
    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    payload = json.dumps(config, sort_keys=True, default=str)
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(b"\x00")
    h.update(payload.encode())
    return h.hexdigest()[:32]


def schedule_policy(schedule) -> "SchedulerPolicy | None":
    """Resolve a schedule name (or policy instance) to a plan policy.

    ``None``/``"dynamic"`` map to the paper's default dynamic
    self-scheduling with chunk 1; ``"cost"`` maps to the LPT oracle,
    which needs the per-tile costs only the plan knows.
    """
    if schedule is None:
        return None
    if isinstance(schedule, SchedulerPolicy):
        return schedule
    if schedule == "dynamic":
        return DynamicScheduler(chunk=1)
    if schedule == "cost":
        return LptScheduler()
    if schedule in ("static", "cyclic"):
        return make_scheduler(schedule)
    raise ValueError(
        f"unknown schedule {schedule!r}; choose from {sorted(SCHEDULE_NAMES)}"
    )


# ---------------------------------------------------------------------------
# Weight sources
# ---------------------------------------------------------------------------


class WeightSource:
    """Where the ``(n, m, b)`` weight tensor lives.

    Subclasses provide :meth:`slab`; marginal entropies (per log base) and
    the tensor fingerprint are computed once here and cached, so every
    consumer — the MI pass, the exact tester, the checkpoint ledger —
    reuses the same arrays instead of recomputing them per driver.
    :meth:`operands` is where a tile's kernel operands come from.
    """

    n_genes: int
    m_samples: int
    bins: int
    dtype: np.dtype

    def __init__(self) -> None:
        self._entropies: dict = {}
        self._fingerprint: "str | None" = None

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    def slab(self, a: int, b: int) -> np.ndarray:
        """The ``weights[a:b]`` block-row, in the dtype the kernel expects."""
        raise NotImplementedError

    def operands(self, t: Tile, kernel, dtype, ws: TileWorkspace) -> tuple:
        """Tile ``t``'s kernel operands at the kernel ``dtype`` knob.

        ``kernel="sparse"`` gives the packed scatter operands
        ``(vi, fi, vj, fj, span)``; any other variant the fused GEMM
        operands ``(at, bv)``, shaped ``(rows*b, m)`` and ``(m, cols*b)``.
        This default stages the tile's two slabs per call — into the
        worker workspace ``ws`` for the GEMM — so any source that can
        produce slabs runs every kernel; resident and packed sources
        override it with views of hoisted arrays.
        """
        wi, wj = self.slab(t.i0, t.i1), self.slab(t.j0, t.j1)
        dt, _ = _resolve_kernel_dtype(dtype, wi.dtype)
        if kernel == "sparse":
            vi, fi, span_i = pack_slab(wi, dt)
            vj, fj, span_j = pack_slab(wj, dt)
            # The kernels iterate the shared (max) span of row lanes from
            # each slab's clamped `first`; a slab packed at a narrower span
            # has `first` clamped only to b - span_own, which would let row
            # indices run past b - 1.  Repack the narrower slab at the
            # shared span: the extra lanes hold exact +0.0, so the MI bits
            # are unchanged (see pack_slab).
            span = max(span_i, span_j)
            if span_i < span:
                vi, fi, _ = pack_slab(wi, dt, span=span)
            if span_j < span:
                vj, fj, _ = pack_slab(wj, dt, span=span)
            return vi, fi, vj, fj, span
        (ti, m, b), tj = wi.shape, wj.shape[0]
        at = ws.array("at", (ti, b, m), dt)
        np.copyto(at, wi.transpose(0, 2, 1), casting="same_kind")
        bv = ws.array("bv", (m, tj, b), dt)
        np.copyto(bv, wj.transpose(1, 0, 2), casting="same_kind")
        return at.reshape(ti * b, m), bv.reshape(m, tj * b)

    def entropies(self, base: str = "nat") -> np.ndarray:
        """Per-gene marginal entropies, computed once per base and cached."""
        if base not in self._entropies:
            self._entropies[base] = self._compute_entropies(base)
        return self._entropies[base]

    def _compute_entropies(self, base: str) -> np.ndarray:
        # Block-wise over slabs: entropies are per gene, so this is bitwise
        # the whole-tensor marginal_entropies without materializing it.
        h = np.empty(self.n_genes, dtype=np.float64)
        for s in range(0, self.n_genes, 256):
            e = min(s + 256, self.n_genes)
            h[s:e] = marginal_entropies(self.slab(s, e), base=base)
        return h

    def fingerprint(self) -> str:
        """Cached :func:`weights_fingerprint` of the underlying tensor."""
        if self._fingerprint is None:
            self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any file handles (no-op for in-memory sources)."""


def as_source(weights) -> WeightSource:
    """``weights`` itself if it is a :class:`WeightSource`, else a bare
    ``(n, m, b)`` tensor wrapped in a :class:`TensorSource`."""
    return weights if isinstance(weights, WeightSource) else TensorSource(weights)


def _packed_tile(packed: tuple, t: Tile) -> tuple:
    """Tile ``t``'s rows of whole-tensor packed operands ``(values, first, span)``."""
    values, first, span = packed
    return (values[t.i0 : t.i1], first[t.i0 : t.i1],
            values[t.j0 : t.j1], first[t.j0 : t.j1], span)


def _check_tensor_shape(weights: np.ndarray) -> None:
    if weights.ndim != 3:
        raise ValueError(f"expected (n, m, b) weight tensor, got shape {weights.shape}")
    if weights.shape[0] < 2:
        raise ValueError(f"need at least 2 genes, got {weights.shape[0]}")
    if weights.shape[1] == 0:
        raise ValueError("no samples")


class TensorSource(WeightSource):
    """In-memory weight tensor (the common case)."""

    def __init__(self, weights: np.ndarray):
        super().__init__()
        weights = np.asarray(weights)
        _check_tensor_shape(weights)
        self.weights = weights
        self.n_genes, self.m_samples, self.bins = weights.shape
        self.dtype = weights.dtype

    def slab(self, a: int, b: int) -> np.ndarray:
        return self.weights[a:b]

    def operands(self, t: Tile, kernel, dtype, ws: TileWorkspace) -> tuple:
        """Views of the process-cached hoisted operands: no per-tile copy.

        The GEMM operands come from :func:`repro.core.mi.prepare_operands`,
        the packed ones from :func:`repro.core.sparsekernel.prepare_packed`;
        both caches are warmed before dispatch so fork workers inherit them.
        """
        dt, _ = _resolve_kernel_dtype(dtype, self.dtype)
        if kernel == "sparse":
            return _packed_tile(prepare_packed(self.weights, dt), t)
        row_ops, col_ops = prepare_operands(self.weights, dt)
        b = self.bins
        return (row_ops[t.i0 : t.i1].reshape(t.rows * b, self.m_samples),
                col_ops[:, t.j0 * b : t.j1 * b])

    def _compute_entropies(self, base: str) -> np.ndarray:
        return marginal_entropies(self.weights, base=base)

    def _compute_fingerprint(self) -> str:
        return weights_fingerprint(self.weights)


class CodebookSource(WeightSource):
    """Weight tensor kept as :func:`repro.core.bspline.weight_codebook`'s
    ``(u, b)`` table plus an ``(n, m)`` index into it.

    After the rank transform ``u <= 2m - 1``, so the index (narrowed to
    the smallest unsigned type that holds ``u - 1``; uint16 up to 65,536
    rows) is the whole footprint: 98 MB at 15,575 x 3,137 against a
    3.9 GB float64 tensor.  :meth:`slab` gathers rows in the table's own
    dtype, bitwise the dense tensor's; tiles stage their operands from
    slabs (:meth:`WeightSource.operands`).  The fingerprint is the dense
    tensor's, so checkpoint ledgers and cache keys match a dense run's,
    and the object pickles as the table plus the index.
    """

    def __init__(self, table: np.ndarray, index: np.ndarray):
        super().__init__()
        table, index = np.asarray(table), np.asarray(index)
        if table.ndim != 2 or index.ndim != 2:
            raise ValueError(f"expected a (u, b) table and an (n, m) index, got "
                             f"shapes {table.shape} and {index.shape}")
        if index.shape[0] < 2:
            raise ValueError(f"need at least 2 genes, got {index.shape[0]}")
        if index.shape[1] == 0:
            raise ValueError("no samples")
        u = table.shape[0]
        if index.min() < 0 or index.max() >= u:
            raise ValueError(f"index out of range for a {u}-row table")
        self.table = table
        self.index = index.astype(np.min_scalar_type(u - 1), copy=False)
        self.n_genes, self.m_samples = index.shape
        self.bins = table.shape[1]
        self.dtype = table.dtype

    def slab(self, a: int, b: int) -> np.ndarray:
        return self.table[self.index[a:b]]

    def _compute_fingerprint(self) -> str:
        # weights_fingerprint's strided subsample of the dense tensor, read
        # through the index: flat position p is (gene-sample p // b, bin p % b).
        b = self.bins
        size = self.n_genes * self.m_samples * b
        pos = np.arange(0, size, _subsample_stride(size))
        sample = self.table[self.index.reshape(-1)[pos // b], pos % b]
        return _hash_subsample((self.n_genes, self.m_samples, b), self.dtype, sample)


class PackedWeightSource(WeightSource):
    """Weight source carrying only the sparse packed layout.

    Each sample has at most ``span`` (the spline order ``k``) non-zero
    weights, so the packed ``(values, first)`` form is
    ``(span * itemsize + 4) / (b * itemsize)`` the size of the dense
    tensor — 28/80 at the paper's ``b=10, k=3`` float64 config.
    :func:`run_tile_plan` wraps a :class:`TensorSource` in this class for
    serializing engines (elastic) when the sparse kernel is selected, so
    every MI driver's remote task closures ship the small layout (metered
    by the transport's ``comm.bytes_sent`` counters) and workers scatter
    from it directly; no worker ever reconstructs the dense tensor on the
    kernel path.

    Marginal entropies and the dense tensor's fingerprint are computed at
    wrap time and carried along, so cache keys and thresholds are
    identical to the dense run's.  :meth:`slab` reconstructs dense rows on
    demand — only non-sparse fallback paths (e.g. a quarantine retry
    through the fused kernel) pay that cost.
    """

    def __init__(
        self,
        values: np.ndarray,
        first: np.ndarray,
        span: int,
        bins: int,
        entropies: "dict | None" = None,
        fingerprint: "str | None" = None,
    ):
        super().__init__()
        values = np.asarray(values)
        first = np.asarray(first, dtype=np.int32)
        if values.ndim != 3 or first.shape != values.shape[:2]:
            raise ValueError(
                f"inconsistent packed source: values {values.shape}, first {first.shape}")
        if not 1 <= span <= values.shape[2] <= PACK_LANES:
            raise ValueError(f"span {span} / lane count {values.shape[2]} out of range")
        self.n_genes, self.m_samples = values.shape[:2]
        self.bins = int(bins)
        self.span = int(span)
        self.dtype = values.dtype
        # Transport form: tight lanes only.  The padded kernel form is
        # materialized lazily per process (and dropped from pickles).
        self._values = np.ascontiguousarray(values[:, :, : self.span])
        self._first = np.ascontiguousarray(first)
        self._padded: "np.ndarray | None" = None
        if entropies:
            self._entropies.update(entropies)
        self._fingerprint = fingerprint

    @classmethod
    def from_source(cls, source: WeightSource, base: str = "nat", dtype=None):
        """Pack a dense source, carrying its entropies and fingerprint."""
        weights = (source.weights if isinstance(source, TensorSource)
                   else source.slab(0, source.n_genes))
        dt, _ = _resolve_kernel_dtype(dtype, weights.dtype)
        values, first, span = prepare_packed(weights, dt)
        return cls(values, first, span, source.bins,
                   entropies={base: source.entropies(base)},
                   fingerprint=source.fingerprint())

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_padded"] = None  # rebuilt per worker; never shipped
        return state

    def packed(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The padded kernel operands ``(values, first, span)``."""
        if self._padded is None:
            if self._values.shape[2] == PACK_LANES:
                self._padded = self._values
            else:
                padded = np.zeros(
                    (self.n_genes, self.m_samples, PACK_LANES), dtype=self.dtype)
                padded[:, :, : self.span] = self._values
                self._padded = padded
        return self._padded, self._first, self.span

    def operands(self, t: Tile, kernel, dtype, ws: TileWorkspace) -> tuple:
        """The packed arrays' tile rows; other variants stage dense slabs.

        The operands are already packed, so ``dtype`` must resolve to the
        dtype the source was packed at (:meth:`from_source` packs at the
        kernel dtype).
        """
        if kernel != "sparse":
            return super().operands(t, kernel, dtype, ws)
        dt, _ = _resolve_kernel_dtype(dtype, self.dtype)
        if dt != self.dtype:
            raise ValueError(
                f"packed operands are {self.dtype}, kernel dtype resolves to {dt}; "
                "pack the source at the kernel dtype")
        return _packed_tile(self.packed(), t)

    def slab(self, a: int, b: int) -> np.ndarray:
        """Dense reconstruction of rows ``[a, b)`` (fallback paths only)."""
        rows = b - a
        w = np.zeros((rows, self.m_samples, self.bins), dtype=self.dtype)
        cols = (self._first[a:b, :, None]
                + np.arange(self.span, dtype=np.int32)[None, None, :])
        np.put_along_axis(w, cols.astype(np.intp), self._values[a:b], axis=2)
        return w

    def _compute_fingerprint(self) -> str:
        # Normally carried from the dense source at wrap time; a source
        # built directly from packed arrays hashes the packed layout
        # (tagged so it can never collide with a dense fingerprint).
        h = hashlib.sha256(b"packed\x00")
        h.update(str((self.n_genes, self.m_samples, self.bins, self.span)).encode())
        h.update(str(self.dtype).encode())
        h.update(self._values.tobytes())
        h.update(self._first.tobytes())
        return h.hexdigest()[:32]


# ---------------------------------------------------------------------------
# Tile plans
# ---------------------------------------------------------------------------


@dataclass
class TilePlan:
    """The tile grid plus its schedule.

    ``policy`` orders real dispatch: the executor submits tiles in
    :meth:`order`, so a cyclic policy interleaves block-rows and the cost
    policy (LPT over ``Tile.n_elements``) sorts heavy tiles first —
    exactly what the scheduler module previously only simulated.
    """

    n_genes: int
    tile: int
    base: str
    tiles: list
    policy: "SchedulerPolicy | None" = None

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def n_pairs(self) -> int:
        return pair_count(self.n_genes)

    def costs(self) -> np.ndarray:
        """Per-tile kernel cost (cells computed, ``Tile.n_elements``)."""
        return np.asarray([t.n_elements for t in self.tiles], dtype=np.float64)

    def order(self, n_workers: int = 1) -> list:
        """Tile indices in dispatch order for ``n_workers`` workers.

        :meth:`SchedulerPolicy.order` with the plan supplying per-tile
        costs, so LPT works.  No policy means grid order.
        """
        if self.policy is None:
            return list(range(len(self.tiles)))
        return self.policy.order(len(self.tiles), max(int(n_workers), 1),
                                 costs=self.costs())


def plan_tiles(
    source: WeightSource,
    tile: "int | None" = None,
    base: str = "nat",
    schedule=None,
    kernel_dtype=None,
    kernel=None,
) -> TilePlan:
    """Build the :class:`TilePlan` for ``source``.

    ``tile=None`` takes the measured rule's edge for ``kernel``
    (:func:`repro.core.tiling.rule_tile`).  ``kernel_dtype`` is accepted
    so callers can plan with the arguments they run with; the rule gives
    float32 and float64 GEMMs the same tile.  ``schedule`` is a name from
    :data:`SCHEDULE_NAMES`, a policy instance, or ``None`` (grid order).
    ``kernel`` is a variant name from :data:`repro.core.mi.KERNEL_NAMES`
    (``"auto"`` must be resolved by :func:`resolve_kernel` before
    planning).
    """
    if tile is None:
        tile = rule_tile(kernel)
    return TilePlan(
        n_genes=source.n_genes,
        tile=tile,
        base=base,
        tiles=tile_grid(source.n_genes, tile),
        policy=schedule_policy(schedule),
    )


def resolve_kernel(source: WeightSource, kernel) -> "str | None":
    """Resolve the kernel-variant knob to the variant that runs.

    Explicit variants pass through.  ``"auto"`` is a lookup in the
    measured rule (:func:`repro.core.tiling.rule_kernel`) on the source's
    bin count and whether the sparse kernel runs compiled here: no
    timing, nothing written.
    """
    if kernel in (None, "fused", "sparse"):
        return kernel
    if kernel != "auto":
        raise ValueError(
            f"kernel must be one of {sorted(KERNEL_NAMES)} or None, got {kernel!r}")
    from repro.core.sparsekernel import sparse_backend

    # The compiled kernel packs at most PACK_LANES bins per sample; one
    # gene shows the spline order.
    compiled = (sparse_backend() == "cc"
                and pack_slab(source.slab(0, 1), lanes=None)[2] <= PACK_LANES)
    return rule_kernel(source.bins, compiled)


def plan_run(
    source: WeightSource,
    tile: "int | None" = None,
    base: str = "nat",
    schedule=None,
    kernel=None,
) -> "tuple[TilePlan, str | None]":
    """Resolve the kernel knob and plan the tiles: ``(plan, variant)``.

    The shared front half of every MI driver — :func:`resolve_kernel`
    followed by :func:`plan_tiles` for that variant — so the plan and the
    ``kernel`` later handed to :func:`run_tile_plan` can never disagree.
    """
    kernel = resolve_kernel(source, kernel)
    plan = plan_tiles(source, tile=tile, base=base, schedule=schedule, kernel=kernel)
    return plan, kernel


def filter_plan(plan: TilePlan, tiles: list) -> TilePlan:
    """A sub-plan of ``plan`` executing only ``tiles`` (same grid geometry).

    The selective-recompute primitive: the incremental updater screens the
    full grid for tiles whose MI could have crossed the significance
    threshold and replays just those through :func:`run_tile_plan`.  The
    sub-plan keeps the parent's tile size, base and scheduling policy, so
    each surviving tile runs through exactly the kernel invocation a full
    pass would have used — recomputed blocks are bit-identical to a
    from-scratch run's.  ``tiles`` must come from ``plan.tiles`` (the grid
    geometry is what guarantees kernel-call identity); an empty selection
    yields a valid no-op plan.
    """
    kept = list(tiles)
    grid = {(t.i0, t.j0) for t in plan.tiles}
    for t in kept:
        if (t.i0, t.j0) not in grid:
            raise ValueError(
                f"tile ({t.i0}, {t.j0}) is not on the parent plan's grid "
                f"(tile size {plan.tile})"
            )
    return TilePlan(
        n_genes=plan.n_genes,
        tile=plan.tile,
        base=plan.base,
        tiles=kept,
        policy=plan.policy,
    )


# ---------------------------------------------------------------------------
# Matrix sinks
# ---------------------------------------------------------------------------


class MatrixSink:
    """Where computed tile blocks go.

    Every sink runs through the one dispatch of :func:`run_tile_plan`:
    the tiles :meth:`pending` names, in its order, are one supervised
    engine call whose returned blocks the executor writes into the sink's
    :meth:`buffer`, and :meth:`tile_done` fires as each tile lands — the
    checkpoint ledger persists a block-row there once its last tile is in.

    ``span_name`` names the span the dispatch runs under (``None``: no
    span of the sink's own).
    """

    span_name: "str | None" = None
    _quarantined: "list | None" = None

    def span_meta(self, plan: TilePlan) -> dict:
        return {"n_genes": plan.n_genes, "n_tiles": plan.n_tiles,
                "n_pairs": plan.n_pairs, "tile": plan.tile}

    # -- fault tolerance ---------------------------------------------------
    @property
    def quarantined(self) -> list:
        """Tiles given up on under a :class:`~repro.faults.policy.FaultPolicy`
        (:class:`~repro.faults.policy.QuarantinedTile` records, possibly
        empty).  Their blocks are left as the sink's fill value (zero)."""
        return list(self._quarantined or [])

    def quarantine(self, idx: int, t: Tile, error: str) -> None:
        """Record a tile whose retry budget is exhausted."""
        if self._quarantined is None:
            self._quarantined = []
        self._quarantined.append(
            QuarantinedTile(index=idx, i0=t.i0, i1=t.i1, j0=t.j0, j1=t.j1,
                            error=error))

    # -- dispatch ----------------------------------------------------------
    def buffer(self) -> np.ndarray:
        """The ``(n, n)`` array every tile block is written into."""
        raise NotImplementedError

    def pending(self, plan: TilePlan, n_workers: int) -> list:
        """Indices of the tiles to run, in dispatch order: by default the
        whole grid in the plan's policy order (:meth:`TilePlan.order`)."""
        return plan.order(n_workers)

    def tile_done(self, t: Tile, computed: bool) -> bool:
        """Tile ``t`` has landed; return True when that committed a block-row.

        ``computed`` is True when ``t``'s block is in the :meth:`buffer`,
        False for a quarantined tile (landed without a block, after the
        dispatch).  Calls are serialized, never concurrent.
        """
        return False

    # -- lifecycle ---------------------------------------------------------
    def finalize(self):
        """Produce the sink's result (driver-specific type)."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release resources; called by the executor even on error."""


class DenseSink(MatrixSink):
    """Dense in-memory ``(n, n)`` matrix (optionally caller-preallocated)."""

    span_name = "mi_matrix"

    def __init__(self, n: int, out: "np.ndarray | None" = None):
        if out is None:
            self.mi = np.zeros((n, n), dtype=np.float64)
        else:
            if out.shape != (n, n) or out.dtype != np.float64:
                raise ValueError(
                    f"out must be a ({n}, {n}) float64 array, "
                    f"got shape {out.shape} dtype {out.dtype}"
                )
            self.mi = out
        self.n = n

    def buffer(self) -> np.ndarray:
        return self.mi

    def finalize(self) -> np.ndarray:
        mirror_upper(self.mi)
        np.fill_diagonal(self.mi, 0.0)
        return self.mi


# ---------------------------------------------------------------------------
# The tile kernel
# ---------------------------------------------------------------------------


# One reusable kernel workspace per engine worker (thread- and fork-safe);
# buffers are sized by the first tile and reused for the rest of the run.
_WORKER_WORKSPACE = WorkerLocal(TileWorkspace)


def worker_workspace() -> TileWorkspace:
    """This worker's reusable :class:`repro.core.mi.TileWorkspace`."""
    return _WORKER_WORKSPACE.get()


def compute_tile(
    source, h: np.ndarray, t: Tile, base: str = "nat", kernel=None,
    kernel_dtype=None, permutations=None,
) -> np.ndarray:
    """One tile's ``(rows, cols)`` MI block, diagonal masked.

    The one entry to the tile kernels; every driver's tiles run through
    here.  ``source`` is a :class:`WeightSource` (a bare ``(n, m, b)``
    tensor is wrapped in a :class:`TensorSource`) and supplies the
    operands through :meth:`WeightSource.operands`; ``h`` holds the
    per-gene marginal entropies.  ``kernel`` picks the variant:
    ``None``/``"fused"`` runs the fused GEMM block (bit-identical to
    :func:`repro.core.mi.mi_tile` unless ``kernel_dtype="float32"`` selects
    mixed precision; 1x1 tiles run ``mi_tile`` itself) and ``"sparse"``
    the packed scatter block (~1 ulp from ``mi_tile`` in float64).
    ``permutations`` (``(q, m)``) makes the tile an exact test on the
    fused kernel at the slab's own precision (``kernel`` and
    ``kernel_dtype`` are ignored): a ``(rows, cols, 2)`` block of observed
    MI and null-exceedance counts.
    """
    source = as_source(source)
    h_i, h_j = h[t.i0 : t.i1], h[t.j0 : t.j1]
    ti, tj, b, m = t.rows, t.cols, source.bins, source.m_samples
    ws = worker_workspace()
    if permutations is not None:
        # Each permutation permutes the row genes' samples: one gather of
        # the row operand's sample axis into the workspace, then the same
        # fused block.  The column operand and the marginal entropies are
        # permutation-invariant, so all q replicas reuse them.
        perms = np.asarray(permutations, dtype=np.intp)
        if perms.ndim != 2 or perms.shape[1] != m:
            raise ValueError(f"expected (q, {m}) permutations, got shape {perms.shape}")
        if ti == 1 and tj == 1:
            wi, wj = source.slab(t.i0, t.i1), source.slab(t.j0, t.j1)
            observed = mi_tile(wi, wj, h_i, h_j, base=base)
            replicas = (mi_tile(wi[:, p], wj, h_i, h_j, base=base) for p in perms)
        else:
            at, bv = source.operands(t, None, None, ws)
            observed = _fused_block(at, bv, ti, tj, b, m, h_i, h_j, base, ws, None, False)
            rows = at.reshape(ti, b, m)
            at_perm = ws.array("at_perm", (ti, b, m), at.dtype)
            mi_perm = ws.array("mi_perm", (ti, tj))
            replicas = (
                _fused_block(np.take(rows, p, axis=2, out=at_perm).reshape(ti * b, m),
                             bv, ti, tj, b, m, h_i, h_j, base, ws, mi_perm, False)
                for p in perms)
        exceed = np.zeros(observed.shape, dtype=np.int64)
        for replica in replicas:
            exceed += replica >= observed
        block = np.stack((observed, exceed), axis=-1)
    elif kernel == "sparse":
        vi, fi, vj, fj, span = source.operands(t, kernel, kernel_dtype, ws)
        block = _sparse_block(vi, fi, vj, fj, span, b, m, h_i, h_j, base, ws, None,
                              _resolve_kernel_dtype(kernel_dtype, vi.dtype)[1])
    elif ti == 1 and tj == 1:
        # See the fused-kernel notes in repro.core.mi: only the reference
        # kernel reproduces its own 1x1 bits.
        block = mi_tile(source.slab(t.i0, t.i1), source.slab(t.j0, t.j1),
                        h_i, h_j, base=base)
    else:
        at, bv = source.operands(t, kernel, kernel_dtype, ws)
        block = _fused_block(at, bv, ti, tj, b, m, h_i, h_j, base, ws, None,
                             _resolve_kernel_dtype(kernel_dtype, at.dtype)[1])
    if t.is_diagonal:
        block[~t.pair_mask()] = 0.0
    return block


def mirror_upper(mi: np.ndarray, block: int = 256) -> np.ndarray:
    """Copy the strict upper triangle of square ``mi`` into its lower one.

    In place, block-row by block-row: each step copies the transposed
    column strip ``mi[:i0, i0:i1]`` into ``mi[i0:i1, :i0]`` and mirrors the
    diagonal block, so transient memory is ``O(block^2)`` instead of the
    ``O(n^2)`` index arrays of ``triu_indices`` fancy indexing (1.9 GB at
    ``n = 15,575``).  A pure copy: bit-identical to the indexed form.
    Returns ``mi``.
    """
    n = mi.shape[0]
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        mi[i0:i1, :i0] = mi[:i0, i0:i1].T
        d = mi[i0:i1, i0:i1]
        lower = np.tril_indices(i1 - i0, k=-1)
        d[lower] = d.T[lower]
    return mi


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


def run_tile_plan(
    plan: TilePlan,
    source: WeightSource,
    sink: MatrixSink,
    engine=None,
    tracer=None,
    progress=None,
    kernel=None,
    policy: "FaultPolicy | None" = None,
    kernel_dtype=None,
    permutations=None,
):
    """Execute ``plan``: every tile through :func:`compute_tile` into ``sink``.

    This is the one tile loop all MI drivers and sinks share.  ``engine``
    is any :mod:`repro.parallel.engine` engine (``None`` runs serially in
    this thread); the tiles :meth:`MatrixSink.pending` names are one
    supervised engine dispatch.  Every engine hands each tile's block
    back as it finishes, and the executor writes it into
    :meth:`MatrixSink.buffer` once it passes validation, so a block is
    written exactly once and blocks delivered before a pool failure
    survive the fallback.  Blocks that end up quarantined are set to the
    buffer's zero fill.  ``kernel`` names the tile variant
    (``None``/``"fused"`` or ``"sparse"``; ``"auto"`` must be resolved by
    :func:`resolve_kernel` first) and ``kernel_dtype`` its GEMM precision
    (``"float32"`` = mixed precision).  ``permutations`` makes every tile
    an exact test on the fused kernel at the slab's precision, whatever
    ``kernel`` says.  For a :class:`TensorSource` these settings also pick
    which hoisted operands are built in the parent before dispatch, so
    fork workers inherit them copy-on-write instead of each rebuilding
    them; other sources' tiles stage their operands
    (:meth:`WeightSource.operands`).

    As each tile lands, the tracer's ``tiles_done`` / ``pairs_done``
    counters tick, :meth:`MatrixSink.tile_done` fires (``rows_done`` ticks
    when it commits a block-row), then ``progress(done, total)`` reports
    tiles of the whole plan — tiles a resumed sink skips count as done
    from the start.

    ``policy`` (a :class:`repro.faults.policy.FaultPolicy`) sets the fault
    handling: failed or invalid (non-finite) blocks are retried with
    backoff, hung fork-engine tasks are timed out and their workers
    replaced, an engine that loses its pool is swapped for the next one
    down the fallback chain, and tasks that exhaust the budget are
    quarantined on the sink or raise, per ``policy.on_fault``.  ``None``
    means ``FaultPolicy(max_retries=0, on_fault="raise")``: one attempt
    per tile, and a failing tile raises
    :class:`~repro.faults.policy.FaultToleranceExceeded`.

    Returns ``sink.finalize()`` — the sink-specific result.
    """
    if kernel not in (None, "fused", "sparse"):
        raise ValueError(
            f"run_tile_plan needs a resolved kernel variant (None, 'fused' or "
            f"'sparse'), got {kernel!r}")
    tracer = tracer or NULL_TRACER
    if policy is None:
        policy = FaultPolicy.from_options()
    if (kernel == "sparse" and engine_kind(engine) == "elastic"
            and isinstance(source, TensorSource)):
        # Elastic workers receive the source by value: ship the ~k/b-sized
        # packed slabs instead of the dense tensor (metered by comm.bytes_sent).
        source = PackedWeightSource.from_source(source, base=plan.base,
                                                dtype=kernel_dtype)
    h = source.entropies(plan.base)

    # Warm the operand caches compute_tile will read in the parent: thread
    # workers share the one repacking, fork workers inherit it copy-on-write.
    # Exact testing reads the fused operands at the slab's own precision.
    # Fused and exact 1x1 tiles read slabs instead, so a plan of only those
    # (or of no tiles) warms nothing.
    if isinstance(source, TensorSource):
        if kernel == "sparse" and permutations is None:
            prepare_packed(source.weights,
                           _resolve_kernel_dtype(kernel_dtype, source.dtype)[0])
        elif any(t.rows > 1 or t.cols > 1 for t in plan.tiles):
            prepare_operands(source.weights,
                             kernel_dtype if permutations is None else None)
    elif kernel == "sparse" and isinstance(source, PackedWeightSource):
        source.packed()  # materialize the padded lanes pre-fork (COW)

    # A partial of a module-level function, not a closure, so the task
    # pickles — the elastic engine ships it (source tensor included,
    # broadcast once per worker) to remote processes.
    run = functools.partial(compute_tile, source, h, base=plan.base,
                            kernel=kernel, kernel_dtype=kernel_dtype,
                            permutations=permutations)
    engine = engine if engine is not None else SerialEngine()
    try:
        tiles = plan.tiles
        order = sink.pending(plan, _engine_workers(engine))
        land = _lander(sink, tracer, progress, len(tiles), len(tiles) - len(order))
        buf = sink.buffer()

        def deliver(idx: int, t: Tile, block) -> None:
            buf[t.i0 : t.i1, t.j0 : t.j1] = block
            land(t, True)

        with _span(tracer, sink.span_name, **sink.span_meta(plan)):
            failures = _supervise(engine, tiles, order, run, policy, tracer, deliver)
            for idx in failures:  # quarantined blocks get the zero fill
                t = tiles[idx]
                buf[t.i0 : t.i1, t.j0 : t.j1] = 0.0
            _quarantine_failures(sink, tiles, failures, policy, tracer, land)
        return sink.finalize()
    finally:
        sink.close()


def _span(tracer, name, **meta):
    return tracer.span(name, **meta) if name else nullcontext()


def _engine_workers(engine) -> int:
    return max(int(getattr(engine, "n_workers", 1) or 1), 1)


def _lander(sink, tracer, progress, total: int, done: int):
    """Thread-safe ``land(t, computed)``: counters, the sink's hook, progress.

    ``done`` tiles (a resumed sink's skipped ones) are reported at once.
    The hook and progress run under one lock, so concurrent workers'
    landings reach the sink one at a time and progress arrives in
    increasing order.
    """
    lock = threading.Lock()
    count = [done]
    if progress is not None and done:
        progress(done, total)

    def land(t: Tile, computed: bool) -> None:
        tracer.add("tiles_done")
        tracer.add("pairs_done", t.n_pairs if computed else 0)
        with lock:
            if sink.tile_done(t, computed):
                tracer.add("rows_done")
            count[0] += 1
            if progress is not None:
                progress(count[0], total)

    return land


def _dispatch_once(engine, items, idxs, run, timeout, accept):
    """One supervised engine call over ``idxs``; returns ``{idx: error}``.

    ``accept(idx, block)`` fires in the parent (in the worker thread for
    in-process engines) with each block a task returns, as it finishes.
    """
    batch = [items[i] for i in idxs]
    _, failures = engine.map_supervised(
        run, batch, timeout=timeout,
        on_done=lambda pos, block: accept(idxs[pos], block))
    return {idxs[p]: err for p, err in failures.items()}


def _supervise(engine, items, idxs, run, policy, tracer, deliver):
    """Retry/timeout/fallback loop over one set of item indices.

    Each round is one supervised dispatch of the still-pending items
    (tiles, or :func:`supervised_map`'s items).
    ``deliver(idx, item, block)`` fires once per validated success as the
    task finishes.  Returns the tasks whose budget ran out, each with its
    last error string.
    """
    pending = list(idxs)
    errors: dict = {}
    delivered: set = set()
    eng = engine
    attempt = 0
    max_retries = 0 if policy.on_fault == "quarantine" else policy.max_retries
    while pending:
        if attempt > 0:
            if attempt > max_retries:
                break
            delay = policy.backoff_delay(attempt)
            if delay > 0:
                time.sleep(delay)
            tracer.add("task_retries", len(pending))
        corrupt: dict = {}

        def accept(idx: int, block) -> None:
            t = items[idx]
            if not policy.check(t, block):
                corrupt[idx] = "corrupt result (validation failed)"
                tracer.add("task_corruptions")
                return
            delivered.add(idx)
            deliver(idx, t, block)

        try:
            failures = _dispatch_once(eng, items, pending, run,
                                      policy.task_timeout, accept)
        except EngineFailure as exc:
            nxt = fallback_engine(eng)
            if nxt is None:
                raise
            with tracer.span("engine_fault", engine=type(eng).__name__,
                             error=str(exc),
                             action=f"fallback:{type(nxt).__name__}"):
                pass
            tracer.add("engine_fallbacks")
            eng = nxt
            # Items delivered before the pool died are done; a fallback
            # does not consume a retry.
            pending = [idx for idx in pending if idx not in delivered]
            continue
        attempt += 1
        failures.update(corrupt)
        faults = getattr(eng, "faults", None)
        for idx, err in failures.items():
            if err.startswith("task timed out"):
                tracer.add("task_timeouts")
            if faults is not None:
                # Parent-side attempt ledger: fork engines re-fork per
                # round, so children inherit the updated counts and a
                # task that burned its failure budget retries clean.
                faults.record_failure(items[idx])
        pending = [idx for idx in pending if idx in failures]
        errors = failures
    return {idx: errors[idx] for idx in pending}


def supervised_map(fn, items, engine=None, policy: "FaultPolicy | None" = None,
                   tracer=None) -> list:
    """``[fn(item) for item in items]`` through :func:`_supervise`.

    The non-tile dispatch (the pooled null's rows): validation, retries
    and engine fallback per ``policy`` (default: one attempt), but no
    quarantine — an item whose budget runs out raises
    :class:`~repro.faults.policy.FaultToleranceExceeded`, reported as
    the one-cell block ``(idx, 0)``.
    """
    items = list(items)
    results: list = [None] * len(items)

    def deliver(idx: int, _item, value) -> None:
        results[idx] = value

    failures = _supervise(
        engine if engine is not None else SerialEngine(), items,
        range(len(items)), fn, policy or FaultPolicy.from_options(),
        tracer or NULL_TRACER, deliver)
    if failures:
        raise FaultToleranceExceeded(
            [QuarantinedTile(index=idx, i0=idx, i1=idx + 1, j0=0, j1=1, error=err)
             for idx, err in sorted(failures.items())])
    return results


def _quarantine_failures(sink, tiles, failures, policy, tracer, land):
    """Record budget-exhausted tasks on the sink, then land them without a
    block — or abort, per policy, before any of them lands."""
    if not failures:
        return
    for idx in sorted(failures):
        t = tiles[idx]
        error = failures[idx]
        with tracer.span("engine_fault", kind="quarantine", i0=t.i0, j0=t.j0,
                         error=error):
            pass
        tracer.add("tasks_quarantined")
        sink.quarantine(idx, t, error)
    if policy.on_fault == "raise":
        raise FaultToleranceExceeded(sink.quarantined)
    for idx in sorted(failures):
        land(tiles[idx], False)
