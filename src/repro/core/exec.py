"""Unified tile-execution core: one executor behind every MI driver.

The paper's central decomposition — independent upper-triangle tiles of
the MI matrix, scheduled across many workers — used to be re-implemented
by each driver (in-memory, checkpointed, out-of-core, distributed), each
with its own weight access, entropy hoisting and output writing.  This
module factors that loop into three small protocols plus one executor:

* :class:`WeightSource` — where the ``(n, m, b)`` weight tensor lives and
  how a block-row slab of it is produced (in-memory tensor, mmap store).
  The source also owns the hoisted per-gene marginal entropies and the
  tensor fingerprint, so neither is recomputed per driver.
* :class:`MatrixSink` — where tile blocks go: a dense ``(n, n)`` array,
  a checkpointed block ledger, or a memory-mapped matrix.  Sinks declare
  their *grain* (whole-matrix or block-row) and the executor adapts its
  dispatch to it.
* :class:`TilePlan` — the tile grid plus the schedule: a
  :class:`repro.parallel.scheduler.SchedulerPolicy` orders real dispatch
  (with per-tile costs for the cost-model policies), not just the
  simulator's replay.

:func:`run_tile_plan` then owns tile iteration, the one supervised
engine dispatch (``map_supervised`` / ``map_into_supervised``, with
shared-memory staging, retries and engine fallback), progress reporting
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
from dataclasses import dataclass, field

import numpy as np

from repro.core.entropy import marginal_entropies
from repro.core.mi import (
    KERNEL_NAMES,
    TileWorkspace,
    _resolve_kernel_dtype,
    mi_tile_block,
    mi_tile_into,
    mi_tile_sparse,
    mi_tile_sparse_block,
    mi_tile_sparse_packed,
    prepare_operands,
)
from repro.core.sparsekernel import PACK_LANES, prepare_packed
from repro.core.tiling import (
    Tile,
    autotune_tile_size,
    default_tile_size,
    fused_tile_size,
    pair_count,
    tile_grid,
)
from repro.faults.policy import FaultPolicy, FaultToleranceExceeded, QuarantinedTile
from repro.obs.tracer import NULL_TRACER
from repro.parallel.engine import (
    EngineFailure,
    SerialEngine,
    SharedMemoryEngine,
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
from repro.parallel.sharedmem import SharedArray

__all__ = [
    "SCHEDULE_NAMES",
    "DenseSink",
    "MatrixSink",
    "MmapSource",
    "PackedWeightSource",
    "TensorSource",
    "TilePlan",
    "WeightSource",
    "compute_tile",
    "filter_plan",
    "mirror_upper",
    "plan_run",
    "plan_tiles",
    "resolve_kernel",
    "result_cache_key",
    "run_tile_plan",
    "schedule_policy",
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
    Shared by the checkpoint ledger and the out-of-core store header.
    """
    h = hashlib.sha256()
    h.update(str(weights.shape).encode())
    h.update(str(weights.dtype).encode())
    flat = weights.reshape(-1)
    stride = max(flat.size // 65536, 1)
    h.update(np.ascontiguousarray(flat[::stride]).tobytes())
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

    def entropies(self, base: str = "nat") -> np.ndarray:
        """Per-gene marginal entropies, computed once per base and cached."""
        if base not in self._entropies:
            self._entropies[base] = self._compute_entropies(base)
        return self._entropies[base]

    def _compute_entropies(self, base: str) -> np.ndarray:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Cached :func:`weights_fingerprint` of the underlying tensor."""
        if self._fingerprint is None:
            self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any file handles (no-op for in-memory sources)."""


def _check_tensor_shape(weights: np.ndarray) -> None:
    if weights.ndim != 3:
        raise ValueError(f"expected (n, m, b) weight tensor, got shape {weights.shape}")
    if weights.shape[0] < 2:
        raise ValueError(f"need at least 2 genes, got {weights.shape[0]}")


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

    def _compute_entropies(self, base: str) -> np.ndarray:
        return marginal_entropies(self.weights, base=base)

    def _compute_fingerprint(self) -> str:
        return weights_fingerprint(self.weights)


class MmapSource(WeightSource):
    """Memory-mapped weight store written by
    :func:`repro.core.outofcore.build_weight_store`.

    Slabs are materialized block-row by block-row as float64 (the kernel
    precision), never the whole tensor; marginal entropies stream through
    the same block granularity.  Entropies are per-gene, so the streaming
    pass is bit-identical to a whole-tensor one.
    """

    def __init__(self, path, entropy_block: int = 256):
        super().__init__()
        self.path = path
        self._weights = np.load(path, mmap_mode="r")
        if self._weights.ndim != 3:
            raise ValueError(
                f"weight store has shape {self._weights.shape}, expected 3-D"
            )
        self.n_genes, self.m_samples, self.bins = self._weights.shape
        if self.n_genes < 2:
            raise ValueError(f"need at least 2 genes, got {self.n_genes}")
        self.dtype = self._weights.dtype
        self._entropy_block = max(int(entropy_block), 1)

    def slab(self, a: int, b: int) -> np.ndarray:
        return np.asarray(self._weights[a:b], dtype=np.float64)

    def _compute_entropies(self, base: str) -> np.ndarray:
        h = np.empty(self.n_genes, dtype=np.float64)
        for s in range(0, self.n_genes, self._entropy_block):
            e = min(s + self._entropy_block, self.n_genes)
            h[s:e] = marginal_entropies(self.slab(s, e), base=base)
        return h

    def _compute_fingerprint(self) -> str:
        return weights_fingerprint(self._weights)

    def close(self) -> None:
        """Release the mmap handle (important before deleting the file)."""
        handle = getattr(self._weights, "_mmap", None)
        self._weights = None
        if handle is not None:
            handle.close()


class PackedWeightSource(WeightSource):
    """Weight source carrying only the sparse packed layout.

    Each sample has at most ``span`` (the spline order ``k``) non-zero
    weights, so the packed ``(values, first)`` form is
    ``(span * itemsize + 4) / (b * itemsize)`` the size of the dense
    tensor — 28/80 at the paper's ``b=10, k=3`` float64 config.  The MI
    driver wraps a :class:`TensorSource` in this class for serializing
    engines (elastic) when the sparse kernel is selected, so remote task
    closures ship the small layout (metered by the transport's
    ``comm.bytes_sent`` counters) and workers scatter from it directly;
    no worker ever reconstructs the dense tensor on the kernel path.

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
        weights = getattr(source, "weights", None)
        if weights is None:
            weights = source.slab(0, source.n_genes)
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

    def slab(self, a: int, b: int) -> np.ndarray:
        """Dense reconstruction of rows ``[a, b)`` (fallback paths only)."""
        rows = b - a
        w = np.zeros((rows, self.m_samples, self.bins), dtype=self.dtype)
        cols = (self._first[a:b, :, None]
                + np.arange(self.span, dtype=np.int32)[None, None, :])
        np.put_along_axis(w, cols.astype(np.intp), self._values[a:b], axis=2)
        return w

    def _compute_entropies(self, base: str) -> np.ndarray:
        h = np.empty(self.n_genes, dtype=np.float64)
        step = 256
        for s in range(0, self.n_genes, step):
            e = min(s + step, self.n_genes)
            h[s:e] = marginal_entropies(self.slab(s, e), base=base)
        return h

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
    rows: list = field(init=False)
    _row_tiles: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._row_tiles = {}
        for t in self.tiles:
            self._row_tiles.setdefault(t.i0, []).append(t)
        self.rows = sorted(self._row_tiles)

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def n_pairs(self) -> int:
        return pair_count(self.n_genes)

    def row_tiles(self, i0: int) -> list:
        """Tiles of block-row ``i0``, in grid (ascending ``j0``) order."""
        return self._row_tiles[i0]

    def costs(self) -> np.ndarray:
        """Per-tile kernel cost (cells computed, ``Tile.n_elements``)."""
        return np.asarray([t.n_elements for t in self.tiles], dtype=np.float64)

    def order(self, n_workers: int = 1) -> list:
        """Tile indices in dispatch order for ``n_workers`` workers.

        Dynamic policies concatenate their chunk sequence (the pull
        order); static policies concatenate per-worker assignments, with
        the plan supplying per-tile costs so LPT works.  No policy means
        grid order.
        """
        n = len(self.tiles)
        if self.policy is None:
            return list(range(n))
        n_workers = max(int(n_workers), 1)
        if self.policy.is_dynamic():
            chunks = self.policy.chunk_sequence(n, n_workers)
        else:
            chunks = self.policy.static_assignment(n, n_workers, costs=self.costs())
        return [int(i) for chunk in chunks for i in chunk]


def plan_tiles(
    source: WeightSource,
    tile: "int | None" = None,
    base: str = "nat",
    schedule=None,
    kernel_dtype=None,
    autotune: bool = False,
    engine_name: str = "serial",
    kernel=None,
) -> TilePlan:
    """Build the :class:`TilePlan` for ``source``.

    When ``tile`` is ``None`` it is chosen in this order: ``autotune=True``
    measures candidate sizes on a real slab sample
    (:func:`repro.core.tiling.autotune_tile_size`, persisted per
    ``(m, b, dtype, engine, kernel, host)``); an explicit ``kernel_dtype``
    or the sparse kernel selects the fused cache model
    (:func:`repro.core.tiling.fused_tile_size` — the sparse count buffer
    has the same footprint shape as the fused joint buffer); otherwise the
    original :func:`repro.core.tiling.default_tile_size` applies, keeping
    default runs tile-for-tile identical to previous releases.
    ``schedule`` is a name from :data:`SCHEDULE_NAMES`, a policy instance,
    or ``None`` (grid order).  ``kernel`` is a variant name from
    :data:`repro.core.mi.KERNEL_NAMES` (``"auto"`` must be resolved by
    :func:`resolve_kernel` before planning).
    """
    if tile is None:
        if autotune:
            sample = source.slab(0, min(source.n_genes, 256))
            tile = autotune_tile_size(
                np.ascontiguousarray(sample), dtype=kernel_dtype,
                engine=engine_name, base=base, kernel=kernel or "fused")
        elif kernel == "sparse" or kernel_dtype is not None:
            itemsize = (np.dtype(kernel_dtype).itemsize
                        if kernel_dtype is not None else source.itemsize)
            tile = fused_tile_size(
                source.m_samples, source.bins, itemsize=itemsize)
        else:
            tile = default_tile_size(
                source.m_samples, source.bins, itemsize=source.itemsize)
    return TilePlan(
        n_genes=source.n_genes,
        tile=tile,
        base=base,
        tiles=tile_grid(source.n_genes, tile),
        policy=schedule_policy(schedule),
    )


def resolve_kernel(
    source: WeightSource,
    kernel,
    kernel_dtype=None,
    engine_name: str = "serial",
    base: str = "nat",
) -> "tuple[str | None, int | None]":
    """Resolve the kernel-variant knob to ``(variant, tile_override)``.

    Explicit variants pass through with no tile override.  ``"auto"`` runs
    the cross-variant autotuner
    (:func:`repro.core.tiling.autotune_kernel`) on a real slab sample,
    returning the per-host winning ``(variant, tile)`` — persisted in the
    sidecar so later runs skip the measurement.
    """
    if kernel in (None, "fused", "sparse"):
        return kernel, None
    if kernel != "auto":
        raise ValueError(
            f"kernel must be one of {sorted(KERNEL_NAMES)} or None, got {kernel!r}")
    from repro.core.tiling import autotune_kernel

    sample = np.ascontiguousarray(source.slab(0, min(source.n_genes, 256)))
    return autotune_kernel(sample, dtype=kernel_dtype, engine=engine_name,
                           base=base)


def plan_run(
    source: WeightSource,
    tile: "int | None" = None,
    base: str = "nat",
    schedule=None,
    kernel=None,
    kernel_dtype=None,
    autotune: bool = False,
    engine=None,
) -> "tuple[TilePlan, str | None]":
    """Resolve the kernel knob and plan the tiles: ``(plan, variant)``.

    The shared front half of every MI driver — :func:`resolve_kernel`
    (which may autotune ``"auto"`` into a variant and tile size) followed
    by :func:`plan_tiles` with the same kernel settings — so the plan and
    the ``kernel`` / ``kernel_dtype`` later handed to
    :func:`run_tile_plan` can never disagree.  An explicit ``tile`` wins
    over the autotuned one.
    """
    engine_name = engine_kind(engine)
    kernel, tile_override = resolve_kernel(source, kernel, kernel_dtype=kernel_dtype,
                                           engine_name=engine_name, base=base)
    plan = plan_tiles(source, tile=tile if tile is not None else tile_override,
                      base=base, schedule=schedule, kernel_dtype=kernel_dtype,
                      autotune=autotune, engine_name=engine_name, kernel=kernel)
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

    ``grain`` picks the executor's dispatch shape:

    * ``"matrix"`` — tiles are independent; the executor dispatches the
      whole (policy-ordered) grid at once.  The sink exposes an optional
      :meth:`buffer` for in-place writes (in-process and shared-memory
      engines) and otherwise receives every block through :meth:`put`.
    * ``"rows"`` — tiles are processed one block-row at a time (the
      checkpoint and out-of-core layouts); the executor hands each
      completed row to :meth:`store_row`, then :meth:`commit_row` decides
      whether the run continues (the checkpoint interrupt hook).

    ``span_name`` (outer span), ``row_span_name`` (per-row span) and
    ``progress_units`` (``"tiles"`` or ``"rows"``) preserve each
    driver's historical observability contract.
    """

    grain: str = "matrix"
    span_name: "str | None" = None
    row_span_name: "str | None" = None
    progress_units: str = "tiles"
    _quarantined: "list | None" = None

    def span_meta(self, plan: TilePlan) -> dict:
        return {}

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

    # -- matrix grain ------------------------------------------------------
    def buffer(self) -> "np.ndarray | None":
        """Array for in-place writes (in-process and shared-memory
        engines), or ``None`` to force block-wise :meth:`put`."""
        return None

    def put(self, idx: int, t: Tile, block: np.ndarray) -> None:
        raise NotImplementedError

    # -- rows grain --------------------------------------------------------
    def skip_row(self, i0: int) -> bool:
        """True when the row is already complete (checkpoint resume)."""
        return False

    def store_row(self, i0: int, items: list) -> None:
        """Persist one completed block-row; ``items`` is ``[(tile, block)]``."""
        raise NotImplementedError

    def commit_row(self, i0: int) -> bool:
        """Durably record the row; return False to stop the run."""
        return True

    # -- lifecycle ---------------------------------------------------------
    def finalize(self, completed: bool = True):
        """Produce the sink's result (driver-specific type)."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release resources; called by the executor even on error."""


class DenseSink(MatrixSink):
    """Dense in-memory ``(n, n)`` matrix (optionally caller-preallocated)."""

    grain = "matrix"
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

    def span_meta(self, plan: TilePlan) -> dict:
        return {
            "n_genes": plan.n_genes,
            "n_tiles": plan.n_tiles,
            "n_pairs": plan.n_pairs,
            "tile": plan.tile,
        }

    def buffer(self) -> np.ndarray:
        return self.mi

    def put(self, idx: int, t: Tile, block: np.ndarray) -> None:
        self.mi[t.i0 : t.i1, t.j0 : t.j1] = block

    def finalize(self, completed: bool = True) -> np.ndarray:
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
    kernel_dtype=None,
) -> np.ndarray:
    """One tile's ``(rows, cols)`` MI block, diagonal masked.

    The only place a kernel-variant name maps to an ``mi_tile*`` call;
    every driver's tiles run through here.  ``source`` is a
    :class:`WeightSource` or a bare ``(n, m, b)`` weight tensor.
    ``kernel`` picks the variant: ``None``/``"fused"`` runs the fused
    workspace kernel (bit-identical to :func:`repro.core.mi.mi_tile` unless
    ``kernel_dtype`` selects mixed precision) and ``"sparse"`` the packed
    scatter kernel (~1 ulp from ``mi_tile`` in float64).  Resident tensors
    use the process-cached hoisted operands; a packed source
    (:class:`PackedWeightSource`) feeds its packed slabs straight to the
    scatter kernel; other sources (mmap stores) stage per-tile slabs.
    """
    weights = source if isinstance(source, np.ndarray) else getattr(source, "weights", None)
    args = dict(h_i=h[t.i0 : t.i1], h_j=h[t.j0 : t.j1], base=base,
                workspace=worker_workspace(), dtype=kernel_dtype)
    if kernel == "sparse":
        packed = getattr(source, "packed", None)
        if weights is not None:
            block = mi_tile_sparse_block(weights, t.i0, t.i1, t.j0, t.j1, **args)
        elif callable(packed):
            values, first, span = packed()
            block = mi_tile_sparse_packed(
                values[t.i0 : t.i1], first[t.i0 : t.i1],
                values[t.j0 : t.j1], first[t.j0 : t.j1],
                span, source.bins, source.m_samples, **args)
        else:
            block = mi_tile_sparse(source.slab(t.i0, t.i1), source.slab(t.j0, t.j1),
                                   **args)
    elif weights is not None:
        block = mi_tile_block(weights, t.i0, t.i1, t.j0, t.j1, **args)
    else:
        block = mi_tile_into(source.slab(t.i0, t.i1), source.slab(t.j0, t.j1),
                             **args)
    if t.is_diagonal:
        block[~t.pair_mask()] = 0.0
    return block


def _write_tile(run, out: np.ndarray, t: Tile) -> None:
    """In-place task shape: write tile ``t``'s block into the matrix."""
    out[t.i0 : t.i1, t.j0 : t.j1] = run(t)


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
):
    """Execute ``plan``: every tile through :func:`compute_tile` into ``sink``.

    This is the one tile loop all MI drivers share.  ``engine`` is any
    :mod:`repro.parallel.engine` engine (``None`` runs serially in this
    thread); the whole grid — or, for row-grain sinks, each block-row —
    is one supervised engine dispatch.  ``kernel`` names the tile variant
    (``None``/``"fused"`` or ``"sparse"``; ``"auto"`` must be resolved by
    :func:`resolve_kernel` first) and ``kernel_dtype`` its GEMM precision
    (``"float32"`` = mixed precision).  Both also pick which operand cache
    is warmed in the parent before dispatch, so fork workers inherit the
    repacked tensor copy-on-write instead of each rebuilding it.

    ``progress(done, total)`` and the tracer's ``tiles_done`` /
    ``pairs_done`` counters tick per tile as each task finishes, on every
    engine; row-unit sinks (``progress_units="rows"``) report progress
    and ``rows_done`` per committed block-row instead.

    ``policy`` (a :class:`repro.faults.policy.FaultPolicy`) sets the fault
    handling: failed or invalid (non-finite) blocks are retried with
    backoff, hung fork-engine tasks are timed out and their workers
    replaced, an engine that loses its pool is swapped for the next one
    down the fallback chain, and tasks that exhaust the budget are
    quarantined on the sink or raise, per ``policy.on_fault``.  ``None``
    means ``FaultPolicy(max_retries=0, on_fault="raise")``: one attempt
    per tile, and a failing tile raises
    :class:`~repro.faults.policy.FaultToleranceExceeded`.

    Returns ``sink.finalize(completed)`` — the sink-specific result.
    """
    if kernel not in (None, "fused", "sparse"):
        raise ValueError(
            f"run_tile_plan needs a resolved kernel variant (None, 'fused' or "
            f"'sparse'), got {kernel!r}")
    tracer = tracer or NULL_TRACER
    if policy is None:
        policy = FaultPolicy.from_options()
    h = source.entropies(plan.base)

    # Warm the per-variant operand caches in the parent: thread workers
    # share the one repacking, fork workers inherit it copy-on-write.
    weights = getattr(source, "weights", None)
    if weights is not None and weights.ndim == 3 and weights.shape[0] >= 2:
        if kernel == "sparse":
            prepare_packed(weights, _resolve_kernel_dtype(kernel_dtype,
                                                          weights.dtype)[0])
        else:
            prepare_operands(weights, kernel_dtype)
    elif kernel == "sparse" and callable(getattr(source, "packed", None)):
        source.packed()  # materialize the padded lanes pre-fork (COW)

    # A partial of a module-level function, not a closure, so the task
    # pickles — the elastic engine ships it (source tensor included,
    # broadcast once per worker) to remote processes.
    run = functools.partial(compute_tile, source, h, base=plan.base,
                            kernel=kernel, kernel_dtype=kernel_dtype)
    engine = engine if engine is not None else SerialEngine()
    try:
        if sink.grain == "rows":
            completed = _execute_rows(plan, sink, run, engine, tracer, progress, policy)
        else:
            _execute_matrix(plan, sink, run, engine, tracer, progress, policy)
            completed = True
        return sink.finalize(completed=completed)
    finally:
        sink.close()


def _span(tracer, name, **meta):
    return tracer.span(name, **meta) if name else nullcontext()


def _engine_workers(engine) -> int:
    return max(int(getattr(engine, "n_workers", 1) or 1), 1)


def _ticker(tracer, progress, total: int):
    """Thread-safe ``tick(n_tiles, n_pairs)``: counters, then progress.

    Progress is reported under the lock, so concurrent workers' calls
    arrive in increasing order.
    """
    lock = threading.Lock()
    count = [0]

    def tick(n_tiles: int, n_pairs: int) -> None:
        tracer.add("tiles_done", n_tiles)
        tracer.add("pairs_done", n_pairs)
        with lock:
            count[0] += n_tiles
            if progress is not None:
                progress(count[0], total)

    return tick


def _writes_in_place(engine, staged) -> bool:
    """Whether ``engine`` can write blocks straight into the output.

    In-process engines share the parent's memory; the shared-memory
    engine needs the output staged in a :class:`SharedArray`.
    """
    if getattr(engine, "in_process", False):
        return True
    return staged is not None and isinstance(engine, SharedMemoryEngine)


def _dispatch_once(engine, tiles, idxs, run, target, staged, timeout, accept):
    """One supervised engine call over ``idxs``; returns ``{idx: error}``.

    ``accept(idx, block, in_place)`` fires in the parent (in the worker
    thread for in-process engines) as each task finishes: with the block
    the worker returned, or — for in-place dispatch into ``target`` — a
    view of the region it wrote.
    """
    items = [tiles[i] for i in idxs]
    if target is not None and _writes_in_place(engine, staged):
        def done(pos: int, _value) -> None:
            t = items[pos]
            accept(idxs[pos], target[t.i0 : t.i1, t.j0 : t.j1], True)

        out = staged if isinstance(engine, SharedMemoryEngine) else target
        failures = engine.map_into_supervised(
            functools.partial(_write_tile, run), items, out,
            timeout=timeout, on_done=done)
    else:
        _, failures = engine.map_supervised(
            run, items, timeout=timeout,
            on_done=lambda pos, block: accept(idxs[pos], block, False))
    return {idxs[p]: err for p, err in failures.items()}


def _supervise(engine, tiles, idxs, run, policy, tracer, deliver,
             target=None, staged=None):
    """Retry/timeout/fallback loop over one set of tile indices.

    Each round is one supervised dispatch of the still-pending tiles.
    ``deliver(idx, tile, block)`` fires once per validated success as the
    task finishes (``block`` is ``None`` when the worker already wrote it
    into ``target``).  Returns ``(failures, engine)``: the tasks whose
    budget ran out, each with its last error string, and the (possibly
    degraded) engine now in use — callers thread it through so a fallback
    persists for later rows.
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

        def accept(idx: int, block, in_place: bool) -> None:
            t = tiles[idx]
            if not policy.check(t, block):
                corrupt[idx] = "corrupt result (validation failed)"
                tracer.add("task_corruptions")
                return
            delivered.add(idx)
            deliver(idx, t, None if in_place else block)

        try:
            failures = _dispatch_once(eng, tiles, pending, run, target, staged,
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
            # Tiles delivered before the pool died are done; a fallback
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
                faults.record_failure(tiles[idx])
        pending = [idx for idx in pending if idx in failures]
        errors = failures
    return {idx: errors[idx] for idx in pending}, eng


def _quarantine_failures(sink, tiles, failures, policy, tracer, tick):
    """Record budget-exhausted tasks on the sink (or abort, per policy)."""
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
        tick(1, 0)
    if policy.on_fault == "raise":
        raise FaultToleranceExceeded(sink.quarantined)


def _execute_matrix(plan, sink, run, engine, tracer, progress, policy) -> None:
    """Whole-grid dispatch (matrix-grain sinks).

    The policy-ordered grid is one supervised dispatch.  Sinks with a
    :meth:`~MatrixSink.buffer` are written in place by in-process and
    shared-memory engines (the latter through one staging copy, so
    retries and engine fallback can overwrite partial garbage before the
    single copy-back); other engines return blocks for :meth:`put`.
    Blocks that end up quarantined are reset to the sink's zero fill.
    """
    tiles = plan.tiles
    order = plan.order(_engine_workers(engine))
    tick = _ticker(tracer, progress, len(tiles))
    buf = sink.buffer()
    staged = (SharedArray.from_array(buf)
              if buf is not None and isinstance(engine, SharedMemoryEngine) else None)
    target = staged.array if staged is not None else buf
    put_lock = threading.Lock()

    def deliver(idx: int, t: Tile, block) -> None:
        if block is not None:
            if target is not None:
                target[t.i0 : t.i1, t.j0 : t.j1] = block
            else:
                with put_lock:
                    sink.put(idx, t, block)
        tick(1, t.n_pairs)

    with _span(tracer, sink.span_name, **sink.span_meta(plan)):
        try:
            failures, _ = _supervise(engine, tiles, order, run, policy, tracer,
                                   deliver, target=target, staged=staged)
            if staged is not None:
                buf[...] = staged.array
        finally:
            if staged is not None:
                staged.close()
                staged.unlink()
        if failures and buf is not None:
            for idx in failures:  # quarantined blocks keep the zero fill
                t = tiles[idx]
                buf[t.i0 : t.i1, t.j0 : t.j1] = 0.0
        _quarantine_failures(sink, tiles, failures, policy, tracer, tick)


def _execute_rows(plan, sink, run, engine, tracer, progress, policy) -> bool:
    """Block-row dispatch (checkpoint and out-of-core sinks).

    Each pending row is one supervised dispatch; blocks return to the
    parent (pickle for fork engines) so ``store_row`` receives only the
    tiles that succeeded, leaving quarantined blocks at the sink's fill
    value.  Quarantine is recorded *before* ``commit_row`` so
    ledger-backed sinks persist it atomically with the row.  Returns
    False when the sink stopped the run early (checkpoint interruption),
    True on completion.
    """
    rows = plan.rows
    row_progress = sink.progress_units == "rows"
    total = len(rows) if row_progress else len(plan.tiles)
    pending = [i0 for i0 in rows if not sink.skip_row(i0)]
    done = len(rows) - len(pending) if row_progress else 0
    if progress is not None and done:
        progress(done, total)  # resumed rows are already complete
    tick = _ticker(tracer, None if row_progress else progress, total)
    tiles = plan.tiles
    row_idx: dict = {}
    for idx, t in enumerate(tiles):
        row_idx.setdefault(t.i0, []).append(idx)
    eng = engine

    with _span(tracer, sink.span_name, **sink.span_meta(plan)):
        for i0 in pending:
            idxs = row_idx[i0]
            collected: dict = {}

            def deliver(idx, t, block, _c=collected):
                _c[idx] = (t, block)
                tick(1, t.n_pairs)

            with _span(tracer, sink.row_span_name, i0=i0, n_tiles=len(idxs)):
                failures, eng = _supervise(eng, tiles, idxs, run, policy, tracer,
                                         deliver)
                sink.store_row(i0, [collected[i] for i in idxs if i in collected])
                _quarantine_failures(sink, tiles, failures, policy, tracer, tick)
            keep_going = sink.commit_row(i0)
            if row_progress:
                done += 1
                tracer.add("rows_done")
                if progress is not None:
                    progress(done, total)
            if not keep_going:
                return False
    return True
