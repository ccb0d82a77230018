"""Out-of-core all-pairs MI for problems bigger than memory.

When :func:`repro.machine.memory.memory_plan` says ``out-of-core``, this
driver is the fallback: weights live in a memory-mapped file on disk
(``.npy`` via ``numpy.lib.format``), the MI matrix is written into a
second memory map, and tiles stream block-rows through RAM — the same
panel-streaming structure the offload model prices for the coprocessor
case.  Results are bit-identical to the in-memory driver (tests enforce
it); only residency changes.

This driver is a thin configuration of the unified execution core
(:mod:`repro.core.exec`): an :class:`~repro.core.exec.MmapSource` feeding
a :class:`MmapMatrixSink` through
:func:`~repro.core.exec.run_tile_plan`.  The weight store carries a
fingerprint sidecar (written by :func:`build_weight_store`) which
:func:`mi_matrix_outofcore` verifies before computing — the same
resume-safety guarantee the checkpoint ledger gives.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.bspline import weight_tensor
from repro.core.exec import (
    MatrixSink,
    MmapSource,
    TilePlan,
    plan_tiles,
    run_tile_plan,
    weights_fingerprint,
)

__all__ = [
    "MmapMatrixSink",
    "build_weight_store",
    "mi_matrix_outofcore",
    "open_weight_store",
    "weight_store_fingerprint",
]

_META_SUFFIX = ".meta.json"


def _meta_path(store_path: Path) -> Path:
    return store_path.with_name(store_path.name + _META_SUFFIX)


def build_weight_store(
    data: np.ndarray,
    path: "str | Path",
    bins: int = 10,
    order: int = 3,
    dtype: str = "float32",
    gene_block: int = 512,
) -> Path:
    """Write the weight tensor of ``data`` to a ``.npy`` file, block-wise.

    Peak memory is one ``gene_block`` of weights, not the full tensor.
    A ``<store>.meta.json`` sidecar records the tensor fingerprint so
    :func:`mi_matrix_outofcore` can refuse a store that has been swapped
    or corrupted since it was built.  Returns the path (with the ``.npy``
    suffix ensured).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (genes, samples) matrix, got shape {data.shape}")
    if gene_block < 1:
        raise ValueError("gene_block must be >= 1")
    n, m = data.shape
    path = Path(path)
    if path.suffix != ".npy":
        path = path.with_suffix(".npy")
    store = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.dtype(dtype), shape=(n, m, bins)
    )
    try:
        for s in range(0, n, gene_block):
            e = min(s + gene_block, n)
            store[s:e] = weight_tensor(data[s:e], bins, order, np.dtype(dtype))
        store.flush()
        fingerprint = weights_fingerprint(store)
    finally:
        del store
    _meta_path(path).write_text(
        json.dumps(
            {
                "fingerprint": fingerprint,
                "shape": [n, m, bins],
                "dtype": str(np.dtype(dtype)),
            }
        )
    )
    return path


def open_weight_store(path: "str | Path") -> np.memmap:
    """Read-only memory map of a weight store written by
    :func:`build_weight_store`."""
    return np.load(Path(path), mmap_mode="r")


def weight_store_fingerprint(path: "str | Path") -> "str | None":
    """Fingerprint recorded in the store's sidecar, or ``None`` if the
    store predates the sidecar format."""
    meta = _meta_path(Path(path))
    if not meta.exists():
        return None
    return json.loads(meta.read_text()).get("fingerprint")


class MmapMatrixSink(MatrixSink):
    """Memory-mapped ``(n, n)`` output matrix, written block-row-wise.

    The parent alone writes the memmap (workers return or fill row
    buffers), preserving the streaming memory profile: one block-row of
    weights plus one block-row of output resident at a time.  Off-diagonal
    blocks are mirrored immediately so the on-disk matrix is symmetric at
    every point of the run.
    """

    grain = "rows"
    span_name = "mi_outofcore"
    row_span_name = None
    progress_units = "tiles"

    def __init__(self, out_path: "str | Path", n: int):
        out_path = Path(out_path)
        if out_path.suffix != ".npy":
            out_path = out_path.with_suffix(".npy")
        self.out_path = out_path
        self.n = n
        self._mi = np.lib.format.open_memmap(
            out_path, mode="w+", dtype=np.float64, shape=(n, n)
        )
        self._mi[:] = 0.0

    def span_meta(self, plan: TilePlan) -> dict:
        return {"n_genes": plan.n_genes, "n_tiles": plan.n_tiles, "tile": plan.tile}

    def store_row(self, i0: int, items: list) -> None:
        mi = self._mi
        for t, block in items:
            if t.is_diagonal:
                # Diagonal blocks arrive upper-triangle-masked, so adding
                # the transpose fills the square symmetrically.
                mi[t.i0 : t.i1, t.j0 : t.j1] = block + block.T
            else:
                mi[t.i0 : t.i1, t.j0 : t.j1] = block
                mi[t.j0 : t.j1, t.i0 : t.i1] = block.T

    def finalize(self, completed: bool = True) -> Path:
        np.fill_diagonal(self._mi, 0.0)
        self._mi.flush()
        return self.out_path

    def close(self) -> None:
        self._mi = None  # drop the memmap reference, releasing the handle


def mi_matrix_outofcore(
    weights_path: "str | Path",
    out_path: "str | Path",
    tile: "int | None" = None,
    base: str = "nat",
    engine=None,
    progress=None,
    tracer=None,
    schedule=None,
    policy=None,
) -> Path:
    """Compute the full MI matrix with both operands on disk.

    ``progress`` (optional ``progress(done_tiles, total_tiles)``) fires per
    tile on the serial path and per block-row with an engine; ``tracer``
    (optional :class:`repro.obs.tracer.Tracer`) wraps the run in an
    ``mi_outofcore`` span and ticks the ``tiles_done`` / ``pairs_done``
    counters at the same granularity.

    The weight store is memory-mapped read-only; if it carries a
    fingerprint sidecar (stores built by :func:`build_weight_store`), the
    tensor is re-fingerprinted and a mismatch raises ``ValueError`` rather
    than silently computing on different data.  The symmetric ``(n, n)``
    float64 MI matrix is written into ``out_path`` (``.npy``).  RAM usage
    is one block-row of weights plus one block-row of output at a time.

    ``engine`` (optional, :mod:`repro.parallel.engine`) parallelizes the
    tiles of each block-row as one supervised dispatch; workers return
    their blocks (forked workers read the weight store through the
    inherited mapping).  The parent alone writes the output memmap,
    preserving the streaming memory profile.

    ``schedule`` orders tiles within each block-row (see
    :data:`repro.core.exec.SCHEDULE_NAMES`); storage layout is unchanged.

    ``policy`` (optional :class:`repro.faults.policy.FaultPolicy`) turns
    on resilient dispatch; tiles that exhaust the retry budget stay zero
    in the output matrix and are enumerated in a ``<out>.quarantine.json``
    sidecar next to the matrix file.

    Returns the output path; load the result with
    ``numpy.load(out_path, mmap_mode="r")`` to keep it on disk too.
    """
    source = MmapSource(weights_path)
    try:
        recorded = weight_store_fingerprint(weights_path)
        if recorded is not None and recorded != source.fingerprint():
            raise ValueError(
                f"weight store {weights_path} does not match its recorded "
                f"fingerprint (recorded {recorded!r}, "
                f"computed {source.fingerprint()!r}); rebuild the store"
            )
        plan = plan_tiles(source, tile=tile, base=base, schedule=schedule)
        sink = MmapMatrixSink(out_path, source.n_genes)
        result = run_tile_plan(
            plan, source, sink, engine=engine, tracer=tracer, progress=progress,
            policy=policy,
        )
        sidecar = result.with_name(result.name + ".quarantine.json")
        if sink.quarantined:
            sidecar.write_text(json.dumps(
                [q.as_dict() for q in sink.quarantined]))
        elif sidecar.exists():
            sidecar.unlink()  # stale sidecar from an overwritten run
        return result
    finally:
        source.close()
