"""Tiling of the all-pairs (upper-triangular) MI workload.

The ``n(n-1)/2`` gene pairs are covered by square tiles of the gene x gene
matrix restricted to the upper triangle.  Tiles are the scheduling grain at
every level of the reproduction: the numpy kernel computes one tile per BLAS
call, the parallel engines hand tiles to workers, and the machine simulator
charges per-tile costs to hardware threads.  This mirrors the paper, where
the tile (block of gene pairs) is simultaneously the cache-blocking unit and
the dynamic-load-balancing unit.

Diagonal tiles are triangular (fewer pairs than ``tile**2``) — the source of
the load imbalance that makes static scheduling lose to dynamic scheduling
in experiment E11.
"""

from __future__ import annotations

import json
import os
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "Tile",
    "tile_grid",
    "pair_count",
    "default_tile_size",
    "fused_tile_size",
    "autotune_tile_size",
    "autotune_cache_path",
]


@dataclass(frozen=True)
class Tile:
    """One block of gene pairs: rows ``[i0, i1)`` x cols ``[j0, j1)``.

    ``is_diagonal`` tiles sit on the block diagonal; within them only pairs
    with ``row < col`` are valid.  Off-diagonal tiles (``j0 >= i1``) contain
    only valid pairs.
    """

    i0: int
    i1: int
    j0: int
    j1: int

    def __post_init__(self) -> None:
        if not (0 <= self.i0 < self.i1 and 0 <= self.j0 < self.j1):
            raise ValueError(f"degenerate tile {self}")
        if self.j0 < self.i0:
            raise ValueError(f"tile below the diagonal: {self}")

    @property
    def rows(self) -> int:
        return self.i1 - self.i0

    @property
    def cols(self) -> int:
        return self.j1 - self.j0

    @property
    def is_diagonal(self) -> bool:
        return self.i0 == self.j0

    @property
    def n_pairs(self) -> int:
        """Number of valid (i < j) gene pairs inside the tile."""
        if self.is_diagonal:
            r = self.rows
            return r * (r - 1) // 2
        return self.rows * self.cols

    @property
    def n_elements(self) -> int:
        """Number of matrix cells the tile kernel actually computes.

        Diagonal tiles still compute the full ``rows x cols`` block (the
        kernel is rectangular); invalid cells are masked afterwards.  This
        is the *cost* of the tile, as opposed to :attr:`n_pairs`, its
        *useful output* — the gap is the paper's diagonal-tile overhead.
        """
        return self.rows * self.cols

    def pair_mask(self) -> np.ndarray:
        """Boolean mask of valid pairs within the tile's (rows, cols) block."""
        i = np.arange(self.i0, self.i1)[:, None]
        j = np.arange(self.j0, self.j1)[None, :]
        return i < j


def tile_grid(n_genes: int, tile: int) -> list[Tile]:
    """Cover the strict upper triangle of an ``n x n`` pair matrix.

    Tiles are emitted row-major: all tiles of block-row 0, then block-row 1,
    etc.  Edge tiles are smaller when ``tile`` does not divide ``n_genes``.
    """
    if n_genes < 2:
        raise ValueError(f"need at least 2 genes, got {n_genes}")
    if tile < 1:
        raise ValueError(f"tile size must be positive, got {tile}")
    tiles: list[Tile] = []
    for i0 in range(0, n_genes, tile):
        i1 = min(i0 + tile, n_genes)
        for j0 in range(i0, n_genes, tile):
            j1 = min(j0 + tile, n_genes)
            t = Tile(i0, i1, j0, j1)
            if t.n_pairs > 0:  # skip 1x1 diagonal tiles with no valid pair
                tiles.append(t)
    return tiles


def pair_count(n_genes: int) -> int:
    """Total number of unordered gene pairs, ``n(n-1)/2``."""
    if n_genes < 0:
        raise ValueError(f"n_genes must be >= 0, got {n_genes}")
    return n_genes * (n_genes - 1) // 2


def default_tile_size(
    m_samples: int,
    bins: int,
    itemsize: int = 8,
    cache_bytes: int = 1 << 21,
) -> int:
    """Pick a tile size so two weight slabs + the joint tensor fit in cache.

    Working set of one tile: ``2 * T * m * b`` weight words plus
    ``T^2 * b^2`` joint words.  Solves for the largest power-of-two ``T``
    (min 8, max 256) whose working set fits ``cache_bytes`` — defaulting to
    2 MiB, a per-core L2 in the same regime as the Phi's 512 KiB L2 plus
    shared reuse, and empirically near the measured optimum of experiment
    E14.
    """
    if m_samples <= 0 or bins <= 0:
        raise ValueError("m_samples and bins must be positive")
    best = 8
    t = 8
    while t <= 256:
        working = 2 * t * m_samples * bins * itemsize + t * t * bins * bins * itemsize
        if working <= cache_bytes:
            best = t
        t *= 2
    return best


def fused_tile_size(
    m_samples: int,
    bins: int,
    itemsize: int = 8,
    cache_bytes: int = 10 << 20,
) -> int:
    """Cache-model tile size calibrated for the *fused* workspace kernel.

    The fused kernel's per-tile working set differs from the reference mi_tile path:
    operands are views of the hoisted tensor (no per-tile transpose
    copies), and the only large temporaries are the GEMM output and the
    in-place joint buffer — ``2 * T * m * b`` streamed operand words plus
    ``2 * T^2 * b^2`` resident result words.  With no copy traffic
    competing for cache, the sweet spot sits two rungs higher than
    :func:`default_tile_size` (10 MiB effective budget, roughly a per-core
    L3 share; benchmark E30 measures T=64 fastest at the standard m=256,
    b=10 config, with the autotuner free to override empirically).
    """
    if m_samples <= 0 or bins <= 0:
        raise ValueError("m_samples and bins must be positive")
    best = 8
    t = 8
    while t <= 256:
        working = 2 * t * m_samples * bins * itemsize + 2 * t * t * bins * bins * itemsize
        if working <= cache_bytes:
            best = t
        t *= 2
    return best


# ---------------------------------------------------------------------------
# Empirical tile-size autotuner
# ---------------------------------------------------------------------------

_AUTOTUNE_ENV = "REPRO_AUTOTUNE_CACHE"
_AUTOTUNE_CANDIDATES = (16, 32, 64, 128)
_AUTOTUNE_VERSION = 2
_AUTOTUNE_KERNELS = ("fused", "sparse")


def autotune_cache_path() -> Path:
    """Sidecar file persisting autotuned tile sizes across runs.

    Overridable via the ``REPRO_AUTOTUNE_CACHE`` environment variable
    (tests point it at a temp file); defaults to
    ``~/.cache/repro/autotune_tiles.json``.
    """
    override = os.environ.get(_AUTOTUNE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "autotune_tiles.json"


def _autotune_key(m_samples: int, bins: int, dtype: str, engine: str,
                  kernel: str = "fused") -> str:
    return (f"m={m_samples};b={bins};dtype={dtype};engine={engine};"
            f"kernel={kernel};host={socket.gethostname()}")


def _migrate_autotune_v1(data: dict) -> dict:
    """Lift a flat v1 sidecar (``{key: tile}``) into v2 entries.

    v1 keys carry no kernel field; every v1 measurement timed the fused
    kernel (the only one the PR 5 autotuner knew), so old entries remain
    valid verbatim under ``kernel=fused`` — inserted before the trailing
    ``host=`` field to keep the key grammar ordered.
    """
    entries: dict = {}
    for key, value in data.items():
        if not isinstance(key, str) or ";kernel=" in key:
            entries[key] = value
            continue
        head, sep, host = key.rpartition(";host=")
        if sep:
            entries[f"{head};kernel=fused;host={host}"] = value
        else:  # not the v1 key grammar; preserve verbatim
            entries[key] = value
    return entries


def _load_autotune_cache(path: Path) -> dict:
    """The sidecar's entry map, migrating v1 (flat) files transparently."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict):
        return {}
    if data.get("version") == _AUTOTUNE_VERSION:
        entries = data.get("entries")
        return entries if isinstance(entries, dict) else {}
    if "version" in data:  # a future schema this build can't interpret
        return {}
    return _migrate_autotune_v1(data)


def _store_autotune_cache(path: Path, entries: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"version": _AUTOTUNE_VERSION, "entries": entries},
                      fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass  # a cold cache next run is the only consequence


@contextmanager
def _autotune_lock(path: Path):
    """Advisory inter-process lock serializing sidecar updates.

    ``flock`` on a ``.lock`` sibling (never on the sidecar itself, which
    is replaced by rename).  On platforms without ``fcntl`` the lock
    degrades to a no-op — updates still merge with the freshest on-disk
    state, so a lost race costs one entry instead of the whole file.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platform
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(lock_path, "a+")
    except OSError:
        yield
        return
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        finally:
            fh.close()


def _merge_autotune_entry(path: Path, key: str, value: int) -> None:
    """Record ``key -> value`` without dropping concurrent writers' entries.

    The old read-modify-write (load at call start, mutate, rename) let two
    concurrent runs — routine under the serve daemon — each persist a
    stale snapshot missing the other's key.  Re-reading the sidecar while
    holding the advisory lock makes the update a true merge: the rename
    still keeps readers crash-safe, the lock makes writers serialized.
    """
    with _autotune_lock(path):
        cache = _load_autotune_cache(path)
        cache[key] = dict(value) if isinstance(value, dict) else int(value)
        _store_autotune_cache(path, cache)


def _time_candidates(sample, usable, base, dtype, kernel, repeats):
    """Best-of-``repeats`` per-cell timings of one kernel variant.

    Each candidate ``t`` times one off-diagonal ``t x t`` tile through
    :func:`repro.core.exec.compute_tile`, the call every driver makes.
    """
    from repro.core.exec import TensorSource, compute_tile

    if kernel not in (None, "fused", "sparse"):
        raise ValueError(f"unknown kernel variant {kernel!r}")
    source = TensorSource(sample)
    h = source.entropies(base)
    timings: dict[int, float] = {}
    for t in usable:
        tile = Tile(0, t, t, 2 * t)
        # One warm-up call builds the hoisted operands and sizes the
        # workspace buffers outside the timing.
        compute_tile(source, h, tile, base, kernel, dtype)
        best = float("inf")
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            compute_tile(source, h, tile, base, kernel, dtype)
            best = min(best, time.perf_counter() - start)
        timings[t] = best / (t * t)  # per matrix cell
    return timings


def autotune_tile_size(
    weights: np.ndarray,
    *,
    dtype=None,
    engine: str = "serial",
    base: str = "nat",
    candidates: "tuple[int, ...] | None" = None,
    sample_genes: int = 256,
    repeats: int = 3,
    use_cache: bool = True,
    kernel: str = "fused",
) -> int:
    """Measure candidate tile sizes on a real slab sample; pick the fastest.

    Times the selected kernel variant (fused GEMM by default, or
    ``sparse`` per the ``kernel`` knob) over one representative
    off-diagonal tile per candidate size, on a prefix sample of the actual
    weight tensor, and returns the argmin — normalized per matrix cell so
    different tile sizes compare fairly.  The winner is persisted in a
    JSON sidecar keyed by ``(m, b, dtype, engine, kernel, host)`` (see
    :func:`autotune_cache_path`) so subsequent runs skip measurement;
    pre-existing v1 sidecar entries (no kernel field) are read as
    ``kernel=fused`` and remain valid.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"expected an (n, m, b) weight tensor, got shape {weights.shape}")
    n, m, b = weights.shape
    dtype_name = np.dtype(dtype).name if dtype is not None else weights.dtype.name
    key = _autotune_key(m, b, dtype_name, engine, kernel)
    path = autotune_cache_path()
    if use_cache:
        cached = _load_autotune_cache(path).get(key)
        if isinstance(cached, int) and cached > 0:
            return cached

    sample = np.ascontiguousarray(weights[: min(n, sample_genes)])
    if candidates is None:
        candidates = _AUTOTUNE_CANDIDATES
    # Each candidate is timed at its true size on an off-diagonal tile, so
    # it needs 2*t sample genes; out-of-range candidates are dropped.
    usable = tuple(t for t in candidates if 2 * t <= sample.shape[0])
    if not usable:
        return fused_tile_size(m, b)
    timings = _time_candidates(sample, usable, base, dtype, kernel, repeats)
    winner = min(timings, key=timings.get)
    if use_cache:
        _merge_autotune_entry(path, key, winner)
    return winner


def autotune_kernel(
    weights: np.ndarray,
    *,
    dtype=None,
    engine: str = "serial",
    base: str = "nat",
    candidates: "tuple[int, ...] | None" = None,
    sample_genes: int = 256,
    repeats: int = 3,
    use_cache: bool = True,
) -> "tuple[str, int]":
    """Pick the per-host winner across {fused, sparse} x tile size.

    The cross-variant extension of :func:`autotune_tile_size` behind
    ``--kernel auto``: every variant is timed at every candidate tile on
    the same slab sample, and the jointly fastest ``(variant, tile)`` is
    returned and persisted under a ``kernel=auto`` sidecar entry (a
    ``{"kernel": ..., "tile": ...}`` value — the v2 schema allows dict
    entries).  Variants a sample cannot run (e.g. sparse with a spline
    order above the packed lane count) are skipped, never fatal.  A cached
    entry naming a variant this build no longer offers is re-measured.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"expected an (n, m, b) weight tensor, got shape {weights.shape}")
    n, m, b = weights.shape
    dtype_name = np.dtype(dtype).name if dtype is not None else weights.dtype.name
    key = _autotune_key(m, b, dtype_name, engine, "auto")
    path = autotune_cache_path()
    if use_cache:
        cached = _load_autotune_cache(path).get(key)
        if (isinstance(cached, dict) and cached.get("kernel") in _AUTOTUNE_KERNELS
                and isinstance(cached.get("tile"), int) and cached["tile"] > 0):
            return cached["kernel"], cached["tile"]

    sample = np.ascontiguousarray(weights[: min(n, sample_genes)])
    if candidates is None:
        candidates = _AUTOTUNE_CANDIDATES
    usable = tuple(t for t in candidates if 2 * t <= sample.shape[0])
    if not usable:
        return "fused", fused_tile_size(m, b)
    best: "tuple[float, str, int] | None" = None
    for variant in _AUTOTUNE_KERNELS:
        try:
            timings = _time_candidates(sample, usable, base, dtype, variant,
                                       repeats)
        except ValueError:
            continue  # variant unavailable for this tensor (e.g. span > lanes)
        t = min(timings, key=timings.get)
        if best is None or timings[t] < best[0]:
            best = (timings[t], variant, t)
    if best is None:
        return "fused", fused_tile_size(m, b)
    _, winner_kernel, winner_tile = best
    if use_cache:
        _merge_autotune_entry(path, key,
                              {"kernel": winner_kernel, "tile": winner_tile})
    return winner_kernel, winner_tile
