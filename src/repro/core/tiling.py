"""Tiling of the all-pairs (upper-triangular) MI workload.

The ``n(n-1)/2`` gene pairs are covered by square tiles of the gene x gene
matrix restricted to the upper triangle.  Tiles are the scheduling unit at
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

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tile",
    "tile_grid",
    "pair_count",
    "RULE_TILES",
    "AUTO_SPARSE_MIN_BINS",
    "rule_tile",
    "rule_kernel",
    "warn_autotune",
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


# ---------------------------------------------------------------------------
# The measured (kernel, tile) rule
# ---------------------------------------------------------------------------

#: Tile edge per kernel variant when the caller gives none.  Derived from
#: the E14 sweep (``benchmarks/bench_tile_size.py``, ``BENCH_E14.json``):
#: serial ``mi_matrix`` over b in {10, 20, 30} x m in {256, 3137} x tiles
#: 8-128.  Fused at 32, float64 or float32, is within 9% of the best tile
#: in every cell (the best is 32 or 64); sparse at 16 is within 5% (best
#: 16, or 32 at b = 10, m = 256).  Tile 8 costs fused 1.3-1.7x at b = 10.
#: fused float64 MI is bitwise the same at tiles 8-128, except a few ulp
#: in the cells of the last ``n % 8`` genes (a ragged GEMM block), so the
#: rule moves time, not results.
RULE_TILES = {"fused": 32, "sparse": 16}

#: ``kernel="auto"`` takes the compiled sparse kernel from this many bins
#: up.  E14, each kernel at its rule tile: at b = 10 fused wins (0.13 s
#: against 0.16 s at m = 256), at b = 20 and 30 sparse does (0.30 s
#: against 0.59 s at b = 20, m = 3137).
AUTO_SPARSE_MIN_BINS = 20


def rule_tile(kernel: "str | None" = None) -> int:
    """The rule's tile edge for a kernel variant (``None`` means fused)."""
    variant = kernel or "fused"
    if variant not in RULE_TILES:
        raise ValueError(
            f"kernel must be one of {sorted(RULE_TILES)} or None, got {kernel!r}")
    return RULE_TILES[variant]


def rule_kernel(bins: int, sparse_compiled: bool) -> str:
    """The variant ``kernel="auto"`` resolves to: a table lookup, no timing.

    ``sparse_compiled`` says whether the sparse kernel can run compiled
    here (the ``cc`` backend, and a spline order within its lane count);
    the pure-numpy scatter never beats the GEMM.
    """
    if sparse_compiled and bins >= AUTO_SPARSE_MIN_BINS:
        return "sparse"
    return "fused"


def warn_autotune(autotune: bool) -> None:
    """Warn when the deprecated ``autotune`` knob is set; it does nothing.

    The rule replaced the timing autotuners and their JSON sidecar.  The
    knob stays accepted so stored configs and existing calls still load.
    """
    if autotune:
        warnings.warn(
            "autotune is deprecated and ignored: tiles come from the measured "
            "(kernel, tile) rule, repro.core.tiling.RULE_TILES",
            DeprecationWarning, stacklevel=3)
