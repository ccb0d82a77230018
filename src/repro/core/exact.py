"""Exact (fused) permutation testing over the whole pair matrix.

This is the formulation the paper's kernel actually executes on the Phi:
for every tile of gene pairs, the observed MI *and* its ``q`` permuted
replicas are computed in one pass while the weight slabs are hot in cache
— the permutation loop is the innermost reuse level, which is why the cost
model charges ``(1 + q)`` MI evaluations per pair with no extra memory
traffic (:class:`repro.machine.costmodel.KernelProfile`).

The pooled-null pipeline (:mod:`repro.core.permutation`) is the cheap
statistical shortcut; this module is the exact counterpart: a per-pair
add-one p-value for every one of the ``n(n-1)/2`` pairs.  Cost is
``(1 + q)x`` the plain MI matrix — use it when ``q`` is small or exactness
is required; tests cross-validate the two paths.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.entropy import joint_entropy_from_probs, marginal_entropies
from repro.core.exec import TensorSource, WeightSource, mirror_upper, worker_workspace
from repro.core.mi import _fused_block, mi_tile
from repro.core.tiling import Tile, default_tile_size, pair_count, tile_grid
from repro.obs.tracer import NULL_TRACER
from repro.parallel.engine import SerialEngine, raise_first_failure
from repro.stats.random import as_rng, permutation_matrix

__all__ = ["ExactTestResult", "mi_tile_fused", "exact_mi_pvalues"]


@dataclass
class ExactTestResult:
    """Observed MI and exact permutation p-values for all pairs.

    Attributes
    ----------
    mi:
        ``(n, n)`` symmetric observed-MI matrix, zero diagonal.
    pvalues:
        ``(n, n)`` symmetric add-one p-value matrix; diagonal fixed at 1.
    n_permutations:
        ``q`` used for every pair.
    """

    mi: np.ndarray
    pvalues: np.ndarray
    n_permutations: int

    @property
    def n_genes(self) -> int:
        return self.mi.shape[0]


def mi_tile_fused(
    wi: np.ndarray,
    wj: np.ndarray,
    permutations: np.ndarray,
    h_i: np.ndarray | None = None,
    h_j: np.ndarray | None = None,
    base: str = "nat",
) -> tuple:
    """Observed MI and null-exceedance counts for one tile, fused.

    For each shared permutation ``pi``, the *row* slab's samples are
    permuted (``wi[:, pi]``) and the whole tile's permuted MIs are computed
    with the same GEMM kernel; ``exceed[a, c]`` counts permutations whose
    MI >= the observed one.  Marginal entropies are permutation-invariant,
    so they are computed once and reused across all ``q`` replicas — the
    same hoisting the paper's fused kernel performs.

    Returns
    -------
    (observed, exceed):
        ``(TI, TJ)`` float MI matrix and ``(TI, TJ)`` integer counts.
    """
    wi = np.asarray(wi)
    wj = np.asarray(wj)
    permutations = np.asarray(permutations, dtype=np.intp)
    if permutations.ndim != 2 or permutations.shape[1] != wi.shape[1]:
        raise ValueError(
            f"expected (q, m) permutations with m={wi.shape[1]}, "
            f"got shape {permutations.shape}"
        )
    if h_i is None:
        h_i = marginal_entropies(wi, base=base)
    if h_j is None:
        h_j = marginal_entropies(wj, base=base)
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    m = wi.shape[1]
    ti, b = wi.shape[0], wi.shape[2]
    tj = wj.shape[0]
    if ti == 1 and tj == 1:
        # Degenerate tiles keep the reference loop (see mi.py on 1x1 GEMM
        # summation order); cost is negligible at this size.
        observed = mi_tile(wi, wj, h_i=h_i, h_j=h_j, base=base)
        exceed = np.zeros(observed.shape, dtype=np.int64)
        for perm in permutations:
            joint = np.tensordot(wi[:, perm], wj, axes=([1], [1])).transpose(0, 2, 1, 3)
            joint = np.ascontiguousarray(joint, dtype=np.float64) / m
            h_joint = joint_entropy_from_probs(joint, base=base, validate=False)
            mi_perm = np.maximum(h_i[:, None] + h_j[None, :] - h_joint, 0.0)
            exceed += mi_perm >= observed
        return observed, exceed
    # Fused path: operands are staged once per tile into this worker's
    # reused workspace; each permutation is one sample-axis gather of the
    # already-transposed row operand plus one GEMM + fused reduction —
    # the column operand and both marginal entropy vectors are reused
    # across all q replicas.  Bit-identical to the reference loop.
    ws = worker_workspace()
    at = ws.array("at", (ti, b, m), wi.dtype)
    np.copyto(at, wi.transpose(0, 2, 1), casting="same_kind")
    bv = ws.array("bv", (m, tj, b), wj.dtype)
    np.copyto(bv, wj.transpose(1, 0, 2), casting="same_kind")
    bv2 = bv.reshape(m, tj * b)
    observed = _fused_block(
        at.reshape(ti * b, m), bv2, ti, tj, b, m, h_i, h_j, base, ws, None, False)
    exceed = np.zeros(observed.shape, dtype=np.int64)
    at_perm = ws.array("at_perm", (ti, b, m), wi.dtype)
    mi_perm = ws.array("mi_perm", (ti, tj))
    for perm in permutations:
        # Permuting the row-slab's sample axis; marginals unchanged.
        np.take(at, perm, axis=2, out=at_perm)
        _fused_block(
            at_perm.reshape(ti * b, m), bv2, ti, tj, b, m, h_i, h_j, base,
            ws, mi_perm, False)
        exceed += mi_perm >= observed
    return observed, exceed


def exact_mi_pvalues(
    weights: np.ndarray,
    n_permutations: int = 30,
    tile: int | None = None,
    seed=None,
    base: str = "nat",
    engine=None,
    progress=None,
    tracer=None,
) -> ExactTestResult:
    """All-pairs observed MI + exact per-pair permutation p-values.

    The shared-permutation trick still applies: one ``(q, m)`` permutation
    matrix is drawn up front and every tile reuses it, so results are
    identical to testing each pair separately with those permutations
    (:func:`repro.core.permutation.per_pair_pvalues` — the tests assert
    bit-equality).

    Parameters
    ----------
    weights:
        ``(n, m, b)`` weight tensor of rank-transformed genes, or a
        prepared :class:`repro.core.exec.WeightSource` whose cached
        marginal entropies are reused instead of being recomputed here
        (the pipeline shares one source across the MI and exact phases).
    n_permutations:
        ``q``; the add-one p-value resolution is ``1/(q+1)``.
    tile, engine, base, progress, tracer:
        As in :func:`repro.core.mi_matrix.mi_matrix` (the fused kernel does
        ``(1 + q)x`` the work per tile, so a progress line matters even
        more here).  The grid is one supervised engine dispatch, and each
        finished tile ticks the same ``tiles_done`` / ``pairs_done``
        counters and the progress line, on every engine.
    """
    source = weights if isinstance(weights, WeightSource) else TensorSource(weights)
    weights = getattr(source, "weights", None)
    if weights is None:  # disk-backed sources: materialize (fused kernel is dense)
        weights = source.slab(0, source.n_genes)
    n, m, b = weights.shape
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    perms = permutation_matrix(n_permutations, m, as_rng(seed))
    if tile is None:
        tile = default_tile_size(m, b, itemsize=weights.dtype.itemsize)
    tiles = tile_grid(n, tile)
    h = source.entropies(base)
    tracer = tracer or NULL_TRACER

    def run(t: Tile):
        return mi_tile_fused(
            weights[t.i0 : t.i1],
            weights[t.j0 : t.j1],
            perms,
            h_i=h[t.i0 : t.i1],
            h_j=h[t.j0 : t.j1],
            base=base,
        )

    total = len(tiles)
    counter_lock = threading.Lock()
    done_count = [0]

    def tick(n_tiles: int, n_pairs: int) -> None:
        with counter_lock:
            done_count[0] += n_tiles
            done = done_count[0]
        tracer.add("tiles_done", n_tiles)
        tracer.add("pairs_done", n_pairs)
        if progress is not None:
            progress(done, total)

    engine = engine if engine is not None else SerialEngine()
    with tracer.span("exact_mi", n_genes=n, n_tiles=total,
                     n_pairs=pair_count(n), n_permutations=n_permutations):
        blocks, failures = engine.map_supervised(
            run, tiles, on_done=lambda pos, _block: tick(1, tiles[pos].n_pairs))
        raise_first_failure(engine, failures)

    mi = np.zeros((n, n), dtype=np.float64)
    pvals = np.ones((n, n), dtype=np.float64)
    for t, (observed, exceed) in zip(tiles, blocks):
        p_block = (1.0 + exceed) / (1.0 + n_permutations)
        if t.is_diagonal:
            mask = t.pair_mask()
            observed = np.where(mask, observed, 0.0)
            p_block = np.where(mask, p_block, 1.0)
        mi[t.i0 : t.i1, t.j0 : t.j1] = observed
        pvals[t.i0 : t.i1, t.j0 : t.j1] = p_block
    mirror_upper(mi)
    mirror_upper(pvals)
    np.fill_diagonal(mi, 0.0)
    np.fill_diagonal(pvals, 1.0)
    return ExactTestResult(mi=mi, pvalues=pvals, n_permutations=n_permutations)
