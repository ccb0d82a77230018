"""Permutation testing for MI significance (TINGe's statistical engine).

An MI estimate is never exactly zero for finite samples, so TINGe keeps an
edge only if its MI exceeds what chance produces: permute one gene's samples
(destroying any real dependence while preserving both marginals) and compare.

Two facts make this affordable at whole-genome scale:

1. **Shared permutations.**  The same ``q`` permutations are applied to
   every gene, and the B-spline weights of a permuted gene are its
   permuted weight rows (``weights[:, perm]``: the weights are a
   per-sample function of the expression value), so no weight is ever
   re-derived.  :func:`pooled_null` packs the sampled genes' ``<= k``
   non-zero weights per sample once and reads the row gene *through* each
   permutation index in the compiled sparse kernel
   (:func:`repro.core.sparsekernel.accumulate_pairs`): no permuted copy of
   any weight matrix is written.
2. **A pooled null.**  After the rank transform every gene has the identical
   marginal distribution, so the null MI distribution is the *same for
   every pair*.  One pooled sample of null MIs — ``q`` permutations of a few
   hundred random pairs — yields a single global threshold ``I_alpha``
   applied to all ``n(n-1)/2`` pairs.  This is the difference between an
   O(n^2 m q) and an O(n^2 m + q * s * m) algorithm.

Both the pooled-threshold fast path (the paper's) and the exact per-pair
p-value path are implemented; tests cross-validate them on small inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.exec import WeightSource, as_source, supervised_map
from repro.core.mi import batched_pair_mi, mi_bspline_pair
from repro.core.sparsekernel import accumulate_pairs, joint_pad, pack_slab, sparse_backend
from repro.stats.pvalues import empirical_pvalues
from repro.stats.quantile import upper_tail_threshold
from repro.stats.random import as_rng, permutation_matrix, sample_pairs

__all__ = [
    "NullDistribution",
    "pooled_null",
    "null_threshold",
    "per_pair_pvalues",
]


@dataclass
class NullDistribution:
    """A pooled null MI sample plus the metadata needed to threshold it.

    Attributes
    ----------
    mis:
        1-D array of null MI values (size ``q * n_pairs_sampled``).
    n_permutations, n_pairs_sampled:
        How the pool was built.
    base:
        Entropy log base the null was computed in (must match the observed
        MI matrix it is compared against).
    """

    mis: np.ndarray
    n_permutations: int
    n_pairs_sampled: int
    base: str = "nat"

    @property
    def size(self) -> int:
        return int(self.mis.size)

    def threshold(self, alpha: float, n_tests: int, correction: str = "bonferroni") -> float:
        """Global significance threshold ``I_alpha`` for ``n_tests`` pairs."""
        return null_threshold(self, alpha, n_tests, correction)

    def pvalues(self, observed: np.ndarray) -> np.ndarray:
        """Pooled-null empirical p-values for observed MI values."""
        return empirical_pvalues(observed, self.mis)


def _pooled_null_row(values: np.ndarray, first: np.ndarray, span: int, bins: int,
                     rows: np.ndarray, cols: np.ndarray, perms: np.ndarray,
                     base: str, r: int) -> np.ndarray:
    """Null MI of every sampled pair under shared permutation ``r``."""
    counts = np.empty((rows.shape[0], bins, joint_pad(bins)))
    accumulate_pairs(values, first, span, bins, rows, cols, perms[r], counts)
    return batched_pair_mi(counts[:, :, :bins] / values.shape[1], base=base)


def pooled_null(
    weights: "np.ndarray | WeightSource",
    n_permutations: int = 30,
    n_pairs: int = 200,
    seed=None,
    base: str = "nat",
    engine=None,
    policy=None,
    tracer=None,
) -> NullDistribution:
    """Build the pooled permutation null from a random pair subsample.

    For each sampled pair ``(x, y)`` and each shared permutation ``pi``,
    computes ``I(x_pi; y)``.  Pool size is ``n_permutations * n_pairs``;
    the effective resolution of the resulting threshold is ``1/size``, so
    size it against the corrected alpha.  Only the pipeline's exact-testing
    branch checks that; the pooled branch does not, so a pool too small for
    the corrected alpha makes the threshold the pool's maximum (an open
    item in ROADMAP.md).

    Parameters
    ----------
    weights:
        ``(n, m, b)`` weight tensor, or a
        :class:`~repro.core.exec.WeightSource` whose slabs supply the
        sampled genes' rows, of *rank-transformed* genes — pooling is
        statistically valid only when marginals are identical, which the
        pipeline guarantees by rank-transforming first.
    engine, policy, tracer:
        Optional engine (``None`` runs serially), fault policy and tracer.
        Each shared permutation's row is one task of
        :func:`repro.core.exec.supervised_map`, so the null phase is no
        serial (Amdahl) bottleneck once MI is parallel; a non-finite row is
        retried, never pooled, and a row out of budget raises (a partial
        pool would move the threshold).  All randomness is drawn *before*
        dispatch, so the pool is bit-identical on every engine.

    The sampled genes are packed once, at one shared span, in float64
    whatever the weight dtype (the upcast is exact), and every row is one
    :func:`~repro.core.sparsekernel.accumulate_pairs` call; its cc and
    numpy backends are bitwise equal, so the pool does not depend on the
    backend either.  Counts are summed in sample order, so the pool
    agrees with a dense ``einsum`` of the permuted weights to ~1e-12
    relative, not bitwise.
    """
    source = as_source(weights)
    n, m, b = source.n_genes, source.m_samples, source.bins
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = as_rng(seed)
    pairs = sample_pairs(n, n_pairs, rng)
    perms = permutation_matrix(n_permutations, m, rng).astype(np.int32)

    genes, slots = np.unique(pairs, return_inverse=True)
    rows, cols = np.ascontiguousarray(slots.reshape(pairs.shape).T, dtype=np.int32)
    sampled = (source.slab(0, n) if genes.size == n else
               np.concatenate([source.slab(g, g + 1) for g in genes]))
    values, first, span = pack_slab(sampled, np.float64, lanes=None)
    # Resolve (and on a cold cache, compile) the backend here, once, so
    # fork workers inherit it instead of each building it.
    sparse_backend()
    # functools.partial, not a lambda, so the task pickles and the null
    # phase dispatches through remote (elastic) engines too.
    null = np.stack(supervised_map(
        functools.partial(_pooled_null_row, values, first, span, b,
                          rows, cols, perms, base),
        range(n_permutations), engine=engine, policy=policy, tracer=tracer))
    return NullDistribution(
        mis=null.ravel(),
        n_permutations=n_permutations,
        n_pairs_sampled=n_pairs,
        base=base,
    )


def null_threshold(
    null: NullDistribution,
    alpha: float,
    n_tests: int,
    correction: str = "bonferroni",
) -> float:
    """Significance threshold from a pooled null (see
    :func:`repro.stats.quantile.upper_tail_threshold`)."""
    return upper_tail_threshold(null.mis, alpha, n_tests=n_tests, correction=correction)


def per_pair_pvalues(
    weights: "np.ndarray | WeightSource",
    pairs: np.ndarray,
    n_permutations: int = 100,
    seed=None,
    base: str = "nat",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-pair permutation test (the slow path).

    For each pair, builds its own null of ``n_permutations`` MIs and returns
    ``(observed_mi, pvalues)``.  Cost is ``q`` times the pair MI cost — this
    is the path the pooled null exists to avoid; provided for validation and
    for small candidate sets (e.g. re-testing the edges that survived the
    pooled threshold).

    The permutation dimension is vectorized: all ``q`` permuted copies of
    ``Wx`` are stacked into a ``(q, m, b)`` tensor and the ``q`` joint
    matrices come from one batched matmul.  Each batch slice performs the identical GEMM and entropy
    reductions as the old one-permutation-at-a-time loop, so results are
    bit-identical (the regression test holds the old loop as reference).
    ``weights`` may be a :class:`~repro.core.exec.WeightSource`; each pair
    reads its two genes' rows through :meth:`~WeightSource.slab`.
    """
    source = as_source(weights)
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"expected (P, 2) pair array, got shape {pairs.shape}")
    n, m = source.n_genes, source.m_samples
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError(f"pair indices must lie in [0, {n}), got "
                         f"[{pairs.min()}, {pairs.max()}]")
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    rng = as_rng(seed)
    perms = permutation_matrix(n_permutations, m, rng)
    observed = np.empty(pairs.shape[0], dtype=np.float64)
    pvals = np.empty(pairs.shape[0], dtype=np.float64)
    for idx, (i, j) in enumerate(pairs):
        wx = source.slab(i, i + 1)[0]
        wy = source.slab(j, j + 1)[0]
        observed[idx] = mi_bspline_pair(wx, wy, base=base)
        wx_perms = wx[perms]  # (q, m, b)
        joint = np.matmul(wx_perms.transpose(0, 2, 1), wy).astype(np.float64, copy=False) / m
        null = batched_pair_mi(joint, base=base)
        exceed = int(np.count_nonzero(null >= observed[idx]))
        pvals[idx] = (1.0 + exceed) / (1.0 + n_permutations)
    return observed, pvals
