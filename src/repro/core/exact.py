"""Exact (fused) permutation testing over the whole pair matrix.

This is the formulation the paper's kernel actually executes on the Phi:
for every tile of gene pairs, the observed MI *and* its ``q`` permuted
replicas are computed in one pass while the weight slabs are hot in cache
— the permutation loop is the innermost reuse level, which is why the cost
model charges ``(1 + q)`` MI evaluations per pair with no extra memory
traffic (:class:`repro.machine.costmodel.KernelProfile`).  Each tile runs
through :func:`repro.core.exec.compute_tile`, which reruns the MI pass's
fused block on permuted row operands.

The pooled-null pipeline (:mod:`repro.core.permutation`) is the cheap
statistical shortcut; this module is the exact counterpart: a per-pair
add-one p-value for every one of the ``n(n-1)/2`` pairs.  Cost is
``(1 + q)x`` the plain MI matrix — use it when ``q`` is small or exactness
is required; tests cross-validate the two paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exec import (
    MatrixSink,
    as_source,
    mirror_upper,
    plan_run,
    run_tile_plan,
)
from repro.stats.random import as_rng, permutation_matrix

__all__ = ["ExactSink", "ExactTestResult", "exact_mi_pvalues"]


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
    quarantined:
        Tiles abandoned under the fault policy; their pairs have MI 0 and
        p-value 1, so they never become edges.
    """

    mi: np.ndarray
    pvalues: np.ndarray
    n_permutations: int
    quarantined: list = field(default_factory=list)

    @property
    def n_genes(self) -> int:
        return self.mi.shape[0]


class ExactSink(MatrixSink):
    """The exact tester's sink: one ``(n, n, 2)`` buffer of
    observed MI and null-exceedance counts per pair."""

    span_name = "exact_mi"

    def __init__(self, n: int, n_permutations: int):
        self.out = np.zeros((n, n, 2), dtype=np.float64)
        self.n_permutations = n_permutations

    def span_meta(self, plan) -> dict:
        return {**super().span_meta(plan), "n_permutations": self.n_permutations}

    def buffer(self) -> np.ndarray:
        return self.out

    def finalize(self) -> ExactTestResult:
        """Counts become add-one p-values in place; both channels mirror."""
        mi, pvals = self.out[..., 0], self.out[..., 1]
        pvals += 1.0
        pvals /= 1.0 + self.n_permutations
        for q in self.quarantined:  # untested: a zero count reads as p = 1/(q+1)
            pvals[q.i0 : q.i1, q.j0 : q.j1] = 1.0
        for channel, diagonal in ((mi, 0.0), (pvals, 1.0)):
            mirror_upper(channel)
            np.fill_diagonal(channel, diagonal)
        return ExactTestResult(mi, pvals, self.n_permutations, self.quarantined)


def exact_mi_pvalues(
    weights: np.ndarray,
    n_permutations: int = 30,
    tile: int | None = None,
    seed=None,
    base: str = "nat",
    engine=None,
    progress=None,
    tracer=None,
    schedule=None,
    policy=None,
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
    tile, engine, base, progress, tracer, schedule, policy:
        As in :func:`repro.core.mi_matrix.mi_matrix`: the grid runs through
        :func:`repro.core.exec.run_tile_plan` into an :class:`ExactSink`,
        with the MI phase's schedules, retries, fallback, quarantine,
        progress and ``tiles_done`` / ``pairs_done`` counters.
    """
    source = as_source(weights)
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    perms = permutation_matrix(n_permutations, source.m_samples, as_rng(seed))
    plan, _ = plan_run(source, tile=tile, base=base, schedule=schedule)
    return run_tile_plan(plan, source, ExactSink(source.n_genes, n_permutations),
                         engine=engine, tracer=tracer, progress=progress,
                         policy=policy, permutations=perms)
