"""Cross-module property-based tests (hypothesis).

Information-theoretic and structural invariants that must hold for *any*
input, exercised with generated data: these are the properties the whole
reconstruction's correctness rests on.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.entropy import marginal_entropies
from repro.core.mi import mi_bspline, mi_tile
from repro.core.mi_matrix import mi_matrix
from repro.core.threshold import threshold_adjacency, top_k_adjacency
from repro.parallel.scheduler import DynamicScheduler, StaticScheduler


def gene_matrix(seed, n, m):
    return np.random.default_rng(seed).normal(size=(n, m))


class TestInformationInequalities:
    @given(seed=st.integers(0, 300), m=st.integers(25, 120))
    @settings(max_examples=40, deadline=None)
    def test_mi_bounded_by_marginal_entropies(self, seed, m):
        """I(X;Y) <= min(H(X), H(Y)) for the plug-in estimator."""
        data = gene_matrix(seed, 2, m)
        w = weight_tensor(data)
        h = marginal_entropies(w)
        mi = mi_tile(w[:1], w[1:])[0, 0]
        assert mi <= min(h) + 1e-9

    @given(seed=st.integers(0, 300), m=st.integers(25, 120))
    @settings(max_examples=40, deadline=None)
    def test_self_mi_is_maximal_over_row(self, seed, m):
        """No gene shares more information with X than X itself does."""
        data = gene_matrix(seed, 4, m)
        w = weight_tensor(data)
        full = mi_tile(w, w)
        for i in range(4):
            assert full[i, i] == pytest.approx(full[i].max(), abs=1e-9)

    @given(seed=st.integers(0, 200), m=st.integers(30, 100), bins=st.integers(4, 14))
    @settings(max_examples=30, deadline=None)
    def test_mi_nonnegative_any_bins(self, seed, m, bins):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        order = min(3, bins)
        assert mi_bspline(x, y, bins=bins, order=order) >= 0.0

    @given(seed=st.integers(0, 200), m=st.integers(30, 100))
    @settings(max_examples=30, deadline=None)
    def test_rank_transform_does_not_create_dependence(self, seed, m):
        """Rank transforming preserves the *estimate* up to the estimator's
        binning granularity — in particular, MI before/after rank on the
        same data correlates in ordering."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=m)
        y_dep = x + 0.3 * rng.normal(size=m)
        y_ind = rng.normal(size=m)
        rx, rdep, rind = rank_transform(np.vstack([x, y_dep, y_ind]))
        assert mi_bspline(rx, rdep) > mi_bspline(rx, rind) - 1e-9


class TestPermutationInvariants:
    @given(seed=st.integers(0, 200), m=st.integers(20, 80))
    @settings(max_examples=30, deadline=None)
    def test_joint_permutation_preserves_mi(self, seed, m):
        """Permuting BOTH genes by the same permutation is a relabeling of
        samples: MI must be exactly invariant."""
        rng = np.random.default_rng(seed)
        data = gene_matrix(seed, 2, m)
        w = weight_tensor(data)
        perm = rng.permutation(m)
        a = mi_tile(w[:1], w[1:])[0, 0]
        wp = w[:, perm]
        b = mi_tile(wp[:1], wp[1:])[0, 0]
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_single_permutation_destroys_dependence(self, seed):
        """Permuting ONE strongly coupled gene must slash its MI."""
        rng = np.random.default_rng(seed)
        m = 200
        x = rng.normal(size=m)
        data = np.vstack([x, x + 0.1 * rng.normal(size=m)])
        w = weight_tensor(rank_transform(data))
        original = mi_tile(w[:1], w[1:])[0, 0]
        perm = rng.permutation(m)
        assume(np.count_nonzero(perm == np.arange(m)) < m // 4)
        permuted = mi_tile(w[:1][:, perm], w[1:])[0, 0]
        assert permuted < original / 3


class TestMatrixStructure:
    @given(seed=st.integers(0, 100), n=st.integers(3, 12),
           m=st.integers(25, 70), tile=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_mi_matrix_symmetric_psd_like(self, seed, n, m, tile):
        w = weight_tensor(gene_matrix(seed, n, m))
        res = mi_matrix(w, tile=tile)
        assert np.array_equal(res.mi, res.mi.T)
        assert (res.mi >= 0).all()
        assert np.all(np.diag(res.mi) == 0)

    @given(seed=st.integers(0, 100), n=st.integers(3, 10), k=st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_top_k_exact_count(self, seed, n, k):
        rng = np.random.default_rng(seed)
        s = rng.uniform(size=(n, n))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 0)
        adj = top_k_adjacency(s, k)
        assert adj.sum() == 2 * min(k, n * (n - 1) // 2)

    @given(seed=st.integers(0, 100), thr=st.floats(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_threshold_monotone(self, seed, thr):
        """Raising the threshold never adds edges."""
        rng = np.random.default_rng(seed)
        s = rng.uniform(size=(8, 8))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 0)
        low = threshold_adjacency(s, thr)
        high = threshold_adjacency(s, thr + 0.1)
        assert np.all(low | ~high)


class TestSchedulerProperties:
    @given(seed=st.integers(0, 200), n=st.integers(1, 80), p=st.integers(1, 24),
           chunk=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_dynamic_work_conservation_property(self, seed, n, p, chunk):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.01, 1.0, size=n)
        a = DynamicScheduler(chunk=chunk).simulate(costs, p)
        assert a.worker_loads.sum() == pytest.approx(costs.sum())
        assert a.makespan >= costs.max() - 1e-12
        assert a.makespan <= costs.sum() + 1e-12

    @given(seed=st.integers(0, 200), n=st.integers(1, 80), p=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_static_work_conservation_property(self, seed, n, p):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.01, 1.0, size=n)
        a = StaticScheduler().simulate(costs, p)
        assert a.worker_loads.sum() == pytest.approx(costs.sum())
