"""Tests for repro.analysis.compare and repro.baselines.partialcorr."""

import numpy as np
import pytest

from repro.analysis.compare import compare_networks
from repro.baselines.partialcorr import (
    ggm_network,
    partial_correlation_matrix,
    shrinkage_covariance,
)
from repro.core.network import GeneNetwork
from repro.core.threshold import top_k_adjacency


def make_net(edges, n=5):
    adj = np.zeros((n, n), dtype=bool)
    w = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
        w[i, j] = w[j, i] = 1.0
    return GeneNetwork(adj, w, [f"g{i}" for i in range(n)])


class TestCompareNetworks:
    def test_identical(self):
        a = make_net([(0, 1), (2, 3)])
        c = compare_networks(a, make_net([(0, 1), (2, 3)]))
        assert c.jaccard == 1.0
        assert c.hamming == 0
        assert c.n_common == 2

    def test_disjoint(self):
        c = compare_networks(make_net([(0, 1)]), make_net([(2, 3)]))
        assert c.jaccard == 0.0
        assert c.hamming == 2
        assert (c.n_only_a, c.n_only_b) == (1, 1)

    def test_partial_overlap(self):
        c = compare_networks(make_net([(0, 1), (1, 2)]), make_net([(0, 1), (3, 4)]))
        assert c.n_common == 1
        assert c.jaccard == pytest.approx(1 / 3)
        assert c.union == 3

    def test_empty_networks_jaccard_one(self):
        c = compare_networks(make_net([]), make_net([]))
        assert c.jaccard == 1.0
        assert np.isnan(c.degree_correlation)

    def test_degree_correlation(self):
        a = make_net([(0, 1), (0, 2), (0, 3)])  # hub at 0
        b = make_net([(0, 1), (0, 2), (0, 4)])  # hub at 0 too
        c = compare_networks(a, b)
        assert c.degree_correlation > 0.5

    def test_gene_list_mismatch(self):
        a = make_net([(0, 1)])
        b = make_net([(0, 1)], n=6)
        with pytest.raises(ValueError):
            compare_networks(a, b)


class TestShrinkageCovariance:
    def test_explicit_shrinkage_interpolates(self, rng):
        x = rng.normal(size=(4, 100))
        s0, _ = shrinkage_covariance(x, shrinkage=0.0)
        s1, _ = shrinkage_covariance(x, shrinkage=1.0)
        assert np.allclose(s1, np.eye(4) * np.trace(s0) / 4)

    def test_auto_shrinkage_in_bounds(self, rng):
        x = rng.normal(size=(10, 50))
        _, lam = shrinkage_covariance(x)
        assert 0.0 <= lam <= 1.0

    def test_more_samples_less_shrinkage(self, rng):
        x = rng.normal(size=(10, 2000))
        _, lam_big = shrinkage_covariance(x)
        _, lam_small = shrinkage_covariance(x[:, :30])
        assert lam_big < lam_small

    def test_invertible_when_underdetermined(self, rng):
        # More genes than samples: the sample covariance is singular, the
        # shrunk one must not be.
        x = rng.normal(size=(30, 10))
        sigma, lam = shrinkage_covariance(x)
        assert lam > 0
        np.linalg.inv(sigma)  # must not raise

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            shrinkage_covariance(rng.normal(size=10))
        with pytest.raises(ValueError):
            shrinkage_covariance(rng.normal(size=(3, 10)), shrinkage=2.0)


class TestPartialCorrelation:
    def test_chain_structure_separated(self, rng):
        """x -> y -> z: corr(x, z) is large but pcorr(x, z) ~ 0."""
        m = 3000
        x = rng.normal(size=m)
        y = x + 0.4 * rng.normal(size=m)
        z = y + 0.4 * rng.normal(size=m)
        data = np.vstack([x, y, z])
        pc = partial_correlation_matrix(data, shrinkage=0.0)
        marginal = abs(np.corrcoef(x, z)[0, 1])
        assert marginal > 0.6
        assert abs(pc[0, 2]) < 0.15
        assert pc[0, 1] > 0.4 and pc[1, 2] > 0.4

    def test_symmetric_zero_diag(self, rng):
        pc = partial_correlation_matrix(rng.normal(size=(6, 80)))
        assert np.allclose(pc, pc.T)
        assert np.all(np.diag(pc) == 0)
        assert pc.min() >= -1.0 and pc.max() <= 1.0

    def test_ggm_network_budget(self, rng):
        x = rng.normal(size=(8, 60))
        net = ggm_network(x, [f"g{i}" for i in range(8)], n_edges=5)
        assert net.n_edges == 5
