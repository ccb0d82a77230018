"""Tests for repro.core.threshold and repro.core.network."""

import numpy as np
import pytest

from repro.core.network import GeneNetwork
from repro.core.permutation import NullDistribution
from repro.core.threshold import fdr_adjacency, threshold_adjacency, top_k_adjacency


def make_mi(n=5, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0, 1, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestThresholdAdjacency:
    def test_strict_threshold(self):
        mi = make_mi()
        adj = threshold_adjacency(mi, 0.5)
        iu = np.triu_indices(5, 1)
        assert np.array_equal(adj[iu], mi[iu] > 0.5)

    def test_no_self_loops(self):
        adj = threshold_adjacency(make_mi(), -1.0)
        assert not adj.diagonal().any()

    def test_symmetric(self):
        adj = threshold_adjacency(make_mi(), 0.3)
        assert np.array_equal(adj, adj.T)

    def test_infinite_threshold_empty(self):
        assert threshold_adjacency(make_mi(), np.inf).sum() == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            threshold_adjacency(np.zeros((2, 3)), 0.1)


class TestFdrAdjacency:
    def test_strong_edges_survive(self):
        mi = np.zeros((4, 4))
        mi[0, 1] = mi[1, 0] = 5.0
        null = NullDistribution(
            mis=np.random.default_rng(0).uniform(0, 1, 500), n_permutations=10,
            n_pairs_sampled=50,
        )
        adj, pvals = fdr_adjacency(mi, null, alpha=0.05)
        assert adj[0, 1] and adj[1, 0]
        assert adj.sum() == 2
        assert pvals[0, 1] < 0.01
        assert pvals[2, 3] == pytest.approx(1.0)

    def test_pvalue_matrix_symmetric(self):
        mi = make_mi()
        null = NullDistribution(np.random.default_rng(1).uniform(0, 2, 300), 10, 30)
        _, pvals = fdr_adjacency(mi, null)
        assert np.array_equal(pvals, pvals.T)
        assert np.all(np.diag(pvals) == 1.0)


class TestTopKAdjacency:
    def test_exact_edge_count(self):
        adj = top_k_adjacency(make_mi(8), 5)
        assert adj.sum() == 10  # 5 undirected edges

    def test_keeps_largest(self):
        mi = np.zeros((3, 3))
        mi[0, 1] = mi[1, 0] = 0.9
        mi[1, 2] = mi[2, 1] = 0.1
        adj = top_k_adjacency(mi, 1)
        assert adj[0, 1] and not adj[1, 2]

    def test_k_zero(self):
        assert top_k_adjacency(make_mi(), 0).sum() == 0

    def test_k_exceeds_pairs(self):
        adj = top_k_adjacency(make_mi(4), 100)
        assert adj.sum() == 12  # all 6 pairs

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            top_k_adjacency(make_mi(), -1)


def _tied_network(n=40, seed=3):
    """A network whose edge weights have many ties (rounded MI)."""
    mi = np.round(make_mi(n, seed=seed), 1)
    adj = mi > 0.5
    return GeneNetwork(adjacency=adj, weights=mi,
                       genes=[f"g{i:02d}" for i in range(n)], threshold=0.5)


class TestGeneNetwork:
    @pytest.fixture
    def net(self):
        mi = make_mi(4, seed=1)
        adj = top_k_adjacency(mi, 3)
        return GeneNetwork(adjacency=adj, weights=mi, genes=["a", "b", "c", "d"])

    def test_counts(self, net):
        assert net.n_genes == 4
        assert net.n_edges == 3
        assert net.density == pytest.approx(0.5)

    def test_edge_list_sorted_desc(self, net):
        edges = net.edge_list()
        assert len(edges) == 3
        weights = [w for _, _, w in edges]
        assert weights == sorted(weights, reverse=True)

    def test_edge_set_names(self, net):
        for a, b in net.edge_set():
            assert a in net.genes and b in net.genes

    def test_degrees_sum_twice_edges(self, net):
        assert net.degrees().sum() == 2 * net.n_edges

    def test_neighbors_by_name_and_index(self, net):
        edges = net.edge_set()
        for g in net.genes:
            for nb in net.neighbors(g):
                pair = (g, nb) if g <= nb else (nb, g)
                assert pair in edges
        assert net.neighbors(0) == net.neighbors("a")

    def test_to_networkx(self, net):
        g = net.to_networkx()
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 3

    def test_subnetwork(self, net):
        sub = net.subnetwork(["a", "b"])
        assert sub.n_genes == 2
        assert sub.adjacency[0, 1] == net.adjacency[0, 1]

    def test_save_load_roundtrip(self, net, tmp_path):
        path = tmp_path / "net.npz"
        net.save(path)
        back = GeneNetwork.load(path)
        assert np.array_equal(back.adjacency, net.adjacency)
        assert np.allclose(back.weights, net.weights)
        assert back.genes == net.genes

    def test_save_is_uncompressed_and_bitwise(self, tmp_path):
        import zipfile

        net = _tied_network()
        path = tmp_path / "net.npz"
        net.save(path)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        back = GeneNetwork.load(path)
        assert back.weights.tobytes() == net.weights.tobytes()
        assert np.array_equal(back.adjacency, net.adjacency)
        assert back.genes == net.genes
        assert back.threshold == net.threshold
        assert back.edge_list() == net.edge_list()

    def test_loads_compressed_files_of_the_old_layout(self, tmp_path):
        net = _tied_network()
        path = tmp_path / "old.npz"
        np.savez_compressed(path, adjacency=net.adjacency, weights=net.weights,
                            genes=np.asarray(net.genes, dtype=object),
                            threshold=np.float64(net.threshold))
        back = GeneNetwork.load(path)
        assert back.weights.tobytes() == net.weights.tobytes()
        assert np.array_equal(back.adjacency, net.adjacency)
        assert back.genes == net.genes and back.threshold == net.threshold

    def test_edge_list_equals_per_element_form(self):
        net = _tied_network()
        rows, cols = np.nonzero(np.triu(net.adjacency, k=1))
        mi = net.weights[rows, cols]
        order = np.argsort(mi, kind="stable")[::-1]
        expected = [(net.genes[rows[e]], net.genes[cols[e]], float(mi[e]))
                    for e in order]
        edges = net.edge_list()
        assert edges == expected
        assert all(type(w) is float for _, _, w in edges)
        weights = [w for _, _, w in edges]
        assert weights == sorted(weights, reverse=True)
        assert len(set(weights)) < len(weights)  # ties exercised

    def test_rejects_asymmetric(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            GeneNetwork(adj, np.zeros((3, 3)), ["x", "y", "z"])

    def test_rejects_self_loop(self):
        adj = np.eye(3, dtype=bool)
        with pytest.raises(ValueError):
            GeneNetwork(adj, np.zeros((3, 3)), ["x", "y", "z"])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GeneNetwork(np.zeros((2, 2), dtype=bool), np.zeros((3, 3)), ["x", "y"])
