"""Tests for edge orientation (perturbation evidence)."""

import numpy as np
import pytest

from repro.analysis.direction import (
    DirectedEdge,
    knockout_response_zscores,
    orient_edges,
)
from repro.core.network import GeneNetwork
from repro.data.grn import scale_free_grn
from repro.data.perturbation import simulate_perturbations


@pytest.fixture(scope="module")
def panel():
    truth = scale_free_grn(25, n_regulators=3, mean_in_degree=2.0, seed=9)
    return truth, simulate_perturbations(
        truth, m_observational=150, replicates=20, noise_sd=0.15, seed=10
    )


class TestKnockoutZscores:
    def test_targets_respond(self, panel):
        truth, p = panel
        reg = int(truth.edges[0, 0])
        z = knockout_response_zscores(p, reg)
        targets = truth.edges[truth.edges[:, 0] == reg][:, 1]
        assert max(abs(z[t]) for t in targets) > 3.0

    def test_perturbed_gene_nan(self, panel):
        truth, p = panel
        reg = int(truth.edges[0, 0])
        assert np.isnan(knockout_response_zscores(p, reg)[reg])

    def test_unperturbed_gene_rejected(self, panel):
        _, p = panel
        with pytest.raises(ValueError, match="never perturbed"):
            knockout_response_zscores(p, 24)


class TestOrientEdges:
    def test_true_direction_recovered(self, panel):
        truth, p = panel
        # Build the true undirected network and orient it with the panel.
        adj = truth.adjacency()
        net = GeneNetwork(adj, adj.astype(float), truth.genes)
        oriented = orient_edges(net, p, min_z=3.0)
        assert oriented
        true_directed = {(truth.genes[int(r)], truth.genes[int(t)])
                         for r, t in truth.edges}
        correct = sum((e.regulator, e.target) in true_directed for e in oriented)
        assert correct / len(oriented) > 0.7

    def test_sorted_by_confidence(self, panel):
        truth, p = panel
        adj = truth.adjacency()
        net = GeneNetwork(adj, adj.astype(float), truth.genes)
        oriented = orient_edges(net, p)
        confs = [e.confidence for e in oriented]
        assert confs == sorted(confs, reverse=True)

    def test_no_evidence_edges_skipped(self, panel):
        truth, p = panel
        # An artificial edge between two never-perturbed genes is skipped.
        adj = np.zeros((25, 25), dtype=bool)
        adj[20, 21] = adj[21, 20] = True
        net = GeneNetwork(adj, adj.astype(float), truth.genes)
        assert orient_edges(net, p) == []

    def test_validation(self, panel):
        truth, p = panel
        adj = truth.adjacency()
        net = GeneNetwork(adj, adj.astype(float), truth.genes)
        with pytest.raises(ValueError):
            orient_edges(net, p, min_z=0.0)

    def test_confidence_nan_safe(self):
        e = DirectedEdge("a", "b", z_forward=5.0, z_reverse=float("nan"))
        assert e.confidence == 5.0

