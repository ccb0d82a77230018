"""Gap-filling edge-case tests across modules.

Covers branches the mainline tests don't reach: degenerate inputs, print
wrappers, boundary indices, and rarely-taken options.
"""

import numpy as np
import pytest

from repro.analysis.accuracy import aupr, pr_curve
from repro.bench.reporting import print_series, print_table
from repro.core.bspline import packed_weights, unpack_weights
from repro.core.consensus import bootstrap_networks
from repro.core.network import GeneNetwork
from repro.data.grn import GroundTruthNetwork
from repro.machine.costmodel import KernelProfile
from repro.machine.simulator import MachineSimulator, simulate_workload, speedup_curve
from repro.machine.spec import XEON_PHI_5110P
from repro.machine.trace import render_gantt
from repro.parallel.engine import SerialEngine
from repro import TingeConfig


class TestPrintWrappers:
    def test_print_table(self, capsys):
        print_table([{"a": 1}], title="T")
        out = capsys.readouterr().out
        assert "T" in out and "a" in out

    def test_print_series(self, capsys):
        print_series([1, 2], [3, 4], "x", "y", title="S")
        out = capsys.readouterr().out
        assert "S" in out and "4" in out


class TestNetworkEdges:
    def test_neighbors_invalid_index(self):
        adj = np.zeros((2, 2), dtype=bool)
        net = GeneNetwork(adj, adj.astype(float), ["a", "b"])
        with pytest.raises(IndexError):
            net.neighbors(5)

    def test_neighbors_unknown_name(self):
        adj = np.zeros((2, 2), dtype=bool)
        net = GeneNetwork(adj, adj.astype(float), ["a", "b"])
        with pytest.raises(ValueError):
            net.neighbors("zz")

    def test_density_of_single_pair(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        net = GeneNetwork(adj, adj.astype(float), ["a", "b"])
        assert net.density == 1.0

    def test_edge_list_empty(self):
        adj = np.zeros((3, 3), dtype=bool)
        net = GeneNetwork(adj, adj.astype(float), list("abc"))
        assert net.edge_list() == []
        assert net.edge_set() == set()


class TestAccuracyEdges:
    def test_pr_curve_no_true_edges(self):
        truth = GroundTruthNetwork(n_genes=3, edges=np.empty((0, 2), dtype=int),
                                   strengths=np.empty(0))
        scores = np.zeros((3, 3))
        recall, precision = pr_curve(scores, truth)
        assert np.all(recall == 0.0)
        assert aupr(scores, truth) == 0.0


class TestPackedWeightsEdges:
    def test_all_zero_row_packs_safely(self):
        # A zero row (invalid basis output, but the packer must not crash).
        w = np.zeros((2, 6))
        w[1, 2:5] = [0.25, 0.5, 0.25]
        values, first = packed_weights(w, 3)
        back = unpack_weights(values, first, 6)
        assert np.allclose(back, w)


class TestSimulatorEdges:
    def test_speedup_curve_monotone(self):
        curve = speedup_curve(XEON_PHI_5110P, 200, 256, [1, 2, 4])
        assert curve["speedup"][0] == pytest.approx(1.0)
        assert curve["speedup"][2] > curve["speedup"][1]

    def test_two_gene_workload(self):
        res = simulate_workload(XEON_PHI_5110P, 2, 64, n_threads=1)
        assert res.makespan > 0
        assert res.n_tiles == 1

    def test_gantt_clips_threads(self):
        sim = MachineSimulator(XEON_PHI_5110P, KernelProfile(m_samples=128))
        res = sim.run(100, 12, record_trace=True)
        out = render_gantt(res, width=30, max_threads=4)
        assert len(out.splitlines()) == 5  # header + 4 of the 12 threads


class TestConsensusEdges:
    def test_engine_forwarded(self, rng):
        data = rng.normal(size=(8, 60))
        res = bootstrap_networks(
            data, config=TingeConfig(n_permutations=5),
            n_rounds=2, seed=0, engine=SerialEngine(),
        )
        assert res.n_rounds == 2

    def test_full_fraction_uses_all_samples(self, rng):
        data = rng.normal(size=(6, 40))
        a = bootstrap_networks(data, config=TingeConfig(n_permutations=5),
                               n_rounds=2, subsample_fraction=1.0, seed=1)
        assert a.frequency.shape == (6, 6)

    def test_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            bootstrap_networks(rng.normal(size=(4, 30)), n_rounds=1,
                               subsample_fraction=0.0)


class TestExactBonferroniSuccessPath:
    def test_enough_permutations_pass_guard(self, rng):
        from repro import reconstruct_network

        x = rng.normal(size=120)
        data = np.vstack([x, x + 0.05 * rng.normal(size=120), rng.normal(size=(2, 120))])
        # 6 pairs at alpha 0.05 -> need q + 1 >= 120; use q = 150.
        cfg = TingeConfig(testing="exact", correction="bonferroni",
                          alpha=0.05, n_permutations=150)
        res = reconstruct_network(data, genes=list("abcd"), config=cfg)
        assert res.network.adjacency[0, 1]
