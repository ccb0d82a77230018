"""End-to-end integration tests across subpackages.

These exercise the flows a downstream user actually runs: data generation
→ pipeline → analysis → serialization; engines against each other; the
machine model against measured host behaviour; statistical calibration of
the whole significance machinery.
"""

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.analysis import aupr, score_network, summarize
from repro.baselines import dpi_prune, estimate_cluster_run, pearson_matrix
from repro.core import GeneNetwork
from repro.data import (
    load_dataset,
    microarray_dataset,
    save_dataset,
    toy,
    write_expression_tsv,
    read_expression_tsv,
    yeast_subset,
)
from repro.machine import KernelProfile, MachineSimulator, XEON_PHI_5110P
from repro.parallel import SerialEngine, SharedMemoryEngine, ThreadEngine


class TestFullWorkflow:
    def test_generate_reconstruct_analyze_roundtrip(self, tmp_path):
        ds = yeast_subset(n_genes=50, m_samples=200, seed=10)
        save_dataset(ds, tmp_path / "ds.npz")
        ds2 = load_dataset(tmp_path / "ds.npz")

        res = reconstruct_network(ds2.expression, ds2.genes,
                                  TingeConfig(n_permutations=20))
        res.network.save(tmp_path / "net.npz")
        net = GeneNetwork.load(tmp_path / "net.npz")

        c = score_network(net, ds2.truth)
        assert c.recall > 0.5  # real dependencies are found
        s = summarize(net)
        assert s.n_genes == 50

    def test_tsv_pathway_matches_npz_pathway(self, tmp_path):
        ds = toy(n_genes=15, m_samples=80, seed=4)
        write_expression_tsv(ds, tmp_path / "ds.tsv")
        ds_tsv = read_expression_tsv(tmp_path / "ds.tsv")
        cfg = TingeConfig(n_permutations=10, seed=2)
        a = reconstruct_network(ds.expression, ds.genes, cfg)
        b = reconstruct_network(ds_tsv.expression, ds_tsv.genes, cfg)
        # TSV stores 6 significant digits; the rank transform absorbs the
        # rounding, so the networks must be identical.
        assert np.array_equal(a.network.adjacency, b.network.adjacency)

    def test_microarray_noise_pipeline_still_recovers(self):
        ds = microarray_dataset(n_genes=40, m_samples=300, dropout=0.02, seed=5)
        res = reconstruct_network(ds.expression, ds.genes,
                                  TingeConfig(n_permutations=20, alpha=0.05))
        assert aupr(res.mi, ds.truth) > 3 * (
            ds.truth.n_edges / (40 * 39 / 2)
        )

    def test_dpi_improves_precision_on_hub_data(self):
        ds = yeast_subset(n_genes=60, m_samples=300, seed=42)
        res = reconstruct_network(ds.expression, ds.genes,
                                  TingeConfig(n_permutations=25))
        raw = score_network(res.network, ds.truth)
        pruned_net = GeneNetwork(
            dpi_prune(res.mi, res.network.adjacency, tolerance=0.1),
            res.mi, res.network.genes,
        )
        pruned = score_network(pruned_net, ds.truth)
        assert pruned.precision > raw.precision


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def dataset(self):
        return yeast_subset(n_genes=40, m_samples=150, seed=8)

    def test_all_engines_same_network(self, dataset):
        cfg = TingeConfig(n_permutations=10, seed=1)
        nets = []
        for engine in (None, SerialEngine(), ThreadEngine(n_workers=3),
                       SharedMemoryEngine(n_workers=2)):
            res = reconstruct_network(dataset.expression, dataset.genes, cfg,
                                      engine=engine)
            nets.append(res.network)
        ref = nets[0]
        for net in nets[1:]:
            assert np.array_equal(net.adjacency, ref.adjacency)
            assert np.allclose(net.weights, ref.weights)


class TestModelVsMeasurement:
    def test_simulator_matches_measured_quadratic_shape(self):
        """The machine model and the real host must agree on *shape*:
        doubling genes ~quadruples time on both."""
        import time

        from repro.core.bspline import weight_tensor
        from repro.core.discretize import rank_transform
        from repro.core.mi_matrix import mi_matrix

        rng = np.random.default_rng(3)
        data = rank_transform(rng.normal(size=(256, 200)))
        w = weight_tensor(data, dtype=np.float32)

        def measure(n):
            t0 = time.perf_counter()
            mi_matrix(w[:n], tile=32)
            return time.perf_counter() - t0

        measure(64)  # warm
        host_ratio = measure(256) / measure(128)

        sim = MachineSimulator(XEON_PHI_5110P, KernelProfile(m_samples=200))
        model_ratio = sim.predict_seconds(256, 240) / sim.predict_seconds(128, 240)
        assert host_ratio == pytest.approx(model_ratio, rel=0.5)

    def test_cluster_vs_chip_tradeoff(self):
        """The paper's core claim shape: one Phi ~ a 1024-core cluster
        within a small factor."""
        from repro.machine import BLUEGENE_L_1024

        profile = KernelProfile(m_samples=3137, n_permutations_fused=30)
        phi = MachineSimulator(XEON_PHI_5110P, profile).predict_seconds(15575, 240)
        cluster = estimate_cluster_run(BLUEGENE_L_1024, 15575, profile).total
        assert 1.0 < phi / cluster < 4.0


class TestStatisticalCalibration:
    def test_false_positive_rate_controlled(self):
        """On pure-noise data the Bonferroni-corrected pipeline emits ~no
        edges across repeated runs."""
        total_edges = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(12, 150))
            res = reconstruct_network(
                data, config=TingeConfig(n_permutations=40, alpha=0.05,
                                         seed=seed),
            )
            total_edges += res.network.n_edges
        assert total_edges <= 3  # 5 runs x 66 pairs, FWER 0.05 each

    def test_power_grows_with_samples(self):
        """More samples -> more true edges recovered at fixed alpha."""
        recalls = []
        for m in (60, 400):
            ds = yeast_subset(n_genes=30, m_samples=m, seed=6)
            res = reconstruct_network(ds.expression, ds.genes,
                                      TingeConfig(n_permutations=25, seed=0))
            recalls.append(score_network(res.network, ds.truth).recall)
        assert recalls[1] > recalls[0]

    def test_mi_beats_pearson_on_nonlinear(self):
        ds = yeast_subset(n_genes=80, m_samples=400, seed=3)
        res = reconstruct_network(ds.expression, ds.genes,
                                  TingeConfig(n_permutations=20))
        assert aupr(res.mi, ds.truth) > aupr(
            np.abs(pearson_matrix(ds.expression)), ds.truth
        )
