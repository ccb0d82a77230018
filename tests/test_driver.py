"""Tests for repro.core.driver: the auto-strategy orchestrator."""

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.core.driver import auto_reconstruct
from repro.data import yeast_subset


@pytest.fixture(scope="module")
def dataset():
    return yeast_subset(n_genes=30, m_samples=120, seed=66)


CFG = TingeConfig(n_permutations=12, seed=3)


class TestKernelSettings:
    def test_in_memory_honours_kernel_and_dtype(self, dataset):
        """The driver runs the config's kernel, not a hard-wired default:
        its MI matrix is the pipeline's, bit for bit."""
        cfg = TingeConfig(n_permutations=12, seed=3, kernel="sparse",
                          kernel_dtype="float32")
        out = auto_reconstruct(dataset.expression, dataset.genes, cfg)
        ref = reconstruct_network(dataset.expression, dataset.genes, config=cfg)
        assert out.strategy == "in-memory"
        assert np.array_equal(out.network.weights, ref.mi)

    def test_kernel_dtype_no_longer_ignored(self, dataset):
        default = auto_reconstruct(dataset.expression, dataset.genes, CFG)
        mixed = auto_reconstruct(dataset.expression, dataset.genes,
                                 TingeConfig(n_permutations=12, seed=3,
                                             kernel_dtype="float32"))
        assert not np.array_equal(default.network.weights, mixed.network.weights)
        np.testing.assert_allclose(mixed.network.weights, default.network.weights,
                                   rtol=0, atol=5e-6)


class TestStrategySelection:
    def test_small_run_in_memory(self, dataset):
        out = auto_reconstruct(dataset.expression, dataset.genes, CFG)
        assert out.strategy == "in-memory"
        assert out.artifacts == {}

    def test_checkpoint_threshold_triggers(self, dataset, tmp_path):
        out = auto_reconstruct(dataset.expression, dataset.genes, CFG,
                               workdir=tmp_path, checkpoint_threshold=10)
        assert out.strategy == "checkpointed"
        assert (tmp_path / "checkpoint").exists()

    def test_tiny_budget_goes_out_of_core(self, dataset, tmp_path):
        out = auto_reconstruct(dataset.expression, dataset.genes, CFG,
                               workdir=tmp_path, mem_budget_gb=1e-6)
        assert out.strategy == "out-of-core"
        assert out.artifacts["mi_store"].exists()
        assert out.artifacts["weight_store"].exists()

    def test_non_memory_strategy_needs_workdir(self, dataset):
        with pytest.raises(ValueError, match="workdir"):
            auto_reconstruct(dataset.expression, dataset.genes, CFG,
                             mem_budget_gb=1e-6)


class TestStrategyEquivalence:
    def test_all_strategies_same_network(self, dataset, tmp_path):
        ref = auto_reconstruct(dataset.expression, dataset.genes, CFG)
        ck = auto_reconstruct(dataset.expression, dataset.genes, CFG,
                              workdir=tmp_path / "ck", checkpoint=True)
        # Out-of-core computes in float32 weights by default config; force
        # float64 for bit-equality.
        cfg64 = TingeConfig(n_permutations=12, seed=3, dtype="float64")
        ref64 = auto_reconstruct(dataset.expression, dataset.genes, cfg64)
        ooc = auto_reconstruct(dataset.expression, dataset.genes, cfg64,
                               workdir=tmp_path / "ooc", mem_budget_gb=1e-6)
        assert np.array_equal(ck.network.adjacency, ref.network.adjacency)
        assert np.allclose(ooc.network.weights, ref64.network.weights, atol=1e-12)
        assert np.array_equal(ooc.network.adjacency, ref64.network.adjacency)

    def test_matches_pipeline(self, dataset):
        auto = auto_reconstruct(dataset.expression, dataset.genes, CFG)
        pipe = reconstruct_network(dataset.expression, dataset.genes, CFG)
        assert np.array_equal(auto.network.adjacency, pipe.network.adjacency)
        assert auto.network.threshold == pytest.approx(pipe.network.threshold)


class TestExactRetest:
    """Regression: the driver used to skip the exact re-test stage and
    return the un-retested pooled-threshold network."""

    CFG = TingeConfig(exact_retest=True, retest_permutations=30, alpha=0.2,
                      correction="none")

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(1).normal(size=(40, 100))

    @pytest.mark.parametrize("strategy_kwargs", [
        {},
        {"checkpoint": True},
        {"mem_budget_gb": 1e-6},
    ], ids=["in-memory", "checkpointed", "out-of-core"])
    def test_matches_pipeline(self, data, tmp_path, strategy_kwargs):
        ref = reconstruct_network(data, config=self.CFG)
        plain = reconstruct_network(
            data, config=TingeConfig(alpha=0.2, correction="none"))
        assert ref.network.n_edges < plain.network.n_edges
        out = auto_reconstruct(data, config=self.CFG, workdir=tmp_path,
                               **strategy_kwargs)
        assert np.array_equal(out.network.adjacency, ref.network.adjacency)


class TestArtifacts:
    def test_network_and_edges_written(self, dataset, tmp_path):
        out = auto_reconstruct(dataset.expression, dataset.genes, CFG,
                               workdir=tmp_path, checkpoint=True)
        from repro.core import GeneNetwork
        from repro.data.io import read_edge_list

        net = GeneNetwork.load(out.artifacts["network"])
        assert net.n_edges == out.network.n_edges
        assert len(read_edge_list(out.artifacts["edges"])) == net.n_edges

    def test_resume_after_partial_checkpoint(self, dataset, tmp_path):
        from repro.core.bspline import weight_tensor
        from repro.core.checkpoint import mi_matrix_checkpointed
        from repro.core.discretize import rank_transform

        # Pre-populate a partial checkpoint, then let the driver finish it.
        weights = weight_tensor(rank_transform(dataset.expression),
                                dtype=np.float64)
        ck = tmp_path / "checkpoint"
        cfg = TingeConfig(n_permutations=12, seed=3, dtype="float64", tile=8)
        mi_matrix_checkpointed(weights, ck, tile=8, interrupt_after_rows=1)
        out = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                               workdir=tmp_path, checkpoint=True)
        ref = auto_reconstruct(dataset.expression, dataset.genes, cfg)
        assert np.array_equal(out.network.adjacency, ref.network.adjacency)


class TestCorrectionSupport:
    def test_bh_rejected_not_silently_downgraded(self, dataset):
        # Regression: correction="bh" used to be silently swapped for
        # Bonferroni — a different statistical procedure.
        cfg = TingeConfig(n_permutations=12, seed=3, correction="bh")
        with pytest.raises(ValueError, match="bh"):
            auto_reconstruct(dataset.expression, dataset.genes, cfg)

    def test_supported_corrections_run(self, dataset):
        for correction in ("bonferroni", "none"):
            cfg = TingeConfig(n_permutations=12, seed=3, correction=correction)
            out = auto_reconstruct(dataset.expression, dataset.genes, cfg)
            assert out.strategy == "in-memory"


class TestNullGeneSubset:
    def test_small_n_uses_every_gene(self):
        from repro.core.driver import _null_gene_subset

        assert np.array_equal(_null_gene_subset(30, 2048, seed=3), np.arange(30))
        assert np.array_equal(_null_gene_subset(2048, 2048, seed=3), np.arange(2048))

    def test_large_n_samples_randomly(self):
        # Regression: the null used to be built from the *first* 2048
        # genes — a contiguous, potentially biased slice.
        from repro.core.driver import _null_gene_subset

        subset = _null_gene_subset(10000, 2048, seed=3)
        assert subset.size == 2048
        assert np.unique(subset).size == 2048
        assert np.array_equal(subset, np.sort(subset))
        assert not np.array_equal(subset, np.arange(2048)), \
            "subset must not be the contiguous prefix"
        # Deterministic in the run's seed, different across seeds.
        assert np.array_equal(subset, _null_gene_subset(10000, 2048, seed=3))
        assert not np.array_equal(subset, _null_gene_subset(10000, 2048, seed=4))

    def test_degenerate_cap_rejected(self):
        from repro.core.driver import _null_gene_subset

        with pytest.raises(ValueError):
            _null_gene_subset(10, 1, seed=0)

    def test_out_of_core_runs_deterministic(self, dataset, tmp_path):
        cfg = TingeConfig(n_permutations=12, seed=3, dtype="float64")
        a = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                             workdir=tmp_path / "a", mem_budget_gb=1e-6)
        b = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                             workdir=tmp_path / "b", mem_budget_gb=1e-6)
        assert a.strategy == b.strategy == "out-of-core"
        assert np.array_equal(a.network.adjacency, b.network.adjacency)
        assert a.network.threshold == b.network.threshold


class TestEngineWiring:
    @pytest.mark.parametrize("strategy_kwargs", [
        {},
        {"checkpoint": True},
        {"mem_budget_gb": 1e-6},
    ], ids=["in-memory", "checkpointed", "out-of-core"])
    def test_sharedmem_engine_matches_serial(self, dataset, tmp_path, strategy_kwargs):
        from repro.parallel import SharedMemoryEngine

        cfg = TingeConfig(n_permutations=12, seed=3, dtype="float64")
        kwargs = dict(strategy_kwargs)
        if kwargs:
            kwargs["workdir"] = tmp_path / "eng"
        ref_kwargs = {k: (tmp_path / "ref" if k == "workdir" else v)
                      for k, v in kwargs.items()}
        ref = auto_reconstruct(dataset.expression, dataset.genes, cfg, **ref_kwargs)
        out = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                               engine=SharedMemoryEngine(n_workers=2), **kwargs)
        assert np.array_equal(out.network.adjacency, ref.network.adjacency)
        assert out.network.threshold == ref.network.threshold


class TestValidation:
    def test_exact_mode_rejected(self, dataset):
        cfg = TingeConfig(testing="exact", correction="none", alpha=0.05)
        with pytest.raises(ValueError, match="pooled"):
            auto_reconstruct(dataset.expression, dataset.genes, cfg)

    def test_nan_rejected(self, dataset):
        bad = dataset.expression.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="impute"):
            auto_reconstruct(bad, dataset.genes, CFG)

    def test_too_few_samples_rejected(self, dataset):
        # Regression: m < 2 * order used to return a 0-edge network.
        with pytest.raises(ValueError, match="need at least 6 samples"):
            auto_reconstruct(dataset.expression[:, :4], dataset.genes, CFG)

    def test_gene_count_mismatch_rejected_before_any_phase(self, dataset):
        # Regression: a wrong-length gene list used to fail only after the
        # whole MI phase had run.
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with pytest.raises(ValueError, match="gene names"):
            auto_reconstruct(dataset.expression, dataset.genes[:-1], CFG,
                             tracer=tracer)
        assert tracer.spans == []
        assert tracer.counters.get("tiles_done", 0) == 0

    def test_bad_budget(self, dataset):
        with pytest.raises(ValueError):
            auto_reconstruct(dataset.expression, dataset.genes, CFG,
                             mem_budget_gb=0.0)
