"""Tests for repro.core.driver: the auto-strategy orchestrator."""

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.core.driver import auto_reconstruct
from repro.core.pipeline import TingePipeline
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

    def test_tiny_budget_goes_codebook(self, dataset, tmp_path):
        out = auto_reconstruct(dataset.expression, dataset.genes, CFG,
                               workdir=tmp_path, mem_budget_gb=1e-6)
        assert out.strategy == "codebook"
        assert out.artifacts["checkpoint_dir"].exists()
        assert not list(tmp_path.rglob("*.npy"))  # no on-disk weight store

    @pytest.mark.parametrize("kernel,resident", [("fused", 3.0), ("sparse", 1.45)])
    def test_budget_counts_hoisted_operands(self, dataset, tmp_path, kernel,
                                            resident):
        # Regression: the budget used to count one dense tensor, while the
        # resident path also holds the kernel operands hoisted from it (two
        # same-size GEMM repackings for the fused kernel).
        n, m = dataset.expression.shape
        dense_gb = n * m * CFG.bins * 8 / 1e9
        cfg = TingeConfig(n_permutations=12, seed=3, kernel=kernel)
        tight = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                                 workdir=tmp_path, mem_budget_gb=0.99 * resident * dense_gb)
        roomy = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                                 mem_budget_gb=1.01 * resident * dense_gb)
        assert (tight.strategy, roomy.strategy) == ("codebook", "in-memory")

    def test_non_memory_strategy_needs_workdir(self, dataset):
        with pytest.raises(ValueError, match="workdir"):
            auto_reconstruct(dataset.expression, dataset.genes, CFG,
                             mem_budget_gb=1e-6)


class TestStrategyEquivalence:
    def test_all_strategies_same_network(self, dataset, tmp_path):
        for dtype in ("float64", "float32"):
            cfg = TingeConfig(n_permutations=12, seed=3, dtype=dtype)
            ref = auto_reconstruct(dataset.expression, dataset.genes, cfg)
            ck = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                                  workdir=tmp_path / dtype / "ck", checkpoint=True)
            cb = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                                  workdir=tmp_path / dtype / "cb", mem_budget_gb=1e-6)
            assert (ck.strategy, cb.strategy) == ("checkpointed", "codebook")
            for out in (ck, cb):
                assert np.array_equal(out.network.weights, ref.network.weights), dtype
                assert np.array_equal(out.network.adjacency, ref.network.adjacency)
                assert out.network.threshold == ref.network.threshold

    def test_codebook_null_matches_above_2048_genes(self, tmp_path):
        # Regression: above 2,048 genes the over-budget path drew its null
        # from a random 2,048-gene subset, so its null, and hence its
        # threshold, differed from the in-memory run's at the same seed.
        data = np.random.default_rng(4).normal(size=(2100, 12))
        cfg = TingeConfig(n_permutations=5, seed=3)
        ref = reconstruct_network(data, config=cfg)
        pipe = TingePipeline(cfg)
        null = pipe.null(pipe.codebook(pipe.transform(data)))
        assert null.mis.tobytes() == ref.null.mis.tobytes()
        out = auto_reconstruct(data, config=cfg, workdir=tmp_path,
                               mem_budget_gb=1e-6)
        assert out.strategy == "codebook"
        assert out.network.threshold == ref.network.threshold
        assert np.array_equal(out.network.weights, ref.mi)
        assert np.array_equal(out.network.adjacency, ref.network.adjacency)

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
    ], ids=["in-memory", "checkpointed", "codebook"])
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


class TestEngineWiring:
    @pytest.mark.parametrize("strategy_kwargs", [
        {},
        {"checkpoint": True},
        {"mem_budget_gb": 1e-6},
    ], ids=["in-memory", "checkpointed", "codebook"])
    def test_sharedmem_engine_matches_serial(self, dataset, tmp_path, strategy_kwargs):
        from repro.parallel import SharedMemoryEngine, ThreadEngine

        # Every strategy on every engine is the serial in-memory run, bitwise.
        cfg = TingeConfig(n_permutations=12, seed=3, dtype="float64")
        ref = auto_reconstruct(dataset.expression, dataset.genes, cfg)
        for engine in (ThreadEngine(n_workers=2), SharedMemoryEngine(n_workers=2)):
            kwargs = dict(strategy_kwargs)
            if kwargs:
                kwargs["workdir"] = tmp_path / type(engine).__name__
            out = auto_reconstruct(dataset.expression, dataset.genes, cfg,
                                   engine=engine, **kwargs)
            assert np.array_equal(out.network.weights, ref.network.weights)
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
