"""Tests for repro.core.exact and the permuted tile kernel it runs through
``compute_tile(..., permutations=...)``."""

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.core.bspline import weight_codebook, weight_tensor
from repro.core.discretize import rank_transform
from repro.core.entropy import marginal_entropies
from repro.core.exact import exact_mi_pvalues
from repro.core.exec import SCHEDULE_NAMES, CodebookSource, compute_tile
from repro.core.mi import mi_bspline_pair, mi_tile
from repro.core.mi_matrix import mi_matrix
from repro.core.permutation import per_pair_pvalues
from repro.core.tiling import Tile
from repro.parallel.engine import SharedMemoryEngine, ThreadEngine
from repro.stats.random import as_rng, permutation_matrix


@pytest.fixture(scope="module")
def ranked_data():
    rng = np.random.default_rng(31)
    x = rng.normal(size=100)
    return rank_transform(np.vstack([
        x,
        x + 0.1 * rng.normal(size=100),
        rng.normal(size=(8, 100)),
    ]))


@pytest.fixture(scope="module")
def ranked_weights(ranked_data):
    return weight_tensor(ranked_data)


def mi_tile_permuted(weights, t, perms):
    """``(observed, exceed)`` of tile ``t`` through the exact-testing kernel."""
    block = compute_tile(weights, marginal_entropies(weights), t, permutations=perms)
    return block[..., 0], block[..., 1].astype(np.int64)


class TestMiTileFused:
    def test_observed_matches_plain_tile(self, ranked_weights):
        perms = permutation_matrix(5, 100, seed=0)
        observed, _ = mi_tile_permuted(ranked_weights, Tile(0, 4, 4, 10), perms)
        assert np.allclose(observed, mi_tile(ranked_weights[:4], ranked_weights[4:]))

    def test_exceed_counts_bounds(self, ranked_weights):
        perms = permutation_matrix(7, 100, seed=1)
        _, exceed = mi_tile_permuted(ranked_weights, Tile(0, 3, 3, 10), perms)
        assert exceed.min() >= 0 and exceed.max() <= 7

    def test_dependent_pair_never_exceeded(self, ranked_weights):
        # Genes 0 and 1 are strongly coupled: no permutation should beat
        # the observed MI.  (A 1x1 tile: the reference-kernel loop.)
        perms = permutation_matrix(20, 100, seed=2)
        _, exceed = mi_tile_permuted(ranked_weights, Tile(0, 1, 1, 2), perms)
        assert exceed[0, 0] == 0

    def test_independent_pair_often_exceeded(self, ranked_weights):
        perms = permutation_matrix(40, 100, seed=3)
        _, exceed = mi_tile_permuted(ranked_weights, Tile(4, 5, 7, 8), perms)
        assert exceed[0, 0] > 4

    def test_matches_manual_permuted_mi(self, ranked_weights, slab_source):
        perms = permutation_matrix(3, 100, seed=4)
        wi, wj = ranked_weights[2:4], ranked_weights[5:7]
        manual = np.zeros((2, 2), dtype=np.int64)
        observed, _ = mi_tile_permuted(ranked_weights, Tile(2, 4, 5, 7), perms)
        for r in range(3):
            for a in range(2):
                for c in range(2):
                    mi_perm = mi_bspline_pair(wi[a][perms[r]], wj[c])
                    manual[a, c] += mi_perm >= observed[a, c]
        # Hoisted and staged operands count the same exceedances.
        for weights in (ranked_weights, slab_source(ranked_weights)):
            block = compute_tile(weights, marginal_entropies(ranked_weights),
                                 Tile(2, 4, 5, 7), permutations=perms)
            assert np.array_equal(block[..., 1], manual)

    def test_rejects_wrong_perm_shape(self, ranked_weights):
        with pytest.raises(ValueError):
            mi_tile_permuted(ranked_weights, Tile(0, 2, 2, 4),
                             permutation_matrix(3, 99, seed=0))


class TestExactMiPvalues:
    def test_matches_per_pair_path_exactly(self, ranked_weights):
        """Same seed -> same permutations -> bit-identical p-values."""
        res = exact_mi_pvalues(ranked_weights, n_permutations=15, seed=9)
        n = ranked_weights.shape[0]
        pairs = np.array([[i, j] for i in range(n) for j in range(i + 1, n)])
        obs, pvals = per_pair_pvalues(ranked_weights, pairs,
                                      n_permutations=15, seed=9)
        for (i, j), o, p in zip(pairs, obs, pvals):
            assert res.mi[i, j] == pytest.approx(o, rel=1e-12)
            assert res.pvalues[i, j] == pytest.approx(p, rel=1e-12)

    def test_mi_matches_mi_matrix(self, ranked_weights):
        for dtype in (np.float64, np.float32):
            w = ranked_weights.astype(dtype)
            for tile in (None, 7, 16):
                res = exact_mi_pvalues(w, n_permutations=5, seed=0, tile=tile)
                assert np.array_equal(res.mi, mi_matrix(w, tile=tile).mi), (dtype, tile)

    @pytest.mark.parametrize("tile", [3, None])
    def test_codebook_matches_tensor(self, ranked_data, ranked_weights, tile):
        # The staged permuted path (slabs gathered per tile) against the
        # hoisted one, bit for bit.
        source = CodebookSource(*weight_codebook(ranked_data))
        got = exact_mi_pvalues(source, n_permutations=9, seed=5, tile=tile,
                               engine=ThreadEngine(n_workers=2))
        ref = exact_mi_pvalues(ranked_weights, n_permutations=9, seed=5, tile=tile)
        assert got.mi.tobytes() == ref.mi.tobytes()
        assert got.pvalues.tobytes() == ref.pvalues.tobytes()

    def test_symmetric_with_unit_diagonal_pvalues(self, ranked_weights):
        res = exact_mi_pvalues(ranked_weights, n_permutations=5, seed=0)
        assert np.array_equal(res.pvalues, res.pvalues.T)
        assert np.all(np.diag(res.pvalues) == 1.0)
        assert res.pvalues.min() >= 1.0 / 6.0

    def test_tile_invariance(self, ranked_weights):
        a = exact_mi_pvalues(ranked_weights, n_permutations=8, seed=2, tile=3)
        b = exact_mi_pvalues(ranked_weights, n_permutations=8, seed=2, tile=64)
        assert np.allclose(a.pvalues, b.pvalues)
        assert np.allclose(a.mi, b.mi)

    def test_engine_parity(self, ranked_weights):
        a = exact_mi_pvalues(ranked_weights, n_permutations=6, seed=3)
        for engine in (ThreadEngine(n_workers=2), SharedMemoryEngine(n_workers=2)):
            b = exact_mi_pvalues(ranked_weights, n_permutations=6, seed=3,
                                 engine=engine)
            assert np.array_equal(a.mi, b.mi), type(engine).__name__
            assert np.array_equal(a.pvalues, b.pvalues), type(engine).__name__

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    @pytest.mark.parametrize("engine_cls", [None, ThreadEngine, SharedMemoryEngine])
    def test_schedule_engine_equivalence(self, ranked_weights, schedule, engine_cls):
        clean = exact_mi_pvalues(ranked_weights, n_permutations=6, seed=3, tile=3)
        engine = None if engine_cls is None else engine_cls(n_workers=2)
        res = exact_mi_pvalues(ranked_weights, n_permutations=6, seed=3, tile=3,
                               schedule=schedule, engine=engine)
        assert np.array_equal(res.mi, clean.mi)
        assert np.array_equal(res.pvalues, clean.pvalues)

    def test_validation(self, ranked_weights):
        with pytest.raises(ValueError):
            exact_mi_pvalues(ranked_weights[0], 5)
        with pytest.raises(ValueError):
            exact_mi_pvalues(ranked_weights, 0)


class TestExactPipelineMode:
    def test_finds_planted_edge(self, rng):
        x = rng.normal(size=150)
        data = np.vstack([x, x + 0.1 * rng.normal(size=150),
                          rng.normal(size=(4, 150))])
        res = reconstruct_network(
            data, genes=list("abcdef"),
            config=TingeConfig(testing="exact", n_permutations=60,
                               correction="none", alpha=0.02),
        )
        assert ("a", "b") in res.network.edge_set()
        assert res.null is None
        assert res.pvalues is not None
        assert set(res.timings) == {"preprocess", "weights", "mi", "threshold"}

    def test_exact_allows_non_rank_transform(self, rng):
        data = rng.normal(size=(5, 80))
        cfg = TingeConfig(testing="exact", transform="none",
                          correction="none", alpha=0.05, n_permutations=20)
        res = reconstruct_network(data, config=cfg)
        assert res.network.n_genes == 5

    @pytest.mark.parametrize("knobs", [
        {"kernel": "sparse"}, {"kernel": "auto"},
        {"kernel_dtype": "float32"}, {"kernel_dtype": "float64"},
    ])
    def test_rejects_kernel_knobs(self, knobs):
        # Exact mode has only the fused float64 permuted kernel.
        with pytest.raises(ValueError, match="testing='exact'"):
            TingeConfig(testing="exact", correction="none", **knobs)
        TingeConfig(**knobs)  # fine for pooled testing

    def test_underresolved_bonferroni_rejected(self, rng):
        data = rng.normal(size=(30, 60))
        cfg = TingeConfig(testing="exact", n_permutations=20,
                          correction="bonferroni", alpha=0.01)
        with pytest.raises(ValueError, match="resolves p-values"):
            reconstruct_network(data, config=cfg)

    def test_exact_and_pooled_agree_on_strong_structure(self, rng):
        x = rng.normal(size=200)
        data = np.vstack([x, x + 0.15 * rng.normal(size=200),
                          rng.normal(size=(6, 200))])
        pooled = reconstruct_network(
            data, config=TingeConfig(n_permutations=40, alpha=0.05, seed=1))
        exact = reconstruct_network(
            data, config=TingeConfig(testing="exact", n_permutations=80,
                                     correction="none", alpha=0.02, seed=1))
        assert exact.network.adjacency[0, 1]
        assert pooled.network.adjacency[0, 1]

    def test_bad_testing_value(self):
        with pytest.raises(ValueError):
            TingeConfig(testing="bootstrap")
