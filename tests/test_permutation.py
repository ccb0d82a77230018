"""Tests for repro.core.permutation: nulls, thresholds, p-values."""

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.mi import mi_bspline_pair
from repro.core.mi_matrix import mi_matrix
from repro.core.permutation import (
    NullDistribution,
    per_pair_pvalues,
    pooled_null,
)
from repro.core.sparsekernel import _reset_backend_cache


@pytest.fixture(scope="module")
def ranked_weights():
    rng = np.random.default_rng(5)
    data = rank_transform(rng.normal(size=(20, 120)))
    return weight_tensor(data)


class TestPooledNull:
    def test_size_and_metadata(self, ranked_weights):
        null = pooled_null(ranked_weights, n_permutations=7, n_pairs=13, seed=0)
        assert null.size == 7 * 13
        assert null.n_permutations == 7
        assert null.n_pairs_sampled == 13

    def test_reproducible(self, ranked_weights):
        a = pooled_null(ranked_weights, 5, 10, seed=3)
        b = pooled_null(ranked_weights, 5, 10, seed=3)
        assert np.array_equal(a.mis, b.mis)

    def test_nonnegative(self, ranked_weights):
        null = pooled_null(ranked_weights, 5, 20, seed=1)
        assert (null.mis >= 0).all()

    def test_null_below_dependent_mi(self, rng):
        # A strongly coupled pair's MI should exceed essentially all null values.
        x = rng.normal(size=200)
        data = rank_transform(np.vstack([x, x + 0.1 * rng.normal(size=200),
                                         rng.normal(size=(8, 200))]))
        w = weight_tensor(data)
        null = pooled_null(w, 20, 30, seed=2)
        observed = mi_bspline_pair(w[0], w[1])
        assert observed > np.quantile(null.mis, 0.999)

    def test_matches_manual_computation(self, ranked_weights):
        # Reconstruct the first null value by hand using the same RNG stream.
        from repro.stats.random import as_rng, permutation_matrix, sample_pairs

        rng = as_rng(42)
        pairs = sample_pairs(20, 4, rng)
        perms = permutation_matrix(3, 120, rng)
        null = pooled_null(ranked_weights, 3, 4, seed=42)
        wi = ranked_weights[pairs[0, 0]][perms[0]]
        wj = ranked_weights[pairs[0, 1]]
        assert null.mis[0] == pytest.approx(mi_bspline_pair(wi, wj), rel=1e-10)

    def test_threshold_monotone_in_alpha(self, ranked_weights):
        null = pooled_null(ranked_weights, 20, 50, seed=0)
        t_strict = null.threshold(alpha=0.001, n_tests=100)
        t_loose = null.threshold(alpha=0.5, n_tests=100)
        assert t_strict >= t_loose

    def test_pvalues_interface(self, ranked_weights):
        null = pooled_null(ranked_weights, 10, 30, seed=0)
        p = null.pvalues(np.array([0.0, 1e9]))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(1.0 / (null.size + 1))

    def test_invalid_args(self, ranked_weights):
        with pytest.raises(ValueError):
            pooled_null(ranked_weights, 0, 10)
        with pytest.raises(ValueError):
            pooled_null(ranked_weights, 10, 0)
        with pytest.raises(ValueError):
            pooled_null(ranked_weights[0], 5, 5)


class TestPerPairPvalues:
    def test_dependent_pair_significant(self, rng):
        x = rng.normal(size=150)
        data = rank_transform(np.vstack([x, x + 0.1 * rng.normal(size=150),
                                         rng.normal(size=150)]))
        w = weight_tensor(data)
        obs, p = per_pair_pvalues(w, np.array([[0, 1], [0, 2]]), n_permutations=60, seed=0)
        assert p[0] == pytest.approx(1.0 / 61.0)  # beats every permutation
        assert p[1] > 0.05  # independent pair not significant

    def test_observed_matches_kernel(self, ranked_weights):
        pairs = np.array([[0, 1], [5, 9]])
        obs, _ = per_pair_pvalues(ranked_weights, pairs, n_permutations=5, seed=0)
        for (i, j), o in zip(pairs, obs):
            assert o == pytest.approx(mi_bspline_pair(ranked_weights[i], ranked_weights[j]))

    def test_agrees_with_pooled_on_independent_data(self, rng):
        # On fully independent rank-transformed genes, pooled-null p-values
        # and per-pair p-values must be statistically indistinguishable:
        # compare medians loosely.
        data = rank_transform(rng.normal(size=(10, 100)))
        w = weight_tensor(data)
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        _, p_exact = per_pair_pvalues(w, pairs, n_permutations=50, seed=1)
        null = pooled_null(w, 50, 40, seed=2)
        res = mi_matrix(w)
        p_pooled = null.pvalues(res.mi[pairs[:, 0], pairs[:, 1]])
        assert np.median(np.abs(p_exact - p_pooled)) < 0.35

    def test_rejects_bad_pairs(self, ranked_weights):
        with pytest.raises(ValueError):
            per_pair_pvalues(ranked_weights, np.array([0, 1]))

    def test_rejects_no_permutations(self, ranked_weights):
        with pytest.raises(ValueError, match="n_permutations"):
            per_pair_pvalues(ranked_weights, np.array([[0, 1]]), n_permutations=0)

    def test_rejects_non_tensor_weights(self, ranked_weights):
        with pytest.raises(ValueError, match="weight tensor"):
            per_pair_pvalues(ranked_weights[0], np.array([[0, 1]]))

    @pytest.mark.parametrize("bad", [-5, -1, 5])
    def test_rejects_out_of_range_pairs(self, ranked_weights, bad):
        w = ranked_weights[:5]
        with pytest.raises(ValueError, match="pair indices"):
            per_pair_pvalues(w, np.array([[0, 1], [bad, 2]]), n_permutations=3)


class TestPooledNullEngineDispatch:
    def test_engine_paths_bit_identical(self, ranked_weights):
        from repro.parallel.engine import SerialEngine, SharedMemoryEngine, ThreadEngine

        serial = pooled_null(ranked_weights, 8, 40, seed=13)
        for engine in (SerialEngine(), ThreadEngine(n_workers=3),
                       SharedMemoryEngine(n_workers=3)):
            parallel = pooled_null(ranked_weights, 8, 40, seed=13, engine=engine)
            assert np.array_equal(serial.mis, parallel.mis), type(engine).__name__
            assert parallel.n_permutations == 8
            assert parallel.n_pairs_sampled == 40


class TestPerPairVectorization:
    def test_matches_per_permutation_reference_loop(self, ranked_weights):
        # Regression: the permutation dimension is vectorized with a stacked
        # batched matmul; results must be bit-identical to evaluating one
        # permutation at a time with the pair kernel.
        from repro.stats.random import as_rng, permutation_matrix

        pairs = np.array([[0, 1], [3, 7], [2, 19], [10, 11]])
        q = 40
        observed, pvals = per_pair_pvalues(ranked_weights, pairs,
                                           n_permutations=q, seed=21)

        n, m, b = ranked_weights.shape
        perms = permutation_matrix(q, m, as_rng(21))
        ref_obs = np.empty(len(pairs))
        ref_p = np.empty(len(pairs))
        for idx, (i, j) in enumerate(pairs):
            wx, wy = ranked_weights[i], ranked_weights[j]
            ref_obs[idx] = mi_bspline_pair(wx, wy)
            null = np.array([mi_bspline_pair(wx[perms[r]], wy) for r in range(q)])
            exceed = int(np.count_nonzero(null >= ref_obs[idx]))
            ref_p[idx] = (1.0 + exceed) / (1.0 + q)
        assert np.array_equal(observed, ref_obs)
        assert np.array_equal(pvals, ref_p)


def _einsum_null(weights, n_permutations, n_pairs, seed, base="nat"):
    """Oracle: the dense permuted-slab einsum the pooled null used to run,
    in float64."""
    from repro.core.mi import batched_pair_mi
    from repro.stats.random import as_rng, permutation_matrix, sample_pairs

    w = np.asarray(weights, dtype=np.float64)
    n, m, _ = w.shape
    rng = as_rng(seed)
    pairs = sample_pairs(n, n_pairs, rng)
    perms = permutation_matrix(n_permutations, m, rng)
    wi, wj = w[pairs[:, 0]], w[pairs[:, 1]]
    rows = [batched_pair_mi(np.einsum("pmb,pmc->pbc", wi[:, perm], wj, optimize=True) / m,
                            base=base)
            for perm in perms]
    return np.stack(rows).ravel()


def _ranked(order, dtype, n=16, m=90, seed=11):
    rng = np.random.default_rng(seed)
    data = rank_transform(rng.normal(size=(n, m)))
    return weight_tensor(data, bins=10, order=order, dtype=dtype)


def _force_backend(monkeypatch, name):
    monkeypatch.setenv("REPRO_SPARSE_BACKEND", name)
    _reset_backend_cache()


class TestPackedPooledNull:
    """The null runs on packed operands read through each permutation."""

    @pytest.fixture(autouse=True)
    def _fresh_backend(self):
        yield
        _reset_backend_cache()  # resolved again from the restored env

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_backends_bitwise_equal(self, monkeypatch, order, dtype):
        w = _ranked(order, dtype)
        native = pooled_null(w, 6, 25, seed=4)
        _force_backend(monkeypatch, "numpy")
        fallback = pooled_null(w, 6, 25, seed=4)
        assert native.mis.tobytes() == fallback.mis.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_within_1e12_of_einsum_oracle(self, monkeypatch, order):
        w = _ranked(order, np.float64)
        want = _einsum_null(w, 6, 25, seed=4)
        if order > 4:  # packed wider than the compiled lanes: numpy only
            _force_backend(monkeypatch, "numpy")
        got = pooled_null(w, 6, 25, seed=4)
        assert (got.mis > 0).all()
        np.testing.assert_allclose(got.mis, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", [1, 3])
    def test_float32_weights_accumulate_in_float64(self, order):
        # The upcast is exact, so a float32 tensor's null is the null of
        # its float64 copy, bit for bit.
        w32 = _ranked(order, np.float32)
        a = pooled_null(w32, 5, 20, seed=9)
        b = pooled_null(w32.astype(np.float64), 5, 20, seed=9)
        assert a.mis.tobytes() == b.mis.tobytes()

    def test_base_bits(self):
        w = _ranked(3, np.float64)
        nat = pooled_null(w, 4, 10, seed=1)
        bits = pooled_null(w, 4, 10, seed=1, base="bit")
        np.testing.assert_allclose(bits.mis, nat.mis / np.log(2), rtol=1e-12)
        np.testing.assert_allclose(bits.mis, _einsum_null(w, 4, 10, seed=1, base="bit"),
                                   rtol=1e-12)

    def test_few_genes_all_packed(self):
        # Every gene sampled (n = 2): the tensor is packed without a copy.
        w = _ranked(3, np.float64, n=2, m=40)
        got = pooled_null(w, 8, 1, seed=2)
        np.testing.assert_allclose(got.mis, _einsum_null(w, 8, 1, seed=2), rtol=1e-12)

    def test_backend_resolved_in_parent_before_fork(self):
        from repro.core import sparsekernel
        from repro.parallel.engine import SharedMemoryEngine

        _reset_backend_cache()
        w = _ranked(3, np.float64)
        forked = pooled_null(w, 4, 10, seed=3, engine=SharedMemoryEngine(n_workers=2))
        assert sparsekernel._BACKEND is not None
        assert forked.mis.tobytes() == pooled_null(w, 4, 10, seed=3).mis.tobytes()
