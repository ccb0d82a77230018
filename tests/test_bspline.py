"""Tests for repro.core.bspline: basis correctness and weight layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bspline import (
    BsplineBasis,
    basis_matrix,
    knot_vector,
    packed_weights,
    unpack_weights,
    weight_matrix,
    weight_tensor,
)
from repro.stats.histogram import bin_indices


class TestKnotVector:
    def test_clamped_ends(self):
        t = knot_vector(10, 3)
        assert t[:3].tolist() == [0.0, 0.0, 0.0]
        assert t[-3:].tolist() == [8.0, 8.0, 8.0]
        assert len(t) == 13

    def test_interior_uniform(self):
        t = knot_vector(10, 3)
        interior = t[3:10]
        assert np.allclose(np.diff(interior), 1.0)

    def test_order1_is_bin_edges(self):
        t = knot_vector(5, 1)
        assert t.tolist() == [0, 1, 2, 3, 4, 5]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            knot_vector(2, 3)
        with pytest.raises(ValueError):
            knot_vector(5, 0)


class TestBasisMatrix:
    @pytest.mark.parametrize("bins,order", [(10, 1), (10, 2), (10, 3), (10, 4), (7, 3), (4, 4)])
    def test_partition_of_unity(self, bins, order):
        z = np.linspace(0, bins - order + 1, 101)
        w = basis_matrix(z, bins, order)
        assert w.shape == (101, bins)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bins,order", [(10, 3), (8, 2), (12, 4)])
    def test_non_negative(self, bins, order):
        z = np.linspace(0, bins - order + 1, 77)
        w = basis_matrix(z, bins, order)
        assert (w >= -1e-12).all()

    def test_at_most_order_nonzeros(self):
        z = np.linspace(0.01, 7.99, 50)
        w = basis_matrix(z, 10, 3)
        assert (np.count_nonzero(w > 1e-14, axis=1) <= 3).all()

    def test_support_is_consecutive(self):
        z = np.linspace(0, 8, 33)
        w = basis_matrix(z, 10, 3)
        for row in w:
            nz = np.nonzero(row > 1e-14)[0]
            if nz.size > 1:
                assert np.all(np.diff(nz) == 1)

    def test_endpoints_get_full_weight(self):
        w = basis_matrix(np.array([0.0, 8.0]), 10, 3)
        assert w[0, 0] == pytest.approx(1.0)
        assert w[1, -1] == pytest.approx(1.0)

    def test_order1_equals_histogram_indicator(self, rng):
        x = rng.uniform(0, 10, size=200)
        w = basis_matrix(x, 10, 1)
        idx = bin_indices(x, 10, lo=0.0, hi=10.0)
        assert np.array_equal(w.argmax(axis=1), idx)
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_quadratic_known_value(self):
        # Order-2 (linear) basis at z = 0.5: halfway between B0 and B1.
        w = basis_matrix(np.array([0.5]), 5, 2)
        assert w[0, 0] == pytest.approx(0.5)
        assert w[0, 1] == pytest.approx(0.5)

    def test_continuity_in_z(self):
        # Order >= 2 basis is continuous: nearby z give nearby weights.
        z = np.linspace(0, 8, 2001)
        w = basis_matrix(z, 10, 3)
        assert np.abs(np.diff(w, axis=0)).max() < 0.02

    def test_out_of_domain_raises(self):
        with pytest.raises(ValueError):
            basis_matrix(np.array([-0.5]), 10, 3)
        with pytest.raises(ValueError):
            basis_matrix(np.array([8.5]), 10, 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            basis_matrix(np.zeros((2, 2)), 10, 3)

    @given(
        bins=st.integers(2, 15),
        order=st.integers(1, 5),
        n=st.integers(1, 60),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_of_unity_property(self, bins, order, n, seed):
        if order > bins:
            return
        rng = np.random.default_rng(seed)
        z = rng.uniform(0, bins - order + 1, size=n)
        w = basis_matrix(z, bins, order)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-10)
        assert (w >= -1e-12).all()


class TestBsplineBasis:
    def test_domain(self):
        assert BsplineBasis(10, 3).domain == (0.0, 8.0)

    def test_scale_maps_extremes(self):
        b = BsplineBasis(10, 3)
        z = b.scale(np.array([5.0, 10.0, 15.0]))
        assert z[0] == 0.0 and z[-1] == 8.0

    def test_scale_constant_vector(self):
        b = BsplineBasis(10, 3)
        assert np.all(b.scale(np.full(4, 2.5)) == 0.0)

    def test_scale_explicit_range(self):
        b = BsplineBasis(10, 3)
        z = b.scale(np.array([0.5]), lo=0.0, hi=1.0)
        assert z[0] == pytest.approx(4.0)

    def test_weights_shape(self, rng):
        w = BsplineBasis(10, 3).weights(rng.normal(size=50))
        assert w.shape == (50, 10)

    def test_defaults(self):
        b = BsplineBasis()
        assert (b.bins, b.order) == (10, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BsplineBasis(2, 3)


class TestWeightTensor:
    def test_shape_and_unity(self, rng):
        data = rng.normal(size=(6, 40))
        w = weight_tensor(data, bins=8, order=3)
        assert w.shape == (6, 40, 8)
        assert np.allclose(w.sum(axis=2), 1.0)

    def test_float32(self, rng):
        w = weight_tensor(rng.normal(size=(3, 30)), dtype=np.float32)
        assert w.dtype == np.float32
        assert np.allclose(w.sum(axis=2), 1.0, atol=1e-5)

    def test_matches_single_gene(self, rng):
        data = rng.normal(size=(4, 25))
        w = weight_tensor(data)
        assert np.allclose(w[2], weight_matrix(data[2]))

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            weight_tensor(rng.normal(size=10))


class TestPackedWeights:
    def test_roundtrip(self, rng):
        w = weight_matrix(rng.normal(size=60), bins=10, order=3)
        values, first = packed_weights(w, 3)
        assert values.shape == (60, 3)
        back = unpack_weights(values, first, 10)
        assert np.allclose(back, w)

    def test_roundtrip_order1(self, rng):
        w = weight_matrix(rng.normal(size=30), bins=10, order=1)
        values, first = packed_weights(w, 1)
        assert np.allclose(unpack_weights(values, first, 10), w)

    def test_packed_memory_is_smaller(self, rng):
        w = weight_matrix(rng.normal(size=100), bins=16, order=3)
        values, first = packed_weights(w, 3)
        assert values.size < w.size

    def test_invalid_order(self, rng):
        w = weight_matrix(rng.normal(size=10))
        with pytest.raises(ValueError):
            packed_weights(w, 0)
        with pytest.raises(ValueError):
            packed_weights(w, 99)

    def test_unpack_validates(self):
        with pytest.raises(ValueError):
            unpack_weights(np.ones((3, 2)), np.array([0, 0]), 5)
        with pytest.raises(ValueError):
            unpack_weights(np.ones((2, 3)), np.array([0, 4]), 5)

    def test_roundtrip_bitwise_exact(self, rng):
        w = weight_matrix(rng.normal(size=200), bins=10, order=3)
        values, first = packed_weights(w, 3)
        assert np.array_equal(unpack_weights(values, first, 10), w)

    def test_all_zero_rows_roundtrip(self):
        w = np.zeros((4, 10))
        values, first = packed_weights(w, 3)
        assert (values == 0).all() and (first == 0).all()
        assert np.array_equal(unpack_weights(values, first, 10), w)

    def test_boundary_sample_last_knot_span(self):
        # The domain maximum puts all mass on the last basis function; its
        # window must be clamped into the matrix, not run off the edge.
        w = basis_matrix(np.array([8.0, 7.5, 0.0]), 10, 3)
        values, first = packed_weights(w, 3)
        assert first.max() <= 10 - 3
        assert np.array_equal(unpack_weights(values, first, 10), w)
        assert w[0, 9] == 1.0  # closed right edge: mass on the last function

    def test_dropped_mass_raises(self):
        w = np.zeros((2, 10))
        w[1, 0] = 0.5
        w[1, 6] = 0.5  # disjoint support: cannot fit one 3-wide window
        with pytest.raises(ValueError, match="outside"):
            packed_weights(w, 3)

    def test_support_longer_than_order_raises(self):
        w = np.zeros((1, 10))
        w[0, 2:7] = 0.2  # 5-long run does not fit a 3-wide window
        with pytest.raises(ValueError, match="outside"):
            packed_weights(w, 3)

    def test_unpack_width_exceeding_bins_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            unpack_weights(np.ones((2, 6)), np.array([0, 0]), 5)

    def test_empty_matrix_roundtrip(self):
        w = np.zeros((0, 10))
        values, first = packed_weights(w, 3)
        assert values.shape == (0, 3)
        assert np.array_equal(unpack_weights(values, first, 10), w)


class TestPackedWeightTensor:
    """The weight tensor in the packed ``(values, first)`` layout."""

    def test_constant_gene(self):
        data = np.full((2, 20), 3.25)
        w = weight_tensor(data, bins=10, order=3)
        values, first = packed_weights(w.reshape(-1, 10), 3)
        # A constant gene maps to domain 0: all mass in the first window.
        assert (first == 0).all()
        assert np.allclose(values.sum(axis=1), 1.0)  # partition of unity

    def test_float32_output(self, rng):
        w = weight_tensor(rng.normal(size=(3, 30)), bins=10, order=3,
                          dtype=np.float32)
        values, first = packed_weights(w.reshape(-1, 10), 3)
        assert values.dtype == np.float32


def _per_point_weights(data, bins, order, dtype):
    """Oracle: each gene scaled on its own, each point through
    ``basis_matrix`` on its own."""
    basis = BsplineBasis(bins, order)
    n, m = data.shape
    out = np.empty((n, m, bins), dtype=dtype)
    for g in range(n):
        z = basis.scale(data[g])
        for s in range(m):
            out[g, s] = basis_matrix(z[s:s + 1], bins, order)[0]
    return out


def _awkward_genes(m, seed=0):
    """Smooth, tied, binary and constant genes side by side."""
    gen = np.random.default_rng(seed)
    return np.vstack([
        gen.normal(size=(3, m)),
        gen.integers(0, 4, size=(2, m)).astype(np.float64),  # average ties
        gen.integers(0, 2, size=(2, m)).astype(np.float64),  # binary
        np.full((1, m), 2.5),                                 # constant
    ])


class TestWeightTensorDistinctPoints:
    """``weight_tensor`` evaluates the basis once per distinct scaled value
    and gathers; it must stay bitwise the per-point evaluation."""

    @pytest.mark.parametrize("transform", ["rank", "zscore", "none"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [40, 6])  # m = 6 < b = 10
    def test_bitwise_equals_per_point_oracle(self, transform, dtype, order, m):
        from repro.core.discretize import preprocess

        data = preprocess(_awkward_genes(m), transform)
        got = weight_tensor(data, bins=10, order=order, dtype=dtype)
        want = _per_point_weights(data, 10, order, dtype)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
