"""Tests for repro.core.mi_matrix: the tiled all-pairs driver."""

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.mi import mi_bspline_pair
from repro.core.mi_matrix import compute_tile, mi_matrix
from repro.core.tiling import Tile
from repro.parallel.engine import SerialEngine, ThreadEngine


@pytest.fixture(scope="module")
def weights12():
    rng = np.random.default_rng(99)
    return weight_tensor(rng.normal(size=(12, 80)))


class TestMiMatrix:
    def test_symmetric_zero_diagonal(self, weights12):
        res = mi_matrix(weights12, tile=4)
        assert np.array_equal(res.mi, res.mi.T)
        assert np.all(np.diag(res.mi) == 0.0)

    def test_matches_pairwise_kernel(self, weights12):
        res = mi_matrix(weights12, tile=5)
        for i in range(12):
            for j in range(i + 1, 12):
                assert res.mi[i, j] == pytest.approx(
                    mi_bspline_pair(weights12[i], weights12[j]), rel=1e-10, abs=1e-12
                )

    @pytest.mark.parametrize("tile", [1, 2, 3, 7, 64])
    def test_tile_size_invariance(self, weights12, tile):
        ref = mi_matrix(weights12, tile=4).mi
        assert np.allclose(mi_matrix(weights12, tile=tile).mi, ref)

    def test_default_tile(self, weights12):
        res = mi_matrix(weights12)
        assert res.n_genes == 12
        assert res.n_pairs == 66

    def test_bookkeeping(self, weights12):
        res = mi_matrix(weights12, tile=4)
        assert res.n_tiles == 6  # 3x3 upper-tri block grid
        assert res.marginal_entropy.shape == (12,)

    def test_thread_engine_identical(self, weights12):
        ref = mi_matrix(weights12, tile=4).mi
        eng = ThreadEngine(n_workers=3)
        assert np.allclose(mi_matrix(weights12, tile=4, engine=eng).mi, ref)

    def test_serial_engine_identical(self, weights12):
        ref = mi_matrix(weights12, tile=4).mi
        assert np.allclose(mi_matrix(weights12, tile=4, engine=SerialEngine()).mi, ref)

    def test_base_bits(self, weights12):
        nat = mi_matrix(weights12, tile=4).mi
        bit = mi_matrix(weights12, tile=4, base="bit").mi
        assert np.allclose(bit, nat / np.log(2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mi_matrix(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            mi_matrix(np.zeros((1, 4, 10)))

    def test_nonnegative(self, weights12):
        assert (mi_matrix(weights12).mi >= 0).all()


class TestComputeTile:
    def test_diagonal_tile_masked(self, weights12):
        from repro.core.entropy import marginal_entropies

        h = marginal_entropies(weights12)
        block = compute_tile(weights12, h, Tile(0, 4, 0, 4))
        assert np.all(block[np.tril_indices(4)] == 0.0)

    def test_off_diagonal_unmasked(self, weights12):
        from repro.core.entropy import marginal_entropies

        h = marginal_entropies(weights12)
        block = compute_tile(weights12, h, Tile(0, 3, 6, 9))
        assert (block > 0).any() or (block >= 0).all()
        assert block.shape == (3, 3)


class TestProgressCallback:
    def test_serial_progress_called_per_tile(self, weights12):
        calls = []
        mi_matrix(weights12, tile=4, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (len(calls), len(calls))
        assert [d for d, _ in calls] == list(range(1, len(calls) + 1))

    def test_in_process_engine_progress_called_per_tile(self, weights12):
        # Regression: engine paths used to fire progress once, at the end.
        for engine in (SerialEngine(), ThreadEngine(n_workers=2)):
            calls = []
            mi_matrix(weights12, tile=4, engine=engine,
                      progress=lambda d, t: calls.append((d, t)))
            assert calls[-1] == (6, 6)
            assert sorted(d for d, _ in calls) == list(range(1, 7))

    def test_fork_engine_progress_called_per_batch(self, weights12):
        from repro.parallel.engine import SharedMemoryEngine

        calls = []
        mi_matrix(weights12, tile=4, engine=SharedMemoryEngine(n_workers=2),
                  progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (6, 6)
        assert all(calls[i][0] < calls[i + 1][0] for i in range(len(calls) - 1))

    def test_no_progress_by_default(self, weights12):
        mi_matrix(weights12, tile=4)  # must not raise
