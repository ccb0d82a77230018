"""Tests for repro.core.tiling: coverage, counts, tile geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import (
    AUTO_SPARSE_MIN_BINS,
    RULE_TILES,
    Tile,
    pair_count,
    rule_kernel,
    rule_tile,
    tile_grid,
)


class TestTile:
    def test_off_diagonal_counts(self):
        t = Tile(0, 4, 8, 12)
        assert t.n_pairs == 16
        assert t.n_elements == 16
        assert not t.is_diagonal

    def test_diagonal_counts(self):
        t = Tile(4, 8, 4, 8)
        assert t.is_diagonal
        assert t.n_pairs == 6  # 4*3/2
        assert t.n_elements == 16

    def test_pair_mask_diagonal(self):
        t = Tile(0, 3, 0, 3)
        mask = t.pair_mask()
        assert mask.tolist() == [
            [False, True, True],
            [False, False, True],
            [False, False, False],
        ]

    def test_pair_mask_off_diagonal_full(self):
        t = Tile(0, 2, 5, 7)
        assert t.pair_mask().all()

    def test_rejects_below_diagonal(self):
        with pytest.raises(ValueError):
            Tile(5, 8, 0, 3)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Tile(3, 3, 4, 5)


class TestTileGrid:
    @pytest.mark.parametrize("n,tile", [(10, 3), (16, 4), (17, 4), (5, 10), (100, 7)])
    def test_covers_every_pair_once(self, n, tile):
        seen = np.zeros((n, n), dtype=int)
        for t in tile_grid(n, tile):
            mask = t.pair_mask()
            seen[t.i0 : t.i1, t.j0 : t.j1] += mask
        iu = np.triu_indices(n, k=1)
        assert np.all(seen[iu] == 1)
        assert seen.sum() == pair_count(n)

    def test_pair_totals(self):
        tiles = tile_grid(50, 8)
        assert sum(t.n_pairs for t in tiles) == pair_count(50)

    def test_no_empty_tiles(self):
        for t in tile_grid(33, 5):
            assert t.n_pairs > 0

    def test_tile_one(self):
        tiles = tile_grid(4, 1)
        assert len(tiles) == pair_count(4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tile_grid(1, 4)
        with pytest.raises(ValueError):
            tile_grid(10, 0)

    @given(n=st.integers(2, 60), tile=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_coverage_property(self, n, tile):
        total = sum(t.n_pairs for t in tile_grid(n, tile))
        assert total == pair_count(n)


class TestPairCount:
    def test_values(self):
        assert pair_count(2) == 1
        assert pair_count(15575) == 15575 * 15574 // 2

    def test_zero_genes(self):
        assert pair_count(0) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            pair_count(-1)


class TestRule:
    def test_rule_tiles(self):
        assert rule_tile() == rule_tile("fused") == RULE_TILES["fused"] == 32
        assert rule_tile("sparse") == RULE_TILES["sparse"] == 16

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            rule_tile("auto")

    def test_auto_takes_sparse_only_compiled_at_many_bins(self):
        assert AUTO_SPARSE_MIN_BINS == 20
        assert rule_kernel(10, True) == "fused"
        assert rule_kernel(19, True) == "fused"
        assert rule_kernel(20, True) == "sparse"
        assert rule_kernel(30, True) == "sparse"
        assert rule_kernel(30, False) == "fused"
