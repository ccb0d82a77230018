"""Tests for repro.core.checkpoint: resumable all-pairs runs."""

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.checkpoint import checkpoint_status, mi_matrix_checkpointed
from repro.core.mi_matrix import mi_matrix


@pytest.fixture(scope="module")
def weights():
    gen = np.random.default_rng(91)
    return weight_tensor(gen.normal(size=(30, 80)))


class TestCheckpointedRun:
    def test_matches_plain_driver(self, weights, tmp_path):
        mi = mi_matrix_checkpointed(weights, tmp_path / "ck", tile=8)
        ref = mi_matrix(weights, tile=8).mi
        assert np.allclose(mi, ref)

    def test_interrupt_and_resume(self, weights, tmp_path):
        ck = tmp_path / "ck"
        # First invocation dies after 2 rows.
        out = mi_matrix_checkpointed(weights, ck, tile=8, interrupt_after_rows=2)
        assert out is None
        status = checkpoint_status(ck)
        assert status["done_rows"] == 2
        assert status["total_rows"] == 4  # ceil(30/8)
        # Resume completes and matches the reference.
        mi = mi_matrix_checkpointed(weights, ck, tile=8)
        assert np.allclose(mi, mi_matrix(weights, tile=8).mi)

    def test_resume_recomputes_nothing(self, weights, tmp_path, monkeypatch):
        ck = tmp_path / "ck"
        mi_matrix_checkpointed(weights, ck, tile=8)  # complete run
        ref = mi_matrix(weights, tile=8).mi

        def boom(*a, **k):  # resume must not call the kernel at all
            raise AssertionError("tile recomputed on resume")

        import repro.core.exec as mod

        monkeypatch.setattr(mod, "compute_tile", boom)
        mi = mi_matrix_checkpointed(weights, ck, tile=8)
        assert np.allclose(mi, ref)

    def test_rejects_different_data(self, weights, tmp_path):
        ck = tmp_path / "ck"
        mi_matrix_checkpointed(weights, ck, tile=8, interrupt_after_rows=1)
        other = weight_tensor(np.random.default_rng(5).normal(size=(30, 80)))
        with pytest.raises(ValueError, match="different data"):
            mi_matrix_checkpointed(other, ck, tile=8)

    def test_rejects_different_tile(self, weights, tmp_path):
        ck = tmp_path / "ck"
        mi_matrix_checkpointed(weights, ck, tile=8, interrupt_after_rows=1)
        with pytest.raises(ValueError, match="tile"):
            mi_matrix_checkpointed(weights, ck, tile=16)

    def test_status_of_fresh_directory(self, tmp_path):
        assert checkpoint_status(tmp_path / "nothing") == {}

    def test_multiple_interruptions(self, weights, tmp_path):
        ck = tmp_path / "ck"
        while mi_matrix_checkpointed(weights, ck, tile=8,
                                     interrupt_after_rows=1) is None:
            pass
        mi = mi_matrix_checkpointed(weights, ck, tile=8)
        assert np.allclose(mi, mi_matrix(weights, tile=8).mi)

    def test_fresh_finalize_opens_no_row_file(self, weights, tmp_path, monkeypatch):
        # A fresh run keeps every stored row in memory; finalize reads
        # from disk only rows an earlier run committed.
        real_load = np.load
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(str(path))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(np, "load", spy)
        ck = tmp_path / "ck"
        mi = mi_matrix_checkpointed(weights, ck, tile=8)
        assert np.allclose(mi, mi_matrix(weights, tile=8).mi)
        assert not [p for p in opened if "row_" in p]

        # An interrupted run's committed rows are read back on resume,
        # and only those.
        resume = tmp_path / "resume"
        mi_matrix_checkpointed(weights, resume, tile=8, interrupt_after_rows=2)
        opened.clear()
        resumed = mi_matrix_checkpointed(weights, resume, tile=8)
        assert np.array_equal(resumed, mi)
        assert sorted(p.rsplit("/", 1)[-1] for p in opened if "row_" in p) == [
            "row_0000000.npz", "row_0000008.npz"]

    def test_validation(self, weights, tmp_path):
        with pytest.raises(ValueError):
            mi_matrix_checkpointed(weights[0], tmp_path / "x")
