"""Tests for repro.core.checkpoint: resumable all-pairs runs."""

import json
import sys

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.checkpoint import (
    CheckpointSink,
    checkpoint_status,
    mi_matrix_checkpointed,
)
from repro.core.exec import DenseSink, TensorSource, plan_tiles, run_tile_plan
from repro.core.mi_matrix import mi_matrix
from repro.obs.tracer import Tracer
from repro.parallel.engine import SharedMemoryEngine, ThreadEngine


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


class TestOneDispatch:
    """The checkpoint sink runs through the executor's one whole-plan
    dispatch, like the dense sink, and persists rows as they complete."""

    def test_fork_engine_one_dispatch_returned_blocks(self, weights, tmp_path):
        source = TensorSource(weights)
        plan = plan_tiles(source, tile=8)
        dense = run_tile_plan(plan, source, DenseSink(source.n_genes))
        tracer = Tracer()
        engine = SharedMemoryEngine(n_workers=2, tracer=tracer)
        sink = CheckpointSink(tmp_path / "ck", plan, source.fingerprint())
        mi = run_tile_plan(plan, source, sink, engine=engine, tracer=tracer)
        assert np.array_equal(mi, dense)
        assert len(tracer.find_spans("engine_map")) == 1
        # Each tile's block comes back up the pipe exactly once.
        assert tracer.counters["bytes_transported"] == sum(
            t.rows * t.cols * 8 for t in plan.tiles)
        assert tracer.counters["rows_done"] == len(sink.rows) == 4
        assert checkpoint_status(tmp_path / "ck")["done_rows"] == 4

    def test_thread_workers_commit_every_row(self, weights, tmp_path):
        # Concurrent landings (more threads than cores, a short switch
        # interval) must neither lose a row nor commit one twice.
        source = TensorSource(weights)
        plan = plan_tiles(source, tile=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sink = CheckpointSink(tmp_path / "ck", plan, source.fingerprint())
            tracer = Tracer()
            mi = run_tile_plan(plan, source, sink,
                               engine=ThreadEngine(n_workers=8), tracer=tracer)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(mi, mi_matrix(weights, tile=2).mi)
        assert tracer.counters["rows_done"] == 15
        assert checkpoint_status(tmp_path / "ck")["done_rows"] == 15
        assert len(list((tmp_path / "ck").glob("row_*.npz"))) == 15

    @pytest.mark.parametrize("schedule", ["static", "cyclic", "dynamic", "cost"])
    def test_interrupt_commits_row_zero_under_every_schedule(
            self, weights, tmp_path, schedule):
        ck = tmp_path / "ck"
        fresh = mi_matrix_checkpointed(weights, tmp_path / "fresh", tile=8,
                                       schedule=schedule)
        assert mi_matrix_checkpointed(weights, ck, tile=8, schedule=schedule,
                                      interrupt_after_rows=1) is None
        with open(ck / "ledger.json") as f:
            assert json.load(f)["done"] == [0]
        assert sorted(p.name for p in ck.glob("row_*.npz")) == ["row_0000000.npz"]
        resumed = mi_matrix_checkpointed(weights, ck, tile=8, schedule=schedule)
        assert np.array_equal(resumed, fresh)
