"""The measured (kernel, tile) rule and what it relies on.

Default runs plan at :func:`repro.core.tiling.rule_tile` (fused 32,
sparse 16).  Moving the default is safe because fused float64 MI is
bitwise the same at tiles 8-128, except in the cells of the last
``n % 8`` genes.  There the last GEMM block is ragged, and BLAS may sum
its edge columns in another order depending on the block's shape: those
cells move by a few ulp (measured < 1e-12 relative).  Checkpoint resumes
at an older ledger's tile rely on this.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.checkpoint import CheckpointSink, checkpoint_status
from repro.core.discretize import rank_transform
from repro.core.driver import auto_reconstruct
from repro.core.exec import TensorSource, plan_run
from repro.core.incremental import NetworkUpdater
from repro.core.mi_matrix import mi_matrix
from repro.core.pipeline import TingeConfig, TingePipeline, reconstruct_network
from repro.core.tiling import rule_tile

TILES = (8, 16, 32, 64, 128)


def assert_tile_equivalent(got, ref):
    """Bitwise outside the ragged tail genes; within 1e-12 relative in it."""
    body = ref.shape[0] - ref.shape[0] % 8
    assert np.array_equal(got[:body, :body], ref[:body, :body])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def _coupled(n, m, seed):
    """Random genes with some strongly coupled pairs, so networks have edges."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, m))
    for k in range(n // 5):
        data[2 * k + 1] = data[2 * k] + 0.4 * rng.normal(size=m)
    return data


def _rank_weights(n, m, seed):
    return weight_tensor(rank_transform(np.random.default_rng(seed).normal(size=(n, m))))


class TestTileInvariance:
    @pytest.mark.parametrize("m", [256, 600, 3137])
    def test_fused64_bitwise_across_tiles(self, m):
        # 136 = 17 * 8 genes: a ragged edge tile at every tile but 8, and
        # no ragged GEMM block.
        w = _rank_weights(136, m, seed=m)
        ref = mi_matrix(w, tile=TILES[0]).mi
        for tile in TILES[1:]:
            assert np.array_equal(mi_matrix(w, tile=tile).mi, ref), f"tile {tile}"

    @pytest.mark.parametrize("m", [256, 600, 3137])
    def test_ragged_tail_moves_by_ulps_only(self, m):
        w = _rank_weights(70, m, seed=m)  # a tail of 6 genes
        ref = mi_matrix(w, tile=TILES[0]).mi
        for tile in TILES[1:]:
            assert_tile_equivalent(mi_matrix(w, tile=tile).mi, ref)

    def test_default_plans_at_rule(self):
        w = weight_tensor(np.random.default_rng(0).normal(size=(40, 60)))
        assert plan_run(TensorSource(w))[0].tile == rule_tile() == 32
        assert plan_run(TensorSource(w), kernel="sparse")[0].tile == rule_tile("sparse")


class TestUpdaterAtRule:
    @pytest.mark.parametrize("m", [
        120,
        pytest.param(600, marks=pytest.mark.xfail(
            reason="scattered dirty pairs replay as 1x1 tiles, whose 10x10 GEMMs "
                   "can round differently from the grid's at m >= 600")),
    ])
    def test_batches_match_scratch(self, m):
        cfg = TingeConfig(n_permutations=10, n_null_pairs=80, seed=3)
        assert cfg.tile is None
        dm = 3
        full = _coupled(100, m + 3 * dm, seed=5)
        u = NetworkUpdater.from_result(reconstruct_network(full[:, :m], config=cfg),
                                       full[:, :m])
        for k in range(3):
            hi = m + (k + 1) * dm
            assert u.add_samples(full[:, hi - dm:hi]) is not None
            ref = reconstruct_network(full[:, :hi], config=cfg).network
            net = u.network
            assert net.threshold == ref.threshold
            assert np.array_equal(net.adjacency, ref.adjacency)
            assert ref.adjacency.any()
            # Non-edge cells may be stale by design; edge weights may not.
            assert np.array_equal(net.weights[ref.adjacency],
                                  ref.weights[ref.adjacency])


class TestResumeAcrossDefault:
    """A ledger written at another tile resumes at that tile."""

    CFG = TingeConfig(n_permutations=10, n_null_pairs=80, seed=1)

    @pytest.fixture(scope="class")
    def data(self):
        return _coupled(70, 90, seed=9)  # 70 genes: a ragged tail of 6

    def _fresh(self, data, tile=None):
        cfg = TingeConfig(n_permutations=10, n_null_pairs=80, seed=1, tile=tile)
        return reconstruct_network(data, config=cfg)

    def _interrupted_ledger(self, data, ck):
        """Run one block-row at tile 16 (an earlier default) and stop."""
        pipe = TingePipeline(TingeConfig(n_permutations=10, n_null_pairs=80,
                                         seed=1, tile=16))
        source = TensorSource(pipe.weights(pipe.transform(data)))
        plan = pipe.plan(source)
        sink = CheckpointSink(ck, plan[0], source.fingerprint(), interrupt_after_rows=1)
        assert pipe.mi(source, sink, plan) is None
        status = checkpoint_status(ck)
        assert (status["tile"], status["done_rows"]) == (16, 1)

    def test_auto_reconstruct_resumes_older_tile(self, data, tmp_path):
        self._interrupted_ledger(data, tmp_path / "checkpoint")
        out = auto_reconstruct(data, config=self.CFG, workdir=tmp_path, checkpoint=True)
        assert out.strategy == "checkpointed"
        # Exactly the run the ledger started, had it not been interrupted ...
        assert np.array_equal(out.network.weights, self._fresh(data, tile=16).mi)
        # ... and a fresh run under the rule, up to the ragged tail's ulps.
        fresh = self._fresh(data)
        assert_tile_equivalent(out.network.weights, fresh.mi)
        assert fresh.network.adjacency.any()
        assert np.array_equal(out.network.adjacency, fresh.network.adjacency)

    def test_serve_job_resumes_older_tile(self, data, tmp_path):
        from repro.serve.runner import _checkpointed_mi

        ck = tmp_path / "ck"
        self._interrupted_ledger(data, ck)
        pipe = TingePipeline(self.CFG)
        source = TensorSource(pipe.weights(pipe.transform(data)))
        job = SimpleNamespace(phase=None, interrupt_after_rows=None)
        mi, sink = _checkpointed_mi(job, pipe, source, ck)
        assert sink.new_rows == len(sink.rows) - 1  # the stored row is reused
        assert np.array_equal(mi, self._fresh(data, tile=16).mi)
        assert_tile_equivalent(mi, self._fresh(data).mi)

    def test_updater_resumes_older_tile(self, tmp_path):
        ck = tmp_path / "ck"
        full = _coupled(70, 96, seed=4)
        base, new = full[:, :90], full[:, 90:]
        cfg16 = TingeConfig(n_permutations=10, n_null_pairs=80, seed=1, tile=16)
        old = NetworkUpdater.from_result(reconstruct_network(base, config=cfg16), base)
        assert old.add_samples(new, checkpoint_dir=ck, interrupt_after_rows=1) is None
        assert checkpoint_status(ck)["tile"] == 16  # a coarse replay on the 16 grid
        u = NetworkUpdater.from_result(reconstruct_network(base, config=self.CFG), base)
        assert u.add_samples(new, checkpoint_dir=ck) is not None
        ref = reconstruct_network(full, config=self.CFG).network
        assert u.network.threshold == ref.threshold
        assert np.array_equal(u.network.adjacency, ref.adjacency)
        edges = ref.adjacency
        assert_tile_equivalent(np.where(edges, u.network.weights, 0.0),
                               np.where(edges, ref.weights, 0.0))

    def test_explicit_tile_still_refuses_other_ledger(self, data, tmp_path):
        self._interrupted_ledger(data, tmp_path / "checkpoint")
        cfg = TingeConfig(n_permutations=10, n_null_pairs=80, seed=1, tile=32)
        with pytest.raises(ValueError, match="tile=16"):
            auto_reconstruct(data, config=cfg, workdir=tmp_path, checkpoint=True)


class TestAutotuneDeprecated:
    """The knob survives for stored configs and old calls, and does nothing."""

    def test_config_warns_and_runs_the_rule(self):
        data = _coupled(40, 80, seed=2)
        with pytest.warns(DeprecationWarning, match="autotune"):
            cfg = TingeConfig(n_permutations=5, n_null_pairs=40, autotune=True)
        ref = TingeConfig(n_permutations=5, n_null_pairs=40)
        assert np.array_equal(reconstruct_network(data, config=cfg).mi,
                              reconstruct_network(data, config=ref).mi)

    def test_cli_flag_warns(self, tmp_path, capsys):
        from repro.cli import main

        ds = tmp_path / "ds.npz"
        assert main(["generate", "--genes", "20", "--samples", "60", "--out", str(ds)]) == 0
        edges = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        assert main(["reconstruct", str(ds), "--out", str(edges[0]),
                     "--permutations", "5"]) == 0
        capsys.readouterr()
        assert main(["reconstruct", str(ds), "--out", str(edges[1]),
                     "--permutations", "5", "--autotune"]) == 0
        assert "--autotune is deprecated" in capsys.readouterr().err
        assert edges[0].read_bytes() == edges[1].read_bytes()
