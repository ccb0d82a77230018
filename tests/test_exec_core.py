"""Cross-product equivalence suite for the unified tile executor.

Every MI driver is now a ``(source, sink)`` configuration of
:func:`repro.core.exec.run_tile_plan`.  These tests pin the refactor's
central guarantee — bit-identical matrices across every
engine x schedule x source x sink combination — and assert that the
schedule plumbing changes *real dispatch order*, observable through the
tracer's counters and the engines' per-worker task counts.
"""

import threading

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.checkpoint import mi_matrix_checkpointed
from repro.core.discretize import rank_transform
from repro.core.exec import (
    SCHEDULE_NAMES,
    DenseSink,
    MmapSource,
    TensorSource,
    mirror_upper,
    plan_tiles,
    run_tile_plan,
    schedule_policy,
    weights_fingerprint,
)
from repro.core.mi_matrix import mi_matrix
from repro.core.outofcore import (
    build_weight_store,
    mi_matrix_outofcore,
    weight_store_fingerprint,
)
from repro.core.pipeline import TingeConfig, reconstruct_network
from repro.obs.tracer import Tracer
from repro.parallel.engine import (
    ProcessEngine,
    SharedMemoryEngine,
    ThreadEngine,
    make_engine,
)
from repro.parallel.scheduler import (
    CyclicScheduler,
    DynamicScheduler,
    LptScheduler,
    StaticScheduler,
    block_partition,
    cyclic_partition,
    make_scheduler,
)

N_GENES = 14
TILE = 5  # 14 genes / tile 5 -> ragged edge tiles, so per-tile costs differ


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    return rng.normal(size=(N_GENES, 60))


@pytest.fixture(scope="module")
def weights(data):
    return weight_tensor(rank_transform(data), bins=8, order=3)


@pytest.fixture(scope="module")
def reference(weights):
    """Serial grid-order mi_matrix — the bit-identity baseline."""
    return mi_matrix(weights, tile=TILE).mi


# ---------------------------------------------------------------------------
# Plan construction and dispatch order
# ---------------------------------------------------------------------------


class TestTilePlanOrder:
    def plan(self, weights, schedule=None):
        return plan_tiles(TensorSource(weights), tile=TILE, schedule=schedule)

    def test_no_policy_is_grid_order(self, weights):
        plan = self.plan(weights)
        assert plan.order(4) == list(range(plan.n_tiles))

    def test_dynamic_chunk1_is_grid_order(self, weights):
        plan = self.plan(weights, "dynamic")
        assert plan.order(4) == list(range(plan.n_tiles))

    def test_static_concatenates_blocks(self, weights):
        plan = self.plan(weights, "static")
        expected = [int(i) for c in block_partition(plan.n_tiles, 2) for i in c]
        assert plan.order(2) == expected

    def test_cyclic_interleaves(self, weights):
        plan = self.plan(weights, "cyclic")
        expected = [int(i) for c in cyclic_partition(plan.n_tiles, 2) for i in c]
        assert plan.order(2) == expected
        assert expected[:2] == [0, 2]  # round-robin striping, not blocks

    def test_cost_orders_by_descending_tile_cost(self, weights):
        plan = self.plan(weights, "cost")
        costs = plan.costs()
        order = plan.order(1)
        ordered = costs[np.asarray(order)]
        assert (np.diff(ordered) <= 0).all()
        # The ragged grid makes grid order not cost-sorted, so LPT must
        # genuinely permute dispatch.
        assert order != list(range(plan.n_tiles))

    def test_single_worker_static_and_cyclic_are_identity(self, weights):
        # The bit-identity argument for serial runs: with one worker every
        # static policy degenerates to grid order.
        for schedule in ("static", "cyclic"):
            plan = self.plan(weights, schedule)
            assert plan.order(1) == list(range(plan.n_tiles))

    def test_every_order_is_a_permutation(self, weights):
        for schedule in SCHEDULE_NAMES:
            plan = self.plan(weights, schedule)
            for workers in (1, 2, 3):
                assert sorted(plan.order(workers)) == list(range(plan.n_tiles))


class TestSchedulePolicy:
    def test_names_resolve(self):
        assert isinstance(schedule_policy("static"), StaticScheduler)
        assert isinstance(schedule_policy("cyclic"), CyclicScheduler)
        assert isinstance(schedule_policy("cost"), LptScheduler)
        dyn = schedule_policy("dynamic")
        assert isinstance(dyn, DynamicScheduler) and dyn.chunk == 1

    def test_none_and_instance_passthrough(self):
        assert schedule_policy(None) is None
        policy = DynamicScheduler(chunk=3)
        assert schedule_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            schedule_policy("bogus")


# ---------------------------------------------------------------------------
# Cross-product equivalence: engine x schedule, bit-identical to serial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("schedule", list(SCHEDULE_NAMES))
@pytest.mark.parametrize("engine_kind", [None, "serial", "thread", "process", "sharedmem"])
def test_engine_schedule_equivalence(engine_kind, schedule, weights, reference):
    engine = None if engine_kind is None else make_engine(engine_kind, n_workers=2)
    result = mi_matrix(weights, tile=TILE, engine=engine, schedule=schedule)
    assert np.array_equal(result.mi, reference)


def test_mmap_source_equivalence(tmp_path, data, weights, reference):
    """The out-of-core weight store feeds the same executor bit-identically."""
    store = build_weight_store(rank_transform(data), tmp_path / "w",
                               bins=8, order=3, dtype="float64")
    source = MmapSource(store)
    try:
        fingerprint = source.fingerprint()
        plan = plan_tiles(source, tile=TILE, schedule="cost")
        mi = run_tile_plan(plan, source, DenseSink(source.n_genes))
    finally:
        source.close()
    assert np.array_equal(mi, reference)
    assert fingerprint == weights_fingerprint(weights)


@pytest.mark.parametrize("schedule", ["dynamic", "cost"])
def test_outofcore_driver_equivalence(tmp_path, data, reference, schedule):
    store = build_weight_store(rank_transform(data), tmp_path / "w",
                               bins=8, order=3, dtype="float64")
    out = mi_matrix_outofcore(store, tmp_path / "mi", tile=TILE, schedule=schedule)
    assert np.array_equal(np.load(out), reference)


def test_checkpoint_driver_equivalence(tmp_path, weights, reference):
    mi = mi_matrix_checkpointed(weights, tmp_path / "ck", tile=TILE)
    assert np.array_equal(mi, reference)


# ---------------------------------------------------------------------------
# Checkpoint kill/resume through the executor
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    def test_kill_resume_identical(self, tmp_path, weights, reference):
        ck = tmp_path / "ck"
        runs = 0
        mi = None
        while mi is None:
            mi = mi_matrix_checkpointed(weights, ck, tile=TILE,
                                        interrupt_after_rows=1)
            runs += 1
            assert runs <= 10  # 3 block-rows: must converge quickly
        assert runs == 3  # one new row per run; the last run completes
        assert np.array_equal(mi, reference)

    def test_resume_under_different_engine_and_schedule(self, tmp_path, weights,
                                                        reference):
        ck = tmp_path / "ck"
        assert mi_matrix_checkpointed(weights, ck, tile=TILE,
                                      interrupt_after_rows=1) is None
        engine = ThreadEngine(n_workers=2, policy=make_scheduler("static"))
        mi = mi_matrix_checkpointed(weights, ck, tile=TILE, engine=engine,
                                    schedule="cyclic")
        assert np.array_equal(mi, reference)


# ---------------------------------------------------------------------------
# Schedules change real dispatch (observable, not just config state)
# ---------------------------------------------------------------------------


class TestDispatchOrder:
    def test_cost_schedule_reorders_serial_dispatch(self, weights):
        plan = plan_tiles(TensorSource(weights), tile=TILE, schedule="cost")
        grid = [float(t.n_pairs) for t in plan.tiles]
        expected = [float(plan.tiles[i].n_pairs) for i in plan.order(1)]
        assert expected != grid  # the plan genuinely permutes the grid

        tracer = Tracer()
        mi_matrix(weights, tile=TILE, tracer=tracer, schedule="cost")
        deltas = [e.delta for e in tracer.counter_events if e.name == "pairs_done"]
        assert deltas == expected

        tracer = Tracer()
        mi_matrix(weights, tile=TILE, tracer=tracer, schedule="dynamic")
        deltas = [e.delta for e in tracer.counter_events if e.name == "pairs_done"]
        assert deltas == grid

    def test_static_policy_fixes_per_worker_task_counts(self):
        # Force all three pool threads to run concurrently (each chunk's
        # first task blocks on a barrier) so the static block partition is
        # the only possible per-worker split.
        n_items, n_workers = 7, 3
        firsts = {int(c[0]) for c in block_partition(n_items, n_workers)}
        barrier = threading.Barrier(n_workers)

        def task(i):
            if i in firsts:
                barrier.wait(timeout=10)
            return i * i

        tracer = Tracer()
        engine = ThreadEngine(n_workers=n_workers, policy=StaticScheduler(),
                              tracer=tracer)
        results = engine.map(task, list(range(n_items)))
        assert results == [i * i for i in range(n_items)]

        expected = sorted(len(c) for c in block_partition(n_items, n_workers))
        assert sorted(engine.last_map_stats.task_counts().values()) == expected
        (span,) = tracer.find_spans("engine_map")
        assert span.metadata["policy"] == "static"
        assert sorted(span.metadata["worker_tasks"].values()) == expected

    def test_engine_map_span_annotates_policy(self):
        tracer = Tracer()
        engine = ProcessEngine(n_workers=2, policy=CyclicScheduler(), tracer=tracer)
        assert engine.map(_square, list(range(5))) == [0, 1, 4, 9, 16]
        (span,) = tracer.find_spans("engine_map")
        assert span.metadata["policy"] == "cyclic"

    def test_traced_mi_run_reports_worker_tasks(self, weights, reference):
        tracer = Tracer()
        engine = ThreadEngine(n_workers=2, policy=make_scheduler("static"),
                              tracer=tracer)
        result = mi_matrix(weights, tile=TILE, engine=engine, schedule="static")
        assert np.array_equal(result.mi, reference)
        spans = tracer.find_spans("engine_map")
        assert spans and all(s.metadata["policy"] == "static" for s in spans)
        n_tiles = plan_tiles(TensorSource(weights), tile=TILE).n_tiles
        assert sum(sum(s.metadata["worker_tasks"].values()) for s in spans) == n_tiles


def _square(x):
    return x * x


class TestSingleDispatch:
    """The whole grid is one supervised engine call on every engine, with
    progress ticking per tile as each task finishes."""

    def test_fork_engine_one_dispatch_per_tile_progress(self, weights, reference):
        tracer = Tracer()
        engine = SharedMemoryEngine(n_workers=2, tracer=tracer)
        calls = []
        res = mi_matrix(weights, tile=TILE, engine=engine, tracer=tracer,
                        progress=lambda done, total: calls.append((done, total)))
        assert np.array_equal(res.mi, reference)
        (outer,) = tracer.find_spans("mi_matrix")
        maps = [s for s in tracer.find_spans("engine_map")
                if s.parent_id == outer.span_id]
        assert len(maps) == 1
        assert len(tracer.find_spans("engine_map")) == 1
        assert calls == [(k, res.n_tiles) for k in range(1, res.n_tiles + 1)]

    def test_thread_workers_lose_no_tick_or_put(self, data, weights):
        """More worker threads than cores and a short switch interval: the
        per-tile callbacks run concurrently in the workers, and neither the
        progress count nor a put-only sink may lose an update."""
        import sys

        from repro.cluster.distributed import distributed_reconstruct

        serial = mi_matrix(weights, tile=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tracer = Tracer()
            calls = []
            res = mi_matrix(weights, tile=2, engine=ThreadEngine(n_workers=8),
                            tracer=tracer,
                            progress=lambda done, total: calls.append(done))
            dist = distributed_reconstruct(data, n_ranks=3, bins=8, tile=2,
                                           engine=ThreadEngine(n_workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(res.mi, serial.mi)
        assert calls == list(range(1, res.n_tiles + 1))
        assert tracer.counters["tiles_done"] == res.n_tiles
        assert sum(dist.tiles_per_rank) == res.n_tiles


class TestMirrorUpper:
    @pytest.mark.parametrize("n", [2, 7, 64, 130])
    def test_matches_indexed_mirror(self, n):
        rng = np.random.default_rng(n)
        mi = rng.normal(size=(n, n))
        expected = mi.copy()
        iu = np.triu_indices(n, k=1)
        expected[(iu[1], iu[0])] = expected[iu]
        got = mirror_upper(mi.copy(), block=32)
        assert np.array_equal(got, expected)
        assert np.array_equal(mirror_upper(mi.copy()), expected)


# ---------------------------------------------------------------------------
# Weight-store fingerprint header (out-of-core integrity)
# ---------------------------------------------------------------------------


class TestWeightStoreFingerprint:
    def build(self, tmp_path, data):
        return build_weight_store(rank_transform(data), tmp_path / "w",
                                  bins=8, order=3, dtype="float64")

    def test_sidecar_records_tensor_fingerprint(self, tmp_path, data, weights):
        store = self.build(tmp_path, data)
        assert weight_store_fingerprint(store) == weights_fingerprint(weights)

    def test_tampered_store_rejected(self, tmp_path, data):
        store = self.build(tmp_path, data)
        arr = np.load(store, mmap_mode="r+")
        arr[0, 0, 0] += 0.125
        arr.flush()
        del arr
        with pytest.raises(ValueError, match="fingerprint"):
            mi_matrix_outofcore(store, tmp_path / "mi", tile=TILE)

    def test_missing_sidecar_tolerated(self, tmp_path, data, reference):
        store = self.build(tmp_path, data)
        store.with_name(store.name + ".meta.json").unlink()
        assert weight_store_fingerprint(store) is None
        out = mi_matrix_outofcore(store, tmp_path / "mi", tile=TILE)
        assert np.array_equal(np.load(out), reference)


# ---------------------------------------------------------------------------
# Config / pipeline plumbing
# ---------------------------------------------------------------------------


class TestConfigPlumbing:
    def test_config_rejects_unknown_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            TingeConfig(schedule="bogus")

    def test_pipeline_schedule_equivalence(self, data):
        results = {}
        for schedule in ("dynamic", "cost", "static"):
            cfg = TingeConfig(bins=8, n_permutations=5, n_null_pairs=40,
                              tile=TILE, schedule=schedule)
            results[schedule] = reconstruct_network(data, config=cfg)
        base = results["dynamic"]
        for schedule in ("cost", "static"):
            assert np.array_equal(results[schedule].mi, base.mi)
            assert np.array_equal(results[schedule].network.adjacency,
                                  base.network.adjacency)

    def test_cli_schedule_flag(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["reconstruct", "x.tsv", "--out", str(tmp_path / "e.tsv"),
             "--schedule", "cost"]
        )
        assert args.schedule == "cost"
