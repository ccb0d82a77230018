"""Tests for the elastic backend: task graph, engine, kill+join recovery.

The task-graph layer is pure bookkeeping and is tested without any I/O.
Engine protocol tests run workers as *threads* inside this process
(``worker_main`` against a ``spawn=False`` engine: the ``elastic_engine``
fixture in conftest.py) so they are fast and can use test-module task
functions.  The membership-churn test uses real
``repro worker`` subprocesses, SIGKILLs one mid-run and hot-joins
another, and asserts the matrix stays bit-identical to serial — the
PR's headline guarantee.
"""

import functools
import operator
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster.elastic import ElasticEngine
from repro.cluster.taskgraph import (
    TaskGraph,
    TileTask,
    compile_items,
    compile_plan,
    tile_shards,
)
from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.exec import DenseSink, TensorSource, plan_tiles, run_tile_plan
from repro.core.tiling import Tile
from repro.data import yeast_subset


# ---------------------------------------------------------------------------
# Task graph (no sockets, no processes)
# ---------------------------------------------------------------------------


class TestTileShards:
    def test_aligned_diagonal_tile_hits_one_shard(self):
        t = Tile(i0=8, i1=16, j0=8, j1=16)
        assert tile_shards(t, shard=8) == (1,)

    def test_off_diagonal_tile_hits_both_block_rows(self):
        t = Tile(i0=0, i1=8, j0=16, j1=24)
        assert tile_shards(t, shard=8) == (0, 2)

    def test_unaligned_tile_spans_shards(self):
        t = Tile(i0=6, i1=10, j0=6, j1=10)
        assert tile_shards(t, shard=8) == (0, 1)


class TestTaskGraph:
    def _graph(self, shards_by_task):
        return TaskGraph(tasks=[
            TileTask(index=i, item=i, shards=s)
            for i, s in enumerate(shards_by_task)
        ])

    def test_next_for_follows_queue_order_without_cache(self):
        g = self._graph([(0,), (1,), (2,)])
        assert g.next_for("w0").index == 0
        assert g.next_for("w1").index == 1
        assert g.locality_hits == 0

    def test_next_for_prefers_cached_shards(self):
        g = self._graph([(0,), (1,), (1,)])
        # w0 already holds shard 1: it should skip the head task.
        task = g.next_for("w0", cached_shards={1})
        assert task.index == 1
        assert g.locality_hits == 1

    def test_locality_window_is_bounded(self):
        shards = [(0,)] * 40 + [(9,)]
        g = TaskGraph(tasks=[TileTask(index=i, item=i, shards=s)
                             for i, s in enumerate(shards)],
                      locality_window=8)
        # The matching task sits beyond the window: take the head instead.
        assert g.next_for("w0", cached_shards={9}).index == 0

    def test_complete_and_done(self):
        g = self._graph([(), ()])
        t0 = g.next_for("w0")
        t1 = g.next_for("w0")
        assert not g.done()
        g.complete(t0.index)
        g.complete(t1.index)
        assert g.done()
        assert g.n_done == 2
        assert g.owners() == {"w0": 2}

    def test_complete_not_running_raises(self):
        g = self._graph([()])
        with pytest.raises(KeyError):
            g.complete(0)

    def test_release_worker_requeues_in_flight_at_front(self):
        g = self._graph([(), (), (), ()])
        g.next_for("dead")   # index 0
        g.next_for("alive")  # index 1
        g.next_for("dead")   # index 2
        released = g.release_worker("dead")
        assert sorted(t.index for t in released) == [0, 2]
        assert g.reassigned == 2
        # Released tasks come back before the untouched tail (index 3).
        assert g.next_for("w2").index == 0
        assert g.next_for("w2").index == 2
        assert g.next_for("w2").index == 3

    def test_duplicate_result_after_reassignment_is_ignored(self):
        g = self._graph([()])
        g.next_for("w0")
        g.release_worker("w0")       # w0 presumed dead
        g.next_for("w1")             # reassigned
        g.complete(0)                # w1's result commits
        assert g.complete(0).state == "done"  # late w0 duplicate: no-op

    def test_compile_plan_carries_locality_hints(self):
        ds = yeast_subset(n_genes=16, m_samples=40, seed=0)
        w = weight_tensor(rank_transform(ds.expression))
        plan = plan_tiles(TensorSource(w), tile=8)
        g = compile_plan(plan)
        assert g.n_tasks == plan.n_tiles
        assert all(t.shards for t in g.tasks)
        # Items are tile indices in the plan's dispatch order.
        assert sorted(t.item for t in g.tasks) == list(range(plan.n_tiles))

    def test_compile_items_plain_list(self):
        g = compile_items(["a", "b"])
        assert [t.item for t in g.tasks] == ["a", "b"]
        assert all(t.shards == () for t in g.tasks)


# ---------------------------------------------------------------------------
# Engine protocol over in-thread workers (fast: no subprocess spawn)
# ---------------------------------------------------------------------------



class TestElasticEngine:
    def test_map_preserves_order(self, elastic_engine):
        out, failures = elastic_engine.map_supervised(
            functools.partial(operator.mul, 3), list(range(10)))
        assert out == [3 * i for i in range(10)] and failures == {}

    def test_map_strict_failure_raises(self, elastic_engine):
        results, failures = elastic_engine.map_supervised(
            functools.partial(operator.truediv, 1.0), [1, 2, 0, 4])
        assert list(failures) == [2] and "ZeroDivisionError" in failures[2]
        assert results[2] is None

    def test_map_supervised_isolates_failures(self, elastic_engine):
        results, failures = elastic_engine.map_supervised(
            functools.partial(operator.truediv, 12.0), [1, 0, 3, 0, 6])
        assert list(failures) == [1, 3]
        assert all("ZeroDivisionError" in e for e in failures.values())
        assert results[0] == 12.0 and results[2] == 4.0 and results[4] == 2.0

    def test_unpicklable_task_rejected(self, elastic_engine):
        with pytest.raises(TypeError, match="not picklable"):
            elastic_engine.map_supervised(lambda x: x, [1])

    def test_empty_map(self, elastic_engine):
        assert elastic_engine.map_supervised(
            functools.partial(operator.mul, 2), []) == ([], {})

    def test_traffic_metered_per_worker(self, elastic_engine):
        elastic_engine.map_supervised(functools.partial(operator.mul, 2), list(range(6)))
        counters = elastic_engine.meter.peer_counters()
        sent = [k for k in counters if k.startswith("comm.bytes_sent{peer=w")]
        assert len(sent) >= 2  # both workers were fed
        assert all(counters[k] > 0 for k in sent)

    def test_n_workers_tracks_membership(self, elastic_engine):
        assert elastic_engine.n_workers == 2

    def test_make_engine_wires_elastic(self):
        from repro.parallel.engine import engine_kind, make_engine

        eng = make_engine("elastic", n_workers=1, spawn=False)
        try:
            assert engine_kind(eng) == "elastic"
        finally:
            eng.close()


# ---------------------------------------------------------------------------
# Spawned workers' BLAS thread budget
# ---------------------------------------------------------------------------


class TestSpawnedWorkerBlasBudget:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

    @staticmethod
    def budget(n_workers):
        return max(1, len(os.sched_getaffinity(0)) // n_workers)

    def test_spawned_workers_run_the_budget(self, monkeypatch):
        for var in self.BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        eng = ElasticEngine(n_workers=2, heartbeat=1.0)
        try:
            seen, failures = eng.map_supervised(os.getenv, list(self.BLAS_VARS) * 2)
            assert failures == {}
        finally:
            eng.close()
        assert seen == [str(self.budget(2))] * 4

    @pytest.mark.parametrize("n_workers,user,expected", [
        (2, None, "budget"),
        (2, "64", "budget"),    # above the budget: capped
        (1, "1", "1"),          # a lower user setting is kept
        (1, "0", "budget"),     # not a thread count: replaced
    ])
    def test_env_rule(self, monkeypatch, n_workers, user, expected):
        envs = []

        class CapturedPopen:
            def __init__(self, args, env, **kwargs):
                envs.append(env)

            def poll(self):
                return 0

        monkeypatch.setattr("repro.cluster.elastic.subprocess.Popen", CapturedPopen)
        for var in self.BLAS_VARS:
            if user is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, user)
        eng = ElasticEngine(n_workers=n_workers, spawn=False)
        try:
            eng.spawn_worker()
        finally:
            eng.close()
        want = str(self.budget(n_workers)) if expected == "budget" else expected
        assert [envs[0][var] for var in self.BLAS_VARS] == [want, want]


# ---------------------------------------------------------------------------
# Real subprocesses: bit-identity through membership churn
# ---------------------------------------------------------------------------


def _serial_matrix(plan_args):
    source, tile = plan_args
    plan = plan_tiles(source, tile=tile)
    return run_tile_plan(plan, source, DenseSink(source.n_genes), engine=None)


class TestKillAndJoin:
    def test_matrix_bit_identical_through_kill_and_join(self):
        ds = yeast_subset(n_genes=48, m_samples=60, seed=3)
        w = weight_tensor(rank_transform(ds.expression))
        source = TensorSource(w)
        reference = _serial_matrix((source, 8))

        pids = {}
        state = {"results": 0, "killed": None, "joined": None}

        def on_event(kind, info):
            eng = info["engine"]
            if kind == "join":
                pids[info["worker"]] = info["message"].get("pid")
                return
            if kind != "result":
                return
            state["results"] += 1
            if state["results"] >= 3 and state["killed"] is None:
                # SIGKILL a *busy* worker so its in-flight tile must be
                # reassigned (the worker that just reported is idle now).
                for wid, wrec in list(eng.coordinator.workers.items()):
                    if wrec.task is not None and pids.get(wid):
                        os.kill(pids[wid], signal.SIGKILL)
                        state["killed"] = wid
                        break
            if state["results"] >= 6 and state["joined"] is None:
                known = set(eng.coordinator.workers)
                eng.spawn_worker()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    new = set(eng.coordinator.workers) - known
                    if new:
                        state["joined"] = new.pop()
                        return
                    time.sleep(0.05)
                raise AssertionError("replacement worker never joined")

        eng = ElasticEngine(n_workers=3, heartbeat=1.0, on_event=on_event)
        try:
            plan = plan_tiles(source, tile=8)
            out = run_tile_plan(plan, source, DenseSink(source.n_genes),
                                engine=eng)
        finally:
            eng.close()

        assert state["killed"] is not None, "no busy worker was ever killed"
        assert state["joined"] is not None
        graph = eng.last_graph
        assert graph.reassigned >= 1          # the killed worker's tile moved
        owners = graph.owners()
        assert state["joined"] in owners       # the hot-joined worker worked
        assert np.array_equal(out, reference)  # bit-identical despite churn
