"""Tests for repro.parallel.engine, sharedmem and reductions."""

import threading

import numpy as np
import pytest

from repro.parallel.engine import (
    _FORK_TASKS,
    ProcessEngine,
    SerialEngine,
    SharedMemoryEngine,
    ThreadEngine,
    make_engine,
)
from repro.parallel.reductions import linear_reduce, merge_histograms, tree_depth, tree_reduce
from repro.parallel.scheduler import StaticScheduler
from repro.parallel.sharedmem import SharedArray


def square(x):
    return x * x


def write_slot(out, i):
    out[i] = i * 10.0


class TestSerialEngine:
    def test_map_order(self):
        assert SerialEngine().map(square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert SerialEngine().map(square, []) == []


class TestThreadEngine:
    def test_map_order_preserved(self):
        eng = ThreadEngine(n_workers=4)
        assert eng.map(square, list(range(50))) == [i * i for i in range(50)]

    def test_static_policy(self):
        eng = ThreadEngine(n_workers=3, policy=StaticScheduler())
        assert eng.map(square, list(range(20))) == [i * i for i in range(20)]

    def test_closures_allowed(self):
        offset = 10
        eng = ThreadEngine(n_workers=2)
        assert eng.map(lambda x: x + offset, [1, 2]) == [11, 12]

    def test_single_worker(self):
        assert ThreadEngine(n_workers=1).map(square, [3]) == [9]

    def test_empty(self):
        assert ThreadEngine(n_workers=2).map(square, []) == []

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ThreadEngine(n_workers=0)

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("kernel failed")

        with pytest.raises(RuntimeError, match="kernel failed"):
            ThreadEngine(n_workers=2).map(boom, [1])


class TestProcessEngine:
    def test_concurrent_maps_do_not_clobber(self):
        # Regression: task publication used one module-global slot, so two
        # threads mapping at once overwrote each other's (fn, items).
        eng = ProcessEngine(n_workers=2)
        results = {}

        def run(key, fn, items):
            results[key] = eng.map(fn, items)

        threads = [
            threading.Thread(target=run, args=("double", lambda x: x * 2, list(range(100)))),
            threading.Thread(target=run, args=("offset", lambda x: x + 1000, list(range(100)))),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["double"] == [x * 2 for x in range(100)]
        assert results["offset"] == [x + 1000 for x in range(100)]

    def test_nested_map_runs_inline(self):
        # A map issued from inside a (daemonic) worker cannot fork again;
        # it must degrade to in-process execution, not crash or hang.
        def outer(x):
            inner = ProcessEngine(n_workers=2)
            return sum(inner.map(lambda y: y * x, [1, 2, 3]))

        eng = ProcessEngine(n_workers=2)
        assert eng.map(outer, [1, 2, 3]) == [6, 12, 18]

    def test_registry_left_clean(self):
        before = dict(_FORK_TASKS)
        ProcessEngine(n_workers=2).map(square, list(range(8)))
        assert _FORK_TASKS == before

    def test_map_with_closure_over_array(self):
        big = np.arange(100)

        def task(i):
            return int(big[i]) + 1

        eng = ProcessEngine(n_workers=2)
        assert eng.map(task, [0, 5, 99]) == [1, 6, 100]

    def test_order_preserved(self):
        eng = ProcessEngine(n_workers=2)
        assert eng.map(square, list(range(10))) == [i * i for i in range(10)]

    def test_single_worker_inline(self):
        assert ProcessEngine(n_workers=1).map(square, [4]) == [16]

    def test_empty(self):
        assert ProcessEngine(n_workers=2).map(square, []) == []


class TestSharedMemoryEngine:
    def test_map_into_writes_in_place(self):
        out = np.full(8, -1.0)
        SharedMemoryEngine(n_workers=2).map_into(write_slot, list(range(8)), out)
        assert np.array_equal(out, np.arange(8) * 10.0)

    def test_map_into_sharedarray_sink(self):
        # Passing a SharedArray skips the staging copy entirely.
        sa = SharedArray.create((6,), "float64")
        try:
            sa.array[:] = 0.0
            SharedMemoryEngine(n_workers=2).map_into(write_slot, list(range(6)), sa)
            assert np.array_equal(sa.array, np.arange(6) * 10.0)
        finally:
            sa.close()
            sa.unlink()

    def test_map_into_closure_over_array(self):
        # Closures reach workers by fork/COW, never by pickling.
        big = np.arange(100, dtype=np.float64)

        def task(out, i):
            out[i] = big[i] + 0.5

        out = np.zeros(10)
        SharedMemoryEngine(n_workers=3).map_into(task, list(range(10)), out)
        assert np.array_equal(out, np.arange(10) + 0.5)

    def test_map_into_2d_blocks(self):
        out = np.zeros((4, 4))

        def block(o, r):
            o[r, :] = r + 1.0

        SharedMemoryEngine(n_workers=2).map_into(block, list(range(4)), out)
        assert np.array_equal(out, np.repeat(np.arange(1.0, 5.0)[:, None], 4, axis=1))

    def test_map_into_empty(self):
        out = np.full(3, 7.0)
        SharedMemoryEngine(n_workers=2).map_into(write_slot, [], out)
        assert np.array_equal(out, np.full(3, 7.0))

    def test_map_into_single_worker_inline(self):
        out = np.zeros(4)
        SharedMemoryEngine(n_workers=1).map_into(write_slot, list(range(4)), out)
        assert np.array_equal(out, np.arange(4) * 10.0)

    def test_map_into_bad_sink_rejected(self):
        with pytest.raises(TypeError):
            SharedMemoryEngine(n_workers=2).map_into(write_slot, [0], [0.0, 0.0])

    def test_worker_error_propagates(self):
        def boom(out, i):
            raise ValueError("tile kernel failed")

        with pytest.raises(RuntimeError, match="tile kernel failed"):
            SharedMemoryEngine(n_workers=2).map_into(boom, [0, 1, 2], np.zeros(3))

    def test_registry_left_clean_after_error(self):
        before = dict(_FORK_TASKS)

        def boom(out, i):
            raise ValueError("nope")

        with pytest.raises(RuntimeError):
            SharedMemoryEngine(n_workers=2).map_into(boom, [0, 1], np.zeros(2))
        assert _FORK_TASKS == before

    def test_plain_map_inherited(self):
        eng = SharedMemoryEngine(n_workers=2)
        assert eng.map(square, list(range(10))) == [i * i for i in range(10)]

    def test_reusable_across_calls(self):
        eng = SharedMemoryEngine(n_workers=2)
        a, b = np.zeros(5), np.zeros(5)
        eng.map_into(write_slot, list(range(5)), a)
        eng.map_into(lambda o, i: o.__setitem__(i, -float(i)), list(range(5)), b)
        assert np.array_equal(a, np.arange(5) * 10.0)
        assert np.array_equal(b, -np.arange(5, dtype=float))


class TestMapIntoInProcessEngines:
    @pytest.mark.parametrize("engine", [SerialEngine(), ThreadEngine(n_workers=3)])
    def test_map_into(self, engine):
        out = np.zeros(12)
        engine.map_into(write_slot, list(range(12)), out)
        assert np.array_equal(out, np.arange(12) * 10.0)

    def test_process_engine_map_into_stages_shared_memory(self):
        # ProcessEngine workers would write COW copies the parent never
        # sees, so the in-place form stages the sink in shared memory.
        out = np.zeros(6)
        ProcessEngine(n_workers=2).map_into(write_slot, list(range(6)), out)
        assert np.array_equal(out, np.arange(6) * 10.0)


class TestMakeEngine:
    def test_kinds(self):
        assert isinstance(make_engine("serial"), SerialEngine)
        assert isinstance(make_engine("thread", n_workers=2), ThreadEngine)
        assert isinstance(make_engine("process", n_workers=1), ProcessEngine)
        assert isinstance(make_engine("sharedmem", n_workers=1), SharedMemoryEngine)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_engine("gpu")


class TestSharedArray:
    def test_create_write_read(self):
        sa = SharedArray.create((3, 3), "float64")
        try:
            sa.array[:] = 7.0
            assert sa.array.sum() == 63.0
        finally:
            sa.close()
            sa.unlink()

    def test_attach_sees_writes(self):
        sa = SharedArray.create((4,), "int64")
        try:
            sa.array[:] = 0
            dup = SharedArray.attach(*sa.handle())
            dup.array[2] = 42
            assert sa.array[2] == 42
            dup.close()
        finally:
            sa.close()
            sa.unlink()

    def test_from_array_copies(self, rng):
        src = rng.normal(size=(5, 2))
        sa = SharedArray.from_array(src)
        try:
            assert np.array_equal(sa.array, src)
        finally:
            sa.close()
            sa.unlink()

    def test_attacher_cannot_unlink(self):
        sa = SharedArray.create((2,), "float64")
        dup = SharedArray.attach(*sa.handle())
        try:
            with pytest.raises(RuntimeError):
                dup.unlink()
        finally:
            dup.close()
            sa.close()
            sa.unlink()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SharedArray.create((0,), "float64")

    def test_cross_process_writes(self):
        # Workers write disjoint slots of a shared output vector.
        sa = SharedArray.create((8,), "float64")
        try:
            sa.array[:] = -1.0
            handle = sa.handle()

            def worker(i):
                dup = SharedArray.attach(*handle)
                dup.array[i] = i * 10.0
                dup.close()
                return i

            eng = ProcessEngine(n_workers=2)
            eng.map(worker, list(range(8)))
            assert np.array_equal(sa.array, np.arange(8) * 10.0)
        finally:
            sa.close()
            sa.unlink()


class TestReductions:
    def test_linear_and_tree_agree(self, rng):
        parts = [rng.normal(size=4) for _ in range(9)]
        a = linear_reduce(parts, np.add)
        b = tree_reduce(parts, np.add)
        assert np.allclose(a, b)

    def test_single_part(self):
        assert tree_reduce([5], lambda a, b: a + b) == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tree_reduce([], np.add)
        with pytest.raises(ValueError):
            linear_reduce([], np.add)

    def test_tree_depth(self):
        assert tree_depth(1) == 0
        assert tree_depth(2) == 1
        assert tree_depth(8) == 3
        assert tree_depth(9) == 4

    def test_tree_depth_invalid(self):
        with pytest.raises(ValueError):
            tree_depth(0)

    def test_merge_histograms(self, rng):
        parts = [rng.integers(0, 5, size=(3, 3)).astype(float) for _ in range(4)]
        merged = merge_histograms(parts)
        assert np.allclose(merged, sum(parts))

    def test_merge_shape_mismatch(self):
        with pytest.raises(ValueError):
            merge_histograms([np.zeros(3), np.zeros(4)])
