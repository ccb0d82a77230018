"""Tests for repro.parallel.engine and sharedmem."""

import ctypes
import os
import threading

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS copy)

from repro.parallel.engine import (
    _FORK_TASKS,
    ENGINE_KINDS,
    EngineFailure,
    SerialEngine,
    SharedMemoryEngine,
    ThreadEngine,
    blas_budget,
    blas_threads,
    engine_kind,
    make_engine,
    worker_blas_threads,
)
from repro.parallel.scheduler import StaticScheduler
from repro.parallel.sharedmem import SharedArray


def square(x):
    return x * x


def write_slot(out, i):
    out[i] = i * 10.0


def run_map(engine, fn, items):
    """``map_supervised`` results, asserting that no task failed."""
    results, failures = engine.map_supervised(fn, items)
    assert failures == {}
    return results


def run_map_into(engine, fn, items, out):
    """``map_into_supervised``, asserting that no task failed."""
    assert engine.map_into_supervised(fn, items, out) == {}


class TestSerialEngine:
    def test_map_order(self):
        assert run_map(SerialEngine(), square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert run_map(SerialEngine(), square, []) == []


class TestThreadEngine:
    def test_map_order_preserved(self):
        eng = ThreadEngine(n_workers=4)
        assert run_map(eng, square, list(range(50))) == [i * i for i in range(50)]

    def test_static_policy(self):
        eng = ThreadEngine(n_workers=3, policy=StaticScheduler())
        assert run_map(eng, square, list(range(20))) == [i * i for i in range(20)]

    def test_closures_allowed(self):
        offset = 10
        eng = ThreadEngine(n_workers=2)
        assert run_map(eng, lambda x: x + offset, [1, 2]) == [11, 12]

    def test_single_worker(self):
        assert run_map(ThreadEngine(n_workers=1), square, [3]) == [9]

    def test_empty(self):
        assert run_map(ThreadEngine(n_workers=2), square, []) == []

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ThreadEngine(n_workers=0)

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("kernel failed")

        results, failures = ThreadEngine(n_workers=2).map_supervised(boom, [1])
        assert results == [None]
        assert failures == {0: "RuntimeError: kernel failed"}


#: Thread-count getters of numpy's and scipy's OpenBLAS builds and of a
#: plain OpenBLAS, resolved here independently of the engine's resolver.
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def blas_thread_counts() -> dict:
    """``{library path: thread count}`` of every OpenBLAS in this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh
                 if "openblas" in line.rsplit("/", 1)[-1].lower()}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_GETTERS:
            if hasattr(lib, name):
                counts[path] = getattr(lib, name)()
                break
    return counts


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


class TestWorkerBlasBudget:
    @pytest.mark.skipif(not os.path.exists("/proc/self/maps") or not blas_thread_counts(),
                        reason="no OpenBLAS loaded: the per-worker cap is a no-op")
    @pytest.mark.parametrize("cls", [SharedMemoryEngine])
    def test_fork_workers_get_budget_parent_and_inline_keep_theirs(self, cls):
        parent = blas_thread_counts()
        budget = max(1, len(os.sched_getaffinity(0)) // 2)
        # Never above the parent's count: a user's OPENBLAS_NUM_THREADS=1 holds.
        capped = {path: min(n, budget) for path, n in parent.items()}
        seen = run_map(cls(n_workers=2), lambda _: (blas_thread_counts(), os_threads()), range(4))
        assert [counts for counts, _ in seen] == [capped] * 4
        if all(hasattr(ctypes.CDLL(path), "blas_thread_shutdown_") for path in parent):
            # Capping must not leave BLAS pool threads spinning in a worker
            # whose tasks never call BLAS.
            assert [threads for _, threads in seen] == [1] * 4
        assert blas_thread_counts() == parent

        # Inline paths run in the calling process and change nothing.
        assert run_map(cls(n_workers=1), lambda _: blas_thread_counts(), [0, 1]) == [parent] * 2

        def nested(_):
            before = blas_thread_counts()
            inner = run_map(cls(n_workers=2), lambda _: blas_thread_counts(), [0, 1])
            return before, inner, blas_thread_counts()

        for before, inner, after in run_map(cls(n_workers=2), nested, [0, 1]):
            assert before == capped and inner == [capped] * 2 and after == capped
        assert blas_thread_counts() == parent


def set_blas_threads(counts: dict) -> None:
    """Set each OpenBLAS in ``{library path: thread count}`` (a user's setting)."""
    for path, n in counts.items():
        lib = ctypes.CDLL(path)
        getter = next(name for name in _OPENBLAS_GETTERS if hasattr(lib, name))
        getattr(lib, getter.replace("_get_", "_set_"))(n)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps") or not blas_thread_counts(),
                    reason="no OpenBLAS symbol resolves: the budget is a no-op")
class TestBlasBudget:
    """The process-wide BLAS budget of in-process workers (daemon job
    threads and ThreadEngine dispatches)."""

    @pytest.fixture(autouse=True)
    def original(self):
        before = blas_thread_counts()
        yield before
        assert blas_thread_counts() == before

    @staticmethod
    def capped(counts: dict, n_workers: int) -> dict:
        budget = worker_blas_threads(n_workers)
        return {path: min(n, budget) for path, n in counts.items()}

    def test_overlapping_apps_refcount_the_budget(self, original, tmp_path):
        from repro.serve import ServeApp

        capped = self.capped(original, 2)
        a = ServeApp(tmp_path / "a", n_workers=2)
        b = ServeApp(tmp_path / "b", n_workers=2)
        assert blas_thread_counts() == capped
        assert a.health()["blas_threads"] == min(capped.values())
        c = ServeApp(tmp_path / "c", n_workers=2)
        assert a.drain(timeout=10) and b.drain(timeout=10)
        # C still runs its jobs: draining A and B must not un-cap it.
        assert blas_thread_counts() == capped
        assert c.drain(timeout=10)
        assert blas_thread_counts() == original
        assert c.drain(timeout=10)  # a second drain releases nothing more
        assert blas_thread_counts() == original

    def test_users_lower_count_holds_and_is_restored(self, original, monkeypatch):
        import repro.parallel.engine as engine

        set_blas_threads(dict.fromkeys(original, 1))
        try:
            # A budget wider than the user's setting leaves it alone.
            monkeypatch.setattr(engine, "worker_blas_threads", lambda n: 2)
            lowered = blas_thread_counts()
            with blas_budget(2):
                assert blas_thread_counts() == lowered
                assert run_map(ThreadEngine(n_workers=2), lambda _: blas_threads(),
                               range(2)) == [1, 1]
            assert blas_thread_counts() == lowered
        finally:
            set_blas_threads(original)

    def test_thread_engine_tasks_read_the_capped_count(self, original):
        capped = self.capped(original, 2)
        seen = run_map(ThreadEngine(n_workers=2), lambda _: blas_thread_counts(), range(4))
        assert seen == [capped] * 4
        assert blas_thread_counts() == original
        # One item runs on one thread, which keeps the full width (the
        # fork pool's rule: no more workers than items).
        assert run_map(ThreadEngine(n_workers=2), lambda _: blas_thread_counts(),
                       [0]) == [original]

    def test_dispatch_inside_a_budget_keeps_its_cap(self, original):
        capped = self.capped(original, 2)
        with blas_budget(2):
            seen = run_map(ThreadEngine(n_workers=2), lambda _: blas_thread_counts(), [0])
            assert seen == [capped] and blas_thread_counts() == capped
        assert blas_thread_counts() == original

    def test_concurrent_holders_never_lose_a_release(self, original):
        import sys

        capped = self.capped(original, 2)
        seen_inside = []

        def churn():
            for _ in range(50):
                with blas_budget(2):
                    seen_inside.append(blas_thread_counts() == capped)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen_inside) == 400 and all(seen_inside)
        assert blas_thread_counts() == original

    def test_one_worker_changes_nothing(self, original, tmp_path):
        from repro.serve import ServeApp

        app = ServeApp(tmp_path / "one", n_workers=1)
        try:
            assert blas_thread_counts() == original
            assert run_map(ThreadEngine(n_workers=1), lambda _: blas_thread_counts(),
                           [0]) == [original]
        finally:
            assert app.drain(timeout=10)
        with blas_budget(1):
            assert blas_thread_counts() == original


class TestSharedMemoryEngine:
    def test_concurrent_maps_do_not_clobber(self):
        # Regression: task publication used one module-global slot, so two
        # threads mapping at once overwrote each other's (fn, items).
        eng = SharedMemoryEngine(n_workers=2)
        results = {}

        def run(key, fn, items):
            results[key] = run_map(eng, fn, items)

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
            inner = SharedMemoryEngine(n_workers=2)
            return sum(run_map(inner, lambda y: y * x, [1, 2, 3]))

        eng = SharedMemoryEngine(n_workers=2)
        assert run_map(eng, outer, [1, 2, 3]) == [6, 12, 18]

    def test_registry_left_clean(self):
        before = dict(_FORK_TASKS)
        run_map(SharedMemoryEngine(n_workers=2), square, list(range(8)))
        assert _FORK_TASKS == before

    def test_map_with_closure_over_array(self):
        big = np.arange(100)

        def task(i):
            return int(big[i]) + 1

        eng = SharedMemoryEngine(n_workers=2)
        assert run_map(eng, task, [0, 5, 99]) == [1, 6, 100]

    def test_single_worker_inline(self):
        assert run_map(SharedMemoryEngine(n_workers=1), square, [4]) == [16]

    def test_empty(self):
        assert run_map(SharedMemoryEngine(n_workers=2), square, []) == []

    def test_map_into_writes_in_place(self):
        out = np.full(8, -1.0)
        run_map_into(SharedMemoryEngine(n_workers=2), write_slot, list(range(8)), out)
        assert np.array_equal(out, np.arange(8) * 10.0)

    def test_map_into_sharedarray_sink(self):
        # Passing a SharedArray skips the staging copy entirely.
        sa = SharedArray.create((6,), "float64")
        try:
            sa.array[:] = 0.0
            run_map_into(SharedMemoryEngine(n_workers=2), write_slot, list(range(6)), sa)
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
        run_map_into(SharedMemoryEngine(n_workers=3), task, list(range(10)), out)
        assert np.array_equal(out, np.arange(10) + 0.5)

    def test_map_into_2d_blocks(self):
        out = np.zeros((4, 4))

        def block(o, r):
            o[r, :] = r + 1.0

        run_map_into(SharedMemoryEngine(n_workers=2), block, list(range(4)), out)
        assert np.array_equal(out, np.repeat(np.arange(1.0, 5.0)[:, None], 4, axis=1))

    def test_map_into_empty(self):
        out = np.full(3, 7.0)
        run_map_into(SharedMemoryEngine(n_workers=2), write_slot, [], out)
        assert np.array_equal(out, np.full(3, 7.0))

    def test_map_into_single_worker_inline(self):
        out = np.zeros(4)
        run_map_into(SharedMemoryEngine(n_workers=1), write_slot, list(range(4)), out)
        assert np.array_equal(out, np.arange(4) * 10.0)

    def test_map_into_bad_sink_rejected(self):
        with pytest.raises(TypeError):
            run_map_into(SharedMemoryEngine(n_workers=2), write_slot, [0], [0.0, 0.0])

    def test_worker_error_propagates(self):
        def boom(out, i):
            raise ValueError("tile kernel failed")

        failures = SharedMemoryEngine(n_workers=2).map_into_supervised(
            boom, [0, 1, 2], np.zeros(3))
        assert sorted(failures) == [0, 1, 2]
        assert all("tile kernel failed" in err for err in failures.values())

    def test_registry_left_clean_after_error(self):
        before = dict(_FORK_TASKS)

        def boom(out, i):
            raise ValueError("nope")

        failures = SharedMemoryEngine(n_workers=2).map_into_supervised(
            boom, [0, 1], np.zeros(2))
        assert sorted(failures) == [0, 1]
        assert _FORK_TASKS == before

    def test_map_into_copies_back_when_the_call_raises(self):
        # The engine stages a plain ndarray in shared memory; blocks whose
        # on_done already fired must reach ``out`` even when the call
        # raises (the executor keeps them across an engine fallback), and
        # on_done sees the array the workers write into.
        out = np.full(12, -1.0)
        seen = {}

        def done(pos, written):
            seen[pos] = None if written is None else float(written[pos])
            if len(seen) == 3:
                raise EngineFailure("pool lost")

        with pytest.raises(EngineFailure, match="pool lost"):
            SharedMemoryEngine(n_workers=2).map_into_supervised(
                write_slot, list(range(12)), out, on_done=done)
        assert len(seen) == 3
        for pos, written in seen.items():
            assert written == pos * 10.0
            assert out[pos] == pos * 10.0

    def test_plain_map_inherited(self):
        eng = SharedMemoryEngine(n_workers=2)
        assert run_map(eng, square, list(range(10))) == [i * i for i in range(10)]

    def test_reusable_across_calls(self):
        eng = SharedMemoryEngine(n_workers=2)
        a, b = np.zeros(5), np.zeros(5)
        run_map_into(eng, write_slot, list(range(5)), a)
        run_map_into(eng, lambda o, i: o.__setitem__(i, -float(i)), list(range(5)), b)
        assert np.array_equal(a, np.arange(5) * 10.0)
        assert np.array_equal(b, -np.arange(5, dtype=float))


class TestMapIntoInProcessEngines:
    @pytest.mark.parametrize("engine", [SerialEngine(), ThreadEngine(n_workers=3)])
    def test_map_into(self, engine):
        out = np.zeros(12)
        run_map_into(engine, write_slot, list(range(12)), out)
        assert np.array_equal(out, np.arange(12) * 10.0)


class TestMakeEngine:
    def test_kinds(self):
        assert isinstance(make_engine("serial"), SerialEngine)
        assert isinstance(make_engine("thread", n_workers=2), ThreadEngine)
        # "process" stays accepted from outside (CLI, serve, streaming
        # configs) as an alias of the one fork pool.
        for kind in ("process", "sharedmem"):
            eng = make_engine(kind, n_workers=1)
            assert type(eng) is SharedMemoryEngine
            assert engine_kind(eng) == "sharedmem"
        assert ENGINE_KINDS == ("serial", "thread", "process", "sharedmem", "elastic")

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

            eng = SharedMemoryEngine(n_workers=2)
            run_map(eng, worker, list(range(8)))
            assert np.array_equal(sa.array, np.arange(8) * 10.0)
        finally:
            sa.close()
            sa.unlink()
