"""Tests for repro.parallel.engine: the supervised protocol on every engine."""

import ctypes
import functools
import gc
import os
import threading
import weakref

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


def square(x):
    return x * x


def run_map(engine, fn, items):
    """``map_supervised`` results, asserting that no task failed."""
    results, failures = engine.map_supervised(fn, items)
    assert failures == {}
    return results


def run_on_done(engine, fn, items) -> dict:
    """``map_supervised`` through ``on_done``: ``{position: value}``.

    Asserts that no task failed and that the engine kept no result slot
    for a value it handed over.
    """
    delivered = {}
    results, failures = engine.map_supervised(
        fn, items, on_done=lambda pos, value: delivered.__setitem__(pos, value))
    assert failures == {}
    assert results == [None] * len(items)
    return delivered


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

    def test_on_done_closure_over_array(self):
        # Closures reach workers by fork/COW, never by pickling.
        big = np.arange(100, dtype=np.float64)

        def task(i):
            return big[i] + 0.5

        delivered = run_on_done(SharedMemoryEngine(n_workers=3), task, list(range(10)))
        assert delivered == {i: i + 0.5 for i in range(10)}

    def test_on_done_empty(self):
        assert run_on_done(SharedMemoryEngine(n_workers=2), square, []) == {}

    def test_on_done_single_worker_inline(self):
        delivered = run_on_done(SharedMemoryEngine(n_workers=1), square, list(range(4)))
        assert delivered == {i: i * i for i in range(4)}

    def test_worker_error_propagates(self):
        def boom(i):
            raise ValueError("tile kernel failed")

        results, failures = SharedMemoryEngine(n_workers=2).map_supervised(boom, [0, 1, 2])
        assert results == [None] * 3
        assert sorted(failures) == [0, 1, 2]
        assert all("tile kernel failed" in err for err in failures.values())

    def test_registry_left_clean_after_error(self):
        before = dict(_FORK_TASKS)

        def boom(i):
            raise ValueError("nope")

        _, failures = SharedMemoryEngine(n_workers=2).map_supervised(boom, [0, 1])
        assert sorted(failures) == [0, 1]
        assert _FORK_TASKS == before

    def test_plain_map_inherited(self):
        eng = SharedMemoryEngine(n_workers=2)
        assert run_map(eng, square, list(range(10))) == [i * i for i in range(10)]

    def test_reusable_across_calls(self):
        eng = SharedMemoryEngine(n_workers=2)
        assert run_map(eng, square, list(range(5))) == [i * i for i in range(5)]
        assert run_on_done(eng, lambda i: -float(i), list(range(5))) == {
            i: -float(i) for i in range(5)}


def block(i):
    """A tile-sized block (module level, so elastic workers unpickle it)."""
    return np.full((8, 8), float(i))


class TestOnDoneKeepsNothing:
    """An engine hands each value to ``on_done`` and keeps no reference:
    the caller writes blocks into its own buffer, so a value the engine
    held on to would be a second copy of the result."""

    @pytest.mark.parametrize("make", [
        SerialEngine,
        functools.partial(ThreadEngine, n_workers=2),
        functools.partial(SharedMemoryEngine, n_workers=2),
        "elastic",
    ], ids=["serial", "thread", "sharedmem", "elastic"])
    def test_delivered_values_are_released(self, make, request):
        engine = (request.getfixturevalue("elastic_engine") if make == "elastic"
                  else make())
        refs = {}
        sums = {}

        def on_done(pos, value):
            refs[pos] = weakref.ref(value)
            sums[pos] = float(value.sum())

        results, failures = engine.map_supervised(block, list(range(12)), on_done=on_done)
        assert failures == {} and results == [None] * 12
        assert sums == {i: 64.0 * i for i in range(12)}
        gc.collect()
        assert [pos for pos, ref in refs.items() if ref() is not None] == []


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
