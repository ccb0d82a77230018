"""Execution engines: how tile tasks actually run on this host.

Every engine speaks one supervised protocol:
``map_supervised(fn, items, timeout=None, on_done=None)`` runs
``fn(item)`` for every item and returns ``(results, failures)``:
``{position: error string}`` for the tasks that raised, and the results
in item order (``None`` in a failed task's slot).

``on_done(pos, value)`` (optional) fires once per task that completed
without raising, as it completes: in the worker thread for in-process
engines, in the parent's supervising loop for the fork engine (when the
task's ``"ok"`` message arrives).  The engine hands ``value`` over and
keeps nothing: with ``on_done`` every result slot stays ``None``, so a
caller that writes each block into its own buffer never holds the blocks
twice.  ``timeout`` bounds each task's run time on engines that can kill
a worker (the fork engine); in-process engines cannot kill a thread and
ignore it.

* :class:`SerialEngine` — in-process loop (the reference).
* :class:`ThreadEngine` — ``ThreadPoolExecutor``; effective for the MI
  kernel because its time is spent inside BLAS/numpy calls that release the
  GIL, the numpy analog of the paper's OpenMP threads.  Each dispatch
  holds a :func:`blas_budget`, so the threads' GEMMs share the cores.
* :class:`SharedMemoryEngine` — the one supervised ``fork`` pool, for
  kernels that hold the GIL.  Task functions may be closures: the engine
  publishes the function in a module-level registry *before* forking, so
  children inherit it and the (large, read-only) arrays it closes over by
  copy-on-write memory instead of pickling (the same zero-copy trick the
  paper plays with the weight matrices resident on the coprocessor).
  Only task indices go down to the workers; each result comes back up
  the pipe, pickled — a tile-sized block.  The ``"process"`` kind is an
  alias for it.

Engines execute tasks in the order given by a
:class:`repro.parallel.scheduler.SchedulerPolicy`; results are always
returned in the original item order regardless of execution order.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, plan_from_env
from repro.obs.metrics import MapStats, WorkerStats, merge_worker_stats
from repro.obs.tracer import NULL_TRACER
from repro.parallel.scheduler import DynamicScheduler, SchedulerPolicy

__all__ = [
    "ENGINE_KINDS",
    "EngineFailure",
    "SerialEngine",
    "ThreadEngine",
    "SharedMemoryEngine",
    "WorkerLocal",
    "blas_budget",
    "blas_threads",
    "engine_kind",
    "fallback_engine",
    "make_engine",
]

#: Valid ``make_engine`` kinds.  ``"process"`` is an alias of
#: ``"sharedmem"`` (the one fork pool); the fallback chain, most to least
#: capable, is ``elastic → sharedmem → thread → serial``.
ENGINE_KINDS = ("serial", "thread", "process", "sharedmem", "elastic")

#: Supervised-pool message poll interval; bounds timeout-detection latency.
_POLL_SECONDS = 0.02

#: Give up and fail over if a supervised pool with no task running makes
#: no progress this long (a wedged queue, not a slow task).
_STALL_SECONDS = 60.0


class WorkerLocal:
    """Per-worker lazily-constructed value, valid across every engine kind.

    Thread workers each see their own value (``threading.local``); fork
    workers detect the pid change and rebuild rather than sharing the
    parent's instance through copy-on-write memory.  Used to give each
    engine worker its own reusable kernel workspace
    (:class:`repro.core.mi.TileWorkspace`) without the drivers having to
    know the engine's worker topology.
    """

    def __init__(self, factory: Callable):
        self._factory = factory
        self._local = threading.local()

    def get(self):
        pid = os.getpid()
        if getattr(self._local, "pid", None) != pid:
            self._local.value = self._factory()
            self._local.pid = pid
        return self._local.value


def engine_kind(engine) -> str:
    """The :data:`ENGINE_KINDS` name of an engine instance (``None`` → serial)."""
    if engine is None or isinstance(engine, SerialEngine):
        return "serial"
    if isinstance(engine, SharedMemoryEngine):
        return "sharedmem"
    if isinstance(engine, ThreadEngine):
        return "thread"
    # Engines defined outside this module (e.g. the elastic cluster
    # engine) declare their factory name via a ``kind`` class attribute.
    return getattr(engine, "kind", type(engine).__name__)


class EngineFailure(RuntimeError):
    """An engine lost its worker pool or could not start one.

    Distinct from a *task* failure: the resilient dispatch layer answers
    task failures with retries, but an :class:`EngineFailure` means the
    engine itself is unusable and dispatch should fall back down the
    chain (``elastic → sharedmem → thread → serial``)."""


def _result_nbytes(value) -> int:
    """Bytes a pickle-returned result ships through the pipe (arrays only).

    Counts ndarray payloads (including inside tuples/lists, the fused
    kernel's ``(observed, exceed)`` case); scalars and small objects are
    noise next to tile blocks and are ignored.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_result_nbytes(v) for v in value)
    return 0


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_serial(task: Callable, n_items: int) -> list:
    """Run ``task(idx)`` for every index in this thread; one worker's stats."""
    busy = 0.0
    for idx in range(n_items):
        s = time.perf_counter()
        task(idx)
        busy += time.perf_counter() - s
    return [WorkerStats("w0", n_items, busy)]


class _EngineObsMixin:
    """The supervised protocol plus its observability plumbing.

    Subclasses implement ``_dispatch(fn, items, timeout, on_done, span)
    -> (results, failures, worker_stats)``; this mixin turns it into
    ``map_supervised``.  Every call times each task and aggregates the timings
    per worker into a :class:`repro.obs.metrics.MapStats`, stored on
    ``last_map_stats`` and — when a tracer is attached (constructor
    argument or ``engine.tracer = ...``) — recorded as an ``engine_map``
    span whose metadata carries per-worker task counts and busy seconds.
    """

    tracer = None
    last_map_stats: "MapStats | None" = None
    faults: "FaultPlan | None" = None

    # -- the protocol ------------------------------------------------------
    def map_supervised(self, fn: Callable, items: Sequence,
                       timeout: float | None = None, on_done=None):
        """Fault-isolating map: ``(results, failures)`` (see module doc)."""
        self._engine_fault_check()
        items = list(items)
        if not items:
            return [], {}
        with self._obs_tracer().span("engine_map", **self._span_meta()) as sp:
            t0 = time.perf_counter()
            results, failures, workers = self._dispatch(
                fn, items, timeout, on_done, sp)
            self._record_map(sp, len(items), time.perf_counter() - t0, workers)
            if failures:
                sp.annotate(failed=len(failures))
        return results, failures

    def _run_local(self, fn, items: list, on_done, run_tasks=_run_serial):
        """Supervised dispatch inside this process (serial, threads, inline).

        ``run_tasks(task, n)`` runs ``task(idx)`` for every index and
        returns the per-worker stats.  A raising task fails only its own
        slot; ``on_done`` fires in the worker as each task succeeds.
        """
        call = self._faulty(fn)
        results: list = [None] * len(items)
        failures: dict[int, str] = {}

        def task(idx: int) -> None:
            try:
                value = call(items[idx])
            except Exception as exc:
                failures[idx] = _format_error(exc)
                return
            if on_done is None:
                results[idx] = value
            else:
                on_done(idx, value)

        return results, failures, run_tasks(task, len(items))

    # -- observability and fault plumbing ---------------------------------
    def _obs_tracer(self):
        return self.tracer if self.tracer is not None else NULL_TRACER

    def _span_meta(self) -> dict:
        meta = {"engine": type(self).__name__}
        policy = getattr(self, "policy", None)
        if policy is not None:
            meta["policy"] = policy.name
        return meta

    def _faulty(self, fn: Callable) -> Callable:
        """Wrap a ``fn(item)`` task with this engine's fault plan (if any)."""
        return fn if self.faults is None else self.faults.wrap(fn)

    def _engine_fault_check(self) -> None:
        """Fire one injected engine-level failure, if the plan holds any."""
        if self.faults is not None and self.faults.take_engine_failure():
            raise EngineFailure(
                f"injected engine failure on {type(self).__name__}")

    def _record_map(self, span, n_tasks: int, wall: float, workers: list) -> MapStats:
        stats = MapStats(n_tasks=n_tasks, wall_seconds=wall, workers=workers)
        self.last_map_stats = stats
        span.annotate(**stats.as_metadata())
        tracer = self._obs_tracer()
        tracer.add("engine_tasks", n_tasks)
        tracer.add("engine_busy_seconds", stats.busy_seconds)
        return stats


class SerialEngine(_EngineObsMixin):
    """Run tasks one after another in the calling thread."""

    n_workers = 1

    def __init__(self, tracer=None, faults: FaultPlan | None = None):
        self.tracer = tracer
        self.faults = faults

    def _engine_fault_check(self) -> None:
        """The end of the fallback chain never reports an engine failure."""

    def _dispatch(self, fn, items, timeout, on_done, sp):
        return self._run_local(fn, items, on_done)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialEngine()"


class ThreadEngine(_EngineObsMixin):
    """Thread-pool engine honouring a scheduling policy.

    Parameters
    ----------
    n_workers:
        Thread count; defaults to the host CPU count.
    policy:
        A :class:`SchedulerPolicy` deciding the submission order.  With a
        dynamic policy the pool's own work queue provides the pull
        behaviour; with a static policy each worker thread runs its fixed
        slice.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer` receiving one
        ``engine_map`` span (with per-worker metrics) per map call.

    Each dispatch holds :func:`blas_budget` of its thread count
    (``n_workers``, or fewer when there are fewer items, the fork pool's
    rule), so the threads' GEMMs share the cores instead of each calling
    into a BLAS pool as wide as the machine.

    Per-task timeouts are not supported — Python threads cannot be killed
    — so a hung task simply occupies its thread until it returns (use a
    fork engine for hang protection).
    """

    def __init__(self, n_workers: int | None = None, policy: SchedulerPolicy | None = None,
                 tracer=None, faults: FaultPlan | None = None):
        self.n_workers = (os.cpu_count() or 1) if n_workers is None else n_workers
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        self.policy = policy or DynamicScheduler(chunk=1)
        self.tracer = tracer
        self.faults = faults

    def _chunks(self, n_items: int):
        if self.policy.is_dynamic():
            return self.policy.chunk_sequence(n_items, self.n_workers)
        return self.policy.static_assignment(n_items, self.n_workers)

    def _run_chunks(self, task, n_items: int) -> list:
        """Run ``task(idx)`` for every index on the pool, timing per thread.

        Returns the per-worker ``(tasks, busy_seconds)`` aggregation, keyed
        by thread ident.
        """
        raw: dict = {}
        lock = threading.Lock()

        def run_chunk(chunk) -> None:
            tasks = 0
            busy = 0.0
            for idx in chunk:
                s = time.perf_counter()
                task(int(idx))
                busy += time.perf_counter() - s
                tasks += 1
            key = threading.get_ident()
            with lock:
                t, b = raw.get(key, (0, 0.0))
                raw[key] = (t + tasks, b + busy)

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            list(pool.map(run_chunk, self._chunks(n_items)))
        return merge_worker_stats(raw)

    def _dispatch(self, fn, items, timeout, on_done, sp):
        # Sized like the fork pool: no more threads than items run at once.
        with blas_budget(min(self.n_workers, len(items))):
            return self._run_local(fn, items, on_done, self._run_chunks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadEngine(n_workers={self.n_workers}, policy={self.policy.name})"


# ---------------------------------------------------------------------------
# Fork-based process pools
# ---------------------------------------------------------------------------
# Task registry inherited by children through fork; only task indices
# cross the pipe, never the function or the (large, read-only) arrays it
# closes over.  Keyed by a unique token per map call so concurrent or
# nested calls never clobber each other's tasks (itertools.count.__next__
# is atomic under the GIL, so tokens are unique across threads too).
_FORK_TASKS: dict = {}
_TOKENS = itertools.count()


def _publish(payload) -> int:
    token = next(_TOKENS)
    _FORK_TASKS[token] = payload
    return token


#: ``(get, set)`` thread-count symbols of the OpenBLAS builds numpy
#: (64-bit integer interface) and scipy ship, then a plain OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def worker_blas_threads(n_workers: int) -> int:
    """BLAS threads each of ``n_workers`` worker processes may run.

    The usable cores split evenly, at least one each.  A worker process
    otherwise starts a BLAS pool as wide as the machine, and ``n_workers``
    such pools thrash the MI GEMMs on the shared cores.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // n_workers)


def _openblas_libs() -> list:
    """``(path, get, set, stop)`` for every OpenBLAS loaded in this process.

    numpy and scipy each load their own OpenBLAS, so every copy mapped
    into the process (read from ``/proc/self/maps``) gets an entry, with
    its thread-count getter and setter resolved through ctypes; without
    procfs, or with no OpenBLAS loaded, the list is empty and every BLAS
    cap is a no-op.  ``stop`` is the library's pool shutdown
    (``blas_thread_shutdown_``, the routine OpenBLAS itself runs before a
    fork), or ``None`` when the build does not export it.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in fh)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()}
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            stop = getattr(lib, "blas_thread_shutdown_", None)
            if stop is not None:
                stop.argtypes, stop.restype = [], ctypes.c_int
            libs.append((path, get, set_, stop))
            break
    return libs


def blas_threads() -> "int | None":
    """The thread count the loaded OpenBLAS runs now (the smallest, if
    numpy's and scipy's copies differ), or ``None`` when none resolves."""
    counts = [get() for _path, get, _set, _stop in _openblas_libs()]
    return min(counts) if counts else None


# The live in-process budgets (see blas_budget), guarded by one lock:
# worker_blas_threads() of every held budget, and each library's setter
# with its count from before the first of them was taken.  Module-level
# because the state they stand for, the library's thread count, is
# process-wide.
_budget_lock = threading.Lock()
_budget_holds: list = []
_budget_saved: dict = {}


def _apply_blas_budgets() -> None:
    """Set every loaded OpenBLAS to its saved count capped by the live
    budgets, or back to the saved count when none is left (caller holds
    ``_budget_lock``)."""
    if not _budget_holds:
        for set_, count in _budget_saved.values():
            set_(count)
        _budget_saved.clear()
        return
    cap = min(_budget_holds)
    for path, get, set_, _stop in _openblas_libs():
        saved = _budget_saved.setdefault(path, (set_, get()))[1]
        set_(min(saved, cap))


@contextlib.contextmanager
def blas_budget(n_workers: int):
    """Share the cores among ``n_workers`` in-process workers while held.

    In-process workers (a :class:`ThreadEngine` dispatch, the serve
    daemon's job threads) all call into the process's one OpenBLAS, whose
    pool is as wide as the machine: two workers on two cores then run four
    GEMM threads.  While at least one budget is held, every loaded
    OpenBLAS runs ``min(count before the first budget, worker_blas_threads
    of each live budget)`` threads — the fork workers' rule, applied to
    the parent.  Budgets are refcounted process-wide: releasing one
    re-applies the others, and releasing the last restores the original
    count.  A user's lower ``OPENBLAS_NUM_THREADS`` holds, and one worker
    (``n_workers <= 1``) changes nothing.

    OpenBLAS reads its count when a call starts, so a change never
    reaches a GEMM already in flight.
    """
    if n_workers <= 1:
        yield
        return
    threads = worker_blas_threads(n_workers)
    with _budget_lock:
        _budget_holds.append(threads)
        _apply_blas_budgets()
    try:
        yield
    finally:
        with _budget_lock:
            _budget_holds.remove(threads)
            _apply_blas_budgets()


def _blas_caps(n_workers: int) -> list:
    """``(set, stop, threads)`` per loaded OpenBLAS for one of ``n_workers`` workers.

    Resolved in the parent before forking (:func:`_openblas_libs`).
    ``threads`` is :func:`worker_blas_threads` but never more than the
    library's current count, so a user's lower ``OPENBLAS_NUM_THREADS``
    holds, and so does a live :func:`blas_budget` in the parent.
    """
    budget = worker_blas_threads(n_workers)
    return [(set_, stop, min(get(), budget)) for _path, get, set_, stop in _openblas_libs()]


def _supervised_worker(token: int, task_q, msg_w, msg_lock, blas_caps) -> None:
    """Worker loop for the supervised (timeout-capable) pool.

    First caps each loaded OpenBLAS at its ``blas_caps`` thread count
    (the parent's pools are left as they are).  Then announces
    ``("start", pid, idx, None)`` *before* running each task so
    the parent can hold a deadline against it, then ``("ok", pid, idx,
    (value, seconds))`` or ``("err", pid, idx, traceback)``.  Task
    failures stay inside the worker — only the message crosses the pipe —
    so one poisoned tile never kills the pool.  Messages go straight down
    one shared pipe under a lock (no per-worker feeder thread to wake).
    """
    for set_threads, stop_pool, threads in blas_caps:
        set_threads(threads)
        # Setting the count in a forked child starts the library's thread
        # pool at its old width, and those threads busy-wait for work,
        # stealing the cores from the other workers' non-BLAS tasks.  A
        # stopped pool restarts only on the first call that runs more
        # than one thread, so a 1-thread cap never starts one.
        if stop_pool is not None:
            stop_pool()
    fn, items = _FORK_TASKS[token]
    pid = os.getpid()

    def send(msg) -> None:
        with msg_lock:
            msg_w.send(msg)

    while True:
        idx = task_q.get()
        if idx is None:
            return
        send(("start", pid, idx, None))
        t0 = time.perf_counter()
        try:
            value = fn(items[idx])
        except Exception:
            send(("err", pid, idx, traceback.format_exc()))
        else:
            send(("ok", pid, idx, (value, time.perf_counter() - t0)))


class SharedMemoryEngine(_EngineObsMixin):
    """Supervised fork pool; inputs reach the workers by copy-on-write.

    Only usable where ``fork`` is available (Linux; the benchmark hosts) —
    the constructor raises :class:`RuntimeError` elsewhere.  A nested
    call issued from inside a worker runs inline (daemonic workers may
    not fork grandchildren), as does ``n_workers=1``; inline execution
    cannot enforce timeouts.

    Per call, the engine publishes ``(fn, items)`` in the fork registry,
    forks a pool that persists for the whole call, and feeds it task
    *indices* through a queue (dynamic self-scheduling, the policy that
    wins on the paper's imbalanced diagonal tiles).  The pool is forked
    *after* publication — copy-on-write is how closures over multi-GB
    weight tensors reach the workers without pickling — which is also why
    one pool cannot outlive its call.  Results cross the pipe by pickling
    (a fused tile at the rule's edge is 8 KB), counted in the
    ``bytes_transported`` counter and the span's ``result_bytes``; the
    parent hands each one to ``on_done`` as it arrives, so the caller
    (:func:`repro.core.exec.run_tile_plan`) writes it into its own buffer
    and no worker needs a shared copy of the output.

    Each forked worker first caps every loaded OpenBLAS at
    :func:`worker_blas_threads` of the pool size (usable cores // workers,
    at least 1, never above the library's current count): left alone,
    every worker would run a BLAS pool as wide as the machine and the
    workers' GEMMs would thrash on shared cores.  The parent's count is
    what a live :func:`blas_budget` leaves it; the pool does not change it.
    """

    def __init__(self, n_workers: int | None = None, policy: SchedulerPolicy | None = None,
                 tracer=None, faults: FaultPlan | None = None):
        self.n_workers = (os.cpu_count() or 1) if n_workers is None else n_workers
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("SharedMemoryEngine requires the fork start method")
        self.policy = policy or DynamicScheduler(chunk=1)
        self.tracer = tracer
        self.faults = faults

    def _inline(self) -> bool:
        # Daemonic pool workers cannot fork children of their own, so a
        # nested map degrades gracefully to the serial path.
        return self.n_workers == 1 or multiprocessing.current_process().daemon

    def _dispatch(self, fn, items, timeout, on_done, sp):
        if self._inline():
            return self._run_local(fn, items, on_done)
        results, failures, raw, nbytes = self._run_supervised(fn, items, timeout, on_done)
        sp.annotate(result_bytes=nbytes)
        self._obs_tracer().add("bytes_transported", nbytes)
        return results, failures, merge_worker_stats(raw)

    def _run_supervised(self, fn: Callable, items: list, timeout: float | None, on_done):
        """Supervised fork pool: per-task messages, deadlines, replacement.

        Returns ``(results, failures, raw_worker_stats, result_bytes)``.
        The parent drains a message queue, firing ``on_done`` as each
        ``"ok"`` arrives; any worker whose announced task exceeds
        ``timeout`` is terminated and a replacement forked (the unserved
        indices still sit in the task queue).  A worker that dies without
        a word (hard crash) fails the task it had announced.  Terminating
        a worker mid-``send`` could in principle wedge the message pipe;
        the watchdog converts a pool that makes no progress with no task
        running into an :class:`EngineFailure` so the fallback chain takes
        over (a long task is not a stall: ``timeout`` bounds those).
        """
        ctx = multiprocessing.get_context("fork")
        token = _publish((self._faulty(fn), items))
        task_q = ctx.Queue()
        msg_r, msg_w = ctx.Pipe(duplex=False)
        msg_lock = ctx.Lock()
        pool_size = min(self.n_workers, len(items))
        blas_caps = _blas_caps(pool_size)
        results: list = [None] * len(items)
        failures: dict[int, str] = {}
        raw: dict = {}
        running: dict = {}   # pid -> (idx, started_at)
        workers: dict = {}   # pid -> Process
        settled: set = set()
        nbytes = 0

        def spawn() -> None:
            w = ctx.Process(target=_supervised_worker,
                            args=(token, task_q, msg_w, msg_lock, blas_caps),
                            daemon=True)
            w.start()
            workers[w.pid] = w

        def settle(idx: int, error: str | None) -> bool:
            if idx in settled:
                return False  # late message for a task already timed out
            settled.add(idx)
            if error is not None:
                failures[idx] = error
            return True

        try:
            try:
                for _ in range(pool_size):
                    spawn()
            except OSError as exc:
                raise EngineFailure(f"could not fork supervised workers: {exc}") from exc
            # Results are reordered by index on return, so any permutation
            # is correct; the policy only shapes which tasks run first.
            for idx in self.policy.order(len(items), self.n_workers):
                task_q.put(idx)
            last_progress = time.perf_counter()
            while len(settled) < len(items):
                if msg_r.poll(_POLL_SECONDS):
                    tag, pid, idx, payload = msg_r.recv()
                    last_progress = time.perf_counter()
                    if tag == "start":
                        running[pid] = (idx, time.perf_counter())
                    elif tag == "ok":
                        running.pop(pid, None)
                        if settle(idx, None):
                            value, seconds = payload
                            nbytes += _result_nbytes(value)
                            tasks, busy = raw.get(pid, (0, 0.0))
                            raw[pid] = (tasks + 1, busy + seconds)
                            if on_done is None:
                                results[idx] = value
                            else:
                                on_done(idx, value)
                    elif tag == "err":
                        running.pop(pid, None)
                        settle(idx, payload.strip().splitlines()[-1])
                    continue  # drain messages before checking deadlines
                now = time.perf_counter()
                if timeout is not None:
                    for pid, (idx, started) in list(running.items()):
                        if now - started > timeout:
                            w = workers.pop(pid, None)
                            if w is not None:
                                w.terminate()
                                w.join()
                            running.pop(pid, None)
                            settle(idx, f"task timed out after {timeout:.3g}s "
                                        f"(worker {pid} replaced)")
                            last_progress = now
                            if len(settled) < len(items):
                                spawn()
                for pid, w in list(workers.items()):
                    if not w.is_alive():
                        workers.pop(pid)
                        if pid in running:
                            idx, _ = running.pop(pid)
                            settle(idx, f"worker {pid} died (exit code {w.exitcode})")
                            last_progress = now
                        if len(settled) < len(items) and not workers:
                            spawn()
                if not running and now - last_progress > _STALL_SECONDS:
                    raise EngineFailure(
                        f"supervised pool stalled for {_STALL_SECONDS:.0f}s "
                        f"({len(settled)}/{len(items)} tasks settled)")
            for _ in workers:
                task_q.put(None)
            for w in workers.values():
                w.join(timeout=5.0)
        finally:
            del _FORK_TASKS[token]
            for w in workers.values():
                if w.is_alive():
                    w.terminate()
                    w.join()
            task_q.cancel_join_thread()
            task_q.close()
            msg_r.close()
            msg_w.close()
        return results, failures, raw, nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemoryEngine(n_workers={self.n_workers}, policy={self.policy.name})"
        )


#: Degradation order: each kind's next-best substitute.
_FALLBACK_NEXT = {"elastic": "sharedmem", "sharedmem": "thread", "thread": "serial"}


def make_engine(kind: str = "serial", n_workers: int | None = None, tracer=None,
                policy: SchedulerPolicy | None = None,
                faults: FaultPlan | None = None, fallback: bool = False, **kwargs):
    """Factory for the :data:`ENGINE_KINDS` (``process`` is ``sharedmem``).

    ``tracer`` (optional) attaches a :class:`repro.obs.tracer.Tracer` so
    every map call records an ``engine_map`` span with worker metrics.
    ``policy`` (optional :class:`SchedulerPolicy`) sets the submission
    order for the pooled engines; the default everywhere is dynamic
    self-scheduling with chunk 1.

    ``faults`` (optional :class:`repro.faults.plan.FaultPlan`) injects
    deterministic task faults into every map call — chaos-testing only.
    When omitted, the ``REPRO_FAULTS`` environment variable is consulted
    so forked subprocess workers (and CLI runs under chaos CI) see the
    same plan.  ``fallback=True`` degrades down the chain ``elastic →
    sharedmem → thread → serial`` if the requested kind cannot be
    constructed on this host, instead of raising.
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r}; valid kinds: {', '.join(ENGINE_KINDS)}")
    if kind == "process":
        kind = "sharedmem"
    if faults is None:
        faults = plan_from_env()
    while True:
        try:
            if kind == "serial":
                return SerialEngine(tracer=tracer, faults=faults)
            if kind == "thread":
                return ThreadEngine(n_workers=n_workers, policy=policy, tracer=tracer,
                                    faults=faults, **kwargs)
            if kind == "elastic":
                # Imported lazily: repro.cluster imports this module.
                from repro.cluster.elastic import ElasticEngine

                return ElasticEngine(n_workers=n_workers, policy=policy,
                                     tracer=tracer, faults=faults, **kwargs)
            return SharedMemoryEngine(n_workers=n_workers, policy=policy, tracer=tracer,
                                      faults=faults)
        except RuntimeError:
            if not fallback or kind not in _FALLBACK_NEXT:
                raise
            kind = _FALLBACK_NEXT[kind]


def fallback_engine(engine):
    """The next engine down the degradation chain, or ``None`` at the end.

    ``elastic → sharedmem → thread → serial``; the replacement inherits
    the failing engine's worker count, scheduling policy, tracer and
    fault plan (so a chaos run keeps injecting task faults after a
    fallback — only the injected *engine* failures are consumed).
    """
    if getattr(engine, "kind", None) == "elastic":
        # The elastic pool is gone; degrade to the local fork pool with
        # the membership the pool was sized for, not the (empty) live one.
        engine.close()
        return make_engine("sharedmem",
                           n_workers=getattr(engine, "_initial_workers", None),
                           tracer=engine.tracer,
                           policy=getattr(engine, "policy", None),
                           faults=engine.faults, fallback=True)
    if isinstance(engine, SharedMemoryEngine):
        kind = "thread"
    elif isinstance(engine, ThreadEngine):
        kind = "serial"
    else:
        return None
    return make_engine(kind, n_workers=getattr(engine, "n_workers", None),
                       tracer=engine.tracer, policy=getattr(engine, "policy", None),
                       faults=engine.faults, fallback=True)
