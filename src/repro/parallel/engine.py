"""Execution engines: how tile tasks actually run on this host.

Every engine speaks one supervised protocol of two methods:

* ``map_supervised(fn, items, timeout=None, on_done=None)`` runs
  ``fn(item)`` for every item and returns ``(results, failures)``:
  results in item order, and ``{position: error string}`` for the tasks
  that raised (their result slots hold ``None``).
* ``map_into_supervised(fn, items, out, timeout=None, on_done=None)`` is
  the in-place form: ``fn(out_view, item)`` writes each item's result
  into a region of ``out`` disjoint from every other item's and returns
  nothing; the call returns the failures dict.

``on_done(pos, value)`` (optional) fires once per task that completed
without raising, as it completes: in the worker thread for in-process
engines, in the parent's supervising loop for fork engines (when the
task's ``"ok"`` message arrives).  ``value`` is the task's return value
(``None`` for the in-place form).  ``timeout`` bounds each task's run
time on engines that can kill a worker (the fork engines); in-process
engines cannot kill a thread and ignore it.

``map`` and ``map_into`` are the strict conveniences on top: they call
the supervised form and raise :class:`RuntimeError` naming the first
failed position.

* :class:`SerialEngine` — in-process loop (the reference).
* :class:`ThreadEngine` — ``ThreadPoolExecutor``; effective for the MI
  kernel because its time is spent inside BLAS/numpy calls that release the
  GIL, the numpy analog of the paper's OpenMP threads.
* :class:`ProcessEngine` — a supervised ``fork`` pool for kernels that
  hold the GIL.  Task functions may be closures: the engine publishes the
  function in a module-level registry *before* forking, so children inherit
  it by COW memory instead of pickling (the same zero-copy trick the paper
  plays with the weight matrices resident on the coprocessor).  Results
  cross the pipe by pickling; the in-place form stages ``out`` through
  named shared memory.
* :class:`SharedMemoryEngine` — the same pool, marked as the write-in-place
  engine: drivers hand it the output matrix (staged once in shared
  memory) and workers write their disjoint output blocks directly into
  it, so *nothing* but task indices crosses the pipe — the process analog
  of the paper's 240 Phi threads writing disjoint blocks of the MI matrix
  in coprocessor memory.

Engines execute tasks in the order given by a
:class:`repro.parallel.scheduler.SchedulerPolicy`; results are always
returned in the original item order regardless of execution order.
"""

from __future__ import annotations

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
from repro.parallel.sharedmem import SharedArray

__all__ = [
    "ENGINE_KINDS",
    "EngineFailure",
    "SerialEngine",
    "ThreadEngine",
    "ProcessEngine",
    "SharedMemoryEngine",
    "WorkerLocal",
    "engine_kind",
    "fallback_engine",
    "make_engine",
]

#: Valid ``make_engine`` kinds, in fallback-chain order (most to least
#: capable): ``sharedmem → process → thread → serial``.
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
    """The :data:`ENGINE_KINDS` name of an engine instance (``None`` → serial).

    Used as part of the autotuner's cache key, so a tile size measured
    under one worker topology is not silently reused under another.
    """
    if engine is None or isinstance(engine, SerialEngine):
        return "serial"
    if isinstance(engine, SharedMemoryEngine):
        return "sharedmem"
    if isinstance(engine, ProcessEngine):
        return "process"
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
    chain (``sharedmem → process → thread → serial``)."""


def _as_output_array(out) -> np.ndarray:
    """Normalize a ``map_into`` sink to the ndarray workers should fill."""
    arr = out.array if isinstance(out, SharedArray) else out
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"map_into sink must be a numpy array or SharedArray, got {type(out)!r}")
    return arr


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


def raise_first_failure(engine, failures: dict) -> None:
    """Raise :class:`RuntimeError` naming the first failed position, if any."""
    if failures:
        pos = min(failures)
        raise RuntimeError(f"{engine_kind(engine)} task {pos} failed: {failures[pos]}")


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

    Subclasses implement ``_dispatch(fn, items, out, timeout, on_done,
    span) -> (results, failures, worker_stats)``; this mixin turns it into
    ``map_supervised`` / ``map_into_supervised`` (and the strict ``map`` /
    ``map_into``).  Every call times each task and aggregates the timings
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
        return self._supervised(fn, items, None, timeout, on_done)

    def map_into_supervised(self, fn: Callable, items: Sequence, out,
                            timeout: float | None = None, on_done=None) -> dict:
        """Fault-isolating in-place map: ``{position: error}``.

        ``out`` is a numpy array or a
        :class:`repro.parallel.sharedmem.SharedArray`; fork engines stage a
        plain array through shared memory and copy it back once.
        """
        _as_output_array(out)
        return self._supervised(fn, items, out, timeout, on_done)[1]

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item, returning results in order.

        A task that raises makes the call raise :class:`RuntimeError`
        naming the first failed position.
        """
        results, failures = self.map_supervised(fn, items)
        raise_first_failure(self, failures)
        return results

    def map_into(self, fn: Callable, items: Sequence, out) -> None:
        """Run ``fn(out, item)`` for every item; strict like :meth:`map`."""
        raise_first_failure(self, self.map_into_supervised(fn, items, out))

    def _supervised(self, fn, items, out, timeout, on_done):
        self._engine_fault_check()
        items = list(items)
        if not items:
            return [], {}
        with self._obs_tracer().span("engine_map", **self._span_meta()) as sp:
            t0 = time.perf_counter()
            results, failures, workers = self._dispatch(
                fn, items, out, timeout, on_done, sp)
            self._record_map(sp, "map" if out is None else "map_into",
                             len(items), time.perf_counter() - t0, workers)
            if failures:
                sp.annotate(failed=len(failures))
        return results, failures

    def _run_local(self, fn, items: list, out, on_done, run_tasks=_run_serial):
        """Supervised dispatch inside this process (serial, threads, inline).

        ``run_tasks(task, n)`` runs ``task(idx)`` for every index and
        returns the per-worker stats.  A raising task fails only its own
        slot; ``on_done`` fires in the worker as each task succeeds.
        """
        arr = None if out is None else _as_output_array(out)
        call = self._faulty(fn) if arr is None else self._faulty_into(fn)
        results: list = [None] * len(items)
        failures: dict[int, str] = {}

        def task(idx: int) -> None:
            try:
                value = call(items[idx]) if arr is None else call(arr, items[idx])
            except Exception as exc:
                failures[idx] = _format_error(exc)
                return
            results[idx] = value
            if on_done is not None:
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

    def _faulty_into(self, fn: Callable) -> Callable:
        """Wrap a ``fn(out, item)`` task with this engine's fault plan."""
        return fn if self.faults is None else self.faults.wrap_into(fn)

    def _engine_fault_check(self) -> None:
        """Fire one injected engine-level failure, if the plan holds any."""
        if self.faults is not None and self.faults.take_engine_failure():
            raise EngineFailure(
                f"injected engine failure on {type(self).__name__}")

    def _record_map(self, span, kind: str, n_tasks: int, wall: float, workers: list) -> MapStats:
        stats = MapStats(n_tasks=n_tasks, wall_seconds=wall, workers=workers)
        self.last_map_stats = stats
        span.annotate(kind=kind, **stats.as_metadata())
        tracer = self._obs_tracer()
        tracer.add("engine_tasks", n_tasks)
        tracer.add("engine_busy_seconds", stats.busy_seconds)
        return stats


class SerialEngine(_EngineObsMixin):
    """Run tasks one after another in the calling thread."""

    n_workers = 1
    in_process = True

    def __init__(self, tracer=None, faults: FaultPlan | None = None):
        self.tracer = tracer
        self.faults = faults

    def _engine_fault_check(self) -> None:
        """The end of the fallback chain never reports an engine failure."""

    def _dispatch(self, fn, items, out, timeout, on_done, sp):
        return self._run_local(fn, items, out, on_done)

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

    Per-task timeouts are not supported — Python threads cannot be killed
    — so a hung task simply occupies its thread until it returns (use a
    fork engine for hang protection).
    """

    in_process = True

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

    def _dispatch(self, fn, items, out, timeout, on_done, sp):
        return self._run_local(fn, items, out, on_done, self._run_chunks)

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


def _supervised_worker(token: int, task_q, msg_w, msg_lock) -> None:
    """Worker loop for the supervised (timeout-capable) pool.

    Announces ``("start", pid, idx, None)`` *before* running each task so
    the parent can hold a deadline against it, then ``("ok", pid, idx,
    (value, seconds))`` or ``("err", pid, idx, traceback)``.  Task
    failures stay inside the worker — only the message crosses the pipe —
    so one poisoned tile never kills the pool.  Messages go straight down
    one shared pipe under a lock (no per-worker feeder thread to wake).
    """
    fn, items, handle, into = _FORK_TASKS[token]
    view = SharedArray.attach(*handle) if handle is not None else None
    pid = os.getpid()

    def send(msg) -> None:
        with msg_lock:
            msg_w.send(msg)

    try:
        while True:
            idx = task_q.get()
            if idx is None:
                return
            send(("start", pid, idx, None))
            t0 = time.perf_counter()
            try:
                if into:
                    fn(view.array, items[idx])
                    value = None
                else:
                    value = fn(items[idx])
            except Exception:
                send(("err", pid, idx, traceback.format_exc()))
            else:
                send(("ok", pid, idx, (value, time.perf_counter() - t0)))
    finally:
        if view is not None:
            view.close()


class ProcessEngine(_EngineObsMixin):
    """Supervised fork pool for GIL-bound task functions.

    Only usable where ``fork`` is available (Linux; the benchmark hosts) —
    the constructor raises :class:`RuntimeError` elsewhere.  A nested
    call issued from inside a worker runs inline (daemonic workers may
    not fork grandchildren), as does ``n_workers=1``; inline execution
    cannot enforce timeouts.

    Per call, the engine publishes ``(fn, items, out-handle)`` in the fork
    registry, forks a pool that persists for the whole call, and feeds it
    task *indices* through a queue (dynamic self-scheduling, the policy
    that wins on the paper's imbalanced diagonal tiles).  The pool is
    forked *after* publication — copy-on-write is how closures over
    multi-GB weight tensors reach the workers without pickling — which is
    also why one pool cannot outlive its call.  Results of
    ``map_supervised`` cross the pipe by pickling (fine for tile-sized
    blocks); use :class:`SharedMemoryEngine` when workers should write the
    output in place instead.
    """

    in_process = False

    def __init__(self, n_workers: int | None = None, policy: SchedulerPolicy | None = None,
                 tracer=None, faults: FaultPlan | None = None):
        self.n_workers = (os.cpu_count() or 1) if n_workers is None else n_workers
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("ProcessEngine requires the fork start method")
        self.policy = policy or DynamicScheduler(chunk=1)
        self.tracer = tracer
        self.faults = faults

    def _submission_order(self, n_items: int) -> list:
        """Task indices in the order the policy submits them to the pool.

        Results are reordered by index on return, so any permutation is
        correct; the policy only shapes which tasks workers pull first.
        """
        if self.policy.is_dynamic():
            chunks = self.policy.chunk_sequence(n_items, self.n_workers)
        else:
            chunks = self.policy.static_assignment(n_items, self.n_workers)
        return [int(i) for chunk in chunks for i in chunk]

    def _inline(self) -> bool:
        # Daemonic pool workers cannot fork children of their own, so a
        # nested map degrades gracefully to the serial path.
        return self.n_workers == 1 or multiprocessing.current_process().daemon

    def _dispatch(self, fn, items, out, timeout, on_done, sp):
        if self._inline():
            return self._run_local(fn, items, out, on_done)
        if out is None:
            results, failures, raw, nbytes = self._run_supervised(
                fn, items, None, timeout, on_done)
            sp.annotate(result_bytes=nbytes)
            self._obs_tracer().add("bytes_transported", nbytes)
            return results, failures, merge_worker_stats(raw)
        staged = None
        if isinstance(out, SharedArray):
            shared = out
        else:
            staged = shared = SharedArray.from_array(out)
        try:
            results, failures, raw, _ = self._run_supervised(
                fn, items, shared, timeout, on_done)
            if staged is not None:
                out[...] = staged.array
        finally:
            if staged is not None:
                staged.close()
                staged.unlink()
        # Results never cross the pipe; the only transport is the
        # optional one-shot staging memcpy back into a plain ndarray.
        sp.annotate(result_bytes=0,
                    staged_bytes=int(out.nbytes) if staged is not None else 0)
        return results, failures, merge_worker_stats(raw)

    def _run_supervised(self, fn: Callable, items: list, out: SharedArray | None,
                        timeout: float | None, on_done):
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
        into = out is not None
        task = self._faulty_into(fn) if into else self._faulty(fn)
        token = _publish((task, items, out.handle() if into else None, into))
        task_q = ctx.Queue()
        msg_r, msg_w = ctx.Pipe(duplex=False)
        msg_lock = ctx.Lock()
        results: list = [None] * len(items)
        failures: dict[int, str] = {}
        raw: dict = {}
        running: dict = {}   # pid -> (idx, started_at)
        workers: dict = {}   # pid -> Process
        settled: set = set()
        nbytes = 0

        def spawn() -> None:
            w = ctx.Process(target=_supervised_worker,
                            args=(token, task_q, msg_w, msg_lock), daemon=True)
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
                for _ in range(min(self.n_workers, len(items))):
                    spawn()
            except OSError as exc:
                raise EngineFailure(f"could not fork supervised workers: {exc}") from exc
            for idx in self._submission_order(len(items)):
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
                            results[idx] = value
                            nbytes += _result_nbytes(value)
                            tasks, busy = raw.get(pid, (0, 0.0))
                            raw[pid] = (tasks + 1, busy + seconds)
                            if on_done is not None:
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
        return f"ProcessEngine(n_workers={self.n_workers}, policy={self.policy.name})"


class SharedMemoryEngine(ProcessEngine):
    """Fork pool whose workers write outputs in place via shared memory.

    The pool and both protocol methods are :class:`ProcessEngine`'s; this
    class marks the engine drivers should hand the output matrix to.  The
    executor (:func:`repro.core.exec.run_tile_plan`) stages the sink once
    in a :class:`~repro.parallel.sharedmem.SharedArray` and calls
    ``map_into_supervised``: each worker attaches the shared block and
    runs ``fn(out_view, item)``, so results never touch a pipe and the
    parent never runs a reassembly loop.

    Sinks: pass a plain ndarray (the engine stages it through a temporary
    shared block and copies back once — one memcpy, still no per-item
    pickling) or a :class:`SharedArray` you allocated up front for the
    fully zero-copy path.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemoryEngine(n_workers={self.n_workers}, policy={self.policy.name})"
        )


#: Degradation order: each kind's next-best substitute.
_FALLBACK_NEXT = {"elastic": "sharedmem", "sharedmem": "process",
                  "process": "thread", "thread": "serial"}


def make_engine(kind: str = "serial", n_workers: int | None = None, tracer=None,
                policy: SchedulerPolicy | None = None,
                faults: FaultPlan | None = None, fallback: bool = False, **kwargs):
    """Factory: ``serial``, ``thread``, ``process``, or ``sharedmem``.

    ``tracer`` (optional) attaches a :class:`repro.obs.tracer.Tracer` so
    every map call records an ``engine_map`` span with worker metrics.
    ``policy`` (optional :class:`SchedulerPolicy`) sets the submission
    order for the pooled engines; the default everywhere is dynamic
    self-scheduling with chunk 1.

    ``faults`` (optional :class:`repro.faults.plan.FaultPlan`) injects
    deterministic task faults into every map call — chaos-testing only.
    When omitted, the ``REPRO_FAULTS`` environment variable is consulted
    so forked subprocess workers (and CLI runs under chaos CI) see the
    same plan.  ``fallback=True`` degrades down the chain ``sharedmem →
    process → thread → serial`` if the requested kind cannot be
    constructed on this host, instead of raising.
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r}; valid kinds: {', '.join(ENGINE_KINDS)}")
    if faults is None:
        faults = plan_from_env()
    while True:
        try:
            if kind == "serial":
                return SerialEngine(tracer=tracer, faults=faults)
            if kind == "thread":
                return ThreadEngine(n_workers=n_workers, policy=policy, tracer=tracer,
                                    faults=faults, **kwargs)
            if kind == "process":
                return ProcessEngine(n_workers=n_workers, policy=policy, tracer=tracer,
                                     faults=faults)
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

    ``sharedmem → process → thread → serial``; the replacement inherits
    the failing engine's worker count, scheduling policy, tracer and
    fault plan (so a chaos run keeps injecting task faults after a
    fallback — only the injected *engine* failures are consumed).
    """
    if getattr(engine, "kind", None) == "elastic":
        # The elastic pool is gone; degrade to local shared memory with
        # the membership the pool was sized for, not the (empty) live one.
        engine.close()
        return make_engine("sharedmem",
                           n_workers=getattr(engine, "_initial_workers", None),
                           tracer=engine.tracer,
                           policy=getattr(engine, "policy", None),
                           faults=engine.faults, fallback=True)
    if isinstance(engine, SharedMemoryEngine):
        kind = "process"
    elif isinstance(engine, ProcessEngine):
        kind = "thread"
    elif isinstance(engine, ThreadEngine):
        kind = "serial"
    else:
        return None
    return make_engine(kind, n_workers=getattr(engine, "n_workers", None),
                       tracer=engine.tracer, policy=getattr(engine, "policy", None),
                       faults=engine.faults, fallback=True)
