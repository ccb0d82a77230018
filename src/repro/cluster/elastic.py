"""Elastic coordinator + workers: one reconstruction over many processes.

The top of the distributed stack.  An :class:`ElasticCoordinator` listens
on a socket; worker processes (``repro worker --connect HOST:PORT``) dial
in at any time and are handed tile tasks from a
:class:`~repro.cluster.taskgraph.TaskGraph`.  :class:`ElasticEngine`
wraps the coordinator in the engine protocol
(``map_supervised``, plus the strict ``map``), so :func:`repro.core.exec.run_tile_plan`
— and with it every MI driver, the fault policies, and the tracer spans
— gets multi-process distribution without knowing it happened.

Membership is *elastic*: workers may join mid-run (they immediately
receive the current task payload and start pulling work) and may die
mid-run (socket EOF or heartbeat silence; their in-flight tasks return
to the queue and are reassigned).  Because every task knows its plan
index and results are committed positionally, the final matrix is
bit-identical to the serial path no matter how membership churned.

The task function is pickled once per dispatch and broadcast under
its content digest; workers cache payloads by digest, so the weight
tensor crosses the wire once per worker, not once per tile.  All traffic
is metered per peer through :class:`~repro.cluster.comm.CommMeter` and
exported as ``comm.bytes_sent{peer=...}`` counters.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import queue
import socket
import subprocess
import sys
import threading
import time

from repro.cluster.comm import CommMeter
from repro.cluster.taskgraph import TaskGraph, TileTask, tile_shards
from repro.cluster.transport import Channel, DEFAULT_MAX_FRAME, connect
from repro.obs.metrics import WorkerStats
from repro.parallel.engine import EngineFailure, _EngineObsMixin
from repro.parallel.scheduler import DynamicScheduler

__all__ = [
    "ElasticCoordinator",
    "ElasticEngine",
    "worker_main",
]


def _dumps(obj) -> bytes:
    buf = io.BytesIO()
    pickle.Pickler(buf, protocol=5).dump(obj)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def worker_main(host: str, port: int, name: "str | None" = None,
                max_frame: int = DEFAULT_MAX_FRAME) -> int:
    """Run one elastic worker: dial the coordinator, pull tasks until BYE.

    The protocol is three message kinds: ``task`` installs a pickled task
    function under its digest (cached — the payload carrying the weight
    tensor arrives once); ``run`` executes one item through an installed
    function and answers ``result`` or ``task_error``; BYE (or EOF) ends
    the worker.  Heartbeat PINGs are answered inside the channel while
    the worker is blocked waiting for work.
    """
    ch = connect(host, port, peer="coordinator", max_frame=max_frame)
    ch.send({"type": "hello", "name": name or f"pid{os.getpid()}",
             "pid": os.getpid()})
    fns: dict = {}
    try:
        while True:
            try:
                msg = ch.recv()
            except (ConnectionError, OSError):
                return 1
            if msg is None:  # orderly BYE
                return 0
            kind = msg.get("type")
            if kind == "task":
                fns[msg["digest"]] = pickle.loads(msg["payload"])
                # Evict older payloads: one map call is live at a time.
                for d in [d for d in fns if d != msg["digest"]]:
                    del fns[d]
            elif kind == "run":
                fn = fns.get(msg["digest"])
                index = msg["index"]
                if fn is None:
                    ch.send({"type": "task_error", "index": index,
                             "error": "KeyError: unknown task digest",
                             "seconds": 0.0})
                    continue
                t0 = time.perf_counter()
                try:
                    value = fn(msg["item"])
                except BaseException as exc:  # noqa: BLE001 - reported upstream
                    ch.send({"type": "task_error", "index": index,
                             "error": f"{type(exc).__name__}: {exc}",
                             "seconds": time.perf_counter() - t0})
                else:
                    ch.send({"type": "result", "index": index, "value": value,
                             "seconds": time.perf_counter() - t0})
    finally:
        ch.close()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _Worker:
    """Coordinator-side record of one connected worker."""

    def __init__(self, wid: str, channel: Channel):
        self.wid = wid
        self.channel = channel
        self.digests: set = set()     # task payloads this worker holds
        self.shards: set = set()      # weight shards its finished tiles read
        self.task: "TileTask | None" = None
        self.task_started = 0.0
        self.last_seen = time.monotonic()

    @property
    def idle(self) -> bool:
        return self.task is None


class ElasticCoordinator:
    """Accepts workers and turns membership changes into queue events.

    One accept thread plus one reader thread per worker; every inbound
    message (and every join/loss) lands in :attr:`inbox` as a
    ``(kind, worker_id, message)`` event, so the dispatch loop in
    :class:`ElasticEngine` is a single-threaded state machine — the only
    place task state mutates.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = DEFAULT_MAX_FRAME):
        self.meter = CommMeter()
        self.max_frame = max_frame
        self.inbox: "queue.Queue" = queue.Queue()
        self.workers: dict = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="elastic-accept", daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- membership ------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._handshake, args=(sock,),
                             daemon=True).start()

    def _handshake(self, sock: socket.socket) -> None:
        temp_peer = f"joining-{id(sock):x}"
        try:
            ch = Channel(sock, peer=temp_peer, meter=self.meter,
                         max_frame=self.max_frame)
            hello = ch.recv(timeout=30.0)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                ch.close()
                return
        except (ConnectionError, OSError):
            sock.close()
            return
        with self._lock:
            wid = f"w{self._next_id}"
            self._next_id += 1
            ch.peer = wid
            # Re-attribute the handshake bytes from the temp peer name.
            moved = self.meter.recv_by_peer.pop(temp_peer, None)
            if moved:
                self.meter.recv_by_peer[wid] = (
                    self.meter.recv_by_peer.get(wid, 0.0) + moved)
            worker = _Worker(wid, ch)
            self.workers[wid] = worker
        ch.on_frame = lambda w=worker: setattr(
            w, "last_seen", time.monotonic())
        ch.send({"type": "welcome", "worker_id": wid})
        self.inbox.put(("join", wid, hello))
        threading.Thread(target=self._read_loop, args=(worker,),
                         name=f"elastic-read-{wid}", daemon=True).start()

    def _read_loop(self, worker: _Worker) -> None:
        while True:
            try:
                msg = worker.channel.recv()
            except (ConnectionError, OSError):
                self.inbox.put(("lost", worker.wid, None))
                return
            if msg is None:
                self.inbox.put(("lost", worker.wid, None))
                return
            self.inbox.put((msg.get("type", "?"), worker.wid, msg))

    def drop_worker(self, wid: str) -> "_Worker | None":
        """Forget ``wid`` and close its channel (reader thread then exits)."""
        with self._lock:
            worker = self.workers.pop(wid, None)
        if worker is not None:
            worker.channel.close()
        return worker

    def wait_for_workers(self, n: int, timeout: float = 30.0) -> None:
        """Block until ``n`` workers have joined (drains no other events)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if len(self.workers) >= n:
                    return
            if time.monotonic() >= deadline:
                with self._lock:
                    have = len(self.workers)
                raise EngineFailure(
                    f"only {have}/{n} workers joined within {timeout:.0f}s")
            time.sleep(0.02)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            workers = list(self.workers.values())
            self.workers.clear()
        for w in workers:
            w.channel.bye()
            w.channel.close()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ElasticEngine(_EngineObsMixin):
    """Engine protocol over an elastic worker pool.

    Satisfies what :func:`repro.core.exec.run_tile_plan` asks of a
    fork-style engine — ``in_process=False``,
    ``map_supervised(fn, items, timeout, on_done)``, ``n_workers`` — so every
    driver, fault policy and tracer span works over remote workers
    unchanged.  ``n_workers`` is *current live membership*, not a
    constructor constant.

    With ``spawn=True`` (default) the engine launches ``n_workers`` local
    worker subprocesses (``python -m repro worker --connect ...``); with
    ``spawn=False`` it only listens, and workers are started out-of-band
    (other hosts, a test harness, an operator shell).

    ``on_event(kind, info)`` — if set — is called synchronously from the
    dispatch loop after each membership or result event ("join", "lost",
    "result", "task_error"); tests use it to kill and add workers at
    deterministic points mid-run.
    """

    in_process = False
    kind = "elastic"

    def __init__(self, n_workers: "int | None" = 3, host: str = "127.0.0.1",
                 port: int = 0, tracer=None, policy=None, faults=None,
                 spawn: bool = True, python: "str | None" = None,
                 heartbeat: float = 5.0, join_timeout: float = 30.0,
                 start_timeout: float = 60.0,
                 max_frame: int = DEFAULT_MAX_FRAME, on_event=None):
        self.tracer = tracer
        self.policy = policy or DynamicScheduler(chunk=1)
        self.faults = faults
        self.heartbeat = float(heartbeat)
        self.join_timeout = float(join_timeout)
        self.python = python or sys.executable
        self.on_event = on_event
        self.processes: list = []
        self._spawned = 0
        self._run_stats: dict = {}
        self.last_graph: "TaskGraph | None" = None
        self.coordinator = ElasticCoordinator(host=host, port=port,
                                              max_frame=max_frame)
        initial = 3 if n_workers is None else max(int(n_workers), 1)
        self._initial_workers = initial
        if spawn:
            for _ in range(initial):
                self.spawn_worker()
            self.coordinator.wait_for_workers(initial, timeout=start_timeout)

    # -- pool management -------------------------------------------------
    @property
    def meter(self) -> CommMeter:
        return self.coordinator.meter

    @property
    def n_workers(self) -> int:
        """Current live membership (elastic, not a constant)."""
        return max(len(self.coordinator.workers), 1)

    @property
    def address(self) -> str:
        return self.coordinator.address

    def spawn_worker(self) -> subprocess.Popen:
        """Launch one local worker subprocess connected to this engine."""
        env = dict(os.environ)
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("repro").__file__)))
        parts = [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        name = f"local-{self._spawned}"
        self._spawned += 1
        proc = subprocess.Popen(
            [self.python, "-m", "repro", "worker",
             "--connect", self.coordinator.address, "--name", name],
            env=env, stdin=subprocess.DEVNULL)
        self.processes.append(proc)
        return proc

    # -- engine protocol -------------------------------------------------
    def _dispatch(self, fn, items, out, timeout, on_done, sp):
        """One supervised round over the pool (see :mod:`repro.parallel.engine`).

        A task that raises on a worker fails only its own slot; a task
        running past ``timeout`` has its worker dropped (the elastic
        analogue of killing a hung fork worker) and is reported failed —
        the resilient dispatch layer owns retries.
        """
        if out is not None:
            raise TypeError("elastic workers cannot write into coordinator "
                            "memory; use map_supervised")
        results: list = [None] * len(items)
        failures: dict = {}
        fn = self._faulty(fn)
        try:
            payload = _dumps(fn)
        except Exception as exc:
            raise TypeError(
                f"elastic task function is not picklable: {exc}") from exc
        digest = hashlib.sha256(payload).hexdigest()[:16]
        graph = TaskGraph(tasks=[
            TileTask(index=i, item=item, shards=_item_shards(item))
            for i, item in enumerate(items)
        ])
        # Per-run worker stats live on the engine (not the _Worker records)
        # so a worker killed mid-run still counts in the map metadata.
        self._run_stats = {}
        self._drive(graph, payload, digest, results, failures, timeout, on_done)
        tracer = self._obs_tracer()
        if graph.reassigned:
            tracer.add("elastic_tasks_reassigned", graph.reassigned)
        if graph.locality_hits:
            tracer.add("elastic_locality_hits", graph.locality_hits)
        self.meter.export(tracer)
        self.last_graph = graph
        # Failures arrive in completion order; report them by plan index so
        # callers see one order however the workers raced.
        return (results, dict(sorted(failures.items())),
                [s for s in self._run_stats.values() if s.tasks])

    def _drive(self, graph: TaskGraph, payload: bytes, digest: str,
               results: list, failures: dict, timeout: "float | None",
               on_done) -> None:
        coord = self.coordinator
        no_worker_since: "float | None" = None
        last_ping = time.monotonic()
        while not graph.done():
            # Feed every idle worker (installing the payload on first use).
            for w in list(coord.workers.values()):
                if not w.idle:
                    continue
                task = graph.next_for(w.wid, cached_shards=w.shards)
                if task is None:
                    break
                try:
                    if digest not in w.digests:
                        w.channel.send(
                            {"type": "task", "digest": digest,
                             "payload": payload})
                        w.digests.add(digest)
                    w.channel.send({"type": "run", "digest": digest,
                                    "index": task.index, "item": task.item})
                except (ConnectionError, OSError):
                    graph.release_worker(w.wid)
                    coord.drop_worker(w.wid)
                    continue
                w.task = task
                w.task_started = time.monotonic()

            if coord.workers:
                no_worker_since = None
            elif no_worker_since is None:
                no_worker_since = time.monotonic()
            elif time.monotonic() - no_worker_since > self.join_timeout:
                raise EngineFailure(
                    "elastic pool empty: all workers lost and none joined "
                    f"within {self.join_timeout:.0f}s")

            self._enforce_deadlines(graph, failures, timeout)
            if time.monotonic() - last_ping >= self.heartbeat:
                last_ping = time.monotonic()
                self._heartbeat_idle(graph)
            if graph.done():
                break

            try:
                kind, wid, msg = coord.inbox.get(timeout=0.1)
            except queue.Empty:
                continue
            self._handle(kind, wid, msg, graph, results, failures, on_done)
            if self.on_event is not None:
                self.on_event(kind, {"worker": wid, "message": msg,
                                     "engine": self})

    def _handle(self, kind, wid, msg, graph, results, failures,
                on_done) -> None:
        coord = self.coordinator
        worker = coord.workers.get(wid)
        if kind == "join":
            return  # feeding happens at the top of the loop
        if kind == "lost":
            coord.drop_worker(wid)
            if worker is not None and worker.task is not None:
                graph.release_worker(wid)
                worker.task = None
            return
        if worker is None:  # message from a worker we already dropped
            return
        if kind == "result":
            index = msg["index"]
            task = worker.task
            worker.task = None
            st = self._run_stats.setdefault(wid, WorkerStats(wid))
            st.tasks += 1
            st.busy_seconds += float(msg.get("seconds", 0.0))
            if task is not None and task.index == index:
                worker.shards.update(task.shards)
            done = graph.tasks_by_index()[index]
            if done.state == "done":
                return  # duplicate after reassignment — first write wins
            graph.complete(index)
            results[index] = msg["value"]
            failures.pop(index, None)
            if on_done is not None:
                on_done(index, msg["value"])
            return
        if kind == "task_error":
            index = msg["index"]
            worker.task = None
            st = self._run_stats.setdefault(wid, WorkerStats(wid))
            st.busy_seconds += float(msg.get("seconds", 0.0))
            done = graph.tasks_by_index()[index]
            if done.state == "done":
                return
            graph.complete(index)
            failures[index] = msg["error"]
            return

    def _enforce_deadlines(self, graph, failures,
                           timeout: "float | None") -> None:
        if timeout is None:
            return
        now = time.monotonic()
        for w in list(self.coordinator.workers.values()):
            if w.task is None or now - w.task_started <= timeout:
                continue
            task = w.task
            w.task = None
            # The elastic analogue of killing a hung fork worker: drop the
            # connection (a local subprocess then exits on EOF) and report
            # the task failed; the resilient layer decides about retries.
            self.coordinator.drop_worker(w.wid)
            graph.complete(task.index)
            failures[task.index] = (
                f"task timed out after {timeout:.1f}s on {w.wid}")
            self._obs_tracer().add("elastic_workers_dropped")

    def _heartbeat_idle(self, graph) -> None:
        """Ping idle workers; drop any silent for 3 heartbeat intervals.

        Busy workers are exempt — a single-threaded worker deep in a tile
        kernel cannot answer, and its death is caught by socket EOF.
        """
        now = time.monotonic()
        for w in list(self.coordinator.workers.values()):
            if not w.idle:
                continue
            if now - w.last_seen > 3 * self.heartbeat:
                self.coordinator.drop_worker(w.wid)
                graph.release_worker(w.wid)
                continue
            try:
                w.channel.ping()
            except (ConnectionError, OSError):
                self.coordinator.drop_worker(w.wid)
                graph.release_worker(w.wid)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self.coordinator.close()
        for proc in self.processes:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()

    def __enter__(self) -> "ElasticEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ElasticEngine(n_workers={len(self.coordinator.workers)}, "
                f"address={self.coordinator.address})")


def _item_shards(item) -> "tuple[int, ...]":
    """Locality hints for one task item, when it looks like a tile."""
    if hasattr(item, "i0") and hasattr(item, "j1"):
        span = max(item.i1 - item.i0, item.j1 - item.j0)
        return tile_shards(item, max(span, 1))
    return ()
