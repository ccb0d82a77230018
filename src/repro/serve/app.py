"""The ``repro serve`` daemon: HTTP front-end + worker pool.

Stdlib only (:class:`http.server.ThreadingHTTPServer`), matching the
repo's no-new-dependencies rule.  The HTTP threads do nothing but parse,
validate and admit; reconstruction happens on a bounded pool of worker
threads pulling from the :class:`~repro.serve.queue.JobQueue`, so a slow
job can never wedge the status endpoints.

Routes
------
* ``POST /jobs`` — submit ``{"dataset": ..., "config": {...}, ...}``;
  ``202`` with the job id, ``400`` on validation errors, ``429`` when
  the queue depth cap or a tenant quota rejects it, ``503`` while
  draining.
* ``GET /jobs`` — every job's status, submission order.
* ``GET /jobs/<id>`` — one job's status: state, phase, per-phase wall
  timings, live tile progress/ETA, tracer counters.
* ``GET /jobs/<id>/result`` — the network (``409`` until the job is
  done; for ``interrupted``/``failed`` the error explains what to do).
* ``GET /healthz`` — daemon liveness + queue/cache/job gauges.
* ``POST /datasets`` — register a streaming dataset (genes + data +
  config); idempotent on identical content, enqueues the initial build.
* ``POST /datasets/<id>/samples`` — stage new sample columns + enqueue
  the incremental dirty-tile job (empty ``data`` = resume/retry).
* ``GET /datasets`` / ``GET /datasets/<id>`` — dataset status.
* ``GET /datasets/<id>/events?since=N`` — seq-numbered network-delta
  events (edges added/removed, threshold drift, tile counters).

Graceful drain: :meth:`ServeApp.drain` stops admission (new submissions
get ``503``), lets the workers finish every admitted job, then returns.
The CLI wires it to ``SIGTERM``/``SIGINT``.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.parallel.engine import blas_budget, blas_threads
from repro.serve.cache import ResultCache
from repro.serve.datasets import (
    DatasetError,
    DatasetRegistry,
    validate_dataset_payload,
    validate_samples_payload,
)
from repro.serve.jobs import Job, JobState, JobStore
from repro.serve.queue import JobQueue, QueueFull, QuotaExceeded
from repro.serve.runner import ValidationError, execute_job, validate_submission

__all__ = ["ServeApp", "make_server"]

_MAX_BODY = 1 << 20  # 1 MiB of JSON is already an absurd submission


class ServeApp:
    """Everything behind the HTTP handler: store, queue, cache, workers.

    Parameters
    ----------
    state_dir:
        Root for daemon persistence: ``results/`` (the fingerprint-keyed
        cache, survives restarts) and ``checkpoints/<key>/`` (resume
        ledgers of in-flight jobs).
    n_workers:
        Concurrent reconstruction jobs (worker threads).  The app holds
        :func:`~repro.parallel.engine.blas_budget` of ``n_workers`` from
        construction until :meth:`drain` has joined the workers, so the
        jobs' GEMMs share the cores instead of each running a BLAS pool
        as wide as the machine.
    max_depth, tenant_quota:
        Admission controls, passed to :class:`~repro.serve.queue.JobQueue`.
    """

    def __init__(self, state_dir: "str | Path", n_workers: int = 2,
                 max_depth: int = 64, tenant_quota: "int | None" = None,
                 max_datasets: int = 64):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.store = JobStore()
        self.queue = JobQueue(self.store, max_depth=max_depth,
                              tenant_quota=tenant_quota)
        self.cache = ResultCache(self.state_dir / "results")
        self.datasets = DatasetRegistry(self.state_dir / "datasets",
                                        max_datasets=max_datasets)
        self._draining = False
        # Held for the daemon's whole life, not per job: with per-job
        # budgets a job that starts alone would run its GEMMs at full
        # width, and they would still be running wide when a second job
        # starts beside it.
        self._blas = contextlib.ExitStack()
        self._blas.enter_context(blas_budget(n_workers))
        self._workers = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}",
                             daemon=True)
            for i in range(n_workers)
        ]
        for w in self._workers:
            w.start()

    # -- worker pool -----------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.25)
            if job is None:
                if self.queue.closed:
                    return
                continue
            execute_job(job, self.cache, self.state_dir,
                        datasets=self.datasets)

    # -- operations ------------------------------------------------------
    def submit(self, payload: dict):
        """Validate + admit one submission; returns the queued Job.

        Raises :class:`~repro.serve.runner.ValidationError` (→ 400) or an
        :class:`~repro.serve.queue.AdmissionError` subclass (→ 429/503).
        """
        if self._draining:
            raise QueueFull("daemon is draining; not accepting jobs")
        job = validate_submission(payload)
        self.queue.submit(job)
        return job

    def register_dataset(self, payload: dict):
        """Validate + register a streaming dataset; enqueue its initial
        build unless an identical registration already produced one.

        Returns ``(state, job_or_None, created)``.  Raises
        :class:`~repro.serve.datasets.DatasetError` (→ 400) or an
        admission error (→ 429/503).
        """
        if self._draining:
            raise QueueFull("daemon is draining; not accepting datasets")
        genes, data, config, engine = validate_dataset_payload(payload)
        state, created = self.datasets.register(genes, data, config, engine)
        job = None
        if created or state.updater is None:
            job = Job(dataset=f"dataset:{state.dataset_id}",
                      config=dict(state.config),
                      tenant=payload.get("tenant", "default"),
                      priority=payload.get("priority", 0),
                      engine=engine, kind="dataset_init",
                      dataset_id=state.dataset_id)
            self.queue.submit(job)
        return state, job, created

    def append_samples(self, dataset_id: str, payload: dict):
        """Stage a batch of new sample columns + enqueue the incremental
        job.  An empty ``data`` stages nothing (the retry/resume form).

        Returns ``(state, job)``.
        """
        if self._draining:
            raise QueueFull("daemon is draining; not accepting samples")
        state = self.datasets.get(dataset_id)
        if state is None:
            raise KeyError(dataset_id)
        batch = validate_samples_payload(payload, len(state.genes))
        if batch is None and not state.pending and state.updater is not None:
            raise DatasetError(
                "empty batch with nothing pending; post 'data' with at "
                "least one new sample column")
        if batch is not None:
            state.stage(batch)
        job = Job(dataset=f"dataset:{dataset_id}", config=dict(state.config),
                  tenant=payload.get("tenant", "default"),
                  priority=payload.get("priority", 0),
                  engine=payload.get("engine", state.engine),
                  interrupt_after_rows=payload.get("interrupt_after_rows"),
                  kind="dataset_samples", dataset_id=dataset_id)
        self.queue.submit(job)
        return state, job

    def begin_drain(self) -> None:
        """Stop admission without blocking (signal-handler safe)."""
        self._draining = True
        self.queue.close()

    def drain(self, timeout: "float | None" = None) -> bool:
        """Stop admitting, finish every admitted job, return completeness.

        Returns True when all workers exited within ``timeout`` (None =
        wait forever); already-queued jobs still run to completion, which
        also flushes their checkpoints for anything interrupted later.
        The BLAS budget is released once every worker has exited.
        """
        self.begin_drain()
        deadline = None if timeout is None else timeout / max(len(self._workers), 1)
        clean = True
        for w in self._workers:
            w.join(timeout=deadline)
            clean = clean and not w.is_alive()
        if clean:
            self._blas.close()
        return clean

    @property
    def draining(self) -> bool:
        return self._draining

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "queued": len(self.queue),
            # Admission pressure, visible without scraping logs: current
            # queue depth against its cap, and which tenants hold active
            # (queued + running) slots against their quotas.
            "queue_depth": {
                "current": len(self.queue),
                "max": self.queue.max_depth,
            },
            "tenants": self.store.active_by_tenant(),
            "jobs": self.store.counts(),
            "datasets": len(self.datasets),
            "cache": self.cache.stats(),
            "workers": sum(1 for w in self._workers if w.is_alive()),
            # The thread count the jobs' GEMMs run at (the BLAS budget).
            "blas_threads": blas_threads(),
        }


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON router over the owning :class:`ServeApp`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 - silence per-request noise
        pass

    # -- plumbing --------------------------------------------------------
    def _json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValidationError("empty request body (expected JSON)")
        if length > _MAX_BODY:
            raise ValidationError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError:
            raise ValidationError("request body is not valid JSON") from None

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/healthz":
            self._json(200, self.app.health())
        elif path == "/jobs":
            self._json(200, {"jobs": [j.status() for j in self.app.store.jobs()]})
        elif path.startswith("/jobs/"):
            parts = path.split("/")[2:]  # ['<id>'] or ['<id>', 'result']
            job = self.app.store.get(parts[0])
            if job is None:
                self._error(404, f"no such job: {parts[0]}")
            elif len(parts) == 1:
                self._json(200, job.status())
            elif parts[1] == "result":
                self._get_result(job)
            else:
                self._error(404, f"unknown path: {self.path}")
        elif path == "/datasets":
            self._json(200, {"datasets": [d.status()
                                          for d in self.app.datasets.list()]})
        elif path.startswith("/datasets/"):
            parts = path.split("/")[2:]  # ['<id>'] or ['<id>', 'events']
            ds = self.app.datasets.get(parts[0])
            if ds is None:
                self._error(404, f"no such dataset: {parts[0]}")
            elif len(parts) == 1:
                self._json(200, ds.status())
            elif parts[1] == "events":
                try:
                    since = int(parse_qs(parsed.query).get("since", ["0"])[0])
                except ValueError:
                    self._error(400, "'since' must be an integer event seq")
                    return
                events = ds.events_since(since)
                self._json(200, {"dataset_id": ds.dataset_id,
                                 "since": since,
                                 "latest": (events[-1]["seq"] if events
                                            else since),
                                 "events": events})
            else:
                self._error(404, f"unknown path: {self.path}")
        else:
            self._error(404, f"unknown path: {self.path}")

    def _get_result(self, job) -> None:
        if job.state == JobState.DONE:
            self._json(200, job.result)
        elif job.state in JobState.ACTIVE:
            self._error(409, f"job {job.job_id} is {job.state}; poll "
                             f"/jobs/{job.job_id} until it is done")
        else:  # failed / interrupted
            self._error(409, f"job {job.job_id} {job.state}: {job.error}")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        path = urlparse(self.path).path.rstrip("/")
        try:
            if path == "/jobs":
                payload = self._read_body()
                job = self.app.submit(payload)
                self._json(202, {"job_id": job.job_id, "state": job.state,
                                 "status_url": f"/jobs/{job.job_id}",
                                 "result_url": f"/jobs/{job.job_id}/result"})
            elif path == "/datasets":
                payload = self._read_body()
                state, job, created = self.app.register_dataset(payload)
                self._json(202 if job is not None else 200, {
                    "dataset_id": state.dataset_id,
                    "created": created,
                    "version": state.version,
                    "job_id": job.job_id if job is not None else None,
                    "status_url": f"/datasets/{state.dataset_id}",
                    "events_url": f"/datasets/{state.dataset_id}/events",
                })
            elif (path.startswith("/datasets/")
                  and path.endswith("/samples")):
                dataset_id = path.split("/")[2]
                payload = self._read_body()
                try:
                    state, job = self.app.append_samples(dataset_id, payload)
                except KeyError:
                    self._error(404, f"no such dataset: {dataset_id}")
                    return
                self._json(202, {
                    "dataset_id": state.dataset_id,
                    "job_id": job.job_id,
                    "pending_batches": state.status()["pending_batches"],
                    "status_url": f"/jobs/{job.job_id}",
                    "events_url": f"/datasets/{state.dataset_id}/events",
                })
            else:
                self._error(404, f"unknown path: {self.path}")
        except (ValidationError, DatasetError) as exc:
            self._error(400, str(exc))
        except QuotaExceeded as exc:
            self._error(429, str(exc))
        except QueueFull as exc:
            self._error(503 if self.app.draining else 429, str(exc))


def make_server(app: ServeApp, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``app``.

    ``port=0`` binds an ephemeral port (tests); read the real one from
    ``server.server_address[1]``.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.app = app  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server
