"""Tests for repro.serve — the reconstruction job daemon.

Unit tests cover the queue (priority/FIFO/admission), the result cache
and submission validation; the e2e tests start a real HTTP server on an
ephemeral port and drive it with urllib: submit/poll/fetch, the cache
hit on identical resubmission (asserting *zero* tiles run), checkpoint
resume after a simulated mid-run kill, admission-control rejections,
graceful drain, and a chaos run with injected faults through the daemon.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.data import save_dataset, simulate_expression
from repro.data.grn import scale_free_grn
from repro.faults import REPRO_FAULTS_ENV, FaultPlan
from repro.serve import (
    Job,
    JobQueue,
    JobStore,
    QueueFull,
    QuotaExceeded,
    ResultCache,
    ServeApp,
    make_server,
)
from repro.serve.runner import ValidationError, validate_submission

N_GENES = 12
M_SAMPLES = 40
CONFIG = {"n_permutations": 5, "n_null_pairs": 30, "alpha": 0.05,
          "tile": 4, "seed": 7}


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    ds = simulate_expression(scale_free_grn(N_GENES, seed=0), M_SAMPLES, seed=0)
    path = tmp_path_factory.mktemp("serve-data") / "expr.npz"
    save_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def reference_network(dataset_path):
    """What an offline run produces for (dataset, CONFIG) — the ground truth
    every served result must match bit-for-bit."""
    from repro.data import load_dataset

    ds = load_dataset(dataset_path)
    result = reconstruct_network(ds.expression, ds.genes, TingeConfig(**CONFIG))
    return result.network


class _Client:
    """Tiny urllib front-end for one live daemon."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def _request(self, req):
        try:
            with urllib.request.urlopen(req, timeout=10) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def get(self, path):
        return self._request(urllib.request.Request(self.base + path))

    def post(self, path, payload):
        return self._request(urllib.request.Request(
            self.base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}))

    def wait(self, job_id, deadline=30.0):
        """Poll until the job reaches a terminal state; returns the status."""
        t0 = time.monotonic()
        while time.monotonic() - t0 < deadline:
            code, status = self.get(f"/jobs/{job_id}")
            assert code == 200
            if status["state"] in ("done", "failed", "interrupted"):
                return status
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} not terminal after {deadline}s: {status}")


@pytest.fixture
def daemon(tmp_path):
    """A live ServeApp + HTTP server on an ephemeral port."""
    app = ServeApp(tmp_path / "state", n_workers=2)
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield app, _Client(server.server_address[1])
    app.drain(timeout=10)
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _submit(client, dataset_path, **overrides):
    payload = {"dataset": str(dataset_path), "config": dict(CONFIG)}
    payload.update(overrides)
    return client.post("/jobs", payload)


class TestJobQueue:
    def _job(self, **kw):
        kw.setdefault("dataset", "x.npz")
        kw.setdefault("config", {})
        return Job(**kw)

    def test_priority_then_fifo(self):
        q = JobQueue(JobStore())
        low1 = self._job(priority=0)
        high = self._job(priority=5)
        low2 = self._job(priority=0)
        for j in (low1, high, low2):
            q.submit(j)
        assert q.pop() is high
        assert q.pop() is low1  # FIFO among equal priorities
        assert q.pop() is low2

    def test_depth_cap(self):
        q = JobQueue(JobStore(), max_depth=2)
        q.submit(self._job())
        q.submit(self._job())
        with pytest.raises(QueueFull, match="depth cap"):
            q.submit(self._job())

    def test_tenant_quota_counts_active(self):
        store = JobStore()
        q = JobQueue(store, tenant_quota=2)
        a = self._job(tenant="a")
        q.submit(a)
        q.submit(self._job(tenant="a"))
        with pytest.raises(QuotaExceeded, match="'a'"):
            q.submit(self._job(tenant="a"))
        q.submit(self._job(tenant="b"))  # other tenants unaffected
        # a running job still holds a quota slot; a finished one frees it.
        q.pop()
        a.state = "running"
        with pytest.raises(QuotaExceeded):
            q.submit(self._job(tenant="a"))
        a.state = "done"
        q.submit(self._job(tenant="a"))

    def test_close_rejects_and_drains(self):
        q = JobQueue(JobStore())
        q.submit(self._job())
        q.close()
        with pytest.raises(QueueFull, match="draining"):
            q.submit(self._job())
        assert q.pop() is not None  # already-admitted jobs still drain
        assert q.pop() is None  # closed + empty -> shutdown signal

    def test_pop_timeout(self):
        q = JobQueue(JobStore())
        t0 = time.monotonic()
        assert q.pop(timeout=0.05) is None
        assert time.monotonic() - t0 < 2.0


class TestResultCache:
    def test_roundtrip_and_stats(self, tmp_path, reference_network):
        cache = ResultCache(tmp_path)
        assert cache.get("k" * 32) is None
        cache.put("k" * 32, reference_network, meta={"dataset": "d.npz"})
        hit = cache.get("k" * 32)
        assert hit is not None
        assert hit.meta["dataset"] == "d.npz"
        assert hit.network.n_edges == reference_network.n_edges
        np.testing.assert_array_equal(hit.network.weights,
                                      reference_network.weights)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_partial_entry_is_a_miss(self, tmp_path, reference_network):
        cache = ResultCache(tmp_path)
        cache.put("a" * 32, reference_network)
        (tmp_path / f"{'a' * 32}.npz").unlink()  # crash between npz and meta
        assert cache.get("a" * 32) is None
        (tmp_path / f"{'a' * 32}.json").write_text("{corrupt")
        assert cache.get("a" * 32) is None


class TestValidation:
    def test_happy_path(self, dataset_path):
        job = validate_submission({"dataset": str(dataset_path),
                                   "config": dict(CONFIG), "priority": 3})
        assert job.priority == 3 and job.tenant == "default"

    @pytest.mark.parametrize("payload,match", [
        ({}, "'dataset'"),
        ({"dataset": "missing.npz"}, "not found"),
        ({"dataset": "x.csv"}, "unsupported dataset format"),
        ({"dataset": "PLACEHOLDER", "config": {"bogus": 1}}, "bad config field"),
        ({"dataset": "PLACEHOLDER", "config": {"alpha": 2.0}}, "bad config"),
        ({"dataset": "PLACEHOLDER", "config": {"testing": "exact"}}, "pooled"),
        ({"dataset": "PLACEHOLDER", "engine": "gpu"}, "unknown engine"),
        ({"dataset": "PLACEHOLDER", "workers": 0}, "workers"),
        ({"dataset": "PLACEHOLDER", "typo": 1}, "unknown field"),
        ({"dataset": "PLACEHOLDER", "config": {"kernel": "legacy"}}, "kernel"),
    ])
    def test_rejections(self, dataset_path, payload, match):
        if payload.get("dataset") == "PLACEHOLDER":
            payload["dataset"] = str(dataset_path)
        with pytest.raises(ValidationError, match=match):
            validate_submission(payload)


class TestServeEndToEnd:
    def test_submit_poll_fetch(self, daemon, dataset_path, reference_network):
        _app, client = daemon
        code, body = _submit(client, dataset_path)
        assert code == 202 and body["state"] == "queued"
        status = client.wait(body["job_id"])
        assert status["state"] == "done"
        assert status["cached"] is False
        # Phase timings surfaced from the per-job tracer spans.
        assert set(status["phases"]) == {"preprocess", "weights", "null",
                                         "mi", "threshold"}
        assert all(t >= 0 for t in status["phases"].values())
        assert status["progress"]["done"] == status["progress"]["total"]
        code, result = client.get(f"/jobs/{body['job_id']}/result")
        assert code == 200
        assert result["n_genes"] == N_GENES
        # Bit-identical to the offline pipeline on the same (data, config).
        assert result["threshold"] == float(reference_network.threshold)
        assert [tuple(e) for e in result["edges"]] == reference_network.edge_list()

    def test_identical_resubmission_is_served_from_cache(self, daemon,
                                                         dataset_path):
        _app, client = daemon
        _, first = _submit(client, dataset_path)
        status1 = client.wait(first["job_id"])
        assert status1["counters"].get("tiles_done", 0) > 0
        _, second = _submit(client, dataset_path)
        status2 = client.wait(second["job_id"])
        assert status2["state"] == "done"
        assert status2["cached"] is True
        assert status2["cache_key"] == status1["cache_key"]
        # The acceptance criterion: a cache hit runs no tiles at all.
        assert status2["counters"].get("tiles_done", 0) == 0
        assert status2["counters"].get("rows_done", 0) == 0
        _, r1 = client.get(f"/jobs/{first['job_id']}/result")
        _, r2 = client.get(f"/jobs/{second['job_id']}/result")
        assert r1["edges"] == r2["edges"]
        assert r2["cached"] is True

    def test_different_config_misses_cache(self, daemon, dataset_path):
        _app, client = daemon
        _, first = _submit(client, dataset_path)
        client.wait(first["job_id"])
        cfg = dict(CONFIG, alpha=0.01)
        _, second = _submit(client, dataset_path, config=cfg)
        status = client.wait(second["job_id"])
        assert status["cached"] is False
        assert status["cache_key"] != client.wait(first["job_id"])["cache_key"]

    def test_interrupted_job_resumes_on_resubmission(self, daemon, dataset_path,
                                                     reference_network):
        _app, client = daemon
        # interrupt_after_rows simulates a mid-run kill: the worker stops
        # after one committed block-row, leaving the ledger on disk.
        code, body = _submit(client, dataset_path, interrupt_after_rows=1)
        assert code == 202
        status = client.wait(body["job_id"])
        assert status["state"] == "interrupted"
        code, _err = client.get(f"/jobs/{body['job_id']}/result")
        assert code == 409
        # Same (dataset, config) -> same cache key -> same checkpoint dir:
        # the resubmission resumes instead of recomputing.
        _, again = _submit(client, dataset_path)
        status2 = client.wait(again["job_id"])
        assert status2["state"] == "done"
        n_rows = len(range(0, N_GENES, CONFIG["tile"]))
        resumed_rows = status2["counters"].get("rows_done", 0)
        assert 0 < resumed_rows < n_rows  # strictly fewer rows than a cold run
        _, result = client.get(f"/jobs/{again['job_id']}/result")
        assert result["threshold"] == float(reference_network.threshold)
        assert [tuple(e) for e in result["edges"]] == reference_network.edge_list()

    def test_result_conflict_and_not_found(self, daemon, dataset_path):
        _app, client = daemon
        assert client.get("/jobs/nope")[0] == 404
        assert client.get("/jobs/nope/result")[0] == 404
        assert client.get("/bogus")[0] == 404
        assert client.post("/bogus", {})[0] == 404
        code, body = client.post("/jobs", {"dataset": "missing.npz"})
        assert code == 400 and "not found" in body["error"]

    def test_removed_kernel_variant_is_a_400(self, daemon, dataset_path):
        _app, client = daemon
        code, body = _submit(client, dataset_path,
                             config=dict(CONFIG, kernel="legacy"))
        assert code == 400 and "kernel" in body["error"]

    def test_health_endpoint(self, daemon, dataset_path):
        _app, client = daemon
        code, health = client.get("/healthz")
        assert code == 200 and health["status"] == "ok"
        assert health["workers"] == 2
        _, body = _submit(client, dataset_path)
        client.wait(body["job_id"])
        _, health = client.get("/healthz")
        assert health["jobs"].get("done") == 1
        assert health["cache"]["entries"] == 1


class TestAdmissionOverHTTP:
    @pytest.fixture
    def gated_daemon(self, tmp_path, monkeypatch):
        """Daemon whose single worker blocks until the test releases it,
        so queue depth and quota states are deterministic."""
        release = threading.Event()
        started = threading.Event()

        def fake_execute(job, cache, state_dir, datasets=None):
            job.state = "running"
            started.set()
            release.wait(timeout=30)
            job.state = "done"
            job.result = {"job_id": job.job_id}

        monkeypatch.setattr("repro.serve.app.execute_job", fake_execute)
        app = ServeApp(tmp_path / "state", n_workers=1, max_depth=1,
                       tenant_quota=2)
        server = make_server(app)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield _Client(server.server_address[1]), release, started
        release.set()
        app.drain(timeout=10)
        server.shutdown()
        server.server_close()

    def test_depth_cap_and_quota_429(self, gated_daemon, dataset_path):
        client, release, started = gated_daemon
        code, _ = _submit(client, dataset_path)  # occupies the worker
        assert code == 202
        assert started.wait(timeout=10)
        # Tenant "default" now has 1 running job; quota is 2, depth cap 1.
        code, _ = _submit(client, dataset_path)  # fills the queue slot
        assert code == 202
        code, body = _submit(client, dataset_path, tenant="other")
        assert code == 429 and "depth cap" in body["error"]
        release.set()

    def test_health_reports_queue_depth_and_tenants(self, gated_daemon,
                                                    dataset_path):
        client, release, started = gated_daemon
        _, health = client.get("/healthz")
        assert health["queue_depth"] == {"current": 0, "max": 1}
        assert health["tenants"] == {}
        _submit(client, dataset_path)                  # occupies the worker
        assert started.wait(timeout=10)
        _submit(client, dataset_path, tenant="other")  # sits in the queue
        _, health = client.get("/healthz")
        assert health["queue_depth"] == {"current": 1, "max": 1}
        assert health["tenants"] == {"default": 1, "other": 1}
        release.set()

    def test_quota_rejection(self, gated_daemon, dataset_path):
        client, release, started = gated_daemon
        _submit(client, dataset_path)
        assert started.wait(timeout=10)
        _submit(client, dataset_path)  # queued: tenant now at quota 2
        code, body = _submit(client, dataset_path)
        # Both admission rules would reject; quota is checked after depth.
        assert code == 429
        release.set()

class TestDrain:
    def test_drain_finishes_admitted_jobs(self, tmp_path, dataset_path):
        app = ServeApp(tmp_path / "state", n_workers=1)
        server = make_server(app)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = _Client(server.server_address[1])
        codes = [_submit(client, dataset_path)[0] for _ in range(2)]
        assert codes == [202, 202]
        assert app.drain(timeout=60) is True
        # Every admitted job ran to completion during the drain.
        assert app.store.counts() == {"done": 2}
        code, body = _submit(client, dataset_path)
        assert code == 503 and "draining" in body["error"]
        server.shutdown()
        server.server_close()


class TestServeCLI:
    def test_daemon_process_sigterm_drains(self, tmp_path, dataset_path):
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state"), "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            line = proc.stdout.readline()
            m = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert m, f"no listen line: {line!r}"
            client = _Client(int(m.group(1)))
            code, body = _submit(client, dataset_path)
            assert code == 202
            assert client.wait(body["job_id"])["state"] == "done"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "drained" in out and "'done': 1" in out
        finally:
            if proc.poll() is None:
                proc.kill()


class TestChaosThroughDaemon:
    def test_injected_faults_retry_to_identical_result(self, daemon,
                                                       dataset_path,
                                                       reference_network,
                                                       monkeypatch):
        # Deterministic injected crashes in the tile tasks; the job's
        # fault policy retries them (faulted tasks run clean on retry).
        monkeypatch.setenv(REPRO_FAULTS_ENV,
                           FaultPlan(seed=3, rate=0.5, kinds=("crash",)).to_env())
        _app, client = daemon
        cfg = dict(CONFIG, max_retries=3, on_fault="retry")
        code, body = _submit(client, dataset_path, config=cfg, engine="thread")
        assert code == 202
        status = client.wait(body["job_id"], deadline=60)
        assert status["state"] == "done", status["error"]
        assert status["counters"].get("task_retries", 0) > 0
        assert status["quarantined"] == []
        _, result = client.get(f"/jobs/{body['job_id']}/result")
        # Faults + retries must not change a single bit of the network.
        assert result["threshold"] == float(reference_network.threshold)
        assert [tuple(e) for e in result["edges"]] == reference_network.edge_list()

    def test_quarantined_result_is_not_cached(self, daemon, dataset_path,
                                              monkeypatch):
        # Sticky faults (max_failures=None) exhaust every retry; the job
        # finishes with quarantined NaN blocks, which must never enter the
        # result cache — a resubmission gets a fresh (clean) run.
        monkeypatch.setenv(REPRO_FAULTS_ENV,
                           FaultPlan(seed=3, rate=0.4, kinds=("crash",),
                                     max_failures=None).to_env())
        app, client = daemon
        cfg = dict(CONFIG, max_retries=1, on_fault="quarantine")
        _, body = _submit(client, dataset_path, config=cfg, engine="thread")
        status = client.wait(body["job_id"], deadline=60)
        assert status["state"] == "done"
        assert status["quarantined"], "fault plan should have poisoned tiles"
        assert app.cache.stats()["entries"] == 0
        monkeypatch.delenv(REPRO_FAULTS_ENV)
        # The resubmission is not served from cache; it resumes the ledger,
        # whose persisted quarantine records still mark the poison blocks.
        _, again = _submit(client, dataset_path, config=cfg, engine="thread")
        status2 = client.wait(again["job_id"], deadline=60)
        assert status2["state"] == "done"
        assert status2["cached"] is False
        assert status2["quarantined"] == status["quarantined"]
        assert app.cache.stats()["entries"] == 0


# -- streaming dataset subscriptions -------------------------------------

# Sized so the dirty-tile screen genuinely skips work (tiny fixtures mark
# every pair dirty, which would defeat the proper-subset assertions).
STREAM_N, STREAM_M, STREAM_DM = 60, 200, 2
STREAM_CONFIG = {"n_permutations": 10, "n_null_pairs": 80, "alpha": 0.01,
                 "tile": 8, "seed": 3}


@pytest.fixture(scope="module")
def stream_data():
    """A mostly-null expression block with a few coupled gene pairs, split
    into the registered matrix and the to-be-streamed columns."""
    rng = np.random.default_rng(5)
    full = rng.normal(size=(STREAM_N, STREAM_M + STREAM_DM))
    for k in range(STREAM_N // 6):
        full[2 * k + 1] = full[2 * k] + 0.3 * rng.normal(
            size=STREAM_M + STREAM_DM)
    genes = [f"g{i:03d}" for i in range(STREAM_N)]
    return genes, full[:, :STREAM_M], full[:, STREAM_M:]


@pytest.fixture(scope="module")
def stream_reference(stream_data):
    """Offline ground truth for the registered and the grown dataset."""
    genes, data, new = stream_data
    cfg = TingeConfig(**STREAM_CONFIG)
    base = reconstruct_network(data, genes, cfg).network
    grown = reconstruct_network(np.hstack([data, new]), genes, cfg).network
    return base, grown


def _ds_payload(genes, data, **overrides):
    payload = {"genes": list(genes),
               "data": [[float(v) for v in row] for row in data],
               "config": dict(STREAM_CONFIG)}
    payload.update(overrides)
    return payload


def _register(client, genes, data, **overrides):
    """POST /datasets and wait for the bootstrap job; returns (id, status)."""
    code, body = client.post("/datasets", _ds_payload(genes, data, **overrides))
    assert code == 202, body
    assert body["created"] is True
    status = client.wait(body["job_id"], deadline=60)
    assert status["state"] == "done", status["error"]
    return body["dataset_id"], status


class TestDatasetEndpoints:
    def test_register_snapshot_and_events(self, daemon, stream_data,
                                          stream_reference):
        app, client = daemon
        genes, data, _ = stream_data
        base, _grown = stream_reference
        ds_id, status = _register(client, genes, data)
        assert status["kind"] == "dataset_init"
        assert status["dataset_id"] == ds_id

        code, ds = client.get(f"/datasets/{ds_id}")
        assert code == 200
        assert ds["ready"] is True
        assert ds["version"] == 1
        assert ds["n_samples"] == STREAM_M
        assert ds["pending_batches"] == 0

        # The bootstrap snapshot event carries the offline-identical network.
        _, feed = client.get(f"/datasets/{ds_id}/events")
        assert feed["latest"] == 1
        (event,) = feed["events"]
        assert event["kind"] == "snapshot"
        assert event["threshold"] == float(base.threshold)
        assert event["n_edges"] == base.n_edges

        _, listing = client.get("/datasets")
        assert [d["dataset_id"] for d in listing["datasets"]] == [ds_id]
        _, health = client.get("/healthz")
        assert health["datasets"] == 1

    def test_register_is_idempotent(self, daemon, stream_data):
        _app, client = daemon
        genes, data, _ = stream_data
        ds_id, _ = _register(client, genes, data)
        # Same genes+data+config hash to the same fingerprint: no new
        # dataset, no new job — the daemon just points at the live state.
        code, body = client.post("/datasets", _ds_payload(genes, data))
        assert code == 200
        assert body["created"] is False
        assert body["dataset_id"] == ds_id
        assert body["job_id"] is None

    def test_samples_increment_bit_identical(self, daemon, stream_data,
                                             stream_reference):
        app, client = daemon
        genes, data, new = stream_data
        _base, grown = stream_reference
        ds_id, _ = _register(client, genes, data)

        code, body = client.post(
            f"/datasets/{ds_id}/samples",
            {"data": [[float(v) for v in row] for row in new]})
        assert code == 202
        assert body["pending_batches"] == 1
        status = client.wait(body["job_id"], deadline=60)
        assert status["state"] == "done", status["error"]
        result_code, result = client.get(f"/jobs/{body['job_id']}/result")
        assert result_code == 200

        # The served network must be the offline grown-dataset run, bit
        # for bit — threshold via the API, adjacency via the cache entry.
        assert result["version"] == 2
        assert result["n_samples"] == STREAM_M + STREAM_DM
        assert result["threshold"] == float(grown.threshold)
        assert result["n_edges"] == grown.n_edges
        hit = app.cache.get(result["cache_key"])
        assert hit is not None
        assert np.array_equal(hit.network.adjacency, grown.adjacency)
        assert np.array_equal(hit.network.weights[grown.adjacency],
                              grown.weights[grown.adjacency])

        # The delta event is the subscription's payload: edge churn plus
        # proof that only a proper subset of pairs was replayed.
        event = result["event"]
        assert event["kind"] == "delta"
        assert 0 < event["pairs_recomputed"] < event["pairs_total"]
        assert event["n_samples_after"] == STREAM_M + STREAM_DM
        # Cursor semantics: seq 1 is the snapshot, seq 2 the delta.
        _, feed = client.get(f"/datasets/{ds_id}/events?since=1")
        assert [e["seq"] for e in feed["events"]] == [2]
        assert feed["events"][0]["kind"] == "delta"
        _, empty = client.get(f"/datasets/{ds_id}/events?since=2")
        assert empty["events"] == [] and empty["latest"] == 2

    def test_registry_state_survives_on_disk(self, daemon, stream_data):
        """A fresh registry over the same state dir sees the committed
        version and the event log (the daemon-restart contract)."""
        from repro.serve.datasets import DatasetRegistry

        app, client = daemon
        genes, data, new = stream_data
        ds_id, _ = _register(client, genes, data)
        _, body = client.post(
            f"/datasets/{ds_id}/samples",
            {"data": [[float(v) for v in row] for row in new]})
        client.wait(body["job_id"], deadline=60)

        reloaded = DatasetRegistry(app.state_dir / "datasets")
        ds = reloaded.get(ds_id)
        assert ds is not None
        assert ds.version == 2
        assert ds.data.shape == (STREAM_N, STREAM_M + STREAM_DM)
        assert [e["kind"] for e in ds.events] == ["snapshot", "delta"]
        assert ds.updater is None  # rebuilt lazily by the next job

    def test_validation_rejections(self, daemon, stream_data):
        _app, client = daemon
        genes, data, _ = stream_data
        # BH needs every p-value: incompatible with streaming recompute.
        code, body = client.post("/datasets", _ds_payload(
            genes, data, config=dict(STREAM_CONFIG, correction="bh")))
        assert code == 400 and "correction" in body["error"]
        code, _ = client.post("/datasets/nope/samples", {"data": [[0.0]]})
        assert code == 404
        code, body = client.get("/datasets/nope")
        assert code == 404
        ds_id, _ = _register(client, genes, data)
        # An empty post is only meaningful as a resume of staged work.
        code, body = client.post(f"/datasets/{ds_id}/samples", {})
        assert code == 400 and "pending" in body["error"]
        code, _ = client.get(f"/datasets/{ds_id}/events?since=abc")
        assert code == 400


class TestDatasetResume:
    def test_interrupted_increment_resumes_from_ledger(self, daemon,
                                                       stream_data,
                                                       stream_reference):
        app, client = daemon
        genes, data, new = stream_data
        _base, grown = stream_reference
        ds_id, _ = _register(client, genes, data)

        # Kill the replay after one dirty row: the job parks as
        # interrupted, the staged batch and the ledger both survive, and
        # nothing is committed.
        _, body = client.post(
            f"/datasets/{ds_id}/samples",
            {"data": [[float(v) for v in row] for row in new],
             "interrupt_after_rows": 1})
        status = client.wait(body["job_id"], deadline=60)
        assert status["state"] == "interrupted"
        assert "resume" in status["error"]
        _, ds = client.get(f"/datasets/{ds_id}")
        assert ds["version"] == 1
        assert ds["pending_batches"] == 1
        assert ds["n_samples"] == STREAM_M

        # An empty follow-up post resumes: the ledger replays only the
        # still-dirty rows and the commit is bit-identical to offline.
        code, retry = client.post(f"/datasets/{ds_id}/samples", {})
        assert code == 202
        status = client.wait(retry["job_id"], deadline=60)
        assert status["state"] == "done", status["error"]
        _, result = client.get(f"/jobs/{retry['job_id']}/result")
        assert result["version"] == 2
        assert result["threshold"] == float(grown.threshold)
        assert result["n_edges"] == grown.n_edges
        hit = app.cache.get(result["cache_key"])
        assert np.array_equal(hit.network.adjacency, grown.adjacency)
        _, ds = client.get(f"/datasets/{ds_id}")
        assert ds["pending_batches"] == 0 and ds["version"] == 2


class TestDatasetChaos:
    def test_faulted_increment_retries_to_identical_result(self, daemon,
                                                           stream_data,
                                                           stream_reference,
                                                           monkeypatch):
        """REPRO_FAULTS through the daemon's dataset path: injected
        crashes in the dirty-tile replay are retried by the dataset's
        fault policy and the committed delta is bitwise unaffected."""
        app, client = daemon
        genes, data, new = stream_data
        _base, grown = stream_reference
        ds_id, _ = _register(
            client, genes, data,
            config=dict(STREAM_CONFIG, max_retries=3, on_fault="retry"),
            engine="thread")

        monkeypatch.setenv(REPRO_FAULTS_ENV,
                           FaultPlan(seed=3, rate=0.5, kinds=("crash",)).to_env())
        _, body = client.post(
            f"/datasets/{ds_id}/samples",
            {"data": [[float(v) for v in row] for row in new]})
        status = client.wait(body["job_id"], deadline=60)
        assert status["state"] == "done", status["error"]
        assert status["counters"].get("task_retries", 0) > 0
        assert status["quarantined"] == []
        _, result = client.get(f"/jobs/{body['job_id']}/result")
        assert result["threshold"] == float(grown.threshold)
        assert result["n_edges"] == grown.n_edges
        hit = app.cache.get(result["cache_key"])
        assert np.array_equal(hit.network.adjacency, grown.adjacency)
