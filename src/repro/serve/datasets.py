"""Streaming datasets: the serve daemon's subscription state.

A *dataset* is a living expression matrix the daemon keeps a current
network for.  ``POST /datasets`` registers one (genes + data + pipeline
config, fingerprinted into a deterministic id) and enqueues the initial
reconstruction; ``POST /datasets/<id>/samples`` stages a batch of new
arrays and enqueues an incremental job that folds them in through
:meth:`repro.core.incremental.NetworkUpdater.add_samples` — recomputing
only the dirty tiles; ``GET /datasets/<id>/events`` replays the
seq-numbered network-delta log (edges added/removed, threshold drift,
tile counters) from any cursor.

Consistency model
-----------------
* Staged batches **commit only on job success**: the committed ``data``
  matrix and the version counter advance atomically with the event
  append, after every dirty tile has been replayed.  An interrupted job
  leaves the staged batch and the checkpoint ledger in place, so
  re-posting (even an empty batch) resumes from the ledger and the
  result is bit-identical to an uninterrupted run.
* Every committed version's network equals a from-scratch pipeline run
  on that version's data — the result cache is keyed per version (weight
  fingerprint × config), so re-registering an unchanged dataset, or
  growing one along a path another daemon already computed, serves from
  cache with zero tiles run.
* A daemon crash loses staged-but-uncommitted batches (they were never
  acknowledged as committed); the committed data, the event log and the
  replay ledger are on disk, so the client re-posts the batch and the
  update resumes rather than restarts.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.incremental import NetworkUpdater
from repro.core.pipeline import TingeConfig
from repro.parallel.engine import ENGINE_KINDS

__all__ = [
    "DatasetError",
    "DatasetState",
    "DatasetRegistry",
    "dataset_fingerprint",
    "validate_dataset_payload",
    "validate_samples_payload",
]


class DatasetError(ValueError):
    """A dataset request the daemon rejects up front (HTTP 400)."""


def dataset_fingerprint(genes: list, data: np.ndarray, config: dict) -> str:
    """Deterministic dataset id: genes + expression bytes + canonical config.

    Re-registering byte-identical content yields the same id, making
    registration idempotent across clients and daemon restarts.
    """
    h = hashlib.sha256()
    h.update(json.dumps(list(genes)).encode())
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    h.update(json.dumps(dict(config), sort_keys=True).encode())
    return h.hexdigest()[:16]


def _check_streaming_config(config: dict) -> TingeConfig:
    """Validate a dataset config against the streaming path's constraints.

    Runs :meth:`NetworkUpdater.check_streaming_config` so a dataset that
    can never take an incremental update is rejected at registration, not
    at its first sample batch.
    """
    try:
        cfg = TingeConfig(**config)
    except TypeError as exc:
        raise DatasetError(f"bad config field: {exc}") from None
    except ValueError as exc:
        raise DatasetError(f"bad config: {exc}") from None
    try:
        NetworkUpdater.check_streaming_config(cfg, "streaming datasets")
    except ValueError as exc:
        raise DatasetError(str(exc)) from None
    return cfg


def _check_engine(engine) -> str:
    if engine not in ENGINE_KINDS:
        raise DatasetError(
            f"unknown engine {engine!r}; choose from {list(ENGINE_KINDS)}")
    return engine


def _parse_matrix(raw, n_rows: "int | None", what: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise DatasetError(f"{what} must be a numeric matrix") from None
    if arr.ndim == 1 and n_rows is not None:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DatasetError(f"{what} must be 2-D (genes x samples), "
                           f"got shape {arr.shape}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise DatasetError(f"{what} must have {n_rows} rows (one per gene), "
                           f"got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise DatasetError(f"{what} contains NaN/inf; impute first")
    return arr


def validate_dataset_payload(payload: dict):
    """Parse a ``POST /datasets`` body → ``(genes, data, config, engine)``."""
    if not isinstance(payload, dict):
        raise DatasetError("request body must be a JSON object")
    unknown = set(payload) - {"genes", "data", "config", "engine", "tenant",
                              "priority"}
    if unknown:
        raise DatasetError(f"unknown field(s): {sorted(unknown)}")
    genes = payload.get("genes")
    if (not isinstance(genes, list) or len(genes) < 2
            or not all(isinstance(g, str) and g for g in genes)):
        raise DatasetError("'genes' must be a list of >= 2 non-empty names")
    if len(set(genes)) != len(genes):
        raise DatasetError("'genes' contains duplicates")
    if "data" not in payload:
        raise DatasetError("'data' (genes x samples expression matrix) "
                           "is required")
    data = _parse_matrix(payload["data"], len(genes), "'data'")
    config = payload.get("config") or {}
    if not isinstance(config, dict):
        raise DatasetError("'config' must be a JSON object of TingeConfig "
                           "fields")
    cfg = _check_streaming_config(config)
    if data.shape[1] < 2 * cfg.order:
        raise DatasetError(f"need at least {2 * cfg.order} samples for "
                           f"order {cfg.order}, got {data.shape[1]}")
    return genes, data, dict(config), _check_engine(payload.get("engine", "serial"))


def validate_samples_payload(payload: dict, n_genes: int) -> "np.ndarray | None":
    """Parse a ``POST /datasets/<id>/samples`` body → ``(n, dm)`` or None.

    An empty/omitted ``data`` is the *retry* form: stage nothing, just
    enqueue a job that processes whatever is already pending (the resume
    path after an interruption).
    """
    if not isinstance(payload, dict):
        raise DatasetError("request body must be a JSON object")
    unknown = set(payload) - {"data", "engine", "tenant", "priority",
                              "interrupt_after_rows"}
    if unknown:
        raise DatasetError(f"unknown field(s): {sorted(unknown)}")
    if "engine" in payload:
        _check_engine(payload["engine"])
    raw = payload.get("data")
    if raw is None or raw == []:
        return None
    new = _parse_matrix(raw, n_genes, "'data'")
    if new.shape[1] == 0:
        return None
    return new


class DatasetState:
    """One registered dataset: committed data, staged batches, event log.

    Thread contract: ``exec_lock`` serializes job execution per dataset
    (two sample jobs for the same dataset never interleave); the short
    internal mutex guards the quick mutations (staging a batch, reading
    status) so HTTP threads never block behind a running tile replay.
    """

    def __init__(self, dataset_id: str, genes: list, data: np.ndarray,
                 config: dict, engine: str, directory: Path,
                 version: int = 0, events: "list | None" = None,
                 latest_key: "str | None" = None):
        self.dataset_id = dataset_id
        self.genes = list(genes)
        self.data = np.asarray(data, dtype=np.float64)
        self.config = dict(config)
        self.engine = engine
        self.directory = Path(directory)
        self.version = version
        self.events: list = list(events or [])
        self.latest_key = latest_key
        self.pending: list = []  # staged (n, dm) batches, commit on success
        self.updater = None  # NetworkUpdater, built lazily by the runner
        self.exec_lock = threading.Lock()
        self._mutex = threading.Lock()

    # -- staging ---------------------------------------------------------
    def stage(self, batch: np.ndarray) -> int:
        """Append a validated batch to the pending list; returns its depth."""
        with self._mutex:
            self.pending.append(np.array(batch, dtype=np.float64))
            return len(self.pending)

    def pending_columns(self) -> "tuple[np.ndarray, int] | tuple[None, int]":
        """Snapshot of everything staged: ``(columns, batch_count)``.

        The job folds all currently staged batches in as one increment;
        batches posted *while it runs* stay for the next job.
        """
        with self._mutex:
            if not self.pending:
                return None, 0
            return np.concatenate(self.pending, axis=1), len(self.pending)

    def commit(self, grown: np.ndarray, n_batches: int) -> int:
        """Commit a successful increment: swap data, drop the consumed
        batches, bump the version.  Returns the new version."""
        with self._mutex:
            self.data = grown
            del self.pending[:n_batches]
            self.version += 1
            return self.version

    # -- events ----------------------------------------------------------
    def emit(self, kind: str, payload: dict) -> dict:
        """Append one seq-numbered event and persist it to the log."""
        with self._mutex:
            event = {"seq": len(self.events) + 1, "kind": kind,
                     "dataset_id": self.dataset_id, "version": self.version,
                     "time": time.time()}
            event.update(payload)
            self.events.append(event)
            with (self.directory / "events.jsonl").open("a") as fh:
                fh.write(json.dumps(event) + "\n")
            return event

    def events_since(self, since: int = 0) -> list:
        """Events with ``seq > since`` (the subscription cursor)."""
        with self._mutex:
            return [e for e in self.events if e["seq"] > since]

    # -- status ----------------------------------------------------------
    def status(self) -> dict:
        with self._mutex:
            return {
                "dataset_id": self.dataset_id,
                "n_genes": len(self.genes),
                "n_samples": int(self.data.shape[1]),
                "version": self.version,
                "pending_batches": len(self.pending),
                "pending_samples": int(sum(b.shape[1] for b in self.pending)),
                "events": len(self.events),
                "engine": self.engine,
                "latest_cache_key": self.latest_key,
                "ready": self.updater is not None,
            }

    # -- persistence -----------------------------------------------------
    def save(self) -> None:
        """Persist committed state (not the staged batches — see module
        docstring's crash semantics)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.directory / "data.tmp.npy"  # np.save insists on .npy
        np.save(tmp, self.data)
        tmp.replace(self.directory / "data.npy")
        meta = {
            "dataset_id": self.dataset_id,
            "genes": self.genes,
            "config": self.config,
            "engine": self.engine,
            "version": self.version,
            "latest_key": self.latest_key,
        }
        tmp = self.directory / "meta.json.tmp"
        tmp.write_text(json.dumps(meta, sort_keys=True))
        tmp.replace(self.directory / "meta.json")

    @classmethod
    def load(cls, directory: Path) -> "DatasetState":
        meta = json.loads((directory / "meta.json").read_text())
        data = np.load(directory / "data.npy")
        events = []
        log = directory / "events.jsonl"
        if log.exists():
            events = [json.loads(line)
                      for line in log.read_text().splitlines() if line]
        return cls(meta["dataset_id"], meta["genes"], data, meta["config"],
                   meta.get("engine", "serial"), directory,
                   version=meta.get("version", 0), events=events,
                   latest_key=meta.get("latest_key"))


class DatasetRegistry:
    """Thread-safe id → :class:`DatasetState` registry with disk restore.

    On construction, every dataset directory under ``root`` is loaded
    (committed data + event log); their in-memory updaters are rebuilt
    lazily by the first job that touches them — usually straight from the
    result cache, so a daemon restart costs zero tiles.
    """

    def __init__(self, root: "str | Path", max_datasets: int = 64):
        if max_datasets < 1:
            raise ValueError(f"max_datasets must be >= 1, got {max_datasets}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_datasets = max_datasets
        self._lock = threading.Lock()
        self._datasets: dict = {}
        for meta in sorted(self.root.glob("*/meta.json")):
            state = DatasetState.load(meta.parent)
            self._datasets[state.dataset_id] = state

    def register(self, genes: list, data: np.ndarray, config: dict,
                 engine: str) -> "tuple[DatasetState, bool]":
        """Register (or idempotently re-find) a dataset.

        Returns ``(state, created)``; ``created=False`` means the exact
        same content was already registered and no new state was made.
        """
        dataset_id = dataset_fingerprint(genes, data, config)
        with self._lock:
            existing = self._datasets.get(dataset_id)
            if existing is not None:
                return existing, False
            if len(self._datasets) >= self.max_datasets:
                raise DatasetError(
                    f"dataset cap reached ({self.max_datasets}); "
                    "remove one or raise --max-datasets")
            state = DatasetState(dataset_id, genes, data, config, engine,
                                 self.root / dataset_id)
            state.save()
            self._datasets[dataset_id] = state
            return state, True

    def get(self, dataset_id: str) -> "DatasetState | None":
        with self._lock:
            return self._datasets.get(dataset_id)

    def list(self) -> list:
        with self._lock:
            return sorted(self._datasets.values(),
                          key=lambda s: s.dataset_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)
