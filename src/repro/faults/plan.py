"""Deterministic fault injection for engine tasks.

At whole-genome scale (the paper's 15,575-gene run holds a 16-node
cluster for hours) individual tile tasks *will* crash, hang, or return
garbage.  Testing the recovery machinery demands faults that are

* **deterministic** — the same seed faults the same tiles in every
  process and on every run, so chaos tests are reproducible;
* **cross-process** — a fault decided in the parent must fire inside a
  forked worker too, without shipping state through pipes;
* **recoverable on schedule** — a task can be made to fail exactly its
  first *k* attempts and then succeed, so retry logic is exercised end
  to end.

:class:`FaultPlan` delivers all three.  Decisions are pure functions of
``(seed, task key)`` via SHA-256 (never the built-in ``hash``, which is
salted per process), so a plan reconstructed from the ``REPRO_FAULTS``
environment variable in a subprocess makes identical calls.  The
*attempt ledger* lives in the parent: fork-based engines create their
worker pools per map call, so children inherit the current ledger by
copy-on-write and a task that already burned its failure budget runs
clean on retry.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "REPRO_FAULTS_ENV",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "plan_from_env",
]

FAULT_KINDS = ("crash", "hang", "corrupt")

#: Environment variable carrying a JSON-encoded plan into subprocesses.
REPRO_FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """Raised by a task whose :class:`FaultPlan` decision is ``crash``."""


@dataclass(frozen=True)
class FaultSpec:
    """The fault a plan assigns to one task key."""

    key: str
    kind: str  # one of FAULT_KINDS


def task_key(item) -> str:
    """Stable, process-independent identity for an engine task item.

    Tile-like objects (anything with ``i0``/``j0``) key on their grid
    position; integers key on their value; everything else keys on a
    digest of ``repr`` so arbitrary items still get *some* stable key.
    """
    i0 = getattr(item, "i0", None)
    j0 = getattr(item, "j0", None)
    if i0 is not None and j0 is not None:
        return f"tile:{i0}:{j0}"
    if isinstance(item, (int, np.integer)):
        return f"item:{int(item)}"
    return "repr:" + hashlib.sha256(repr(item).encode()).hexdigest()[:16]


class FaultPlan:
    """A seeded schedule of task faults plus a parent-side attempt ledger.

    Parameters
    ----------
    seed:
        Fault-selection seed.  Same seed → same faulted keys, in every
        process.
    rate:
        Fraction of task keys that fault, in ``[0, 1]``.
    kinds:
        Subset of :data:`FAULT_KINDS` to draw from.
    max_failures:
        How many *attempts* of a faulted task fail before it runs clean.
        ``None`` means the fault is sticky (never recovers) — the way to
        force quarantine.
    hang_seconds:
        Sleep injected by ``hang`` faults before computing normally.
    engine_failures:
        Number of pooled-engine dispatch calls that raise an engine-level
        failure (exercises the sharedmem → thread → serial fallback
        chain).  Consumed globally, not per key.
    scope:
        ``"tiles"`` (default) faults only tile tasks (the MI or exact
        stage).  ``"all"`` also faults the null builder's per-permutation
        rows: those are retried and fall back like tiles but can never be
        quarantined, so a quarantine-mode chaos run under ``"all"``
        would abort in the null phase.
    """

    def __init__(self, seed: int = 0, rate: float = 0.1,
                 kinds: Sequence[str] = FAULT_KINDS,
                 max_failures: int | None = 1,
                 hang_seconds: float = 0.05,
                 engine_failures: int = 0,
                 scope: str = "tiles"):
        kinds = tuple(kinds)
        if scope not in ("tiles", "all"):
            raise ValueError(f"scope must be 'tiles' or 'all', got {scope!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if not kinds and rate > 0.0:
            raise ValueError("rate > 0 requires at least one fault kind")
        bad = [k for k in kinds if k not in FAULT_KINDS]
        if bad:
            raise ValueError(f"unknown fault kinds {bad}; valid: {FAULT_KINDS}")
        if max_failures is not None and max_failures < 1:
            raise ValueError(f"max_failures must be >= 1 or None, got {max_failures}")
        if hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {hang_seconds}")
        if engine_failures < 0:
            raise ValueError(f"engine_failures must be >= 0, got {engine_failures}")
        self.seed = int(seed)
        self.rate = float(rate)
        self.kinds = kinds
        self.max_failures = max_failures
        self.hang_seconds = float(hang_seconds)
        self.engine_failures = int(engine_failures)
        self.scope = scope
        self._attempts: dict[str, int] = {}
        self._engine_failures_left = self.engine_failures
        self._lock = threading.Lock()

    # -- pickling ------------------------------------------------------
    # The plan crosses process boundaries (spawned elastic workers receive
    # it inside the pickled task function), so the lock — the only
    # unpicklable member — is dropped and recreated.  The attempt ledger
    # *is* carried: a remote worker's ``should_fire`` then honours budgets
    # already burned on the coordinator, mirroring how re-forked children
    # inherit the parent's ledger.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- deterministic decisions -------------------------------------
    def _digest(self, key: str) -> bytes:
        return hashlib.sha256(f"{self.seed}|{key}".encode()).digest()

    def decide(self, key: str) -> FaultSpec | None:
        """The fault (if any) assigned to ``key`` — pure, process-stable."""
        if self.rate <= 0.0 or not self.kinds:
            return None
        if self.scope == "tiles" and not key.startswith("tile:"):
            return None
        d = self._digest(key)
        u = int.from_bytes(d[:8], "big") / 2**64
        if u >= self.rate:
            return None
        return FaultSpec(key=key, kind=self.kinds[d[8] % len(self.kinds)])

    def faulted(self, items: Sequence) -> list[FaultSpec]:
        """The specs this plan assigns across ``items`` (for tests)."""
        specs = (self.decide(task_key(item)) for item in items)
        return [s for s in specs if s is not None]

    # -- attempt ledger (parent side) --------------------------------
    def should_fire(self, key: str) -> FaultSpec | None:
        """Decision for ``key`` honouring the failure budget already spent."""
        spec = self.decide(key)
        if spec is None:
            return None
        if self.max_failures is not None:
            with self._lock:
                if self._attempts.get(key, 0) >= self.max_failures:
                    return None
        return spec

    def record_failure(self, item) -> None:
        """Parent-side: count one failed attempt against ``item``'s budget."""
        key = task_key(item)
        with self._lock:
            self._attempts[key] = self._attempts.get(key, 0) + 1

    def take_engine_failure(self) -> bool:
        """Consume one injected engine-level failure, if any remain."""
        with self._lock:
            if self._engine_failures_left > 0:
                self._engine_failures_left -= 1
                return True
        return False

    # -- task wrappers ------------------------------------------------
    def wrap(self, fn: Callable) -> Callable:
        """``fn(item) -> value`` with this plan's faults injected.

        The wrapper is a picklable object (not a closure), so a wrapped
        task ships to spawned elastic workers whenever ``fn`` itself
        pickles.
        """
        return _FaultyTask(self, fn)

    # -- env round-trip ----------------------------------------------
    def to_env(self) -> str:
        """JSON payload for :data:`REPRO_FAULTS_ENV` (ledger not included)."""
        return json.dumps({
            "seed": self.seed,
            "rate": self.rate,
            "kinds": list(self.kinds),
            "max_failures": self.max_failures,
            "hang_seconds": self.hang_seconds,
            "engine_failures": self.engine_failures,
            "scope": self.scope,
        })

    @classmethod
    def from_env(cls, payload: str) -> "FaultPlan":
        try:
            cfg = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid {REPRO_FAULTS_ENV} payload: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValueError(f"{REPRO_FAULTS_ENV} must be a JSON object, got {cfg!r}")
        return cls(
            seed=cfg.get("seed", 0),
            rate=cfg.get("rate", 0.1),
            kinds=tuple(cfg.get("kinds", FAULT_KINDS)),
            max_failures=cfg.get("max_failures", 1),
            hang_seconds=cfg.get("hang_seconds", 0.05),
            engine_failures=cfg.get("engine_failures", 0),
            scope=cfg.get("scope", "tiles"),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultPlan(seed={self.seed}, rate={self.rate}, kinds={self.kinds}, "
                f"max_failures={self.max_failures})")


class _FaultyTask:
    """Picklable ``fn(item)`` wrapper carrying its plan (see ``wrap``)."""

    def __init__(self, plan: FaultPlan, fn: Callable):
        self.plan = plan
        self.fn = fn

    def __call__(self, item):
        plan, fn = self.plan, self.fn
        spec = plan.should_fire(task_key(item))
        if spec is None:
            return fn(item)
        if spec.kind == "crash":
            raise InjectedFault(f"injected crash for task {spec.key}")
        if spec.kind == "hang":
            time.sleep(plan.hang_seconds)
            return fn(item)
        value = fn(item)  # corrupt: NaN-poison the returned block
        if isinstance(value, np.ndarray):
            bad = np.array(value, dtype=np.float64, copy=True)
            bad.fill(np.nan)
            return bad
        return value


def plan_from_env(environ=None) -> FaultPlan | None:
    """Build a plan from :data:`REPRO_FAULTS_ENV`, or ``None`` if unset."""
    payload = (environ if environ is not None else os.environ).get(REPRO_FAULTS_ENV)
    if not payload:
        return None
    return FaultPlan.from_env(payload)
