"""Fault-tolerance policy: how the executor answers a failing task.

The TINGe lineage's whole-genome runs hold a cluster for hours; a single
crashed or hung tile task must not abort 121 million pairs of finished
work.  :class:`FaultPolicy` is the knob set the resilient dispatch layer
in :mod:`repro.core.exec` consumes:

* **retry** — each failed task is retried up to ``max_retries`` times
  with exponential backoff between rounds;
* **timeout** — with a fork-based engine, a task running longer than
  ``task_timeout`` has its worker killed and replaced (in-process
  engines cannot kill a thread, so timeouts are fork-only);
* **quarantine** — a task still failing after the budget is recorded as
  a :class:`QuarantinedTile` on the sink (and, for the checkpoint
  driver, in the ledger) instead of raising — unless ``on_fault`` is
  ``"raise"``, in which case :class:`FaultToleranceExceeded` aborts the
  run after enumerating the poison tiles.

``FaultPolicy.from_options`` maps the config/CLI triple
(``max_retries``, ``task_timeout``, ``on_fault``) to a policy.  The
all-default triple is the executor's default too: one attempt per tile,
and a tile that fails or returns a non-finite block raises
:class:`FaultToleranceExceeded` — never a silent hole in the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ON_FAULT_MODES",
    "FaultPolicy",
    "FaultToleranceExceeded",
    "QuarantinedTile",
    "default_validate",
]

ON_FAULT_MODES = ("retry", "quarantine", "raise")


class FaultToleranceExceeded(RuntimeError):
    """A task exhausted its retry budget under ``on_fault="raise"``."""

    def __init__(self, quarantined):
        self.quarantined = list(quarantined)
        tiles = ", ".join(f"({q.i0},{q.j0})" for q in self.quarantined)
        first = f"; first error: {self.quarantined[0].error}" if self.quarantined else ""
        super().__init__(
            f"{len(self.quarantined)} task(s) exhausted the retry budget: "
            f"{tiles}{first}"
        )


@dataclass(frozen=True)
class QuarantinedTile:
    """One tile task given up on: its grid block plus the last error."""

    index: int
    i0: int
    i1: int
    j0: int
    j1: int
    error: str

    def as_dict(self) -> dict:
        return {"index": self.index, "i0": self.i0, "i1": self.i1,
                "j0": self.j0, "j1": self.j1, "error": self.error}

    @classmethod
    def from_dict(cls, d: dict) -> "QuarantinedTile":
        return cls(index=int(d["index"]), i0=int(d["i0"]), i1=int(d["i1"]),
                   j0=int(d["j0"]), j1=int(d["j1"]), error=str(d["error"]))


def default_validate(tile, block) -> bool:
    """Reject non-array or non-finite blocks (NaN poisoning, bad kernels)."""
    return isinstance(block, np.ndarray) and bool(np.isfinite(block).all())


@dataclass
class FaultPolicy:
    """Retry/timeout/quarantine configuration for resilient dispatch.

    ``validate(tile, block) -> bool`` screens every returned block;
    ``None`` uses :func:`default_validate` (finiteness).  ``on_fault``
    picks what happens when the budget is spent: ``"retry"`` and
    ``"quarantine"`` both quarantine the tile and keep going
    (``"quarantine"`` skips the retries entirely), ``"raise"`` aborts
    with :class:`FaultToleranceExceeded`.
    """

    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    task_timeout: float | None = None
    on_fault: str = "retry"
    validate: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        if self.on_fault not in ON_FAULT_MODES:
            raise ValueError(
                f"on_fault must be one of {ON_FAULT_MODES}, got {self.on_fault!r}")

    def backoff_delay(self, attempt: int) -> float:
        """Sleep before retry round ``attempt`` (1-based): capped exponential."""
        if attempt < 1 or self.backoff <= 0:
            return 0.0
        return min(self.backoff * self.backoff_factor ** (attempt - 1),
                   self.backoff_max)

    def check(self, tile, block) -> bool:
        fn = self.validate if self.validate is not None else default_validate
        return bool(fn(tile, block))

    @classmethod
    def from_options(cls, max_retries: int = 0, task_timeout: float | None = None,
                     on_fault: str = "raise") -> "FaultPolicy":
        """Config/CLI triple → policy.

        The all-default triple means "no tolerance requested": one attempt
        per tile, and the first failing tile aborts the run.
        """
        return cls(max_retries=max_retries, task_timeout=task_timeout,
                   on_fault=on_fault)
