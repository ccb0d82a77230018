"""Worker-level metrics: what each engine worker did during a map call.

The parallel engines (:mod:`repro.parallel.engine`) time every task they
run and aggregate the timings per worker — thread, forked process, or the
calling thread itself — into a :class:`MapStats` attached to the engine
after each ``map_supervised`` call and, when the engine carries a tracer,
reported as span metadata.  These are the signals behind the paper's
load-balance analysis: per-worker task counts and busy fractions show
whether the dynamic tile schedule kept all hardware threads fed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WorkerStats", "MapStats", "merge_worker_stats"]


@dataclass
class WorkerStats:
    """One worker's contribution to one map call."""

    worker: str
    tasks: int = 0
    busy_seconds: float = 0.0

    def busy_fraction(self, wall_seconds: float) -> float:
        """Fraction of the call's wall time this worker spent computing."""
        if wall_seconds <= 0:
            return 0.0
        return self.busy_seconds / wall_seconds


@dataclass
class MapStats:
    """Aggregate of one engine ``map_supervised`` call.

    ``workers`` holds one entry per worker that executed at least one task,
    named ``w0..wk`` in a stable order (threads by first use, processes by
    pid order).  ``busy_seconds`` sums the per-task compute time, so
    ``busy_seconds / (wall_seconds * n_workers)`` is the call's utilization.
    """

    n_tasks: int
    wall_seconds: float
    workers: list = field(default_factory=list)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def busy_seconds(self) -> float:
        return float(sum(w.busy_seconds for w in self.workers))

    @property
    def utilization(self) -> float:
        """Mean busy fraction across workers (1.0 = perfectly fed)."""
        if not self.workers or self.wall_seconds <= 0:
            return 0.0
        return self.busy_seconds / (self.wall_seconds * len(self.workers))

    def task_counts(self) -> dict:
        """``{worker: tasks}`` — the load-balance view."""
        return {w.worker: w.tasks for w in self.workers}

    def as_metadata(self) -> dict:
        """JSON-friendly summary for span metadata / exports."""
        return {
            "n_tasks": self.n_tasks,
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization,
            "worker_tasks": self.task_counts(),
            "worker_busy_seconds": {w.worker: w.busy_seconds for w in self.workers},
        }


def merge_worker_stats(raw: dict) -> list:
    """Normalize ``{key: (tasks, busy_seconds)}`` into ordered WorkerStats.

    Keys may be thread idents, pids, or names; workers are renamed
    ``w0..wk`` in sorted-key order so outputs are stable run to run.
    """
    stats = []
    for rank, key in enumerate(sorted(raw, key=str)):
        tasks, busy = raw[key]
        stats.append(WorkerStats(worker=f"w{rank}", tasks=int(tasks), busy_seconds=float(busy)))
    return stats
