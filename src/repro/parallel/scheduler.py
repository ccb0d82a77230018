"""Scheduling policies for tile workloads.

A *policy* answers one question: given ``n_items`` tasks and ``n_workers``
workers, in what order does each worker receive work?  Policies are shared
between two executors:

* the **real engines** (:mod:`repro.parallel.engine`) use them to order
  actual tile computations, and
* the **machine simulator** (:mod:`repro.machine.simulator`) replays them
  against modelled per-tile costs to predict makespan on hardware this host
  doesn't have (the Phi's 240 threads).

The simulation entry point is :meth:`SchedulerPolicy.simulate`: an
event-driven replay where, at every step, the earliest-finishing worker
picks up its next task according to the policy.  Static policies fix the
assignment up front; dynamic policies decide at pop time, which is exactly
how they beat static ones on irregular tile costs (experiment E11).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.partition import (
    block_partition,
    chunked_partition,
    cost_balanced_partition,
    cyclic_partition,
    imbalance,
)

__all__ = [
    "Assignment",
    "SchedulerPolicy",
    "StaticScheduler",
    "CyclicScheduler",
    "DynamicScheduler",
    "GuidedScheduler",
    "LptScheduler",
    "make_scheduler",
]


@dataclass
class Assignment:
    """Outcome of simulating a schedule.

    Attributes
    ----------
    makespan:
        Time at which the last worker finishes.
    worker_loads:
        Busy time per worker.
    worker_items:
        Item indices executed by each worker, in execution order.
    start_times, finish_times:
        Per-item schedule (same indexing as the cost vector).
    """

    makespan: float
    worker_loads: np.ndarray
    worker_items: list[list[int]]
    start_times: np.ndarray
    finish_times: np.ndarray

    @property
    def imbalance(self) -> float:
        """``max/mean - 1`` of worker busy time."""
        return imbalance(self.worker_loads)

    @property
    def utilization(self) -> float:
        """Mean busy fraction of workers over the makespan."""
        if self.makespan <= 0:
            return 1.0
        return float(self.worker_loads.mean() / self.makespan)


class SchedulerPolicy:
    """Base class: a policy yields per-worker work orders.

    Subclasses implement either :meth:`static_assignment` (fixed up front)
    or :meth:`next_chunk` (pull-based).  :meth:`simulate` drives both
    through the same event loop.
    """

    name: str = "base"

    def is_dynamic(self) -> bool:
        return False

    def static_assignment(self, n_items: int, n_workers: int, costs=None) -> list[np.ndarray]:
        raise NotImplementedError

    def chunk_sequence(self, n_items: int, n_workers: int) -> list[np.ndarray]:
        """For dynamic policies: the global ordered list of chunks workers
        pull from."""
        raise NotImplementedError

    def order(self, n_items: int, n_workers: int, costs=None) -> list[int]:
        """Item indices in dispatch order for ``n_workers`` workers.

        Dynamic policies concatenate their chunk sequence (the pull
        order); static policies concatenate their per-worker assignments,
        with ``costs`` feeding the cost-model (LPT) policy.
        """
        if self.is_dynamic():
            chunks = self.chunk_sequence(n_items, n_workers)
        else:
            chunks = self.static_assignment(n_items, n_workers, costs=costs)
        return [int(i) for chunk in chunks for i in chunk]

    def simulate(self, costs: np.ndarray, n_workers: int) -> Assignment:
        """Event-driven replay of this policy against known task costs.

        Workers are a min-heap keyed by their next-free time; tasks are
        dispatched in policy order.  Dispatch overhead is not modelled here
        (the machine simulator adds it, since it is hardware-dependent).
        """
        costs = np.asarray(costs, dtype=np.float64)
        if costs.ndim != 1:
            raise ValueError(f"expected 1-D costs, got shape {costs.shape}")
        if np.any(costs < 0):
            raise ValueError("costs must be non-negative")
        n_items = costs.size
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        start = np.zeros(n_items, dtype=np.float64)
        finish = np.zeros(n_items, dtype=np.float64)
        loads = np.zeros(n_workers, dtype=np.float64)
        items: list[list[int]] = [[] for _ in range(n_workers)]

        if not self.is_dynamic():
            per_worker = self.static_assignment(n_items, n_workers, costs=costs)
            if len(per_worker) != n_workers:
                raise ValueError("policy returned wrong worker count")
            t_end = 0.0
            for w, order in enumerate(per_worker):
                t = 0.0
                for item in order:
                    item = int(item)
                    start[item] = t
                    t += costs[item]
                    finish[item] = t
                    items[w].append(item)
                loads[w] = t
                t_end = max(t_end, t)
            return Assignment(t_end, loads, items, start, finish)

        # Dynamic: workers pull the next chunk when free.
        chunks = self.chunk_sequence(n_items, n_workers)
        heap = [(0.0, w) for w in range(n_workers)]
        heapq.heapify(heap)
        for chunk in chunks:
            t_free, w = heapq.heappop(heap)
            t = t_free
            for item in chunk:
                item = int(item)
                start[item] = t
                t += costs[item]
                finish[item] = t
                items[w].append(item)
            loads[w] += t - t_free
            heapq.heappush(heap, (t, w))
        makespan = max(t for t, _ in heap) if n_items else 0.0
        return Assignment(makespan, loads, items, start, finish)


@dataclass
class StaticScheduler(SchedulerPolicy):
    """OpenMP ``schedule(static)``: one contiguous block per worker."""

    name: str = field(default="static", init=False)

    def static_assignment(self, n_items, n_workers, costs=None):
        return block_partition(n_items, n_workers)


@dataclass
class CyclicScheduler(SchedulerPolicy):
    """OpenMP ``schedule(static, 1)``: round-robin striping."""

    name: str = field(default="cyclic", init=False)

    def static_assignment(self, n_items, n_workers, costs=None):
        return cyclic_partition(n_items, n_workers)


@dataclass
class LptScheduler(SchedulerPolicy):
    """Cost-oracle static schedule (greedy LPT) — the upper bound static
    scheduling could reach if tile costs were known exactly in advance."""

    name: str = field(default="lpt", init=False)

    def static_assignment(self, n_items, n_workers, costs=None):
        if costs is None:
            raise ValueError("LPT scheduling requires task costs")
        return cost_balanced_partition(costs, n_workers)


@dataclass
class DynamicScheduler(SchedulerPolicy):
    """OpenMP ``schedule(dynamic, chunk)``: idle workers pull fixed chunks.

    The paper's choice for the tile loop.  ``chunk=1`` balances best;
    larger chunks amortize the shared-counter contention the machine
    simulator charges per pull.
    """

    chunk: int = 1

    name: str = field(default="dynamic", init=False)

    def __post_init__(self):
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")

    def is_dynamic(self) -> bool:
        return True

    def chunk_sequence(self, n_items, n_workers):
        return chunked_partition(n_items, self.chunk)


@dataclass
class GuidedScheduler(SchedulerPolicy):
    """OpenMP ``schedule(guided)``: exponentially shrinking chunks.

    Chunk ``i`` is ``max(remaining / n_workers, min_chunk)`` — large chunks
    early (low overhead) and small chunks at the end (balance).
    """

    min_chunk: int = 1

    name: str = field(default="guided", init=False)

    def __post_init__(self):
        if self.min_chunk < 1:
            raise ValueError(f"min_chunk must be >= 1, got {self.min_chunk}")

    def is_dynamic(self) -> bool:
        return True

    def chunk_sequence(self, n_items, n_workers):
        chunks = []
        pos = 0
        remaining = n_items
        while remaining > 0:
            size = max(remaining // max(n_workers, 1), self.min_chunk)
            size = min(size, remaining)
            chunks.append(np.arange(pos, pos + size, dtype=np.intp))
            pos += size
            remaining -= size
        return chunks


@dataclass
class WorkStealingScheduler(SchedulerPolicy):
    """Distributed work queues with stealing (Cilk-style, simplified).

    Each worker starts with a contiguous block of the items (cheap, local,
    no shared counter).  A worker that drains its own deque steals *half
    the remaining items* from the currently most-loaded victim, paying
    ``steal_cost`` per steal.  Combines static scheduling's zero common-case
    overhead with dynamic scheduling's load balance — the alternative
    design the paper's discussion of dynamic-scheduler contention points
    toward.

    Implemented via a dedicated event-driven ``simulate`` (the pull
    behaviour cannot be expressed as a fixed chunk sequence).
    """

    steal_cost: float = 0.0

    name: str = field(default="work-stealing", init=False)

    def __post_init__(self):
        if self.steal_cost < 0:
            raise ValueError("steal_cost must be >= 0")

    def is_dynamic(self) -> bool:  # it *behaves* dynamically...
        return True

    def chunk_sequence(self, n_items, n_workers):  # pragma: no cover
        raise NotImplementedError("work stealing does not use a chunk sequence")

    def simulate(self, costs: np.ndarray, n_workers: int) -> Assignment:
        costs = np.asarray(costs, dtype=np.float64)
        if costs.ndim != 1:
            raise ValueError(f"expected 1-D costs, got shape {costs.shape}")
        if np.any(costs < 0):
            raise ValueError("costs must be non-negative")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        n_items = costs.size
        start = np.zeros(n_items, dtype=np.float64)
        finish = np.zeros(n_items, dtype=np.float64)
        loads = np.zeros(n_workers, dtype=np.float64)
        items: list[list[int]] = [[] for _ in range(n_workers)]
        from repro.parallel.partition import block_partition

        deques: list[list[int]] = [list(part) for part in block_partition(n_items, n_workers)]
        clock = np.zeros(n_workers, dtype=np.float64)
        # Event loop: repeatedly advance the earliest-clock worker.
        heap = [(0.0, w) for w in range(n_workers)]
        heapq.heapify(heap)
        remaining = n_items
        while remaining > 0:
            t_now, w = heapq.heappop(heap)
            if not deques[w]:
                # Steal half (at least one) from the victim with most work.
                victim = max(range(n_workers), key=lambda v: len(deques[v]))
                if not deques[victim]:
                    # Nothing anywhere to steal; re-queue after others move.
                    # (Cannot happen while remaining > 0 and all deques
                    # empty, because items leave deques only when executed.)
                    continue
                take = max(len(deques[victim]) // 2, 1)
                # Steal from the tail (victim works from the head).
                deques[w] = deques[victim][-take:]
                del deques[victim][-take:]
                t_now += self.steal_cost
            item = deques[w].pop(0)
            start[item] = t_now
            t_end = t_now + costs[item]
            finish[item] = t_end
            loads[w] += costs[item]
            items[w].append(item)
            remaining -= 1
            heapq.heappush(heap, (t_end, w))
        makespan = float(finish.max()) if n_items else 0.0
        return Assignment(makespan, loads, items, start, finish)


_POLICIES = {
    "static": StaticScheduler,
    "cyclic": CyclicScheduler,
    "dynamic": DynamicScheduler,
    "guided": GuidedScheduler,
    "lpt": LptScheduler,
    "work-stealing": WorkStealingScheduler,
}


def make_scheduler(name: str, **kwargs) -> SchedulerPolicy:
    """Factory by policy name (``static``, ``cyclic``, ``dynamic``,
    ``guided``, ``lpt``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; choose from {sorted(_POLICIES)}") from None
    return cls(**kwargs)
