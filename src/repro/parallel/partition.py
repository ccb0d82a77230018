"""Partitioning tile workloads across workers.

The paper's thread-level story is about *how* the ~n²/(2·T²) tiles are
divided among hardware threads: a static block split is cheapest but
inherits the diagonal tiles' irregular cost; cyclic striping smooths the
systematic skew; dynamic chunking fixes the residual imbalance at the cost
of a shared counter.  These pure functions compute assignments; the
policies in :mod:`repro.parallel.scheduler` add the runtime behaviour, and
the machine simulator replays them against modelled tile costs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_partition",
    "cyclic_partition",
    "chunked_partition",
    "cost_balanced_partition",
    "imbalance",
]


def _check(n_items: int, n_workers: int) -> None:
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")


def block_partition(n_items: int, n_workers: int) -> list[np.ndarray]:
    """Contiguous static split: worker ``w`` gets one consecutive range.

    Sizes differ by at most one item.  This is OpenMP ``schedule(static)``.
    """
    _check(n_items, n_workers)
    bounds = np.linspace(0, n_items, n_workers + 1).astype(np.intp)
    return [np.arange(bounds[w], bounds[w + 1], dtype=np.intp) for w in range(n_workers)]


def cyclic_partition(n_items: int, n_workers: int) -> list[np.ndarray]:
    """Round-robin split: worker ``w`` gets items ``w, w+P, w+2P, ...``.

    OpenMP ``schedule(static, 1)`` — spreads any cost trend that is smooth
    in the item index (e.g. the shrinking block-rows of the triangular tile
    grid) evenly over workers.
    """
    _check(n_items, n_workers)
    return [np.arange(w, n_items, n_workers, dtype=np.intp) for w in range(n_workers)]


def chunked_partition(n_items: int, chunk: int) -> list[np.ndarray]:
    """Split items into consecutive chunks of ``chunk`` (the dynamic chunk size).

    The dynamic scheduler hands these chunks to whichever worker is idle;
    smaller chunks balance better but touch the shared counter more often —
    the tradeoff experiment E11 sweeps.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    _check(n_items, 1)
    return [
        np.arange(s, min(s + chunk, n_items), dtype=np.intp)
        for s in range(0, n_items, chunk)
    ]


def cost_balanced_partition(costs: np.ndarray, n_workers: int) -> list[np.ndarray]:
    """Greedy LPT (longest-processing-time) assignment by known costs.

    Sorts items by descending cost and assigns each to the currently
    least-loaded worker — the classic 4/3-approximation to makespan.  This
    is the "oracle" static schedule the dynamic scheduler is compared to:
    dynamic scheduling approaches it without knowing costs in advance.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ValueError(f"expected 1-D costs, got shape {costs.shape}")
    if np.any(costs < 0):
        raise ValueError("costs must be non-negative")
    _check(costs.size, n_workers)
    order = np.argsort(costs, kind="stable")[::-1]
    loads = np.zeros(n_workers, dtype=np.float64)
    assign: list[list[int]] = [[] for _ in range(n_workers)]
    for item in order:
        w = int(np.argmin(loads))
        assign[w].append(int(item))
        loads[w] += costs[item]
    return [np.asarray(a, dtype=np.intp) for a in assign]


def imbalance(loads: np.ndarray) -> float:
    """Load imbalance ``max/mean - 1`` (0 = perfect balance).

    The figure-of-merit the paper reports for its scheduler comparison:
    makespan is proportional to the max load, so imbalance is directly the
    fraction of runtime lost to idle workers.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("no worker loads")
    mean = loads.mean()
    if mean == 0:
        return 0.0
    return float(loads.max() / mean - 1.0)
