"""Task graph: a TilePlan compiled into schedulable tile tasks.

The elastic backend's middle layer.  :func:`compile_plan` turns a
:class:`~repro.core.exec.TilePlan` (or any ordered item list) into a
:class:`TaskGraph` of :class:`TileTask` records carrying *locality
hints*: which block-row shards of the weight store each tile reads
(``[i0, i1)`` and ``[j0, j1)`` of the ``(n, m, b)`` tensor).  The
coordinator uses the hints for pull-based assignment — a worker that
already holds a tile's shards is preferred — which is what makes a
sharded weight store practical: shards travel once, tiles follow them.

The graph itself is pure bookkeeping, independently testable without
sockets or processes: tasks move ``pending → running → done``, a lost
worker's running tasks return to ``pending`` (the PR 4 rank-loss
recovery generalized to arbitrary membership), and because every task
knows its original plan index, results are committed positionally and
the output is bit-identical regardless of which worker computed what or
how many times membership changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TaskGraph", "TileTask", "compile_items", "compile_plan", "tile_shards"]

PENDING = "pending"
RUNNING = "running"
DONE = "done"


def tile_shards(tile, shard: int) -> "tuple[int, ...]":
    """Shard indices (block-rows of the weight tensor) that ``tile`` reads.

    The weight store is sharded by gene block-row of size ``shard``; a
    tile over rows ``[i0, i1)`` × cols ``[j0, j1)`` reads every shard
    overlapping either range.  Diagonal tiles read one shard when the
    tile grid aligns with the shard grid — the locality win the
    coordinator's placement chases.
    """
    shards = set()
    for lo, hi in ((tile.i0, tile.i1), (tile.j0, tile.j1)):
        shards.update(range(lo // shard, (hi - 1) // shard + 1))
    return tuple(sorted(shards))


@dataclass
class TileTask:
    """One schedulable unit: a tile (or item) plus its locality hints."""

    index: int                      # position in the plan's dispatch order
    item: object                    # what the worker's task fn receives
    shards: "tuple[int, ...]" = ()  # weight-store shards the task reads
    state: str = PENDING
    owner: "str | None" = None
    attempts: int = 0


@dataclass
class TaskGraph:
    """Dispatch bookkeeping for one batch of tasks.

    Assignment is pull-based: an idle worker asks :meth:`next_for`, which
    scans a bounded window of the pending queue for a task whose shards
    the worker already caches and otherwise takes the head — so locality
    is a preference that can never starve the schedule order the plan's
    policy chose (cost-ordered dispatch survives sharding).
    """

    tasks: list
    _pending: list = field(init=False, repr=False)
    _running: dict = field(init=False, repr=False)  # index -> TileTask
    #: How far into the pending queue locality may reach.  Small enough
    #: that LPT ordering stays basically intact, large enough to catch
    #: the same-block-row tiles that share shards.
    locality_window: int = 32
    locality_hits: int = field(default=0, init=False)
    reassigned: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._pending = [t for t in self.tasks if t.state == PENDING]
        self._running = {}

    # -- queries ---------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_done(self) -> int:
        return sum(1 for t in self.tasks if t.state == DONE)

    def done(self) -> bool:
        return all(t.state == DONE for t in self.tasks)

    def idle(self) -> bool:
        """No pending work to hand out (everything running or done)."""
        return not self._pending

    def owners(self) -> dict:
        """Completed-task counts per owner (who computed what)."""
        counts: dict = {}
        for t in self.tasks:
            if t.state == DONE and t.owner is not None:
                counts[t.owner] = counts.get(t.owner, 0) + 1
        return counts

    # -- assignment ------------------------------------------------------
    def next_for(self, worker: str, cached_shards=()) -> "TileTask | None":
        """Assign the next task to ``worker``; ``None`` if nothing pending.

        Prefers, within :attr:`locality_window` of the queue head, a task
        whose every shard is already in ``cached_shards``; falls back to
        the head of the queue (the plan's schedule order).
        """
        if not self._pending:
            return None
        pick = 0
        if cached_shards:
            cached = set(cached_shards)
            window = self._pending[: self.locality_window]
            for pos, task in enumerate(window):
                if task.shards and cached.issuperset(task.shards):
                    pick = pos
                    if pos > 0:
                        self.locality_hits += 1
                    break
        task = self._pending.pop(pick)
        task.state = RUNNING
        task.owner = worker
        task.attempts += 1
        self._running[task.index] = task
        return task

    def complete(self, index: int) -> TileTask:
        """Mark the task at plan position ``index`` done."""
        task = self._running.pop(index, None)
        if task is None:
            task = self.tasks_by_index()[index]
            if task.state == DONE:  # duplicate result after reassignment
                return task
            raise KeyError(f"task {index} is not running (state={task.state})")
        task.state = DONE
        return task

    def release_worker(self, worker: str) -> list:
        """Return a lost worker's in-flight tasks to the pending queue.

        Requeued at the *front* (they were scheduled earliest for a
        reason — under cost ordering they are the heaviest remaining).
        Returns the released tasks.
        """
        released = [t for t in self._running.values() if t.owner == worker]
        for t in released:
            del self._running[t.index]
            t.state = PENDING
            t.owner = None
        if released:
            self._pending[:0] = sorted(released, key=lambda t: t.index)
            self.reassigned += len(released)
        return released

    def tasks_by_index(self) -> dict:
        return {t.index: t for t in self.tasks}


def compile_plan(plan, order=None, shard: "int | None" = None) -> TaskGraph:
    """Compile a :class:`~repro.core.exec.TilePlan` into a :class:`TaskGraph`.

    ``order`` is the dispatch order (defaults to ``plan.order()`` — the
    plan's scheduling policy); ``shard`` is the weight-store shard size in
    gene rows (defaults to the plan's tile size, aligning the shard grid
    with the tile grid so diagonal tiles hit one shard).

    Task items are the tile indices themselves — the same integers the
    in-process executor maps over — so the worker-side task function is
    shared between local and elastic execution.
    """
    if shard is None:
        shard = plan.tile
    if order is None:
        order = plan.order()
    tasks = [
        TileTask(index=pos, item=int(ti),
                 shards=tile_shards(plan.tiles[ti], shard))
        for pos, ti in enumerate(order)
    ]
    return TaskGraph(tasks=tasks)


def compile_items(items) -> TaskGraph:
    """Compile a plain item list (no locality hints) into a graph."""
    return TaskGraph(tasks=[TileTask(index=i, item=it)
                            for i, it in enumerate(items)])
