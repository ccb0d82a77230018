"""Checkpoint/resume for long all-pairs runs.

A whole-genome MI pass is hours of compute; production runs need to
survive preemption.  The checkpointed driver persists, per block-row of
tiles, the completed MI blocks plus a ledger of which rows are done;
:func:`mi_matrix_checkpointed` resumes from whatever exists, recomputing
nothing.  Correctness is cheap to guarantee because tiles are pure
functions of the (hashed) weight tensor — the ledger stores the hash and
refuses to resume against different data.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from repro.core.exec import (
    MatrixSink,
    TensorSource,
    TilePlan,
    mirror_upper,
    plan_tiles,
    run_tile_plan,
)
from repro.faults.policy import QuarantinedTile

__all__ = [
    "CheckpointSink",
    "DeltaCheckpointSink",
    "mi_matrix_checkpointed",
    "checkpoint_status",
]

_LEDGER = "ledger.json"


def _load_ledger(directory: Path) -> dict:
    path = directory / _LEDGER
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _store_ledger(directory: Path, ledger: dict) -> None:
    tmp = directory / (_LEDGER + ".tmp")
    tmp.write_text(json.dumps(ledger))
    tmp.replace(directory / _LEDGER)  # atomic on POSIX


def checkpoint_status(checkpoint_dir: "str | Path") -> dict:
    """Inspect a checkpoint directory: ``{done_rows, total_rows, tile, ...}``.

    Returns an empty dict for a directory with no checkpoint.  ``tile`` is
    what a resume must plan at (:meth:`TingePipeline.plan
    <repro.core.pipeline.TingePipeline.plan>`'s ``resume_tile``): the sink
    refuses a ledger written at another tile.
    """
    directory = Path(checkpoint_dir)
    ledger = _load_ledger(directory) if directory.exists() else {}
    if not ledger:
        return {}
    return {
        "done_rows": len(ledger.get("done", [])),
        "total_rows": ledger.get("total_rows"),
        "tile": ledger.get("tile"),
        "n_genes": ledger.get("n_genes"),
        "fingerprint": ledger.get("fingerprint"),
        "quarantined": ledger.get("quarantined", []),
    }


class CheckpointSink(MatrixSink):
    """Sink persisting block-rows + a resume ledger on disk.

    The dense result is the sink's :meth:`buffer`, so tiles run through
    the executor's one whole-plan dispatch like any other sink's.  As the
    last tile of a block-row lands (:meth:`tile_done`), the row is
    persisted: one ``row_{i0}.npz`` of its tile blocks plus an atomic
    ledger update, so a preempted run resumes after its committed rows.
    :meth:`pending` skips those rows and orders the rest row by row, so
    rows keep committing while the run goes on.  The ledger stores the
    weight-tensor fingerprint and tile size and refuses to resume
    against different data.

    A quarantined tile lands without a block; the ledger records it
    (key ``"quarantined"``) together with its row.  Unlike the dense sink
    (whose quarantined blocks keep the documented zero fill),
    :meth:`finalize` marks quarantined blocks ``NaN``: the assembled
    matrix claims to be *complete*, so never-computed cells must be
    distinguishable from measured MI=0 non-edges.

    :meth:`finalize` reads from disk only the rows an earlier run
    committed; every block this run computed is already in the buffer.
    """

    def __init__(
        self,
        directory: "str | Path",
        plan: TilePlan,
        fingerprint: str,
        interrupt_after_rows: "int | None" = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n = plan.n_genes
        self.rows = sorted({t.i0 for t in plan.tiles})
        self.interrupt_after_rows = interrupt_after_rows
        ledger = _load_ledger(self.directory)
        if ledger:
            if ledger.get("fingerprint") != fingerprint:
                raise ValueError(
                    f"checkpoint at {self.directory} belongs to different data "
                    f"(fingerprint {ledger.get('fingerprint')!r} != {fingerprint!r})"
                )
            if ledger.get("tile") != plan.tile:
                raise ValueError(
                    f"checkpoint used tile={ledger.get('tile')}, requested {plan.tile}"
                )
        else:
            ledger = {
                "fingerprint": fingerprint,
                "tile": plan.tile,
                "n_genes": plan.n_genes,
                "total_rows": len(self.rows),
                "done": [],
            }
            _store_ledger(self.directory, ledger)
        self.ledger = ledger
        self.done = set(ledger["done"])
        self._resumed = frozenset(self.done)  # rows finalize reads from disk
        self.new_rows = 0
        self._stopped = False  # the interrupt hook fired: commit no more rows
        self._mi = np.zeros((self.n, self.n), dtype=np.float64)
        self._left: Counter = Counter()  # row -> its tiles not landed yet
        self._landed: dict = {}          # row -> its tiles landed with a block
        # Quarantine records survive restarts: a resumed run reports the
        # poison tiles of every previous attempt, not just its own.
        self._quarantined = [QuarantinedTile.from_dict(d)
                             for d in ledger.get("quarantined", [])]

    def quarantine(self, idx: int, t, error: str) -> None:
        """Record the poison tile in the ledger (persisted at row commit)."""
        super().quarantine(idx, t, error)
        self.ledger["quarantined"] = [q.as_dict() for q in self._quarantined]

    def buffer(self) -> np.ndarray:
        return self._mi

    def pending(self, plan: TilePlan, n_workers: int) -> list:
        """Tiles of the rows the ledger lacks: ascending block-rows, each
        row's tiles in the plan's policy order.

        Row-major rather than the whole-grid policy order, so rows commit
        as the run goes (LPT over the grid would finish no row until near
        the end); a row's last tile can still overlap the next row's.
        """
        tiles = plan.tiles
        order = sorted((i for i in plan.order(n_workers)
                        if tiles[i].i0 not in self.done),
                       key=lambda i: tiles[i].i0)
        self._left = Counter(tiles[i].i0 for i in order)
        self._landed = {i0: [] for i0 in self._left}
        return order

    def tile_done(self, t, computed: bool) -> bool:
        """Count ``t`` landed; once its row's last tile is in, persist the
        row's computed blocks (read from the buffer) and commit it to the
        ledger — unless the interrupt hook fired."""
        i0 = t.i0
        if computed:
            self._landed[i0].append(t)
        self._left[i0] -= 1
        if self._left[i0] or self._stopped:
            return False
        np.savez(self.directory / f"row_{i0:07d}.npz",
                 **{f"j{u.j0}": self._mi[u.i0 : u.i1, u.j0 : u.j1]
                    for u in sorted(self._landed.pop(i0), key=lambda u: u.j0)})
        self.done.add(i0)
        self.ledger["done"] = sorted(self.done)
        _store_ledger(self.directory, self.ledger)
        self.new_rows += 1
        self._stopped = (self.interrupt_after_rows is not None
                        and self.new_rows >= self.interrupt_after_rows
                        and len(self.done) < len(self.rows))
        return True

    def finalize(self) -> "np.ndarray | None":
        """The full symmetric matrix, or ``None`` if the interrupt hook
        stopped the run before every row was committed."""
        if self._stopped:
            return None
        mi = self._mi
        # Rows committed by an earlier run come from their row files.
        for i0 in sorted(self._resumed):
            with np.load(self.directory / f"row_{i0:07d}.npz") as z:
                for key in z.files:
                    block = z[key]
                    j0 = int(key[1:])
                    mi[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block
        # Quarantined tiles were never computed: their cells are *unknown*,
        # not MI=0.  Leaving them at the zero fill would let poison tiles
        # masquerade as confidently-tested non-edges, so mark them NaN
        # (NaN > threshold is False, so they still can't become edges, but
        # downstream consumers can tell "absent" from "measured zero").
        for q in self._quarantined or []:
            mi[q.i0 : q.i1, q.j0 : q.j1] = np.nan
        mirror_upper(mi)
        np.fill_diagonal(mi, 0.0)
        return mi


class DeltaCheckpointSink(CheckpointSink):
    """Checkpointed *selective* recompute: dirty tiles patched into a base.

    The incremental updater's persistence layer.  The plan passed in is a
    :func:`~repro.core.exec.filter_plan` sub-plan holding only the dirty
    tiles of a sample-increment update; every completed block-row lands in
    the same ``row_{i0}.npz`` + ledger format as a full checkpointed run,
    plus a ``"delta"`` ledger section recording the dirty-tile set and the
    grown sample count.  An interrupted update therefore resumes exactly
    like a full run does — :meth:`pending` drops already-committed rows, so
    a resume replays only the *still-dirty* tiles — and the fingerprint
    check refuses to resume against a different grown tensor (e.g. a
    second batch of samples arriving before the first finished).

    The dense result starts from a copy of the symmetric ``base`` MI
    matrix (the pre-update network's) instead of zeros: clean tiles keep
    their base blocks, dirty tiles are overwritten with the recomputed
    ones, and quarantined tiles are NaN-marked exactly like the parent
    sink.
    """

    def __init__(
        self,
        directory: "str | Path",
        plan: TilePlan,
        fingerprint: str,
        base: np.ndarray,
        m_samples: "int | None" = None,
        interrupt_after_rows: "int | None" = None,
    ):
        base = np.asarray(base, dtype=np.float64)
        if base.shape != (plan.n_genes, plan.n_genes):
            raise ValueError(
                f"base matrix shape {base.shape} does not match "
                f"{plan.n_genes} genes"
            )
        super().__init__(directory, plan, fingerprint,
                         interrupt_after_rows=interrupt_after_rows)
        self._mi = np.array(base, dtype=np.float64)
        delta = {
            "kind": "sample-increment",
            "m_samples": m_samples,
            "dirty_tiles": [[t.i0, t.j0] for t in plan.tiles],
        }
        recorded = self.ledger.get("delta")
        if recorded is None:
            self.ledger["delta"] = delta
            _store_ledger(self.directory, self.ledger)
        elif recorded.get("dirty_tiles") != delta["dirty_tiles"]:
            # Same weight fingerprint implies the same screen output; a
            # mismatch means the caller rebuilt the dirty set against
            # different thresholds/config, and resuming would leave some
            # of its tiles stale.
            raise ValueError(
                f"checkpoint at {self.directory} records a different "
                "dirty-tile set; remove it or rebuild the same update"
            )


def mi_matrix_checkpointed(
    weights: np.ndarray,
    checkpoint_dir: "str | Path",
    tile: "int | None" = None,
    base: str = "nat",
    interrupt_after_rows: "int | None" = None,
    engine=None,
    progress=None,
    tracer=None,
    schedule=None,
    policy=None,
) -> "np.ndarray | None":
    """All-pairs MI with block-row-granular checkpointing.

    Runs the tile grid row by row as one dispatch; as each block-row's
    last tile lands, the row's blocks are saved and the ledger updated
    atomically.  Re-invoking with the same directory resumes after the
    committed rows.

    Parameters
    ----------
    weights:
        ``(n, m, b)`` weight tensor (must be identical across invocations —
        enforced by fingerprint).
    checkpoint_dir:
        Directory for row files + ledger (created if missing).
    interrupt_after_rows:
        Testing hook simulating preemption mid-run: commit this many *new*
        rows, then no more, and return ``None``.
    engine:
        Optional execution engine (:mod:`repro.parallel.engine`) running
        the pending tiles as one supervised dispatch whose returned blocks
        land in the dense result, like :func:`repro.core.mi_matrix.mi_matrix`'s.
        Checkpoint granularity (and the on-disk format) is independent of
        the engine.
    progress:
        Optional ``progress(done_tiles, total_tiles)`` callback, fired as
        each tile lands (tiles of resumed rows count as done, so a resume
        starts partway along rather than from zero).
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`; ticks the
        ``tiles_done`` / ``pairs_done`` counters per tile and
        ``rows_done`` per committed block-row.
    schedule:
        Optional tile-order policy (see :data:`repro.core.exec.SCHEDULE_NAMES`);
        ordering applies within each block-row, checkpoint granularity is
        unchanged.
    policy:
        Optional :class:`repro.faults.policy.FaultPolicy`.  Failed tile
        tasks are retried; tasks that exhaust the budget are quarantined
        *into the ledger* (key ``"quarantined"``) so a resumed run knows
        which blocks are poison instead of aborting the whole pass.

    Returns
    -------
    numpy.ndarray or None
        The full symmetric MI matrix, or ``None`` if interrupted.
    """
    source = TensorSource(weights)
    plan = plan_tiles(source, tile=tile, base=base, schedule=schedule)
    sink = CheckpointSink(
        checkpoint_dir,
        plan,
        source.fingerprint(),
        interrupt_after_rows=interrupt_after_rows,
    )
    return run_tile_plan(
        plan,
        source,
        sink,
        engine=engine,
        tracer=tracer,
        progress=progress,
        policy=policy,
    )
