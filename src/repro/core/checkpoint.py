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
from pathlib import Path

import numpy as np

from repro.core.exec import (
    MatrixSink,
    TensorSource,
    TilePlan,
    mirror_upper,
    plan_tiles,
    run_tile_plan,
    weights_fingerprint,
)
from repro.faults.policy import QuarantinedTile

__all__ = [
    "CheckpointSink",
    "DeltaCheckpointSink",
    "mi_matrix_checkpointed",
    "checkpoint_status",
]

_LEDGER = "ledger.json"

# Backwards-compatible alias: the fingerprint moved to repro.core.exec so
# the out-of-core store header can share it.
_weights_fingerprint = weights_fingerprint


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
    """Inspect a checkpoint directory: ``{done_rows, total_rows, ...}``.

    Returns an empty dict for a directory with no checkpoint.
    """
    directory = Path(checkpoint_dir)
    ledger = _load_ledger(directory) if directory.exists() else {}
    if not ledger:
        return {}
    return {
        "done_rows": len(ledger.get("done", [])),
        "total_rows": ledger.get("total_rows"),
        "n_genes": ledger.get("n_genes"),
        "fingerprint": ledger.get("fingerprint"),
        "quarantined": ledger.get("quarantined", []),
    }


class CheckpointSink(MatrixSink):
    """Row-grain sink persisting block-rows + a resume ledger on disk.

    Each committed row is one ``row_{i0}.npz`` of its tile blocks plus an
    atomic ledger update, so a preempted run resumes after the last
    complete row.  The ledger stores the weight-tensor fingerprint and
    tile size and refuses to resume against different data.

    Unlike the dense sink (whose quarantined blocks keep the documented
    zero fill), :meth:`finalize` marks quarantined blocks ``NaN``: the
    assembled matrix claims to be *complete*, so never-computed cells must
    be distinguishable from measured MI=0 non-edges.  The quarantine
    records themselves are in the ledger (:func:`checkpoint_status`) and
    on :attr:`~repro.core.exec.MatrixSink.quarantined`.
    """

    grain = "rows"
    span_name = None  # historical contract: only per-row spans
    row_span_name = "checkpoint_row"
    progress_units = "rows"

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
        self.rows = plan.rows
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
                "total_rows": len(plan.rows),
                "done": [],
            }
            _store_ledger(self.directory, ledger)
        self.ledger = ledger
        self.done = set(ledger["done"])
        self.new_rows = 0
        # Quarantine records survive restarts: a resumed run reports the
        # poison tiles of every previous attempt, not just its own.
        self._quarantined = [QuarantinedTile.from_dict(d)
                             for d in ledger.get("quarantined", [])]

    def quarantine(self, idx: int, t, error: str) -> None:
        """Record the poison tile in the ledger (persisted at row commit)."""
        super().quarantine(idx, t, error)
        self.ledger["quarantined"] = [q.as_dict() for q in self._quarantined]

    def skip_row(self, i0: int) -> bool:
        return i0 in self.done

    def store_row(self, i0: int, items: list) -> None:
        np.savez(self.directory / f"row_{i0:07d}.npz",
                 **{f"j{t.j0}": block for t, block in items})

    def commit_row(self, i0: int) -> bool:
        self.done.add(i0)
        self.ledger["done"] = sorted(self.done)
        _store_ledger(self.directory, self.ledger)
        self.new_rows += 1
        if (
            self.interrupt_after_rows is not None
            and self.new_rows >= self.interrupt_after_rows
            and len(self.done) < len(self.rows)
        ):
            return False
        return True

    def finalize(self, completed: bool = True) -> "np.ndarray | None":
        if not completed:
            return None
        # Assemble from the row files.
        mi = np.zeros((self.n, self.n), dtype=np.float64)
        for i0 in self.rows:
            with np.load(self.directory / f"row_{i0:07d}.npz") as z:
                for key in z.files:
                    j0 = int(key[1:])
                    block = z[key]
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
    like a full run does — ``skip_row`` drops already-committed rows, so a
    resume replays only the *still-dirty* tiles — and the fingerprint
    check refuses to resume against a different grown tensor (e.g. a
    second batch of samples arriving before the first finished).

    :meth:`finalize` starts from the symmetric ``base`` MI matrix (the
    pre-update network's) instead of zeros: clean tiles keep their base
    blocks, dirty tiles are overwritten with the recomputed ones, and
    quarantined tiles are NaN-marked exactly like the parent sink.
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
        self._base = base
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

    def finalize(self, completed: bool = True) -> "np.ndarray | None":
        if not completed:
            return None
        mi = np.array(self._base, dtype=np.float64)
        for i0 in self.rows:
            with np.load(self.directory / f"row_{i0:07d}.npz") as z:
                for key in z.files:
                    j0 = int(key[1:])
                    block = z[key]
                    mi[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block
        for q in self._quarantined or []:
            mi[q.i0 : q.i1, q.j0 : q.j1] = np.nan
        mirror_upper(mi)
        np.fill_diagonal(mi, 0.0)
        return mi


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

    Processes the tile grid one block-row at a time; after each row, the
    row's blocks are saved and the ledger updated atomically.  Re-invoking
    with the same directory resumes after the last completed row.

    Parameters
    ----------
    weights:
        ``(n, m, b)`` weight tensor (must be identical across invocations —
        enforced by fingerprint).
    checkpoint_dir:
        Directory for row files + ledger (created if missing).
    interrupt_after_rows:
        Testing hook: stop (returning ``None``) after completing this many
        *new* rows, simulating preemption mid-run.
    engine:
        Optional execution engine (:mod:`repro.parallel.engine`) running
        each block-row's tiles as one supervised dispatch; blocks return
        to the parent, which saves the row.  Checkpoint granularity (and
        the on-disk format) is independent of the engine.
    progress:
        Optional ``progress(done_rows, total_rows)`` callback, fired after
        each block-row's checkpoint lands (resumed rows count as done, so
        a resume starts partway along rather than from zero).
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`; each computed block-row
        runs under a ``checkpoint_row`` span and ticks the ``rows_done`` /
        ``tiles_done`` / ``pairs_done`` counters.
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
