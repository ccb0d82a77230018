"""Incremental network maintenance: grow a network sample by sample.

A new microarray adds a *sample column*: every pair's MI drifts (the rank
transform re-scales all columns), but by a bounded amount, so
:meth:`NetworkUpdater.add_samples` recomputes only the tiles whose MI
could have crossed the significance threshold and replays them through
the shared tile executor (:func:`repro.core.exec.run_tile_plan`).  The
gene set is fixed for the updater's lifetime: a changed gene universe is
a new reconstruction.

The dirty-tile screen
---------------------
For pair ``(i, j)``, ``MI' = MI + dH_i + dH_j - dH_ij`` where ``dH_i``
are the *exact* per-gene marginal-entropy deltas (one cheap pass over the
grown weight tensor) and ``dH_ij`` is the joint-entropy drift.  The
marginal terms are computed exactly; the joint term is bounded by a
probe-calibrated ``gamma``: a deterministic sample of pairs (random plus
the genes with the largest marginal drift) is recomputed exactly through
:func:`repro.core.exec.compute_tile`, and ``gamma = safety * max |dH_ij|``
over the probes.  A pair is *clean* when
``MI + dH_i + dH_j + gamma <= threshold'`` — its new MI provably (up to
the calibrated bound) cannot exceed the new threshold, so it cannot
become an edge and its tile need not run.  Existing edges are always
marked dirty so their weights refresh and removals are detected exactly.
Rank-transform stability (:func:`repro.core.discretize.rank_drift_bound`)
makes the drift ``O(dm / m)``, so the clean fraction approaches 1 as the
dataset grows — the property the serve layer's subscription endpoint
turns into cheap continuous maintenance.

Consistency guarantee: after ``add_samples`` the *network* (threshold,
adjacency, and the MI weight of every edge) is bit-identical to a
from-scratch pipeline run on the grown dataset; MI entries of clean
non-edge pairs keep their pre-update values (stale by at most the drift
bound, and provably below threshold).  The property suite pins both the
identity and the screen's conservativeness.

The updater holds only what the next increment reads: the raw data, the
MI matrix, the per-gene entropies, the null, the gene names and the
config.  Each increment rebuilds the weight tensor from the raw data (the
rank transform re-scales every column anyway) and drops it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.discretize import extend_columns
from repro.core.entropy import marginal_entropies
from repro.core.exec import DenseSink, TensorSource, TilePlan, compute_tile, filter_plan
from repro.core.network import GeneNetwork
from repro.core.permutation import NullDistribution
from repro.core.pipeline import TingeConfig, TingePipeline
from repro.core.tiling import Tile, pair_count
from repro.obs.tracer import NULL_TRACER

__all__ = ["NetworkUpdater", "UpdateDelta"]

# Below this dirty-pair fraction the replay switches from coarse tiles to
# per-pair 1x1 tiles (see add_samples); above it, block GEMM efficiency
# outweighs recomputing the clean pairs sharing a dirty tile.
_REFINE_FRACTION = 0.05


@dataclass
class UpdateDelta:
    """What one :meth:`NetworkUpdater.add_samples` call changed.

    ``edges_added`` / ``edges_removed`` are ``(gene_a, gene_b, mi)``
    tuples (MI from the post-/pre-update matrix respectively).  The tile
    counters quantify the screen's selectivity: ``tiles_dirty`` ran,
    ``tiles_skipped`` provably could not change the network.  ``cached``
    marks serve-layer adoptions of an already-cached grown network (no
    tiles ran at all).
    """

    n_samples_before: int
    n_samples_after: int
    threshold_before: float
    threshold_after: float
    edges_added: list
    edges_removed: list
    tiles_total: int
    tiles_dirty: int
    tiles_skipped: int
    pairs_total: int
    pairs_screened_dirty: int
    pairs_recomputed: int
    gamma: float
    cached: bool = False
    quarantined: list = field(default_factory=list)

    @property
    def recompute_fraction(self) -> float:
        """Fraction of all gene pairs whose tiles were recomputed."""
        if self.pairs_total <= 0:
            return 0.0
        return self.pairs_recomputed / self.pairs_total

    def as_dict(self) -> dict:
        """JSON-safe rendering (the serve layer's event payload)."""
        return {
            "n_samples_before": self.n_samples_before,
            "n_samples_after": self.n_samples_after,
            "threshold_before": self.threshold_before,
            "threshold_after": self.threshold_after,
            "edges_added": [[a, b, float(w)] for a, b, w in self.edges_added],
            "edges_removed": [[a, b, float(w)] for a, b, w in self.edges_removed],
            "tiles_total": self.tiles_total,
            "tiles_dirty": self.tiles_dirty,
            "tiles_skipped": self.tiles_skipped,
            "pairs_total": self.pairs_total,
            "pairs_screened_dirty": self.pairs_screened_dirty,
            "pairs_recomputed": self.pairs_recomputed,
            "recompute_fraction": self.recompute_fraction,
            "gamma": self.gamma,
            "cached": self.cached,
            "quarantined": list(self.quarantined),
        }


class NetworkUpdater:
    """Mutable wrapper around a finished run's MI matrix and network.

    Build one from a finished pipeline run (:meth:`from_result`) and then
    :meth:`add_samples`; :attr:`network` is always current.

    Parameters
    ----------
    weights:
        ``(n, m, b)`` weight tensor of the *rank-transformed* genes.  Only
        its per-gene marginal entropies are kept.
    mi:
        The matching ``(n, n)`` MI matrix.
    genes:
        Gene names.
    null:
        The pooled null the run produced (thresholds re-derive from it).
    data:
        The raw ``(n, m)`` expression matrix the weights came from:
        appending a column re-ranks every existing one, so each increment
        rebuilds the weights from the raw values.
    config:
        The run's :class:`repro.core.pipeline.TingeConfig` (or a dict of
        its fields).  Increments rebuild the permutation null and replay
        tiles with exactly the pipeline's parameters, which is what makes
        the result bit-identical to a from-scratch run on the grown
        dataset.  ``exact_retest`` configs are rejected: their re-test
        reads a weight tensor the updater does not keep, and they cannot
        stream.
    """

    def __init__(self, weights: np.ndarray, mi: np.ndarray, genes: list,
                 null: NullDistribution, *, data: np.ndarray, config):
        weights = np.asarray(weights)
        if weights.ndim != 3:
            raise ValueError(f"expected (n, m, b) weights, got {weights.shape}")
        n = weights.shape[0]
        mi = np.array(mi, dtype=np.float64)
        if mi.shape != (n, n) or len(genes) != n:
            raise ValueError("weights / mi / genes sizes disagree")
        data = np.array(data, dtype=np.float64)
        if data.shape != (n, weights.shape[1]):
            raise ValueError(
                f"data shape {data.shape} does not match weights "
                f"{weights.shape[:2]}"
            )
        if not hasattr(config, "alpha"):
            config = TingeConfig(**dict(config))
        if config.exact_retest:
            raise ValueError("NetworkUpdater: exact_retest runs cannot stream "
                             "(the re-test needs the full weight tensor)")
        self._mi = mi
        self._h = marginal_entropies(weights)
        self._genes = list(genes)
        self._null = null
        self._data = data
        self._config = config

    @classmethod
    def from_result(cls, result, data: np.ndarray) -> "NetworkUpdater":
        """Build a streaming-capable updater from a
        :class:`~repro.core.pipeline.TingeResult` plus the raw data that
        produced it (the weight tensor is re-derived, cheaply)."""
        if result.null is None:
            raise ValueError("streaming updates need a pooled null "
                             "(testing='pooled' runs only)")
        pipe = TingePipeline(result.config, tracer=NULL_TRACER)
        data, _genes = pipe.check_inputs(data, result.network.genes)
        return cls(pipe.weights(pipe.transform(data)), result.mi,
                   list(result.network.genes),
                   result.null, data=data, config=result.config)

    def _pipeline(self, engine=None, tracer=None, progress=None) -> TingePipeline:
        """A pipeline over this updater's config: the one place its
        weights, null and threshold rule come from."""
        return TingePipeline(self._config, engine=engine,
                             tracer=tracer or NULL_TRACER, progress=progress)

    @property
    def n_genes(self) -> int:
        return len(self._genes)

    @property
    def n_samples(self) -> int:
        return self._data.shape[1]

    @property
    def mi(self) -> np.ndarray:
        return self._mi.copy()

    @property
    def threshold(self) -> float:
        """The current network's threshold (NaN under ``correction="bh"``)."""
        return self.network.threshold

    @property
    def network(self) -> GeneNetwork:
        """The current network under the pipeline's threshold rule.  No
        weights are passed: only the exact re-test reads them, and the
        constructor rejects it."""
        return self._pipeline().network(self._mi.copy(), self._null,
                                        self._genes, None)

    # -- sample increment ----------------------------------------------
    @staticmethod
    def check_streaming_config(cfg, what: str = "streaming updates") -> None:
        """Raise ``ValueError`` unless ``cfg`` (a :class:`TingeConfig`)
        allows sample increments; messages start with ``what``."""
        if cfg.testing != "pooled" or cfg.exact_retest:
            raise ValueError(f"{what}: pooled-null testing only "
                             "(testing='pooled', exact_retest=False)")
        if cfg.correction == "bh":
            raise ValueError(
                f"{what}: needs a fixed threshold (correction='bonferroni' "
                "or 'none'); FDR re-ranks every pair on every update"
            )
        if cfg.transform != "rank":
            raise ValueError(f"{what}: requires transform='rank'")
        if cfg.base != "nat":
            raise ValueError(f"{what}: requires base='nat' (the entropy-cache base)")
        if cfg.dtype != "float64":
            raise ValueError(f"{what}: requires dtype='float64'")

    def _streaming_config(self, what: str):
        """The validated config for the sample-increment path (or raise)."""
        self.check_streaming_config(self._config, what)
        return self._config

    def _screen_gamma(
        self,
        source: TensorSource,
        h_new: np.ndarray,
        dh: np.ndarray,
        n_probes: int,
        safety: float,
    ) -> float:
        """Probe-calibrated bound on the per-pair joint-entropy drift.

        Exactly recomputes a deterministic probe set — uniform random
        pairs plus every pair among the genes with the largest marginal
        drift (the likeliest joint-drift extremes) — and returns
        ``safety * max |dH_ij|`` observed.  Each probe is one 1x1
        :func:`~repro.core.exec.compute_tile` call on the grown tensor's
        ``source`` (entropies ``h_new``).  Deterministic in (seed, n, m')
        so an interrupted update rebuilds the identical dirty set on
        resume.
        """
        n, m_new = source.n_genes, source.m_samples
        cfg = self._config
        rng = np.random.default_rng([int(cfg.seed or 0), n, m_new])
        pairs = rng.integers(0, n, size=(max(int(n_probes), 1), 2))
        top = np.argsort(np.abs(dh))[-8:]
        ti, tj = np.meshgrid(top, top, indexing="ij")
        pairs = np.concatenate([pairs, np.stack([ti.ravel(), tj.ravel()], axis=1)])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.size == 0:
            return 0.0
        # Tiles may not lie below the diagonal: probe (min, max).
        mi_new = np.array([
            compute_tile(source, h_new, Tile(i, i + 1, j, j + 1), base=cfg.base)[0, 0]
            for i, j in np.sort(pairs, axis=1).tolist()])
        mi_old = self._mi[pairs[:, 0], pairs[:, 1]]
        dh_joint = dh[pairs[:, 0]] + dh[pairs[:, 1]] - (mi_new - mi_old)
        return float(safety * np.abs(dh_joint).max())

    def add_samples(
        self,
        new_data: np.ndarray,
        *,
        engine=None,
        tracer=None,
        progress=None,
        checkpoint_dir=None,
        interrupt_after_rows: "int | None" = None,
        n_probes: int = 256,
        safety: float = 4.0,
    ) -> "UpdateDelta | None":
        """Fold ``dm`` new sample columns in, recomputing only dirty tiles.

        ``new_data`` is ``(n, dm)`` — one new expression value per gene
        per arriving array — or 1-D for a single array.  Rank transforms,
        the weight tensor, marginal entropies and the pooled null are
        rebuilt for the grown dataset (cheap, ``O(n m b)``); the all-pairs
        MI matrix — the ``O(n^2)`` part — is only patched where the
        dirty-tile screen says the network could change.

        The update is *staged*: the updater's visible state mutates only
        after every dirty tile has been recomputed, so an interrupted call
        (fault, preemption, or the ``interrupt_after_rows`` hook with a
        ``checkpoint_dir``) leaves the pre-update network intact and
        returns ``None``; re-invoking with the same samples and
        ``checkpoint_dir`` resumes from the ledger, replaying only the
        still-dirty tiles.

        Parameters
        ----------
        engine:
            Optional execution engine for the tile replay and null
            rebuild; results are engine-independent (bit-identical).
        tracer:
            Optional :class:`repro.obs.tracer.Tracer`; ticks the
            ``tiles_dirty`` / ``tiles_skipped`` / ``delta_edges``
            counters on top of the executor's own.
        checkpoint_dir:
            Optional directory for the dirty-tile replay's checkpoint
            ledger (:class:`repro.core.checkpoint.DeltaCheckpointSink`).
        n_probes, safety:
            Screen calibration: probe-pair count and the multiplier on
            the worst probe drift (see :meth:`_screen_gamma`).

        Returns
        -------
        UpdateDelta or None
            ``None`` when interrupted before completion (state unchanged).
        """
        cfg = self._streaming_config("add_samples")
        pipe = self._pipeline(engine, tracer, progress)
        tracer = pipe.tracer
        n = self.n_genes
        data_new = extend_columns(self._data, new_data)

        # The pipeline's own phases on the grown dataset: every array
        # below is bitwise what a from-scratch run would produce.
        weights_new = pipe.weights(pipe.transform(data_new))
        source = TensorSource(weights_new)
        h_new = source.entropies(cfg.base)
        null_new = pipe.null(weights_new)
        old = pipe.network(self._mi, self._null, self._genes, None)
        thr_new = pipe.threshold(null_new, n)

        # The screen: exact marginal deltas + calibrated joint bound.
        dh = h_new - self._h
        gamma = self._screen_gamma(source, h_new, dh, n_probes, safety)
        upper = self._mi + dh[:, None] + dh[None, :] + gamma
        dirty = (upper > thr_new) | old.adjacency
        np.fill_diagonal(dirty, False)

        # The same kernel and grid the pipeline's MI phase resolves, so
        # every replayed tile is the kernel call a full pass would make.
        # A ledger being resumed keeps its own grid; one at tile 1 holds a
        # 1x1 replay, which the screen rebuilds on any grid.
        resume = None
        if checkpoint_dir is not None:
            from repro.core.checkpoint import checkpoint_status

            resume = checkpoint_status(checkpoint_dir).get("tile")
        plan, kernel = pipe.plan(source, resume if resume != 1 else None)
        dirty_tiles = [t for t in plan.tiles
                       if dirty[t.i0 : t.i1, t.j0 : t.j1].any()]
        dirty_upper = np.triu(dirty, k=1)
        n_dirty_pairs = int(dirty_upper.sum())
        # Replay granularity.  When the screen leaves only scattered
        # near-threshold pairs it is far cheaper to replay them as 1x1
        # tiles than to drag whole blocks along; dense dirt keeps the
        # coarse tiles for GEMM efficiency.  A 1x1 tile's MI is bitwise the
        # grid tile's only while BLAS sums the pair's sample axis in the
        # same order for both block shapes: that holds at small m, but at
        # m >= 600 the 1x1 replay's 10x10 GEMMs can round differently from
        # the grid's blocks, so replayed weights need not be bitwise a
        # scratch run's (the xfail in tests/test_tile_rule.py,
        # TestUpdaterAtRule::test_batches_match_scratch[600]).  The switch
        # is a pure function of the (deterministic) screen, so a resumed
        # update rebuilds the identical plan.
        if 0 < n_dirty_pairs <= _REFINE_FRACTION * pair_count(n):
            ii, jj = np.nonzero(dirty_upper)
            replay = [Tile(int(i), int(i) + 1, int(j), int(j) + 1)
                      for i, j in zip(ii, jj)]
            sub = TilePlan(n_genes=n, tile=1, base=cfg.base, tiles=replay,
                           policy=plan.policy)
        else:
            sub = filter_plan(plan, dirty_tiles)
        tracer.add("tiles_dirty", len(dirty_tiles))
        tracer.add("tiles_skipped", plan.n_tiles - len(dirty_tiles))

        if checkpoint_dir is None:
            sink = DenseSink(n, out=np.array(self._mi))
        else:
            from repro.core.checkpoint import DeltaCheckpointSink

            sink = DeltaCheckpointSink(Path(checkpoint_dir), sub,
                                       source.fingerprint(), base=self._mi,
                                       m_samples=data_new.shape[1],
                                       interrupt_after_rows=interrupt_after_rows)
        mi_new = pipe.mi(source, sink, (sub, kernel))
        if mi_new is None:
            # Interrupted mid-replay: the ledger survives, the updater's
            # visible state is untouched.
            return None
        return self._commit(
            pipe, old, data_new, h_new, null_new, mi_new,
            tiles_total=plan.n_tiles,
            tiles_dirty=len(dirty_tiles),
            tiles_skipped=plan.n_tiles - len(dirty_tiles),
            pairs_screened_dirty=n_dirty_pairs,
            pairs_recomputed=int(sum(t.n_pairs for t in sub.tiles)),
            gamma=gamma,
            quarantined=[q.as_dict() for q in sink.quarantined],
        )

    def adopt_samples(self, new_data: np.ndarray, mi: np.ndarray,
                      tracer=None) -> UpdateDelta:
        """Fold new columns in using an already-computed grown MI matrix.

        The serve layer's cache-hit path: when the grown dataset's network
        is already in the result cache, the stored MI matrix is adopted
        verbatim (zero tiles run) while the weights, entropies and null
        are rebuilt deterministically — the resulting state is identical
        to what :meth:`add_samples` would have produced.
        """
        cfg = self._streaming_config("adopt_samples")
        pipe = self._pipeline(tracer=tracer)
        n = self.n_genes
        data_new = extend_columns(self._data, new_data)
        mi = np.array(mi, dtype=np.float64)
        if mi.shape != (n, n):
            raise ValueError(f"expected ({n}, {n}) MI matrix, got {mi.shape}")

        weights_new = pipe.weights(pipe.transform(data_new))
        old = pipe.network(self._mi, self._null, self._genes, None)
        return self._commit(
            pipe, old, data_new,
            marginal_entropies(weights_new, base=cfg.base),
            pipe.null(weights_new), mi,
            tiles_total=0, tiles_dirty=0, tiles_skipped=0,
            pairs_screened_dirty=0, pairs_recomputed=0, gamma=0.0, cached=True,
        )

    def _commit(self, pipe, old, data_new, h_new, null_new, mi_new,
                **counters) -> UpdateDelta:
        """Threshold the grown state, then swap it in (the only state
        mutation of a sample increment); returns the :class:`UpdateDelta`."""
        new = pipe.network(mi_new, null_new, self._genes, None)
        added, removed = self._edge_delta(old.adjacency, new.adjacency,
                                          self._mi, mi_new)
        pipe.tracer.add("delta_edges", len(added) + len(removed))

        m_old, m_new = self._data.shape[1], data_new.shape[1]
        self._mi, self._h, self._null, self._data = mi_new, h_new, null_new, data_new
        return UpdateDelta(
            n_samples_before=m_old,
            n_samples_after=m_new,
            threshold_before=float(old.threshold),
            threshold_after=float(new.threshold),
            edges_added=added,
            edges_removed=removed,
            pairs_total=pair_count(self.n_genes),
            **counters,
        )

    def _edge_delta(self, adj_old, adj_new, mi_old, mi_new):
        """(added, removed) edge lists between two adjacency snapshots."""
        genes = self._genes
        iu = np.triu_indices(self.n_genes, k=1)
        gained = adj_new[iu] & ~adj_old[iu]
        lost = adj_old[iu] & ~adj_new[iu]
        added = [(genes[i], genes[j], float(mi_new[i, j]))
                 for i, j in zip(iu[0][gained], iu[1][gained])]
        removed = [(genes[i], genes[j], float(mi_old[i, j]))
                   for i, j in zip(iu[0][lost], iu[1][lost])]
        return added, removed
