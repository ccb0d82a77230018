"""Discrete-event simulation of the tile schedule on a modelled machine.

The simulator executes the *same decomposition* the real code runs — the
tile list from :func:`repro.core.tiling.tile_grid`, ordered by a
:class:`repro.parallel.scheduler.SchedulerPolicy` — but charges each tile
the analytic cost from :class:`repro.machine.costmodel.TileCostModel`
instead of running the kernel.  Hardware threads are event-queue entries;
a dynamic pull pays the machine's dispatch overhead.  The output is the
data behind every performance figure the paper draws: makespan, per-thread
utilization, load imbalance, and speedup curves over thread count.

Modelling choices (documented because they shape the curves):

* **Breadth-first placement** — ``n`` threads occupy ``min(n, cores)``
  cores before doubling up, the paper's ``balanced`` affinity; a thread's
  compute rate then follows the core's SMT issue efficiency.
* **Static occupancy** — all requested threads are assumed active for the
  whole run when computing SMT shares and bandwidth splits (accurate for
  this workload: tiles are uniform enough that threads finish within a few
  tiles of each other).
* **Dispatch overhead** — dynamic policies pay
  ``machine.dispatch_overhead_us`` per chunk pull, which is what makes
  chunk = 1 suboptimal at 240 threads (experiment E11's tradeoff).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.tiling import Tile, tile_grid
from repro.machine.costmodel import KernelProfile, TileCostModel
from repro.machine.spec import MachineSpec
from repro.parallel.partition import imbalance
from repro.parallel.scheduler import DynamicScheduler, SchedulerPolicy

__all__ = ["SimResult", "MachineSimulator", "simulate_workload", "speedup_curve"]


def _phi_tile_size(m_samples: int, bins: int) -> int:
    """The simulated machine's tile edge: a cache model, not a measurement.

    One tile's two weight slabs plus its joint tensor, ``2*T*m*b +
    T^2*b^2`` float64 words, must fit 2 MiB (the Phi's 512 KiB L2 plus
    shared reuse); the largest power of two in [8, 256] that fits wins.
    Host runs size tiles with :func:`repro.core.tiling.rule_tile` instead.
    """
    if m_samples <= 0 or bins <= 0:
        raise ValueError("m_samples and bins must be positive")
    fits = [t for t in (8, 16, 32, 64, 128, 256)
            if 8 * (2 * t * m_samples * bins + t * t * bins * bins) <= 1 << 21]
    return fits[-1] if fits else 8


@dataclass
class SimResult:
    """Outcome of one simulated run.

    Attributes
    ----------
    makespan:
        Wall-clock seconds until the last thread finishes.
    busy:
        Per-thread busy seconds (compute only, excludes dispatch).
    overhead:
        Per-thread dispatch-overhead seconds.
    n_threads, n_tiles:
        Run shape.
    machine:
        The machine simulated.
    trace:
        When recorded: ``(thread, start_s, end_s, n_tiles_in_chunk)``
        intervals, one per executed chunk (see
        :mod:`repro.machine.trace` for rendering).
    """

    makespan: float
    busy: np.ndarray
    overhead: np.ndarray
    n_threads: int
    n_tiles: int
    machine: MachineSpec
    trace: "list | None" = None

    @property
    def utilization(self) -> float:
        """Mean fraction of the makespan threads spent computing."""
        if self.makespan <= 0:
            return 1.0
        return float(self.busy.mean() / self.makespan)

    @property
    def imbalance(self) -> float:
        """``max/mean - 1`` of per-thread busy time."""
        return imbalance(self.busy)

    @property
    def total_busy(self) -> float:
        return float(self.busy.sum())


class MachineSimulator:
    """Replays a tile schedule against a machine's cost model.

    Parameters
    ----------
    machine:
        Target :class:`MachineSpec`.
    profile:
        Workload :class:`KernelProfile` (samples, bins, order, fused
        permutations, vectorized/tiled toggles).
    """

    def __init__(self, machine: MachineSpec, profile: KernelProfile):
        self.machine = machine
        self.model = TileCostModel(machine, profile)

    # ------------------------------------------------------------------
    def tile_costs(self, tiles: list, n_threads: int, placement: str = "balanced") -> np.ndarray:
        """Per-tile single-thread seconds at the given total occupancy."""
        per_core = self.machine.threads_on_core_count(n_threads, placement)
        # Threads on the most-loaded core are the slowest; track each
        # thread's own occupancy instead of the worst case: costs are
        # computed per occupancy class and assigned when a thread runs.
        # For the cost *vector* we use the modal occupancy; exact per-thread
        # rates are applied in run() via a scale factor.
        occ = max(per_core)
        return self.model.tile_seconds_vector(
            tiles, active_threads_on_core=occ, threads_sharing_bw=n_threads
        )

    def _thread_scale(self, n_threads: int, placement: str = "balanced") -> np.ndarray:
        """Per-thread compute-rate scale relative to the modal occupancy.

        Threads on less-crowded cores run faster; the scale multiplies tile
        durations per executing thread.
        """
        per_core = self.machine.threads_on_core_count(n_threads, placement)
        occ_max = max(per_core)
        base = self.machine.thread_rate_gflops(occ_max)
        scales = []
        for occ in per_core:
            rate = self.machine.thread_rate_gflops(occ)
            scales.extend([base / rate] * occ)
        return np.asarray(scales[:n_threads], dtype=np.float64)

    # ------------------------------------------------------------------
    def run(
        self,
        n_genes: int,
        n_threads: int,
        policy: SchedulerPolicy | None = None,
        tile: int | None = None,
        placement: str = "balanced",
        record_trace: bool = False,
    ) -> SimResult:
        """Simulate an all-pairs MI run of ``n_genes`` on ``n_threads``.

        The tile grid, policy order, dispatch overheads, affinity placement
        and SMT/bandwidth effects together produce the makespan.
        """
        if policy is None:
            policy = DynamicScheduler(chunk=1)
        if tile is None:
            tile = _phi_tile_size(self.model.profile.m_samples, self.model.profile.bins)
        tiles = tile_grid(n_genes, tile)
        costs = self.tile_costs(tiles, n_threads, placement)
        scale = self._thread_scale(n_threads, placement)
        overhead_s = self.machine.dispatch_overhead_us * 1e-6

        busy = np.zeros(n_threads, dtype=np.float64)
        over = np.zeros(n_threads, dtype=np.float64)
        trace: "list | None" = [] if record_trace else None

        try:
            chunks = (
                policy.chunk_sequence(len(tiles), n_threads)
                if policy.is_dynamic()
                else None
            )
        except NotImplementedError:
            # Policies with bespoke pull behaviour (work stealing) carry
            # their own event loop; replay it with SMT-scaled tile costs.
            # Per-thread scale is uniform at homogeneous occupancy (the
            # common case); the mean is exact there and a close
            # approximation otherwise.
            a = policy.simulate(costs * float(scale.mean()), n_threads)
            return SimResult(
                makespan=a.makespan,
                busy=a.worker_loads.copy(),
                overhead=over,
                n_threads=n_threads,
                n_tiles=len(tiles),
                machine=self.machine,
                trace=None,
            )

        if policy.is_dynamic():
            heap = [(0.0, w) for w in range(n_threads)]
            heapq.heapify(heap)
            makespan = 0.0
            for chunk in chunks:
                t_free, w = heapq.heappop(heap)
                dur = float(costs[chunk].sum()) * scale[w]
                t_end = t_free + overhead_s + dur
                busy[w] += dur
                over[w] += overhead_s
                makespan = max(makespan, t_end)
                if trace is not None:
                    trace.append((w, t_free + overhead_s, t_end, len(chunk)))
                heapq.heappush(heap, (t_end, w))
        else:
            assignment = policy.static_assignment(len(tiles), n_threads, costs=costs)
            makespan = 0.0
            for w, items in enumerate(assignment):
                dur = float(costs[items].sum()) * scale[w] if len(items) else 0.0
                busy[w] = dur
                makespan = max(makespan, dur)
                if trace is not None and len(items):
                    trace.append((w, 0.0, dur, len(items)))
        return SimResult(
            makespan=makespan,
            busy=busy,
            overhead=over,
            n_threads=n_threads,
            n_tiles=len(tiles),
            machine=self.machine,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def predict_seconds(
        self,
        n_genes: int,
        n_threads: int | None = None,
        placement: str = "balanced",
    ) -> float:
        """Closed-form runtime estimate (no event loop): total work over the
        chip's effective rate, plus the bandwidth floor.

        Cross-checked against :meth:`run` by tests; used where a full event
        simulation at whole-genome scale (millions of tiles) is unnecessary.
        """
        n_threads = n_threads or self.machine.max_threads
        profile = self.model.profile
        from repro.machine.costmodel import workload_flops

        flops = workload_flops(n_genes, profile)
        rate = self.machine.effective_gflops(n_threads, placement) * 1e9
        if not profile.vectorized:
            rate /= self.machine.vector_lanes_sp
        t_compute = flops / rate
        # Memory floor: every gene's weights stream per block-row of tiles.
        tile = _phi_tile_size(profile.m_samples, profile.bins)
        n_block_rows = int(np.ceil(n_genes / tile))
        bytes_total = n_genes * profile.weight_bytes_per_gene() * n_block_rows
        if not profile.tiled:
            from repro.core.tiling import pair_count

            bytes_total = 2.0 * pair_count(n_genes) * profile.weight_bytes_per_gene()
        t_mem = bytes_total / (self.machine.mem_bw_gbs * 1e9)
        return max(t_compute, t_mem)


def simulate_workload(
    machine: MachineSpec,
    n_genes: int,
    m_samples: int,
    n_threads: int | None = None,
    bins: int = 10,
    order: int = 3,
    n_permutations_fused: int = 0,
    policy: SchedulerPolicy | None = None,
    tile: int | None = None,
    vectorized: bool = True,
    tiled: bool = True,
) -> SimResult:
    """One-call wrapper: build profile + simulator and run."""
    profile = KernelProfile(
        m_samples=m_samples,
        bins=bins,
        order=order,
        n_permutations_fused=n_permutations_fused,
        vectorized=vectorized,
        tiled=tiled,
    )
    sim = MachineSimulator(machine, profile)
    return sim.run(n_genes, n_threads or machine.max_threads, policy=policy, tile=tile)


def speedup_curve(
    machine: MachineSpec,
    n_genes: int,
    m_samples: int,
    thread_counts: list,
    **kwargs,
) -> dict:
    """Makespans and speedups over a list of thread counts.

    Returns ``{"threads": [...], "seconds": [...], "speedup": [...]}`` with
    speedup relative to one thread — the series of experiments E4/E5.
    """
    seconds = []
    for t in thread_counts:
        res = simulate_workload(machine, n_genes, m_samples, n_threads=t, **kwargs)
        seconds.append(res.makespan)
    one = simulate_workload(machine, n_genes, m_samples, n_threads=1, **kwargs).makespan
    return {
        "threads": list(thread_counts),
        "seconds": seconds,
        "speedup": [one / s if s > 0 else float("inf") for s in seconds],
    }
