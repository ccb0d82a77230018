"""E28 — Executor abstraction overhead (`repro.core.exec`).

All MI drivers now route through one executor
(:func:`repro.core.exec.run_tile_plan`) instead of private tile loops.
The abstraction must be free: this benchmark re-creates the pre-refactor
serial loop (hoisted entropies, grid-order ``compute_tile``, direct
writes, one mirror pass) as the baseline and measures ``mi_matrix``
through the executor against it.  Acceptance: bit-identical output and
<= 5% wall-clock overhead, read as the median of per-round
executor/baseline time ratios over alternating rounds: a slow spell of
the host lands on one round's pair, not on either side's best time.
"""

import time

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.entropy import marginal_entropies
from repro.core.mi_matrix import compute_tile, mi_matrix
from repro.core.tiling import tile_grid

N_GENES = 192
M_SAMPLES = 512
TILE = 16  # small tiles -> many dispatches -> worst case for loop overhead
ROUNDS = 11


@pytest.fixture(scope="module")
def weights():
    rng = np.random.default_rng(28)
    data = rank_transform(rng.normal(size=(N_GENES, M_SAMPLES)))
    return weight_tensor(data, bins=10, order=3)


def baseline_loop(weights):
    """The pre-refactor serial driver, verbatim in shape."""
    n = weights.shape[0]
    h = marginal_entropies(weights)
    mi = np.zeros((n, n), dtype=np.float64)
    for t in tile_grid(n, TILE):
        mi[t.i0 : t.i1, t.j0 : t.j1] = compute_tile(weights, h, t)
    iu = np.triu_indices(n, k=1)
    mi[(iu[1], iu[0])] = mi[iu]
    np.fill_diagonal(mi, 0.0)
    return mi


def alternating_rounds(fns, rounds=ROUNDS):
    """Per-round times ``(rounds, len(fns))`` and the last results.

    Each round times every function once, in reversed order every other
    round, so neither side always runs first.
    """
    times = np.zeros((rounds, len(fns)))
    results = [None] * len(fns)
    for r in range(rounds):
        for k in (range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))):
            t0 = time.perf_counter()
            results[k] = fns[k]()
            times[r, k] = time.perf_counter() - t0
    return results, times


def test_executor_overhead(benchmark, report, weights):
    (mi_base, mi_exec), times = alternating_rounds([
        lambda: baseline_loop(weights),
        lambda: mi_matrix(weights, tile=TILE).mi,
    ])
    benchmark(lambda: mi_matrix(weights, tile=TILE))

    overhead = float(np.median(times[:, 1] / times[:, 0])) - 1.0
    t_base, t_exec = np.median(times, axis=0)
    n_tiles = len(tile_grid(N_GENES, TILE))
    rows = [
        {"path": "hand-rolled tile loop (pre-refactor)",
         "mi time": f"{t_base * 1e3:.1f} ms", "overhead": "0 (reference)"},
        {"path": "run_tile_plan executor (mi_matrix)",
         "mi time": f"{t_exec * 1e3:.1f} ms", "overhead": f"{overhead * 100:+.1f}%"},
    ]
    report("E28",
           f"executor overhead, n={N_GENES}, m={M_SAMPLES}, "
           f"tile={TILE} ({n_tiles} tiles), median of {ROUNDS} alternating "
           "rounds' time ratios (times: medians)",
           rows, metrics={"overhead_fraction": overhead})

    assert np.array_equal(mi_base, mi_exec)
    assert overhead <= 0.05
