"""E29 — Fault-tolerance overhead and recovery cost.

Every MI run goes through the one supervised dispatch path of
:func:`repro.core.exec.run_tile_plan`; the fault policy only decides what
happens when a tile fails.  The reference is the default policy (one
attempt per tile, a failing tile raises).  A retrying policy must be
invisible when nothing faults: acceptance is bit-identical output and
<= 5% wall-clock overhead over the default on the same serial engine.
The second measurement prices recovery itself — wall-clock with a 10%
crash-rate fault plan on a thread engine, versus the same engine clean —
so the retry machinery's cost at the paper's scale is a measured number,
not a guess.
"""

import time

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.mi_matrix import mi_matrix
from repro.core.tiling import tile_grid
from repro.faults import FaultPlan, FaultPolicy
from repro.parallel import make_engine

N_GENES = 192
M_SAMPLES = 512
TILE = 16  # many small tiles -> worst case for per-task dispatch overhead
REPEATS = 5
CRASH_RATE = 0.10


@pytest.fixture(scope="module")
def weights():
    rng = np.random.default_rng(29)
    data = rank_transform(rng.normal(size=(N_GENES, M_SAMPLES)))
    return weight_tensor(data, bins=10, order=3)


def best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_no_fault_overhead(benchmark, report, weights):
    policy = FaultPolicy(max_retries=2, backoff=0.01)
    mi_default, t_default = best_of(lambda: mi_matrix(weights, tile=TILE).mi)
    mi_retrying, t_retrying = best_of(
        lambda: mi_matrix(weights, tile=TILE, policy=policy).mi)
    benchmark(lambda: mi_matrix(weights, tile=TILE, policy=policy))

    overhead = t_retrying / t_default - 1.0

    # Recovery cost: a 10% crash-rate plan on a thread engine, against the
    # same engine clean.  Each faulted tile costs one wasted attempt plus
    # one backoff sleep, so recovery stays proportional to the fault rate.
    eng_clean = make_engine("thread", n_workers=4)
    _, t_clean = best_of(
        lambda: mi_matrix(weights, tile=TILE, engine=eng_clean,
                          policy=policy).mi, repeats=3)

    def chaos_run():
        plan = FaultPlan(seed=29, rate=CRASH_RATE, kinds=("crash",))
        eng = make_engine("thread", n_workers=4, faults=plan)
        return mi_matrix(weights, tile=TILE, engine=eng, policy=policy).mi

    mi_chaos, t_chaos = best_of(chaos_run, repeats=3)
    recovery_factor = t_chaos / t_clean

    n_tiles = len(tile_grid(N_GENES, TILE))
    n_faulted = len(FaultPlan(seed=29, rate=CRASH_RATE, kinds=("crash",))
                    .faulted(tile_grid(N_GENES, TILE)))
    rows = [
        {"path": "default policy (one attempt, raise)",
         "mi time": f"{t_default * 1e3:.1f} ms", "overhead": "0 (reference)"},
        {"path": "retrying policy, no faults",
         "mi time": f"{t_retrying * 1e3:.1f} ms",
         "overhead": f"{overhead * 100:+.1f}%"},
        {"path": "thread x4, clean",
         "mi time": f"{t_clean * 1e3:.1f} ms", "overhead": "0 (reference)"},
        {"path": f"thread x4, {CRASH_RATE:.0%} crash rate "
                 f"({n_faulted}/{n_tiles} tiles)",
         "mi time": f"{t_chaos * 1e3:.1f} ms",
         "overhead": f"{(recovery_factor - 1) * 100:+.1f}%"},
    ]
    report("E29",
           f"fault-tolerance overhead, n={N_GENES}, m={M_SAMPLES}, "
           f"tile={TILE} ({n_tiles} tiles), best of {REPEATS}",
           rows, metrics={"overhead_fraction": overhead,
                          "recovery_factor": recovery_factor,
                          "crash_rate": CRASH_RATE,
                          "faulted_tiles": n_faulted})

    assert np.array_equal(mi_default, mi_retrying)
    assert np.array_equal(mi_default, mi_chaos)  # recovery is bit-exact too
    assert overhead <= 0.05
