"""E14 — the (kernel, tile) sweep the planning rule is derived from.

The paper tunes its tile size to the Phi's per-core L2.  Here the same
ablation on the host's real kernels: serial ``mi_matrix`` over random
rank data, b in {10, 20, 30} x (n, m) in {(512, 256), (256, 3137)} x
{fused float64, fused float32, sparse float64} x tiles 8-128, best of
``REPEATS``.  The table in :data:`repro.core.tiling.RULE_TILES` and the
``kernel="auto"`` threshold :data:`repro.core.tiling.AUTO_SPARSE_MIN_BINS`
are read off this sweep; the assertions check that the rule still lands
near each measured optimum.  Tile 2 is timed once (fused float64, b = 10)
to show the small-tile side of the cache-blocking bathtub.

Writes ``bench_reports/E14.txt`` and ``BENCH_E14.json``.  Takes a few
minutes and holds under 1 GB; ``REPRO_BENCH_SMOKE=1`` runs a small shape
without the timing assertions.
"""

import gc
import os
import time

import numpy as np

from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.mi_matrix import mi_matrix
from repro.core.sparsekernel import sparse_backend
from repro.core.tiling import AUTO_SPARSE_MIN_BINS, rule_kernel, rule_tile

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SHAPES = [(64, 64), (32, 200)] if SMOKE else [(512, 256), (256, 3137)]
BINS = (10, 20) if SMOKE else (10, 20, 30)
TILES = (8, 16, 32, 64, 128)
REPEATS = 1 if SMOKE else 3
#: name -> (kernel, kernel_dtype) passed to mi_matrix.
VARIANTS = {
    "fused64": ("fused", None),
    "fused32": ("fused", "float32"),
    "sparse64": ("sparse", None),
}


def _best_time(weights, tile, kernel, kernel_dtype, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        mi_matrix(weights, tile=tile, kernel=kernel, kernel_dtype=kernel_dtype)
        best = min(best, time.perf_counter() - t0)
    return best


def _sweep():
    """``{(b, m, variant): {tile: seconds}}`` plus the tile-2 point."""
    times = {}
    tile2 = {}
    for n, m in SHAPES:
        base = rank_transform(np.random.default_rng([14, n, m]).normal(size=(n, m)))
        for b in BINS:
            weights = weight_tensor(base, bins=b, order=3)
            for name, (kernel, kdt) in VARIANTS.items():
                # One untimed call hoists the operands, as every run does.
                mi_matrix(weights, tile=TILES[-1], kernel=kernel, kernel_dtype=kdt)
                times[b, m, name] = {t: _best_time(weights, t, kernel, kdt) for t in TILES}
            if b == BINS[0]:
                tile2[m] = _best_time(weights, 2, None, None, repeats=1)
            del weights
            gc.collect()
    return times, tile2


def test_tile_size_sweep(report):
    times, tile2 = _sweep()
    backend = sparse_backend()
    rows, metrics = [], {"sparse_backend": backend}
    for (b, m, name), by_tile in times.items():
        best = min(by_tile, key=by_tile.get)
        rule = rule_tile(VARIANTS[name][0])
        rows.append({"b": b, "m": m, "kernel": name,
                     **{f"t{t}": f"{by_tile[t]:.3f}" for t in TILES},
                     "best": best, "rule": rule,
                     "rule/best": f"{by_tile[rule] / by_tile[best]:.2f}"})
        metrics[f"best_tile.{name}.b{b}.m{m}"] = best
        metrics[f"rule_over_best.{name}.b{b}.m{m}"] = by_tile[rule] / by_tile[best]
    for b in BINS:
        for m in {m for _, m in SHAPES}:
            fused = times[b, m, "fused64"][rule_tile("fused")]
            sparse = times[b, m, "sparse64"][rule_tile("sparse")]
            metrics[f"sparse_over_fused_at_rule.b{b}.m{m}"] = sparse / fused
    for m, t in tile2.items():
        metrics[f"tile2_over_best.fused64.b{BINS[0]}.m{m}"] = (
            t / min(times[BINS[0], m, "fused64"].values()))
    title = ("(kernel, tile) sweep, serial mi_matrix, seconds per tile edge "
             f"[sparse backend {backend}]" + (" (smoke)" if SMOKE else ""))
    report("E14", title, rows, metrics=metrics)

    if SMOKE:
        return
    for m, t in tile2.items():
        best = min(times[BINS[0], m, "fused64"].values())
        # Tiny tiles lose badly to the optimum (per-tile dispatch + GEMM shape).
        assert t > 1.5 * best
    for (b, m, name), by_tile in times.items():
        best = min(by_tile, key=by_tile.get)
        # The optimum is an interior point or the large-tile side.
        assert best >= 8
        # The rule's tile lands within 2.5x of the measured optimum.
        assert by_tile[rule_tile(VARIANTS[name][0])] < 2.5 * by_tile[best]
    # kernel="auto" picks the faster variant at each measured b, where the
    # two differ by more than timing noise.
    if backend == "cc":
        for b in BINS:
            for m in {m for _, m in SHAPES}:
                fused = times[b, m, "fused64"][rule_tile("fused")]
                sparse = times[b, m, "sparse64"][rule_tile("sparse")]
                picked = sparse if rule_kernel(b, True) == "sparse" else fused
                assert picked <= 1.1 * min(fused, sparse), (b, m)
        assert AUTO_SPARSE_MIN_BINS in BINS
