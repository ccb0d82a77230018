"""E32 — compiled sparse-kernel tier vs. the fused GEMM kernel (table).

The B-spline estimator's structural sparsity: each sample touches at most
``k`` of the ``b`` bins, so the joint-histogram accumulation needs
``k^2/b^2`` of the dense GEMM's multiply-adds (9/100 at the paper's
``b=10, k=3``).  The sparse tier scatters packed ``(values, first)``
operands through a compiled per-pair loop (a cc-compiled library, or a
pure-numpy scatter — bitwise identical at float64) and
fuses the xlogy entropy reduction over the padded joint buffer.

Measured here against fused float64 at the paper configuration
(``b=10, k=3``) and at ``b=30`` (where the sparsity ratio k/b is 3x
better and the sparse tier's advantage compounds), plus the packed
transport-byte reduction the elastic engine sees when it ships
:class:`repro.core.exec.PackedWeightSource` slabs instead of the dense
tensor.

Correctness is asserted in the same run: the float64 sparse matrix must
match ``mi_tile`` to ~1 ulp (the documented summation-order bound — the
dense GEMM may contract into FMAs, the scatter never does), and the
numpy fallback must be *bit-identical* to the selected compiled backend.
Set ``REPRO_BENCH_SMOKE=1`` (the CI kernel-regression job) to run the
correctness guards on a small problem and skip the timing assertions.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.entropy import marginal_entropies
from repro.core.mi import (
    TileWorkspace,
    mi_tile,
    mi_tile_block,
    mi_tile_sparse_block,
    prepare_operands,
)
from repro.core.sparsekernel import prepare_packed, sparse_backend
from repro.core.tiling import fused_tile_size, tile_grid

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_GENES = 48 if SMOKE else 1024
M_SAMPLES = 128 if SMOKE else 256
BINS = 10
ORDER = 3
REPEATS = 1 if SMOKE else 5


@pytest.fixture(scope="module")
def sparse_weights():
    gen = np.random.default_rng(32)
    data = rank_transform(gen.normal(size=(N_GENES, M_SAMPLES)))
    return weight_tensor(data, bins=BINS, order=ORDER)


def _fused_blocks(weights, h, tile, ws, dtype=None):
    grid = tile_grid(weights.shape[0], tile)
    return [
        mi_tile_block(weights, t.i0, t.i1, t.j0, t.j1,
                      h_i=h[t.i0:t.i1], h_j=h[t.j0:t.j1],
                      workspace=ws, dtype=dtype)
        for t in grid
    ]


def _sparse_blocks(weights, h, tile, ws, dtype=None):
    grid = tile_grid(weights.shape[0], tile)
    return [
        mi_tile_sparse_block(weights, t.i0, t.i1, t.j0, t.j1,
                             h_i=h[t.i0:t.i1], h_j=h[t.j0:t.j1],
                             workspace=ws, dtype=dtype)
        for t in grid
    ]


def _time_interleaved(fns, repeats=REPEATS):
    """Median-of-rounds timing, candidates interleaved (see bench_fused)."""
    for fn in fns.values():
        fn()
    rounds = []
    for _ in range(repeats):
        times = {}
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name] = time.perf_counter() - t0
        rounds.append(times)
    return rounds


def _median_time(rounds, name):
    return float(np.median([r[name] for r in rounds]))


def _median_speedup(rounds, name, baseline="fused64"):
    return float(np.median([r[baseline] / r[name] for r in rounds]))


def test_sparse_kernel_speedups(sparse_weights, report):
    """The E32 ladder: fused f64 baseline vs sparse tiers at b=10 and b=30."""
    weights = sparse_weights
    n, m, b = weights.shape
    h = marginal_entropies(weights)
    ws = TileWorkspace()
    tile = fused_tile_size(m, b)
    backend = sparse_backend()

    # Correctness guards (run in smoke mode too).
    grid = tile_grid(n, tile)
    for t in list(grid)[:4]:
        ref = mi_tile(weights[t.i0:t.i1], weights[t.j0:t.j1],
                      h_i=h[t.i0:t.i1], h_j=h[t.j0:t.j1])
        got = mi_tile_sparse_block(weights, t.i0, t.i1, t.j0, t.j1,
                                   h_i=h[t.i0:t.i1], h_j=h[t.j0:t.j1],
                                   workspace=ws)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)

    # Steady state: operands hoisted once, as run_tile_plan warms them.
    prepare_operands(weights)
    prepare_operands(weights, np.float32)
    prepare_packed(weights)
    prepare_packed(weights, np.float32)

    rounds = _time_interleaved({
        "fused64": lambda: _fused_blocks(weights, h, tile, ws),
        "fused32": lambda: _fused_blocks(weights, h, tile, ws,
                                         dtype="float32"),
        "sparse64": lambda: _sparse_blocks(weights, h, tile, ws),
        "sparse32": lambda: _sparse_blocks(weights, h, tile, ws,
                                           dtype="float32"),
    })

    # The b=30 scaling point: same genes, re-binned.  The sparse tier's
    # work is O(k^2) per sample while the GEMM's is O(b^2), so tripling b
    # leaves the scatter almost flat and triples the GEMM row length.
    b30 = 30
    gen = np.random.default_rng(32)
    data = rank_transform(gen.normal(size=(min(n, 256), m)))
    w30 = weight_tensor(data, bins=b30, order=ORDER)
    h30 = marginal_entropies(w30)
    t30 = fused_tile_size(m, b30)
    ws30 = TileWorkspace()
    prepare_operands(w30)
    prepare_packed(w30)
    rounds30 = _time_interleaved({
        "fused64": lambda: _fused_blocks(w30, h30, t30, ws30),
        "sparse64": lambda: _sparse_blocks(w30, h30, t30, ws30),
    })

    # Packed transport bytes: what an elastic worker receives when the
    # driver ships PackedWeightSource instead of the dense tensor.
    from repro.core.exec import PackedWeightSource, TensorSource

    packed_src = PackedWeightSource.from_source(TensorSource(weights))
    dense_bytes = len(pickle.dumps(weights, protocol=5))
    packed_bytes = len(pickle.dumps(packed_src, protocol=5))
    transport_reduction = dense_bytes / packed_bytes

    def row(kernel, name, rnds=rounds, bins=b):
        return {"kernel": kernel, "bins": str(bins),
                "time": f"{_median_time(rnds, name) * 1e3:.1f} ms",
                "speedup": f"{_median_speedup(rnds, name):.2f}x"}

    rows = [
        row("fused float64 (E30 baseline)", "fused64"),
        row("fused float32 GEMM", "fused32"),
        row(f"sparse float64 [{backend}]", "sparse64"),
        row(f"sparse float32 [{backend}]", "sparse32"),
        row("fused float64", "fused64", rounds30, b30),
        row(f"sparse float64 [{backend}]", "sparse64", rounds30, b30),
        {"kernel": "packed transport (elastic)", "bins": str(b),
         "time": f"{packed_bytes / 1e6:.2f} MB vs {dense_bytes / 1e6:.2f} MB",
         "speedup": f"{transport_reduction:.2f}x fewer bytes"},
    ]
    title = (f"Sparse kernel tier [{backend}], n={n}, m={m}, k={ORDER}"
             + (" (smoke)" if SMOKE else ""))
    report("E32", title, rows, metrics={
        "backend": backend,
        "sparse64_speedup_b10": _median_speedup(rounds, "sparse64"),
        "sparse32_speedup_b10": _median_speedup(rounds, "sparse32"),
        "sparse64_speedup_b30": _median_speedup(rounds30, "sparse64"),
        "transport_byte_reduction": transport_reduction,
    })

    # Packed transport must shrink by at least the layout ratio at
    # b=10/k=3 float64 (28/80 of the dense bytes, ~2.8x) — holds in smoke
    # mode too, it is a property of the layout, not of the machine.
    assert transport_reduction >= 2.5

    if SMOKE:
        return
    # Timing floors (see EXPERIMENTS.md E32 for the honest ceiling
    # analysis; measured 1.60x and 1.85x on the reference host, floors set
    # with slack for noisier machines): the sparse float32 tier must beat
    # the fused float64 baseline, and b=30 is where the O(k^2) vs O(b^2)
    # scaling shows for the float64 tier.
    assert _median_speedup(rounds, "sparse32") >= 1.3
    assert _median_speedup(rounds30, "sparse64") >= 1.5


def test_sparse_numpy_fallback_bit_identity(sparse_weights):
    """The pure-numpy tier reproduces the compiled backend bit for bit."""
    from repro.core.sparsekernel import _reset_backend_cache

    weights = sparse_weights[:16]
    h = marginal_entropies(weights)
    native = mi_tile_sparse_block(weights, 0, 8, 8, 16,
                                  h_i=h[:8], h_j=h[8:16])
    os.environ["REPRO_SPARSE_BACKEND"] = "numpy"
    _reset_backend_cache()
    try:
        fallback = mi_tile_sparse_block(weights, 0, 8, 8, 16,
                                        h_i=h[:8], h_j=h[8:16])
    finally:
        os.environ.pop("REPRO_SPARSE_BACKEND", None)
        _reset_backend_cache()
    assert np.array_equal(native, fallback)


def test_sparse_float32_tolerance(sparse_weights):
    """Sparse mixed precision stays within the fused kernel's tolerance."""
    weights = sparse_weights[:24]
    h = marginal_entropies(weights)
    ws = TileWorkspace()
    ref = mi_tile(weights[:12], weights[12:24], h_i=h[:12], h_j=h[12:24])
    got = mi_tile_sparse_block(weights, 0, 12, 12, 24, h_i=h[:12],
                               h_j=h[12:24], workspace=ws, dtype="float32")
    assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)
