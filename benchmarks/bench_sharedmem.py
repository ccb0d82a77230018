"""E26 — result transport: pickle-return vs write-in-place on one fork pool.

The paper's whole-genome runs work because all 240 Phi threads write
disjoint blocks of the MI matrix in place.  `map_supervised` ships every
block back to the parent through a pipe (pickle, copy, and a
parent-side reassembly loop); `map_into_supervised` has workers
attach the output matrix in shared memory and write their blocks
directly, so only task indices cross the pipe.  This bench measures both
transports on the same engine on a transport-dominated synthetic
workload, and reports the result bytes each moves through the pipe —
zero for write-in-place, by construction.
"""

import time

import numpy as np
import pytest

from repro.bench.reporting import format_seconds
from repro.parallel.engine import SharedMemoryEngine

N_BLOCKS = 24
EDGE = 256  # one synthetic result block: 256x256 float64 = 512 KiB
WORKER_COUNTS = [1, 2, 4]


def _block(k: int) -> np.ndarray:
    # Deliberately cheap compute: the workload is transport-dominated, so
    # the gap between the transports *is* the per-block transport cost.
    return np.full((EDGE, EDGE), float(k + 1))


def _return_block(k: int) -> np.ndarray:
    return _block(k)


def _write_block(out: np.ndarray, k: int) -> None:
    out[k * EDGE : (k + 1) * EDGE, :] = _block(k)


def _timed(fn, repeats: int = 3) -> float:
    """Best-of-N wall time (min filters single-core scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_transport_synthetic(report):
    expected = np.concatenate([_block(k) for k in range(N_BLOCKS)], axis=0)
    block_bytes = N_BLOCKS * EDGE * EDGE * 8
    rows = []
    for n_workers in WORKER_COUNTS:
        shm = SharedMemoryEngine(n_workers=n_workers)

        out_proc = np.zeros((N_BLOCKS * EDGE, EDGE))

        def via_pickle():
            blocks, failures = shm.map_supervised(_return_block, list(range(N_BLOCKS)))
            assert failures == {}
            for k, blk in enumerate(blocks):  # the reassembly loop
                out_proc[k * EDGE : (k + 1) * EDGE, :] = blk

        out_shm = np.zeros((N_BLOCKS * EDGE, EDGE))

        def in_place():
            assert shm.map_into_supervised(_write_block, list(range(N_BLOCKS)), out_shm) == {}

        t_proc = _timed(via_pickle)
        t_shm = _timed(in_place)
        assert np.array_equal(out_proc, expected)
        assert np.array_equal(out_shm, expected)
        rows.append({
            "workers": n_workers,
            "pickle-return": format_seconds(t_proc),
            "write-in-place": format_seconds(t_shm),
            "speedup": f"{t_proc / t_shm:.2f}x",
            "piped result MB (pickle)": f"{block_bytes / 1e6:.0f}",
            "piped result MB (shm)": "0",
        })
    report("E26", f"result transport, {N_BLOCKS} blocks of {EDGE}x{EDGE} float64", rows)


def test_transport_cost_is_eliminated(benchmark):
    """The headline number: one write-in-place pass, measured."""
    shm = SharedMemoryEngine(n_workers=2)
    out = np.zeros((N_BLOCKS * EDGE, EDGE))
    benchmark(lambda: shm.map_into_supervised(_write_block, list(range(N_BLOCKS)), out))
    assert np.array_equal(
        out, np.concatenate([_block(k) for k in range(N_BLOCKS)], axis=0))
