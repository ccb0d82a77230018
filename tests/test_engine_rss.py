"""Peak memory of the MI phase per engine, each run in a fresh process.

Every engine hands each tile's block back and the parent writes it into
the one ``(n, n)`` matrix, so a fork run holds no second dense copy of
the result: its peak resident set (``VmHWM``) stays within half a matrix
of the serial run's.  A shared-memory stage of the output would add a
whole one (33.5 MB at 2,048 genes).
"""

import os
import subprocess
import sys

import pytest

import repro

N_GENES, M_SAMPLES = 2048, 64

SCRIPT = """
import sys
import numpy as np
from repro.core.bspline import weight_tensor
from repro.core.mi_matrix import mi_matrix
from repro.parallel.engine import SharedMemoryEngine

n, m, kind = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
weights = weight_tensor(np.random.default_rng(0).normal(size=(n, m)), bins=10, order=3)
engine = SharedMemoryEngine(n_workers=2) if kind == "sharedmem" else None
mi_matrix(weights, engine=engine)
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def peak_rss_bytes(kind: str) -> int:
    """``VmHWM`` of a fresh interpreter that ran one ``mi_matrix``."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(N_GENES), str(M_SAMPLES), kind],
        env=env, capture_output=True, text=True, timeout=600, check=True)
    return int(out.stdout.split()[-1]) * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM needs procfs")
def test_fork_engine_peak_rss_within_half_a_matrix_of_serial():
    serial = peak_rss_bytes("serial")
    fork = peak_rss_bytes("sharedmem")
    half_matrix = N_GENES * N_GENES * 8 // 2
    assert fork - serial <= half_matrix, (
        f"fork peak {fork / 2**20:.1f} MB vs serial {serial / 2**20:.1f} MB")
