"""E19 (ablation) — distributed TINGe on the elastic engine, executed and metered.

A distributed run is the ordinary pipeline over an
:class:`~repro.cluster.elastic.ElasticEngine`.  Here its ``P`` workers are
threads in this process (``spawn=False`` plus ``worker_main``), so the
real socket protocol and its byte metering run without subprocesses.
For P ∈ {1, 2, 4, 8} the experiment reports:

* the full pipeline's MI matrix, threshold and edge list, asserted
  bitwise equal to the serial pipeline at every P;
* the MI phase's metered wire bytes (``mi_matrix`` alone over a fresh
  engine) and the tiles each worker ran (assignment is pull-based, so
  the split varies from run to run);
* the byte increment per added worker, asserted equal to the weight
  tensor's size W within 2%.

The coordinator ships the task payload, weights included, once per
worker, so the MI phase moves P·W.  The ring allgather that
:func:`repro.baselines.cluster_tinge.estimate_cluster_run` charges moves
(P−1)·W: the same W per added rank, offset by one W because the
coordinator holds the tensor without being a worker.  The pipeline total
also carries the null phase's payload (the sampled gene slabs), which is
why it is reported separately and not asserted.
"""

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.cluster.elastic import ElasticEngine, worker_main
from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.mi_matrix import mi_matrix
from repro.data import yeast_subset

N_GENES = 48
M_SAMPLES = 200
TILE = 8  # 21 tiles: at least one per worker at every P
WORKERS = (1, 2, 4, 8)


@contextmanager
def elastic_workers(p):
    """An ElasticEngine with ``p`` in-process worker threads, all joined."""
    eng = ElasticEngine(n_workers=p, spawn=False, heartbeat=0.5)
    threads = [
        threading.Thread(
            target=worker_main,
            args=(eng.coordinator.host, eng.coordinator.port),
            kwargs={"name": f"t{i}"}, daemon=True)
        for i in range(p)
    ]
    for t in threads:
        t.start()
    try:
        eng.coordinator.wait_for_workers(p, timeout=10)
        yield eng
    finally:
        eng.close()
        for t in threads:
            t.join(timeout=5)


@pytest.fixture(scope="module")
def dataset():
    return yeast_subset(n_genes=N_GENES, m_samples=M_SAMPLES, seed=33)


def test_distributed_scaling_table(benchmark, report, dataset):
    cfg = TingeConfig(n_permutations=10, seed=2, tile=TILE)
    serial = reconstruct_network(dataset.expression, dataset.genes, cfg)
    weights = weight_tensor(rank_transform(dataset.expression))
    w_bytes = float(weights.nbytes)

    rows, mi_bytes = [], {}
    for p in WORKERS:
        with elastic_workers(p) as eng:
            res = reconstruct_network(dataset.expression, dataset.genes, cfg,
                                      engine=eng)
            pipeline_bytes = eng.meter.volume_bytes
        assert np.array_equal(res.mi, serial.mi)
        assert res.network.threshold == serial.network.threshold
        assert res.network.edge_list() == serial.network.edge_list()

        with elastic_workers(p) as eng:
            mi = mi_matrix(weights, tile=TILE, engine=eng)
            mi_bytes[p] = eng.meter.volume_bytes
            tiles = sorted(eng.last_graph.owners().values())
        assert np.array_equal(mi.mi, serial.mi)
        assert len(tiles) == p and sum(tiles) == mi.n_tiles

        rows.append({
            "workers": p,
            "tiles/worker": f"{tiles[0]}-{tiles[-1]}",
            "MI-phase bytes": f"{mi_bytes[p] / 1e6:.3f} MB",
            "MI bytes / W": f"{mi_bytes[p] / w_bytes:.3f}",
            "ring allgather (P-1)W": f"{(p - 1) * w_bytes / 1e6:.3f} MB",
            "pipeline bytes": f"{pipeline_bytes / 1e6:.2f} MB",
            "MI/threshold == serial": "bitwise",
            "edges": res.network.n_edges,
        })

    def run_p4():
        with elastic_workers(4) as eng:
            return reconstruct_network(dataset.expression, dataset.genes, cfg,
                                       engine=eng)

    benchmark(run_p4)

    increments = [
        (mi_bytes[hi] - mi_bytes[lo]) / (hi - lo) / w_bytes
        for lo, hi in zip(WORKERS, WORKERS[1:])
    ]
    for row, inc in zip(rows, ["-"] + [f"{i:.4f}" for i in increments]):
        row["added bytes per worker / W"] = inc
    report("E19", f"distributed TINGe on ElasticEngine, n={N_GENES}, "
                  f"m={M_SAMPLES}, W={w_bytes / 1e6:.3f} MB", rows,
           metrics={"weight_bytes": w_bytes,
                    "mi_bytes_per_added_worker_over_w": increments})

    # Each added worker costs one weight tensor: W within 2%, the same
    # increment as the cost model's (P-1)·W ring allgather.
    for inc in increments:
        assert inc == pytest.approx(1.0, rel=0.02)
    assert mi_bytes[1] == pytest.approx(w_bytes, rel=0.02)
