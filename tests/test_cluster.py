"""Tests for repro.cluster: the distributed run and its traffic metering.

A distributed run is the ordinary pipeline over an
:class:`~repro.cluster.elastic.ElasticEngine`.  The workers here are
threads in this process (``spawn=False`` plus ``worker_main``), so the
tests exercise the real socket protocol without spawning subprocesses.
"""

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.cluster.comm import CommMeter
from repro.cluster.elastic import ElasticEngine, worker_main
from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.mi_matrix import mi_matrix
from repro.data import yeast_subset


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


def _distributed(data, genes, cfg, p):
    with elastic_workers(p) as eng:
        return reconstruct_network(data, genes, cfg, engine=eng)


class TestCommMetering:
    def test_call_counts(self):
        meter = CommMeter()
        meter.record("barrier", 0.0)
        meter.record("bcast", 8.0)
        meter.record("bcast", 8.0)
        assert meter.calls == {"barrier": 1, "bcast": 2}
        assert meter.volume_bytes == 16.0

    def test_p2p_send_metered_per_peer(self):
        meter = CommMeter()
        meter.record_send("rank2", 80.0)
        meter.record_recv("rank0", 80.0)
        # The receive is the sender's bytes seen again: not re-counted.
        assert meter.volume_bytes == 80.0
        counters = meter.peer_counters()
        assert counters["comm.bytes_sent{peer=rank2}"] == 80.0
        assert counters["comm.bytes_recv{peer=rank0}"] == 80.0


class TestDistributedReconstruct:
    @pytest.fixture(scope="class")
    def dataset(self):
        return yeast_subset(n_genes=36, m_samples=150, seed=20)

    @pytest.fixture(scope="class")
    def cfg(self):
        # tile=6 gives 21 tiles, more than any worker count used here.
        return TingeConfig(n_permutations=15, n_null_pairs=50, alpha=0.01,
                           seed=7, tile=6)

    @pytest.fixture(scope="class")
    def serial(self, dataset, cfg):
        return reconstruct_network(dataset.expression, dataset.genes, cfg)

    def test_matches_serial_pipeline(self, dataset, cfg, serial):
        dist = _distributed(dataset.expression, dataset.genes, cfg, p=4)
        assert np.array_equal(dist.mi, serial.mi)
        assert dist.network.threshold == serial.network.threshold
        assert np.array_equal(dist.network.adjacency, serial.network.adjacency)
        assert dist.network.edge_list() == serial.network.edge_list()

    def test_rank_count_invariance(self, dataset, cfg, serial):
        for p in (1, 2, 5):
            dist = _distributed(dataset.expression, dataset.genes, cfg, p)
            assert np.array_equal(dist.mi, serial.mi)
            assert dist.network.threshold == serial.network.threshold

    def test_single_rank_equals_serial_mi(self, dataset):
        w = weight_tensor(rank_transform(dataset.expression))
        with elastic_workers(1) as eng:
            dist = mi_matrix(w, tile=6, engine=eng)
            owners = eng.last_graph.owners()
        assert np.array_equal(dist.mi, mi_matrix(w, tile=6).mi)
        assert list(owners.values()) == [dist.n_tiles]

    def test_every_worker_runs_tiles(self, dataset):
        w = weight_tensor(rank_transform(dataset.expression))
        with elastic_workers(4) as eng:
            res = mi_matrix(w, tile=6, engine=eng)
            owners = eng.last_graph.owners()
        # Assignment is pull-based, so the split is not fixed, but the
        # first feed hands every joined worker a tile.
        assert len(owners) == 4 and min(owners.values()) >= 1
        assert sum(owners.values()) == res.n_tiles

    def test_more_ranks_than_genes_tolerated(self):
        ds = yeast_subset(n_genes=6, m_samples=60, seed=1)
        cfg = TingeConfig(n_permutations=5, seed=0)
        serial = reconstruct_network(ds.expression, ds.genes, cfg)
        dist = _distributed(ds.expression, ds.genes, cfg, p=10)
        assert dist.network.n_genes == 6
        assert np.array_equal(dist.mi, serial.mi)

    def test_allgather_volume_matches_alpha_beta_model(self, dataset):
        """Each added worker costs one weight tensor W on the wire.

        The coordinator ships the task payload (weights included) once per
        worker, so the MI phase moves P * W plus small per-tile messages.
        The cluster cost model's ring allgather moves (P - 1) * W: the
        same W per added rank, offset by one W because the coordinator
        holds the tensor without being a worker.
        """
        w = weight_tensor(rank_transform(dataset.expression), dtype=np.float32)
        big_w = float(w.nbytes)
        volumes = {}
        for p in (1, 2, 4):
            with elastic_workers(p) as eng:
                mi_matrix(w, tile=6, engine=eng)
                volumes[p] = eng.meter.volume_bytes
                sent = list(eng.meter.sent_by_peer.values())
            assert len(sent) == p and min(sent) >= big_w
        for lo, hi in ((1, 2), (2, 4)):
            per_worker = (volumes[hi] - volumes[lo]) / (hi - lo)
            assert per_worker == pytest.approx(big_w, rel=0.02)
        assert volumes[1] == pytest.approx(big_w, rel=0.02)
