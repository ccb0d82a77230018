"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.bspline import weight_tensor
from repro.data.datasets import toy, yeast_subset


@pytest.fixture
def rng():
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def coupled_pair(rng):
    """(x, y, z): x and y strongly dependent, z independent of both."""
    x = rng.normal(size=400)
    y = x + 0.25 * rng.normal(size=400)
    z = rng.normal(size=400)
    return x, y, z


@pytest.fixture(scope="session")
def small_dataset():
    """A 30-gene ground-truth dataset (session-scoped: generation is pure)."""
    return toy(n_genes=30, m_samples=200, seed=7)


@pytest.fixture(scope="session")
def medium_dataset():
    """An 80-gene dataset with hubs and nonlinear links."""
    return yeast_subset(n_genes=80, m_samples=250, seed=3)


@pytest.fixture(scope="session")
def small_weights(small_dataset):
    """Weight tensor of the small dataset (rank-transformed)."""
    from repro.core.discretize import rank_transform

    return weight_tensor(rank_transform(small_dataset.expression), bins=10, order=3)


@pytest.fixture(scope="session")
def slab_source():
    """Factory of weight sources that only produce slabs.

    ``compute_tile`` stages such a source's operands per tile — packing
    each tile's two slabs separately for the sparse kernel — which is the
    path of every source without hoisted arrays.
    """
    from repro.core.entropy import marginal_entropies
    from repro.core.exec import WeightSource

    class SlabSource(WeightSource):
        def __init__(self, weights):
            super().__init__()
            self._weights = np.asarray(weights)
            self.n_genes, self.m_samples, self.bins = self._weights.shape
            self.dtype = self._weights.dtype

        def slab(self, a, b):
            return self._weights[a:b]

        def _compute_entropies(self, base):
            return marginal_entropies(self._weights, base=base)

    return SlabSource


@pytest.fixture
def elastic_engine():
    """An ElasticEngine whose 2 workers are threads in this process."""
    import threading

    from repro.cluster.elastic import ElasticEngine, worker_main

    eng = ElasticEngine(n_workers=2, spawn=False, heartbeat=0.5)
    threads = [
        threading.Thread(
            target=worker_main,
            args=(eng.coordinator.host, eng.coordinator.port),
            kwargs={"name": f"t{i}"}, daemon=True)
        for i in range(2)
    ]
    for t in threads:
        t.start()
    eng.coordinator.wait_for_workers(2, timeout=10)
    yield eng
    eng.close()
    for t in threads:
        t.join(timeout=5)
