"""Second round of property-based tests: offload, exact, comparison.

Complements ``test_properties.py`` with invariants for the modules added
after it: the offload schedule, the fused exact kernel, and the
network-comparison metrics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compare import compare_networks
from repro.core.bspline import weight_tensor
from repro.core.exact import exact_mi_pvalues
from repro.core.network import GeneNetwork
from repro.core.threshold import top_k_adjacency
from repro.machine.offload import offload_plan
from repro.machine.spec import XEON_PHI_5110P


class TestOffloadProperties:
    @given(
        bytes_in=st.floats(1e3, 1e11),
        compute=st.floats(1e-3, 1e4),
        chunks=st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_overlap_bounds(self, bytes_in, compute, chunks):
        plan = offload_plan(XEON_PHI_5110P, bytes_in, 1e5, compute, n_chunks=chunks)
        # Overlapped schedule is bounded by the serial one and below by the
        # slower of the two resources.
        assert plan.overlapped_s <= plan.serial_s + 1e-12
        assert plan.overlapped_s >= max(plan.compute_s, plan.transfer_in_s) - 1e-9
        assert 0.0 <= plan.overlap_benefit <= 1.0
        assert 0.0 <= plan.bus_fraction_serial <= 1.0


class TestExactProperties:
    @given(seed=st.integers(0, 30), q=st.integers(1, 10))
    @settings(max_examples=10, deadline=None)
    def test_pvalue_grid_property(self, seed, q):
        """Exact p-values live exactly on the add-one grid k/(q+1)."""
        rng = np.random.default_rng(seed)
        w = weight_tensor(rng.normal(size=(5, 40)))
        res = exact_mi_pvalues(w, n_permutations=q, seed=seed)
        iu = np.triu_indices(5, k=1)
        scaled = res.pvalues[iu] * (q + 1)
        assert np.allclose(scaled, np.round(scaled))
        assert res.pvalues[iu].min() >= 1.0 / (q + 1) - 1e-12


class TestCompareProperties:
    @given(seed=st.integers(0, 100), n=st.integers(3, 10),
           ka=st.integers(0, 10), kb=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_comparison_symmetry_and_bounds(self, seed, n, ka, kb):
        rng = np.random.default_rng(seed)
        s = rng.uniform(size=(n, n))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 0)
        genes = [f"g{i}" for i in range(n)]
        s2 = rng.uniform(size=(n, n))
        s2 = (s2 + s2.T) / 2
        np.fill_diagonal(s2, 0)
        a = GeneNetwork(top_k_adjacency(s, ka), s, genes)
        b = GeneNetwork(top_k_adjacency(s2, kb), s2, genes)
        ab = compare_networks(a, b)
        ba = compare_networks(b, a)
        assert ab.jaccard == ba.jaccard
        assert ab.hamming == ba.hamming
        assert (ab.n_only_a, ab.n_only_b) == (ba.n_only_b, ba.n_only_a)
        assert 0.0 <= ab.jaccard <= 1.0
