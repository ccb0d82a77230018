"""Property-based tests (hypothesis) for NetworkUpdater streaming updates.

Two properties pin the streaming contract over *random* histories:

* any history of ``add_samples`` batches, of any sizes, yields a network
  bit-identical to a from-scratch pipeline run on the final dataset (same
  threshold, same adjacency, same edge weights); and
* the dirty-tile screen is conservative — it never skips a pair whose
  recomputed MI lands at-or-above the new threshold, for any batch size
  and any safety margin the strategy throws at it.

Sizes are kept deliberately small (n <= 12, m <= 55) so the suite stays
in tier-1 time; the deterministic fixtures in
``test_incremental_streaming.py`` cover the realistic-scale cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import NetworkUpdater
from repro.core.mi_matrix import mi_matrix
from repro.core.pipeline import TingeConfig, reconstruct_network

CONFIG = TingeConfig(n_permutations=5, n_null_pairs=20, alpha=0.05,
                     seed=1, tile=4)


def _make_data(seed: int, n: int, m: int) -> np.ndarray:
    """Mostly-null data with a few coupled pairs, so edges exist to churn."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, m))
    for k in range(max(n // 5, 1)):
        data[2 * k + 1] = data[2 * k] + 0.3 * rng.normal(size=m)
    return data


def _identical(updater, reference) -> None:
    net, ref = updater.network, reference.network
    assert net.threshold == ref.threshold
    assert np.array_equal(net.adjacency, ref.adjacency)
    assert np.array_equal(net.weights[ref.adjacency],
                          ref.weights[ref.adjacency])


class TestInterleavingsMatchScratch:
    @given(
        seed=st.integers(0, 10_000),
        batches=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_history_bit_identical(self, seed, batches):
        n, m = 10, 40
        full = _make_data(seed, n, m + sum(batches))
        res = reconstruct_network(full[:, :m], config=CONFIG)
        u = NetworkUpdater.from_result(res, full[:, :m])
        col = m
        for dm in batches:
            assert u.add_samples(full[:, col:col + dm]) is not None
            col += dm
        _identical(u, reconstruct_network(full, config=CONFIG))

    @given(seed=st.integers(0, 10_000), dm=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_increment_matches_scratch_on_grown(self, seed, dm):
        n, m = 12, 50
        full = _make_data(seed, n, m + dm)
        data, new = full[:, :m], full[:, m:]
        res = reconstruct_network(data, config=CONFIG)
        u = NetworkUpdater.from_result(res, data)
        assert u.add_samples(new) is not None
        _identical(u, reconstruct_network(full, config=CONFIG))


class TestScreenNeverSkips:
    @given(
        seed=st.integers(0, 10_000),
        dm=st.integers(1, 4),
        safety=st.floats(1.0, 8.0),
        n_probes=st.integers(8, 64),
    )
    @settings(max_examples=10, deadline=None)
    def test_no_crossing_pair_is_skipped(self, seed, dm, safety, n_probes):
        """Audit against the full matrix: every pair whose true grown MI
        is above the new threshold must have been recomputed (bitwise
        equal), whatever calibration the screen ran with."""
        n, m = 12, 50
        full = _make_data(seed, n, m + dm)
        data, new = full[:, :m], full[:, m:]
        res = reconstruct_network(data, config=CONFIG)
        u = NetworkUpdater.from_result(res, data)
        delta = u.add_samples(new, n_probes=n_probes, safety=safety)
        assert delta is not None

        res_full = reconstruct_network(full, config=CONFIG)
        mi_full, thr = res_full.mi, res_full.network.threshold
        above = (mi_full > thr) | (u.mi > thr)
        assert np.array_equal(u.mi[above], mi_full[above])
        # And the stale remainder is provably unable to flip an edge:
        stale = u.mi != mi_full
        assert not (mi_full[stale] > thr).any()
        assert not (u.mi[stale] > thr).any()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_screened_mi_entries_match_where_recomputed(self, seed):
        """Recomputed entries are bitwise the full kernel's output (the
        replay runs the same compute_tile on the same grown tensor)."""
        n, m, dm = 10, 40, 2
        full = _make_data(seed, n, m + dm)
        data, new = full[:, :m], full[:, m:]
        res = reconstruct_network(data, config=CONFIG)
        u = NetworkUpdater.from_result(res, data)
        mi_before = u.mi
        assert u.add_samples(new) is not None
        changed = u.mi != mi_before
        from repro.core.bspline import weight_tensor
        from repro.core.discretize import rank_transform

        mi_full = mi_matrix(weight_tensor(rank_transform(full))).mi
        assert np.array_equal(u.mi[changed], mi_full[changed])
