"""Tests for the adaptive MI estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import mi_adaptive
from repro.core.mi import mi_bspline


class TestMiAdaptive:
    def test_independent_near_zero(self, rng):
        x = rng.normal(size=600)
        z = rng.normal(size=600)
        assert mi_adaptive(x, z) < 0.05

    def test_linear_dependence_close_to_truth(self, rng):
        # Bivariate normal with known MI = -0.5 ln(1 - rho^2).
        x = rng.normal(size=2000)
        y = x + 0.3 * rng.normal(size=2000)
        rho = 1 / np.sqrt(1 + 0.09)
        truth = -0.5 * np.log(1 - rho**2)
        est = mi_adaptive(x, y)
        assert truth * 0.5 < est < truth * 1.3

    def test_detects_quadratic(self, rng):
        x = rng.normal(size=800)
        q = x**2 + 0.1 * rng.normal(size=800)
        assert mi_adaptive(x, q) > 0.5

    def test_monotone_invariance(self, rng):
        x = rng.normal(size=400)
        y = x + 0.5 * rng.normal(size=400)
        assert mi_adaptive(x, y) == pytest.approx(
            mi_adaptive(np.exp(x), y**3), rel=1e-12
        )

    def test_symmetry(self, rng):
        x = rng.normal(size=300)
        y = x + rng.normal(size=300)
        assert mi_adaptive(x, y) == pytest.approx(mi_adaptive(y, x), rel=0.2)

    def test_ordering_matches_bspline(self, rng):
        x = rng.normal(size=500)
        noise = rng.normal(size=500)
        strong = x + 0.2 * noise
        weak = x + 2.0 * noise
        assert mi_adaptive(x, strong) > mi_adaptive(x, weak)
        assert mi_bspline(x, strong) > mi_bspline(x, weak)

    def test_stricter_significance_coarser(self, rng):
        x = rng.normal(size=500)
        y = x + 0.5 * rng.normal(size=500)
        loose = mi_adaptive(x, y, significance=0.10)
        strict = mi_adaptive(x, y, significance=0.001)
        assert loose >= strict - 0.05  # finer partition captures >= info

    def test_validation(self, rng):
        x = rng.normal(size=50)
        with pytest.raises(ValueError):
            mi_adaptive(x, x, significance=0.2)
        with pytest.raises(ValueError):
            mi_adaptive(x, x, min_cell=2)
        with pytest.raises(ValueError):
            mi_adaptive(x, rng.normal(size=49))
        with pytest.raises(ValueError):
            mi_adaptive(x, x, min_depth=20, max_depth=10)
        with pytest.raises(ValueError):
            mi_adaptive(np.zeros(4), np.zeros(4), min_cell=8)

    @given(seed=st.integers(0, 60), m=st.integers(50, 300))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative_property(self, seed, m):
        g = np.random.default_rng(seed)
        assert mi_adaptive(g.normal(size=m), g.normal(size=m)) >= 0.0
