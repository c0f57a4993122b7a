import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from keycap import (
    NoConvergence,
    SolverConfig,
    maxentropic_scheme,
    mixed_gaussian_entropy_integral,
    plain_capacity,
    secret_key_capacity,
    secret_key_rate,
)
from keycap.solver import (
    _optimize_weights,
    _rate,
    _solve_fixed_k,
    project_simplex,
)


class TestProjectSimplex:
    @given(hnp.arrays(float, st.integers(1, 12),
                      elements=st.floats(-20, 20)))
    @settings(max_examples=200, deadline=None)
    def test_valid_projection(self, v):
        p = project_simplex(v)
        assert np.all(p >= 0.0)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)

    @given(hnp.arrays(float, st.integers(1, 8),
                      elements=st.floats(0.01, 1.0)))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point(self, v):
        v = v / v.sum()
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_known_value(self):
        np.testing.assert_allclose(
            project_simplex(np.array([1.0, 0.0])), [1.0, 0.0], atol=1e-15)


class TestWeightOptimizer:
    def test_stationarity_residual(self):
        channels = ((1.0, 1.0),)
        u = np.array([1.0])
        w, _, residual = _optimize_weights(u, np.array([1.0]), False,
                                           channels, 1e-9)
        assert residual <= 1e-9
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_improves_rate(self):
        channels = ((1.0, 1.0),)
        u = np.array([0.5, 2.0])
        w0 = np.array([0.9, 0.1])
        before = -np.inf
        w, after, _ = _optimize_weights(u, w0, False, channels, 1e-9)
        pts = np.concatenate([-u[::-1], u])
        pr0 = np.concatenate([w0[::-1], w0]) / 2.0
        before = _rate(pts, pr0, channels)
        assert after >= before - 1e-12


class TestPlainCapacity:
    def test_small_amplitude_two_point(self):
        # below the first escalation threshold the optimum is +-A with
        # equal weights, so the rate has the closed form A^2 - I(A)
        rep = plain_capacity(0.5, 1.0, SolverConfig(restarts=2))
        assert rep.converged
        assert rep.num_points_K == 2
        np.testing.assert_allclose(rep.distribution.points, [-0.5, 0.5],
                                   atol=1e-8)
        np.testing.assert_allclose(rep.distribution.probs, [0.5, 0.5],
                                   atol=1e-8)
        expected = 0.25 - mixed_gaussian_entropy_integral(0.5)
        assert rep.rate_nats == pytest.approx(expected, abs=1e-6)

    def test_below_awgn_capacity(self):
        rep = plain_capacity(1.5, 1.0, SolverConfig(restarts=2))
        assert 0.0 < rep.rate_nats < 0.5 * math.log(1.0 + 1.5**2)

    def test_kkt_certificate(self):
        rep = plain_capacity(1.0, 1.0, SolverConfig(restarts=2))
        assert rep.kkt_max_violation <= 1e-6
        s_max = max(s for _, s in rep.kkt_grid)
        assert s_max <= rep.rate_nats + 2e-6


class TestSecretKeyCapacity:
    def test_small_amplitude_matches_two_point_scheme(self, fig1_params,
                                                      fast_cfg):
        p = fig1_params(0.5)
        rep = secret_key_capacity(p, fast_cfg)
        assert rep.converged and rep.num_points_K == 2
        direct = secret_key_rate(p, maxentropic_scheme(p.amplitude, 2)).nats
        assert rep.rate_nats == pytest.approx(direct, abs=1e-8)

    def test_symmetric_solution(self, fig1_params, fast_cfg):
        rep = secret_key_capacity(fig1_params(2.0), fast_cfg)
        pts = np.asarray(rep.distribution.points)
        pr = np.asarray(rep.distribution.probs)
        np.testing.assert_allclose(pts, -pts[::-1], atol=1e-7)
        np.testing.assert_allclose(pr, pr[::-1], atol=1e-7)

    def test_rate_monotone_in_amplitude(self, fig1_params, fast_cfg):
        r_lo = secret_key_capacity(fig1_params(0.5), fast_cfg).rate_nats
        r_hi = secret_key_capacity(fig1_params(1.0), fast_cfg).rate_nats
        assert r_hi > r_lo

    def test_escalation_sound(self, fig1_params, fast_cfg):
        # allowing one more mass point can never reduce the optimized rate
        p = fig1_params(0.5)
        from keycap.channel import equivalent_channel
        eq = equivalent_channel(p)
        channels = ((math.sqrt(eq.var_eq), 1.0), (math.sqrt(eq.var_e), -1.0))
        rng = np.random.default_rng(0)
        r2 = _rate(*_solve_fixed_k(2, p.amplitude, channels, fast_cfg, rng),
                   channels)
        r3 = _rate(*_solve_fixed_k(3, p.amplitude, channels, fast_cfg, rng),
                   channels)
        assert r3 >= r2 - 1e-9

    def test_no_convergence_when_budget_too_small(self, fig1_params):
        cfg = SolverConfig(max_K=2, restarts=1)
        with pytest.raises(NoConvergence):
            secret_key_capacity(fig1_params(2.0), cfg)


class TestSolverConfigContract:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(kkt_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_K=0)
        with pytest.raises(ValueError):
            SolverConfig(max_K=1)  # escalation starts at K=2
        with pytest.raises(ValueError):
            SolverConfig(kkt_tolerance=math.nan)
        with pytest.raises(ValueError):
            SolverConfig(inner_opt_tolerance=math.inf)
