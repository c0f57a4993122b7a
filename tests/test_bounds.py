import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keycap import ChannelParams, SolverConfig, secret_key_capacity
from keycap.bounds import (
    high_a_limit,
    lower_bound_1,
    lower_bound_2,
    lower_bound_3,
    maximize_lower_bound_2,
    upper_bound,
)
from support import full_grid_lower_bound_2

HALF_LN3 = 0.5 * math.log(3.0)


def _params(a2, var_d=1.0, var_e=2.0):
    return ChannelParams(math.sqrt(a2), var_d, var_e)


class TestUpperBound:
    def test_closed_form(self):
        # 0.5 log(1 + A^2 var_e / ((A^2 + var_e) var_d)) at A^2 = 10
        assert upper_bound(_params(10.0)) == pytest.approx(
            0.5 * math.log1p(20.0 / 12.0), rel=1e-15)

    def test_monotone_in_amplitude(self):
        vals = [upper_bound(_params(a2)) for a2 in np.linspace(0.1, 50, 40)]
        assert np.all(np.diff(vals) > 0)

    def test_concave_in_a_squared(self):
        a2 = np.linspace(0.5, 60, 60)
        vals = np.array([upper_bound(_params(x)) for x in a2])
        assert np.all(np.diff(vals, 2) < 1e-12)

    def test_saturates_at_high_a_limit(self):
        p = _params(1e8)
        assert upper_bound(p) == pytest.approx(high_a_limit(p), abs=1e-7)
        assert high_a_limit(p) == pytest.approx(HALF_LN3, rel=1e-15)

    def test_symmetric_noise_limit(self):
        assert high_a_limit(_params(1.0, 1.0, 1.0)) == pytest.approx(
            0.5 * math.log(2.0), rel=1e-15)


class TestLowerBound2:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="positive and finite"):
            lower_bound_2(_params(1.0), 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            lower_bound_2(_params(1.0), -1.0)
        # NaN fails every comparison and inf makes the bound nan: both raise
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                lower_bound_2(_params(1.0), beta)

    def test_negative_at_moderate_amplitude(self):
        # this closed form only becomes useful at large amplitude
        for a2 in (0.5, 2.0, 5.0, 10.0):
            _, val = maximize_lower_bound_2(_params(a2))
            assert val < 0.0

    def test_maximizer_dominates_log_choice(self):
        for a2 in (100.0, 10**4, 10**6):
            p = _params(a2)
            beta = math.log(1.0 + 2.0 * p.amplitude / math.sqrt(2.0))
            _, val = maximize_lower_bound_2(p)
            assert val >= lower_bound_2(p, beta) - 1e-9

    def test_below_upper_bound(self):
        for a2 in (1.0, 100.0, 10**6):
            p = _params(a2)
            _, val = maximize_lower_bound_2(p)
            assert val <= upper_bound(p) + 1e-9

    def test_high_amplitude_convergence(self):
        gaps = []
        for a in (10.0, 100.0, 1000.0):
            p = _params(a * a)
            _, val = maximize_lower_bound_2(p)
            gaps.append(abs(val - upper_bound(p)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05

    def test_frozen_regression_values(self):
        # pinned from a dense beta scan; guards the literal formula
        p = _params(100.0**2)
        beta = math.log(1.0 + 200.0 / math.sqrt(2.0))
        assert lower_bound_2(p, beta) == pytest.approx(
            0.4816601819373407, abs=1e-12)
        beta_star, val = maximize_lower_bound_2(p)
        assert val == pytest.approx(0.49739875308349274, abs=1e-9)
        assert beta_star == pytest.approx(3.4730913841021, abs=1e-6)

    @pytest.mark.parametrize("var_e", [1.1, 2.0, 2.25, 10.0, 100.0])
    def test_equals_the_full_grid_search(self, var_e):
        # the 25-point beta grid against the 200-point one; at A^2 = 1e-12
        # the bound is flat in beta to rounding, so only LB2 must agree there
        for a2 in [1e-12, *np.geomspace(1e-3, 2e3, 12), 1e4]:
            p = _params(a2, 1.0, var_e)
            beta, lb2 = maximize_lower_bound_2(p)
            want_beta, want = full_grid_lower_bound_2(p)
            assert abs(lb2 - want) <= 1e-12, a2
            if a2 != 1e-12:
                assert abs(beta - want_beta) <= 1e-6, a2


class TestLowerBound3:
    def test_vanishes_with_amplitude(self):
        assert lower_bound_3(_params(1e-12)) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_value(self):
        # (var_d, var_e) = (1, 2), A^2 = 10, var_eq = 2/3
        pe = math.pi * math.e
        expected = 0.5 * math.log((90.0 + 3.0 * pe) / (5.0 * pe + 3.0 * pe))
        assert lower_bound_3(_params(10.0)) == pytest.approx(
            expected, rel=1e-14)
        assert lower_bound_3(_params(10.0)) == pytest.approx(
            0.2630653139794795, abs=1e-12)

    def test_below_upper_bound(self):
        for a2 in (0.1, 1.0, 10.0, 1000.0):
            assert lower_bound_3(_params(a2)) <= upper_bound(_params(a2)) + 1e-9


class TestLowerBound1:
    def test_matches_capacity_at_small_amplitude(self, fast_cfg):
        p = _params(0.5)
        lb1 = lower_bound_1(p, fast_cfg).nats
        ck = secret_key_capacity(p, fast_cfg).rate_nats
        assert abs(lb1 - ck) < 1e-3
        assert lb1 <= ck + 1e-6

    def test_vanishing_eavesdropper(self, fast_cfg):
        # sigma_E -> infinity: C_E -> 0 and the bound approaches the plain
        # capacity of the legitimate channel
        from keycap.solver import plain_capacity
        p = ChannelParams(1.0, 1.0, 1e8)
        lb1 = lower_bound_1(p, fast_cfg).nats
        direct = plain_capacity(1.0, 1.0, fast_cfg).rate_nats
        assert lb1 == pytest.approx(direct, abs=1e-6)

    def test_rate_result(self, fast_cfg):
        # C_BE - C_E, carrying the sum of the two solves' entropy-rule errors
        from keycap.solver import plain_capacity
        p = _params(2.0)
        lb1 = lower_bound_1(p, fast_cfg)
        be = plain_capacity(p.amplitude, math.sqrt(2.0 / 3.0), fast_cfg)
        e = plain_capacity(p.amplitude, math.sqrt(2.0), fast_cfg)
        assert lb1.nats == be.rate_nats - e.rate_nats
        assert lb1.quad_error == be.quad_error + e.quad_error > 0.0


class TestBoundsReport:
    """The bounds of one operating point against each other."""

    def test_invariants(self):
        p = _params(10.0)
        ub = upper_bound(p)
        assert lower_bound_3(p) <= ub + 1e-9
        assert maximize_lower_bound_2(p)[1] <= ub + 1e-9
        assert high_a_limit(p) == pytest.approx(HALF_LN3, rel=1e-15)

    def test_with_solver(self):
        p = _params(0.5)
        lb1 = lower_bound_1(p, SolverConfig()).nats
        assert lb1 <= upper_bound(p) + 1e-6


class TestBoundsBracketCapacity:
    @given(a2=st.floats(0.05, 2.0), var_d=st.floats(0.5, 4.0),
           var_e=st.floats(0.5, 4.0))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_random_operating_points(self, a2, var_d, var_e):
        p = _params(a2, var_d, var_e)
        cfg = SolverConfig()
        rep = secret_key_capacity(p, cfg)
        lower = max(lower_bound_1(p, cfg).nats, maximize_lower_bound_2(p)[1],
                    lower_bound_3(p))
        assert lower <= rep.rate_nats + 1e-9
        assert rep.rate_nats <= upper_bound(p) + 1e-9
        assert rep.kkt_max_violation <= 1e-6
