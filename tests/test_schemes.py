import math

import numpy as np
import pytest

from keycap import (
    ChannelParams,
    TruncatedGaussianScheme,
    maxentropic_scheme,
    numerics,
    secret_key_capacity,
    secret_key_rate,
)
from keycap.bounds import high_a_limit
from keycap.channel import secret_key_rates
from keycap.numerics import scheme_output_density
from keycap.schemes import (
    best_maxentropic,
    optimize_truncated_gaussian,
    truncated_gaussian_rate,
    uniform_scheme_rate,
)
from support import exhaustive_maxentropic, full_grid_truncated_gaussian


class TestMaxentropicScheme:
    def test_point_layouts(self):
        np.testing.assert_allclose(
            maxentropic_scheme(1.0, 2).points, [-1.0, 1.0])
        np.testing.assert_allclose(
            maxentropic_scheme(1.0, 3).points, [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(
            maxentropic_scheme(2.0, 5).points,
            [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_equal_weights(self):
        s = maxentropic_scheme(1.5, 4)
        np.testing.assert_allclose(s.probs, [0.25] * 4)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            maxentropic_scheme(1.0, 1)

    def test_rejects_non_integer_counts(self):
        # a ValueError, as from best_maxentropic and SolverConfig, not
        # np.linspace's TypeError; NumPy integers count as their int
        for count in (3.0, 2.5, math.nan, "3"):
            with pytest.raises(ValueError, match="integer >= 2"):
                maxentropic_scheme(1.0, count)
        assert len(maxentropic_scheme(1.0, np.int64(3)).points) == 3

    @pytest.mark.parametrize("amplitude", [1e-10, 1.0, 100.0])
    def test_exactly_mirror_symmetric(self, amplitude):
        # what lets the entropy rule fold every maxentropic law onto t >= 0
        for k in range(2, 33):
            dist = maxentropic_scheme(amplitude, k)
            assert dist.points == tuple(-x for x in reversed(dist.points)), k
            assert dist.probs == dist.probs[::-1], k
            assert (dist.points[0], dist.points[-1]) == (-amplitude, amplitude)

    def test_points_are_python_floats(self):
        # so that a law prints as numbers, not np.float64(...) under numpy 2
        for k in (2, 3, 8):
            dist = maxentropic_scheme(math.sqrt(2.0), k)
            assert all(type(x) is float for x in dist.points + dist.probs)
            assert "np." not in repr(dist)


@pytest.mark.parametrize("a2", [1e-4, 0.5, 49.0, 1e4])
def test_batched_rates_equal_single_rates(a2, fig1_params):
    # the two scheme families, each one batch, against one scheme at a time
    p = fig1_params(a2)
    a = p.amplitude
    families = [
        [maxentropic_scheme(a, k) for k in range(2, 33)],
        [TruncatedGaussianScheme(a, s)
         for s in np.geomspace(a / 100.0, 100.0 * a, 50)],
    ]
    for family in families:
        batch = secret_key_rates(p, family)
        assert len(batch) == len(family)
        for scheme, rate in zip(family, batch):
            single = secret_key_rate(p, scheme)
            assert abs(rate.nats - single.nats) <= 1e-14, scheme
            assert abs(rate.quad_error - single.quad_error) <= 1e-14, scheme


class TestBestMaxentropic:
    def test_small_amplitude_prefers_two_points(self, fig1_params):
        k, rate = best_maxentropic(fig1_params(0.5), k_max=8)
        assert k == 2
        direct = secret_key_rate(fig1_params(0.5),
                                 maxentropic_scheme(0.5**0.5, 2)).nats
        assert rate.nats == pytest.approx(direct, abs=1e-12)

    def test_dominates_each_fixed_k(self, fig1_params):
        p = fig1_params(4.0)
        k, best = best_maxentropic(p, k_max=6)
        for kk in range(2, 7):
            r = secret_key_rate(p, maxentropic_scheme(p.amplitude, kk)).nats
            assert best.nats >= r - 1e-12

    def test_noise_level_rates_tie_to_smallest_k(self, fig1_params):
        # at A^2=1e-20 every K's rate is rounding noise (below 1e-15 nats
        # against entropy-rule error estimates of about 1.4e-14), so every
        # K ties
        k, rate = best_maxentropic(fig1_params(1e-20))
        assert k == 2
        assert abs(rate.nats) <= rate.quad_error

    def test_never_exceeds_capacity(self, fig1_params, fast_cfg):
        p = fig1_params(1.0)
        _, rate = best_maxentropic(p, k_max=8)
        cap = secret_key_capacity(p, fast_cfg).rate_nats
        assert rate.nats <= cap + 1e-8

    @pytest.mark.parametrize("var_e", [1.1, 2.0, 2.25, 10.0])
    def test_equals_the_exhaustive_search(self, var_e):
        # rates at rounding-noise level (A^2 = 1e-20 and 1e6, where every K
        # ties), best K on and between the ladder's rungs, best K at the cap
        for a2 in [1e-20, *np.geomspace(1e-3, 2e3, 12), 1e6]:
            p = ChannelParams(math.sqrt(a2), 1.0, var_e)
            for k_max in (2, 3, 5, 32):
                k, rate = best_maxentropic(p, k_max)
                want_k, want = exhaustive_maxentropic(p, k_max)
                assert k == want_k, (a2, k_max)
                assert abs(rate.nats - want.nats) <= 1e-12, (a2, k_max)

    @pytest.mark.parametrize("a2, var_e, want_k, bracket", [
        (1.0, 2.25, 2, []),  # best at the ladder's low end: no second batch
        (49.0, 2.25, 16, [12, 13, 14, 15, 17, 18, 19, 20, 21, 22]),
        (1e4, 2.0, 32, [24, 25, 26, 27, 28, 29, 30, 31]),  # at the cap
    ])
    def test_the_ladder_then_the_bracket(self, monkeypatch, a2, var_e,
                                         want_k, bracket):
        batches = []

        def recording(schemes, sigma):
            batches.append((sigma, [len(s.points) for s in schemes]))
            return scheme_output_density(schemes, sigma)

        monkeypatch.setattr(numerics, "scheme_output_density", recording)
        k, _ = best_maxentropic(ChannelParams(math.sqrt(a2), 1.0, var_e))
        assert k == want_k
        ladder = [2, 3, 4, 6, 8, 11, 16, 23, 32]
        sigmas = {sigma for sigma, _ in batches}
        assert len(sigmas) == 2
        for sigma in sigmas:
            counts = [c for s, c in batches if s == sigma]
            assert counts == ([ladder, bracket] if bracket else [ladder])

    @pytest.mark.parametrize("k_max", [np.int64(8), 8.0, 2.5, 1],
                             ids=["int64", "float-8", "float-2.5", "one"])
    def test_k_max_is_an_integer_of_at_least_2(self, fig1_params, k_max):
        # any Integral >= 2 counts as its int, as SolverConfig.max_K does;
        # anything else is a ValueError
        p = fig1_params(10.0)
        if isinstance(k_max, np.integer):
            k, rate = best_maxentropic(p, k_max)
            want_k, want = best_maxentropic(p, 8)
            assert (k, rate.nats) == (want_k, want.nats)
        else:
            with pytest.raises(ValueError, match="integer >= 2"):
                best_maxentropic(p, k_max)


class TestUniformScheme:
    def test_vanishes_with_amplitude(self, fig1_params):
        assert uniform_scheme_rate(fig1_params(1e-4)).nats < 1e-4

    def test_positive(self, fig1_params):
        assert uniform_scheme_rate(fig1_params(2.0)).nats > 0.0

    def test_high_amplitude_gap_scales_as_one_over_a(self, fig1_params):
        # for A >> sigma the rate sits c / A below 0.5 log(1 + var_e/var_d),
        # with c set by the noise profile of the two edges; at A^2 = 1e8 the
        # entropy window spans about 24 500 noise standard deviations
        gaps = []
        for a2 in (1e4, 1e8):
            p = fig1_params(a2)
            gaps.append(math.sqrt(a2)
                        * (high_a_limit(p) - uniform_scheme_rate(p).nats))
        assert gaps[1] == pytest.approx(gaps[0], rel=1e-6)


class TestTruncatedGaussian:
    def test_vanishes_with_input_power(self, fig1_params):
        # sigma_x -> 0 concentrates the input, so the rate collapses
        r = truncated_gaussian_rate(fig1_params(2.0), 1e-3)
        assert 0.0 <= r.nats < 1e-4

    def test_wide_prior_matches_uniform(self, fig1_params):
        p = fig1_params(2.0)
        r_tg = truncated_gaussian_rate(p, 1e5 * p.amplitude)
        r_un = uniform_scheme_rate(p)
        assert r_tg.nats == pytest.approx(r_un.nats, abs=1e-3)

    def test_optimizer_beats_heuristic(self, fig1_params):
        p = fig1_params(4.0)
        _, best = optimize_truncated_gaussian(p)
        heur = truncated_gaussian_rate(p, p.amplitude)
        assert best.nats >= heur.nats - 1e-9

    def test_below_capacity(self, fig1_params, fast_cfg):
        p = fig1_params(1.0)
        _, best = optimize_truncated_gaussian(p)
        cap = secret_key_capacity(p, fast_cfg).rate_nats
        assert best.nats <= cap + 1e-8

    @pytest.mark.parametrize("var_e", [1.1, 2.0, 2.25, 10.0, 100.0])
    def test_equals_the_full_grid_search(self, var_e):
        # the 9-point grid against the 50-point one: interior maxima and
        # maxima at the cap 100 A, which both grids end on; at A^2 = 1e-12
        # every rate is rounding noise, so only the rates must agree there
        for a2 in [1e-12, *np.geomspace(1e-3, 2e3, 12), 1e4]:
            p = ChannelParams(math.sqrt(a2), 1.0, var_e)
            sx, rate = optimize_truncated_gaussian(p)
            want_sx, want = full_grid_truncated_gaussian(p)
            if a2 == 1e-12:
                assert abs(rate.nats - want.nats) <= (
                    rate.quad_error + want.quad_error)
                continue
            assert abs(sx - want_sx) <= 1e-6 * p.amplitude, a2
            assert abs(rate.nats - want.nats) <= 1e-12, a2
