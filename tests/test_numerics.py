import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from keycap import (
    DegenerateTruncation,
    DiscreteDistribution,
    QuadratureFailure,
    differential_entropy,
    density_discrete_conv,
    density_trunc_gauss_conv,
    density_uniform_conv,
    maxentropic_scheme,
    mixed_gaussian_entropy_integral,
    monte_carlo_mi_oracle,
    mutual_information,
    q_function,
)
from keycap.inputs import DiscreteScheme, UniformScheme, point_mass_scheme
from keycap.numerics import (
    QuadratureSpec,
    _log_mixture,
    density_variance,
    normalization_error,
)

H_STD_NORMAL = 0.5 * math.log(2.0 * math.pi * math.e)


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-16)

    def test_deep_tail(self):
        assert q_function(40.0) < 1e-300

    def test_against_erfc(self):
        # Q(1) = erfc(1/sqrt(2)) / 2
        assert float(q_function(1.0)) == pytest.approx(0.15865525393145705,
                                                       abs=1e-15)

    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        assert abs(float(q_function(x) + q_function(-x)) - 1.0) < 1e-15

    def test_monotone(self):
        xs = np.linspace(-10, 10, 401)
        assert np.all(np.diff(q_function(xs)) <= 0)
        # strictly decreasing wherever the tail is resolvable in doubles
        xs = np.linspace(-6, 6, 241)
        assert np.all(np.diff(q_function(xs)) < 0)


class TestUniformConvDensity:
    def test_value_at_zero(self):
        d = density_uniform_conv(1.0, 1.0)
        expected = 0.5 * (q_function(-1.0) - q_function(1.0))
        assert float(d(0.0)) == pytest.approx(float(expected), abs=1e-15)

    def test_small_noise_limit(self):
        d = density_uniform_conv(1.0, 1e-6)
        assert float(d(0.0)) == pytest.approx(0.5, abs=1e-6)

    def test_even(self):
        d = density_uniform_conv(2.0, 0.7)
        t = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(d(t), d(-t), rtol=0, atol=1e-15)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_normalized(self, amplitude, sigma):
        d = density_uniform_conv(amplitude, sigma)
        assert normalization_error(d) < 1e-9


class TestTruncGaussConvDensity:
    def test_normalized(self):
        assert normalization_error(density_trunc_gauss_conv(1, 1, 1)) < 1e-9

    def test_untruncated_limit_is_gaussian(self):
        # A = 50 sigma_x: weighting ~ 1, density is N(0, sigma^2 + sigma_x^2)
        d = density_trunc_gauss_conv(50.0, 1.0, 1.0)
        t = np.linspace(-3, 3, 13)
        gauss = np.exp(-t * t / 4.0) / math.sqrt(4.0 * math.pi)
        np.testing.assert_allclose(d(t), gauss, rtol=1e-12)

    def test_wide_sigma_x_matches_uniform(self):
        du = density_uniform_conv(1.0, 1.0)
        dt = density_trunc_gauss_conv(1.0, 1e6, 1.0)
        for t in (0.0, 1.0, -1.0):
            assert float(dt(t)) == pytest.approx(float(du(t)), abs=1e-3)

    def test_degenerate_truncation(self):
        with pytest.raises(DegenerateTruncation):
            density_trunc_gauss_conv(1.0, 1e9, 1.0)


class TestDiscreteConvDensity:
    def test_point_mass_is_shifted_gaussian(self):
        d = density_discrete_conv(DiscreteDistribution((0.0,), (1.0,)), 2.0)
        t = 1.3
        assert float(d(t)) == pytest.approx(
            math.exp(-t * t / 8.0) / (2.0 * math.sqrt(2 * math.pi)), rel=1e-14)

    def test_two_point_at_origin(self):
        d = density_discrete_conv(
            DiscreteDistribution((-1.0, 1.0), (0.5, 0.5)), 1.0)
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert float(d(0.0)) == pytest.approx(phi1, rel=1e-14)

    def test_normalized(self):
        d = density_discrete_conv(
            DiscreteDistribution((-2.0, 0.3, 1.0), (0.2, 0.5, 0.3)), 0.4)
        assert normalization_error(d) < 1e-9

    def test_scalar_in_scalar_out(self):
        d = density_discrete_conv(
            DiscreteDistribution((-1.0, 1.0), (0.5, 0.5)), 1.0)
        assert type(d(0.3)) is float
        assert type(d(np.asarray(0.3))) is float
        out = d(np.array([-0.5, 0.0, 0.3]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        assert out[2] == d(0.3)


def _scipy_log_mixture(y, points, log_probs, sigma):
    """Oracle for the mixture kernel, built on scipy's logsumexp."""
    z = (np.asarray(y)[..., None] - points) / sigma
    return (logsumexp(log_probs - 0.5 * z * z, axis=-1)
            - math.log(sigma * math.sqrt(2.0 * math.pi)))


class TestLogMixture:
    """The shared Gaussian-mixture log-density against scipy's logsumexp."""

    @staticmethod
    def _mixture(rng, k):
        points = np.sort(rng.uniform(-4.0, 4.0, k))
        return points, np.log(rng.dirichlet(np.ones(k)))

    def test_random_rows(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 5, 16, 32):
            points, log_probs = self._mixture(rng, k)
            sigma = rng.uniform(0.3, 3.0)
            y = rng.normal(0.0, 4.0, size=(7, 96))
            got = _log_mixture(y, points, log_probs, sigma)
            assert got.shape == (7, 96)
            np.testing.assert_allclose(
                got, _scipy_log_mixture(y, points, log_probs, sigma),
                rtol=1e-14, atol=0.0)

    def test_zero_weight_points(self):
        rng = np.random.default_rng(1)
        points, log_probs = self._mixture(rng, 8)
        log_probs[[0, 3, 7]] = -np.inf
        y = rng.normal(0.0, 3.0, size=50)
        got = _log_mixture(y, points, log_probs, 0.7)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, _scipy_log_mixture(y, points, log_probs, 0.7),
            rtol=1e-14, atol=0.0)

    def test_far_tail_rows(self):
        # every term is below -700, where exp() without a shift underflows
        rng = np.random.default_rng(2)
        points, log_probs = self._mixture(rng, 16)
        y = np.array([45.0, 60.0, -50.0, -80.0])
        terms = log_probs - 0.5 * (y[:, None] - points) ** 2
        assert np.all(terms < -700.0)
        got = _log_mixture(y, points, log_probs, 1.0)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, _scipy_log_mixture(y, points, log_probs, 1.0),
            rtol=1e-14, atol=0.0)

    def test_all_minus_inf_row(self):
        points = np.array([-1.0, 0.5, 2.0])
        log_probs = np.log([0.2, 0.5, 0.3])
        y = np.array([0.0, np.inf, -1.0])
        with np.errstate(divide="ignore"):
            got = _log_mixture(y, points, log_probs, 1.0)
            empty = _log_mixture(y, points, np.full(3, -np.inf), 1.0)
        want = _scipy_log_mixture(y, points, log_probs, 1.0)
        assert got[1] == -np.inf == want[1]
        np.testing.assert_allclose(got[[0, 2]], want[[0, 2]], rtol=1e-14)
        assert np.all(empty == -np.inf)
        assert np.all(_scipy_log_mixture(y, points, np.full(3, -np.inf), 1.0)
                      == -np.inf)


class TestDifferentialEntropy:
    def test_standard_gaussian(self):
        d = density_discrete_conv(DiscreteDistribution((0.0,), (1.0,)), 1.0)
        assert differential_entropy(d).nats == pytest.approx(
            H_STD_NORMAL, abs=1e-8)

    def test_scaling_law(self):
        d = density_discrete_conv(DiscreteDistribution((0.0,), (1.0,)), 2.0)
        assert differential_entropy(d).nats == pytest.approx(
            H_STD_NORMAL + math.log(2.0), abs=1e-8)

    def test_two_point_mixture_identity(self):
        # h(Y) = h(N) + A^2 - I for the equal two-point input, unit noise
        for a in (0.1, 0.5, 1.0, 2.0):
            d = density_discrete_conv(
                DiscreteDistribution((-a, a), (0.5, 0.5)), 1.0)
            h = differential_entropy(d).nats
            rhs = H_STD_NORMAL + a * a - mixed_gaussian_entropy_integral(a)
            assert h == pytest.approx(rhs, abs=1e-7)

    def test_max_entropy_bound(self):
        for d in (
            density_uniform_conv(2.0, 0.5),
            density_trunc_gauss_conv(1.0, 0.8, 1.2),
            density_discrete_conv(
                DiscreteDistribution((-1.0, 0.2, 1.0), (0.3, 0.3, 0.4)), 0.6),
        ):
            v = density_variance(d)
            h = differential_entropy(d).nats
            assert h <= 0.5 * math.log(2 * math.pi * math.e * v) + 1e-8

    def test_quadrature_failure(self):
        # an unreachable tolerance exhausts the integrator's error budget
        d = density_discrete_conv(
            DiscreteDistribution((-1.0, 1.0), (0.5, 0.5)), 1e-3)
        with pytest.raises(QuadratureFailure):
            differential_entropy(d, QuadratureSpec(abs_tol=1e-300,
                                                   max_subdivisions=50))

    def test_spec_rejects_bad_tolerance(self):
        for tol in (0.0, -1e-10, math.nan, math.inf):
            with pytest.raises(ValueError):
                QuadratureSpec(abs_tol=tol)


class TestMixedGaussianIntegral:
    def test_bracket(self):
        # 0 <= 2 I / A^2 <= 1 + A^2
        for a in (0.01, 0.1, 1.0, 3.0):
            i = mixed_gaussian_entropy_integral(a)
            assert 0.0 <= 2.0 * i / a**2 <= 1.0 + a * a

    def test_vanishing_amplitude(self):
        assert mixed_gaussian_entropy_integral(1e-4) < 1e-7


class TestMutualInformation:
    def test_point_mass_is_zero(self):
        assert mutual_information(point_mass_scheme(), 1.0).nats == \
            pytest.approx(0.0, abs=1e-9)

    def test_two_point_closed_form(self):
        # R = A^2 - I for the equal two-point input through unit noise
        for a in (0.5, 1.0):
            mi = mutual_information(maxentropic_scheme(a, 2), 1.0).nats
            assert mi == pytest.approx(
                a * a - mixed_gaussian_entropy_integral(a), abs=1e-7)

    def test_nonnegative(self):
        assert mutual_information(UniformScheme(0.3), 2.0).nats > -1e-8


class TestMonteCarloOracle:
    def test_sample_size_contract(self):
        with pytest.raises(ValueError):
            monte_carlo_mi_oracle(point_mass_scheme(), 1.0, 1000, 0)

    def test_point_mass_bias(self):
        est = monte_carlo_mi_oracle(point_mass_scheme(), 1.0, 10**6, 0)
        assert abs(est) < 5e-3

    def test_deterministic(self):
        s = maxentropic_scheme(1.0, 3)
        a = monte_carlo_mi_oracle(s, 1.0, 10**6, 42)
        b = monte_carlo_mi_oracle(s, 1.0, 10**6, 42)
        assert a == b

    def test_agrees_with_quadrature(self):
        s = UniformScheme(3.0)
        mi = mutual_information(s, 1.0).nats
        est = monte_carlo_mi_oracle(s, 1.0, 2 * 10**6, 5)
        assert abs(mi - est) < 1e-2


class TestDiscreteDistributionContract:
    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0.0, 1.0), (0.7, 0.2))
        with pytest.raises(ValueError):
            DiscreteDistribution((0.0, 1.0), (1.1, -0.1))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0, 0.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0, 1.0 + 1e-12), (0.5, 0.5))

    def test_mirrored(self):
        d = DiscreteDistribution((-1.0, 0.5), (0.4, 0.6))
        m = d.mirrored()
        assert m.points == (-0.5, 1.0)
        assert m.probs == (0.6, 0.4)

    def test_scheme_support(self):
        assert DiscreteScheme(
            DiscreteDistribution((-2.0, 1.0), (0.5, 0.5))).half_width == 2.0
