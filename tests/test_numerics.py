import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from scipy.special import erfc, log_ndtr, logsumexp

from keycap import (
    ChannelParams,
    DegenerateTruncation,
    DiscreteDistribution,
    QuadratureFailure,
    SolverConfig,
    channel,
    differential_entropy,
    density_discrete_conv,
    density_trunc_gauss_conv,
    density_uniform_conv,
    lower_bound_2,
    maxentropic_scheme,
    maximize_lower_bound_2,
    mutual_information,
    numerics,
    schemes,
    secret_key_capacity,
    secret_key_rate,
    truncated_gaussian_rate,
)
from keycap.inputs import (
    TruncatedGaussianScheme,
    UniformScheme,
)
from keycap.numerics import (
    _DENSITY_FLOOR,
    _EVAL_BLOCK_TERMS,
    LATTICE_PER_SIGMA,
    QUAD_ABS_TOL,
    _erfcx,
    _lattice,
    maximize_newton,
    scheme_output_density,
)
from keycap.solver import _channel_stack, _expand, _group_kernels, _rate
from keycap.schemes import (
    best_maxentropic,
    optimize_truncated_gaussian,
    uniform_scheme_rate,
)
from support import (
    _quad,
    density_variance,
    member,
    mirrored,
    mixed_gaussian_entropy_integral,
    monte_carlo_mi_oracle,
    normalization_error,
    point_mass_scheme,
)

H_STD_NORMAL = 0.5 * math.log(2.0 * math.pi * math.e)


def _kernel_erfc(x):
    """erfc from the package's erfcx kernel: exp(-x^2) erfcx(|x|), and 2
    minus that for x < 0 (the kernel has one piece on z >= 0)."""
    x = np.asarray(x, float)
    z = np.abs(x)
    e = _erfcx(z) * np.exp(-z * z)
    return np.where(x < 0.0, 2.0 - e, e)


def _kernel_log_ndtr(x):
    """log Phi from the kernel: log(erfcx(-x / sqrt 2) / 2) - x^2 / 2 for
    x <= 0, and log1p(-erfc(x / sqrt 2) / 2) for x > 0."""
    x = np.asarray(x, float)
    lower = np.log(0.5 * _erfcx(np.abs(x) / math.sqrt(2.0))) - 0.5 * x * x
    with np.errstate(divide="ignore"):  # log1p(-1) off its branch
        return np.where(x <= 0.0, lower,
                        np.log1p(-0.5 * _kernel_erfc(x / math.sqrt(2.0))))


class TestErfcxKernel:
    """The numpy erfcx kernel behind the uniform and truncated-Gaussian
    densities, against scipy.special and mpmath."""

    # the kernel has no pieces; these are the reflection at 0 and the
    # centre K = 3.5 of its variable t = (z - K) / (z + K)
    EDGES = [0.0, 1e-300, 1e-8, 3.5 - 1e-12, 3.5, 3.5 + 1e-12]

    def test_erfc_against_scipy(self):
        x = np.concatenate([np.linspace(-26.0, 26.0, 200001),
                            self.EDGES, np.negative(self.EDGES)])
        np.testing.assert_allclose(_kernel_erfc(x), erfc(x), rtol=1e-13,
                                   atol=0)

    def test_log_ndtr_against_scipy(self):
        x = np.concatenate([-np.geomspace(1e-8, 5000.0, 50001),
                            np.linspace(-40.0, 10.0, 100001),
                            np.geomspace(1e-8, 10.0, 20001),
                            np.array(self.EDGES) * math.sqrt(2.0)])
        np.testing.assert_allclose(_kernel_log_ndtr(x), log_ndtr(x),
                                   rtol=1e-13, atol=0)

    def test_against_mpmath(self):
        # an oracle that does not depend on scipy, at 200 points
        z = np.concatenate([np.linspace(0.0, 30.0, 120),
                            np.geomspace(30.0, 4000.0, 40)])
        x = np.concatenate([np.linspace(-5000.0, -40.0, 20),
                            np.linspace(-40.0, 10.0, 20)])
        with mpmath.workdps(60):  # log Phi(10) = -7.6e-24 needs 24 more
            want_z = [mpmath.exp(mpmath.mpf(v) ** 2) * mpmath.erfc(v)
                      for v in z]
            want_x = [mpmath.log(mpmath.ncdf(v)) for v in x]
        np.testing.assert_allclose(_erfcx(z), np.array(want_z, float),
                                   rtol=4e-15, atol=0)
        np.testing.assert_allclose(_kernel_log_ndtr(x),
                                   np.array(want_x, float), rtol=1e-14,
                                   atol=0)

    def test_edge_cases(self):
        assert _erfcx(np.array([0.0]))[0] == 1.0
        assert _erfcx(np.array([np.inf]))[0] == 0.0
        assert np.isnan(_erfcx(np.array([np.nan]))[0])
        np.testing.assert_array_equal(_kernel_erfc([0.0, -0.0]), [1.0, 1.0])
        np.testing.assert_array_equal(_kernel_erfc([np.inf, -np.inf]),
                                      [0.0, 2.0])
        assert np.isnan(_kernel_erfc([np.nan])[0])
        x = np.linspace(0.0, 30.0, 3001)
        np.testing.assert_array_equal(_kernel_erfc(-x), 2.0 - _kernel_erfc(x))


def _scipy_uniform_pdf(t, a, sigma):
    """The uniform density's formula on scipy's erfc, at -|t|."""
    t = -np.abs(t)
    c = np.reshape(a, (-1, 1))
    return (0.5 * erfc((-c - t) / (sigma * math.sqrt(2.0)))
            - 0.5 * erfc((c - t) / (sigma * math.sqrt(2.0)))) / (2.0 * c)


def _scipy_trunc_gauss_pdf(t, a, sigma_x, sigma):
    """The truncated-Gaussian density's formula on scipy's log_ndtr, with
    the package's arguments (the posterior shift t st^2 / s^2)."""
    t = np.abs(t)
    a, sx = (np.reshape(v, (-1, 1)) for v in np.broadcast_arrays(a, sigma_x))
    var_sum = sigma * sigma + sx * sx
    st2 = 1.0 / (1.0 / (sx * sx) + 1.0 / (sigma * sigma))
    shift = (st2 / (sigma * sigma)) * t
    hi = log_ndtr((a - shift) / np.sqrt(st2))
    lo = log_ndtr((-a - shift) / np.sqrt(st2))
    with np.errstate(divide="ignore"):
        log_w = hi + np.log1p(-np.exp(lo - hi))
    log_d = np.log([math.erf(r / math.sqrt(2.0)) for r in (a / sx).ravel()])
    return np.exp(log_w - 0.5 * t * t / var_sum
                  - 0.5 * np.log(2.0 * math.pi * var_sum) - log_d[:, None])


class TestDensitiesAgainstScipy:
    """Both densities against scipy-built copies of the same formulas on
    their whole windows, batches included, to 1e-13 relative. Far in the
    tails the tails' own conditioning sets the agreement: an argument x
    that rounds by an ulp moves erfc(x) by 2 x^2 eps, about 2 eps |log p|,
    in either copy, so where |log p| > 56 (p < 5e-25) the tolerance is
    8 eps |log p|."""

    @staticmethod
    def _close(got, want):
        keep = want >= 1e-300
        rel = np.abs(got[keep] / want[keep] - 1.0)
        tol = np.maximum(1e-13, 8.0 * np.finfo(float).eps
                         * np.abs(np.log(want[keep])))
        assert np.all(rel <= tol), rel.max()
        assert np.all(got[~keep] < 1e-290)

    @pytest.mark.parametrize("a2", [0.5, 49.0, 1e6])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_uniform(self, a2, sigma):
        a = math.sqrt(a2) * np.array([1.0, 0.5, 2.0])
        d = density_uniform_conv(a, sigma)
        t = np.linspace(*d.support, 20001)
        self._close(d.eval(t), _scipy_uniform_pdf(t, a, sigma))

    @pytest.mark.parametrize("a2", [0.5, 49.0, 1e6])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_trunc_gauss(self, a2, sigma):
        a = math.sqrt(a2)
        grid = np.geomspace(a / 100.0, 100.0 * a, 50)
        d = density_trunc_gauss_conv(a, grid, sigma)
        t = np.linspace(*d.support, 20001)
        self._close(d.eval(t), _scipy_trunc_gauss_pdf(t, a, grid, sigma))

    # uniform rate, then truncated-Gaussian rates at sigma_x = A/2 and A,
    # var_d = 1, var_e = 2.25, as computed on scipy's erfc and log_ndtr
    SCIPY_RATES = {
        1.0: (0.12706043992882365, 0.08194135304693162, 0.1144728151370441),
        10.0: (0.398694431936362, 0.3534469018932639, 0.3929476174359906),
        49.0: (0.5031431608783586, 0.5106684035190504, 0.5110245154114791),
    }

    @pytest.mark.parametrize("a2", sorted(SCIPY_RATES))
    def test_scheme_rates_unmoved(self, a2):
        p = ChannelParams(math.sqrt(a2), 1.0, 2.25)
        a = p.amplitude
        got = (secret_key_rate(p, UniformScheme(a)).nats,
               secret_key_rate(p, TruncatedGaussianScheme(a, 0.5 * a)).nats,
               secret_key_rate(p, TruncatedGaussianScheme(a, a)).nats)
        np.testing.assert_allclose(got, self.SCIPY_RATES[a2], rtol=0,
                                   atol=1e-12)


class TestUniformConvDensity:
    def test_value_at_zero(self):
        # (Q(-1) - Q(1)) / 2 = erf(1 / sqrt 2) / 2
        p = member(density_uniform_conv(1.0, 1.0))
        expected = 0.5 * math.erf(1.0 / math.sqrt(2.0))
        assert float(p(0.0)) == pytest.approx(expected, abs=1e-15)

    def test_small_noise_limit(self):
        p = member(density_uniform_conv(1.0, 1e-6))
        assert float(p(0.0)) == pytest.approx(0.5, abs=1e-6)

    def test_even(self):
        p = member(density_uniform_conv(2.0, 0.7))
        t = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(p(t), p(-t), rtol=0, atol=1e-15)

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
        p = member(density_trunc_gauss_conv(50.0, 1.0, 1.0))
        t = np.linspace(-3, 3, 13)
        gauss = np.exp(-t * t / 4.0) / math.sqrt(4.0 * math.pi)
        np.testing.assert_allclose(p(t), gauss, rtol=1e-12)

    def test_wide_sigma_x_matches_uniform(self):
        pu = member(density_uniform_conv(1.0, 1.0))
        pt = member(density_trunc_gauss_conv(1.0, 1e6, 1.0))
        for t in (0.0, 1.0, -1.0):
            assert float(pt(t)) == pytest.approx(float(pu(t)), abs=1e-3)

    def test_degenerate_truncation(self):
        with pytest.raises(DegenerateTruncation):
            density_trunc_gauss_conv(1.0, 1e9, 1.0)


@pytest.mark.parametrize("density", [
    member(density_uniform_conv(1.0, 1.0)),
    member(density_trunc_gauss_conv(1.0, 1.0, 1.0)),
], ids=["uniform", "trunc-gauss"])
@pytest.mark.parametrize("sigmas", [6, 9, 11, 15])
def test_even_and_positive_far_past_the_edge(density, sigmas):
    # t = A + k sigma: both tails must stay resolved, not cancel to 0
    t = 1.0 + sigmas * 1.0
    assert density(t) == density(-t) > 0.0


class TestDiscreteConvDensity:
    def test_point_mass_is_shifted_gaussian(self):
        p = member(density_discrete_conv(
            [DiscreteDistribution((0.0,), (1.0,))], 2.0))
        t = 1.3
        assert float(p(t)) == pytest.approx(
            math.exp(-t * t / 8.0) / (2.0 * math.sqrt(2 * math.pi)), rel=1e-14)

    def test_two_point_at_origin(self):
        p = member(density_discrete_conv(
            [DiscreteDistribution((-1.0, 1.0), (0.5, 0.5))], 1.0))
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert float(p(0.0)) == pytest.approx(phi1, rel=1e-14)

    def test_normalized(self):
        points = (-2.0, 0.3, 1.0)
        d = density_discrete_conv(
            [DiscreteDistribution(points, (0.2, 0.5, 0.3))], 0.4)
        assert normalization_error(d, points) < 1e-9

    def test_eval_has_a_member_axis(self):
        laws = [DiscreteDistribution((-1.0, 1.0), (0.5, 0.5)),
                DiscreteDistribution((-0.5, 0.0, 2.0), (0.2, 0.5, 0.3))]
        d = density_discrete_conv(laws, 1.0)
        t = np.array([-0.5, 0.0, 0.3])
        assert d.eval(np.asarray(0.3)).shape == (2,)
        assert d.eval(t).shape == (2, 3)
        one = density_discrete_conv(laws[:1], 1.0)
        np.testing.assert_array_equal(d.eval(t)[0], one.eval(t)[0])
        assert d.eval(np.asarray(0.3))[0] == one.eval(np.asarray(0.3))[0]


def _scipy_log_mixture(nodes, u, w, sigma):
    """Oracle for log f: the Gaussian-mixture log-density of the group
    state's expanded law on nodes, built on scipy's logsumexp over its
    points (zero-weight points, log p = -inf, drop out)."""
    points, probs = _expand(u, w)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    z = (nodes[:, None] - points) / sigma
    return (logsumexp(log_probs - 0.5 * z * z, axis=1)
            - math.log(sigma * math.sqrt(2.0 * math.pi)))


class TestLogMixture:
    """The Gaussian-mixture log-density log f that the solver's `_rate`
    takes as a log-sum-exp over the groups of log w_i + the log folded
    kernel of `_group_kernels`, against scipy's logsumexp over the expanded
    law's points."""

    @staticmethod
    def _check(u, w, channels):
        """Each channel's log f from _rate against the oracle; returns them."""
        log_fs = []
        _rate(np.asarray(u, float), np.asarray(w, float), channels,
              log_fs=log_fs)
        for (sigma, _, nodes, _), log_f in zip(channels, log_fs):
            assert log_f.shape == nodes.shape and np.isfinite(log_f).all()
            np.testing.assert_allclose(
                log_f, _scipy_log_mixture(nodes, u, w, sigma),
                rtol=1e-13, atol=0.0)
        return log_fs

    @staticmethod
    def _groups(rng, k, a, center=False):
        u = np.sort(rng.uniform(0.05, 1.0, k)) * a
        if center:
            u[0] = 0.0
        return u, rng.dirichlet(np.ones(k))

    def test_random_rows(self):
        # half-line stacks of one and two channels, laws with and without a
        # center group
        rng = np.random.default_rng(0)
        for k in (1, 2, 5, 16, 32):
            a, sigma = rng.uniform(0.5, 8.0), rng.uniform(0.3, 3.0)
            for channels in (((sigma, 1.0),),
                             ((sigma, 1.0), (1.7 * sigma, -1.0))):
                stack = _channel_stack(a, channels)
                for center in (False, True):
                    self._check(*self._groups(rng, k, a, center), stack)

    def test_center_group(self):
        # at u = 0 the fold is one Gaussian: log phi = log 2 + log phi(y) -
        # log 2, the center's full weight on one point
        stack = _channel_stack(3.0, ((0.8, 1.0), (1.5, -1.0)))
        for (sigma, _, nodes, _), (*_, log_phi) in zip(
                stack, _group_kernels(np.array([0.0, 1.2]), stack)):
            want = (-0.5 * (nodes / sigma)**2
                    - math.log(sigma * math.sqrt(2.0 * math.pi)))
            np.testing.assert_allclose(log_phi[0], want, rtol=1e-15)
        self._check([0.0], [1.0], stack)
        self._check([0.0, 1.2, 3.0], [0.5, 0.3, 0.2], stack)

    @pytest.mark.parametrize("k", [1, 7, 8, 33])
    def test_result_has_the_shape_of_y(self, k):
        # a whole-window stack, whose nodes y run negative, far enough that
        # exp(-2 y u / sigma^2) overflows at y < 0: every kernel is (groups,
        # nodes) and log f has the nodes' shape. K = 8 is where numpy's
        # pairwise summation of a trailing axis would start to group terms
        # differently from the leading-axis sum over the groups
        rng = np.random.default_rng(k)
        a, sigma = 20.0, 0.9
        nodes, weights, _ = _lattice(-a - 10.0 * sigma, a + 10.0 * sigma,
                                     sigma, False)
        u, w = self._groups(rng, k, a, center=k > 1)
        assert -2.0 * nodes.min() * u.max() / sigma**2 > 710.0
        stack = ((sigma, 1.0, nodes, weights),)
        for kernel in _group_kernels(u, stack)[0]:
            assert kernel.shape == (k, len(nodes))
        self._check(u, w, stack)

    def test_zero_weight_points(self):
        rng = np.random.default_rng(1)
        stack = _channel_stack(4.0, ((0.7, 1.0), (1.2, -1.0)))
        u, w = self._groups(rng, 8, 4.0, center=True)
        w[[0, 3, 7]] = 0.0
        w /= w.sum()
        self._check(u, w, stack)

    def test_far_tail_rows(self):
        # the outermost pair at 0.5 A: the window's far nodes sit 30 sigma
        # and more past it, where every term is below -700 and exp()
        # without a shift underflows
        rng = np.random.default_rng(2)
        a = 80.0
        stack = _channel_stack(a, ((1.0, 1.0),))
        u, w = self._groups(rng, 16, 0.5 * a)
        nodes = stack[0][2]
        terms = (np.log(w / 2.0)[:, None]
                 - 0.5 * (np.abs(nodes) - u[:, None])**2)
        assert np.any(np.all(terms < -700.0, axis=0))
        self._check(u, w, stack)


class TestDifferentialEntropy:
    def test_standard_gaussian(self):
        d = density_discrete_conv([DiscreteDistribution((0.0,), (1.0,))], 1.0)
        assert differential_entropy(d)[0].nats == pytest.approx(
            H_STD_NORMAL, abs=1e-8)

    def test_scaling_law(self):
        d = density_discrete_conv([DiscreteDistribution((0.0,), (1.0,))], 2.0)
        assert differential_entropy(d)[0].nats == pytest.approx(
            H_STD_NORMAL + math.log(2.0), abs=1e-8)

    def test_two_point_mixture_identity(self):
        # h(Y) = h(N) + A^2 - I for the equal two-point input, unit noise
        for a in (0.1, 0.5, 1.0, 2.0):
            d = density_discrete_conv(
                [DiscreteDistribution((-a, a), (0.5, 0.5))], 1.0)
            h = differential_entropy(d)[0].nats
            rhs = H_STD_NORMAL + a * a - mixed_gaussian_entropy_integral(a)
            assert h == pytest.approx(rhs, abs=1e-7)

    def test_max_entropy_bound(self):
        points = (-1.0, 0.2, 1.0)
        for d, breakpoints in (
            (density_uniform_conv(2.0, 0.5), ()),
            (density_trunc_gauss_conv(1.0, 0.8, 1.2), ()),
            (density_discrete_conv(
                [DiscreteDistribution(points, (0.3, 0.3, 0.4))], 0.6), points),
        ):
            v = density_variance(d, breakpoints)
            h = differential_entropy(d)[0].nats
            assert h <= 0.5 * math.log(2 * math.pi * math.e * v) + 1e-8

    def test_quadrature_failure(self):
        # a near-point-mass uniform input: the density is a difference of two
        # almost equal Q values that loses about 6 digits, and the entropy
        # rule's nested-lattice error estimate exceeds the fixed tolerance (the
        # A^2=1e-20 uniform-scheme row of the CLI)
        d = density_uniform_conv(1e-10, math.sqrt(2.0 / 3.0))
        with pytest.raises(QuadratureFailure, match="abs_tol=1e-10"):
            differential_entropy(d)


def _mass_points(scheme):
    """A discrete scheme's mass points, where the QUADPACK oracles subdivide;
    none for the continuous families."""
    return scheme.points if isinstance(scheme, DiscreteDistribution) else ()


def _quadpack_entropy(d, breakpoints=()):
    """Oracle: -integral p log p by QUADPACK, subdivided at the breakpoints,
    as the rates were computed before the fixed rule (independent of
    `differential_entropy`)."""
    f = member(d)

    def integrand(t):
        p = float(f(t))
        return 0.0 if p < _DENSITY_FLOOR else -p * math.log(p)

    lo, hi = d.support
    return _quad(integrand, lo, hi, breakpoints)[0]


class TestEntropyRuleAgainstQuadpack:
    """The Gauss-Legendre entropy of every family against QUADPACK."""

    @pytest.mark.parametrize("var_e", [2.0, 10.0])
    @pytest.mark.parametrize("a2", [1e-4, 0.5, 2.0, 10.0, 100.0, 1e4])
    def test_every_family(self, a2, var_e):
        a = math.sqrt(a2)
        schemes = [maxentropic_scheme(a, k) for k in range(2, 33)]
        schemes += [UniformScheme(a), TruncatedGaussianScheme(a, a)]
        # the equivalent-legitimate and the eavesdropper noise, var_d = 1
        for sigma in (math.sqrt(var_e / (1.0 + var_e)), math.sqrt(var_e)):
            for scheme in schemes:
                d = scheme_output_density([scheme], sigma)
                (h,) = differential_entropy(d)
                assert abs(h.nats - _quadpack_entropy(
                    d, _mass_points(scheme))) <= 1e-12, scheme
                assert h.quad_error <= QUAD_ABS_TOL

    @pytest.mark.parametrize("sigma", [math.sqrt(2.0 / 3.0), math.sqrt(2.0)])
    def test_tiny_amplitude_uniform_still_fails(self, sigma):
        # A^2 = 1e-20, var_d = 1, var_e = 2: the density itself is noise
        with pytest.raises(QuadratureFailure, match="abs_tol=1e-10"):
            differential_entropy(density_uniform_conv(1e-10, sigma))

    def test_too_wide_window_fails_cleanly(self):
        # a window of 2e5 noise standard deviations: refused before any call
        d, calls = _recording(density_uniform_conv(1e5, 1.0))
        with pytest.raises(QuadratureFailure, match="2\\^16 noise widths"):
            differential_entropy(d)
        assert calls == []

    def test_rates_never_call_quadpack(self, monkeypatch, fig1_params):
        def refuse(*args, **kwargs):
            raise AssertionError("a reported rate called QUADPACK")

        monkeypatch.setattr("scipy.integrate.quad", refuse)
        p = fig1_params(2.0)
        best_maxentropic(p, k_max=4)
        uniform_scheme_rate(p)
        optimize_truncated_gaussian(p)
        mutual_information(UniformScheme(1.0), 1.0)
        secret_key_capacity(p, SolverConfig())


def _recording(d):
    """d with every eval call's nodes appended to the returned list."""
    calls = []

    def ev(t):
        calls.append(t)
        return d.eval(t)

    return dataclasses.replace(d, eval=ev), calls


class TestBatchedAndFoldedRule:
    """Batches share one pass of the rule; even densities are summed on
    t >= 0 only, asymmetric ones on the whole window."""

    @pytest.mark.parametrize("amplitude, odd", [(1.0, False), (1.5, True)])
    @pytest.mark.parametrize("family", ["uniform", "trunc-gauss", "discrete"])
    def test_folded_entropy_against_quadpack(self, amplitude, odd, family):
        # [-A - 10, A + 10] is 22 noise widths at A = 1, an odd 23 at 1.5:
        # either way the fold evaluates t = 0 once and no t < 0
        scheme = {"uniform": UniformScheme(amplitude),
                  "trunc-gauss": TruncatedGaussianScheme(amplitude, 0.7),
                  "discrete": maxentropic_scheme(amplitude, 4)}[family]
        d, calls = _recording(scheme_output_density([scheme], 1.0))
        lo, hi = d.support
        assert d.even and round((hi - lo) / d.sigma) % 2 == odd
        (h,) = differential_entropy(d)
        t = np.concatenate(calls)
        np.testing.assert_array_equal(
            t, np.arange(len(t)) * (d.sigma / LATTICE_PER_SIGMA))
        assert t[-1] <= hi < t[-1] + d.sigma / LATTICE_PER_SIGMA
        want = _quadpack_entropy(d, _mass_points(scheme))
        assert abs(h.nats - want) <= 1e-12

    @pytest.mark.parametrize("points, probs", [
        ((-1.0, 0.2, 1.0), (0.3, 0.3, 0.4)),
        ((-1.0, 0.2, 1.0), (0.2, 0.6, 0.2)),  # mirrored weights only
        ((-1.0, 0.0, 1.0), (0.2, 0.3, 0.5)),  # mirrored points only
    ])
    def test_asymmetric_law_is_not_folded(self, points, probs):
        dist = DiscreteDistribution(points, probs)
        d, calls = _recording(density_discrete_conv([dist], 0.6))
        assert not d.even
        (h,) = differential_entropy(d)
        assert min(float(t.min()) for t in calls) < d.support[0] + 0.3
        assert abs(h.nats - _quadpack_entropy(d, points)) <= 1e-12

    def test_one_asymmetric_law_unfolds_the_batch(self):
        # laws of 2 to 5 points, each checked against its own mirror image
        laws = [maxentropic_scheme(1.0, k) for k in (2, 5, 3)]
        assert density_discrete_conv(laws, 0.6).even
        odd = DiscreteDistribution((-1.0, 0.2, 1.0), (0.3, 0.3, 0.4))
        for i in range(len(laws) + 1):
            batch = laws[:i] + [odd] + laws[i:]
            assert not density_discrete_conv(batch, 0.6).even

    def test_batch_members_match_single_entropies(self):
        laws = [maxentropic_scheme(2.0, k) for k in range(2, 9)]
        batch = differential_entropy(scheme_output_density(laws, 0.8))
        assert len(batch) == len(laws)
        for law, h in zip(laws, batch):
            (single,) = differential_entropy(
                scheme_output_density([law], 0.8))
            assert abs(h.nats - single.nats) <= 1e-14
            assert abs(h.nats - _quadpack_entropy(
                scheme_output_density([law], 0.8), law.points)) <= 1e-12

    @pytest.mark.parametrize("sigma", [math.sqrt(2.0 / 3.0), math.sqrt(2.0)])
    def test_one_failing_member_fails_the_batch(self, sigma):
        # the A^2 = 1e-20 uniform law fails alone; a good member cannot
        # carry it, and the good member alone passes
        good, bad = UniformScheme(1.0), UniformScheme(1e-10)
        differential_entropy(scheme_output_density([good], sigma))
        with pytest.raises(QuadratureFailure, match="abs_tol=1e-10"):
            differential_entropy(scheme_output_density([good, bad], sigma))

    def test_a_batch_is_one_family(self):
        with pytest.raises(TypeError, match="families"):
            scheme_output_density([UniformScheme(1.0),
                                   TruncatedGaussianScheme(1.0, 1.0)], 1.0)

    def test_a_bare_scheme_is_not_a_batch(self):
        with pytest.raises(TypeError):
            scheme_output_density(UniformScheme(1.0), 1.0)
        with pytest.raises(TypeError):
            density_discrete_conv(maxentropic_scheme(1.0, 2), 1.0)

    def test_a_scalar_amplitude_is_a_batch_of_one(self):
        assert len(differential_entropy(density_uniform_conv(1.0, 1.0))) == 1

    def test_wide_window_batches_stay_within_the_block_budget(
            self, monkeypatch, fig1_params):
        # A^2 = 1e4: 31 laws of 2..32 points (527 kernel terms per node) and
        # the 9-point sigma_x grid, each one batch per noise; no density
        # call may hold more than _EVAL_BLOCK_TERMS terms (peak memory)
        seen = []

        def recording(scheme, sigma):
            d, calls = _recording(scheme_output_density(scheme, sigma))
            seen.append((d, calls))
            return d

        monkeypatch.setattr(numerics, "scheme_output_density", recording)
        p = fig1_params(1e4)
        channel.secret_key_rates(
            p, [maxentropic_scheme(p.amplitude, k) for k in range(2, 33)])
        optimize_truncated_gaussian(p)
        terms = {}
        for d, _ in seen:
            terms[d.kind] = max(terms.get(d.kind, 0), d.terms)
        assert terms == {"gaussian-mixture": 527, "trunc-gauss-conv": 9}
        assert max(t.size * d.terms
                   for d, calls in seen for t in calls) <= _EVAL_BLOCK_TERMS


class TestLattice:
    """The trapezoid lattice of the entropy rule and its nested error
    estimate."""

    @pytest.mark.parametrize("lo, hi, sigma", [
        (-11.0, 11.0, 1.0), (-3.7, 5.2, 0.6), (0.3, 9.9, 1.3)])
    def test_unfolded_layout(self, lo, hi, sigma):
        delta = sigma / LATTICE_PER_SIGMA
        t, weights, sub = _lattice(lo, hi, sigma, False)
        j = np.arange(math.ceil(lo / delta), math.floor(hi / delta) + 1)
        np.testing.assert_array_equal(t, j * delta)
        assert lo <= t[0] < lo + delta and hi - delta < t[-1] <= hi
        assert np.all(weights == delta)
        assert abs(weights.sum() - (hi - lo)) <= delta
        np.testing.assert_array_equal(sub, np.where(j % 2 == 0, 2 * delta, 0))

    def test_folded_layout(self):
        sigma = 0.7
        delta = sigma / LATTICE_PER_SIGMA
        t, weights, sub = _lattice(-9.0, 9.0, sigma, True)
        j = np.arange(len(t))
        np.testing.assert_array_equal(t, j * delta)
        assert t[-1] <= 9.0 < t[-1] + delta
        # t = 0 once, with weight delta; every other node stands for +-t
        assert weights[0] == delta and np.all(weights[1:] == 2.0 * delta)
        np.testing.assert_array_equal(
            sub, np.where(j % 2 == 0, np.where(j == 0, 2.0, 4.0) * delta, 0))

    def test_lattices_are_read_only(self):
        # one lattice serves every call with the same window
        for even in (False, True):
            arrays = _lattice(-2.0, 2.0, 0.5, even)
            assert arrays is _lattice(-2.0, 2.0, 0.5, even)
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0

    def _two_point(self):
        law = maxentropic_scheme(3.0, 2)
        d = density_discrete_conv([law], 0.5)
        return d, _quadpack_entropy(d, law.points)

    def test_estimate_catches_a_coarse_lattice(self):
        # the K = 2 law at A = 3, sigma 0.5, on the lattice of a sigma field
        # 8 sigma: eight times too coarse, refused; at the true sigma it
        # passes
        d, want = self._two_point()
        (h,) = differential_entropy(d)
        assert abs(h.nats - want) <= 1e-12
        with pytest.raises(QuadratureFailure, match="abs_tol=1e-10"):
            differential_entropy(dataclasses.replace(d, sigma=8.0 * d.sigma))

    @pytest.mark.parametrize("factor", [2.0, 3.0, 4.0])
    def test_estimate_covers_the_error_of_coarser_lattices(self, factor):
        d, want = self._two_point()
        (h,) = differential_entropy(
            dataclasses.replace(d, sigma=factor * d.sigma))
        assert h.quad_error >= abs(h.nats - want)


class TestMaximizeNewton:
    def test_interior_maximum(self):
        # log x - x / c peaks at x = c; three searches in one call
        c = np.array([0.5, 2.0, 7.0])
        x, v = maximize_newton(
            lambda x: np.array([np.log(x) - x / c, 1.0 / x - 1.0 / c,
                                -1.0 / x**2]), c / 3.0, 3.0 * c, 0.8 * c)
        np.testing.assert_allclose(x, c, rtol=1e-7)
        np.testing.assert_allclose(v[0], np.log(c) - 1.0, rtol=0, atol=1e-14)

    def test_step_out_of_bracket_bisects(self):
        # at x = 0.1 Newton's step on sin x lands near 10, past the
        # bracket's end 3, so the next point is the bracket's middle
        seen = []

        def f(x):
            seen.append(x)
            return np.array([np.sin(x), np.cos(x), -np.sin(x)])

        x, v = maximize_newton(f, np.array([0.0]), np.array([3.0]),
                               np.array([0.1]))
        assert seen[1][0] == 0.5 * (0.1 + 3.0)
        assert x[0] == pytest.approx(math.pi / 2.0, abs=1e-7)
        assert v[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_empty_arrays(self):
        seen = []

        def f(x):
            seen.append(x)
            return np.zeros((3, len(x)))

        empty = np.zeros(0)
        x, v = maximize_newton(f, empty, empty, empty)
        assert len(seen) == 1 and x.size == 0 and v.shape == (3, 0)

    @pytest.mark.parametrize("a2", [20.0, 49.0, 100.0, 1e4])
    def test_scheme_and_bound_searches(self, monkeypatch, fig1_params, a2):
        # sigma_x and beta of the closed-form lower bound against scipy's
        # bounded search over the same two grid cells, at a far tighter
        # tolerance; the sigma_x search rates at most 9 + 3 x 9 members
        from scipy.optimize import minimize_scalar

        calls = []

        def counting(params, family):
            calls.append(len(family))
            return channel.secret_key_rates(params, family)

        monkeypatch.setattr(schemes, "secret_key_rates", counting)
        p = fig1_params(a2)
        a = p.amplitude
        sx, rate = optimize_truncated_gaussian(p)
        assert calls[0] == 9 and set(calls[1:]) == {3}
        assert sum(calls) <= 36
        grid = np.geomspace(a / 100.0, 100.0 * a, 9)
        i = int(np.argmax([r.nats for r in channel.secret_key_rates(
            p, [TruncatedGaussianScheme(a, s) for s in grid])]))
        res = minimize_scalar(
            lambda s: -truncated_gaussian_rate(p, s).nats,
            bounds=(grid[i - 1], grid[i + 1]), method="bounded",
            options={"xatol": 1e-9 * a})
        assert abs(sx - res.x) <= 1e-6 * a
        assert abs(rate.nats + res.fun) <= 1e-12

        beta, lb2 = maximize_lower_bound_2(p)
        betas = np.geomspace(1e-6, 50.0, 25)
        i = int(np.argmax([lower_bound_2(p, b) for b in betas]))
        res = minimize_scalar(lambda b: -lower_bound_2(p, b),
                              bounds=(betas[i - 1], betas[i + 1]),
                              method="bounded", options={"xatol": 1e-12})
        assert abs(beta - res.x) <= 1e-6
        assert abs(lb2 + res.fun) <= 1e-12


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

    @pytest.mark.parametrize("make", [
        lambda: DiscreteDistribution((0.0,), (math.nan,)),
        lambda: DiscreteDistribution((math.nan, 1.0), (0.5, 0.5)),
        lambda: UniformScheme(math.nan),
        lambda: UniformScheme(math.inf),
        lambda: TruncatedGaussianScheme(1.0, math.nan),
        lambda: TruncatedGaussianScheme(math.inf, 1.0),
    ], ids=["nan-prob", "nan-point", "uniform-nan", "uniform-inf",
            "tg-nan-sigma", "tg-inf-amplitude"])
    def test_rejects_non_finite_parameters(self, make):
        # at construction, not later as a quadrature failure
        with pytest.raises(ValueError, match="positive and finite"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: density_uniform_conv(math.nan, 1.0),
        lambda: density_uniform_conv([1.0, math.inf], 1.0),
        lambda: density_uniform_conv(1.0, math.inf),
        lambda: density_trunc_gauss_conv(1.0, 1.0, math.nan),
        lambda: density_trunc_gauss_conv(1.0, math.inf, 1.0),
        lambda: density_trunc_gauss_conv([1.0, math.nan], 1.0, 1.0),
        lambda: density_discrete_conv([maxentropic_scheme(1.0, 2)],
                                      math.nan),
        lambda: mutual_information(UniformScheme(1.0), math.nan),
        lambda: mutual_information(maxentropic_scheme(1.0, 3), math.inf),
    ], ids=["uniform-nan-amplitude", "uniform-inf-member", "uniform-inf-sigma",
            "tg-nan-sigma", "tg-inf-sigma-x", "tg-nan-member",
            "discrete-nan-sigma", "mi-nan-sigma", "mi-inf-sigma"])
    def test_densities_reject_non_finite_parameters(self, make):
        # a usage error up front, not a node count that cannot be an
        # integer or a silently NaN density
        with pytest.raises(ValueError, match="positive and finite"):
            make()

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0, 0.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0, 1.0 + 1e-12), (0.5, 0.5))

    def test_mirrored(self):
        d = DiscreteDistribution((-1.0, 0.5), (0.4, 0.6))
        m = mirrored(d)
        assert m.points == (-0.5, 1.0)
        assert m.probs == (0.6, 0.4)

    def test_scheme_support(self):
        assert DiscreteDistribution(
            (-2.0, 1.0), (0.5, 0.5)).half_width == 2.0
