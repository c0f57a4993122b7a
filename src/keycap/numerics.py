"""Output densities, quadrature, differential entropy and mutual information.

Everything here works on a generic observation T = X + N with N a zero-mean
Gaussian of standard deviation sigma, and X one of the admissible input
schemes. Densities come with a finite support hint outside which they fall
below 1e-16, so all integrals run over finite windows.

Every reported entropy, and so every reported rate, comes from one fixed
composite Gauss-Legendre rule on the output axis (`differential_entropy`).
scipy's adaptive QUADPACK (`_quad`) remains only behind the oracle helpers
that tests check the rule and the densities against, and is imported only
when one of them runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import erfc, log_ndtr, ndtri

from .errors import DegenerateTruncation, QuadratureFailure
from .inputs import (
    DiscreteDistribution,
    DiscreteScheme,
    InputScheme,
    TruncatedGaussianScheme,
    UniformScheme,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
GAUSS_ENTROPY_UNIT = 0.5 * math.log(2.0 * math.pi * math.e)  # h of N(0,1), nats

_DENSITY_FLOOR = 1e-300
_FLOAT_MIN = np.finfo(float).min
_TAIL_SIGMAS = 10.0

# largest error estimate an entropy (or an oracle integral) may carry
QUAD_ABS_TOL = 1e-10
# subdivision budget of the QUADPACK oracle integrals
QUAD_MAX_SUBDIVISIONS = 2**15

# composite Gauss-Legendre entropy rule: panels GL_PANEL_SIGMAS noise
# standard deviations wide, GL_NODES nodes each for the value and
# GL_CHECK_NODES nodes each for the error estimate
GL_PANEL_SIGMAS = 1.0
GL_NODES = 16
GL_CHECK_NODES = 12
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
_GL_CHECK_X, _GL_CHECK_W = np.polynomial.legendre.leggauss(GL_CHECK_NODES)
_GL_ALL_X = np.concatenate([_GL_X, _GL_CHECK_X])
_GL_MAX_PANELS = 2**16       # larger windows raise QuadratureFailure
_GL_PANELS_PER_CALL = 1024   # bounds the memory of one density call


@dataclass(frozen=True)
class RateResult:
    """A rate (or entropy) in nats plus numerical diagnostics."""

    nats: float
    quad_error: float = 0.0
    entropy_legit: Optional[float] = None
    entropy_eve: Optional[float] = None

    @property
    def bits(self) -> float:
        return self.nats / math.log(2.0)


@dataclass(frozen=True)
class OutputDensity:
    """Probability density of T = X + N, evaluable on numpy arrays.

    support is the interval outside which the density is below 1e-16;
    sigma is the standard deviation of the noise N, which sets the panel
    width of the entropy rule; critical_points flags locations (e.g.
    mixture centers) that the QUADPACK oracle integrals subdivide at.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    kind: str
    sigma: float
    critical_points: tuple[float, ...] = ()

    def __call__(self, t):
        return self.eval(np.asarray(t, float))


def q_function(x):
    """Upper-tail probability of the standard normal, Q(x)."""
    return 0.5 * erfc(np.asarray(x, float) / math.sqrt(2.0))


def normal_pdf(x):
    x = np.asarray(x, float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    points: tuple[float, ...] = (),
) -> tuple[float, float]:
    """scipy adaptive quadrature with the fixed budget; raises on failure.

    Only the oracle helpers below integrate through it; no reported rate
    does. QUADPACK is imported on first use, so that importing keycap does
    not load scipy.integrate."""
    from scipy import integrate

    pts = [p for p in points if lo < p < hi] or None
    val, err, info, *rest = integrate.quad(
        f, lo, hi,
        epsabs=QUAD_ABS_TOL, epsrel=0.0,
        limit=QUAD_MAX_SUBDIVISIONS, points=pts,
        full_output=True,
    )
    if rest:
        raise QuadratureFailure(
            f"integral on [{lo}, {hi}] did not reach abs_tol={QUAD_ABS_TOL}: {rest[0]}"
        )
    return float(val), float(err)


_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_SCALAR_EVALS = 500


def minimize_bounded(
    f: Callable[[float], float], lo: float, hi: float, xatol: float
) -> tuple[float, float]:
    """Minimize a scalar f on [lo, hi]: returns (x, f(x)).

    Brent's bounded search (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5), in his notation: x is the best point so far,
    w the second best, v the previous w, u the new point. A step fits a
    parabola through x, w and v when that lands inside the bracket and
    shrinks it fast enough, and is a golden-section step otherwise. The
    search stops once x is within 2 (sqrt(eps) |x| + xatol / 3) of the
    bracket's middle, or after 500 evaluations. The steps are those of
    scipy.optimize.minimize_scalar(method="bounded"), so both return the
    same point; lo and hi themselves are never evaluated.
    """
    a, b = lo, hi
    v = w = x = a + _GOLDEN_MEAN * (b - a)
    fv = fw = fx = f(x)
    evals = 1
    d = e = 0.0  # the last step, and the one before it
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN_MEAN * e
        # never step closer than tol1
        u = x + (1.0 if d >= 0.0 else -1.0) * max(abs(d), tol1)
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= _MAX_SCALAR_EVALS:
            break
    return x, fx


def density_uniform_conv(amplitude: float, sigma: float) -> OutputDensity:
    """Density of U(-A, A) + N(0, sigma^2):
    p(t) = (1/2A) [Q((-A - t)/sigma) - Q((A - t)/sigma)].

    The density is even; it is evaluated at -|t|, where both Q values are
    upper tails and their difference does not cancel."""
    if amplitude <= 0.0 or sigma <= 0.0:
        raise ValueError("amplitude and sigma must be positive")
    a, s = float(amplitude), float(sigma)

    def pdf(t):
        t = -np.abs(np.asarray(t, float))
        return (q_function((-a - t) / s) - q_function((a - t) / s)) / (2.0 * a)

    lo = -a - _TAIL_SIGMAS * s
    return OutputDensity(pdf, (lo, -lo), "uniform-conv", s)


def density_trunc_gauss_conv(
    amplitude: float, sigma_x: float, sigma: float
) -> OutputDensity:
    """Density of a truncated Gaussian input plus Gaussian noise.

    p(t) = g(t) w(t) with g the zero-mean Gaussian density of variance
    sigma^2 + sigma_x^2 and w the truncation weighting built from the
    posterior scale sigma_tilde, 1/sigma_tilde^2 = 1/sigma_x^2 + 1/sigma^2.
    The density is even; it is evaluated at |t|, where both log-CDFs are
    lower tails and the log1p of their ratio stays finite.
    """
    if amplitude <= 0.0 or sigma_x <= 0.0 or sigma <= 0.0:
        raise ValueError("all parameters must be positive")
    a, sx, s = float(amplitude), float(sigma_x), float(sigma)
    if a / sx < 1e-8:
        raise DegenerateTruncation(
            f"normalizer underflow at A/sigma_x = {a / sx:.3e}"
        )
    var_sum = s * s + sx * sx
    st2 = 1.0 / (1.0 / (sx * sx) + 1.0 / (s * s))  # sigma_tilde^2
    st = math.sqrt(st2)
    # log of D = Phi(A/sx) - Phi(-A/sx), via erf for symmetry
    log_d = math.log(math.erf(a / sx / math.sqrt(2.0)))

    def pdf(t):
        t = np.abs(np.asarray(t, float))
        log_g = -0.5 * t * t / var_sum - 0.5 * math.log(2.0 * math.pi * var_sum)
        shift = t * st2 / (s * s)
        # w in log space: Q((-A - shift)/st) - Q((A - shift)/st), both in (0, 1)
        hi_cdf = log_ndtr((a - shift) / st)   # P(N <= A - shift)
        lo_cdf = log_ndtr((-a - shift) / st)  # P(N <= -A - shift)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = hi_cdf + np.log1p(-np.exp(lo_cdf - hi_cdf)) - log_d
        return np.exp(log_g + log_w)

    # the input is bounded by A, so only the noise tail extends the support
    half = a + _TAIL_SIGMAS * s
    return OutputDensity(pdf, (-half, half), "trunc-gauss-conv", s)


def _log_mixture(y, points, log_probs, sigma):
    """log sum_i p_i phi((y - x_i) / sigma) / sigma for every entry of y.

    The Gaussian-mixture log-density of a discrete input through
    N(0, sigma^2), as a log-sum-exp shifted by the maximum over the mixture
    axis. The result has y's shape; y may be a Python float. Zero-weight
    points (log p = -inf) drop out. A row whose terms are all -inf (no
    weight at all) gives -inf, with numpy's log(0) warning.

    The mixture axis leads the (K, *y.shape) terms: K is a handful of points
    against thousands of y values, and reducing over a short trailing axis
    runs one tiny loop per output, while over a leading axis the max and
    the sum are K - 1 elementwise passes over contiguous slices.
    """
    shape = (-1,) + (1,) * np.ndim(y)
    z = (y - points.reshape(shape)) / sigma
    a = log_probs.reshape(shape) - 0.5 * z * z
    # the floor keeps the shift finite on an all -inf row
    m = np.maximum(a.max(axis=0), _FLOAT_MIN)
    return (np.log(np.exp(a - m).sum(axis=0)) + m
            - math.log(sigma * _SQRT_2PI))


def density_discrete_conv(dist: DiscreteDistribution, sigma: float) -> OutputDensity:
    """Gaussian mixture induced by a discrete input through N(0, sigma^2)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    x, p = dist.as_arrays()
    s = float(sigma)
    log_p = np.log(p)

    def pdf(t):
        out = np.exp(_log_mixture(t, x, log_p, s))
        return float(out) if out.ndim == 0 else out

    lo = float(x.min()) - _TAIL_SIGMAS * s
    hi = float(x.max()) + _TAIL_SIGMAS * s
    return OutputDensity(pdf, (lo, hi), "gaussian-mixture", s, tuple(x))


def scheme_output_density(scheme: InputScheme, sigma: float) -> OutputDensity:
    """Density of scheme + N(0, sigma^2), dispatching on the scheme family."""
    if isinstance(scheme, DiscreteScheme):
        return density_discrete_conv(scheme.dist, sigma)
    if isinstance(scheme, UniformScheme):
        return density_uniform_conv(scheme.amplitude, sigma)
    if isinstance(scheme, TruncatedGaussianScheme):
        return density_trunc_gauss_conv(scheme.amplitude, scheme.sigma_x, sigma)
    raise TypeError(f"not an input scheme: {scheme!r}")


def normalization_error(d: OutputDensity) -> float:
    """|integral of d - 1| over the support hint extended by 2 units."""
    lo, hi = d.support
    val, _ = _quad(lambda t: float(d(t)), lo - 2.0, hi + 2.0, d.critical_points)
    return abs(val - 1.0)


def _gl_panels(lo: float, hi: float, sigma: float) -> tuple[np.ndarray, float]:
    """Centers and common half-width of the entropy rule's panels on [lo, hi],
    each about GL_PANEL_SIGMAS * sigma wide; QuadratureFailure past 2^16."""
    n = math.ceil((hi - lo) / (GL_PANEL_SIGMAS * sigma))
    if n > _GL_MAX_PANELS:
        raise QuadratureFailure(
            f"entropy on [{lo}, {hi}] needs {n} panels, more than "
            f"{_GL_MAX_PANELS}, to reach abs_tol={QUAD_ABS_TOL}")
    half = 0.5 * (hi - lo) / n
    return lo + half * (2.0 * np.arange(n) + 1.0), half


def differential_entropy(d: OutputDensity) -> RateResult:
    """h = -integral p log p over the support hint, in nats.

    A composite Gauss-Legendre rule (Davis & Rabinowitz, Methods of
    Numerical Integration, 1984): panels about GL_PANEL_SIGMAS * d.sigma
    wide, GL_NODES nodes each, evaluated through d.eval in one vectorized
    call per 1024 panels. The integrand is taken as 0 wherever p < 1e-300
    (x log x -> 0).

    quad_error sums, over the panels, the gap to the GL_CHECK_NODES rule on
    the same panels, plus a rounding bound eps * panels * integral |p log p|.
    Raises QuadratureFailure when it exceeds QUAD_ABS_TOL.
    """
    lo, hi = d.support
    centers, half = _gl_panels(lo, hi, d.sigma)
    value = gap = magnitude = 0.0
    for i in range(0, len(centers), _GL_PANELS_PER_CALL):
        c = centers[i:i + _GL_PANELS_PER_CALL, None]
        p = d(c + half * _GL_ALL_X)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(p < _DENSITY_FLOOR, 0.0, -p * np.log(p))
        fine = f[:, :GL_NODES] @ _GL_W
        coarse = f[:, GL_NODES:] @ _GL_CHECK_W
        value += half * fine.sum()
        gap += half * np.abs(fine - coarse).sum()
        magnitude += half * (np.abs(f[:, :GL_NODES]) @ _GL_W).sum()
    err = gap + np.finfo(float).eps * len(centers) * magnitude
    if not err <= QUAD_ABS_TOL:
        raise QuadratureFailure(
            f"entropy on [{lo}, {hi}] did not reach abs_tol={QUAD_ABS_TOL}: "
            f"error estimate {err:.3e}")
    return RateResult(nats=float(value), quad_error=float(err))


def _log_cosh(y: np.ndarray) -> np.ndarray:
    y = np.abs(y)
    return y + np.log1p(np.exp(-2.0 * y)) - math.log(2.0)


def mixed_gaussian_entropy_integral(amplitude: float) -> float:
    """The correction term I in h(Y) = h(N) + A^2 - I for the equal two-point
    input {-A, +A} through unit-variance noise.

    Stated form: I = 2/(sqrt(2 pi) A) exp(-A^2/2)
                     * int_0^inf exp(-y^2 / 2A^2) cosh(y) log cosh(y) dy.
    Substituting y = A t folds the growing cosh into two shifted Gaussian
    bells, which is what gets integrated here:
    I = int_0^inf [phi(t - A) + phi(t + A)] log cosh(A t) dt.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    a = float(amplitude)

    def integrand(t):
        bells = normal_pdf(t - a) + normal_pdf(t + a)
        return float(bells * _log_cosh(np.asarray(a * t)))

    hi = a + 12.0 + 12.0 / a  # both bells and the logcosh scale covered
    val, _ = _quad(integrand, 0.0, hi, (a,))
    return val


def mutual_information(scheme: InputScheme, sigma: float) -> RateResult:
    """I(X; X + N) = h(X + N) - h(N) for Gaussian N of std sigma, in nats."""
    d = scheme_output_density(scheme, sigma)
    h = differential_entropy(d)
    mi = h.nats - (GAUSS_ENTROPY_UNIT + math.log(sigma))
    return RateResult(nats=mi, quad_error=h.quad_error, entropy_legit=h.nats)


def sample_scheme(scheme: InputScheme, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. inputs from a scheme."""
    if isinstance(scheme, DiscreteScheme):
        x, p = scheme.dist.as_arrays()
        return rng.choice(x, size=n, p=p)
    if isinstance(scheme, UniformScheme):
        return rng.uniform(-scheme.amplitude, scheme.amplitude, size=n)
    if isinstance(scheme, TruncatedGaussianScheme):
        # inverse-CDF through the untruncated normal
        a = scheme.amplitude / scheme.sigma_x
        z = math.erf(a / math.sqrt(2.0))
        u = rng.uniform(0.5 * (1.0 - z), 0.5 * (1.0 + z), size=n)
        return scheme.sigma_x * ndtri(u)
    raise TypeError(f"not an input scheme: {scheme!r}")


def monte_carlo_mi_oracle(
    scheme: InputScheme, sigma: float, n_samples: int, seed: int
) -> float:
    """Histogram plug-in estimate of I(X; X + N), independent of the
    quadrature pipeline. Deterministic for a fixed seed.

    Uses ceil(n^(1/3)) equal-width bins; bias is O(bins / n) plus a
    discretization term O(width^2).
    """
    if n_samples < 10**6:
        raise ValueError("oracle needs at least 1e6 samples")
    rng = np.random.default_rng(seed)
    x = sample_scheme(scheme, n_samples, rng)
    y = x + sigma * rng.standard_normal(n_samples)
    bins = math.ceil(n_samples ** (1.0 / 3.0))
    counts, edges = np.histogram(y, bins=bins)
    width = edges[1] - edges[0]
    q = counts[counts > 0] / n_samples
    h_hat = -float(np.sum(q * np.log(q / width)))
    return h_hat - (GAUSS_ENTROPY_UNIT + math.log(sigma))
