"""Output densities, quadrature, differential entropy and mutual information.

Everything here works on a generic observation T = X + N with N a zero-mean
Gaussian of standard deviation sigma, and X one of the admissible input
schemes. Densities come with a finite support hint outside which they fall
below 1e-16, so all integrals run over finite windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy.special import erfc, log_ndtr

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive-quadrature controls."""

    abs_tol: float = 1e-10
    max_subdivisions: int = 2**15

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive and finite")
        if self.max_subdivisions <= 0:
            raise ValueError("max_subdivisions must be positive")


DEFAULT_QUAD = QuadratureSpec()


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
    critical_points flags locations (e.g. mixture centers) that the
    adaptive integrator should subdivide at.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    kind: str
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
    spec: QuadratureSpec,
    points: tuple[float, ...] = (),
) -> tuple[float, float]:
    """scipy adaptive quadrature with the spec's budget; raises on failure."""
    pts = [p for p in points if lo < p < hi] or None
    val, err, info, *rest = integrate.quad(
        f, lo, hi,
        epsabs=spec.abs_tol, epsrel=0.0,
        limit=spec.max_subdivisions, points=pts,
        full_output=True,
    )
    if rest:
        raise QuadratureFailure(
            f"integral on [{lo}, {hi}] did not reach abs_tol={spec.abs_tol}: {rest[0]}"
        )
    return float(val), float(err)


def density_uniform_conv(amplitude: float, sigma: float) -> OutputDensity:
    """Density of U(-A, A) + N(0, sigma^2):
    p(t) = (1/2A) [Q((-A - t)/sigma) - Q((A - t)/sigma)]."""
    if amplitude <= 0.0 or sigma <= 0.0:
        raise ValueError("amplitude and sigma must be positive")
    a, s = float(amplitude), float(sigma)

    def pdf(t):
        t = np.asarray(t, float)
        return (q_function((-a - t) / s) - q_function((a - t) / s)) / (2.0 * a)

    lo = -a - _TAIL_SIGMAS * s
    return OutputDensity(pdf, (lo, -lo), "uniform-conv")


def density_trunc_gauss_conv(
    amplitude: float, sigma_x: float, sigma: float
) -> OutputDensity:
    """Density of a truncated Gaussian input plus Gaussian noise.

    p(t) = g(t) w(t) with g the zero-mean Gaussian density of variance
    sigma^2 + sigma_x^2 and w the truncation weighting built from the
    posterior scale sigma_tilde, 1/sigma_tilde^2 = 1/sigma_x^2 + 1/sigma^2.
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
        t = np.asarray(t, float)
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
    return OutputDensity(pdf, (-half, half), "trunc-gauss-conv")


def _log_mixture(y, points, log_probs, sigma):
    """log sum_i p_i phi((y - x_i) / sigma) / sigma for every entry of y.

    The Gaussian-mixture log-density of a discrete input through
    N(0, sigma^2), as a log-sum-exp shifted by the maximum over the mixture
    axis. Zero-weight points (log p = -inf) drop out. A row whose terms are
    all -inf (no weight at all) gives -inf, with numpy's log(0) warning.
    """
    z = (y[..., None] - points) / sigma
    a = log_probs - 0.5 * z * z
    # the floor keeps the shift finite on an all -inf row
    m = np.maximum(a.max(axis=-1), _FLOAT_MIN)
    return (np.log(np.exp(a - m[..., None]).sum(axis=-1)) + m
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
    return OutputDensity(pdf, (lo, hi), "gaussian-mixture", tuple(x))


def scheme_output_density(scheme: InputScheme, sigma: float) -> OutputDensity:
    """Density of scheme + N(0, sigma^2), dispatching on the scheme family."""
    if isinstance(scheme, DiscreteScheme):
        return density_discrete_conv(scheme.dist, sigma)
    if isinstance(scheme, UniformScheme):
        return density_uniform_conv(scheme.amplitude, sigma)
    if isinstance(scheme, TruncatedGaussianScheme):
        return density_trunc_gauss_conv(scheme.amplitude, scheme.sigma_x, sigma)
    raise TypeError(f"not an input scheme: {scheme!r}")


def normalization_error(d: OutputDensity, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """|integral of d - 1| over the support hint extended by 2 units."""
    lo, hi = d.support
    val, _ = _quad(lambda t: float(d(t)), lo - 2.0, hi + 2.0, spec, d.critical_points)
    return abs(val - 1.0)


def differential_entropy(
    d: OutputDensity, spec: QuadratureSpec = DEFAULT_QUAD
) -> RateResult:
    """h = -integral p log p over the support hint, in nats.

    The integrand is taken as 0 wherever p < 1e-300 (x log x -> 0).
    """

    def integrand(t):
        p = float(d(t))
        if p < _DENSITY_FLOOR:
            return 0.0
        return -p * math.log(p)

    lo, hi = d.support
    val, err = _quad(integrand, lo, hi, spec, d.critical_points)
    return RateResult(nats=val, quad_error=err)


def density_variance(d: OutputDensity, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Variance of the density by quadrature (mean subtracted)."""
    lo, hi = d.support
    mean, _ = _quad(lambda t: t * float(d(t)), lo, hi, spec, d.critical_points)
    m2, _ = _quad(
        lambda t: (t - mean) ** 2 * float(d(t)), lo, hi, spec, d.critical_points
    )
    return m2


def _log_cosh(y: np.ndarray) -> np.ndarray:
    y = np.abs(y)
    return y + np.log1p(np.exp(-2.0 * y)) - math.log(2.0)


def mixed_gaussian_entropy_integral(
    amplitude: float, spec: QuadratureSpec = DEFAULT_QUAD
) -> float:
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
    val, _ = _quad(integrand, 0.0, hi, spec, (a,))
    return val


def mutual_information(
    scheme: InputScheme, sigma: float, spec: QuadratureSpec = DEFAULT_QUAD
) -> RateResult:
    """I(X; X + N) = h(X + N) - h(N) for Gaussian N of std sigma, in nats."""
    d = scheme_output_density(scheme, sigma)
    h = differential_entropy(d, spec)
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
        from scipy.special import ndtri

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
