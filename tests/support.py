"""Fixtures and oracles shared by the tests; nothing in keycap calls them.

The oracles integrate with scipy's adaptive QUADPACK (`_quad`), independent
of the package's trapezoid lattice entropy rule."""

import math
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import ndtri

from keycap.bounds import _BETA_HI, _BETA_LO, lower_bound_2
from keycap.channel import ChannelParams, secret_key_rates
from keycap.errors import QuadratureFailure

from keycap.inputs import (
    DiscreteDistribution,
    InputScheme,
    TruncatedGaussianScheme,
    UniformScheme,
    maxentropic_scheme,
)
from keycap.numerics import (
    GAUSS_ENTROPY_UNIT,
    QUAD_ABS_TOL,
    OutputDensity,
    RateResult,
    maximize_on_grid,
)
from keycap.schemes import truncated_gaussian_rate

# subdivision budget of the QUADPACK oracle integrals
QUAD_MAX_SUBDIVISIONS = 2**15


def _quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    points: tuple[float, ...] = (),
) -> tuple[float, float]:
    """scipy adaptive quadrature with the fixed budget; raises on failure."""
    pts = [p for p in points if lo < p < hi] or None
    val, err, info, *rest = integrate.quad(
        f, lo, hi,
        epsabs=QUAD_ABS_TOL, epsrel=0.0,
        limit=QUAD_MAX_SUBDIVISIONS, points=pts,
        full_output=True,
    )
    if rest:
        raise QuadratureFailure(
            f"integral on [{lo}, {hi}] did not reach "
            f"abs_tol={QUAD_ABS_TOL}: {rest[0]}")
    return float(val), float(err)


def normal_pdf(x):
    x = np.asarray(x, float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def member(d: OutputDensity, i: int = 0) -> Callable:
    """Member i of the batch density d, as a function of t (a float or an
    array of points)."""
    return lambda t: d.eval(np.asarray(t, float))[i]


def normalization_error(
    d: OutputDensity, breakpoints: tuple[float, ...] = ()
) -> float:
    """|integral of member 0 of d - 1| over the support hint extended by 2
    units; QUADPACK subdivides at the breakpoints (e.g. mixture centers)."""
    lo, hi = d.support
    p = member(d)
    val, _ = _quad(lambda t: float(p(t)), lo - 2.0, hi + 2.0, breakpoints)
    return abs(val - 1.0)


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


def exhaustive_maxentropic(
    params: ChannelParams, k_max: int = 32
) -> tuple[int, RateResult]:
    """Exhaustive search over the point count K = 2..k_max, one batch. Rates
    within their summed quadrature errors of the maximum tie, and ties go to
    the smaller K. The oracle of `schemes.best_maxentropic`'s bracketed
    search."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    a = params.amplitude
    rates = secret_key_rates(
        params, [maxentropic_scheme(a, k) for k in range(2, k_max + 1)])
    best = max(rates, key=lambda r: r.nats)
    k = next(k for k, r in enumerate(rates, 2)
             if r.nats >= best.nats - (r.quad_error + best.quad_error))
    return k, rates[k - 2]


def full_grid_truncated_gaussian(
    params: ChannelParams,
) -> tuple[float, RateResult]:
    """The truncated-Gaussian rate maximized over sigma_x in [A/100, 100 A]
    by `maximize_on_grid` on a 50-point log grid (one batch). The oracle of
    `schemes.optimize_truncated_gaussian`, whose 9-point grid has the same
    ends; it finds the same maximum if the rate has one maximum per pair of
    the 9-point grid's cells."""
    a = params.amplitude
    sigma_star, _ = maximize_on_grid(
        lambda sx: [r.nats for r in secret_key_rates(
            params, [TruncatedGaussianScheme(a, s) for s in sx])],
        np.geomspace(a / 100.0, 100.0 * a, 50))
    return sigma_star, truncated_gaussian_rate(params, sigma_star)


def full_grid_lower_bound_2(params: ChannelParams) -> tuple[float, float]:
    """LB2 maximized over beta in [1e-6, 50] by `maximize_on_grid` on a
    200-point log grid. The oracle of `bounds.maximize_lower_bound_2`, whose
    25-point grid has the same ends; it finds the same maximum if LB2 has
    one maximum per pair of the 25-point grid's cells."""
    return maximize_on_grid(
        lambda betas: [lower_bound_2(params, b) for b in betas],
        np.geomspace(_BETA_LO, _BETA_HI, 200))


def mirrored(dist: DiscreteDistribution) -> DiscreteDistribution:
    """The distribution of -X."""
    return DiscreteDistribution(
        tuple(-x for x in reversed(dist.points)),
        tuple(reversed(dist.probs)),
    )


def point_mass_scheme(location: float = 0.0) -> DiscreteDistribution:
    return DiscreteDistribution((location,), (1.0,))


def density_variance(
    d: OutputDensity, breakpoints: tuple[float, ...] = ()
) -> float:
    """Variance of member 0 of d by quadrature (mean subtracted),
    subdivided at the breakpoints."""
    lo, hi = d.support
    p = member(d)
    mean, _ = _quad(lambda t: t * float(p(t)), lo, hi, breakpoints)
    m2, _ = _quad(lambda t: (t - mean) ** 2 * float(p(t)), lo, hi,
                  breakpoints)
    return m2


def sample_scheme(
    scheme: InputScheme, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n i.i.d. inputs from a scheme."""
    if isinstance(scheme, DiscreteDistribution):
        x, p = scheme.as_arrays()
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
