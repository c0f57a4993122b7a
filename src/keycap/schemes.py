"""Suboptimal input schemes evaluated through the unified rate pipeline.

Three families trade optimality for tractability: equally spaced equal-mass
points (with the point count K selectable), the continuous uniform law, and
a truncated Gaussian whose scale can be optimized or set to the heuristic
sigma_x = A.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelParams, secret_key_rate, secret_key_rates
from .inputs import TruncatedGaussianScheme, UniformScheme, maxentropic_scheme
from .numerics import RateResult, maximize_on_grid


def best_maxentropic(
    params: ChannelParams, k_max: int = 32
) -> tuple[int, RateResult]:
    """Exhaustive search over the point count K = 2..k_max, one batch. Rates
    within their summed quadrature errors of the maximum tie, and ties go to
    the smaller K."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    a = params.amplitude
    rates = secret_key_rates(
        params, [maxentropic_scheme(a, k) for k in range(2, k_max + 1)])
    best = max(rates, key=lambda r: r.nats)
    k = next(k for k, r in enumerate(rates, 2)
             if r.nats >= best.nats - (r.quad_error + best.quad_error))
    return k, rates[k - 2]


def uniform_scheme_rate(params: ChannelParams) -> RateResult:
    return secret_key_rate(params, UniformScheme(params.amplitude))


def truncated_gaussian_rate(
    params: ChannelParams, sigma_x: float
) -> RateResult:
    return secret_key_rate(
        params, TruncatedGaussianScheme(params.amplitude, sigma_x))


def optimize_truncated_gaussian(
    params: ChannelParams,
) -> tuple[float, RateResult]:
    """Maximize the truncated-Gaussian rate over sigma_x in [A/100, 100 A].

    Unimodality is not assumed: `maximize_on_grid` takes a 50-point log
    grid (one batch) and refines its best point, unless at an end of the
    grid, where the grid's rates rise towards that end; each Newton step's
    rate and central differences are one 3-member batch.
    """
    a = params.amplitude
    sigma_star, _ = maximize_on_grid(
        lambda sx: [r.nats for r in secret_key_rates(
            params, [TruncatedGaussianScheme(a, s) for s in sx])],
        np.geomspace(a / 100.0, 100.0 * a, 50))
    return sigma_star, truncated_gaussian_rate(params, sigma_star)
