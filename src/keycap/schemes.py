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
from .numerics import RateResult, minimize_bounded


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

    Unimodality is not assumed: a 50-point log grid (one batch) locates the
    basin, then a bounded Brent search over the two grid cells around the
    best grid point refines it to 1e-6 * A. A best point at either end of
    the grid is kept as it is: the grid's rates rise towards that end,
    which a bounded search never evaluates.
    """
    a = params.amplitude
    grid = np.geomspace(a / 100.0, 100.0 * a, 50)
    vals = [r.nats for r in secret_key_rates(
        params, [TruncatedGaussianScheme(a, s) for s in grid])]
    i = int(np.argmax(vals))
    sigma_star = float(grid[i])
    if 0 < i < len(grid) - 1:
        x, neg_rate = minimize_bounded(
            lambda s: -truncated_gaussian_rate(params, s).nats,
            float(grid[i - 1]), float(grid[i + 1]), 1e-6 * a)
        if -neg_rate >= vals[i]:
            sigma_star = x
    return sigma_star, truncated_gaussian_rate(params, sigma_star)
