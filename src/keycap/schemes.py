"""Suboptimal input schemes evaluated through the unified rate pipeline.

Three families trade optimality for tractability: equally spaced equal-mass
points (with the point count K selectable), the continuous uniform law, and
a truncated Gaussian whose scale can be optimized or set to the heuristic
sigma_x = A.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from .channel import ChannelParams, secret_key_rate
from .inputs import TruncatedGaussianScheme, UniformScheme, maxentropic_scheme
from .numerics import RateResult


def best_maxentropic(
    params: ChannelParams, k_max: int = 32
) -> tuple[int, RateResult]:
    """Exhaustive search over the point count K = 2..k_max. Rates within
    their summed quadrature errors of the maximum tie, and ties go to the
    smaller K."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    a = params.amplitude
    rates = [secret_key_rate(params, maxentropic_scheme(a, k))
             for k in range(2, k_max + 1)]
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

    Unimodality is not assumed: a 50-point log grid locates the basin, then
    golden-section refines it to 1e-6 * A.
    """
    a = params.amplitude
    grid = np.geomspace(a / 100.0, 100.0 * a, 50)
    vals = [truncated_gaussian_rate(params, s).nats for s in grid]
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    def neg(s):
        return -truncated_gaussian_rate(params, float(s)).nats

    sigma_star = float(grid[i])
    if lo < grid[i] < hi:
        try:
            res = minimize_scalar(
                neg, bracket=(lo, grid[i], hi), method="golden",
                options={"xtol": 1e-6 * a / grid[i]})
            if -res.fun >= vals[i]:
                sigma_star = float(res.x)
        except ValueError:
            # flat bracket; the grid point already is the maximum
            pass
    return sigma_star, truncated_gaussian_rate(params, sigma_star)
