"""Suboptimal input schemes evaluated through the unified rate pipeline.

Three families trade optimality for tractability: equally spaced equal-mass
points (with the point count K selectable), the continuous uniform law, and
a truncated Gaussian whose scale can be optimized or set to the heuristic
sigma_x = A.
"""

from __future__ import annotations

import numbers

import numpy as np

from .channel import ChannelParams, secret_key_rate, secret_key_rates
from .inputs import TruncatedGaussianScheme, UniformScheme, maxentropic_scheme
from .numerics import RateResult, maximize_on_grid


def best_maxentropic(
    params: ChannelParams, k_max: int = 32
) -> tuple[int, RateResult]:
    """Bracketed search over the point count K = 2..k_max, in two batches:
    the √2 ladder round(2·2^(i/2)) < k_max plus k_max (2, 3, 4, 6, 8, 11,
    16, 23, 32 for k_max = 32), then the integers strictly between the
    ladder's best K and its ladder neighbours (an end bounds itself). Rates
    within their summed quadrature errors of the maximum tie, and ties go to
    the smaller K. The search assumes that the rate is unimodal in K."""
    if not isinstance(k_max, numbers.Integral) or k_max < 2:
        raise ValueError(f"k_max must be an integer >= 2, got {k_max!r}")
    k_max = int(k_max)
    ladder = [k for i in range(2 * k_max.bit_length())
              if (k := round(2.0 * 2.0 ** (i / 2.0))) < k_max] + [k_max]
    rated = {}

    def best_with(counts):  # one batch for the counts not yet rated
        if new := [k for k in counts if k not in rated]:
            rated.update(zip(new, secret_key_rates(params, [
                maxentropic_scheme(params.amplitude, k) for k in new])))
        best = max(rated.values(), key=lambda r: r.nats)
        return min(k for k, r in rated.items()
                   if r.nats >= best.nats - (r.quad_error + best.quad_error))

    i = ladder.index(best_with(ladder))
    lo, hi = ladder[max(i - 1, 0)], ladder[min(i + 1, len(ladder) - 1)]
    k = best_with(range(lo + 1, hi))
    return k, rated[k]


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

    `maximize_on_grid` takes a 9-point log grid, half a decade apart (one
    batch), and refines its best point unless at an end of the grid; each
    Newton step's rate and central differences are one 3-member batch. The
    search assumes one maximum of the rate per pair of grid cells.
    """
    a = params.amplitude
    sigma_star, _ = maximize_on_grid(
        lambda sx: [r.nats for r in secret_key_rates(
            params, [TruncatedGaussianScheme(a, s) for s in sx])],
        np.geomspace(a / 100.0, 100.0 * a, 9))
    return sigma_star, truncated_gaussian_rate(params, sigma_star)
