"""Closed-form lower/upper bounds on the secret-key capacity and the
high- and low-amplitude asymptotics.

All values are in nats. Bounds 2 and 3 are literal closed forms; bound 1
is the difference of the two plain-channel capacities and therefore runs
the discrete-input solver.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelParams
from .errors import InvalidBeta
from .numerics import _SQRT_2PI, RateResult, maximize_on_grid
from .solver import DEFAULT_SOLVER, SolverConfig, plain_capacity

_BETA_LO = 1e-6
_BETA_HI = 50.0


def lower_bound_1(
    params: ChannelParams, cfg: SolverConfig = DEFAULT_SOLVER
) -> RateResult:
    """C_BE - C_E: enhanced-receiver capacity minus eavesdropper capacity,
    sign times `plain_capacity` summed over the equivalent wiretap's stack;
    quad_error is the sum of the two capacities' entropy-rule errors."""
    reps = [(sign, plain_capacity(params.amplitude, sigma, cfg))
            for sigma, sign in params.stack]
    return RateResult(sum(sign * rep.rate_nats for sign, rep in reps),
                      sum(rep.quad_error for _, rep in reps))


def lower_bound_2(params: ChannelParams, beta: float) -> float:
    """Closed-form lower bound with free parameter 0 < beta < inf."""
    if not 0.0 < beta < math.inf:
        raise InvalidBeta(f"beta must be positive and finite, got {beta}")
    a = params.amplitude
    sigma_e = math.sqrt(params.var_e)
    ratio = beta + a / sigma_e
    term1 = 0.5 * math.log1p(2.0 * a * a / (params.var_eq * math.pi * math.e))
    # Q(x) = erfc(x / sqrt 2) / 2
    term3 = 0.5 * math.erfc(beta / math.sqrt(2.0))
    term2 = (1.0 - math.erfc(ratio / math.sqrt(2.0))) * math.log(
        2.0 * ratio / (_SQRT_2PI * (1.0 - 2.0 * term3)))
    term4 = beta * math.exp(-0.5 * beta * beta) / _SQRT_2PI
    return term1 - term2 - term3 - term4 + 0.5


def maximize_lower_bound_2(params: ChannelParams) -> tuple[float, float]:
    """Maximize the beta-parametrized lower bound over [1e-6, 50] on a
    25-point log grid, assuming one maximum per pair of grid cells."""
    return maximize_on_grid(
        lambda betas: [lower_bound_2(params, b) for b in betas],
        np.geomspace(_BETA_LO, _BETA_HI, 25))


def lower_bound_3(params: ChannelParams) -> float:
    """Closed-form lower bound with no free parameter; 0 at A = 0."""
    a2 = params.amplitude**2
    pe = math.pi * math.e
    return 0.5 * math.log((6.0 * a2 / params.var_eq + 3.0 * pe)
                          / (pe * a2 / params.var_e + 3.0 * pe))


def upper_bound(params: ChannelParams) -> float:
    """Secret-key capacity under the average-power constraint A^2, which
    dominates the peak-constrained capacity."""
    a2 = params.amplitude**2
    return 0.5 * math.log1p(
        a2 * params.var_e / ((a2 + params.var_e) * params.var_d))


def high_a_limit(params: ChannelParams) -> float:
    """Common limit of the upper bound and the maximized closed-form lower
    bound as A grows: 0.5 log(1 + var_e / var_d)."""
    return 0.5 * math.log1p(params.var_e / params.var_d)
