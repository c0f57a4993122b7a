"""Channel model and the reduction to a degraded Gaussian wiretap channel.

The model: the sender transmits X with |X| <= A; the legitimate receiver
sees Y = X + N_D, the eavesdropper Z = X + N_E, with independent zero-mean
Gaussian noises of variances var_d and var_e. Combining Y and Z through the
sufficient statistic Y/var_d + Z/var_e turns the key-agreement problem into
a wiretap channel whose legitimate noise variance is the harmonic
combination var_eq = 1 / (1/var_d + 1/var_e) < min(var_d, var_e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedScheme
from .inputs import InputScheme, _check_positive_finite
from .numerics import RateResult, differential_entropy, scheme_output_density

_SUPPORT_SLACK = 1e-12


@dataclass(frozen=True)
class ChannelParams:
    """One instance of the key-agreement setting: (A, var_d, var_e)."""

    amplitude: float
    var_d: float
    var_e: float

    def __post_init__(self):
        _check_positive_finite(amplitude=self.amplitude, var_d=self.var_d,
                               var_e=self.var_e)


@dataclass(frozen=True)
class EquivalentWiretap:
    """Degraded wiretap equivalent: legitimate noise var_eq, eavesdropper var_e."""

    amplitude: float
    var_eq: float
    var_e: float


def equivalent_channel(params: ChannelParams) -> EquivalentWiretap:
    """Reduce the key-agreement model to its degraded wiretap equivalent."""
    var_eq = 1.0 / (1.0 / params.var_d + 1.0 / params.var_e)
    return EquivalentWiretap(params.amplitude, var_eq, params.var_e)


def rate_constant(params: ChannelParams) -> float:
    """The additive term 0.5 log(var_e / var_eq), strictly positive."""
    eq = equivalent_channel(params)
    return 0.5 * math.log(eq.var_e / eq.var_eq)


def secret_key_rate(params: ChannelParams, scheme: InputScheme) -> RateResult:
    """Secret-key rate of a scheme in nats:

        R = h(X + N_eq) - h(X + N_E) + 0.5 log(var_e / var_eq)

    which equals I(X; X + N_eq) - I(X; X + N_E) for the equivalent wiretap
    pair. Nonnegative for any admissible scheme (up to quadrature slack).
    """
    return secret_key_rates(params, [scheme])[0]


def secret_key_rates(params: ChannelParams, schemes) -> list[RateResult]:
    """secret_key_rate of each scheme of one family, from one batched
    entropy per noise (a batch of one for secret_key_rate)."""
    width = max(scheme.half_width for scheme in schemes)
    if width > params.amplitude * (1.0 + _SUPPORT_SLACK):
        raise UnsupportedScheme(
            f"scheme support {width} exceeds amplitude {params.amplitude}"
        )
    eq = equivalent_channel(params)
    h_eq = differential_entropy(
        scheme_output_density(schemes, math.sqrt(eq.var_eq)))
    h_e = differential_entropy(
        scheme_output_density(schemes, math.sqrt(eq.var_e)))
    c = rate_constant(params)
    return [RateResult(
        nats=legit.nats - eve.nats + c,
        quad_error=legit.quad_error + eve.quad_error,
        entropy_legit=legit.nats,
        entropy_eve=eve.nats,
    ) for legit, eve in zip(h_eq, h_e)]
