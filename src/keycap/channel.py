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
from .inputs import InputScheme
from .numerics import (
    DEFAULT_QUAD,
    QuadratureSpec,
    RateResult,
    differential_entropy,
    scheme_output_density,
)

_SUPPORT_SLACK = 1e-12


@dataclass(frozen=True)
class ChannelParams:
    """One instance of the key-agreement setting: (A, var_d, var_e)."""

    amplitude: float
    var_d: float
    var_e: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ValueError(
                f"amplitude must be positive and finite, got {self.amplitude}")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.var_d, self.var_e)):
            raise ValueError(
                f"noise variances must be positive and finite, got "
                f"var_d={self.var_d}, var_e={self.var_e}")


@dataclass(frozen=True)
class EquivalentWiretap:
    """Degraded wiretap equivalent: legitimate noise var_eq, eavesdropper var_e."""

    amplitude: float
    var_eq: float
    var_e: float

    def __post_init__(self):
        if min(self.amplitude, self.var_eq, self.var_e) <= 0.0:
            raise ValueError("all fields must be positive")


def equivalent_channel(params: ChannelParams) -> EquivalentWiretap:
    """Reduce the key-agreement model to its degraded wiretap equivalent."""
    var_eq = 1.0 / (1.0 / params.var_d + 1.0 / params.var_e)
    return EquivalentWiretap(params.amplitude, var_eq, params.var_e)


def rate_constant(params: ChannelParams) -> float:
    """The additive term 0.5 log(var_e / var_eq), strictly positive."""
    eq = equivalent_channel(params)
    return 0.5 * math.log(eq.var_e / eq.var_eq)


def secret_key_rate(
    params: ChannelParams,
    scheme: InputScheme,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> RateResult:
    """Secret-key rate of a scheme in nats:

        R = h(X + N_eq) - h(X + N_E) + 0.5 log(var_e / var_eq)

    which equals I(X; X + N_eq) - I(X; X + N_E) for the equivalent wiretap
    pair. Nonnegative for any admissible scheme (up to quadrature slack).
    """
    if scheme.half_width > params.amplitude * (1.0 + _SUPPORT_SLACK):
        raise UnsupportedScheme(
            f"scheme support {scheme.half_width} exceeds amplitude {params.amplitude}"
        )
    eq = equivalent_channel(params)
    h_eq = differential_entropy(
        scheme_output_density(scheme, math.sqrt(eq.var_eq)), spec
    )
    h_e = differential_entropy(
        scheme_output_density(scheme, math.sqrt(eq.var_e)), spec
    )
    rate = h_eq.nats - h_e.nats + 0.5 * math.log(eq.var_e / eq.var_eq)
    return RateResult(
        nats=rate,
        quad_error=h_eq.quad_error + h_e.quad_error,
        entropy_legit=h_eq.nats,
        entropy_eve=h_e.nats,
    )


def mi_difference_rate(
    params: ChannelParams,
    scheme: InputScheme,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> RateResult:
    """Same rate as secret_key_rate but assembled as a difference of the two
    mutual informations, for internal consistency checks."""
    from .numerics import mutual_information

    if scheme.half_width > params.amplitude * (1.0 + _SUPPORT_SLACK):
        raise UnsupportedScheme("scheme support exceeds amplitude")
    eq = equivalent_channel(params)
    mi_eq = mutual_information(scheme, math.sqrt(eq.var_eq), spec)
    mi_e = mutual_information(scheme, math.sqrt(eq.var_e), spec)
    return RateResult(
        nats=mi_eq.nats - mi_e.nats,
        quad_error=mi_eq.quad_error + mi_e.quad_error,
        entropy_legit=mi_eq.entropy_legit,
        entropy_eve=mi_e.entropy_legit,
    )
