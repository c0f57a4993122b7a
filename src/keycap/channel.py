"""Channel model and the reduction to a degraded Gaussian wiretap channel.

The model: the sender transmits X with |X| <= A; the legitimate receiver
sees Y = X + N_D, the eavesdropper Z = X + N_E, with independent zero-mean
Gaussian noises of variances var_d and var_e. Combining Y and Z through the
sufficient statistic Y/var_d + Z/var_e turns the key-agreement problem into
a wiretap channel whose legitimate noise variance is the harmonic
combination var_eq = 1 / (1/var_d + 1/var_e) < min(var_d, var_e): the
noise stack ((sqrt var_eq, +1), (sqrt var_e, -1)), `ChannelParams.stack`,
which every secret-key rate (`numerics.stack_rates`) and solve sums over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .inputs import InputScheme, _check_positive_finite
from .numerics import RateResult, stack_rates

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

    @property
    def var_eq(self) -> float:
        """Legitimate noise variance of the degraded wiretap equivalent."""
        return 1.0 / (1.0 / self.var_d + 1.0 / self.var_e)

    @property
    def stack(self) -> tuple[tuple[float, float], ...]:
        """The (sigma, sign) noise stack every secret-key rate sums over."""
        return ((math.sqrt(self.var_eq), 1.0), (math.sqrt(self.var_e), -1.0))


def secret_key_rate(params: ChannelParams, scheme: InputScheme) -> RateResult:
    """Secret-key rate of a scheme in nats, I(X; X + N_eq) - I(X; X + N_E)
    for the equivalent wiretap pair: sign (h(X + N) - h(N)) summed over its
    stack. Nonnegative for any admissible scheme (up to quadrature slack).
    """
    return secret_key_rates(params, [scheme])[0]


def secret_key_rates(params: ChannelParams, schemes) -> list[RateResult]:
    """secret_key_rate of each scheme of one family: `stack_rates` on the
    equivalent wiretap's stack, after checking every support fits [-A, A]."""
    width = max(scheme.half_width for scheme in schemes)
    if width > params.amplitude * (1.0 + _SUPPORT_SLACK):
        raise ValueError(f"scheme support {width} exceeds amplitude "
                         f"{params.amplitude}")
    return stack_rates(schemes, params.stack)
