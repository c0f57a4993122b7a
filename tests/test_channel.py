import math

import numpy as np
import pytest

from keycap import (
    ChannelParams,
    DiscreteDistribution,
    DiscreteScheme,
    UnsupportedScheme,
    equivalent_channel,
    maxentropic_scheme,
    monte_carlo_mi_oracle,
    secret_key_rate,
)
from keycap.channel import mi_difference_rate, rate_constant
from keycap.inputs import point_mass_scheme


def test_equivalent_channel_symmetric_case():
    eq = equivalent_channel(ChannelParams(1.0, 1.0, 1.0))
    assert eq.var_eq == pytest.approx(0.5, abs=0)


def test_equivalent_channel_direct():
    eq = equivalent_channel(ChannelParams(1.0, 1.0, 2.0))
    assert eq.var_eq == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_equivalent_channel_vanishing_eavesdropper():
    eq = equivalent_channel(ChannelParams(5.0, 1.0, 1e12))
    assert eq.var_eq == pytest.approx(1.0, rel=1e-11)


def test_equivalent_always_better():
    rng = np.random.default_rng(1)
    for _ in range(50):
        vd, ve = rng.uniform(0.05, 20.0, size=2)
        eq = equivalent_channel(ChannelParams(1.0, vd, ve))
        assert eq.var_eq < min(vd, ve)


def test_invalid_params_rejected():
    for bad in ((0.0, 1, 1), (1, -1, 1), (1, 1, 0.0), (math.nan, 1, 2),
                (math.inf, 1, 2), (1, math.inf, 2), (1, 1, math.nan)):
        with pytest.raises(ValueError):
            ChannelParams(*bad)


def test_rate_constant_strictly_positive():
    assert rate_constant(ChannelParams(1.0, 1.0, 1e6)) > 0.0
    assert rate_constant(ChannelParams(1.0, 3.0, 0.01)) > 0.0


def test_point_mass_rate_is_zero():
    p = ChannelParams(1.0, 1.0, 2.0)
    r = secret_key_rate(p, point_mass_scheme())
    assert r.nats == pytest.approx(0.0, abs=1e-9)


def test_rate_nonnegative_and_diagnostics():
    p = ChannelParams(1.0, 1.0, 2.0)
    r = secret_key_rate(p, maxentropic_scheme(1.0, 2))
    assert r.nats > 0.0
    assert r.entropy_legit is not None and r.entropy_eve is not None
    # the eavesdropper sees more noise, so its output entropy is larger
    assert r.entropy_eve > r.entropy_legit
    assert r.quad_error < 1e-8


def test_support_violation_raises():
    p = ChannelParams(1.0, 1.0, 2.0)
    with pytest.raises(UnsupportedScheme):
        secret_key_rate(p, maxentropic_scheme(1.5, 2))


def test_mirror_invariance():
    p = ChannelParams(1.0, 1.0, 2.0)
    d = DiscreteDistribution((-1.0, 0.2, 0.9), (0.3, 0.3, 0.4))
    r = secret_key_rate(p, DiscreteScheme(d))
    rm = secret_key_rate(p, DiscreteScheme(d.mirrored()))
    assert r.nats == pytest.approx(rm.nats, abs=1e-10)


def test_entropy_form_equals_mi_difference():
    p = ChannelParams(1.2, 0.8, 2.5)
    s = DiscreteScheme(
        DiscreteDistribution((-1.2, -0.3, 1.0), (0.25, 0.4, 0.35)))
    a = secret_key_rate(p, s)
    b = mi_difference_rate(p, s)
    assert a.nats == pytest.approx(b.nats, abs=1e-8)


def test_two_point_rate_against_monte_carlo():
    p = ChannelParams(1.0, 1.0, 2.0)
    eq = equivalent_channel(p)
    s = maxentropic_scheme(1.0, 2)
    quad = secret_key_rate(p, s).nats
    mc = (monte_carlo_mi_oracle(s, math.sqrt(eq.var_eq), 10**7, 2)
          - monte_carlo_mi_oracle(s, math.sqrt(eq.var_e), 10**7, 3))
    assert quad == pytest.approx(mc, abs=1e-2)
