import math

import numpy as np
import pytest

from keycap import (
    ChannelParams,
    DiscreteDistribution,
    TruncatedGaussianScheme,
    UniformScheme,
    UnsupportedScheme,
    differential_entropy,
    maxentropic_scheme,
    mutual_information,
    plain_capacity,
    secret_key_capacity,
    secret_key_rate,
)
from keycap.numerics import scheme_output_density
from support import mirrored, monte_carlo_mi_oracle, point_mass_scheme


def test_equivalent_channel_symmetric_case():
    assert ChannelParams(1.0, 1.0, 1.0).var_eq == pytest.approx(0.5, abs=0)


def test_equivalent_channel_direct():
    p = ChannelParams(1.0, 1.0, 2.0)
    assert p.var_eq == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_equivalent_channel_vanishing_eavesdropper():
    p = ChannelParams(5.0, 1.0, 1e12)
    assert p.var_eq == pytest.approx(1.0, rel=1e-11)


def test_equivalent_always_better():
    rng = np.random.default_rng(1)
    for _ in range(50):
        vd, ve = rng.uniform(0.05, 20.0, size=2)
        assert ChannelParams(1.0, vd, ve).var_eq < min(vd, ve)


def test_invalid_params_rejected():
    for bad in ((0.0, 1, 1), (1, -1, 1), (1, 1, 0.0), (math.nan, 1, 2),
                (math.inf, 1, 2), (1, math.inf, 2), (1, 1, math.nan)):
        with pytest.raises(ValueError):
            ChannelParams(*bad)


def test_rate_constant_strictly_positive():
    # h(N_E) - h(N_eq) = 0.5 log(var_e / var_eq) > 0: the stack's legitimate
    # noise is the smaller, with sign +1
    for p in (ChannelParams(1.0, 1.0, 1e6), ChannelParams(1.0, 3.0, 0.01)):
        (sigma_eq, plus), (sigma_e, minus) = p.stack
        assert sigma_eq < sigma_e and (plus, minus) == (1.0, -1.0)


def test_point_mass_rate_is_zero():
    p = ChannelParams(1.0, 1.0, 2.0)
    r = secret_key_rate(p, point_mass_scheme())
    assert r.nats == pytest.approx(0.0, abs=1e-9)


def test_rate_nonnegative_and_diagnostics():
    p = ChannelParams(1.0, 1.0, 2.0)
    s = maxentropic_scheme(1.0, 2)
    r = secret_key_rate(p, s)
    assert r.nats > 0.0
    # the eavesdropper sees more noise, so its output entropy is larger
    (h_legit,), (h_eve,) = [
        differential_entropy(scheme_output_density([s], sigma))
        for sigma, _ in p.stack]
    assert h_eve.nats > h_legit.nats
    assert r.quad_error < 1e-8


def test_support_violation_raises():
    p = ChannelParams(1.0, 1.0, 2.0)
    with pytest.raises(UnsupportedScheme):
        secret_key_rate(p, maxentropic_scheme(1.5, 2))


def test_mirror_invariance():
    p = ChannelParams(1.0, 1.0, 2.0)
    d = DiscreteDistribution((-1.0, 0.2, 0.9), (0.3, 0.3, 0.4))
    r = secret_key_rate(p, d)
    rm = secret_key_rate(p, mirrored(d))
    assert r.nats == pytest.approx(rm.nats, abs=1e-10)


def test_entropy_form_equals_mi_difference():
    # the secret-key rate is the sign-weighted sum of the stack's mutual
    # informations, for every input family
    p = ChannelParams(1.2, 0.8, 2.5)
    stack = p.stack
    for s in (DiscreteDistribution((-1.2, -0.3, 1.0), (0.25, 0.4, 0.35)),
              maxentropic_scheme(1.2, 3), UniformScheme(1.2),
              TruncatedGaussianScheme(1.2, 1.2)):
        b = sum(sign * mutual_information(s, sigma).nats
                for sigma, sign in stack)
        assert secret_key_rate(p, s).nats == pytest.approx(b, abs=1e-14), s


def test_report_law_is_a_scheme():
    # a solver report's law is rated as it stands, to the reported rate
    p = ChannelParams(math.sqrt(2.0), 1.0, 2.0)
    rep = secret_key_capacity(p)
    assert secret_key_rate(p, rep.distribution).nats == rep.rate_nats
    sigma = math.sqrt(p.var_eq)
    rep = plain_capacity(p.amplitude, sigma)
    assert mutual_information(rep.distribution, sigma).nats == rep.rate_nats


def test_two_point_rate_against_monte_carlo():
    p = ChannelParams(1.0, 1.0, 2.0)
    s = maxentropic_scheme(1.0, 2)
    quad = secret_key_rate(p, s).nats
    mc = (monte_carlo_mi_oracle(s, math.sqrt(p.var_eq), 10**7, 2)
          - monte_carlo_mi_oracle(s, math.sqrt(p.var_e), 10**7, 3))
    assert quad == pytest.approx(mc, abs=1e-2)
