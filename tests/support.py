"""Fixtures and oracles shared by the tests; nothing in keycap calls them."""

import math

import numpy as np
from scipy.special import ndtri

from keycap.inputs import (
    DiscreteDistribution,
    DiscreteScheme,
    InputScheme,
    TruncatedGaussianScheme,
    UniformScheme,
)
from keycap.numerics import GAUSS_ENTROPY_UNIT, OutputDensity, _quad


def mirrored(dist: DiscreteDistribution) -> DiscreteDistribution:
    """The distribution of -X."""
    return DiscreteDistribution(
        tuple(-x for x in reversed(dist.points)),
        tuple(reversed(dist.probs)),
    )


def point_mass_scheme(location: float = 0.0) -> DiscreteScheme:
    return DiscreteScheme(DiscreteDistribution((location,), (1.0,)))


def density_variance(d: OutputDensity) -> float:
    """Variance of the density by quadrature (mean subtracted)."""
    lo, hi = d.support
    mean, _ = _quad(lambda t: t * float(d(t)), lo, hi, d.critical_points)
    m2, _ = _quad(
        lambda t: (t - mean) ** 2 * float(d(t)), lo, hi, d.critical_points)
    return m2


def sample_scheme(
    scheme: InputScheme, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n i.i.d. inputs from a scheme."""
    if isinstance(scheme, DiscreteScheme):
        x, p = scheme.dist.as_arrays()
        return rng.choice(x, size=n, p=p)
    if isinstance(scheme, UniformScheme):
        return rng.uniform(-scheme.amplitude, scheme.amplitude, size=n)
    if isinstance(scheme, TruncatedGaussianScheme):
        # inverse-CDF through the untruncated normal
        a = scheme.amplitude / scheme.sigma_x
        z = math.erf(a / math.sqrt(2.0))
        u = rng.uniform(0.5 * (1.0 - z), 0.5 * (1.0 + z), size=n)
        return scheme.sigma_x * ndtri(u)
    raise TypeError(f"not an input scheme: {scheme!r}")


def monte_carlo_mi_oracle(
    scheme: InputScheme, sigma: float, n_samples: int, seed: int
) -> float:
    """Histogram plug-in estimate of I(X; X + N), independent of the
    quadrature pipeline. Deterministic for a fixed seed.

    Uses ceil(n^(1/3)) equal-width bins; bias is O(bins / n) plus a
    discretization term O(width^2).
    """
    if n_samples < 10**6:
        raise ValueError("oracle needs at least 1e6 samples")
    rng = np.random.default_rng(seed)
    x = sample_scheme(scheme, n_samples, rng)
    y = x + sigma * rng.standard_normal(n_samples)
    bins = math.ceil(n_samples ** (1.0 / 3.0))
    counts, edges = np.histogram(y, bins=bins)
    width = edges[1] - edges[0]
    q = counts[counts > 0] / n_samples
    h_hat = -float(np.sum(q * np.log(q / width)))
    return h_hat - (GAUSS_ENTROPY_UNIT + math.log(sigma))
