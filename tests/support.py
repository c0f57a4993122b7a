"""Fixtures and oracles shared by the tests; nothing in keycap calls them."""

from keycap.inputs import DiscreteDistribution, DiscreteScheme
from keycap.numerics import OutputDensity, _quad


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
