"""Input distributions admissible under a peak-amplitude constraint.

A scheme is one of three families, one type each: a DiscreteDistribution
(finitely many mass points, such as a solver report's law), the continuous
uniform law on [-A, A], or a zero-mean Gaussian truncated to [-A, A]. All
are immutable values with a half_width, the A their support needs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

_PROB_SUM_TOL = 1e-12
_MIN_REL_GAP = 1e-9


def _check_positive_finite(**params):
    for name, value in params.items():
        lo, hi = ((value.min(), value.max())
                  if isinstance(value, np.ndarray) else (value, value))
        if not (0.0 < lo and hi < math.inf):  # a NaN fails both
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value}")


def _check_count(**counts):
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral) or value < 2:
            raise ValueError(f"{name} must be an integer >= 2, got {value!r}")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Mass points and probabilities, points strictly increasing."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.probs) or not self.points:
            raise ValueError("points and probs must be nonempty and equal-length")
        points, probs = self.as_arrays()
        if not (np.isfinite(points).all()
                and 0.0 < probs.min() and probs.max() < math.inf):
            raise ValueError("mass points must be finite and probabilities "
                             "positive and finite")
        if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        scale = max(abs(points[0]), abs(points[-1])) or 1.0  # if sorted
        if len(points) > 1 and np.diff(points).min() <= _MIN_REL_GAP * scale:
            raise ValueError("mass points must be strictly increasing and separated")

    @property
    def half_width(self) -> float:
        return max(self.points[-1], -self.points[0])  # points increase

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.points, float), np.asarray(self.probs, float)


@dataclass(frozen=True)
class UniformScheme:
    """Continuous uniform on [-amplitude, amplitude]."""

    amplitude: float

    def __post_init__(self):
        _check_positive_finite(amplitude=self.amplitude)

    @property
    def half_width(self) -> float:
        return self.amplitude


@dataclass(frozen=True)
class TruncatedGaussianScheme:
    """Zero-mean Gaussian of scale sigma_x truncated to [-amplitude, amplitude]."""

    amplitude: float
    sigma_x: float

    def __post_init__(self):
        _check_positive_finite(amplitude=self.amplitude,
                               sigma_x=self.sigma_x)

    @property
    def half_width(self) -> float:
        return self.amplitude


InputScheme = Union[DiscreteDistribution, UniformScheme, TruncatedGaussianScheme]


def maxentropic_scheme(amplitude: float, num_points: int) -> DiscreteDistribution:
    """Uniform probabilities over num_points equally spaced points spanning
    [-amplitude, amplitude], endpoints included, and exactly mirror-symmetric
    (points == -points[::-1])."""
    _check_count(num_points=num_points)
    x = np.linspace(-amplitude, amplitude, num_points)
    points = tuple((0.5 * (x - x[::-1])).tolist())
    return DiscreteDistribution(points, (1.0 / num_points,) * num_points)

