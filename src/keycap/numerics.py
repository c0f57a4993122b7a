"""Output densities, quadrature, differential entropy and every rate.

Everything here works on a generic observation T = X + N with N a zero-mean
Gaussian of standard deviation sigma, and X one of the admissible input
schemes. Densities come with a finite support hint outside which they fall
below 1e-16, so all integrals run over finite windows.

Every rate is one sum over a noise stack of (sigma, sign) pairs,
sum_c sign_c [h(X + N_c) - h(N_c)] (`stack_rates`; h(N) is `noise_entropy`):
((sigma, +1),) for the mutual information, `channel.ChannelParams.stack`
for the secret-key rate.

Every density is a batch: the output densities of a scheme family with
one sigma, a leading member axis in every value (a scalar parameter or a
one-scheme list is a batch of one). Every reported entropy, and so every
reported rate, comes from one trapezoid rule on the output axis, the
lattice t_j = j sigma / LATTICE_PER_SIGMA (`differential_entropy`). It sums
a batch in one pass, with one result and one error estimate per member,
and an even density on t >= 0 only.
No QUADPACK integral is taken here: the adaptive-quadrature oracles that
the tests check the rule and the densities against live in tests/support.py.

The uniform and truncated-Gaussian densities take their normal tails from
one numpy kernel, `_erfcx`(z) = exp(z^2) erfc(z) = R(t) / (z + 3.5) with R
of degree 21 in t = (z - 3.5) / (z + 3.5) (Shepherd & Laframboise, Math.
Comp. 36, 1981), fitted by tools/fit_erfcx.py: relative error 1e-15.

Every 1-D maximum is one safeguarded Newton search, `maximize_newton`: of
s(x; F) in the KKT certificate, and of LB2 and the truncated-Gaussian rate
in beta and sigma_x, around the best point of a grid (`maximize_on_grid`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure
from .inputs import (
    DiscreteDistribution,
    InputScheme,
    TruncatedGaussianScheme,
    UniformScheme,
    _check_positive_finite,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
GAUSS_ENTROPY_UNIT = 0.5 * math.log(2.0 * math.pi * math.e)  # h of N(0,1), nats

_DENSITY_FLOOR = 1e-300
_TAIL_SIGMAS = 10.0
_NEWTON_STEPS = 100  # step cap of every Newton loop, here and in the solver

# largest error estimate an entropy (or an oracle integral) may carry
QUAD_ABS_TOL = 1e-10

# trapezoid entropy rule: lattice nodes per noise standard deviation
LATTICE_PER_SIGMA = 16
_EVAL_BLOCK_TERMS = 2**13  # terms x nodes per density call: 64 kB temporaries


@dataclass(frozen=True)
class RateResult:
    """A rate (or entropy) in nats and its quadrature error estimate."""

    nats: float
    quad_error: float = 0.0


@dataclass(frozen=True)
class OutputDensity:
    """A batch of probability densities of T = X + N with one sigma, one
    member per input X: eval(t) has a leading axis of members, then the
    shape of t.

    support is the interval outside which every member is below 1e-16;
    sigma is the standard deviation of the noise N, which sets the lattice
    spacing of the entropy rule; even marks an even density on a symmetric
    support; terms counts the kernel terms (mixture points or members)
    behind one value.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    kind: str
    sigma: float
    even: bool = False
    terms: int = 1


_ERFCX_K = 3.5  # R's coefficients follow, highest degree first
_ERFCX_R = (
    9.614562982274967e-10, 6.534571593865723e-09, -1.2787096191642265e-08,
    -7.450925874995281e-08, 1.0068325898674551e-07, 5.365724632503524e-07,
    -7.807762431125498e-07, -3.3798816435183427e-06, 7.234090385758427e-06,
    1.8640735751560535e-05, -7.477283988027455e-05, -4.206002770960003e-05,
    0.0007145305328023711, -0.0013053551232739217, -0.0031770501514465626,
    0.02651861993148724, -0.09231870665609587, 0.22573862164452255,
    -0.4352560267161418, 0.694113646634708, -0.9377997245671214,
    1.0870555892622598,
)


def _erfcx(z):
    """exp(z^2) erfc(z) for an array of z >= 0; 0 at z = inf."""
    t = np.divide(-2.0 * _ERFCX_K, z + _ERFCX_K)
    t += 1.0  # (z - K) / (z + K), in [-1, 1]
    p = t * _ERFCX_R[0]
    for c in _ERFCX_R[1:-1]:  # Horner, in place
        p += c
        p *= t
    p += _ERFCX_R[-1]
    p /= np.add(z, _ERFCX_K, out=t)
    return p


def _erfc_window(q, c, w, h, g):
    """The even pdf exp(-h t^2 - g) (erfc(x) - erfc(y)) / 2, x, y = (q |t|
    -+ c) w, of members with parameters q, c, w > 0, h and g: the uniform
    and the truncated-Gaussian densities. One _erfcx pass over a = |x| and
    y gives e^(-a^2 - h t^2 - g) (s erfcx(a) - r) / 2, s the sign of x, plus
    e^(-h t^2 - g) if x < 0, with r = erfcx(y) exp(x^2 - y^2) and x^2 - y^2
    = -4 c q w^2 |t|: relative to p, however far past the edge |t| is."""
    rows = np.array(np.broadcast_arrays(-c, c, q, w, -4.0 * c * q * w * w,
                                        -h, -g))

    def pdf(t):
        t = np.abs(t)
        v = rows.reshape((7, -1) + (1,) * t.ndim)
        q, w, m, h, g = v[2:]
        z = v[:2] + q * t
        z *= w
        neg, a, y = np.signbit(z[0]), np.abs(z[0], out=z[0]), z[1]
        ea, eb = _erfcx(z)
        r = np.multiply(eb, np.exp(np.multiply(m, t, out=y), out=y), out=y)
        np.negative(ea, out=ea, where=neg)
        ea -= r
        y = np.add(np.multiply(h, t * t, out=y), g, out=y)  # -(h t^2 + g)
        ea *= np.exp(np.subtract(y, np.square(a, out=a), out=a), out=a)
        ea *= 0.5
        return np.add(ea, np.exp(y, out=y), out=ea, where=neg)

    return pdf


def maximize_newton(f, lo, hi, x):
    """Safeguarded Newton search for the maxima of f, one per entry of the
    arrays x in the brackets (lo, hi): f(x) returns the rows f, f' and f''
    at x. Each step moves to x + f' / |f''| and shrinks the bracket to the
    side f' rises towards; a step that leaves the bracket bisects it. The
    search stops once every f'^2 <= 1e-15 |f''| (Newton's predicted gain
    f'^2 / 2|f''| below 5e-16), or after _NEWTON_STEPS steps. Returns x
    and the rows of f(x)."""
    v = f(x)
    for _ in range(_NEWTON_STEPS):
        if np.all(v[1]**2 <= 1e-15 * np.abs(v[2])):
            break
        lo, hi = np.where(v[1] > 0.0, x, lo), np.where(v[1] > 0.0, hi, x)
        x = x + v[1] / (np.abs(v[2]) + 1e-300)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        v = f(x)
    return x, v


def maximize_on_grid(values, grid):
    """The maximum of a scalar function over a grid's span, and its value:
    values maps a list of points to theirs. The best grid point, unless it
    is an end of the grid, is refined by `maximize_newton` inside the two
    grid cells around it, on central differences with step h = 1e-4 x (one
    values call on [x - h, x, x + h] a step); the grid point is kept if
    its value is higher."""
    vals = values(grid.tolist())
    i = int(np.argmax(vals))
    if not 0 < i < len(grid) - 1:
        return float(grid[i]), vals[i]

    def f(x):
        x = float(x[0])
        h = 1e-4 * x
        lo, mid, hi = values([x - h, x, x + h])
        return np.array([[mid], [(hi - lo) / (2.0 * h)],
                         [(hi - 2.0 * mid + lo) / (h * h)]])

    x, v = maximize_newton(f, grid[i - 1:i], grid[i + 1:i + 2], grid[i:i + 1])
    if v[0, 0] >= vals[i]:
        return float(x[0]), float(v[0, 0])
    return float(grid[i]), vals[i]


def density_uniform_conv(amplitude, sigma: float) -> OutputDensity:
    """Densities of U(-A, A) + N(0, sigma^2), one per amplitude A:
    p(t) = (1/2A) [Q((-A - t)/sigma) - Q((A - t)/sigma)].

    The density is even; it is evaluated at |t| by `_erfc_window`, with
    g = log 2A and no h."""
    a = np.atleast_1d(np.asarray(amplitude, float))
    _check_positive_finite(amplitude=a, sigma=sigma)
    s = float(sigma)
    pdf = _erfc_window(1.0, a, math.sqrt(0.5) / s, 0.0, np.log(2.0 * a))
    lo = -float(a.max()) - _TAIL_SIGMAS * s
    return OutputDensity(pdf, (lo, -lo), "uniform-conv", s, True, len(a))


def density_trunc_gauss_conv(amplitude, sigma_x, sigma) -> OutputDensity:
    """Densities of a truncated Gaussian input plus Gaussian noise, one per
    (amplitude, sigma_x) pair of the broadcast arguments.

    p(t) = g(t) w(t) with g the zero-mean Gaussian density of variance
    sigma^2 + sigma_x^2 and w the truncation weighting built from the
    posterior scale sigma_tilde, 1/sigma_tilde^2 = 1/sigma_x^2 + 1/sigma^2.
    The density is even; `_erfc_window` evaluates it at |t|: w is a difference
    of normal tails at (|t| sigma_tilde^2 / sigma^2 -+ A) / sigma_tilde.
    """
    a, sx = np.broadcast_arrays(*np.atleast_1d(np.asarray(amplitude, float),
                                               np.asarray(sigma_x, float)))
    _check_positive_finite(amplitude=a, sigma_x=sx, sigma=sigma)
    s = float(sigma)
    with np.errstate(over="ignore", divide="ignore"):  # both checked next
        ratio = (a / sx).tolist()
        st2 = 1.0 / (1.0 / (sx * sx) + 1.0 / (s * s))  # sigma_tilde^2
    if min(ratio) < 1e-8 or not min(st2.tolist()) > 0.0:
        raise ValueError(f"sigma_x out of range: A/sigma_x = {min(ratio):.3e}"
                         f" must be >= 1e-8 (near-uniform end) and sigma_tilde"
                         f"^2 = {min(st2.tolist()):.3e} > 0 (point-mass end)")
    var_sum = s * s + sx * sx
    # g's normalizer D = Phi(A/sx) - Phi(-A/sx), via erf for symmetry
    d = [math.erf(r / math.sqrt(2.0)) for r in ratio]
    pdf = _erfc_window(st2 / (s * s), a, 1.0 / np.sqrt(2.0 * st2),
                       0.5 / var_sum, np.log(_SQRT_2PI * np.sqrt(var_sum) * d))
    # the input is bounded by A, so only the noise tail extends the support
    half = float(a.max()) + _TAIL_SIGMAS * s
    return OutputDensity(pdf, (-half, half), "trunc-gauss-conv", s, True,
                         len(a))


def density_discrete_conv(laws, sigma: float) -> OutputDensity:
    """Gaussian mixtures sum_k p_k phi((t - x_k) / sigma) / sigma induced
    through N(0, sigma^2), one per discrete law of the sequence laws, summed
    law by law (np.add.reduceat). Terms that underflow fall where the
    entropy rule zeroes p log p (p < 1e-300) anyway."""
    _check_positive_finite(sigma=sigma)
    s = float(sigma)
    laws = [q.as_arrays() for q in laws]
    x = np.concatenate([xq for xq, _ in laws])
    probs = np.concatenate([pq for _, pq in laws])
    w = probs / (s * _SQRT_2PI)
    sizes = [len(xq) for xq, _ in laws]
    starts = np.cumsum([0] + sizes[:-1])

    def pdf(t):  # z, then each term, in one array updated in place
        shape = (-1,) + (1,) * t.ndim
        z = np.subtract(t, x.reshape(shape))
        z /= s
        z = np.exp(np.multiply(-0.5 * z, z, out=z), out=z)
        z *= w.reshape(shape)
        return np.add.reduceat(z, starts, axis=0)

    # index i of law k mirrors to first_k + last_k - i
    mirror = np.repeat(2 * starts + sizes, sizes) - 1 - np.arange(len(x))
    even = bool(np.all(x == -x[mirror]) and np.all(probs == probs[mirror]))
    lo = float(x.min()) - _TAIL_SIGMAS * s
    hi = float(x.max()) + _TAIL_SIGMAS * s
    return OutputDensity(pdf, (lo, hi), "gaussian-mixture", s, even, len(x))


def scheme_output_density(schemes, sigma: float) -> OutputDensity:
    """Densities of X + N(0, sigma^2), one per scheme X of the sequence
    schemes, all of one family, dispatching on the family."""
    one = schemes[0]
    if any(type(x) is not type(one) for x in schemes):
        raise TypeError("a batch mixes scheme families")
    if isinstance(one, DiscreteDistribution):
        return density_discrete_conv(schemes, sigma)
    if isinstance(one, UniformScheme):
        return density_uniform_conv([x.amplitude for x in schemes], sigma)
    if isinstance(one, TruncatedGaussianScheme):
        return density_trunc_gauss_conv([x.amplitude for x in schemes],
                                        [x.sigma_x for x in schemes], sigma)
    raise TypeError(f"not an input scheme: {one!r}")


@functools.lru_cache(maxsize=16)
def _lattice(lo: float, hi: float, sigma: float, even: bool):
    """Nodes j delta of [lo, hi], delta = sigma / LATTICE_PER_SIGMA, their
    trapezoid weights delta and those of the 2 delta sublattice (twice the
    weight at even j, 0 at odd j); if even (an even integrand, lo = -hi),
    only j >= 0, t = 0's weight delta and the others' 2 delta.
    QuadratureFailure past 2^16 sigma. Read-only arrays, kept for reuse:
    every scheme of a row has the window [-A - 10 sigma, A + 10 sigma]."""
    if hi - lo > 2.0**16 * sigma:
        raise QuadratureFailure(
            f"entropy on [{lo}, {hi}]: a window over 2^16 noise widths")
    delta = sigma / LATTICE_PER_SIGMA
    j = np.arange(0 if even else math.ceil(lo / delta),
                  math.floor(hi / delta) + 1)
    weights = np.where(even & (j > 0), 2.0 * delta, delta)
    out = j * delta, weights, np.where(j % 2 == 0, 2.0 * weights, 0.0)
    for array in out:
        array.flags.writeable = False
    return out


def differential_entropy(d: OutputDensity) -> list[RateResult]:
    """h = -integral p log p over the support hint, in nats: one RateResult
    per member of the batch d.

    The trapezoid rule on `_lattice`, spacing d.sigma / LATTICE_PER_SIGMA,
    which converges geometrically on these integrands, analytic in a strip
    and Gaussian-decaying (Trefethen & Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56, 2014); evaluated through
    d.eval in calls of at most _EVAL_BLOCK_TERMS kernel terms (d.terms per
    node); an even density on t >= 0 only. The integrand is taken as 0
    wherever p < 1e-300 (x log x -> 0).

    quad_error is the gap to the same sum on the 2 delta sublattice, plus a
    rounding bound eps * (hi - lo) / sigma * integral |p log p|. Raises
    QuadratureFailure when any member's exceeds QUAD_ABS_TOL.
    """
    lo, hi = d.support
    t, weights, sub = _lattice(lo, hi, d.sigma, d.even)
    per_call = max(1, _EVAL_BLOCK_TERMS // d.terms)  # nodes
    value = coarse = magnitude = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, len(t), per_call):
            p = d.eval(t[i:i + per_call])
            f = np.where(p < _DENSITY_FLOOR, 0.0, -p * np.log(p))
            value += f @ weights[i:i + per_call]
            coarse += f @ sub[i:i + per_call]
            magnitude += np.abs(f) @ weights[i:i + per_call]
    err = (np.abs(value - coarse)
           + np.finfo(float).eps * (hi - lo) / d.sigma * magnitude)
    if not err.max() <= QUAD_ABS_TOL:  # a NaN fails too
        raise QuadratureFailure(
            f"entropy on [{lo}, {hi}] did not reach abs_tol={QUAD_ABS_TOL}: "
            f"error estimate {np.max(err):.3e}")
    return [RateResult(v, e) for v, e in zip(value.tolist(), err.tolist())]


def noise_entropy(sigma: float) -> float:
    """h(N) of a zero-mean Gaussian N of std sigma, in nats."""
    return GAUSS_ENTROPY_UNIT + math.log(sigma)


def stack_rates(schemes, stack) -> list[RateResult]:
    """sum_c sign_c [h(X + N_c) - h(N_c)] of each scheme of one family over
    a noise stack of (sigma, sign) pairs, one batched entropy per noise."""
    hs = [differential_entropy(scheme_output_density(schemes, sigma))
          for sigma, _ in stack]
    return [RateResult(sum(sign * (h.nats - noise_entropy(sigma))
                           for (sigma, sign), h in zip(stack, member)),
                       sum(h.quad_error for h in member))
            for member in zip(*hs)]


def mutual_information(scheme: InputScheme, sigma: float) -> RateResult:
    """I(X; X + N) = h(X + N) - h(N) for Gaussian N of std sigma, in nats."""
    return stack_rates([scheme], ((sigma, 1.0),))[0]
