"""Capacity-achieving discrete inputs via mass-point escalation.

One quadrature rule gives every number here: s(x; F), R(F) and R's exact
first and second derivatives are sums over the nodes of the entropy rule
(`differential_entropy`) on [-A - 10 sigma, A + 10 sigma], laid out once per
solve; for a law with mass at +-A, R(F) is the reported rate's own sum.

The search starts from the 2-point law +-A. Each law is optimized by
alternating Newton ascent over the weights (on the active face of the
simplex) with projected Newton ascent over the locations, and accepted once
the marginal density

    s(x; F) = sum_c sign_c * D( p_c(.|x) || f_{F,c} )

is below the achieved rate everywhere on [-A, A] (equality at mass points),
which certifies optimality for these concave objectives; the average of s
over F is the rate. s is even: the certificate takes it on [0, A] at a
lattice spaced sigma_min / 4 or less (sigma_min the smallest noise std of
the stack), the mass points and each maximum in between (Newton steps on
s'), and mirrors it. Otherwise a point of weight 1e-3 is added where s is
largest (Smith 1971; Huang & Meyn 2005); the grown law is optimized next.

A law is ascending group locations u >= 0 and aligned group weights w: the
group at exactly u = 0 is the center point, every other group the pair +-u
with half its weight at each, so every law is exactly mirror-symmetric. The
location pass moves the pairs in [1e-9 A, A] and holds the center at 0;
after it, zero-weight groups are dropped and mass points closer than
1e-2 * min(sigma_min, A) merge: two pairs into one at their weighted mean,
an innermost pair into the center (the A term keeps +-A apart at tiny
amplitudes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, equivalent_channel, secret_key_rate
from .errors import NoConvergence
from .inputs import (DiscreteDistribution, DiscreteScheme,
                     _check_positive_finite)
from .numerics import (_GL_W, _GL_X, _SQRT_2PI, _TAIL_SIGMAS, _gl_panels,
                       _log_mixture, mutual_information)

_KERNEL_BLOCK_TERMS = 2**14  # x values x nodes per block: 128 kB temporaries
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

_KKT_TOLERANCE = 1e-6     # largest s(x; F) - rate a certificate accepts
_KKT_GRID_SIZE = 2001     # points of [-A, A] in `keycap kkt-profile`
_INNER_TOLERANCE = 1e-9   # weight residual and rate gain of a polish
_RATE_ROUNDING = 1e-13    # how far a Newton step may lower R(F): rounding
_NEWTON_STEPS = 100       # Newton steps of one weight or location solve
_GROWTH_WEIGHT = 1e-3     # weight of the mass point each growth step adds
_PAIR_FLOOR = 1e-9        # lowest pair location, in units of A


@dataclass(frozen=True)
class SolverConfig:
    max_K: int = 64

    def __post_init__(self):
        if self.max_K < 2:
            # escalation starts at K=2
            raise ValueError(f"max_K must be at least 2, got {self.max_K}")


DEFAULT_SOLVER = SolverConfig()


class EscalationStep(NamedTuple):
    """One polished law: the point count of its grown start law, the K of
    the law the polish returned, that law's R(F) and KKT violation (C_k is
    in [R(F), R(F) + violation]), the polish's Newton steps over weights and
    over locations, and whether one of its inner solves stopped at its cap."""

    K_tried: int
    K: int
    rate_nats: float
    kkt_violation: float
    weight_steps: int
    location_steps: int
    capped: bool


@dataclass(frozen=True)
class SolverReport:
    distribution: DiscreteDistribution
    rate_nats: float
    quad_error: float
    num_points_K: int
    kkt_max_violation: float
    kkt_grid: tuple[tuple[float, float], ...]
    # one step per KKT profile paid for, the certified one last
    trace: tuple[EscalationStep, ...]


# ---------------------------------------------------------------------------
# rate machinery


def _channel_stack(amplitude, channels):
    """(sigma, sign) pairs -> channel stack, (sigma, sign, nodes, weights)
    per channel: the entropy rule on [-A - 10 sigma, A + 10 sigma], the
    window `differential_entropy` takes for any law with mass at +-A."""
    stack = []
    for sigma, sign in channels:
        hi = amplitude + _TAIL_SIGMAS * sigma
        centers, half = _gl_panels(-hi, hi, sigma)
        stack.append((sigma, sign, (centers[:, None] + half * _GL_X).ravel(),
                      np.tile(half * _GL_W, len(centers))))
    return tuple(stack)


def _log_weights(probs):
    """log p, -inf at zero weights: those points drop out of _log_mixture."""
    return np.log(probs, out=np.full(len(probs), -np.inf), where=probs > 0.0)


def _marginal_density(x, channels, log_fs):
    """s(x; F) = sum_c sign_c D(p_c(.|x) || f_c), s' and s'' at a 1-d array
    x, rows of a (3, len(x)) array, from each channel's log f on its nodes
    (as `_rate` appends them): the folded kernel of `_group_kernels` at x
    against w_j log f(y_j), f being even. x is taken in cache-sized blocks;
    each row's sums are the same in any block."""
    out = np.zeros((3, len(x)))
    out[0] -= sum(sign * (_LOG_SQRT_2PI + math.log(sigma) + 0.5)
                  for sigma, sign, *_ in channels)
    rows = max(1, _KERNEL_BLOCK_TERMS // max(len(c[2]) for c in channels))
    for i in range(0, len(x), rows):
        for (_, sign, _, weights), log_f, kernels in zip(
                channels, log_fs, _group_kernels(x[i:i + rows], channels)):
            out[:, i:i + rows] -= sign * np.array(
                [np.einsum("ij,j->i", k, weights * log_f) for k in kernels])
    return out


def _rate(points, probs, channels, log_fs=None):
    """R(F) = sum_c sign_c (h(f_c) - h(N_c)), each h(f_c) = -sum_j w_j f_c
    log f_c on the channel's nodes: the sum `differential_entropy` takes.
    Each channel's log f is appended to log_fs when one is given."""
    log_probs = _log_weights(probs)
    rate = 0.0
    for sigma, sign, nodes, weights in channels:
        h_noise = _LOG_SQRT_2PI + math.log(sigma) + 0.5
        log_f = _log_mixture(nodes, points, log_probs, sigma)
        rate += sign * (-float(weights @ (np.exp(log_f) * log_f)) - h_noise)
        if log_fs is not None:
            log_fs.append(log_f)
    return rate


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


# ---------------------------------------------------------------------------
# symmetric parametrization: group locations u >= 0, the center at u = 0


def _expand(u, w):
    """Group state -> full (points, probs): the group at u = 0 is one point,
    every other group the pair +-u with half its weight at each."""
    u, w = np.asarray(u, float), np.asarray(w, float)
    pair = u > 0.0
    return (np.concatenate([-u[pair][::-1], u]),
            np.concatenate([w[pair][::-1] / 2.0, np.where(pair, w / 2.0, w)]))


def _group_kernels(u, channels):
    """Per channel, on its nodes y: the folded kernel phi (groups x nodes),
    (phi(y - u_i) + phi(y + u_i)) / 2 per group, so that f_c = w @ phi; and
    its first and second u-derivatives (the first is 0 at u = 0)."""
    out = []
    for sigma, _, nodes, _ in channels:
        zm, zp = (nodes - u[:, None]) / sigma, (nodes + u[:, None]) / sigma
        em = np.exp(-0.5 * zm * zm) / (2.0 * sigma * _SQRT_2PI)
        ep = np.exp(-0.5 * zp * zp) / (2.0 * sigma * _SQRT_2PI)
        out.append((em + ep, (em * zm - ep * zp) / sigma,
                    (em * (zm * zm - 1.0) + ep * (zp * zp - 1.0)) / sigma**2))
    return out


def _derivatives(u, w, channels, phi=None):
    """R(F) and its exact gradient and Hessian on the entropy rule's nodes:
    in the weights given the kernels phi of `_group_kernels` (f_c = w @ phi),
    else in the locations. log f is _log_mixture's: w @ phi underflows."""
    if phi is None:
        kernels = _group_kernels(u, channels)
        jac, curv = ([w[:, None] * k[i] for k in kernels] for i in (1, 2))
    else:
        jac, curv = phi, [None] * len(channels)
    log_fs = []
    rate = _rate(*_expand(u, w), channels, log_fs)
    grad = hess = 0.0
    for (_, sign, _, weights), log_f, j, c in zip(channels, log_fs, jac, curv):
        d_log = weights * (log_f + 1.0)
        # weights / f, kept finite where f underflows (there j does too)
        h = (j * (weights * np.exp(-np.maximum(log_f, -700.0)))) @ j.T
        if c is not None:
            h[np.diag_indices_from(h)] += c @ d_log
        grad = grad - sign * (j @ d_log)
        hess = hess - sign * h
    return rate, grad, hess


def _backtrack(x, d, val, derivatives, project, min_step):
    """The first of project(x + t d), t = 1, 1/2, ..., whose R(F) is not
    below val by more than rounding, with its `derivatives`; None once the
    step moves no coordinate by min_step."""
    t = 1.0
    while True:
        cand = project(x + t * d)
        if float(np.max(np.abs(cand - x), initial=0.0)) < min_step:
            return None
        found = derivatives(cand)
        if found[0] >= val - _RATE_ROUNDING:
            return cand, found
        t *= 0.5


def _optimize_weights(u, w, channels):
    """Newton ascent of R (concave in w) on the simplex's face of nonzero
    weights, a projected-gradient step only to change the face, until
    max|P(w + g) - w| <= _INNER_TOLERANCE. Returns (w, R, residual, steps)."""
    w = np.asarray(w, float)
    if len(w) == 1:
        return w, _rate(*_expand(u, w), channels), 0.0, 0
    phi = [kernels[0] for kernels in _group_kernels(u, channels)]
    val, g, hess = _derivatives(u, w, channels, phi)
    for steps in range(_NEWTON_STEPS + 1):
        pg = project_simplex(w + g) - w
        residual = float(np.max(np.abs(pg)))
        if residual <= _INNER_TOLERANCE or steps == _NEWTON_STEPS:
            break
        free = w > 0.0
        n = int(free.sum())
        kkt = np.block([[hess[np.ix_(free, free)], np.ones((n, 1))],
                        [np.ones((1, n)), np.zeros((1, 1))]])
        d = np.zeros(len(w))
        d[free] = np.linalg.lstsq(kkt, np.append(-g[free], 0.0))[0][:n]
        if np.ptp(g[free]) <= _INNER_TOLERANCE or (g - g.mean()) @ d <= 0.0:
            d = pg  # the face is flat, or Newton does not ascend on it
        # cap the step where a weight reaches 0, exactly 0
        ratio = np.divide(w, -d, out=np.full(len(w), np.inf), where=d < 0.0)
        t = min(1.0, float(ratio.min()))
        d = np.where(ratio == t, -w, t * d)
        found = _backtrack(
            w, d, val, lambda v: _derivatives(u, v, channels, phi),
            lambda v: np.maximum(v, 0.0) / np.maximum(v, 0.0).sum(), 1e-16)
        if found is None:
            break
        w, (val, g, hess) = found
    return w, val, residual, steps


def _optimize_locations(u, w, amplitude, channels):
    """Projected Newton ascent of R over the pair locations in
    [_PAIR_FLOOR A, A], the center held at 0, the Hessian's eigenvalues
    flipped negative and kept off 0, a location at a bound held while the
    gradient pushes past it, until no location moves by 1e-10 max(A, 1).
    Returns (u, w, steps), sorted by location."""
    u, w = np.asarray(u, float), np.asarray(w, float)
    pair = u > 0.0
    lo, xatol = _PAIR_FLOOR * amplitude * pair, 1e-10 * max(amplitude, 1.0)
    val, g, hess = _derivatives(u, w, channels)
    steps = 0
    while steps < _NEWTON_STEPS:
        free = pair & ((u < amplitude) | (g <= 0.0)) & ((u > lo) | (g >= 0.0))
        lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
        lam = np.maximum(abs(lam), 1e-12 * abs(lam).max(initial=1e-300))
        d = np.zeros(len(u))
        d[free] = vec @ ((vec.T @ g[free]) / lam)
        found = _backtrack(
            u, d, val, lambda v: _derivatives(v, w, channels),
            lambda v: np.clip(v, lo, amplitude), xatol)
        if found is None:
            break
        u, (val, g, hess) = found
        steps += 1
    order = np.argsort(u)
    return u[order], w[order], steps


def _merge_gap(amplitude, channels):
    return 1e-2 * min(min(sigma for sigma, *_ in channels), amplitude)


def _merge_groups(u, w, amplitude, channels):
    """Drop zero-weight groups, then merge mass points closer than the
    merge gap: an innermost pair within it of its mirror image becomes the
    center, pairs within it of the center fold into it, and two pairs merge
    at their weighted mean."""
    gap = _merge_gap(amplitude, channels)
    w = np.asarray(w, float)
    u, w = list(np.asarray(u, float)[w > 0.0]), list(w[w > 0.0])
    if 2.0 * u[0] < gap:
        u[0] = 0.0
    while len(u) > 1 and u[0] == 0.0 and u[1] < gap:
        w[0] += w.pop(1)
        del u[1]
    i = 0
    while i + 1 < len(u):
        if u[i + 1] - u[i] < gap:
            tot = w[i] + w[i + 1]
            u[i] = (w[i] * u[i] + w[i + 1] * u[i + 1]) / tot
            w[i] = tot
            del u[i + 1], w[i + 1]
        else:
            i += 1
    return np.asarray(u), np.asarray(w)


def _grow(u, w, grid, s_grid, amplitude, channels):
    """The law with a point of weight _GROWTH_WEIGHT added where the even
    profile s_grid on grid is largest, the other weights scaled to make
    room: the center if that is within the merge gap of 0 and the law has
    none, else a pair, at _PAIR_FLOOR A or above."""
    x = max(abs(float(grid[np.argmax(s_grid)])), _PAIR_FLOOR * amplitude)
    if x < _merge_gap(amplitude, channels) and u[0] > 0.0:
        x = 0.0
    i = int(np.searchsorted(u, x))
    w = np.asarray(w, float) * (1.0 - _GROWTH_WEIGHT)
    return np.insert(u, i, x), np.insert(w, i, _GROWTH_WEIGHT)


def _alternate(u, w, amplitude, channels):
    """Alternate weight and location solves to full tolerance, merging after
    every location pass; returns the state and (weight steps, location
    steps, whether a solve stopped at its cap)."""
    val = -np.inf
    w_steps = u_steps = longest = 0
    for _ in range(60):  # the round limit
        w, _, _, n_w = _optimize_weights(u, w, channels)
        u, w, n_u = _optimize_locations(u, w, amplitude, channels)
        w_steps, u_steps = w_steps + n_w, u_steps + n_u
        longest = max(longest, n_w, n_u)
        u, w = _merge_groups(u, w, amplitude, channels)
        val_new = _rate(*_expand(u, w), channels)
        if val_new - val < _INNER_TOLERANCE:
            break
        val = val_new
    w, _, _, n_w = _optimize_weights(u, w, channels)
    # drop what the last weight solve zeroed
    u, w = _merge_groups(u, w, amplitude, channels)
    return u, w, (w_steps + n_w, u_steps, max(longest, n_w) == _NEWTON_STEPS)


def _kkt_profile(points, probs, channels, amplitude, cells=None):
    """An even law's certificate: s at cells + 1 points of [0, A] (by default
    spaced sigma_min / 4 or less), at |mass points| and at the maximum in
    each cell s' falls through 0 in (safeguarded Newton from the secant root).
    Returns them and s mirrored, R(F), max(s - R, |s - R| at mass points)."""
    log_fs = []
    rate_ref = _rate(points, probs, channels, log_fs)
    cells = cells or math.ceil(4.0 * amplitude / min(c[0] for c in channels))
    half = np.unique(np.concatenate(
        [np.linspace(0.0, amplitude, cells + 1), np.abs(points)]))
    s_half, ds, _ = _marginal_density(half, channels, log_fs)
    up = np.flatnonzero((ds[:-1] > 0.0) & (ds[1:] <= 0.0))
    lo, hi = half[up], half[up + 1]
    x = lo + (hi - lo) * ds[up] / (ds[up] - ds[up + 1])
    s_x, ds_x, d2s_x = _marginal_density(x, channels, log_fs)
    for _ in range(_NEWTON_STEPS):
        # until Newton's predicted gain s'^2 / 2|s''| is below 5e-16
        if np.all(ds_x**2 <= 1e-15 * np.abs(d2s_x)):
            break
        lo, hi = np.where(ds_x > 0.0, x, lo), np.where(ds_x > 0.0, hi, x)
        x = x + ds_x / (np.abs(d2s_x) + 1e-300)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        s_x, ds_x, d2s_x = _marginal_density(x, channels, log_fs)
    half, idx = np.unique(np.append(half, x), return_index=True)
    s_half = np.append(s_half, s_x)[idx]
    # s is even: mirror x >= 0, keeping half[0] = 0.0 once
    grid = np.concatenate([-half[:0:-1], half])
    s_grid = np.concatenate([s_half[:0:-1], s_half])
    violation = max(float(np.max(s_grid) - rate_ref), float(np.max(
        np.abs(s_grid[np.isin(grid, points)] - rate_ref))))
    return grid, s_grid, rate_ref, violation


def _capacity(amplitude, channels, cfg, rate_of):
    """Grow the law from +-A until the KKT certificate holds (at most max_K
    points, max_K - 1 profiles); the reported rate is rate_of applied to the
    certified law's DiscreteScheme. channels holds (sigma, sign) pairs; their
    nodes are laid out once here."""
    channels = _channel_stack(amplitude, channels)
    u, w = np.array([amplitude]), np.array([1.0])
    trace = []
    while (len(trace) < cfg.max_K - 1
           and (num_points := 2 * len(u) - int(u[0] == 0.0)) <= cfg.max_K):
        u, w, steps = _alternate(u, w, amplitude, channels)
        points, probs = _expand(u, w)
        grid, s_grid, rate, violation = _kkt_profile(
            points, probs, channels, amplitude)
        trace.append(EscalationStep(num_points, len(points), rate, violation,
                                    *steps))
        if violation <= _KKT_TOLERANCE:
            dist = DiscreteDistribution(tuple(points), tuple(probs))
            rate = rate_of(DiscreteScheme(dist))
            return SolverReport(
                dist, rate.nats, rate.quad_error, len(points), violation,
                tuple(zip(grid.tolist(), s_grid.tolist())), tuple(trace))
        u, w = _grow(u, w, grid, s_grid, amplitude, channels)
    best_violation = min(step.kkt_violation for step in trace)
    raise NoConvergence(
        f"no KKT certificate up to K={cfg.max_K} "
        f"(best violation {best_violation:.3e})", tuple(trace))


def plain_capacity(
    amplitude: float, sigma: float, cfg: SolverConfig = DEFAULT_SOLVER
) -> SolverReport:
    """Capacity of the amplitude-constrained scalar Gaussian channel,
    I(X; X + N) maximized over discrete inputs on [-A, A]."""
    _check_positive_finite(amplitude=amplitude, sigma=sigma)
    return _capacity(float(amplitude), ((float(sigma), 1.0),), cfg,
                     lambda s: mutual_information(s, sigma))


def _secret_key_channels(params):
    eq = equivalent_channel(params)
    return ((math.sqrt(eq.var_eq), 1.0), (math.sqrt(eq.var_e), -1.0))


def secret_key_capacity(
    params: ChannelParams, cfg: SolverConfig = DEFAULT_SOLVER
) -> SolverReport:
    """Secret-key capacity of the amplitude-constrained setting, maximizing
    the degraded-wiretap rate over discrete inputs on [-A, A]."""
    return _capacity(params.amplitude, _secret_key_channels(params), cfg,
                     lambda s: secret_key_rate(params, s))


def secret_key_profile(params: ChannelParams, dist: DiscreteDistribution):
    """(x, s) of an even law on the secret-key stack: its certificate's
    profile, on a lattice of _KKT_GRID_SIZE points of [-A, A]."""
    a = params.amplitude
    stack = _channel_stack(a, _secret_key_channels(params))
    return _kkt_profile(*dist.as_arrays(), stack, a, _KKT_GRID_SIZE // 2)[:2]
