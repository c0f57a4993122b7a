"""Capacity-achieving discrete inputs via mass-point escalation.

One quadrature rule gives every number here: s(x; F), R(F) and R's exact
first and second derivatives are sums over the entropy rule's nodes on the
t >= 0 half of [-A - 10 sigma, A + 10 sigma] (`_lattice`), laid out once
per solve; for a law with mass at +-A, R(F) is the reported rate's own sum.
One folded kernel per group of the law (`_group_kernels`), with its
u-derivatives and its log, gives them all: log f is a log-sum-exp over
the groups, and the law's points are expanded only to be reported.

A solve maximizes R(F) = sum_c sign_c (h(f_c) - h(N_c)) over a noise
stack of (sigma, sign) pairs: ((sigma, +1),) for the plain capacity,
`ChannelParams.stack` for the secret-key capacity. It runs in noise
units: A and every sigma are divided by the smallest, sigma_min, so that,
like the capacity, it depends on A / sigma alone; the certified points are
scaled back. Below, lengths are in these units. The search starts from the
equispaced law of min(max_K, ceil(1.3 A)) points, 2 at least. Each law is
polished by two runs of one projected Newton ascent (`_ascend`), over the
weights, then over the weights and pair locations together, then merged,
and accepted once the marginal density

    s(x; F) = sum_c sign_c * D( p_c(.|x) || f_{F,c} )

is below the achieved rate everywhere on [-A, A] (equality at mass points),
which certifies optimality for these concave objectives; the average of s
over F is the rate. s is even: the certificate takes it on [0, A] at a
lattice spaced 1/4 or less, the mass points and each maximum in between
(Newton steps on s'), and mirrors it. Otherwise a point of weight
1e-3 is added where s is largest (Smith 1971; Huang & Meyn 2005); the grown
law is polished next.

A law is ascending group locations u >= 0 and aligned group weights w: the
group at exactly u = 0 is the center point, every other group the pair +-u
with half its weight at each, so every law is exactly mirror-symmetric. The
joint step moves the pairs in [1e-9 A, A] and holds the center at 0; after
it, zero-weight groups are dropped and mass points closer than
1e-2 * min(1, A) merge: two pairs into one at their weighted mean,
an innermost pair into the center (the A term keeps +-A apart at tiny
amplitudes).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, secret_key_rate
from .errors import NoConvergence
from .inputs import (DiscreteDistribution, _check_positive_finite,
                     maxentropic_scheme)
from .numerics import (_NEWTON_STEPS, _SQRT_2PI, _TAIL_SIGMAS, _lattice,
                       maximize_newton, mutual_information, noise_entropy)

_KERNEL_BLOCK_TERMS = 2**14  # x values x nodes per block: 128 kB temporaries

_KKT_TOLERANCE = 1e-6     # largest s(x; F) - rate a certificate accepts
_KKT_GRID_SIZE = 2001     # points of [-A, A] in `keycap kkt-profile`
_INNER_TOLERANCE = 1e-9   # weight residual and joint reduced gradient
_RATE_ROUNDING = 1e-13    # how far a Newton step may lower R(F): rounding
_GROWTH_WEIGHT = 1e-3     # weight of the mass point each growth step adds
_PAIR_FLOOR = 1e-9        # lowest pair location, in units of A


@dataclass(frozen=True)
class SolverConfig:
    max_K: int = 64

    def __post_init__(self):
        if not isinstance(self.max_K, numbers.Integral) or self.max_K < 2:
            raise ValueError(
                f"max_K must be an integer of at least 2, got {self.max_K!r}")


DEFAULT_SOLVER = SolverConfig()


class EscalationStep(NamedTuple):
    """One polished law: the point count of its start law, the K of the law
    the polish returned, that law's R(F) and KKT violation (C_k is in
    [R(F), R(F) + violation]), the Newton steps of the polish's weight
    ascent and of its joint (w, u) ascent, and whether one was capped."""

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
    # one step per KKT profile paid for, the certified one last
    trace: tuple[EscalationStep, ...]


# ---------------------------------------------------------------------------
# rate machinery


def _channel_stack(amplitude, channels):
    """(sigma, sign) pairs -> (sigma, sign, nodes, weights) per channel: the
    entropy rule's t >= 0 lattice of [-A - 10 sigma, A + 10 sigma], as for an
    even law with mass at +-A; every law and group kernel here is even."""
    return tuple((sigma, sign, *_lattice(-amplitude - _TAIL_SIGMAS * sigma,
                                         amplitude + _TAIL_SIGMAS * sigma,
                                         sigma, True)[:2])
                 for sigma, sign in channels)


def _group_kernels(u, channels, log_only=False):
    """Per channel, on its nodes y: the folded kernel phi (groups x nodes),
    (phi(y - u_i) + phi(y + u_i)) / 2 per group, so that f_c = w @ phi; its
    first and second u-derivatives (the first is 0 at u = 0); and log phi,
    alone if log_only. phi is even in y and in u, phi' odd in u: all are
    taken at |y| and |u|, where phi(y + u) = phi(y - u) r, r = exp(-2 y u /
    sigma^2) <= 1, so log phi = log phi(y - u) + log1p(r) - log 2 stays
    finite everywhere."""
    a = np.abs(u)[:, None]
    out = []
    for sigma, _, nodes, _ in channels:
        y = np.abs(nodes)
        zm = (y - a) / sigma
        log_em = -0.5 * zm * zm - math.log(2.0 * sigma * _SQRT_2PI)
        r = np.exp(-2.0 / sigma**2 * y * a)
        log_phi = log_em + np.log1p(r)
        if log_only:
            out.append((log_phi,))
            continue
        zp, em = (y + a) / sigma, np.exp(log_em)
        ep = em * r
        dphi = (em * zm - ep * zp) / sigma
        np.negative(dphi, out=dphi, where=u[:, None] < 0.0)
        out.append((em + ep, dphi,
                    (em * (zm * zm - 1.0) + ep * (zp * zp - 1.0)) / sigma**2,
                    log_phi))
    return out


def _marginal_density(x, channels, log_fs):
    """s(x; F) = sum_c sign_c D(p_c(.|x) || f_c), s' and s'' at a 1-d array
    x, rows of a (3, len(x)) array, from each channel's log f on its nodes
    (as `_rate` appends them): the folded kernel of `_group_kernels` at x
    against w_j log f(y_j), f being even. x is taken in cache-sized blocks;
    each row's sums are the same in any block."""
    out = np.zeros((3, len(x)))
    out[0] -= sum(sign * noise_entropy(sigma) for sigma, sign, *_ in channels)
    rows = max(1, _KERNEL_BLOCK_TERMS // max(len(c[2]) for c in channels))
    for i in range(0, len(x), rows):
        for (_, sign, _, weights), log_f, (*kernels, _) in zip(
                channels, log_fs, _group_kernels(x[i:i + rows], channels)):
            out[:, i:i + rows] -= sign * np.array(
                [np.einsum("ij,j->i", k, weights * log_f) for k in kernels])
    return out


def _rate(u, w, channels, kernels=None, log_fs=None):
    """R(F) of the group state (u, w) = sum_c sign_c (h(f_c) - h(N_c)), each
    h(f_c) = -sum_j w_j f_c log f_c on the channel's nodes: the sum
    `differential_entropy` takes. log f_c is the log-sum-exp of log w_i +
    log phi_i over the groups, from `_group_kernels` at u (kernels, if
    given); each channel's is appended to log_fs when one is given."""
    kernels = kernels or _group_kernels(u, channels, log_only=True)
    # zero weights give -inf rows, which drop out of the sum
    log_w = np.log(w, out=np.full(len(w), -np.inf), where=w > 0.0)[:, None]
    rate = 0.0
    for (sigma, sign, _, weights), (*_, log_phi) in zip(channels, kernels):
        terms = log_w + log_phi
        m = terms.max(axis=0)
        log_f = np.log(np.exp(terms - m).sum(axis=0)) + m
        h = -float(weights @ (np.exp(log_f) * log_f))
        rate += sign * (h - noise_entropy(sigma))
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


def _fold(points, probs):
    """An even law's (points, probs) -> its group state: `_expand` undone."""
    points, probs = np.asarray(points, float), np.asarray(probs, float)
    u = points[points >= 0.0]
    return u, np.where(u > 0.0, 2.0, 1.0) * probs[points >= 0.0]


def _num_points(u):
    """The number of points `_expand` gives the group state."""
    return 2 * len(u) - int(u[0] == 0.0)


def _derivatives(u, w, channels, kernels=None):
    """R(F) and its exact gradient and Hessian in (w, u), weights first, on
    the entropy rule's nodes, from `_group_kernels` at u: f_c = w @ phi,
    J = [phi; w phi'], f's second derivatives phi' at (w_i, u_i) and w phi''
    at (u_i, u_i). log f is `_rate`'s: w @ phi underflows."""
    kernels, n = kernels or _group_kernels(u, channels), len(w)
    log_fs = []
    rate = _rate(u, w, channels, kernels, log_fs)
    grad = hess = 0.0
    for (_, sign, _, weights), log_f, (phi, dphi, d2phi, _) in zip(
            channels, log_fs, kernels):
        d_log = weights * (log_f + 1.0)
        j = np.vstack([phi, w[:, None] * dphi])
        # weights / f, kept finite where f underflows (there j does too);
        # js @ js.T is numpy's symmetric product
        js = j * np.sqrt(weights * np.exp(-np.maximum(log_f, -700.0)))
        h = js @ js.T
        h[n:, n:] += np.diag(w * (d2phi @ d_log))
        cross = np.diag(dphi @ d_log, n)  # (w_i, u_i) and (u_i, w_i)
        h += cross + cross.T
        grad = grad - sign * (j @ d_log)
        hess = hess - sign * h
    return rate, grad, hess


def _backtrack(x, d, val, derivatives, project):
    """The first of project(x + t d), t = 1, 1/2, ..., whose R(F) is not
    below val by more than rounding, with its `derivatives`; None once the
    step moves no coordinate by 1e-16."""
    t = 1.0
    while True:
        cand = project(x + t * d)
        if float(np.max(np.abs(cand - x), initial=0.0)) < 1e-16:
            return None
        found = derivatives(cand)
        if found[0] >= val - _RATE_ROUNDING:
            return cand, found
        t *= 0.5


def _cut_at_zero(w, d):
    """The step d, weights w first, cut where a weight reaches exactly 0."""
    n = len(w)
    ratio = np.divide(w, -d[:n], out=np.full(n, np.inf), where=d[:n] < 0.0)
    t = min(1.0, float(ratio.min()))
    return np.concatenate([np.where(ratio == t, -w, t * d[:n]), t * d[n:]])


def _simplex(v):
    return np.maximum(v, 0.0) / np.maximum(v, 0.0).sum()


def _newton_step(g, hess, free_w, free_u):
    """The Newton step of the joint g and hess on an orthonormal basis of
    the free weights' zero-sum moves and the free locations, the eigenvalues
    flipped negative and kept off 0; and the largest gradient entry there."""
    m, k = int(free_w.sum()), int(free_u.sum())
    basis = np.zeros((len(g), m - 1 + k))
    basis[np.flatnonzero(free_w), :m - 1] = np.linalg.eigh(
        np.eye(m) - 1.0 / m)[1][:, 1:]
    basis[len(free_w) + np.flatnonzero(free_u), m - 1:] = np.eye(k)
    g_r = basis.T @ g
    lam, vec = np.linalg.eigh(basis.T @ hess @ basis)
    lam = np.maximum(abs(lam), 1e-12 * abs(lam).max(initial=1e-300))
    return (basis @ (vec @ ((vec.T @ g_r) / lam)),
            float(np.max(np.abs(g_r), initial=0.0)))


def _ascend(u, w, amplitude, channels, move, evals=None):
    """Projected Newton ascent of R over the nonzero weights and, if move,
    the pair locations, projected on [_PAIR_FLOOR A, A] and held at a bound
    the gradient pushes past (the center stays at 0), until max(|P(w + g) -
    w|, |dR/du| of the free pairs) <= _INNER_TOLERANCE; a projected-gradient
    step in w only to change the face. Returns (u, w, steps); `_derivatives`
    at them is appended to evals, whose last entry, if any, is the start's."""
    n, pair = len(u), u > 0.0
    lo = _PAIR_FLOOR * amplitude * pair
    kernels = None if move else _group_kernels(u, channels)
    val, g, hess = evals[-1] if evals else _derivatives(u, w, channels,
                                                         kernels)
    for steps in range(_NEWTON_STEPS + 1):
        pg = project_simplex(w + g[:n]) - w
        free_u = move & pair & (w > 0.0) & (
            (u < amplitude) | (g[n:] <= 0.0)) & ((u > lo) | (g[n:] >= 0.0))
        residual = max(float(np.max(np.abs(pg))),
                       float(np.max(np.abs(g[n:][free_u]), initial=0.0)))
        if residual <= _INNER_TOLERANCE or steps == _NEWTON_STEPS:
            break
        d, flat = _newton_step(g, hess, w > 0.0, free_u)
        if flat <= _INNER_TOLERANCE:
            d = np.concatenate([pg, np.zeros(n)])
        found = _backtrack(
            np.concatenate([w, u]), _cut_at_zero(w, d), val,
            lambda x: _derivatives(x[n:], x[:n], channels, kernels),
            lambda x: np.concatenate([_simplex(x[:n]),
                                      np.clip(x[n:], lo, amplitude)]))
        if found is None:
            break
        (w, u), (val, g, hess) = np.split(found[0], 2), found[1]
    if evals is not None:
        evals.append((val, g, hess))
    return u, w, steps


def _polish(u, w, amplitude, channels):
    """`_ascend` in the weights, then jointly, then `_merge_groups` (the
    certificate judges the merged law). Returns the state and (weight
    steps, joint steps, whether either ascent capped)."""
    evals = []  # the weight ascent's last state starts the joint one
    u, w, first = _ascend(u, w, amplitude, channels, False, evals)
    u, w, steps = _ascend(u, w, amplitude, channels, True, evals)
    order = np.argsort(u)
    u, w = _merge_groups(u[order], w[order], amplitude)
    return u, w, (first, steps, _NEWTON_STEPS in (first, steps))


def _merge_gap(amplitude):
    return 1e-2 * min(1.0, amplitude)


def _merge_groups(u, w, amplitude):
    """Drop zero-weight groups, then merge mass points closer than the
    merge gap: an innermost pair within it of its mirror image becomes the
    center, pairs within it of the center fold into it, and two pairs merge
    at their weighted mean."""
    gap = _merge_gap(amplitude)
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


def _grow(u, w, grid, s_grid, amplitude):
    """The law with a point of weight _GROWTH_WEIGHT added where the even
    profile s_grid on grid is largest, the other weights scaled to make
    room: the center if that is within the merge gap of 0 and the law has
    none, else a pair, at _PAIR_FLOOR A or above."""
    x = max(abs(float(grid[np.argmax(s_grid)])), _PAIR_FLOOR * amplitude)
    if x < _merge_gap(amplitude) and u[0] > 0.0:
        x = 0.0
    i = int(np.searchsorted(u, x))
    w = np.asarray(w, float) * (1.0 - _GROWTH_WEIGHT)
    return np.insert(u, i, x), np.insert(w, i, _GROWTH_WEIGHT)


def _kkt_profile(u, w, channels, amplitude, cells):
    """The group state's certificate: s at cells + 1 points of [0, A], at
    the group locations and at the maximum in each cell s' falls through 0
    in (`maximize_newton`, from the secant root of s'). Returns them and s
    mirrored, R(F), max(s - R, |s - R| at mass points)."""
    log_fs = []
    rate_ref = _rate(u, w, channels, log_fs=log_fs)
    half = np.unique(np.concatenate(
        [np.linspace(0.0, amplitude, cells + 1), u]))
    s_half, ds, _ = _marginal_density(half, channels, log_fs)
    up = np.flatnonzero((ds[:-1] > 0.0) & (ds[1:] <= 0.0))
    lo, hi = half[up], half[up + 1]
    x, (s_x, _, _) = maximize_newton(
        lambda x: _marginal_density(x, channels, log_fs), lo, hi,
        lo + (hi - lo) * ds[up] / (ds[up] - ds[up + 1]))
    half, idx = np.unique(np.append(half, x), return_index=True)
    s_half = np.append(s_half, s_x)[idx]
    violation = max(float(np.max(s_half) - rate_ref), float(np.max(
        np.abs(s_half[(half[:, None] == u).any(axis=1)] - rate_ref))))
    # s is even: mirror x >= 0, keeping half[0] = 0.0 once
    return (np.concatenate([-half[:0:-1], half]),
            np.concatenate([s_half[:0:-1], s_half]), rate_ref, violation)


def _capacity(amplitude, channels, cfg, rate_of):
    """Grow the law from the equispaced start law until the KKT certificate
    holds (at most max_K points, max_K - 1 profiles); the reported rate is
    rate_of applied to the certified law. channels is a noise stack of
    (sigma, sign) pairs. The solve runs in noise units: A and every sigma
    are divided by sigma_min, the stack's nodes laid out once at that scale,
    and the certified points scaled back."""
    scale = min(sigma for sigma, _ in channels)
    a = amplitude / scale
    channels = _channel_stack(a, [(sigma / scale, sign)
                                  for sigma, sign in channels])
    u, w = _fold(*maxentropic_scheme(a, min(cfg.max_K, max(2, math.ceil(
        1.3 * a)))).as_arrays())
    trace = []
    while len(trace) < cfg.max_K - 1 and (k := _num_points(u)) <= cfg.max_K:
        u, w, steps = _polish(u, w, a, channels)
        grid, s_grid, rate, violation = _kkt_profile(
            u, w, channels, a, math.ceil(4.0 * a))
        trace.append(EscalationStep(k, _num_points(u), rate, violation,
                                    *steps))
        if violation <= _KKT_TOLERANCE:
            points, probs = _expand(u, w)
            points = np.clip(points * scale, -amplitude, amplitude)
            dist = DiscreteDistribution(tuple(points), tuple(probs))
            rate = rate_of(dist)
            return SolverReport(dist, rate.nats, rate.quad_error, len(points),
                                violation, tuple(trace))
        u, w = _grow(u, w, grid, s_grid, a)
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


def secret_key_capacity(
    params: ChannelParams, cfg: SolverConfig = DEFAULT_SOLVER
) -> SolverReport:
    """Secret-key capacity of the amplitude-constrained setting, maximizing
    the degraded-wiretap rate over discrete inputs on [-A, A]."""
    return _capacity(params.amplitude, params.stack, cfg,
                     lambda s: secret_key_rate(params, s))


def secret_key_profile(params: ChannelParams, dist: DiscreteDistribution):
    """(x, s) of an even law on the secret-key stack: its certificate's
    profile, on a lattice of _KKT_GRID_SIZE points of [-A, A]."""
    a = params.amplitude
    stack = _channel_stack(a, params.stack)
    return _kkt_profile(*_fold(*dist.as_arrays()), stack, a,
                        _KKT_GRID_SIZE // 2)[:2]
