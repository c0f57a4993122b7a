"""Capacity-achieving discrete inputs via mass-point escalation.

One quadrature rule gives every number here: s(x; F), R(F) and its gradient
are sums over the nodes of the entropy rule (`differential_entropy`) on
[-A - 10 sigma, A + 10 sigma], laid out once per solve; for a law with mass
at +-A, R(F) is the reported rate's own sum, up to rounding.

The number of mass points K is increased one at a time; for each K the
input law is optimized by alternating a concave projected-gradient ascent
over the probability weights with a derivative-free coordinate search over
the point locations. A candidate is accepted once the marginal density

    s(x; F) = sum_c sign_c * D( p_c(.|x) || f_{F,c} )

is below the achieved rate everywhere on [-A, A] (equality at mass points),
which certifies optimality for these concave objectives. The law is mirror-
symmetric, so s is even: the certificate evaluates it on 1001 points of
[0, A] spaced A / 1000, plus the mass points, and mirrors it. For the plain
channel the sum has a single positive term and s is the usual information
density i(x; F); for the secret-key objective it is the difference of the
legitimate-equivalent and eavesdropper relative entropies, whose weighted
average over F equals the full rate including the constant
0.5 log(var_e / var_eq).

After every location pass of the full-tolerance polish, mass points closer
than 1e-2 * min(sigma_min, A) are merged, sigma_min being the smallest noise
std of the channel stack: two pairs into one at their weighted mean, an
innermost pair into the center point. The next passes re-optimize the
merged law, and it must still pass the certificate. The A term keeps the
+-A pair apart at tiny amplitudes.

Symmetry of the channel law is exploited throughout: only nonnegative
locations are optimized and every solution is exactly mirror-symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, equivalent_channel, secret_key_rate
from .errors import NoConvergence
from .inputs import DiscreteDistribution, DiscreteScheme
from .numerics import (_GL_W, _GL_X, _TAIL_SIGMAS, _gl_panels, _log_mixture,
                       minimize_bounded, mutual_information)

_KERNEL_BLOCK_TERMS = 2**14  # x values x nodes per block: 128 kB temporaries
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

_KKT_TOLERANCE = 1e-6     # largest s(x; F) - rate a certificate accepts
_KKT_GRID_SIZE = 2001     # points of [-A, A] the certificate checks
_INNER_TOLERANCE = 1e-9   # weight residual and rate gain of a fine solve


@dataclass(frozen=True)
class SolverConfig:
    max_K: int = 64
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.restarts <= 0:
            raise ValueError("restarts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.max_K < 2:
            # escalation starts at K=2
            raise ValueError(f"max_K must be at least 2, got {self.max_K}")


DEFAULT_SOLVER = SolverConfig()


class EscalationStep(NamedTuple):
    """One mass-point count tried by the escalation: the K it started from,
    the K of the law it returned after merging, that law's rate R(F) and
    its KKT violation; C_k lies in [R(F), R(F) + violation]."""

    K_tried: int
    K: int
    rate_nats: float
    kkt_violation: float


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


def _marginal_density(x, points, probs, channels):
    """s(x; F): signed sum of per-channel relative entropies D(p(.|x)||f).

    E log f(x + sigma Z) = sum_j w_j phi_sigma(y_j - x) log f(y_j) on the
    channel's nodes y_j, with log f evaluated once per call; x is taken in
    cache-sized blocks, and each row's sum is the same in any block."""
    x = np.atleast_1d(np.asarray(x, float))
    log_probs = _log_weights(probs)
    out = np.zeros(len(x))
    for sigma, sign, nodes, weights in channels:
        h_noise = _LOG_SQRT_2PI + math.log(sigma) + 0.5
        w_log_f = (weights / (sigma * math.sqrt(2.0 * math.pi))
                   * _log_mixture(nodes, points, log_probs, sigma))
        scale = math.sqrt(0.5) / sigma
        xs, ys = x * scale, nodes * scale
        rows = max(1, _KERNEL_BLOCK_TERMS // len(nodes))
        for i in range(0, len(x), rows):
            z2 = xs[i:i + rows, None] - ys
            z2 *= z2
            kernel = np.exp(np.negative(z2, out=z2), out=z2)
            out[i:i + rows] -= sign * (
                h_noise + np.einsum("ij,j->i", kernel, w_log_f))
    return out


def _rate(points, probs, channels):
    """R(F) = sum_c sign_c (h(f_c) - h(N_c)), each h(f_c) = -sum_j w_j f_c
    log f_c on the channel's nodes: the sum `differential_entropy` takes."""
    log_probs = _log_weights(probs)
    rate = 0.0
    for sigma, sign, nodes, weights in channels:
        h_noise = _LOG_SQRT_2PI + math.log(sigma) + 0.5
        log_f = _log_mixture(nodes, points, log_probs, sigma)
        rate += sign * (-float(weights @ (np.exp(log_f) * log_f)) - h_noise)
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
# symmetric parametrization: pair locations u > 0 plus optional center point


def _expand(u, w, has_center):
    """Group state -> full (points, probs). Groups are (center?, pairs...)."""
    u = np.asarray(u, float)
    w = np.asarray(w, float)
    if has_center:
        wp = w[1:]
        points = np.concatenate([-u[::-1], [0.0], u])
        probs = np.concatenate([wp[::-1] / 2.0, w[:1], wp / 2.0])
    else:
        points = np.concatenate([-u[::-1], u])
        probs = np.concatenate([w[::-1] / 2.0, w / 2.0])
    return points, probs


def _fold(values, m, has_center):
    """Full per-point values -> per-group values (pair entries averaged)."""
    if has_center:
        pairs = 0.5 * (values[m + 1:] + values[m - 1::-1]) if m else values[:0]
        return np.concatenate([values[m:m + 1], pairs])
    return 0.5 * (values[m:] + values[m - 1::-1])


def _optimize_weights(u, w, has_center, channels, tol, max_iter=3000):
    """Projected-gradient ascent on the simplex with backtracking.

    The objective is concave in the weights (degraded stack), so the
    projected-gradient residual certifies stationarity.
    """
    m = len(u)
    w = np.asarray(w, float)

    def rate_and_grad(wv):
        points, probs = _expand(u, wv, has_center)
        d = _marginal_density(points, points, probs, channels)
        return float(probs @ d), _fold(d, m, has_center)

    val, g = rate_and_grad(w)
    step = 1.0
    residual = np.inf
    for _ in range(max_iter):
        residual = float(np.max(np.abs(project_simplex(w + g) - w)))
        if residual <= tol:
            break
        moved = False
        while step > 1e-15:
            cand = project_simplex(w + step * g)
            delta = cand - w
            val_c, g_c = rate_and_grad(cand)
            # the objective is concave, so the segment ascends all the way
            # while its far end still does; centering g_c cancels the
            # rounding left in sum(delta) = 0, which would otherwise swamp
            # the directional derivative near the optimum
            if float((g_c - g_c.mean()) @ delta) >= 0.0:
                moved = True
                break
            step *= 0.5
        if not moved or float(np.max(np.abs(delta))) < 1e-16:
            break
        w, val, g = cand, val_c, g_c
        step = min(step * 2.0, 1e4)
    return w, val, residual


def _optimize_locations(u, w, has_center, amplitude, channels, xatol):
    """One coordinate-ascent pass over the pair locations in (0, A]."""
    u = np.asarray(u, float).copy()
    for i in range(len(u)):
        def neg(ui, i=i):
            uu = u.copy()
            uu[i] = ui
            return -_rate(*_expand(uu, w, has_center), channels)

        x, fx = minimize_bounded(neg, 1e-9 * amplitude, amplitude, xatol)
        candidates = [(neg(u[i]), u[i]), (fx, x), (neg(amplitude), amplitude)]
        u[i] = min(candidates)[1]
    order = np.argsort(u)
    w_order = np.concatenate([[0], order + 1]) if has_center else order
    return u[order], np.asarray(w, float)[w_order]


def _merge_groups(u, w, has_center, amplitude, channels):
    """Merge mass points closer than 1e-2 * min(sigma_min, A) (pair-pair,
    or pair into center); sigma_min is the smallest noise std of the stack.
    """
    gap = 1e-2 * min(min(sigma for sigma, *_ in channels), amplitude)
    u, w = list(np.asarray(u, float)), np.asarray(w, float)
    wc, wp = (float(w[0]), list(w[1:])) if has_center else (0.0, list(w))
    # innermost pair collapsing onto the axis
    while u and (u[0] if has_center else 2.0 * u[0]) < gap:
        wc += wp.pop(0)
        u.pop(0)
        has_center = True
    i = 0
    while i + 1 < len(u):
        if u[i + 1] - u[i] < gap:
            tot = wp[i] + wp[i + 1]
            if tot > 0.0:
                u[i] = (wp[i] * u[i] + wp[i + 1] * u[i + 1]) / tot
            wp[i] = tot
            del u[i + 1], wp[i + 1]
        else:
            i += 1
    w_out = [wc, *wp] if has_center else wp
    return np.asarray(u), np.asarray(w_out), has_center


def _initial_state(num_points, amplitude, rng=None):
    pts = np.linspace(-amplitude, amplitude, num_points)
    has_center = num_points % 2 == 1
    u = pts[pts > 1e-12 * amplitude]
    m = len(u)
    w = np.full(m, 2.0 / num_points)
    if has_center:
        w = np.concatenate([[1.0 / num_points], w])
    if rng is not None:
        u = np.sort(np.clip(u * np.exp(0.25 * rng.standard_normal(m)),
                            1e-6 * amplitude, amplitude))
        w = rng.dirichlet(np.full(len(w), 2.0))
    return u, w, has_center


def _alternate(u, w, has_center, amplitude, channels, coarse=False):
    if coarse:
        xatol = 1e-6 * max(amplitude, 1.0)
        w_tol, val_tol, rounds, pg_iter = 1e-6, 1e-7, 15, 400
    else:
        xatol = 1e-10 * max(amplitude, 1.0)
        w_tol, val_tol, rounds, pg_iter = \
            _INNER_TOLERANCE, _INNER_TOLERANCE, 60, 3000
    val = -np.inf
    for _ in range(rounds):
        w, val_w, _ = _optimize_weights(
            u, w, has_center, channels, w_tol, max_iter=pg_iter)
        u, w = _optimize_locations(u, w, has_center, amplitude, channels, xatol)
        if not coarse:
            # the screen only ranks starts; its points are not settled yet
            u, w, has_center = _merge_groups(
                u, w, has_center, amplitude, channels)
        val_new = _rate(*_expand(u, w, has_center), channels)
        if val_new - val < val_tol:
            val = max(val, val_new)
            break
        val = val_new
    w, val, _ = _optimize_weights(
        u, w, has_center, channels, w_tol, max_iter=pg_iter)
    return u, w, has_center, val


def _solve_fixed_k(num_points, amplitude, channels, cfg, rng):
    # coarse screening over restarts, then one full-tolerance polish
    starts = (_initial_state(num_points, amplitude, rng if r > 0 else None)
              for r in range(cfg.restarts))
    best = max((_alternate(*start, amplitude, channels, coarse=True)
                for start in starts), key=lambda state: state[3])
    u, w, has_center, _ = _alternate(*best[:3], amplitude, channels)
    points, probs = _expand(u, w, has_center)
    keep = probs > 1e-12
    return points[keep], probs[keep] / probs[keep].sum()


def _kkt_profile(points, probs, channels, amplitude):
    half = np.unique(np.concatenate(
        [np.linspace(0.0, amplitude, (_KKT_GRID_SIZE + 1) // 2),
         np.abs(points)]))
    s_half = _marginal_density(half, points, probs, channels)
    # s is even: mirror x >= 0, keeping half[0] = 0.0 once
    grid = np.concatenate([-half[:0:-1], half])
    s_grid = np.concatenate([s_half[:0:-1], s_half])
    s_pts = _marginal_density(points, points, probs, channels)
    rate_ref = _rate(points, probs, channels)
    violation = max(float(np.max(s_grid) - rate_ref),
                    float(np.max(np.abs(s_pts - rate_ref))))
    return grid, s_grid, rate_ref, violation


def _capacity(amplitude, channels, cfg, rate_of):
    """Escalate K on the channel stack until the KKT certificate holds; the
    reported rate is rate_of applied to the certified law's DiscreteScheme.
    channels holds (sigma, sign) pairs; their nodes are laid out once here."""
    channels = _channel_stack(amplitude, channels)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    for num_points in range(2, cfg.max_K + 1):
        points, probs = _solve_fixed_k(num_points, amplitude, channels, cfg, rng)
        grid, s_grid, rate, violation = _kkt_profile(
            points, probs, channels, amplitude)
        trace.append(EscalationStep(num_points, len(points), rate, violation))
        if violation <= _KKT_TOLERANCE:
            break
    else:
        best_violation = min(step.kkt_violation for step in trace)
        raise NoConvergence(
            f"no KKT certificate up to K={cfg.max_K} "
            f"(best violation {best_violation:.3e})", tuple(trace))
    dist = DiscreteDistribution(tuple(points), tuple(probs))
    rate = rate_of(DiscreteScheme(dist))
    return SolverReport(
        distribution=dist,
        rate_nats=rate.nats,
        quad_error=rate.quad_error,
        num_points_K=len(points),
        kkt_max_violation=violation,
        kkt_grid=tuple(zip(map(float, grid), map(float, s_grid))),
        trace=tuple(trace),
    )


def plain_capacity(
    amplitude: float, sigma: float, cfg: SolverConfig = DEFAULT_SOLVER
) -> SolverReport:
    """Capacity of the amplitude-constrained scalar Gaussian channel,
    I(X; X + N) maximized over discrete inputs on [-A, A]."""
    if amplitude <= 0.0 or sigma <= 0.0:
        raise ValueError("amplitude and sigma must be positive")
    return _capacity(float(amplitude), ((float(sigma), 1.0),), cfg,
                     lambda s: mutual_information(s, sigma))


def secret_key_capacity(
    params: ChannelParams, cfg: SolverConfig = DEFAULT_SOLVER
) -> SolverReport:
    """Secret-key capacity of the amplitude-constrained setting, maximizing
    the degraded-wiretap rate over discrete inputs on [-A, A]."""
    eq = equivalent_channel(params)
    channels = ((math.sqrt(eq.var_eq), 1.0), (math.sqrt(eq.var_e), -1.0))
    return _capacity(params.amplitude, channels, cfg,
                     lambda s: secret_key_rate(params, s))
