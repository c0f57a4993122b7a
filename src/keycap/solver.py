"""Capacity-achieving discrete inputs via mass-point escalation.

The number of mass points K is increased one at a time; for each K the
input law is optimized by alternating a concave projected-gradient ascent
over the probability weights with a derivative-free coordinate search over
the point locations. A candidate is accepted once the marginal density

    s(x; F) = sum_c sign_c * D( p_c(.|x) || f_{F,c} )

is below the achieved rate everywhere on [-A, A] (equality at mass points),
which certifies optimality for these concave objectives. For the plain
channel the sum has a single positive term and s is the usual information
density i(x; F); for the secret-key objective it is the difference of the
legitimate-equivalent and eavesdropper relative entropies, whose weighted
average over F equals the full rate including the constant
0.5 log(var_e / var_eq).

Symmetry of the channel law is exploited throughout: only nonnegative
locations are optimized and every solution is exactly mirror-symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .channel import ChannelParams, equivalent_channel, secret_key_rate
from .errors import NoConvergence
from .inputs import DiscreteDistribution, DiscreteScheme
from .numerics import (
    DEFAULT_QUAD,
    QuadratureSpec,
    _log_mixture,
    mutual_information,
)

_GH_ORDER = 96
_GH_NODES, _GH_W = np.polynomial.hermite.hermgauss(_GH_ORDER)
_GH_W = _GH_W / math.sqrt(math.pi)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SolverConfig:
    kkt_tolerance: float = 1e-6
    kkt_grid_size: int = 2001
    max_K: int = 64
    inner_opt_tolerance: float = 1e-9
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        tols = (self.kkt_tolerance, self.inner_opt_tolerance)
        if not all(math.isfinite(t) and t > 0.0 for t in tols):
            raise ValueError("tolerances must be positive and finite")
        if min(self.kkt_grid_size, self.restarts) <= 0:
            raise ValueError("kkt_grid_size and restarts must be positive")
        if self.max_K < 2:
            # escalation starts at K=2
            raise ValueError(f"max_K must be at least 2, got {self.max_K}")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class SolverReport:
    distribution: DiscreteDistribution
    rate_nats: float
    num_points_K: int
    kkt_max_violation: float
    kkt_grid: tuple[tuple[float, float], ...]
    converged: bool


# ---------------------------------------------------------------------------
# rate machinery; a "channel stack" is a tuple of (sigma, sign) pairs


def _expect_log_mixture(x, points, probs, sigma):
    """E[ log f(x + sigma * Z) ] per entry of x, Z standard normal, f the
    Gaussian mixture with the given points/probs through noise sigma."""
    x = np.atleast_1d(np.asarray(x, float))
    y = x[:, None] + math.sqrt(2.0) * sigma * _GH_NODES          # (n, H)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    return _log_mixture(y, points, log_probs, sigma) @ _GH_W     # (n,)


def _marginal_density(x, points, probs, channels):
    """s(x; F): signed sum of per-channel relative entropies D(p(.|x)||f)."""
    x = np.atleast_1d(np.asarray(x, float))
    out = np.zeros(len(x))
    for sigma, sign in channels:
        h_noise = _LOG_SQRT_2PI + math.log(sigma) + 0.5
        out += sign * (-h_noise - _expect_log_mixture(x, points, probs, sigma))
    return out


def _rate(points, probs, channels):
    return float(probs @ _marginal_density(points, points, probs, channels))


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


def _group_rate(u, w, has_center, channels):
    points, probs = _expand(u, w, has_center)
    keep = probs > 0.0
    return float(probs[keep] @ _marginal_density(
        points[keep], points[keep], probs[keep], channels))


def _optimize_weights(u, w, has_center, channels, tol, max_iter=3000):
    """Projected-gradient ascent on the simplex with backtracking.

    The objective is concave in the weights (degraded stack), so the
    projected-gradient residual certifies stationarity.
    """
    m = len(u)
    w = np.asarray(w, float)

    def rate_and_grad(wv):
        points, probs = _expand(u, wv, has_center)
        keep = probs > 0.0
        d = np.full(len(points), -np.inf)
        d[keep] = _marginal_density(points[keep], points[keep], probs[keep], channels)
        val = float(probs[keep] @ d[keep])
        # zero-weight points still have a finite marginal density
        if not keep.all():
            d[~keep] = _marginal_density(
                points[~keep], points[keep], probs[keep], channels)
        return val, _fold(d, m, has_center)

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
            pred = float(g @ delta)
            val_c, g_c = rate_and_grad(cand)
            if val_c >= val + 1e-4 * pred - 1e-15:
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
            return -_group_rate(uu, w, has_center, channels)

        res = minimize_scalar(
            neg, bounds=(1e-9 * amplitude, amplitude),
            method="bounded", options={"xatol": xatol},
        )
        candidates = [(neg(u[i]), u[i]), (res.fun, float(res.x)),
                      (neg(amplitude), amplitude)]
        u[i] = min(candidates)[1]
    order = np.argsort(u)
    u = u[order]
    if has_center:
        w = np.concatenate([w[:1], w[1:][order]])
    else:
        w = np.asarray(w, float)[order]
    return u, w


def _merge_groups(u, w, has_center, amplitude):
    """Merge mass points closer than 1e-9 * A (pair-pair, or pair into center)."""
    gap = 1e-9 * amplitude
    u = list(np.asarray(u, float))
    if has_center:
        wc, wp = float(w[0]), list(np.asarray(w[1:], float))
    else:
        wc, wp = 0.0, list(np.asarray(w, float))
    merged = False
    # innermost pair collapsing onto the axis
    while u and (u[0] if has_center or wc > 0.0 else 2.0 * u[0]) < gap:
        wc += wp.pop(0)
        u.pop(0)
        has_center = True
        merged = True
    i = 0
    while i + 1 < len(u):
        if u[i + 1] - u[i] < gap:
            tot = wp[i] + wp[i + 1]
            u[i] = (wp[i] * u[i] + wp[i + 1] * u[i + 1]) / tot
            wp[i] = tot
            del u[i + 1], wp[i + 1]
            merged = True
        else:
            i += 1
    if has_center:
        w_out = np.concatenate([[wc], wp])
    else:
        w_out = np.asarray(wp)
    return np.asarray(u), w_out, has_center, merged


def _initial_state(num_points, amplitude, rng=None):
    pts = np.linspace(-amplitude, amplitude, num_points)
    has_center = num_points % 2 == 1
    u = pts[pts > 1e-12 * amplitude]
    m = len(u)
    if has_center:
        w = np.concatenate([[1.0 / num_points], np.full(m, 2.0 / num_points)])
    else:
        w = np.full(m, 2.0 / num_points)
    if rng is not None:
        u = np.sort(np.clip(u * np.exp(0.25 * rng.standard_normal(m)),
                            1e-6 * amplitude, amplitude))
        w = rng.dirichlet(np.full(len(w), 2.0))
    return u, w, has_center


def _alternate(u, w, has_center, amplitude, channels, cfg, coarse=False):
    if coarse:
        xatol = 1e-6 * max(amplitude, 1.0)
        w_tol, val_tol, rounds, pg_iter = 1e-6, 1e-7, 15, 400
    else:
        xatol = 1e-10 * max(amplitude, 1.0)
        w_tol, val_tol, rounds, pg_iter = cfg.inner_opt_tolerance, \
            cfg.inner_opt_tolerance, 60, 3000
    val = -np.inf
    for _ in range(rounds):
        w, val_w, _ = _optimize_weights(
            u, w, has_center, channels, w_tol, max_iter=pg_iter)
        u, w = _optimize_locations(u, w, has_center, amplitude, channels, xatol)
        val_new = _group_rate(u, w, has_center, channels)
        if val_new - val < val_tol:
            val = max(val, val_new)
            break
        val = val_new
    w, val, _ = _optimize_weights(
        u, w, has_center, channels, w_tol, max_iter=pg_iter)
    return u, w, has_center, val


def _solve_fixed_k(num_points, amplitude, channels, cfg, rng):
    # coarse screening over restarts, then one full-tolerance polish
    best = None
    for r in range(cfg.restarts):
        u0, w0, hc = _initial_state(
            num_points, amplitude, rng if r > 0 else None)
        state = _alternate(u0, w0, hc, amplitude, channels, cfg, coarse=True)
        if best is None or state[3] > best[3]:
            best = state
    u, w, has_center, _ = _alternate(
        best[0], best[1], best[2], amplitude, channels, cfg)
    u, w, has_center, merged = _merge_groups(u, w, has_center, amplitude)
    if merged:
        # retry at the same K from the merged state before escalating
        u, w, has_center, _ = _alternate(u, w, has_center, amplitude, channels, cfg)
        u, w, has_center, _ = _merge_groups(u, w, has_center, amplitude)
    points, probs = _expand(u, w, has_center)
    keep = probs > 1e-12
    probs = probs[keep] / probs[keep].sum()
    return points[keep], probs


def _kkt_profile(points, probs, channels, amplitude, grid_size):
    grid = np.unique(np.concatenate(
        [np.linspace(-amplitude, amplitude, grid_size), points]))
    s_grid = _marginal_density(grid, points, probs, channels)
    s_pts = _marginal_density(points, points, probs, channels)
    rate_ref = float(probs @ s_pts)
    violation = max(float(np.max(s_grid) - rate_ref),
                    float(np.max(np.abs(s_pts - rate_ref))))
    return grid, s_grid, rate_ref, violation


def _escalate(amplitude, channels, cfg):
    rng = np.random.default_rng(cfg.seed)
    fallback = None
    for num_points in range(2, cfg.max_K + 1):
        points, probs = _solve_fixed_k(num_points, amplitude, channels, cfg, rng)
        grid, s_grid, rate_ref, violation = _kkt_profile(
            points, probs, channels, amplitude, cfg.kkt_grid_size)
        candidate = (points, probs, rate_ref, violation, grid, s_grid)
        if violation <= cfg.kkt_tolerance:
            return candidate, True
        if fallback is None or rate_ref > fallback[2]:
            fallback = candidate
    return fallback, False


def _build_report(candidate, converged, rate_nats):
    points, probs, _, violation, grid, s_grid = candidate
    dist = DiscreteDistribution(tuple(points), tuple(probs))
    return SolverReport(
        distribution=dist,
        rate_nats=rate_nats,
        num_points_K=len(points),
        kkt_max_violation=violation,
        kkt_grid=tuple(zip(map(float, grid), map(float, s_grid))),
        converged=converged,
    )


def plain_capacity(
    amplitude: float,
    sigma: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> SolverReport:
    """Capacity of the amplitude-constrained scalar Gaussian channel,
    I(X; X + N) maximized over discrete inputs on [-A, A]."""
    if amplitude <= 0.0 or sigma <= 0.0:
        raise ValueError("amplitude and sigma must be positive")
    channels = ((float(sigma), 1.0),)
    candidate, converged = _escalate(float(amplitude), channels, cfg)
    if not converged:
        raise NoConvergence(
            f"no KKT certificate up to K={cfg.max_K} "
            f"(best violation {candidate[3]:.3e})")
    dist = DiscreteDistribution(tuple(candidate[0]), tuple(candidate[1]))
    rate = mutual_information(DiscreteScheme(dist), sigma, spec).nats
    return _build_report(candidate, converged, rate)


def secret_key_capacity(
    params: ChannelParams,
    cfg: SolverConfig = DEFAULT_SOLVER,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> SolverReport:
    """Secret-key capacity of the amplitude-constrained setting, maximizing
    the degraded-wiretap rate over discrete inputs on [-A, A]."""
    eq = equivalent_channel(params)
    channels = ((math.sqrt(eq.var_eq), 1.0), (math.sqrt(eq.var_e), -1.0))
    candidate, converged = _escalate(params.amplitude, channels, cfg)
    if not converged:
        raise NoConvergence(
            f"no KKT certificate up to K={cfg.max_K} "
            f"(best violation {candidate[3]:.3e})")
    dist = DiscreteDistribution(tuple(candidate[0]), tuple(candidate[1]))
    rate = secret_key_rate(params, DiscreteScheme(dist), spec).nats
    return _build_report(candidate, converged, rate)
