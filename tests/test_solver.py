import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from keycap import (
    ChannelParams,
    NoConvergence,
    SolverConfig,
    maxentropic_scheme,
    plain_capacity,
    secret_key_capacity,
    secret_key_rate,
)
from keycap import solver
from keycap.numerics import LATTICE_PER_SIGMA, _lattice
from keycap.solver import (
    _ascend,
    _channel_stack,
    _derivatives,
    _expand,
    _fold,
    _group_kernels,
    _grow,
    _marginal_density,
    _merge_groups,
    _polish,
    _rate,
    project_simplex,
)
from support import _quad, mixed_gaussian_entropy_integral


def _profile(x, points, probs, channels):
    """s(x; F), s' and s'' of an even law, with each channel's log f from
    _rate."""
    return _marginal_density(x, channels,
                             _rate(*_fold(points, probs), channels)[1])


def _certificate(u, w, channels, amplitude, cells):
    """`_kkt_profile` of the group state, with R(F) and log f from _rate."""
    return solver._kkt_profile(u, w, channels, amplitude, cells,
                               *_rate(u, w, channels))


def _assert_identical(got, want):
    """Two evaluations, (R(F), ..., log f per channel), bit for bit."""
    *values, log_fs = got
    *wanted, wanted_log_fs = want
    assert len(values) == len(wanted) and len(log_fs) == len(wanted_log_fs)
    for x, y in zip(values + log_fs, wanted + wanted_log_fs):
        np.testing.assert_array_equal(x, y)


def _cells(a, channels):
    """Lattice cells of [0, A] spaced sigma_min / 4 or less."""
    return math.ceil(4.0 * a / min(sigma for sigma, *_ in channels))


class TestProjectSimplex:
    @given(hnp.arrays(float, st.integers(1, 12),
                      elements=st.floats(-20, 20)))
    @settings(max_examples=200, deadline=None)
    def test_valid_projection(self, v):
        p = project_simplex(v)
        assert np.all(p >= 0.0)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)

    @given(hnp.arrays(float, st.integers(1, 8),
                      elements=st.floats(0.01, 1.0)))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point(self, v):
        v = v / v.sum()
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_known_value(self):
        np.testing.assert_allclose(
            project_simplex(np.array([1.0, 0.0])), [1.0, 0.0], atol=1e-15)


def _weight_residual(u, w, channels):
    """max|P(w + g) - w|: the weight ascent's stopping residual."""
    g = _derivatives(u, w, channels)[1]
    return float(np.max(np.abs(project_simplex(w + g[:len(w)]) - w)))


class TestWeightOptimizer:
    """`_ascend` over the weights alone: the locations stay where they are."""

    def test_stationarity_residual(self):
        channels = _channel_stack(1.0, ((1.0, 1.0),))
        u = np.array([1.0])
        u2, w, _, _ = _ascend(u, np.array([1.0]), 1.0, channels, False)
        np.testing.assert_array_equal(u2, u)
        assert _weight_residual(u, w, channels) <= 1e-9
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_improves_rate(self):
        channels = _channel_stack(2.0, ((1.0, 1.0),))
        u = np.array([0.5, 2.0])
        w0 = np.array([0.9, 0.1])
        u2, w, _, _ = _ascend(u, w0, 2.0, channels, False)
        np.testing.assert_array_equal(u2, u)
        assert _rate(u, w, channels)[0] >= _rate(u, w0, channels)[0] - 1e-12

    @pytest.mark.parametrize("channels", [
        ((math.sqrt(2.0 / 3.0), 1.0),),
        ((math.sqrt(2.0 / 3.0), 1.0), (math.sqrt(2.0), -1.0)),
    ], ids=["plain", "secret_key"])
    def test_reaches_tolerance(self, channels):
        # A^2=2, var_d=1, var_e=2 at K=3: Newton on the simplex must bring
        # the residual below the fine tolerance in a few steps, not spin to
        # its step cap
        a = math.sqrt(2.0)
        u, channels = np.array([0.0, a]), _channel_stack(a, channels)
        _, w, steps, _ = _ascend(u, np.array([0.5, 0.5]), a, channels,
                                 False)
        assert _weight_residual(u, w, channels) <= 1e-9 and steps <= 10


class TestMergeGroups:
    # the secret-key stack at var_d = 1, var_e = 2: sigma_min = sqrt(2/3)
    SECRET_KEY = ((math.sqrt(2.0 / 3.0), 1.0), (math.sqrt(2.0), -1.0))

    def test_close_pairs_merge(self):
        # two pairs 8e-4 apart, as a fresh-start 9-point polish left them
        # at A^2 = 20; the gap is 1e-2 (in noise units), far above 1e-9 A
        a = math.sqrt(20.0)
        u = np.array([0.0, 1.0, 2.61317, 2.61397, a])
        w = np.array([0.2, 0.2, 0.1, 0.3, 0.2])
        u2, w2 = _merge_groups(u, w, a)
        np.testing.assert_allclose(
            u2, [0.0, 1.0, (0.1 * 2.61317 + 0.3 * 2.61397) / 0.4, a],
            rtol=1e-15)
        np.testing.assert_allclose(w2, [0.2, 0.2, 0.4, 0.2], rtol=1e-15)

    def test_tiny_amplitude_pair_kept(self):
        # the gap is 1e-2 A here, so +-A, 2A apart, stay two points
        a = 1e-10
        u2, w2 = _merge_groups(np.array([a]), np.array([1.0]), a)
        assert list(u2) == [a] and list(w2) == [1.0]

    @pytest.mark.parametrize("u,w,want_w", [
        ([0.0, 1e-3, 1.0], [0.3, 0.2, 0.5], [0.5, 0.5]),
        ([1e-3, 1.0], [0.4, 0.6], [0.4, 0.6]),
        ([1e-3, 6e-3, 1.0], [0.2, 0.2, 0.6], [0.4, 0.6]),
    ], ids=["True", "False", "False-then-fold"])
    def test_innermost_pair_collapses_into_center(self, u, w, want_w):
        # (ids: whether the law has a center) 1e-3 from the center (2e-3
        # across the pair) is inside the gap 1e-2 at sigma = A = 1, and so
        # is 6e-3 once the innermost pair became the center, at exactly 0
        u2, w2 = _merge_groups(np.array(u), np.array(w), 1.0)
        np.testing.assert_array_equal(u2, [0.0, 1.0])
        np.testing.assert_allclose(w2, want_w, rtol=1e-15)

    @pytest.mark.parametrize("center", [True, False])
    def test_zero_weight_groups_dropped(self, center):
        # a pair driven to weight exactly 0, 0.11 from its neighbour (no
        # merge), as at A^2 = 20; and a weightless center
        a = math.sqrt(20.0)
        u = np.array([1.0, 2.57, 2.68011, a])
        w = np.array([0.4, 0.3, 0.0, 0.3])
        if center:
            u, w = np.concatenate([[0.0], u]), np.concatenate([[0.0], w])
        u2, w2 = _merge_groups(u, w, a)
        np.testing.assert_array_equal(u2, [1.0, 2.57, a])
        np.testing.assert_array_equal(w2, [0.4, 0.3, 0.3])

    def test_certified_law_left_alone(self, fig1_params):
        p = fig1_params(2.0)
        rep = secret_key_capacity(p)
        points, probs = rep.distribution.as_arrays()
        assert len(points) == 3
        u, w = points[1:], np.array([probs[1], 2.0 * probs[2]])
        assert u[0] == 0.0
        u2, w2 = _merge_groups(u, w, p.amplitude)
        np.testing.assert_array_equal(u2, u)
        np.testing.assert_array_equal(w2, w)


class TestGrow:
    """One growth step: a point of weight 1e-3 where s is largest on
    x >= 0, the other weights scaled by 1 - 1e-3."""

    SECRET_KEY = TestMergeGroups.SECRET_KEY

    @staticmethod
    def _check(u, w, grid, s_grid, a):
        """Grow and check the law against the profile; returns whether the
        new point is the center, and the new group's location."""
        u, w = np.asarray(u, float), np.asarray(w, float)
        u2, w2 = _grow(u, w, grid, s_grid, a)
        half = grid >= 0.0
        x = grid[half][np.argmax(s_grid[half])]
        added_center = u[0] > 0.0 and u2[0] == 0.0
        if added_center:
            assert x < solver._merge_gap(a)
        (i,) = np.flatnonzero(~np.isin(u2, u))
        assert u2[i] == (0.0 if added_center else max(x, 1e-9 * a))
        np.testing.assert_array_equal(np.delete(u2, i), u)
        assert w2[i] == solver._GROWTH_WEIGHT == 1e-3
        np.testing.assert_array_equal(np.delete(w2, i), w * (1.0 - 1e-3))
        # strictly ascending: one center at most
        assert np.all(np.diff(u2) > 0.0)
        points, probs = _expand(u2, w2)
        assert np.array_equal(points, -points[::-1])
        assert np.array_equal(probs, probs[::-1])
        assert float(probs.sum()) == pytest.approx(1.0, rel=0.0, abs=1e-15)
        assert len(points) == len(_expand(u, w)[0]) + (
            1 if added_center else 2)
        return added_center, u2[i]

    @pytest.mark.parametrize("centered,peak,gaps,center", [
        (False, 2.0, 0.0, False),   # a pair between the two
        (False, 10.0, 0.0, False),  # a pair at +-A, past the last
        (False, 0.0, 0.0, True),
        (False, 0.0, 0.5, True),    # half a merge gap from 0
        (False, 0.0, 2.0, False),   # two merge gaps from 0
        (True, 0.0, 0.0, False),    # the law has a center already
        (True, 2.0, 0.0, False),
    ])
    def test_even_profiles(self, centered, peak, gaps, center):
        # s = -| |x| - peak |, peak + gaps merge gaps: the x >= 0 argmax is
        # the grid point nearest it (the grid spacing is 0.45 merge gaps)
        a = math.sqrt(20.0)
        peak += gaps * solver._merge_gap(a)
        half = np.linspace(0.0, a, 1001)
        grid = np.concatenate([-half[:0:-1], half])
        s_grid = -np.abs(np.abs(grid) - peak)
        u, w = ([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]) if centered else (
            [1.0, 3.0], [0.6, 0.4])
        added_center, x = self._check(u, w, grid, s_grid, a)
        assert added_center == center
        if centered and peak == 0.0:
            # a pair, not a second center: at the pair floor 1e-9 A
            assert x == 1e-9 * a

    @pytest.mark.parametrize("a2,center", [(2.0, True), (20.0, False)])
    def test_polished_laws(self, a2, center):
        # the polished 2-point law and its KKT profile: at A^2 = 2 s peaks
        # at 0, at A^2 = 20 away from it
        a = math.sqrt(a2)
        channels = _channel_stack(a, self.SECRET_KEY)
        u, w, _, evaluation = _polish(np.array([a]), np.array([1.0]), a,
                                      channels)
        grid, s_grid, violation = solver._kkt_profile(
            u, w, channels, a, _cells(a, self.SECRET_KEY), *evaluation)
        assert violation > 1e-6
        assert self._check(u, w, grid, s_grid, a)[0] == center


class TestExpand:
    @pytest.mark.parametrize("u,w,points,probs", [
        ([1.0, 2.0], [0.4, 0.6], [-2.0, -1.0, 1.0, 2.0], [0.3, 0.2, 0.2, 0.3]),
        ([0.0, 2.0], [0.4, 0.6], [-2.0, 0.0, 2.0], [0.3, 0.4, 0.3]),
    ], ids=["pairs", "center"])
    def test_groups(self, u, w, points, probs):
        # a group at u = 0 is one point with the group's full weight
        got_points, got_probs = _expand(np.array(u), np.array(w))
        np.testing.assert_array_equal(got_points, points)
        np.testing.assert_array_equal(got_probs, probs)
        # and _fold takes the even law back to its groups
        for got, want in zip(_fold(got_points, got_probs), (u, w)):
            np.testing.assert_array_equal(got, want)


class TestPolish:
    def test_joint_ascent_starts_from_the_weight_ascent(self):
        # the weight ascent's last evaluation, handed on as start, is the
        # one the joint ascent would compute; each ascent returns its last
        a = math.sqrt(2.0)
        channels = _channel_stack(a, TestMergeGroups.SECRET_KEY)
        u, w, _, last = _ascend(np.array([0.0, 0.9 * a]),
                                np.array([0.4, 0.6]), a, channels, False)
        got = _ascend(u, w, a, channels, True, last)
        want = _ascend(u, w, a, channels, True)
        assert got[2] == want[2] > 0
        for x, y in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(x, y)
        for (u_s, w_s), found in [((u, w), last), (got[:2], got[3]),
                                  (want[:2], want[3])]:
            _assert_identical(found, _derivatives(u_s, w_s, channels))

    @pytest.mark.parametrize("a2,secret_key,merges", [
        (2.0, True, False), (0.5, False, False), (20.0, True, True)])
    def test_evaluation_is_the_rate_of_the_state(
            self, fig1_params, monkeypatch, a2, secret_key, merges):
        # the (R(F), log f) each polish of a solve hands the certificate is
        # _rate at the polished state, bit for bit: the joint ascent's own
        # where the merge leaves the law alone, and where it moves a group
        # (at A^2 = 20 the innermost pair merges into the center)
        polished, moved = [], []
        polish, merge = solver._polish, solver._merge_groups

        def merging(u, w, amplitude):
            found = merge(u, w, amplitude)
            moved.append(not np.array_equal(found[0], u))
            return found

        def polishing(u, w, amplitude, channels):
            found = polish(u, w, amplitude, channels)
            polished.append((found, channels))
            return found

        monkeypatch.setattr(solver, "_merge_groups", merging)
        monkeypatch.setattr(solver, "_polish", polishing)
        p = fig1_params(a2)
        if secret_key:
            secret_key_capacity(p)
        else:
            plain_capacity(p.amplitude, math.sqrt(p.var_eq))
        assert polished and len(moved) == len(polished)
        assert any(moved) == merges
        for (u, w, _, evaluation), channels in polished:
            _assert_identical(evaluation, _rate(u, w, channels))

    @pytest.mark.parametrize("shift", [1.0, 0.9])
    def test_center_held_at_zero(self, fig1_params, shift):
        # the polished 3-point law at A^2 = 2, its pair as certified and
        # moved in by 10%: the polish moves the pair back, never the center,
        # and returns the certified weights
        p = fig1_params(2.0)
        points, probs = secret_key_capacity(p).distribution.as_arrays()
        assert len(points) == 3
        u = np.array([0.0, shift * points[2]])
        w = np.array([probs[1], 2.0 * probs[2]])
        u2, w2, _, _ = _polish(
            u, w, p.amplitude,
            _channel_stack(p.amplitude, TestMergeGroups.SECRET_KEY))
        assert u2[0] == 0.0 and u2[1] > 0.0
        assert u2[1] == pytest.approx(points[2], rel=0.0, abs=1e-6)
        np.testing.assert_allclose(w2, w, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("a2,secret_key,max_k", [
        (20.0, True, 64), (100.0, True, 64), (1000.0, True, 128),
        (500.0, False, 64)])
    def test_merged_weights_need_no_ascent(self, fig1_params, monkeypatch,
                                           a2, secret_key, max_k):
        # a weight ascent on each polished (merged) law takes no step: the
        # merge leaves the weights optimal, so the polish ends with it
        steps = []
        polish = solver._polish

        def checked(u, w, amplitude, channels):
            found = polish(u, w, amplitude, channels)
            steps.append(_ascend(*found[:2], amplitude, channels, False)[2])
            return found

        monkeypatch.setattr(solver, "_polish", checked)
        p, cfg = fig1_params(a2), SolverConfig(max_K=max_k)
        if secret_key:
            secret_key_capacity(p, cfg)
        else:
            plain_capacity(p.amplitude, math.sqrt(2.0 / 3.0), cfg)
        assert steps and steps == [0] * len(steps)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _quadpack_marginal_density(x, points, probs, channels):
    """Oracle for s(x; F): each channel's D(N(x, sigma^2) || f) by QUADPACK
    on (sigma, sign) pairs, with the mixture log-density summed in plain
    Python (independent of the solver's Gauss-Legendre nodes and of its
    folded kernel)."""
    total = 0.0
    for sigma, sign in channels:
        log_norm = _LOG_SQRT_2PI + math.log(sigma)

        def integrand(t, sigma=sigma, log_norm=log_norm):
            terms = [math.log(p) - 0.5 * ((t - xi) / sigma) ** 2
                     for xi, p in zip(points, probs)]
            m = max(terms)
            log_f = m + math.log(math.fsum(math.exp(a - m) for a in terms))
            log_phi = -0.5 * ((t - x) / sigma) ** 2
            # log(phi / f), the normalizations cancel
            return math.exp(log_phi - log_norm) * (log_phi - log_f)

        # beyond 12 sigma the Gaussian weight is below 1e-31
        total += sign * _quad(integrand, x - 12.0 * sigma, x + 12.0 * sigma,
                              (x, *points))[0]
    return total


class TestMarginalDensityAgainstQuadpack:
    """s(x; F) of the solver against an adaptive-quadrature oracle."""

    @pytest.mark.parametrize("channels", [
        ((1.0, 1.0),),
        ((math.sqrt(2.0 / 3.0), 1.0), (math.sqrt(2.0), -1.0)),
    ], ids=["plain", "secret_key"])
    @pytest.mark.parametrize("k,a2", [
        (2, 0.5), (3, 0.5), (8, 0.5), (17, 0.5), (2, 2.0),
        (2, 10.0), (3, 10.0), (8, 10.0), (17, 10.0),
    ])
    def test_maxentropic_laws(self, k, a2, channels):
        # var_d = 1, var_e = 2; K >= 8 reaches the mixture sums of more
        # than 8 terms, whose order of addition the kernel may change; at
        # A^2 = 10, K <= 3 puts the mass points 3 sigma or more apart, where
        # log f bends between them
        a = math.sqrt(a2)
        points, probs = maxentropic_scheme(a, k).as_arrays()
        xs = np.unique(np.concatenate([[-a, 0.0, a], points]))
        got = _profile(xs, points, probs, _channel_stack(a, channels))[0]
        want = [_quadpack_marginal_density(float(x), points, probs, channels)
                for x in xs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)


class TestBlockedExpectation:
    """s(x; F), whose kernel product takes x in cache-sized blocks, against
    x in one block."""

    @pytest.mark.parametrize("zero_weight", [False, True])
    @pytest.mark.parametrize("k", [2, 7, 32])
    def test_equals_one_block(self, k, zero_weight, monkeypatch):
        # k random groups: pairs at uneven locations, uneven weights
        rng = np.random.default_rng(k)
        u = np.sort(rng.uniform(0.0, 3.0, k))
        w = rng.dirichlet(np.ones(k))
        if zero_weight:
            w[1] = 0.0
            w /= w.sum()
        (channel,) = channels = _channel_stack(3.0, ((0.8, 1.0),))
        rows = solver._KERNEL_BLOCK_TERMS // len(channel[2])
        assert rows > 1
        log_fs = _rate(u, w, channels)[1]
        for n in (1, rows - 1, rows, rows + 1, 2001):
            x = rng.uniform(-4.0, 4.0, n)
            got = _marginal_density(x, channels, log_fs)
            with monkeypatch.context() as m:
                m.setattr(solver, "_KERNEL_BLOCK_TERMS", 2001 * len(channel[2]))
                want = _marginal_density(x, channels, log_fs)
            assert np.isfinite(got).all()
            assert np.array_equal(got, want), n


class TestGroupKernels:
    """The folded kernel at negative locations, as `_marginal_density`
    takes x: phi, phi'' and log phi even in x, phi' odd, and all finite
    where exp(2 y |x| / sigma^2) overflows."""

    def test_negative_x_far_out(self):
        a = 40.0
        channels = _channel_stack(a, ((1.0, 1.0), (1.5, -1.0)))
        x = np.array([5.0, 20.0, a])
        assert 2.0 * channels[0][2].max() * a > 710.0
        with np.errstate(over="raise", invalid="raise"):
            for got, want in zip(_group_kernels(-x, channels),
                                 _group_kernels(x, channels)):
                for g, v, parity in zip(got, want, (1.0, -1.0, 1.0, 1.0)):
                    assert np.isfinite(g).all()
                    np.testing.assert_array_equal(g, parity * v)
            log_fs = _rate(*_fold(*maxentropic_scheme(a, 9).as_arrays()),
                           channels)[1]
            got = _marginal_density(-x, channels, log_fs)
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(
            got, _marginal_density(x, channels, log_fs) * [[1.0], [-1.0],
                                                           [1.0]])


def _equispaced_law(k, a):
    """The equally spaced, equiprobable K-point law, exactly
    mirror-symmetric (a center at exactly 0)."""
    points = np.linspace(-a, a, k)
    return (points - points[::-1]) / 2.0, np.full(k, 1.0 / k)


_STACKS = pytest.mark.parametrize("channels", [
    ((math.sqrt(2.0 / 3.0), 1.0),),
    ((math.sqrt(2.0 / 3.0), 1.0), (math.sqrt(2.0), -1.0)),
], ids=["plain", "secret_key"])


class TestChannelStack:
    """The solver's sums on the stack's t >= 0 lattice, with doubled weights,
    against the same routines on the whole window [-A - 10 sigma,
    A + 10 sigma]: each law is even and each group kernel folded, so the
    two agree up to rounding, on half the nodes."""

    @pytest.mark.parametrize("channels", [
        ((1.0, 1.0),), ((1.0, 1.0), (math.sqrt(3.0), -1.0)),
    ], ids=["plain", "secret_key"])
    @pytest.mark.parametrize("a,widths", [(1.0, 22), (1.5, 23)])
    @pytest.mark.parametrize("law", ["K2", "K3", "K4", "random"])
    def test_half_line_equals_whole_window(self, channels, a, widths, law):
        if law == "random":
            # a mirror-symmetric state with a center and two pairs
            rng = np.random.default_rng(7)
            u = np.concatenate([[0.0], np.sort(rng.uniform(0.1, a, 2))])
            w = rng.dirichlet(np.full(3, 2.0))
        else:
            points, probs = _equispaced_law(int(law[1:]), a)
            u = points[points >= 0.0]
            w = np.where(u > 0.0, 2.0, 1.0) * probs[points >= 0.0]
        points, probs = _expand(u, w)
        stack = _channel_stack(a, channels)
        whole = tuple((sigma, sign, *_whole_window(
            -a - 10.0 * sigma, a + 10.0 * sigma, sigma))
            for sigma, sign in channels)
        # an even count of unit noise widths at A = 1, an odd one at 1.5:
        # 16 nodes per width and t = 0, of which the stack keeps t >= 0
        assert len(whole[0][2]) == widths * LATTICE_PER_SIGMA + 1
        for (*_, nodes, _), (*_, full, _) in zip(stack, whole):
            assert len(nodes) == len(full) // 2 + 1
        assert _rate(u, w, stack)[0] == pytest.approx(
            _rate(u, w, whole)[0], rel=0.0, abs=1e-13)
        # R, gradient and Hessian; log f lives on each stack's own nodes
        for got, want in zip(_derivatives(u, w, stack)[:3],
                             _derivatives(u, w, whole)[:3]):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        x = np.linspace(-a, a, 15)
        np.testing.assert_allclose(_profile(x, points, probs, stack),
                                   _profile(x, points, probs, whole),
                                   rtol=0.0, atol=1e-13)


class TestMarginalDensityDerivatives:
    """s' and s'' from the kernel's own derivatives against central
    differences of s."""

    @_STACKS
    @pytest.mark.parametrize("k,a2", [(2, 0.5), (3, 2.0), (7, 20.0)])
    def test_central_differences(self, channels, k, a2):
        a = math.sqrt(a2)
        channels = _channel_stack(a, channels)
        points, probs = _equispaced_law(k, a)
        x, h = np.linspace(-a, a, 15), 1e-4
        s, ds, d2s = _profile(x, points, probs, channels)
        s_up, s_down = (_profile(x + sh, points, probs, channels)[0]
                        for sh in (h, -h))
        np.testing.assert_allclose(ds, (s_up - s_down) / (2.0 * h),
                                   rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(d2s, (s_up - 2.0 * s + s_down) / (h * h),
                                   rtol=0.0, atol=1e-6)


def _whole_window(lo, hi, sigma):
    """Nodes and weights of the entropy rule on all of [lo, hi], unfolded."""
    return _lattice(lo, hi, sigma, False)[:2]


def _direct_s(x, points, probs, channels):
    """s(x; F) alone, summed with the plain kernel phi_sigma(y_j - x) on the
    entropy rule's whole window [min x_i - 10 sigma, max x_i + 10 sigma],
    log f from scipy's logsumexp over the law's points there, in blocks of
    256 points: a second implementation of the profile's value (neither the
    stack's half-line lattice nor its folded kernel), and a cheaper one on
    dense lattices."""
    s = np.zeros(len(x))
    for sigma, sign, *_ in channels:
        nodes, weights = _whole_window(points.min() - 10.0 * sigma,
                                       points.max() + 10.0 * sigma, sigma)
        log_f = logsumexp(np.log(probs) - 0.5 * (
            (nodes[:, None] - points) / sigma)**2, axis=1) - math.log(
                sigma * math.sqrt(2.0 * math.pi))
        h_noise = 0.5 * math.log(2.0 * math.pi * math.e * sigma * sigma)
        w_log_f = weights * log_f / (sigma * math.sqrt(2.0 * math.pi))
        for i in range(0, len(x), 256):
            z = (nodes - x[i:i + 256, None]) / sigma
            s[i:i + 256] -= sign * (h_noise + np.exp(-0.5 * z * z) @ w_log_f)
    return s


def _violation_on(x, points, probs, channels):
    """max(max s - R over x, max |s - R| over the mass points): the KKT
    violation of the law on the points x."""
    s_grid = _direct_s(x, points, probs, channels)
    s_pts = _direct_s(points, points, probs, channels)
    rate = _rate(*_fold(points, probs), channels)[0]
    return max(float(np.max(s_grid) - rate),
               float(np.max(np.abs(s_pts - rate))))


def _dense_violation(points, probs, channels, a):
    """The violation on the 200 001-point lattice of [-A, A], spaced
    A / 100000: on its x >= 0 half, since s is even."""
    return _violation_on(np.linspace(0.0, a, 100_001), points, probs,
                         channels)


class TestKKTProfile:
    """The certificate's profile: a lattice of [0, A] spaced at most
    sigma_min / 4, the mass points and the refined maxima, mirrored."""

    @_STACKS
    def test_grid_is_mirrored(self, channels):
        a = math.sqrt(2.0)
        # +-0.7123 lie off the lattice, 0 on it
        points = np.array([-0.7123, 0.0, 0.7123])
        probs = np.array([0.3, 0.4, 0.3])
        grid, s_grid, _ = _certificate(
            *_fold(points, probs), _channel_stack(a, channels), a,
            _cells(a, channels))
        assert np.array_equal(grid, -grid[::-1])
        assert np.array_equal(s_grid, s_grid[::-1])
        assert (grid[0], grid[-1]) == (-a, a)
        assert np.isin(points, grid).all()
        sigma_min = min(sigma for sigma, _ in channels)
        assert 0.0 < np.diff(grid).max() <= sigma_min / 4.0

    @_STACKS
    @pytest.mark.parametrize("k,a2", [(2, 0.5), (3, 2.0), (7, 20.0),
                                      (17, 100.0)])
    def test_matches_full_grid(self, k, a2, channels):
        # equispaced laws: the certificate is at least the violation on
        # the 2001-point lattice of [-A, A] (the profile before the fold)
        # and on the 200 001-point one, up to rounding
        a = math.sqrt(a2)
        channels = _channel_stack(a, channels)
        points, probs = _equispaced_law(k, a)
        s_pts = _profile(points, points, probs, channels)[0]
        rate = _rate(*_fold(points, probs), channels)[0]
        # on shared nodes the profile's own sum is R(F) up to rounding
        assert float(probs @ s_pts) == pytest.approx(rate, rel=0.0, abs=1e-14)
        _, _, got = _certificate(*_fold(points, probs), channels, a,
                                 _cells(a, channels))
        coarse = _violation_on(np.linspace(-a, a, solver._KKT_GRID_SIZE),
                               points, probs, channels)
        assert got >= coarse - 1e-14
        assert got >= _dense_violation(points, probs, channels, a) - 1e-13

    @pytest.mark.parametrize("channels", [
        ((1.0, 1.0),), ((1.0, 1.0), (math.sqrt(3.0), -1.0)),
    ], ids=["plain", "secret_key"])
    @pytest.mark.parametrize("a2", [0.5, 2.0, 20.0, 100.0])
    def test_certified_laws_above_dense_lattice(self, a2, channels):
        # the solver's certified laws, whose s peaks between mass points
        # just under R: the refined maxima are not below the dense lattice.
        # A^2 at var_d 1, var_e 2 is 1.5 A^2 at var_d 1.5, var_e 3, where
        # sigma_min = sqrt(var_eq) = 1: the solve's noise units are the
        # caller's, so the report's violation is this profile's exactly
        a = math.sqrt(1.5 * a2)
        if len(channels) == 1:
            rep = plain_capacity(a, 1.0)
        else:
            params = ChannelParams(a, 1.5, 3.0)
            assert params.stack == channels
            rep = secret_key_capacity(params)
        stack = _channel_stack(a, channels)
        points, probs = rep.distribution.as_arrays()
        _, _, got = _certificate(*_fold(points, probs), stack, a,
                                 math.ceil(4.0 * a))
        assert got == rep.kkt_max_violation <= 1e-6
        assert got >= _dense_violation(points, probs, stack, a) - 1e-13


def _central_differences(f, x, idx, h, cols=None):
    """Gradient of f over the coordinates idx of x, and its Hessian's rows
    idx and columns cols (idx by default), from central differences of step
    h (the Hessian from second differences of f)."""
    e = np.eye(len(x))[idx] * h
    c = e if cols is None else np.eye(len(x))[cols] * h
    grad = np.array([(f(x + ei) - f(x - ei)) / (2.0 * h) for ei in e])
    hess = np.array([[(f(x + ei + ek) - f(x + ei - ek) - f(x - ei + ek)
                       + f(x - ei - ek)) / (4.0 * h * h) for ek in c]
                     for ei in e])
    return grad, hess


# (pairs, center, one group weightless): K = 2, 3, 6 and 7
_GROUPS = pytest.mark.parametrize("m,center,zero", [
    (1, False, False), (1, True, False), (3, False, False), (3, True, False),
    (3, True, True), (3, False, True),
], ids=["K2", "K3", "K6", "K7", "K7-zero", "K6-zero"])


class TestSecondOrderSteps:
    """R's exact joint (w, u) derivatives against central differences of
    _rate (the weights-only ascent's step count is checked in
    TestWeightOptimizer::test_reaches_tolerance)."""

    A = math.sqrt(5.0)

    def _state(self, m, center, zero):
        rng = np.random.default_rng(10 * m + center)
        u = np.sort(rng.uniform(0.15, 1.0, m)) * self.A
        u = np.concatenate([[0.0], u]) if center else u
        w = rng.dirichlet(np.full(len(u), 4.0))
        if zero:
            w[-2] = 0.0  # the second of three pairs
            w /= w.sum()
        return u, w

    def _derivatives(self, channels, m, center, zero):
        """The state, _derivatives' value, gradient and Hessian there, _rate
        as a function of x = (w, u), and the coordinates central
        differences may move: a weight below 0 drops out of _rate, and
        moving the center would split it, so the positive weights and the
        pair locations."""
        channels = _channel_stack(self.A, channels)
        u, w = self._state(m, center, zero)
        n = len(u)
        val, g, hess, _ = _derivatives(u, w, channels)
        assert g.shape == (2 * n,) and hess.shape == (2 * n, 2 * n)

        def rate(x):
            return _rate(x[n:], x[:n], channels)[0]

        x = np.concatenate([w, u])
        assert val == rate(x)
        return (x, n, val, g, hess, rate, np.flatnonzero(w > 0.0),
                n + np.flatnonzero(u > 0.0))

    @_STACKS
    @_GROUPS
    def test_weight_derivatives(self, channels, m, center, zero):
        x, n, val, g, hess, rate, iw, _ = self._derivatives(
            channels, m, center, zero)
        want_g = _central_differences(rate, x, iw, 1e-5)[0]
        np.testing.assert_allclose(g[iw], want_g, rtol=0.0, atol=1e-9)
        want_h = _central_differences(rate, x, iw, 1e-4)[1]
        np.testing.assert_allclose(hess[np.ix_(iw, iw)], want_h,
                                   rtol=0.0, atol=1e-6)
        for i in np.flatnonzero(x[:n] == 0.0):
            # one-sided, second order: (-3 R(w) + 4 R(w + h) - R(w + 2h))/2h
            e = np.eye(2 * n)[i] * 1e-5
            want = (-3.0 * val + 4.0 * rate(x + e) - rate(x + 2.0 * e)) / 2e-5
            assert g[i] == pytest.approx(want, rel=0.0, abs=1e-9)

    @_STACKS
    @_GROUPS
    def test_location_derivatives(self, channels, m, center, zero):
        x, n, _, g, hess, rate, _, iu = self._derivatives(
            channels, m, center, zero)
        want_g = _central_differences(rate, x, iu, 1e-5)[0]
        np.testing.assert_allclose(g[iu], want_g, rtol=0.0, atol=1e-9)
        want_h = _central_differences(rate, x, iu, 1e-4)[1]
        np.testing.assert_allclose(hess[np.ix_(iu, iu)], want_h,
                                   rtol=0.0, atol=1e-6)
        if center:
            # the center's gradient is 0 and it couples to nothing else
            assert g[n] == 0.0 and not np.delete(hess[n], n).any()
            assert not np.delete(hess[:, n], n).any()
        if zero:
            # R does not depend on a weightless pair's location; that
            # location couples only to the pair's own weight
            i = 2 * n - 2
            assert g[i] == 0.0 and not np.delete(hess[i], [i - n]).any()
            assert not np.delete(hess[:, i], [i - n]).any()

    @_STACKS
    @_GROUPS
    def test_joint_derivatives(self, channels, m, center, zero):
        # the (w, u) cross block; the diagonal blocks are checked above
        x, n, _, _, hess, rate, iw, iu = self._derivatives(
            channels, m, center, zero)
        want_h = _central_differences(rate, x, iw, 1e-4, iu)[1]
        np.testing.assert_allclose(hess[np.ix_(iw, iu)], want_h,
                                   rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(hess[np.ix_(iu, iw)], want_h.T,
                                   rtol=0.0, atol=1e-6)
        if zero:
            # a weightless pair's one nonzero Hessian entry: the one-sided
            # weight derivative's central difference in the location
            i = 2 * n - 2
            e_w, e_u = np.eye(2 * n)[i - n] * 1e-5, np.eye(2 * n)[i] * 1e-4

            def weight_slope(y):
                return (-3.0 * rate(y) + 4.0 * rate(y + e_w)
                        - rate(y + 2.0 * e_w)) / 2e-5

            want = (weight_slope(x + e_u) - weight_slope(x - e_u)) / 2e-4
            assert hess[i, i - n] != 0.0
            assert hess[i, i - n] == pytest.approx(want, rel=0.0, abs=1e-6)


class TestPlainCapacity:
    def test_small_amplitude_two_point(self):
        # below the first escalation threshold the optimum is +-A with
        # equal weights, so the rate has the closed form A^2 - I(A)
        rep = plain_capacity(0.5, 1.0)
        assert rep.kkt_max_violation <= 1e-6
        assert rep.num_points_K == 2
        np.testing.assert_allclose(rep.distribution.points, [-0.5, 0.5],
                                   atol=1e-8)
        np.testing.assert_allclose(rep.distribution.probs, [0.5, 0.5],
                                   atol=1e-8)
        expected = 0.25 - mixed_gaussian_entropy_integral(0.5)
        assert rep.rate_nats == pytest.approx(expected, abs=1e-6)

    def test_below_awgn_capacity(self):
        rep = plain_capacity(1.5, 1.0)
        assert 0.0 < rep.rate_nats < 0.5 * math.log(1.0 + 1.5**2)

    @pytest.mark.parametrize("amplitude,sigma", [
        (1.0, math.nan), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
    ])
    def test_rejects_non_finite_parameters(self, amplitude, sigma):
        with pytest.raises(ValueError, match="positive and finite"):
            plain_capacity(amplitude, sigma)

    def test_kkt_certificate(self):
        rep = plain_capacity(1.0, 1.0)
        assert rep.kkt_max_violation <= 1e-6
        s_grid = _certificate(
            *_fold(*rep.distribution.as_arrays()),
            _channel_stack(1.0, ((1.0, 1.0),)), 1.0, 4)[1]
        s_max = float(np.max(s_grid))
        assert s_max <= rep.rate_nats + 2e-6


class TestSecretKeyCapacity:
    def test_small_amplitude_matches_two_point_scheme(self, fig1_params,
                                                      fast_cfg):
        p = fig1_params(0.5)
        rep = secret_key_capacity(p, fast_cfg)
        assert rep.kkt_max_violation <= 1e-6 and rep.num_points_K == 2
        direct = secret_key_rate(p, maxentropic_scheme(p.amplitude, 2)).nats
        assert rep.rate_nats == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("a2", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("var_d,var_e", [(1.0, 2.0), (1.0, 10.0),
                                             (2.0, 1.0)])
    def test_vanishing_amplitude_rate(self, a2, var_d, var_e):
        # the A -> 0 theorem on C_k itself, with its rate: both laws are
        # +-A, and I(rho) = rho/2 - rho^2/4 + O(rho^3) nats at rho =
        # A^2/sigma^2 with 1/var_eq = 1/var_d + 1/var_e give C_k /
        # C_plain(A; var_d) = 1 - A^2/var_e + O(A^4). Below A^2 ~ 1e-8 the
        # ratio is rounding noise, so the grid stops at 1e-6
        a = math.sqrt(a2)
        ck = secret_key_capacity(ChannelParams(a, var_d, var_e)).rate_nats
        plain = plain_capacity(a, math.sqrt(var_d)).rate_nats
        assert abs(ck / plain - (1.0 - a2 / var_e)) <= 2.0 * a2**2 + 5e-8

    def test_symmetric_solution(self, fig1_params, fast_cfg):
        rep = secret_key_capacity(fig1_params(2.0), fast_cfg)
        pts = np.asarray(rep.distribution.points)
        pr = np.asarray(rep.distribution.probs)
        np.testing.assert_allclose(pts, -pts[::-1], atol=1e-7)
        np.testing.assert_allclose(pr, pr[::-1], atol=1e-7)

    def test_rate_monotone_in_amplitude(self, fig1_params, fast_cfg):
        r_lo = secret_key_capacity(fig1_params(0.5), fast_cfg).rate_nats
        r_hi = secret_key_capacity(fig1_params(1.0), fast_cfg).rate_nats
        assert r_hi > r_lo

    def test_escalation_sound(self, fig1_params, monkeypatch):
        # one more mass point never lowers the optimized rate: each law is
        # grown from the last and polished from there, so along the trace
        # (four steps at A^2 = 20 from the 2-point start law +-A) no step's
        # rate falls below the one before it
        monkeypatch.setattr(solver, "maxentropic_scheme",
                            lambda a, k: maxentropic_scheme(a, 2))
        p = fig1_params(20.0)
        for rep in (secret_key_capacity(p),
                    plain_capacity(p.amplitude, math.sqrt(p.var_eq))):
            rates = [step.rate_nats for step in rep.trace]
            assert rep.trace[0].K_tried == 2 and len(rates) >= 4
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_trace_has_one_step_per_kkt_profile(self, fig1_params,
                                                monkeypatch):
        profiles = []
        kkt_profile = solver._kkt_profile

        def counting(*args):
            profiles.append(args)
            return kkt_profile(*args)

        monkeypatch.setattr(solver, "_kkt_profile", counting)
        rep = secret_key_capacity(fig1_params(50.0))
        assert len(rep.trace) == len(profiles)
        # the equispaced start law of ceil(1.3 A / sigma_eq) = 12 points
        # polishes to 10 and fails; one growth step certifies 11
        assert [step.K_tried for step in rep.trace] == [12, 11]
        # the certified step is the report's, every earlier one failed
        last = rep.trace[-1]
        assert last.K == rep.num_points_K == 11
        assert last.kkt_violation == rep.kkt_max_violation <= 1e-6
        assert all(step.kkt_violation > 1e-6 for step in rep.trace[:-1])

    def test_no_convergence_when_budget_too_small(self, fig1_params):
        cfg = SolverConfig(max_K=2)
        with pytest.raises(NoConvergence):
            secret_key_capacity(fig1_params(2.0), cfg)

    def test_budget_bounds_points_and_profiles(self, fig1_params):
        # A^2 = 20 needs 7 points: with max_K = 5 no law of more than 5
        # points is polished and at most 4 KKT profiles are paid for
        with pytest.raises(NoConvergence) as info:
            secret_key_capacity(fig1_params(20.0), SolverConfig(max_K=5))
        trace = info.value.trace
        assert 0 < len(trace) <= 4
        assert all(step.K_tried <= 5 for step in trace)

    def test_budget_ends_growth_that_merges_back(self, fig1_params,
                                                 monkeypatch):
        # a grown point that always merges back leaves the point count
        # where it was; the loop still ends after max_K - 1 KKT profiles
        monkeypatch.setattr(solver, "_grow", lambda u, w, *_: (u, w))
        with pytest.raises(NoConvergence) as info:
            secret_key_capacity(fig1_params(20.0), SolverConfig(max_K=5))
        # max_K = 5 also sizes the start law: 5 points, not
        # ceil(1.3 A / sigma_eq) = 8
        assert [step.K_tried for step in info.value.trace] == [5, 5, 5, 5]

    @pytest.mark.parametrize("a2,floor", [
        (20.0, 0.449046613531), (50.0, 0.492032844077),
        (100.0, 0.514025244828),
    ])
    def test_certifies_within_two_profiles(self, fig1_params, a2, floor):
        # the joint (w, u) polish from the equispaced start law certifies
        # each row within two KKT profiles, no loop at its step cap, and at
        # a C_k no lower than an alternating weight/location polish grown
        # from +-A reached in 7, 7 and 21 profiles
        rep = secret_key_capacity(fig1_params(a2))
        assert len(rep.trace) <= 2
        assert not any(step.capped for step in rep.trace)
        assert rep.kkt_max_violation <= 1e-6
        assert rep.rate_nats >= floor

    @pytest.mark.parametrize("a2,scale", [
        (500.0, 0.01), (20.0, 100.0), (20.0, 0.01), (100.0, 0.01)])
    def test_depends_on_amplitude_over_sigma_alone(self, a2, scale):
        # (cA, c^2 var_d, c^2 var_e) has the capacity of (A, var_d, var_e);
        # the solve runs in noise units, so it takes the same path and finds
        # the same K and C_k at either scale (A^2 = 5 at var_d 0.01 is
        # A^2 = 500 at 1), on the secret-key and on the plain channel
        reps = [secret_key_capacity(ChannelParams(
            math.sqrt(a2 * c), c, 2.0 * c)) for c in (1.0, scale)]
        assert reps[0].num_points_K == reps[1].num_points_K
        assert ([s.K_tried for s in reps[0].trace]
                == [s.K_tried for s in reps[1].trace])
        assert reps[1].rate_nats == pytest.approx(reps[0].rate_nats,
                                                  abs=1e-12)
        plain = [plain_capacity(math.sqrt(a2 * c), math.sqrt(c))
                 for c in (1.0, scale)]
        assert plain[0].num_points_K == plain[1].num_points_K
        assert plain[1].rate_nats == pytest.approx(plain[0].rate_nats,
                                                   abs=1e-12)


class TestCapacityWrappers:
    @pytest.mark.parametrize("secret_key,a2,k", [
        (False, 2.0, 3), (True, 2.0, 3), (False, 10.0, 4), (True, 10.0, 5),
    ], ids=["False", "True", "a2_10-False", "a2_10-True"])
    def test_reported_rate_matches_solver_rate(self, fig1_params, secret_key,
                                               a2, k):
        # the entropy-rule rate each wrapper reports is the solver's own
        # rate of the returned law on the wrapper's channel stack: one sum
        # on the same nodes, up to rounding
        p = fig1_params(a2)
        cfg = SolverConfig()
        if secret_key:
            rep = secret_key_capacity(p, cfg)
            channels = ((math.sqrt(p.var_eq), 1.0),
                        (math.sqrt(p.var_e), -1.0))
        else:
            rep = plain_capacity(p.amplitude, math.sqrt(p.var_eq), cfg)
            channels = ((math.sqrt(p.var_eq), 1.0),)
        assert rep.num_points_K == k
        points, probs = rep.distribution.as_arrays()
        assert rep.rate_nats == pytest.approx(
            _rate(*_fold(points, probs),
                  _channel_stack(p.amplitude, channels))[0],
            rel=0.0, abs=1e-14)

    def test_law_holds_python_floats(self, fig1_params):
        # the report's law prints as numbers, not np.float64(...)
        p = fig1_params(2.0)
        for rep in (secret_key_capacity(p),
                    plain_capacity(p.amplitude, math.sqrt(p.var_eq))):
            law = rep.distribution
            assert all(type(x) is float for x in law.points + law.probs)
            assert "np." not in repr(law)


class TestSolverConfigContract:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(max_K=0)
        with pytest.raises(ValueError):
            SolverConfig(max_K=1)  # escalation starts at K=2

    @pytest.mark.parametrize("max_k", [math.nan, math.inf, 2.5, 4.0, "8",
                                       None])
    def test_rejects_non_integers(self, max_k):
        # max_K sizes the start law: an integer of at least 2 or nothing
        with pytest.raises(ValueError, match="integer >= 2"):
            SolverConfig(max_K=max_k)

    def test_accepts_numpy_integers(self):
        assert SolverConfig(max_K=np.int64(5)).max_K == 5
