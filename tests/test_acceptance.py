"""End-to-end acceptance checks.

Each test prints a single ``[criterion NN] PASS|FAIL`` line (run with
``pytest -s`` to see them interleaved) and then asserts, so a red test
still reports which sub-checks missed and by how much.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from keycap import (
    ChannelParams,
    DiscreteDistribution,
    SolverConfig,
    density_trunc_gauss_conv,
    density_uniform_conv,
    differential_entropy,
    maxentropic_scheme,
    mutual_information,
    plain_capacity,
    secret_key_capacity,
    secret_key_rate,
)
from keycap.bounds import (
    lower_bound_1,
    lower_bound_3,
    maximize_lower_bound_2,
    upper_bound,
)
from keycap.cli import main as cli_main
from keycap.numerics import scheme_output_density
from keycap.schemes import (
    best_maxentropic,
    optimize_truncated_gaussian,
    truncated_gaussian_rate,
    uniform_scheme_rate,
)
from support import (
    member,
    mixed_gaussian_entropy_integral,
    monte_carlo_mi_oracle,
    normalization_error,
)

H_GAUSS = 0.5 * math.log(2.0 * math.pi * math.e)
HALF_LN3 = 0.5 * math.log(3.0)


def _report(num, label, checks):
    ok = all(c[0] for c in checks)
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {label}")
    failures = [msg for passed, msg in checks if not passed]
    for msg in failures:
        print(f"    failed: {msg}")
    assert ok, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_equivalent_channel():
    rng = np.random.default_rng(1234)
    checks = []
    for _ in range(100):
        vd, ve = rng.uniform(0.05, 25.0, size=2)
        p = ChannelParams(1.0, vd, ve)
        expected = 1.0 / (1.0 / vd + 1.0 / ve)
        checks.append((
            math.isclose(p.var_eq, expected, rel_tol=1e-14),
            f"var_eq formula at ({vd:.4f}, {ve:.4f})"))
        checks.append((p.var_eq < min(vd, ve),
                       f"var_eq < min at ({vd:.4f}, {ve:.4f})"))
    _report(1, "equivalent channel variance", checks)


def test_criterion_02_density_normalization():
    grid = (0.5, 1.0, 2.0)
    checks = []
    for a in grid:
        for s in grid:
            err = normalization_error(density_uniform_conv(a, s))
            checks.append((err < 1e-9, f"uniform-conv norm A={a} sigma={s}"))
            for sx in grid:
                err = normalization_error(density_trunc_gauss_conv(a, sx, s))
                checks.append(
                    (err < 1e-9,
                     f"trunc-gauss-conv norm A={a} sigma_x={sx} sigma={s}"))
    # untruncated limit: the density is the pure Gaussian N(0, s^2 + sx^2)
    p = member(density_trunc_gauss_conv(50.0, 1.0, 1.0))
    t = np.linspace(-3, 3, 7)
    gauss = np.exp(-t * t / 4.0) / math.sqrt(4.0 * math.pi)
    checks.append((bool(np.allclose(p(t), gauss, rtol=1e-10)),
                   "untruncated limit equals pure Gaussian"))
    # wide prior limit: matches the uniform-input density
    pt = member(density_trunc_gauss_conv(1.0, 1e6, 1.0))
    pu = member(density_uniform_conv(1.0, 1.0))
    wide_ok = all(abs(float(pt(x)) - float(pu(x))) < 1e-3
                  for x in (-1.0, 0.0, 0.5, 1.0))
    checks.append((wide_ok, "wide-sigma_x limit matches uniform density"))
    _report(2, "output density normalization and limits", checks)


def test_criterion_03_entropy_cross_check():
    checks = []
    for a in (0.1, 0.5, 1.0, 2.0):
        i_val = mixed_gaussian_entropy_integral(a)
        scheme = maxentropic_scheme(a, 2)
        (h,) = differential_entropy(scheme_output_density([scheme], 1.0))
        gap_h = abs(h.nats - (H_GAUSS + a * a - i_val))
        checks.append((gap_h < 1e-7, f"entropy identity A={a}, gap={gap_h:.2e}"))
        rate = mutual_information(scheme, 1.0).nats
        gap_r = abs(rate - (a * a - i_val))
        checks.append((gap_r < 1e-7, f"two-point rate A={a}, gap={gap_r:.2e}"))
    _report(3, "two-point entropy and rate identities", checks)


def test_criterion_04_small_amplitude_capacity():
    rep = plain_capacity(0.5, 1.0)
    i_val = mixed_gaussian_entropy_integral(0.5)
    checks = [
        (rep.num_points_K == 2, f"K={rep.num_points_K}, expected 2"),
        (bool(np.allclose(rep.distribution.points, [-0.5, 0.5], atol=1e-7)),
         f"points {rep.distribution.points}"),
        (bool(np.allclose(rep.distribution.probs, [0.5, 0.5], atol=1e-7)),
         f"probs {rep.distribution.probs}"),
        (rep.kkt_max_violation < 1e-6,
         f"KKT violation {rep.kkt_max_violation:.2e}"),
        (0.125 - i_val <= rep.rate_nats + 1e-12,
         "lower bracket A^2/2 - I <= C"),
        (rep.rate_nats <= 0.5 * math.log1p(0.25) + 1e-12,
         "upper bracket C <= 0.5 log(1 + A^2)"),
    ]
    _report(4, "small-amplitude plain capacity", checks)


def test_criterion_05_secret_key_solver_sanity():
    checks = []
    for a2 in (0.5, 2.0, 5.0, 10.0):
        p = ChannelParams(math.sqrt(a2), 1.0, 2.0)
        ck = secret_key_capacity(p).rate_nats
        lb = max(maximize_lower_bound_2(p)[1], lower_bound_3(p))
        ub = upper_bound(p)
        checks.append((lb <= ck + 1e-6,
                       f"A^2={a2}: lower chain {lb:.6f} <= C_k {ck:.6f}"))
        checks.append((ck <= ub + 1e-6,
                       f"A^2={a2}: C_k {ck:.6f} <= UB {ub:.6f}"))
        if a2 <= 1.0:
            lb1 = lower_bound_1(p).nats
            checks.append((abs(ck - lb1) < 1e-3,
                           f"A^2={a2}: |C_k - lb1| = {abs(ck - lb1):.2e}"))
    _report(5, "secret-key bound chain", checks)


def test_criterion_06_scheme_ordering():
    checks = []
    var_e = 1.5**2
    for a2 in (0.5, 1.0):
        p = ChannelParams(math.sqrt(a2), 1.0, var_e)
        ck = secret_key_capacity(p).rate_nats
        _, best_me = best_maxentropic(p)
        gap = abs(ck - best_me.nats)
        checks.append((gap < 5e-3,
                       f"A^2={a2}: maxentropic gap to C_k {gap:.2e}"))
    p10 = ChannelParams(math.sqrt(10.0), 1.0, var_e)
    ck10 = secret_key_capacity(p10).rate_nats
    sx_opt, tg_opt = optimize_truncated_gaussian(p10)
    others = {
        "maxentropic": best_maxentropic(p10)[1].nats,
        "uniform": uniform_scheme_rate(p10).nats,
        "heuristic trunc-gauss":
            truncated_gaussian_rate(p10, p10.amplitude).nats,
    }
    for name, rate in others.items():
        checks.append(
            (tg_opt.nats >= rate - 1e-6,
             f"A^2=10: optimized TG {tg_opt.nats:.6f} >= {name} {rate:.6f}"))
        checks.append((rate <= ck10 + 1e-6,
                       f"A^2=10: {name} {rate:.6f} <= C_k {ck10:.6f}"))
    checks.append((tg_opt.nats <= ck10 + 1e-6,
                   f"A^2=10: optimized TG <= C_k {ck10:.6f}"))
    heur = others["heuristic trunc-gauss"]
    rel = abs(tg_opt.nats - heur) / tg_opt.nats
    checks.append((rel < 0.02,
                   f"A^2=10: heuristic within 2% of optimized ({rel:.4f})"))
    _report(6, "suboptimal scheme ordering", checks)


def test_criterion_07_high_amplitude_convergence():
    checks = []
    gaps = []
    at_1000 = []
    for a in (10.0, 100.0, 1000.0):
        p = ChannelParams(a, 1.0, 2.0)
        _, lb2 = maximize_lower_bound_2(p)
        ub = upper_bound(p)
        gaps.append(abs(lb2 - ub))
        if a == 1000.0:
            at_1000 = [lb2, ub]
    checks.append((gaps[0] > gaps[1] > gaps[2],
                   f"|lb2* - UB| strictly decreasing: {gaps}"))
    checks.append((gaps[1] < 0.05,
                   f"|lb2* - UB| at A=100 is {gaps[1]:.4f} < 0.05"))
    for name, v in zip(("lb2*", "UB"), at_1000):
        checks.append((abs(v - HALF_LN3) < 0.05,
                       f"A=1000: {name}={v:.4f} within 0.05 of {HALF_LN3:.4f}"))
    _report(7, "high-amplitude bound convergence", checks)


def test_criterion_08_low_amplitude_ratio():
    sigma_de = math.sqrt(2.0 / 3.0)
    ratios = []
    for c in (0.5, 0.2, 0.1):
        a = c * sigma_de
        p = ChannelParams(a, 1.0, 2.0)
        ck = secret_key_capacity(p).rate_nats
        ratios.append(ck / (a * a / 2.0))
    checks = [
        (ratios[0] < ratios[1] < ratios[2],
         f"ratio increasing toward 1 as A shrinks: {ratios}"),
        (0.9 <= ratios[2] <= 1.05,
         f"ratio at A=0.1 sigma_DE is {ratios[2]:.4f}, in [0.9, 1.05]"),
    ]
    _report(8, "quadratic low-amplitude behavior", checks)


def test_criterion_09_oracle_agreement():
    rng = np.random.default_rng(99)
    p = ChannelParams(1.5, 1.0, 2.0)
    checks = []
    for trial in range(5):
        k = int(rng.integers(2, 5))
        pts = np.sort(rng.uniform(-1.5, 1.5, size=k))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(-1.5, 1.5, size=k))
        probs = rng.dirichlet(np.ones(k))
        scheme = DiscreteDistribution(tuple(pts), tuple(probs))
        quad = secret_key_rate(p, scheme).nats
        mc = (monte_carlo_mi_oracle(scheme, math.sqrt(p.var_eq), 10**7,
                                    2 * trial)
              - monte_carlo_mi_oracle(scheme, math.sqrt(p.var_e), 10**7,
                                      2 * trial + 1))
        checks.append((abs(quad - mc) < 1e-2,
                       f"scheme {trial}: |quad - MC| = {abs(quad - mc):.2e}"))
    _report(9, "Monte Carlo oracle agreement", checks)


def test_criterion_10_determinism(tmp_path):
    args = ["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5,1",
            "--outputs", "capacity,bounds", "--seed", "11", "--restarts", "2"]
    outs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        CliRunner().invoke(cli_main, args + ["--out", str(out)],
                           catch_exceptions=False)
        outs.append(out.read_bytes())
    checks = [(outs[0] == outs[1], "byte-identical CSV across reruns")]
    _report(10, "deterministic sweep output", checks)
