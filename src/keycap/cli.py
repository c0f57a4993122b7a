"""Command-line driver: sweeps over the amplitude grid, scheme and bound
comparison tables, and KKT profile dumps, written as CSV or JSON.

Every input is validated before any row is solved; a bad value is a usage
error and writes no file. Each grid row then gets a `status`: `ok`, or the
failure that stopped it (`no_convergence`, `quadrature_failure`), with the
message in the row's `.meta.json` `error` field. A failed row is kept with
the columns computed before the failure, and the other rows still run.

Exit codes: 0 full success, 2 if any row failed (or on a usage error),
1 on fatal errors.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click

from .bounds import (
    high_a_limit,
    lower_bound_1,
    lower_bound_3,
    maximize_lower_bound_2,
    upper_bound,
)
from .channel import ChannelParams
from .errors import KeycapError, NoConvergence
from .inputs import _check_positive_finite
from .numerics import LATTICE_PER_SIGMA, QUAD_ABS_TOL
from .schemes import (
    best_maxentropic,
    optimize_truncated_gaussian,
    truncated_gaussian_rate,
    uniform_scheme_rate,
)
from .solver import SolverConfig, secret_key_capacity, secret_key_profile

LN2 = math.log(2.0)

_RATE_COLUMNS = {
    "C_k", "C_k_UB", "LB1", "LB2_star", "LB3", "high_A_limit",
    "maxentropic_rate", "uniform_rate",
    "trunc_gauss_rate", "trunc_gauss_heuristic_rate", "s",
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.BadParameter(f"bad grid: {exc}") from None
    if not grid:
        raise click.BadParameter("grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise click.BadParameter("grid must be strictly increasing")
    return grid


def _validate(grid, var_d, var_e, max_k):
    """Channel parameters per grid point and the solver config, checked
    before any row is solved."""
    try:
        for a2 in grid:
            _check_positive_finite(squared_amplitude=a2)
        params = [ChannelParams(math.sqrt(a2), var_d, var_e) for a2 in grid]
        cfg = SolverConfig(max_K=max_k)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    return params, cfg


def _column_name(base: str, units: str) -> str:
    if base in _RATE_COLUMNS:
        return f"{base}_{units}"
    return base


def _kkt_trace(trace):
    """The solver's escalation steps, one KKT profile each, for .meta.json;
    no timings, so the file stays byte-identical across runs."""
    return [step._asdict() for step in trace]


def _evaluate_row(a2, params, outputs, cfg, k_max):
    row = {"A_squared": a2, "status": "ok"}
    meta = {"A_squared": a2, "status": "ok"}
    quad_errors = []

    def nats(rate):
        quad_errors.append(rate.quad_error)
        return rate.nats

    try:
        if "capacity" in outputs:
            try:
                rep = secret_key_capacity(params, cfg)
            except NoConvergence as exc:
                # C_k's escalation only: LB1's solves below never write it
                meta["kkt_trace"] = _kkt_trace(exc.trace)
                raise
            row["C_k"] = rep.rate_nats
            quad_errors.append(rep.quad_error)
            row["K"] = rep.num_points_K
            row["kkt_violation"] = rep.kkt_max_violation
            meta.update(K=rep.num_points_K,
                        kkt_violation=rep.kkt_max_violation,
                        kkt_trace=_kkt_trace(rep.trace))
        if "bounds" in outputs:
            # the closed forms first: a failed LB1 solve leaves them written
            row["beta_star"], row["LB2_star"] = maximize_lower_bound_2(params)
            row["C_k_UB"] = upper_bound(params)
            row["LB3"] = lower_bound_3(params)
            row["high_A_limit"] = high_a_limit(params)
            row["LB1"] = nats(lower_bound_1(params, cfg))
        if "schemes" in outputs:
            k, r_me = best_maxentropic(params, k_max)
            row["maxentropic_K"] = k
            row["maxentropic_rate"] = nats(r_me)
            row["uniform_rate"] = nats(uniform_scheme_rate(params))
            sx, r_tg = optimize_truncated_gaussian(params)
            row["trunc_gauss_sigma_x"] = sx
            row["trunc_gauss_rate"] = nats(r_tg)
            row["trunc_gauss_heuristic_rate"] = nats(truncated_gaussian_rate(
                params, params.amplitude))
    except KeycapError as exc:
        row["status"] = meta["status"] = exc.status
        meta["error"] = str(exc)
    if quad_errors:
        # the largest entropy-rule error among the rates this row reports
        meta["quad_error"] = max(quad_errors)
    return row, meta


def _write_output(rows, columns, metas, cfg, units, fmt, out_path):
    """Write the rows (rate columns converted to `units`) and their
    `.meta.json` companion."""
    named = []
    for row in rows:
        out_row = {}
        for col in columns:
            val = row.get(col)
            if col in _RATE_COLUMNS and units == "bits" and val is not None:
                val = val / LN2
            out_row[_column_name(col, units)] = val
        named.append(out_row)
    header = [_column_name(c, units) for c in columns]
    out = Path(out_path)
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(r[h]) for h in header) for r in named]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(named, sort_keys=True, indent=2, default=_fmt) + "\n"
    payload = {
        "solver_config": asdict(cfg),
        "quadrature": {"abs_tol": QUAD_ABS_TOL,
                       "nodes_per_sigma": LATTICE_PER_SIGMA},
        "units": units,
        "rows": metas,
    }
    try:
        out.write_text(text)
        Path(str(out_path) + ".meta.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise click.ClickException(f"cannot write output: {exc}")


def _options(amplitudes):
    """The options every command takes, with `amplitudes` declaring the
    squared-amplitude option."""
    def decorate(fn):
        for opt in reversed([
            click.option("--var-d", type=float, required=True,
                         help="legitimate-receiver noise variance"),
            click.option("--var-e", type=float, required=True,
                         help="eavesdropper noise variance"),
            amplitudes,
            click.option("--units", type=click.Choice(["nats", "bits"]),
                         default="nats", show_default=True),
            click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                         default="csv", show_default=True),
            click.option("--out", type=click.Path(dir_okay=False),
                         required=True),
            click.option("--seed", type=click.IntRange(min=0), default=0,
                         expose_value=False,
                         help="accepted only; no longer changes the result"),
            click.option("--max-k", type=int, default=64, show_default=True,
                         help="mass-point budget for the solver"),
            click.option("--restarts", type=click.IntRange(min=1), default=8,
                         expose_value=False,
                         help="accepted only; no longer changes the result"),
        ]):
            fn = opt(fn)
        return fn
    return decorate


_common_options = _options(click.option(
    "--a2-grid", required=True,
    help="comma-separated strictly increasing squared amplitudes"))


def _run_sweep(var_d, var_e, a2_grid, units, fmt, out, max_k, outputs,
               k_max_schemes=32):
    grid = _parse_grid(a2_grid)
    params, cfg = _validate(grid, var_d, var_e, max_k)
    columns = ["A_squared"]
    if "capacity" in outputs:
        columns += ["C_k", "K", "kkt_violation"]
    if "bounds" in outputs:
        columns += ["C_k_UB", "LB1", "LB2_star", "beta_star", "LB3",
                    "high_A_limit"]
    if "schemes" in outputs:
        columns += ["maxentropic_K", "maxentropic_rate", "uniform_rate",
                    "trunc_gauss_sigma_x", "trunc_gauss_rate",
                    "trunc_gauss_heuristic_rate"]
    columns.append("status")
    rows, metas = [], []
    failed = False
    for a2, p in zip(grid, params):
        row, meta = _evaluate_row(a2, p, outputs, cfg, k_max_schemes)
        failed = failed or row["status"] != "ok"
        rows.append(row)
        metas.append(meta)
    _write_output(rows, columns, metas, cfg, units, fmt, out)
    sys.exit(2 if failed else 0)


@click.group()
def main():
    """Secret-key capacity toolbox for amplitude-constrained Gaussian
    key agreement."""


@main.command()
@_common_options
def capacity(var_d, var_e, a2_grid, units, fmt, out, max_k):
    """Secret-key capacity over the amplitude grid."""
    _run_sweep(var_d, var_e, a2_grid, units, fmt, out, max_k, {"capacity"})


@main.command()
@_common_options
def bounds(var_d, var_e, a2_grid, units, fmt, out, max_k):
    """Closed-form bounds (plus the solver-backed bound) over the grid."""
    _run_sweep(var_d, var_e, a2_grid, units, fmt, out, max_k, {"bounds"})


@main.command()
@_common_options
@click.option("--k-max", type=click.IntRange(min=2), default=32,
              show_default=True,
              help="largest point count the equally spaced search considers")
def schemes(var_d, var_e, a2_grid, units, fmt, out, max_k, k_max):
    """Suboptimal scheme rates over the grid."""
    _run_sweep(var_d, var_e, a2_grid, units, fmt, out, max_k, {"schemes"},
               k_max_schemes=k_max)


@main.command()
@_common_options
@click.option("--outputs", default="capacity,bounds",
              show_default=True,
              help="comma-set drawn from capacity,schemes,bounds")
def sweep(var_d, var_e, a2_grid, units, fmt, out, max_k, outputs):
    """Combined sweep with selectable output families."""
    chosen = {tok.strip() for tok in outputs.split(",") if tok.strip()}
    if bad := chosen - {"capacity", "schemes", "bounds"}:
        raise click.BadParameter(f"unknown outputs: {sorted(bad)}")
    if not chosen:
        raise click.BadParameter("no outputs chosen")
    _run_sweep(var_d, var_e, a2_grid, units, fmt, out, max_k, chosen)


@main.command("kkt-profile")
@_options(click.option("--a2", type=float, required=True,
                       help="squared amplitude"))
def kkt_profile(var_d, var_e, a2, units, fmt, out, max_k):
    """Dump the optimality-profile s(x; F) of the capacity solution."""
    (params,), cfg = _validate([a2], var_d, var_e, max_k)
    try:
        rep = secret_key_capacity(params, cfg)
    except KeycapError as exc:
        raise click.ClickException(str(exc))
    rows = [{"x": x, "s": s}
            for x, s in zip(*secret_key_profile(params, rep.distribution))]
    _write_output(rows, ["x", "s"], [{
        "A_squared": a2, "status": "ok", "K": rep.num_points_K,
        "kkt_violation": rep.kkt_max_violation,
        "kkt_trace": _kkt_trace(rep.trace),
        "rate": rep.rate_nats / LN2 if units == "bits" else rep.rate_nats,
        "points": list(rep.distribution.points),
        "probs": list(rep.distribution.probs),
    }], cfg, units, fmt, out)

if __name__ == "__main__":
    main()
