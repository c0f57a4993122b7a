import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import keycap
import keycap.cli
from keycap.cli import main

LN2 = math.log(2.0)


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_capacity_csv_schema(tmp_path):
    out = tmp_path / "cap.csv"
    res = _run(["capacity", "--var-d", "1", "--var-e", "2",
                "--a2-grid", "0.5", "--restarts", "2", "--out", str(out)])
    assert res.exit_code == 0
    header, rows = _read_csv(out)
    assert header == ["A_squared", "C_k_nats", "K", "kkt_violation", "status"]
    assert rows[0]["status"] == "ok"
    assert int(rows[0]["K"]) == 2
    assert 0.1 < float(rows[0]["C_k_nats"]) < 0.2


def test_meta_companion(tmp_path):
    out = tmp_path / "cap.csv"
    _run(["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
          "--restarts", "2", "--seed", "7", "--out", str(out)])
    meta = json.loads((tmp_path / "cap.csv.meta.json").read_text())
    # --seed is accepted and no longer recorded
    assert "seed" not in meta
    # --restarts is accepted and no longer part of the solver config
    assert meta["solver_config"] == {"max_K": 64}
    assert meta["quadrature"]["abs_tol"] == 1e-10
    assert meta["rows"][0]["status"] == "ok"


def test_meta_records_the_entropy_rule(tmp_path):
    out = tmp_path / "s.csv"
    res = _run(["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
                "--restarts", "1", "--outputs", "capacity,schemes",
                "--out", str(out)])
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["quadrature"] == {"abs_tol": 1e-10, "nodes_per_sigma": 16}
    # the largest error estimate among the row's rates, within tolerance
    assert 0.0 < meta["rows"][0]["quad_error"] <= 1e-10


def test_meta_quad_error_covers_lb1(tmp_path):
    # a bounds row's one entropy-rule rate is LB1, the difference of two
    # solver capacities: its error is the row's
    out = tmp_path / "b.csv"
    assert _run(["bounds", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
                 "--out", str(out)]).exit_code == 0
    (row,) = json.loads((tmp_path / "b.csv.meta.json").read_text())["rows"]
    lb1 = keycap.lower_bound_1(keycap.ChannelParams(math.sqrt(0.5), 1.0, 2.0))
    assert row["quad_error"] == lb1.quad_error
    assert float(_read_csv(out)[1][0]["LB1_nats"]) == float("%.12g" % lb1.nats)


def test_meta_records_the_kkt_trace(tmp_path):
    out = tmp_path / "s.json"
    assert _run(["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid",
                 "0.5,2,50", "--restarts", "1", "--outputs", "capacity",
                 "--format", "json", "--out", str(out)]).exit_code == 0
    rows = json.loads((tmp_path / "s.json.meta.json").read_text())["rows"]
    data = json.loads(out.read_text())
    # one KKT profile at A^2 = 0.5 and 2, from the equispaced start laws
    # of 2 and 3 points; two at A^2 = 50, from 12 points; no timings
    assert [[s["K_tried"] for s in r["kkt_trace"]] for r in rows] == \
        [[2], [3], [12, 11]]
    for row, cols in zip(rows, data):
        last = row["kkt_trace"][-1]
        # both ends of the step's interval [R(F), R(F) + violation]
        assert set(last) == {"K_tried", "K", "rate_nats", "kkt_violation",
                             "weight_steps", "location_steps", "capped"}
        assert (last["K"], last["kkt_violation"]) == \
            (row["K"], row["kkt_violation"])
        # the solver's rate on the entropy rule's nodes against the
        # reported C_k: one sum on the same nodes, up to rounding
        assert last["rate_nats"] == pytest.approx(cols["C_k_nats"], rel=0.0,
                                                  abs=1e-14)
    assert rows[2]["kkt_trace"][0]["kkt_violation"] > 1e-6
    # K = 2 is one weight group: no weight step, and no loop capped
    steps = [s for r in rows for s in r["kkt_trace"]]
    assert [s["weight_steps"] for s in steps if s["K_tried"] == 2] == [0]
    assert not any(s["capped"] for s in steps)


def test_units_round_trip(tmp_path):
    args = ["bounds", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
            "--restarts", "2"]
    out_n, out_b = tmp_path / "n.csv", tmp_path / "b.csv"
    _run(args + ["--units", "nats", "--out", str(out_n)])
    _run(args + ["--units", "bits", "--out", str(out_b)])
    _, rows_n = _read_csv(out_n)
    _, rows_b = _read_csv(out_b)
    for col in ("C_k_UB", "LB1", "LB2_star", "LB3", "high_A_limit"):
        nats = float(rows_n[0][f"{col}_nats"])
        bits = float(rows_b[0][f"{col}_bits"])
        assert abs(nats - bits * LN2) < 1e-12 * max(1.0, abs(nats))


def test_json_format(tmp_path):
    out = tmp_path / "b.json"
    res = _run(["bounds", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
                "--restarts", "2", "--format", "json", "--out", str(out)])
    assert res.exit_code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["C_k_UB_nats"]) > 0


def test_deterministic_output(tmp_path):
    args = ["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5,1",
            "--restarts", "2", "--outputs", "capacity,bounds", "--seed", "3"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    _run(args + ["--out", str(out1)])
    _run(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # the .meta.json too, kkt_trace included
    assert (tmp_path / "s1.csv.meta.json").read_bytes() == \
        (tmp_path / "s2.csv.meta.json").read_bytes()


def test_restarts_and_seed_leave_the_result(tmp_path):
    # one escalation path: the law grows from the equispaced start law
    # with no random start
    outs = []
    for restarts, seed in (("1", "0"), ("8", "7")):
        out = tmp_path / f"r{restarts}.csv"
        assert _run(["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid",
                     "2,10", "--restarts", restarts, "--seed", seed,
                     "--out", str(out)]).exit_code == 0
        outs.append((out.read_bytes(),
                     (tmp_path / f"r{restarts}.csv.meta.json").read_bytes()))
    assert outs[0] == outs[1]


def test_no_convergence_exit_code(tmp_path):
    out = tmp_path / "cap.csv"
    res = _run(["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "2",
                "--max-k", "2", "--restarts", "1", "--out", str(out)])
    assert res.exit_code == 2
    _, rows = _read_csv(out)
    assert rows[0]["status"] == "no_convergence"
    assert rows[0]["C_k_nats"] == ""
    # the failed escalation is still recorded: K = 2 tried, not certified
    (step,) = json.loads(
        (tmp_path / "cap.csv.meta.json").read_text())["rows"][0]["kkt_trace"]
    assert step["K_tried"] == 2 and step["kkt_violation"] > 1e-6


def test_failed_row_is_kept(tmp_path):
    # quadrature fails at A^2=1e-20; the A^2=0.5 row must still be written
    out = tmp_path / "w.csv"
    res = _run(["schemes", "--var-d", "1", "--var-e", "2",
                "--a2-grid", "1e-20,0.5", "--out", str(out)])
    assert res.exit_code == 2
    _, rows = _read_csv(out)
    assert [r["status"] for r in rows] == ["quadrature_failure", "ok"]
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
    assert "abs_tol" in meta["rows"][0]["error"]
    assert "error" not in meta["rows"][1]


def test_failed_lb1_keeps_the_closed_form_bounds(tmp_path):
    # at var_e = 1e-12 LB1's plain solve at sigma_e = 1e-6 needs a window
    # over 2^16 noise widths and fails; the bounds computed without it are
    # still written
    out = tmp_path / "b.csv"
    res = _run(["bounds", "--var-d", "1", "--var-e", "1e-12", "--a2-grid",
                "1", "--out", str(out)])
    assert res.exit_code == 2
    (row,) = _read_csv(out)[1]
    assert row["status"] == "quadrature_failure"
    assert row["LB1_nats"] == ""
    for col in ("C_k_UB_nats", "LB2_star_nats", "beta_star", "LB3_nats",
                "high_A_limit_nats"):
        assert math.isfinite(float(row[col])), col


_IMPORT_SET_SCRIPT = """
import json
import sys
from keycap.cli import main

for args in sys.argv[1:]:
    try:
        main(json.loads(args), standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.optimize", "scipy.integrate"))))
"""


def test_commands_load_neither_optimize_nor_integrate(tmp_path):
    # QUADPACK and scipy's scalar minimizers are for tests only: a fresh
    # interpreter running the commands never imports them
    common = ["--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
              "--restarts", "1", "--out"]
    commands = [
        ["schemes", *common, str(tmp_path / "s.csv"), "--k-max", "4"],
        ["sweep", *common, str(tmp_path / "w.csv"),
         "--outputs", "capacity,bounds,schemes"],
    ]
    src = str(Path(keycap.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_SET_SCRIPT, *map(json.dumps, commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


_SCIPY_MODULES_SCRIPT = """
import json
import sys
from keycap.cli import main

for args in sys.argv[1:]:
    try:
        main(json.loads(args), standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_commands_load_no_scipy(tmp_path):
    # the run time is numpy and click: a fresh interpreter running the
    # commands imports no scipy module at all
    common = ["--var-d", "1", "--var-e", "2", "--a2-grid", "0.5"]
    commands = [
        ["schemes", *common, "--k-max", "4", "--out", str(tmp_path / "s.csv")],
        ["sweep", *common, "--restarts", "1", "--outputs",
         "capacity,bounds,schemes", "--out", str(tmp_path / "w.csv")],
        ["kkt-profile", "--var-d", "1", "--var-e", "2", "--a2", "0.5",
         "--restarts", "1", "--out", str(tmp_path / "k.csv")],
    ]
    src = str(Path(keycap.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES_SCRIPT,
         *map(json.dumps, commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


_SCIPY_BLOCKED_SCRIPT = """
import json
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from keycap.cli import main

for args in sys.argv[1:]:
    try:
        main(json.loads(args), standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)
"""


def test_commands_run_with_scipy_blocked(tmp_path):
    # the same rows with scipy unimportable as with it importable
    commands = [
        ["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5,2",
         "--outputs", "capacity,bounds,schemes"],
        ["schemes", "--var-d", "1", "--var-e", "2", "--a2-grid", "1e4,1e6"],
    ]
    blocked, normal = [], []
    for i, args in enumerate(commands):
        for tag, outs in (("blocked", blocked), ("normal", normal)):
            out = tmp_path / f"{tag}{i}.json"
            outs.append((out, [*args, "--format", "json", "--out", str(out)]))
    for out, args in normal:
        assert _run(args).exit_code == 0
    src = str(Path(keycap.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_SCRIPT,
         *(json.dumps(args) for _, args in blocked)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    for (out_b, _), (out_n, _) in zip(blocked, normal):
        rows_b = json.loads(out_b.read_text())
        rows_n = json.loads(out_n.read_text())
        assert [r["status"] for r in rows_b] == ["ok"] * len(rows_n)
        for row_b, row_n in zip(rows_b, rows_n):
            assert row_b.keys() == row_n.keys()
            for key, value in row_n.items():
                if isinstance(value, float):
                    assert abs(row_b[key] - value) <= 1e-12, key
                else:
                    assert row_b[key] == value, key


@pytest.mark.parametrize("args", [
    ["capacity", "--var-d", "nan", "--var-e", "2", "--a2-grid", "0.5"],
    ["capacity", "--var-d", "1", "--var-e", "inf", "--a2-grid", "0.5"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "nan"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5,inf"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "-1,0.5"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--max-k", "0"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--max-k", "1"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--restarts", "0"],
    ["schemes", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--k-max", "1"],
    ["kkt-profile", "--var-d", "1", "--var-e", "2", "--a2", "nan"],
    # the profile has one writer, `kkt-profile`
    ["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--outputs", "kkt"],
    # an empty set of outputs would write a file of A_squared and status
    ["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--outputs", ","],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--seed", "-1"],
])
def test_rejects_bad_input(tmp_path, args):
    # a usage error before any row is solved: no traceback, no output file
    out = tmp_path / "x.csv"
    res = _run(args + ["--out", str(out)])
    assert res.exit_code == 2
    assert "Invalid value" in res.output
    assert not out.exists()


def test_statuses_match_readme():
    # a row's status is `ok` or the status of a KeycapError subclass; the
    # README's status table and the cli docstring name exactly these
    statuses = {"ok"} | {cls.status
                         for cls in keycap.KeycapError.__subclasses__()}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| status | meaning |")[1].split("\n\n")[0]
    assert set(re.findall(r"^\| `(\w+)` \|", table, re.M)) == statuses
    named = re.search(r"a `status`: (.*?)\)", keycap.cli.__doc__, re.S)[1]
    assert set(re.findall(r"`(\w+)`", named)) == statuses


def test_rejects_bad_grid(tmp_path):
    out = tmp_path / "x.csv"
    res = CliRunner().invoke(
        main, ["capacity", "--var-d", "1", "--var-e", "2",
               "--a2-grid", "2,1", "--out", str(out)])
    assert res.exit_code != 0
    res = CliRunner().invoke(
        main, ["capacity", "--var-d", "1", "--var-e", "2",
               "--a2-grid", "-1", "--out", str(out)])
    assert res.exit_code != 0


def _kkt_profile(tmp_path, fmt, units):
    out = tmp_path / f"kkt_{units}.{fmt}"
    res = _run(["kkt-profile", "--var-d", "1", "--var-e", "2", "--a2", "0.5",
                "--restarts", "2", "--units", units, "--format", fmt,
                "--out", str(out)])
    assert res.exit_code == 0
    if fmt == "csv":
        _, rows = _read_csv(out)
        rows = [{k: float(v) for k, v in r.items()} for r in rows]
    else:
        rows = json.loads(out.read_text())
    meta = json.loads((tmp_path / f"{out.name}.meta.json").read_text())
    return rows, meta["rows"][0]["rate"]


@pytest.mark.parametrize("fmt,units", [("csv", "nats"), ("json", "bits")])
def test_kkt_profile(tmp_path, fmt, units):
    rows, rate = _kkt_profile(tmp_path, fmt, units)
    col = f"s_{units}"
    # CSV keeps the column order, JSON sorts the keys
    assert list(rows[0]) == (["x", col] if fmt == "csv" else [col, "x"])
    # profile never exceeds the rate by more than the certificate tolerance
    scale = LN2 if units == "bits" else 1.0
    assert max(r[col] for r in rows) <= rate + 2e-6 / scale
    xs = [r["x"] for r in rows]
    assert min(xs) == -max(xs)
    if units == "bits":
        # every rate in bits is the nats value divided by ln 2
        nats, rate_nats = _kkt_profile(tmp_path, "json", "nats")
        assert xs == [r["x"] for r in nats]
        assert [r["s_bits"] for r in rows] == [r["s_nats"] / LN2 for r in nats]
        assert rate == rate_nats / LN2
