import json
import math

import pytest
from click.testing import CliRunner

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
    assert meta["seed"] == 7
    assert meta["solver_config"]["restarts"] == 2
    assert meta["quadrature"]["abs_tol"] == 1e-10
    assert meta["rows"][0]["status"] == "ok"


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


def test_no_convergence_exit_code(tmp_path):
    out = tmp_path / "cap.csv"
    res = _run(["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "2",
                "--max-k", "2", "--restarts", "1", "--out", str(out)])
    assert res.exit_code == 2
    _, rows = _read_csv(out)
    assert rows[0]["status"] == "no_convergence"
    assert rows[0]["C_k_nats"] == ""


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


@pytest.mark.parametrize("args", [
    ["capacity", "--var-d", "nan", "--var-e", "2", "--a2-grid", "0.5"],
    ["capacity", "--var-d", "1", "--var-e", "inf", "--a2-grid", "0.5"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "nan"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5,inf"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--max-k", "0"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--max-k", "1"],
    ["capacity", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--restarts", "0"],
    ["schemes", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
     "--k-max", "1"],
    ["kkt-profile", "--var-d", "1", "--var-e", "2", "--a2", "nan"],
])
def test_rejects_bad_input(tmp_path, args):
    # a usage error before any row is solved: no traceback, no output file
    out = tmp_path / "x.csv"
    res = _run(args + ["--out", str(out)])
    assert res.exit_code == 2
    assert "Invalid value" in res.output
    assert not out.exists()


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


def test_kkt_profile(tmp_path):
    out = tmp_path / "kkt.csv"
    res = _run(["kkt-profile", "--var-d", "1", "--var-e", "2", "--a2", "0.5",
                "--restarts", "2", "--out", str(out)])
    assert res.exit_code == 0
    header, rows = _read_csv(out)
    assert header == ["x", "s_nats"]
    meta = json.loads((tmp_path / "kkt.csv.meta.json").read_text())
    rate = meta["rows"][0]["rate"]
    # profile never exceeds the rate by more than the certificate tolerance
    assert max(float(r["s_nats"]) for r in rows) <= rate + 2e-6
    xs = [float(r["x"]) for r in rows]
    assert min(xs) == -max(xs)
