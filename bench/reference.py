"""Reference rows for each workload and the per-row check against them.

The files under `reference/` hold the JSON rows `keycap` wrote for each
workload at seed 0. Record them again only when a change is meant to move
the numbers:

    python3 bench/reference.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RATE_TOL = 1e-9          # nats, every rate column (ROADMAP section 1)
KKT_TOL = 1e-6           # the solver's own certificate tolerance
SIGMA_X_REL_TOL = 1e-6   # times A, the truncated-Gaussian search tolerance

_RATE_COLUMNS = (
    "C_k_nats", "C_k_UB_nats", "LB1_nats", "LB2_star_nats", "LB3_nats",
    "high_A_limit_nats", "maxentropic_rate_nats", "uniform_rate_nats",
    "trunc_gauss_rate_nats", "trunc_gauss_heuristic_rate_nats",
)
_EXACT_COLUMNS = ("A_squared", "K", "maxentropic_K")


def load(workload):
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def row_failures(row, ref):
    """Reasons why one output row does not match its reference row."""
    reasons = []
    if row.get("status") != "ok":
        reasons.append(f"status={row.get('status')}")
    for col in _EXACT_COLUMNS:
        if col in ref and row.get(col) != ref[col]:
            reasons.append(f"{col}={row.get(col)} != {ref[col]}")
    for col in _RATE_COLUMNS:
        if col not in ref:
            continue
        val = row.get(col)
        if not isinstance(val, float) or not abs(val - ref[col]) <= RATE_TOL:
            reasons.append(f"{col}={val} != {ref[col]}")
    if "kkt_violation" in ref:
        viol = row.get("kkt_violation")
        if not isinstance(viol, float) or not viol <= KKT_TOL:
            reasons.append(f"kkt_violation={viol}")
    if "trunc_gauss_sigma_x" in ref:
        sx = row.get("trunc_gauss_sigma_x")
        tol = SIGMA_X_REL_TOL * math.sqrt(ref["A_squared"])
        ref_sx = ref["trunc_gauss_sigma_x"]
        if not isinstance(sx, float) or not abs(sx - ref_sx) <= tol:
            reasons.append(f"trunc_gauss_sigma_x={sx}")
    return reasons


def check_rows(rows, ref_rows):
    """Per reference row, the list of failure reasons (empty when it passes).

    A missing row fails; so does every row when the row count is off.
    """
    if not isinstance(rows, list) or len(rows) != len(ref_rows):
        return [["row count differs from the reference"] for _ in ref_rows]
    return [row_failures(row, ref) for row, ref in zip(rows, ref_rows)]


if __name__ == "__main__":
    import run

    REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    run.prepare()
    for name in run.WORKLOADS:
        result = run.run_pass(name, 0, run.OUT_DIR / f"reference-{name}.json")
        if result.error is not None:
            raise SystemExit(f"{name}: {result.error}")
        (REFERENCE_DIR / f"{name}.json").write_bytes(result.output)
        print(f"{name}: {len(json.loads(result.output))} rows recorded")
