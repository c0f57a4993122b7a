"""keycap benchmark: fixed CLI workloads, checked rows, layer trace.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Each workload is one `keycap` command run in-process through
`keycap.cli.main(args, standalone_mode=False)` with `--format json --seed
<seed>`, repeated back to back (one caller, closed loop) for about
`--seconds` seconds, and at least twice. Every pass's rows are checked
against `bench/reference/<workload>.json`. The last line of standard
output is one JSON object; with `--trace 0` it carries the end-to-end
metrics, with `--trace 1` the per-layer metrics of traced passes (see
README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import reference
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
# a single pass would let one slow stretch of the shared host set wall_s
MIN_PASSES = 2

# Every solver workload passes --restarts 1: with the default 8 restarts the
# cost of one K=3 solve swings between 3.0 s and 14 s with --seed (the
# certified C_k does not move), too wide for any run that fits the budget.
WORKLOADS = {
    # every layer in one command: capacity, bounds (two plain-channel
    # solves per row) and schemes
    "sweep": ["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5,2",
              "--outputs", "capacity,bounds,schemes", "--restarts", "1"],
    # seven low-K solves: the fixed cost of each solve dominates
    "capacity-dense": ["capacity", "--var-d", "1", "--var-e", "2",
                       "--a2-grid", "0.1,0.25,0.5,1,1.5,2,3",
                       "--restarts", "1"],
    # no solver at all: adaptive-quadrature entropies of the three families
    "schemes": ["schemes", "--var-d", "1", "--var-e", "2.25",
                "--a2-grid", "1,10,49"],
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def prepare():
    """Pin BLAS threads, then import keycap from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "keycap" / "__init__.py").is_file():
        raise FileNotFoundError(f"no keycap sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import keycap.cli

    if src.resolve() not in Path(keycap.cli.__file__).resolve().parents:
        raise ImportError(f"keycap imported from {keycap.cli.__file__}")


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    output: Optional[bytes]
    meta: Optional[bytes]
    error: Optional[str]


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(workload, seed, out_path, tracer=None):
    """Run one workload command; output bytes are None when it raised."""
    from keycap.cli import main

    meta_path = Path(f"{out_path}.meta.json")
    out_path.unlink(missing_ok=True)
    meta_path.unlink(missing_ok=True)
    args = WORKLOADS[workload] + ["--format", "json", "--seed", str(seed),
                                  "--out", str(out_path)]
    error = None
    t0, c0 = time.perf_counter(), _cpu_s()
    try:
        if tracer is None:
            main(args, standalone_mode=False)
        else:
            with tracer.installed(), tracer.span("cli"):
                main(args, standalone_mode=False)
    except SystemExit as exc:
        # 2 means some row did not converge; the row check reports it
        if exc.code not in (None, 0, 2):
            error = f"exit code {exc.code}"
    except Exception as exc:  # a raising workload fails all of its rows
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    if error is None and not out_path.is_file():
        error = "no output written"
    if error is not None:
        return PassResult(wall, cpu, None, None, error)
    return PassResult(wall, cpu, out_path.read_bytes(), meta_path.read_bytes(),
                      None)


def failed_rows(result, ref_rows):
    """Failure reasons of a pass, one list per reference row."""
    if result.output is None:
        return [[result.error] for _ in ref_rows]
    try:
        rows = json.loads(result.output)
    except ValueError as exc:
        return [[f"unreadable output: {exc}"] for _ in ref_rows]
    return reference.check_rows(rows, ref_rows)


def measure_setup():
    """Median time of a fresh interpreter importing keycap.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import keycap.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrate():
    """Median time of a fixed pure-Python loop: host speed, recorded only."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_info():
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _keep_going(start, seconds, batch_walls):
    """Start another batch only if it should end no later than half a batch
    past the time budget, so that a run measures about `seconds` on average
    whatever the batch length."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * statistics.median(batch_walls) <= seconds


def run_untraced(workload, seed, seconds, ref_rows):
    out_path = OUT_DIR / f"{workload}-seed{seed}.json"
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        res = run_pass(workload, seed, out_path)
        passes.append(res)
        failures.extend(failed_rows(res, ref_rows))
        if len(passes) >= MIN_PASSES and not _keep_going(
                start, seconds, [p.wall_s for p in passes]):
            break
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, failures, metrics


def run_traced(workload, seed, seconds, ref_rows):
    """Pairs of (untraced, traced) passes at the same seed; the traced
    pass's files must equal the untraced pass's byte for byte."""
    plain_path = OUT_DIR / f"{workload}-seed{seed}-untraced.json"
    traced_path = OUT_DIR / f"{workload}-seed{seed}-traced.json"
    tracers, plain_walls, traced_walls, failures = [], [], [], []
    per_pass = []
    start = time.perf_counter()
    while True:
        plain = run_pass(workload, seed, plain_path)
        tracer = tracing.Tracer()
        traced = run_pass(workload, seed, traced_path, tracer)
        failures.extend(failed_rows(plain, ref_rows))
        if (traced.output, traced.meta) != (plain.output, plain.meta):
            traced = PassResult(traced.wall_s, traced.cpu_s, None, None,
                                "traced output differs from untraced")
        failures.extend(failed_rows(traced, ref_rows))
        tracers.append(tracer)
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        per_pass.append(tracing.layer_metrics(tracer))
        pair_walls = [a + b for a, b in zip(plain_walls, traced_walls)]
        if not _keep_going(start, seconds, pair_walls):
            break
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls),
        "ratio")
    spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.json"
    spans_path.write_text(json.dumps([
        {"spans": t.spans, "density_evals": dict(t.density_evals)}
        for t in tracers]) + "\n")
    return plain_walls + traced_walls, failures, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    try:
        prepare()
        ref_rows = reference.load(args.workload)
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "command": WORKLOADS[args.workload], "host": host_info(),
              "calibration_s": calibrate()}
    if args.trace:
        walls, failures, metrics = run_traced(
            args.workload, args.seed, args.seconds, ref_rows)
    else:
        setup_s = measure_setup()
        passes, failures, values = run_untraced(
            args.workload, args.seed, args.seconds, ref_rows)
        walls = [p.wall_s for p in passes]
        values["setup_s"] = setup_s
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    failed = sum(1 for reasons in failures if reasons)
    record.update(pass_walls_s=walls, failed_rows=[
        reasons for reasons in failures if reasons])
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.run.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"calibration_s {record['calibration_s']:.6f}")
    for reasons in record["failed_rows"]:
        print("failed row: " + "; ".join(reasons))
    print(f"fail_frac {failed / len(failures):.6g} (failed rows / attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
