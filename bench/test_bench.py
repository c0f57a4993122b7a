"""Tests of the benchmark itself; run with `python3 -m pytest bench -q`."""

import copy
import json

import pytest

import reference
import run
import tracing

# cheap stand-ins that still reach every traced layer
TINY = {
    "tiny-sweep": ["sweep", "--var-d", "1", "--var-e", "2", "--a2-grid", "0.5",
                   "--outputs", "capacity,bounds", "--restarts", "1"],
    "tiny-schemes": ["schemes", "--var-d", "1", "--var-e", "2.25",
                     "--a2-grid", "1", "--k-max", "3"],
}


@pytest.fixture(scope="module")
def bench_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    run.prepare()
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    refs = {}
    for name in TINY:
        result = run.run_pass(name, 0, tmp_path / f"{name}-ref.json")
        assert result.error is None
        refs[name] = json.loads(result.output)
    monkeypatch.setattr(reference, "load", refs.__getitem__)
    return refs


@pytest.mark.parametrize("workload", ["sweep", "capacity-dense", "schemes"])
def test_reference_passes_itself(workload):
    ref = reference.load(workload)
    assert reference.check_rows(copy.deepcopy(ref), ref) == [[]] * len(ref)


def test_benchmark_json_workloads_exist(bench_json):
    for workload in bench_json["workloads"]:
        assert workload["name"] in run.WORKLOADS
        assert reference.load(workload["name"])


@pytest.mark.parametrize("column, delta, tolerated", [
    ("C_k_nats", 1e-8, False),
    ("C_k_nats", 1e-10, True),
    ("LB1_nats", 1e-8, False),
    ("maxentropic_rate_nats", -1e-8, False),
    ("K", 1, False),
    ("maxentropic_K", 1, False),
    ("trunc_gauss_sigma_x", 1e-5, False),
    ("trunc_gauss_sigma_x", 1e-7, True),
    ("kkt_violation", 1e-5, False),
])
def test_perturbed_row_fails(column, delta, tolerated):
    ref = reference.load("sweep")
    rows = copy.deepcopy(ref)
    rows[1][column] += delta
    failures = reference.check_rows(rows, ref)
    assert failures[0] == []
    assert (failures[1] == []) == tolerated


def test_perturbed_reference_marks_capacity_row_failed():
    rows = reference.load("capacity-dense")
    ref = copy.deepcopy(rows)
    ref[3]["C_k_nats"] += 1e-8
    failures = reference.check_rows(rows, ref)
    assert [bool(f) for f in failures] == [i == 3 for i in range(len(ref))]


def test_bad_status_and_missing_rows_fail():
    ref = reference.load("schemes")
    rows = copy.deepcopy(ref)
    rows[0]["status"] = "no_convergence"
    assert reference.check_rows(rows, ref)[0]
    assert all(reference.check_rows(rows[:-1], ref))


def test_raising_pass_fails_all_rows():
    ref = reference.load("schemes")
    result = run.PassResult(1.0, 1.0, None, None, "QuadratureFailure: x")
    assert all(run.failed_rows(result, ref))


def test_traced_output_is_byte_identical(tiny, tmp_path):
    for name in TINY:
        plain = run.run_pass(name, 3, tmp_path / "plain.json")
        tracer = tracing.Tracer()
        traced = run.run_pass(name, 3, tmp_path / "traced.json", tracer)
        assert plain.error is None and traced.error is None
        assert traced.output == plain.output
        assert traced.meta == plain.meta
        assert tracer.spans[0][0] == "cli"
    metrics = tracing.layer_metrics(tracer)
    assert metrics["numerics.density_evals.gaussian-mixture"][0] > 0
    assert metrics["numerics.density_evals.trunc-gauss-conv"][0] > 0
    assert metrics["schemes.optimize_truncated_gaussian.rate_calls"][0] > 0


def test_tracer_restores_entry_points(tiny, tmp_path):
    import keycap.cli
    import keycap.solver

    before = (keycap.cli.secret_key_capacity, keycap.solver.secret_key_rate)
    run.run_pass("tiny-sweep", 0, tmp_path / "out.json", tracing.Tracer())
    assert (keycap.cli.secret_key_capacity,
            keycap.solver.secret_key_rate) == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["cli", 0.0, 10.0, -1, None],
                    ["solver.secret_key_capacity", 1.0, 9.0, 0, 2.0],
                    ["channel.secret_key_rate", 7.0, 8.5, 1, 2.0]]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.self_s"][0] == pytest.approx(2.0)
    assert metrics["solver.secret_key_capacity.self_s"][0] == pytest.approx(6.5)
    assert metrics["solver.secret_key_capacity.total_s"][0] == pytest.approx(8.0)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(tiny, capsys, bench_json,
                                              trace, section):
    argv = ["--workload", "tiny-sweep", "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    documented = {m["name"]: m["unit"] for m in bench_json[section]}
    assert emitted == documented
