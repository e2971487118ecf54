"""Tests of the benchmark itself (not of ltsurf); kept out of tier-1.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import uuid

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import TRACED, WORKLOADS  # noqa: E402

SMOKE_SIZES = {"tanaka_fine": 4, "jump_coarse": 20, "estimators": 8, "envelope": 3}


@pytest.fixture(scope="module")
def cli_main():
    os.makedirs(worker.OUT_ROOT, exist_ok=True)
    return worker.setup(WORKLOADS["tanaka_fine"])


@pytest.fixture
def scratch():
    """A fresh directory inside the checkout's ignored output directory."""
    path = os.path.join(worker.OUT_ROOT, f"test-{uuid.uuid4().hex}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path)


def smoke(name):
    return dataclasses.replace(TRACED[name], size=SMOKE_SIZES[name])


@pytest.mark.parametrize("name", sorted(TRACED))
def test_smoke_size_of_each_workload(cli_main, name):
    workload = smoke(name)
    result = worker.call(cli_main, workload, seed=3)
    assert result["ok"], result["problems"]
    assert result["output_bytes"] > 0 and result["digests"]
    assert worker.steps_per_call(workload, 3) >= workload.ops
    # the seed fixes the inputs, so the outputs too
    assert worker.call(cli_main, workload, seed=3)["digests"] == result["digests"]
    assert worker.call(cli_main, workload, seed=4)["digests"] != result["digests"]


def verify_output(cli_main, out_dir):
    workload = dataclasses.replace(WORKLOADS["jump_coarse"], size=6)
    assert cli_main(workload.argv(5, out_dir)) == 0
    with open(os.path.join(out_dir, "verify.csv")) as fh:
        return workload, fh.read().splitlines()


def rewrite(out_dir, lines):
    with open(os.path.join(out_dir, "verify.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def flip_digit(cell):
    k = next(i for i, ch in enumerate(cell) if ch.isdigit())
    return cell[:k] + str((int(cell[k]) + 1) % 10) + cell[k + 1:]


def test_checker_accepts_real_output(cli_main, scratch):
    workload, _ = verify_output(cli_main, scratch)
    check = checks.check_verify(scratch, workload.size)
    assert check.ok, check.problems
    assert check.accuracy["abs_residual_median"] > 0


@pytest.mark.parametrize("column", range(8))
def test_checker_catches_a_flipped_digit_in_any_column(cli_main, scratch, column):
    workload, lines = verify_output(cli_main, scratch)
    assert len(lines[0].split(",")) == 8  # path_id, lhs, 4 terms, rhs, residual
    cells = lines[2].split(",")
    cells[column] = flip_digit(cells[column])
    lines[2] = ",".join(cells)
    rewrite(scratch, lines)
    assert not checks.check_verify(scratch, workload.size).ok


def test_checker_catches_a_dropped_row(cli_main, scratch):
    workload, lines = verify_output(cli_main, scratch)
    rewrite(scratch, lines[:3] + lines[4:])
    assert not checks.check_verify(scratch, workload.size).ok
    rewrite(scratch, lines[:-1])
    assert not checks.check_verify(scratch, workload.size).ok


def test_checker_catches_a_wrong_envelope_value(cli_main, scratch):
    workload = smoke("envelope")
    m = workload.m_values(2)
    assert cli_main(workload.argv(2, scratch)) == 0
    assert checks.check_envelope(scratch, m, workload.size).ok
    path = os.path.join(scratch, "envelope.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 1e-4)
    lines[5] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert not checks.check_envelope(scratch, m, workload.size).ok


def test_checker_rejects_a_nonpositive_estimator_mean():
    stats = {name: {"mean": 0.7} for name in checks.ESTIMATORS}
    assert checks.check_localtime(json.dumps(stats)).ok
    stats["tanaka"]["mean"] = -0.1
    assert not checks.check_localtime(json.dumps(stats)).ok


def test_failed_exit_code_fails_the_call(cli_main):
    workload = dataclasses.replace(smoke("tanaka_fine"), scenario="no_such_scenario")
    result = worker.call(cli_main, workload, seed=1)
    assert not result["ok"]


def test_traced_outputs_match_untraced(cli_main):
    import ltsurf.harness
    original = ltsurf.harness.simulate_jump_diffusion
    workload = dataclasses.replace(WORKLOADS["tanaka_fine"], size=5)
    untraced = worker.call(cli_main, workload, seed=9)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = worker.call(cli_main, workload, seed=9, tracer=tracer)
    finally:
        tracer.uninstall()
    assert ltsurf.harness.simulate_jump_diffusion is original
    assert not tracer.missing
    assert untraced["ok"] and traced["ok"]
    assert traced["digests"] == untraced["digests"]
    metrics, detail = layertrace.layer_metrics(tracer)
    assert detail["self_sum_frac"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["paths.steps"] == 5 * 10_000
    assert metrics["scenarios.build_parts_calls"] == 6
    assert metrics["paths.bundle_bytes_per_step"] == pytest.approx(121, abs=0.1)


def synthetic_tracer(with_grid=True):
    """cli.main [0, 10] > run_scenario [1, 9] > simulate [2, 6] > grid [3, 4],
    and a second root cli.main [20, 22] with no children."""
    tracer = layertrace.Tracer()
    tracer.spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["harness.run_scenario", 0, 1.0, 9.0],
        ["paths.simulate_jump_diffusion", 1, 2.0, 6.0],
        ["paths.build_grid", 2, 3.0, 4.0],
        ["cli.main", -1, 20.0, 22.0],
    ]
    if not with_grid:
        tracer.spans[2][0] = "paths.simulate_brownian"
    tracer.counts = [{"steps": 100.0}, {}]
    return tracer


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    tracer = synthetic_tracer()
    assert layertrace.self_times(tracer.spans) == [2.0, 4.0, 3.0, 1.0, 2.0]
    metrics, detail = layertrace.layer_metrics(tracer)
    assert detail["self_sum_frac"] == 1.0
    assert detail["layer_self_s"] == pytest.approx(
        {"cli": 2.0, "harness": 2.0, "paths": 2.0, "scenarios": 0.0, "calculus": 0.0,
         "localtime": 0.0, "formulas": 0.0, "surfaces": 0.0})
    assert metrics["paths.simulate_us"] == 4e6
    assert metrics["paths.euler_self_us"] == 3e6
    assert metrics["paths.grid_us"] == 1e6
    # medians over the two roots
    assert metrics["cli.overhead_ms"] == 2e3
    assert metrics["harness.self_s"] == 2.0
    assert metrics["paths.steps"] == 50.0


def test_unrecorded_span_is_absent_not_zero():
    metrics, _ = layertrace.layer_metrics(synthetic_tracer(with_grid=False))
    assert metrics["paths.simulate_us"] is None
    assert metrics["paths.steps"] is None
    assert metrics["surfaces.envelope_us"] is None
    assert metrics["surfaces.self_s"] is None
    assert metrics["paths.grid_us"] == 1e6


def test_missing_wrap_point_is_reported(cli_main, monkeypatch):
    import ltsurf.formulas
    monkeypatch.delattr(ltsurf.formulas, "iter_jumps")
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["ltsurf.formulas.iter_jumps"]


def test_traced_run_measures_every_per_layer_metric(cli_main):
    _, per_layer = run.load_spec()
    workloads = {name: smoke(name) for name in TRACED}
    record = worker.traced_run(cli_main, workloads["jump_coarse"], seed=2, seconds=0.0,
                               normals=1.0, workloads=workloads)
    assert set(record["layers"]) == set(per_layer)
    timings = [name for name, unit in per_layer.items() if unit in ("s", "ms", "us", "ns")]
    assert all(record["layers"][name] for name in timings)
    assert all(d["digests_match"] for d in record["trace_detail"].values())
    assert all(c["ok"] for c in record["calls"])


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "envelope",
         "--seed", "4", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.load_spec()[trace])
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(scratch):
    shutil.copytree(BENCH, os.path.join(scratch, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), scratch)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tanaka_fine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
