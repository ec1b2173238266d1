"""Tests of the benchmark itself: seeded inputs, gates, tracing.

Run with: python -m pytest perfbench/tests
"""

import copy
import math
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from tracing import Tracer, instrument
import workloads
from workloads import Cli, Exact, Flow

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.mark.parametrize("cls", [Flow, Exact, Cli])
def test_inputs_depend_only_on_seed_and_index(cls):
    first = [cls.make_op(3, i) for i in range(50)]
    assert first == [cls.make_op(3, i) for i in range(50)]
    assert first != [cls.make_op(4, i) for i in range(50)]


def _short_flow_op():
    op = Flow.make_op(5, 0)
    op["runs"] = op["runs"][:3]
    op["runs"][0]["duration"] = op["runs"][1]["duration"] = 0.2
    return op


def test_flow_gate_accepts_a_real_operation():
    op = _short_flow_op()
    assert Flow.check(op, Flow().run(op)) is None


def test_flow_gate_rejects_drift():
    op = _short_flow_op()
    result = Flow().run(op)
    summary, first, last, end = result[1]
    result[1] = ({**summary, "eigenvalue_drift": 1e-6}, first, last, end)
    assert "eigenvalue_drift" in Flow.check(op, result)


def test_flow_gate_rejects_an_open_loop():
    op = _short_flow_op()
    result = Flow().run(op)
    summary, first, last, end = result[2]
    result[2] = (summary, first, replace(last, p2=last.p2 + 1e-7), end)
    assert "closure" in Flow.check(op, result)


def test_flow_gate_rejects_a_short_run():
    op = _short_flow_op()
    result = Flow().run(op)
    op = copy.deepcopy(op)
    op["runs"][0]["duration"] += 1e-3
    assert "ended at" in Flow.check(op, result)


def _exact_op(corrupt: bool):
    index = next(i for i in range(100) if Exact.make_op(2, i)["corrupt"] == corrupt)
    op = Exact.make_op(2, index)
    op["k"] = -9
    return op


@pytest.mark.parametrize("corrupt", [False, True])
def test_exact_gate_accepts_real_operations(corrupt):
    op = _exact_op(corrupt)
    assert Exact.check(op, Exact().run(op)) is None


@pytest.mark.parametrize("corrupt", [False, True])
def test_exact_gate_rejects_a_wrong_verdict(corrupt):
    op = _exact_op(corrupt)
    result = Exact().run(op)
    name, passed = result["verdicts"][-1]
    result["verdicts"][-1] = (name, not passed)
    assert Exact.check(op, result) is not None


def test_exact_gate_rejects_a_wrong_rung():
    op = _exact_op(False)
    result = Exact().run(op)
    v1, v2 = result["rung"]
    result["rung"] = (v1, v2 + 1)
    assert "rung" in Exact.check(op, result)


def test_every_seeded_corruption_fails_its_check():
    """The known answer of a corrupted input is FAIL; the generator must
    never produce a corruption that the identity happens to absorb."""
    exact = Exact()
    ops = [op for op in (Exact.make_op(seed, 0) for seed in range(400)) if op["corrupt"]]
    assert len({(op["check"], op["target"]) for op in ops}) >= 15
    for op in ops:
        op["k"] = 0
        result = exact.run(op)
        assert Exact.check(op, result) is None, op


@pytest.fixture(scope="module")
def cli():
    bench = Cli(str(ROOT))
    bench.setup()
    return bench


def _cli_run(cli, kind):
    index = next(i for i in range(200) if Cli.make_op(1, i)["kind"] == kind)
    op = Cli.make_op(1, index)
    return op, cli.run(op)


@pytest.mark.parametrize("kind", Cli.KINDS)
def test_cli_gate_accepts_every_kind(cli, kind):
    op, result = _cli_run(cli, kind)
    try:
        assert cli.check(op, result) is None
    finally:
        cli.cleanup(result)


def test_cli_gate_rejects_a_failed_verify(cli):
    op, result = _cli_run(cli, "verify")
    cli.cleanup(result)
    result["stdout"] = result["stdout"].replace("7/7 checks passed", "6/7 checks passed")
    assert "7/7" in cli.check(op, result)


def test_cli_gate_rejects_a_nonzero_exit(cli):
    op, result = _cli_run(cli, "potential")
    cli.cleanup(result)
    assert "exit code" in cli.check(op, {**result, "returncode": 3})


def test_cli_gate_rejects_another_rung(cli):
    op, result = _cli_run(cli, "potential")
    cli.cleanup(result)
    result["stdout"] = result["stdout"].replace("v2 = ", "v2 = 1 + ", 1)
    assert "rung" in cli.check(op, result)


@pytest.mark.parametrize("kind", ["simulate_dp45_csv", "pfaffian"])
def test_cli_gate_rejects_a_missing_row(cli, kind):
    op, result = _cli_run(cli, kind)
    try:
        path = Path(result["workdir"]) / "out.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        assert "rows written" in cli.check(op, result)
    finally:
        cli.cleanup(result)


def test_cli_gate_rejects_another_header(cli):
    op, result = _cli_run(cli, "simulate_rk4_json")
    try:
        path = Path(result["workdir"]) / "out.json"
        payload = json.loads(path.read_text())
        payload["columns"][-1] = "eig_im_x"
        path.write_text(json.dumps(payload))
        assert "header" in cli.check(op, result)
    finally:
        cli.cleanup(result)


def test_cli_gate_rejects_a_wrong_eigenvalue(cli):
    op, result = _cli_run(cli, "spectral")
    cli.cleanup(result)
    lines = result["stdout"].splitlines(keepends=True)
    last = lines[-1]
    lines[-1] = last.replace(": ", ": 1", 1) if ": -" not in last else last.replace(": -", ": ", 1)
    result["stdout"] = "".join(lines)
    assert cli.check(op, result) is not None


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.add("dynamics.a", 0.0, 10.0, -1)
    inner = tracer.add("kernels.b", 2.0, 5.0, outer)
    tracer.add("kernels.c", 3.0, 4.0, inner)
    assert tracer.self_time(outer) == 7.0
    assert tracer.self_time(inner) == 2.0


def test_traced_run_records_spans_and_restores_the_package():
    from hhlax import dynamics, kernels, verify

    originals = (dynamics.integrate_autonomous, verify.CHECKS, kernels.CompiledPolySet.__call__)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        verify.run_checks()
        dynamics.integrate_autonomous(2, dynamics.PhaseState(1.0, 1.0, 0.0, 0.0), 0.05)
    finally:
        restore()
    assert originals == (dynamics.integrate_autonomous, verify.CHECKS, kernels.CompiledPolySet.__call__)
    names = {tracer.name(i) for i in range(len(tracer))}
    assert {"verify.run_checks", "verify.registry.frobenius", "dynamics.integrate_autonomous",
            "kernels.call.4", "kernels.call.2", "kernels.call.1"} <= names


def test_fails_without_the_package(tmp_path):
    """In a directory with only the benchmark, the run must fail and print
    no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_describes_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in run.PER_LAYER.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_a_short_run_prints_every_metric(trace, names):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert list(result["metrics"]) == list(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == (names[name] if trace == 0 else names[name][0])
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
