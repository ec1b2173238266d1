"""The benchmark's own operations run on this tree and pass their gates.

`perfbench/workloads.py` is loaded by its path, leaving `sys.path` as it is
and writing no bytecode next to it, so that a change to the API the
benchmark uses (its entry points, the trajectory readers, the summary keys)
fails here rather than only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeded_operations_pass_their_gates(name, monkeypatch):
    workload = _load_workloads(monkeypatch).make(name, str(ROOT))
    workload.setup()
    for index in range(4):
        op = workload.make_op(7, index)
        assert workload.check(op, workload.run(op)) is None
