"""Every committed benchmark record says what it measured, against what, on
which machine, and with which commands, for every workload of the
benchmark: a number with no command does not count.  The README names
every record."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("topic", "parent", "method", "commands", "machine")
WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_is_complete(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in REQUIRED:
        assert record.get(key), f"{path.name}: '{key}' is missing or empty"
    # Every record covers each workload of the benchmark, the one a change
    # bypasses included.
    for workload in WORKLOADS:
        assert record.get("workloads", {}).get(workload), f"{path.name}: workload '{workload}' is missing"


def test_readme_names_every_bench_file():
    # The README's Benchmark section lists every record, so none is missed.
    readme = (ROOT / "README.md").read_text()
    assert [path.name for path in BENCH_FILES if path.name not in readme] == []
