"""Every committed benchmark record says what it measured, against what, on
which machine, and with which commands: a number with no command does not
count."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("topic", "parent", "method", "commands", "machine")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_is_complete(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in REQUIRED:
        assert record.get(key), f"{path.name}: '{key}' is missing or empty"
