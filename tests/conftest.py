import os
import pathlib
import subprocess
import sys

import pytest

import hhlax

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def golden_dir() -> pathlib.Path:
    return GOLDEN_DIR


@pytest.fixture
def child_peak_rss_kb():
    """`run(code)` runs `code` in a fresh interpreter that imports the same
    hhlax as this process and returns the child's peak RSS in kB.  VmHWM
    counts the child only, while ru_maxrss would also count the parent's
    pages at fork time."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("peak RSS is read from /proc")
    package_root = str(pathlib.Path(hhlax.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    report = (
        "\nwith open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )

    def run(code: str) -> int:
        child = subprocess.run(
            [sys.executable, "-c", code + report],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": pythonpath},
        )
        return int(child.stdout)

    return run
