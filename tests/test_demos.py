"""Each demo runs as a script; the search demos run with a budget of 2.

A budget that small cannot find an attaching walk, so demos 03 and 04 must
report the failed search and exit 1 rather than crash.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", ["01_census_and_characters.py",
                                    "02_dimension_counts.py"])
def test_demo_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("script", ["03_orbit_graph_acyclicity.py",
                                    "04_partition_of_unity.py"])
def test_search_demo_reports_failed_search(script):
    proc = _run(script, "2")
    assert proc.returncode == 1, proc.stderr
    assert "no path within budget:" in proc.stdout
    assert "Traceback" not in proc.stderr
