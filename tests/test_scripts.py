"""The scripts under scripts/ run and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("window_growth.py", ["--max-level", "1"], ["box", "card", "pairs", "ratio", "ratio^2"]),
    ("two_point_convergence.py", ["--r-max", "2"],
     ["delta", "c_delta", "r=0", "r=2", "r=4", "r=2", "residual@rmax"]),
])
def test_script_prints_table(script, args, header):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert header in [line.split() for line in done.stdout.splitlines()]
