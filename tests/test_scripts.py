"""Smoke runs of the command-line scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_sweep_dual_routes_small_bounds():
    proc = run_script("sweep_dual_routes.py", "--max-vertices", "3")
    assert proc.returncode == 0, proc.stderr
    assert "disagreements=0" in proc.stdout
    assert "checked=0" not in proc.stdout


def test_worked_example_runs():
    proc = run_script("worked_example.py")
    assert proc.returncode == 0, proc.stderr
