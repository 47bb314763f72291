"""Smoke runs of the command-line scripts under scripts/."""

import json
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


def test_run_harness_writes_a_report(tmp_path):
    out = tmp_path / "harness.json"
    proc = run_script("run_harness.py", "--trials", "3", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "ok=True" in proc.stdout
    assert json.loads(out.read_text())["trials"] == 3


def test_run_harness_refuses_bounds_without_a_traceback():
    proc = run_script("run_harness.py", "--max-vertices", "2")
    assert proc.returncode != 0
    assert proc.stderr.startswith("refused:")
    assert "Traceback" not in proc.stderr


def test_worked_example_runs():
    proc = run_script("worked_example.py")
    assert proc.returncode == 0, proc.stderr
