"""Smoke tests: the scripts in scripts/ run to completion on their defaults."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def printed(out, label):
    return float(re.search(rf"^{label}\s*=\s*(\S+)", out, re.MULTILINE).group(1))


def test_geodesic_demo_runs_and_sandwiches_fr():
    proc = run_script("geodesic_demo.py")
    assert proc.returncode == 0, proc.stderr
    fmin = printed(proc.stdout, "f_min")
    fu = printed(proc.stdout, "uhlmann")
    fr = printed(proc.stdout, "fr_estimate")
    assert fmin - 1e-8 <= fr <= fu + 1e-8


def test_triangle_scan_runs():
    proc = run_script("triangle_scan.py", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 4  # header and one row per step
