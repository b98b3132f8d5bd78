"""Smoke tests: the scripts in scripts/ run to completion on their defaults."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

from revfid.cli import main

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
    assert printed(proc.stdout, "flow endpoint residual") < 1e-5


def test_triangle_scan_runs():
    proc = run_script("triangle_scan.py", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 4  # header and one row per step


def test_triangle_scan_matches_counterexample_command(capsys):
    steps = 3
    proc = run_script("triangle_scan.py", "--steps", str(steps))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.strip().splitlines()[1:]]
    for k, row in enumerate(rows, start=1):
        theta = k * (math.pi / 2) / (steps + 1)
        printed = {}
        for name in ("triangle-fmin", "triangle-deltamax"):
            main(["counterexample", name, "--theta", repr(theta)])
            printed.update(line.split() for line in capsys.readouterr().out.splitlines())
        expected = [printed["fmin_psi_tau"], printed["angle_defect"], printed["triangle_defect"]]
        assert row[1:] == [f"{float(x):.6f}" for x in expected]
