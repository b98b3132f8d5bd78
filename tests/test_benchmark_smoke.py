"""The benchmark runs end to end on a few requests of each workload.

Only a traced run reaches the library calls that ``bench/floor.py`` probes
(``geometric_mean``, ``eig_hermitian``, ``matrix_sqrt``), so a change to the
library surface the benchmark uses fails here rather than only as a failed
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [("pairs-small", 1), ("paths", 0), ("suite", 0)])
def test_benchmark_smoke(workload, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--requests", "3", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
