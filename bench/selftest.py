"""Self-tests of the benchmark itself (not of revfid).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They check that a tiny run of every workload prints every metric named in
BENCHMARK.json with its unit, that a deliberately wrong output (canary) is
counted as a failed operation, that a recorded worst case replays to the
same residual, that compare verdicts follow their rules, and that the
benchmark refuses to report without the library beside it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_tiny_runs_print_every_metric():
    for w in run.WORKLOAD_NAMES:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run("--workload", w, "--seed", "3", "--seconds", "0", "--trace", trace, "--requests", "3")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and isinstance(result["failed"], int)
            # open defects are counted in ok_frac, not in failed
            assert result["correct"] and result["failed"] == 0, (w, trace, result["failed"])
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (w, trace, set(got) ^ set(expected))
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def _measure(**kw):
    run.import_library(ROOT / "src")
    return run.measure("pairs-small", seed=1, seconds=0.0, trace=False, requests=9, **kw)


def test_canary_is_counted():
    _, clean_values, clean = _measure()
    _, values, led = _measure(canary=(0, "divergences.uhlmann_fidelity", 1e-6))
    assert led.failed == clean.failed + 1
    assert led.unexpected == clean.unexpected + 1  # request 0 is well-conditioned
    assert values["ok_frac"] < clean_values["ok_frac"]


def test_worst_case_replays():
    report, _, _ = _measure()
    seed, index = report["checks"]["route_gap"]["worst"]
    replay, _, _ = run.measure("pairs-small", seed=seed, seconds=0.0, trace=False, requests=9, replay=index)
    assert replay["checks"]["route_gap"]["max"] == report["checks"]["route_gap"]["max"]


def test_compare_verdicts():
    same = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [x * 0.5 for x in same]
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 1.0, 2.2]
    assert compare.verdict(same, same, 0.0, 0.1, True) == "within bound"
    assert compare.verdict(same, faster, 1.0, 0.1, True) == "better"
    assert compare.verdict(same, [x * 1.5 for x in same], 0.0, 0.1, True) == "worse"
    assert compare.verdict(noisy, noisy, 0.5, 0.1, True) == "unresolved"


def test_refuses_without_library():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest_") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
