"""revfid benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload pairs-small --seed 1 --seconds 30 --trace 0

Prints a report line (environment, check residuals with replay keys,
failure breakdown) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones.  ``--replay I`` runs request I of the seeded list once and prints
its report.  The library is imported from ``src/`` of the checkout this
file lives in (or ``--src``), never from an installed copy.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are fixed before numpy can be imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_CHILDREN = 2  # setup_s is the median of this many children plus this process
LAYERS = ("lapack", "linalg", "states", "divergences", "reverse_tests", "geometry", "cli")
# pairs-large is not in BENCHMARK.json (see bench/README.md) but stays runnable
WORKLOAD_NAMES = ("pairs-small", "pairs-large", "paths", "suite")


class SetupError(RuntimeError):
    """The library or the benchmark description cannot be loaded."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def import_library(src: Path):
    """Import revfid from ``src`` and fail unless that is where it came from."""
    src = src.resolve()
    if not (src / "revfid" / "__init__.py").is_file():
        raise SetupError(f"no revfid package under {src}")
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    revfid = importlib.import_module("revfid")
    if not Path(revfid.__file__).resolve().is_relative_to(src):
        raise SetupError(f"revfid imported from {revfid.__file__}, not from {src}")
    return revfid


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise SetupError("no Threads line in /proc/self/status")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": thread_count(),
        "blas_threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _median_or_zero(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def per_layer_values(names, tracer, ledger, extra) -> dict:
    """Resolve ``<layer>.<fn>.{calls,busy_s,p50_us}``, ``<layer>.busy_share``,
    ``<layer>.failed`` and the derived names in ``extra`` from the spans."""
    durations = tracer.durations()
    layer_busy = {
        layer: sum(sum(ds) for n, ds in durations.items() if n.startswith(layer + "."))
        for layer in LAYERS
    }
    total = sum(layer_busy.values()) + extra["bench.glue_s"]
    values = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif tail == "calls":
            values[name] = len(durations.get(head, []))
        elif tail == "busy_s":
            values[name] = sum(durations.get(head, []))
        elif tail == "p50_us":
            values[name] = _median_or_zero(durations.get(head, [])) * 1e6
        elif tail == "busy_share" and head in LAYERS:
            values[name] = layer_busy[head] / total if total > 0 else 0.0
        elif tail == "failed" and head in LAYERS:
            values[name] = ledger.layer_failed.get(head, 0)
        else:
            raise SetupError(f"BENCHMARK.json names unknown per-layer metric {name}")
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, requests=None, replay=None, canary=None):
    """Set up and run one workload; returns (report, values, ledger).

    ``values`` maps every metric this mode computes to its number.
    """
    import floor
    from harness import Ledger, Tracer, mean_latencies, percentile, run_requests
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    n = requests or wl.requests
    traced = Tracer(trace)
    inputs = wl.make_inputs(seed, n, traced.call)
    setup_s = time.perf_counter() - T_START
    indexed = list(enumerate(inputs)) if replay is None else [(replay, inputs[replay])]
    ledger = Ledger(seed, wl.known)
    ledger.canary = canary
    untraced = Tracer(False)
    tracers = [untraced, traced] if trace else [untraced]
    samples, full_passes = run_requests(indexed, wl.handle, ledger, tracers, 0.0 if replay is not None else seconds)
    per_request = mean_latencies(samples[0])
    values = {
        "wall_s": sum(per_request),
        "req_p50_ms": percentile(per_request, 50) * 1e3,
        "req_p90_ms": percentile(per_request, 90) * 1e3,
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "requests": len(indexed),
        "passes": full_passes[0],
        "latency_samples": sum(len(s) for s in samples[0]),
        "attempted": ledger.attempted,
        "failed_open_defects": ledger.failed - ledger.unexpected,
        "failed_unexpected": ledger.unexpected,
        "failures": ledger.failures,
        "checks": ledger.checks,
    }
    if trace:
        floor.probe_workload(wl.probe_pairs(inputs), traced)
        report["baseline_sizes"] = floor.baseline_sizes(seed)
        spans = traced.durations()
        rld = "geometry.rld_geodesic_flow"
        route_gap = ledger.checks.get("route_gap")
        eigh_p50 = _median_or_zero(spans.get("lapack.eigh", []))
        values.update({
            "divergences.f_min.floor_ratio": _median_or_zero(spans.get("probe.f_min", [])) / eigh_p50 if eigh_p50 else 0.0,
            "divergences.route_gap.max": route_gap["max"] if route_gap else 0.0,
            "geometry.rld_geodesic_flow.completed_frac": ledger.completed[rld] / ledger.attempts[rld] if ledger.attempts[rld] else 0.0,
            "bench.glue_s": traced.glue_seconds(),
            "bench.trace_overhead_frac": sum(mean_latencies(samples[1])) / values["wall_s"] - 1.0,
            "bench.failed_frac": ledger.failed / ledger.attempted,
        })
        values.update(per_layer_values([m["name"] for m in load_spec()["per_layer"]], traced, ledger, values))
    return report, values, ledger


def setup_samples(args) -> list[float]:
    """Setup time of fresh processes: import plus input generation, each run
    to completion before the next starts."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--src", str(args.src),
    ]
    if args.requests:
        cmd += ["--requests", str(args.requests)]
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0, help="measurement budget; at least one full pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the revfid package")
    ap.add_argument("--requests", type=int, default=None, help="shorter request list, for smoke tests")
    ap.add_argument("--replay", type=int, default=None, metavar="I", help="run request I once and report it")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_library(args.src)
    except (SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        wl.make_inputs(args.seed, args.requests or wl.requests, lambda _n, fn, *a: fn(*a))
        print(time.perf_counter() - T_START)
        return 0

    report, values, ledger = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.requests, args.replay
    )
    if args.replay is not None:
        print(json.dumps({"report": report}, sort_keys=True))
        return 0
    if not args.trace:
        samples = [values["setup_s"]] + setup_samples(args)
        report["setup_samples_s"] = samples
        values["setup_s"] = statistics.median(samples)
    report["environment"] = env = environment()
    if env["threads"] > 1:
        print(f"bench: {env['threads']} threads running, BLAS pinning failed; no result", file=sys.stderr)
        return 3
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    # ``failed`` counts only failures outside the documented open defects,
    # so it is 0 on a correct run; the open defects stay counted in ok_frac,
    # in the per-layer failure counts and in the report with replay keys.
    result = {
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": ledger.unexpected,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
