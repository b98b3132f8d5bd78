"""Compare two commits with the benchmark, in alternating-order pairs.

    python3 bench/compare.py --a PARENT_CHECKOUT --b CHANGE_CHECKOUT \\
        --workload pairs-small --workload paths --pairs 10 --out results.jsonl
    python3 bench/compare.py --load results.jsonl

Both sides run this checkout's ``bench/run.py`` (identical benchmark code
and settings) against each side's ``src/``.  Pair i uses seed
``--seed + i`` on both sides; even pairs run A first, odd pairs B first.
For every workload and end-to-end metric the report gives each side's
median and quartiles, the fraction of pairs B wins (ties count for
neither), and a verdict: ``unresolved`` where either side's quartile
spread is wider than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(src: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--src", str(src),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(a: Path, b: Path, workloads, pairs: int, seed: int, seconds: float, out: Path) -> list[dict]:
    records = []
    with out.open("a") as fh:
        for w in workloads:
            for i in range(pairs):
                order = ("a", "b") if i % 2 == 0 else ("b", "a")
                for side in order:
                    src = (a if side == "a" else b) / "src"
                    rec = {"workload": w, "pair": i, "seed": seed + i, "side": side, "first": order[0],
                           "result": run_once(src, w, seed + i, seconds)}
                    fh.write(json.dumps(rec) + "\n")
                    fh.flush()
                    records.append(rec)
    return records


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a, b, pairs_won, bound, lower_is_better) -> str:
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
    spread_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0

    def better(x, y):
        return x < y if lower_is_better else x > y

    if max(spread_a, spread_b) > bound:
        return "better (every run)" if all(better(y, x) for x in a for y in b) else "unresolved"
    if pairs_won >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better"
    worse_by = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if not lower_is_better:
        worse_by = -worse_by
    return "worse" if worse_by > bound else "within bound"


def report(records, spec) -> list[dict]:
    rows = []
    for w in sorted({r["workload"] for r in records}):
        by_pair: dict[int, dict] = {}
        for r in records:
            if r["workload"] == w:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for p in by_pair.values() if "a" in p and "b" in p]
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a = [p["a"]["metrics"][name]["value"] for p in complete]
            b = [p["b"]["metrics"][name]["value"] for p in complete]
            if not a:
                continue
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            won = wins / len(a)
            rows.append({
                "workload": w, "metric": name, "unit": m["unit"], "pairs": len(a),
                "a_quartiles": quartiles(a), "b_quartiles": quartiles(b),
                "b_won_frac": won, "bound": m["bound"],
                "verdict": verdict(a, b, won, m["bound"], lower),
                "failed_a": sum(p["a"]["failed"] for p in complete),
                "failed_b": sum(p["b"]["failed"] for p in complete),
            })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, help="parent checkout (holds src/)")
    ap.add_argument("--b", type=Path, help="changed checkout (holds src/)")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=Path(".bench_compare.jsonl"))
    ap.add_argument("--load", type=Path, help="report on saved records instead of running")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.load:
        records = [json.loads(line) for line in args.load.read_text().splitlines() if line.strip()]
    else:
        if not (args.a and args.b and args.workload):
            ap.error("--a, --b and at least one --workload are required unless --load is given")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        records = collect(args.a, args.b, args.workload, args.pairs, args.seed, seconds, args.out)
    for row in report(records, spec):
        qa, qb = row["a_quartiles"], row["b_quartiles"]
        print(
            f"{row['workload']:<12} {row['metric']:<12} {row['unit']:<6} "
            f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
            f"B won {row['b_won_frac']:.0%} of {row['pairs']}  bound {row['bound']:.0%}  "
            f"failed A/B {row['failed_a']}/{row['failed_b']}  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
