"""Run bookkeeping for the benchmark: operation and failure counts, check
residuals with replay keys, and in-memory spans for the traced run.

Spans are recorded only here, around the benchmark's own calls into the
library's public functions; nothing inside ``revfid`` is instrumented.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from revfid.errors import RevfidError


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty sample, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    """Collects spans ``(request, name, start, end)`` when enabled.

    A disabled tracer only forwards the call, so the untraced run pays one
    extra Python call per library call and nothing else.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float]] = []
        self.request = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.request, name, start, time.perf_counter()))

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end in self.spans:
            out[name].append(end - start)
        return out

    def glue_seconds(self) -> float:
        """Self time of the request spans: request time not inside a call span."""
        total = 0.0
        for req, name, start, end in self.spans:
            if name == "bench.request":
                total += end - start
            elif req >= 0:
                total -= end - start
        return total


class Ledger:
    """Attempted and failed operations, per-check residuals and replay keys.

    An operation is one library call plus the checks on its output.  It
    fails when the call raises a ``RevfidError`` or a check exceeds its
    tolerance; the rest of the request still runs.  ``known`` decides
    whether a failure is one of the documented open defects.
    """

    def __init__(self, seed: int, known):
        self.seed = seed
        self.known = known
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.layer_failed: dict[str, int] = defaultdict(int)
        self.checks: dict[str, dict] = {}
        self.failures: dict[str, dict] = {}
        self.attempts: dict[str, int] = defaultdict(int)
        self.completed: dict[str, int] = defaultdict(int)
        # (request index, operation name, offset): a deliberately wrong output
        # used by the self-test to prove that a bad value is counted
        self.canary: tuple[int, str, float] | None = None

    def check(self, name: str, residual: float, tol: float, index: int) -> bool:
        rec = self.checks.setdefault(
            name, {"max": float("-inf"), "tol": tol, "worst": None, "failed": 0, "count": 0}
        )
        rec["count"] += 1
        if residual > rec["max"] or rec["worst"] is None:
            rec["max"] = float(residual)
            rec["worst"] = [self.seed, index]
        ok = residual <= tol
        if not ok:
            rec["failed"] += 1
        return ok

    def fail(self, op: str, reasons: tuple[str, ...], inp, index: int) -> None:
        """Count one failed operation; ``reasons`` are the failed checks'
        names, or the exception's class name, or ``input_failed``."""
        self.failed += 1
        self.layer_failed[op.split(".")[0]] += 1
        known = bool(self.known(op, reasons, inp))
        if not known:
            self.unexpected += 1
        rec = self.failures.setdefault(
            f"{op}:{'+'.join(reasons)}", {"count": 0, "known": known, "first": [self.seed, index]}
        )
        rec["count"] += 1


class Request:
    """One request of a workload: issues operations and records their checks."""

    def __init__(self, ledger: Ledger, tracer: Tracer, index: int, inp):
        self.ledger = ledger
        self.tracer = tracer
        self.index = index
        self.inp = inp

    def op(self, layer: str, fn, *args, check=None, needs=()):
        """Call ``fn`` as one operation; returns its output, or None if it raised.

        ``check(out)`` yields ``(name, residual, tolerance)`` triples.  An
        operation whose inputs in ``needs`` are missing (an earlier one
        failed) counts as failed without being called.
        """
        name = f"{layer}.{fn.__name__}"
        led = self.ledger
        led.attempted += 1
        led.attempts[name] += 1
        if any(n is None for n in needs):
            led.fail(name, ("input_failed",), self.inp, self.index)
            return None
        try:
            out = self.tracer.call(name, fn, *args)
        except RevfidError as exc:
            led.fail(name, (type(exc).__name__,), self.inp, self.index)
            return None
        led.completed[name] += 1
        if led.canary is not None and led.canary[:2] == (self.index, name):
            out = out + led.canary[2]
        if check is not None:
            bad = tuple(c for c, res, tol in check(out) if not led.check(c, res, tol, self.index))
            if bad:
                led.fail(name, bad, self.inp, self.index)
        return out


def run_requests(requests, handler, ledger: Ledger, tracers, budget_s: float):
    """Cycle through the fixed list of ``(index, input)`` requests, one pass
    per tracer in turn, until ``budget_s`` has passed and every tracer has
    made one full pass; the last pass may stop part-way.

    Returns, per tracer, the latencies of each request (one list per
    request, in list order) and the number of full passes.
    """
    samples = [[[] for _ in requests] for _ in tracers]
    full = [0] * len(tracers)
    t_end = time.perf_counter() + budget_s
    while True:
        for k, tracer in enumerate(tracers):
            for j, (i, inp) in enumerate(requests):
                if full[-1] and time.perf_counter() >= t_end:
                    tracer.request = -1
                    return samples, full
                tracer.request = i
                t0 = time.perf_counter()
                handler(Request(ledger, tracer, i, inp))
                t1 = time.perf_counter()
                samples[k][j].append(t1 - t0)
                if tracer.enabled:
                    tracer.spans.append((i, "bench.request", t0, t1))
            tracer.request = -1
            full[k] += 1


def mean_latencies(samples) -> list[float]:
    """Each request's mean latency over the run.

    On a shared 2-vCPU host the same work runs up to 1.7x slower in phases
    of seconds to minutes, so a median over all samples flips between the
    fast and the slow mode; a mean over the whole run does not.
    """
    return [statistics.fmean(s) for s in samples]
