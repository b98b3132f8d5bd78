"""Floor probe for the traced run: raw LAPACK and ``linalg`` primitives timed
on a workload's own matrices, and the scalar quantities at the ROADMAP's
baseline sizes printed beside the ROADMAP's numbers.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from revfid.divergences import f_min, uhlmann_fidelity
from revfid.errors import RevfidError
from revfid.geometry import fr_estimate
from revfid.linalg import eig_hermitian, geometric_mean, matrix_sqrt
from revfid.states import random_density

LAPACK = {
    "eigh": np.linalg.eigh,
    "eigvalsh": np.linalg.eigvalsh,
    "cholesky": np.linalg.cholesky,
    "inv": np.linalg.inv,
}
PROBE_PAIRS = 12
PROBE_REPS = 3

# ROADMAP baseline (re-anchor measurement, BLAS at one thread, medians)
BASELINE_DIMS = (2, 8, 32, 64, 128)
ROADMAP_US = {
    "f_min": {2: 86, 8: 107, 32: 456, 64: 1845, 128: 9319},
    "uhlmann_fidelity": {2: 46, 8: 58, 32: 239, 64: 1095, 128: 5569},
    "fr_estimate": {2: 74_000},
}


def probe_workload(pairs, tracer) -> None:
    """Record ``lapack.*``, ``linalg.*`` and ``probe.f_min`` spans.

    Takes up to PROBE_PAIRS pairs spread evenly over the workload's list,
    so every dimension the workload cycles through is represented.
    """
    step = max(1, len(pairs) // PROBE_PAIRS)
    for rho, sigma in pairs[::step][:PROBE_PAIRS]:
        for _ in range(PROBE_REPS):
            for name, fn in LAPACK.items():
                tracer.call(f"lapack.{name}", fn, rho.mat)
            try:
                tracer.call("linalg.matrix_sqrt", matrix_sqrt, rho.matrix)
                tracer.call("linalg.geometric_mean", geometric_mean, rho.matrix, sigma.matrix)
                tracer.call("linalg.eig_hermitian", eig_hermitian, rho.matrix)
                tracer.call("probe.f_min", f_min, rho, sigma)
            except RevfidError:
                pass


def _median_us(fn, *args, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def baseline_sizes(seed: int) -> dict:
    """f_min, uhlmann_fidelity and fr_estimate (3 control points, 6
    iterations) at the ROADMAP's sizes, with the ROADMAP's value beside."""
    out = {}
    for d in BASELINE_DIMS:
        rho = random_density(d, d, seed + d)
        sigma = random_density(d, d, seed + d + 1)
        row = {
            "f_min": _median_us(f_min, rho, sigma, reps=5),
            "uhlmann_fidelity": _median_us(uhlmann_fidelity, rho, sigma, reps=5),
            "fr_estimate": _median_us(fr_estimate, rho, sigma, 3, 6, seed, reps=1),
        }
        out[str(d)] = {
            fn: {"us": round(us, 1), "roadmap_us": ROADMAP_US[fn].get(d)} for fn, us in row.items()
        }
    return out
