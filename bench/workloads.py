"""The four benchmark workloads: seeded inputs, the calls one request makes,
and the checks on every output.

Every check compares a library output with an independent route computed
here with plain numpy, at a tolerance the repository's tests already use
(cited beside each constant).  Where the library is known to be wrong the
failure is counted, not hidden: see ``known`` on each workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from revfid import cli
from revfid.divergences import (
    OperatorMonotoneSpec,
    delta_max_bounds,
    f_f_min,
    f_min,
    f_min_via_geomean,
    reverse_relative_entropy,
    uhlmann_fidelity,
)
from revfid.geometry import (
    TangentPoint,
    commutative_geodesic_flow,
    curve_length,
    expansion_check,
    fisher_both,
    fmin_geodesic,
    fr_estimate,
    geodesic_start,
    rld_geodesic_flow,
    tangent_reverse_estimation,
)
from revfid.reverse_tests import minimal_reverse_test, verify_reverse_test
from revfid.states import make_density, random_density, random_tangent

# Tolerances, each as the repository's tests or suite defaults state it.
TOL_ROUTE_GAP = 1e-9  # criterion 1: relative gap f_min vs f_min_via_geomean
TOL_SYMMETRY = 1e-9  # test_properties: |f_min(rho, sigma) - f_min(sigma, rho)|
TOL_FIDELITY_ORDER = 1e-10  # test_properties: f_min <= uhlmann
TOL_UHLMANN = 1e-9  # test_properties: uhlmann equals the classical value
TOL_CLOSED_FORM = 1e-10  # test_divergences: f_f_min and D^R closed forms
TOL_BOUNDS_ORDER = 1e-10  # test_properties: delta_max_bounds ordering
TOL_RT_FIDELITY = 1e-9  # criterion 2: |F(p, q) - f_min|
TOL_RT_RESIDUAL = 1e-7  # suite default reverse_test_residual
TOL_SANDWICH = 1e-8  # criterion 3: f_min <= fr <= uhlmann
TOL_HALF_LENGTH = 1e-6  # suite default geodesic_length
TOL_ARC_TIME = 1e-9  # test_geodesic_start_is_unit_speed
TOL_UNIT_SPEED = 1e-8  # test_geodesic_start_is_unit_speed
TOL_FLOW_ENDPOINT = 1e-5  # test_commutative_flow_reaches_sigma, 500 steps
TOL_RLD_DRIFT = 1e-4  # test_rld_flow_unit_speed_drift
TOL_FISHER_ORDER = 1e-9  # suite default fisher_order
TOL_TANGENT_FISHER = 1e-8  # suite default tangent_fisher

FLOW_STEPS = 500  # as test_commutative_flow_reaches_sigma
ALPHAS = (0.25, 0.5, 0.75)
SPECS = {a: OperatorMonotoneSpec.power(a) for a in ALPHAS}
SMALL_DIMS = (2, 3, 4)
LARGE_DIMS = (32, 64, 128)
WELL_MIX = 0.1  # weight of I/d mixed into pairs-large states: lambda_min >= 0.1/d
# Below this least eigenvalue a state counts as ill-conditioned: the f_min
# route error grows like 1/lambda_min (ROADMAP D) and reaches the 1e-10 to
# 1e-9 tolerances near lambda_min = 1e-5.
ILL_LAMBDA_MIN = 1e-4


def trace_norm_herm(x: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(0.5 * (x + x.conj().T))).sum())


class PairOracle:
    """f_min, f_f_min, D^R and Uhlmann fidelity by routes the library does not take.

    The library always takes rho as the base of the geometric mean and
    inverts sigma for D^R.  Here the better-conditioned state B is the base
    and the other state A enters through Z = B^-1/2 A B^-1/2, using
    rho #_a sigma = sigma #_(1-a) rho, D^R = tr sigma X ln X with
    X = sigma^-1/2 rho sigma^-1/2 (Belavkin-Staszewski form), and
    D^R = tr rho ln(rho^1/2 sigma^-1 rho^1/2) when rho is the base.  Uhlmann's fidelity is the
    trace norm of sqrt(rho) sqrt(sigma), from a singular value decomposition.
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray):
        wr, vr = np.linalg.eigh(rho)
        ws, vs = np.linalg.eigh(sigma)
        r_half = (vr * np.sqrt(np.clip(wr, 0.0, None))) @ vr.conj().T
        s_half = (vs * np.sqrt(np.clip(ws, 0.0, None))) @ vs.conj().T
        self.uhlmann = float(np.linalg.svd(r_half @ s_half, compute_uv=False).sum())
        self._sigma_base = ws[0] >= wr[0]
        wb, vb, base, other = (ws, vs, sigma, rho) if self._sigma_base else (wr, vr, rho, sigma)
        b_ihalf = (vb / np.sqrt(wb)) @ vb.conj().T
        z = b_ihalf @ other @ b_ihalf
        wz, vz = np.linalg.eigh(0.5 * (z + z.conj().T))
        self._wz = np.clip(wz, 0.0, None)
        # tr(B g(Z)) = sum_i g(wz_i) <v_i|B|v_i>
        self._weights = np.einsum("ij,ik,kj->j", vz.conj(), base, vz).real
        self.fmin = self.ffmin(0.5)
        if self._sigma_base:
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.where(self._wz > 0, self._wz * np.log(self._wz), 0.0)
            self.d_reverse = float(g @ self._weights)
        else:
            # W = rho^1/2 sigma^-1 rho^1/2 is Z^-1, built directly so its large
            # eigenvalues (those that dominate the logarithm) keep full accuracy
            w = r_half @ ((vs / ws) @ vs.conj().T) @ r_half
            ww, vw = np.linalg.eigh(0.5 * (w + w.conj().T))
            weights = np.einsum("ij,ik,kj->j", vw.conj(), rho, vw).real
            self.d_reverse = float(np.log(ww) @ weights)

    def ffmin(self, alpha: float) -> float:
        """tr(rho #_alpha sigma)."""
        power = 1.0 - alpha if self._sigma_base else alpha
        return float(self._wz**power @ self._weights)


def rld_fisher_ref(rho: np.ndarray, v: np.ndarray) -> float:
    return float(np.trace(v @ np.linalg.solve(rho, v)).real)


# ----------------------------------------------------------------- inputs


@dataclass(frozen=True)
class PairInput:
    rho: object
    sigma: object
    lambda_min: float  # smaller of the two states' least eigenvalues
    seed: int


def pair_input(rho, sigma, seed: int) -> PairInput:
    return PairInput(rho, sigma, min(rho.min_eigenvalue(), sigma.min_eigenvalue()), seed)


@dataclass(frozen=True)
class PathInput:
    rho: object
    sigma: object
    tangent: TangentPoint
    seed: int


@dataclass(frozen=True)
class SuiteInput:
    config: cli.RunConfig


def _request_seeds(seed: int, tag: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(0, 2**30, size=n)]


def pairs_small_inputs(seed: int, n: int, call) -> list[PairInput]:
    """d cycles over 2, 3, 4; every third block of three rho (one per d)
    mixes a rank-ceil(d/2) state with eps I/d, eps log-uniform in [1e-9, 1].

    The eps draws are stratified (one per equal slice of log10 eps, slices
    shuffled) so each run sees the same spread of conditioning and the
    failure count does not swing with the seed.
    """
    seeds = _request_seeds(seed, 1, n)
    ill_idx = [i for i in range(n) if (i // 3) % 3 == 2]
    rng = np.random.default_rng([seed, 11])
    k = len(ill_idx)
    log_eps = -9.0 + 9.0 * (rng.permutation(k) + rng.random(k)) / max(k, 1)
    eps = dict(zip(ill_idx, 10.0**log_eps))
    out = []
    for i, s in enumerate(seeds):
        d = SMALL_DIMS[i % 3]
        sigma = call("states.random_density", random_density, d, d, s + 1)
        if i in eps:
            base = call("states.random_density", random_density, d, math.ceil(d / 2), s)
            mixed = (1.0 - eps[i]) * base.mat + eps[i] * np.eye(d) / d
            rho = call("states.make_density", make_density, mixed)
        else:
            rho = call("states.random_density", random_density, d, d, s)
        out.append(pair_input(rho, sigma, s))
    return out


def pairs_large_inputs(seed: int, n: int, call) -> list[PairInput]:
    seeds = _request_seeds(seed, 2, n)

    def well(d, s):
        r = call("states.random_density", random_density, d, d, s)
        return call("states.make_density", make_density, (1 - WELL_MIX) * r.mat + WELL_MIX * np.eye(d) / d)

    return [
        pair_input(well(LARGE_DIMS[i % 3], s), well(LARGE_DIMS[i % 3], s + 1), s)
        for i, s in enumerate(seeds)
    ]


def paths_inputs(seed: int, n: int, call) -> list[PathInput]:
    out = []
    for i, s in enumerate(_request_seeds(seed, 3, n)):
        d = SMALL_DIMS[i % 3]
        rho = call("states.random_density", random_density, d, d, s)
        sigma = call("states.random_density", random_density, d, d, s + 1)
        trho, vel = call("states.random_tangent", random_tangent, d, s + 2)
        out.append(PathInput(rho, sigma, TangentPoint(trho, vel), s))
    return out


def suite_inputs(seed: int, n: int, call) -> list[SuiteInput]:
    return [
        SuiteInput(cli.RunConfig(seed=s, trials=1, dims=(SMALL_DIMS[i % 3],)))
        for i, s in enumerate(_request_seeds(seed, 4, n))
    ]


# --------------------------------------------------------------- requests


def pairs_request(req) -> None:
    x = req.inp
    rho, sigma = x.rho, x.sigma
    o = PairOracle(rho.mat, sigma.mat)
    fm = req.op(
        "divergences", f_min, rho, sigma,
        check=lambda v: [("f_min_vs_reference", abs(v - o.fmin), TOL_SYMMETRY)],
    )
    req.op(
        "divergences", f_min_via_geomean, rho, sigma,
        check=lambda v: [] if fm is None else [("route_gap", abs(v - fm) / max(fm, 1e-12), TOL_ROUTE_GAP)],
    )
    req.op(
        "divergences", uhlmann_fidelity, rho, sigma,
        check=lambda v: [
            ("uhlmann_vs_svd", abs(v - o.uhlmann), TOL_UHLMANN),
            ("f_min_below_uhlmann", o.fmin - v, TOL_FIDELITY_ORDER),
        ],
    )
    for a in ALPHAS:
        req.op(
            "divergences", f_f_min, rho, sigma, SPECS[a],
            check=lambda v, a=a: [("f_f_min_vs_reference", abs(v - o.ffmin(a)), TOL_CLOSED_FORM)],
        )
    req.op(
        "divergences", reverse_relative_entropy, rho, sigma,
        check=lambda v: [("d_reverse_vs_reference", abs(v - o.d_reverse), TOL_CLOSED_FORM)],
    )
    req.op(
        "divergences", delta_max_bounds, rho, sigma,
        check=lambda b: [
            ("delta_bounds_order", max(b.lower - b.upper_via_measurement, b.upper_via_measurement - b.upper), TOL_BOUNDS_ORDER),
            ("delta_lower_is_1_minus_f_min", abs(b.lower - (1.0 - o.fmin)), TOL_SYMMETRY),
        ],
    )
    rt = req.op(
        "reverse_tests", minimal_reverse_test, rho, sigma,
        check=lambda t: [("reverse_test_fidelity", abs(float(np.sqrt(t.p.weights * t.q.weights).sum()) - o.fmin), TOL_RT_FIDELITY)],
    )
    req.op(
        "reverse_tests", verify_reverse_test, rt, rho, sigma, TOL_RT_RESIDUAL,
        needs=(rt,),
        check=lambda r: [("reverse_test_residual", max(r.rho_residual, r.sigma_residual), TOL_RT_RESIDUAL)],
    )


def _unit_speed_drift(curve, total: float) -> float:
    return max(
        abs(rld_fisher_ref(s.mat, v.entries) / total**2 - 1.0)
        for s, v in zip(curve.states, curve.velocities)
    )


def _expansion_gap(tp, rep, j_rld: float) -> float:
    """Largest difference between the reported residuals
    |f_min(rho, rho + eps v) - (1 - eps^2 J^R / 8)| and the same residuals
    from the reference f_min route.

    The fitted slope is not checked: the tests pin it to [2.7, 3.3] only on
    hand-picked tangents, and on random ones the cubic term can vanish
    (slope near 4) or the fit can sit before the asymptotic regime.
    """
    rho = tp.state.mat
    gaps = []
    for eps, res in zip(rep.eps, rep.residuals):
        shifted = rho + eps * tp.velocity.entries
        ref = abs(PairOracle(rho, shifted / np.trace(shifted).real).fmin - (1.0 - eps * eps * j_rld / 8.0))
        gaps.append(abs(res - ref))
    return max(gaps)


def paths_request(req) -> None:
    x = req.inp
    rho, sigma, tp = x.rho, x.sigma, x.tangent
    o = PairOracle(rho.mat, sigma.mat)
    arc = math.acos(min(max(o.fmin, 0.0), 1.0))
    req.op(
        "geometry", fr_estimate, rho, sigma, 3, 6, x.seed,
        check=lambda fr: [("fr_sandwich", max(o.fmin - fr, fr - o.uhlmann), TOL_SANDWICH)],
    )
    curve = req.op(
        "geometry", fmin_geodesic, rho, sigma, 33,
        check=lambda c: [(
            "geodesic_endpoints",
            max(trace_norm_herm(c.states[0].mat - rho.mat), trace_norm_herm(c.states[-1].mat - sigma.mat)),
            TOL_RT_RESIDUAL,
        )],
    )
    req.op(
        "geometry", curve_length, curve, needs=(curve,),
        check=lambda length: [("half_length", abs(0.5 * length - arc), TOL_HALF_LENGTH)],
    )
    start = req.op(
        "geometry", geodesic_start, rho, sigma,
        check=lambda s: [
            ("arc_time", abs(s[1] - 2.0 * arc), TOL_ARC_TIME),
            ("start_unit_speed", abs(float(np.trace(s[0].rld_matrix.conj().T @ s[0].rld_matrix @ rho.mat).real) - 1.0), TOL_UNIT_SPEED),
        ],
    )
    gs, total = start if start is not None else (None, 1.0)
    dt = total / FLOW_STEPS
    req.op(
        "geometry", commutative_geodesic_flow, gs, dt, FLOW_STEPS, needs=(start,),
        check=lambda c: [("flow_endpoint", trace_norm_herm(c.states[-1].mat - sigma.mat), TOL_FLOW_ENDPOINT)],
    )
    req.op(
        "geometry", rld_geodesic_flow, gs, dt, FLOW_STEPS, needs=(start,),
        check=lambda c: [("rld_unit_speed_drift", _unit_speed_drift(c, total), TOL_RLD_DRIFT)],
    )
    j_rld = rld_fisher_ref(tp.state.mat, tp.velocity.entries)
    req.op(
        "geometry", fisher_both, tp,
        check=lambda r: [
            ("rld_dominates_sld", r.j_sld - r.j_rld, TOL_FISHER_ORDER),
            ("rld_fisher_vs_solve", abs(r.j_rld - j_rld), TOL_TANGENT_FISHER),
        ],
    )
    req.op(
        "geometry", tangent_reverse_estimation, tp,
        check=lambda out: [("tangent_fisher", abs(float(np.sum(out[2].values**2 / out[1].weights)) - j_rld), TOL_TANGENT_FISHER)],
    )
    req.op(
        "geometry", expansion_check, tp,
        check=lambda r: [("expansion_residuals", _expansion_gap(tp, r, j_rld), TOL_SYMMETRY)],
    )


def suite_request(req) -> None:
    req.op(
        "cli", cli.run_suite, "all", req.inp.config,
        check=lambda rep: [("suite_failures", len(rep.failures), 0)]
        + [("suite." + f["invariant"], f["residual"], 0.0) for f in rep.failures],
    )


# --------------------------------------------------------------- registry


def _probe_pairs_from_inputs(inputs):
    return [(x.rho, x.sigma) for x in inputs]


def _probe_pairs_for_suite(inputs):
    out = []
    for x in inputs:
        d, s = x.config.dims[0], x.config.seed
        out.append((random_density(d, d, s), random_density(d, d, s + 1)))
    return out


def _ill_conditioned(op, reasons, x) -> bool:
    # ROADMAP D: f_min and its relatives lose accuracy like 1/lambda_min
    return x.lambda_min < ILL_LAMBDA_MIN


PATHS_KNOWN = {
    # ROADMAP C: the general RLD flow is unstable under plain RK4; it aborts
    # on its constraint residual or, when it completes, drifts off unit speed
    ("geometry.rld_geodesic_flow", "DomainError"),
    ("geometry.rld_geodesic_flow", "rld_unit_speed_drift"),
    # fixed-step RK4 misses sigma by more than 1e-5 when rho is near the PSD
    # boundary (paths seed 11, request 32: lambda_min(rho) = 2e-5, 1.6e-4)
    ("geometry.commutative_geodesic_flow", "flow_endpoint"),
}
SUITE_KNOWN = {
    "suite_failures",
    # ROADMAP D: rho (x) rho squares the condition number of rho (suite seed
    # 105, request 28: lambda_min(rho) = 1.6e-5, gap 2.6e-7 against 1e-8)
    "suite.fmin_multiplicative",
}


@dataclass(frozen=True)
class Workload:
    requests: int  # length of the fixed request list
    make_inputs: Callable
    handle: Callable
    # (operation, failure reasons, input) -> True when every reason is an
    # open defect listed here; any other failure makes the run incorrect
    known: Callable
    probe_pairs: Callable


WORKLOADS = {
    "pairs-small": Workload(702, pairs_small_inputs, pairs_request, _ill_conditioned, _probe_pairs_from_inputs),
    "pairs-large": Workload(27, pairs_large_inputs, pairs_request, _ill_conditioned, _probe_pairs_from_inputs),
    "paths": Workload(
        102, paths_inputs, paths_request,
        lambda op, reasons, x: all((op, r) in PATHS_KNOWN for r in reasons),
        _probe_pairs_from_inputs,
    ),
    "suite": Workload(
        108, suite_inputs, suite_request,
        lambda op, reasons, x: all(r in SUITE_KNOWN for r in reasons),
        _probe_pairs_for_suite,
    ),
}
