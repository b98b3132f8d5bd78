"""Command-line front end: compute scalar quantities on state files, run
randomized property suites, reproduce the triangle counterexamples, and
trace geodesics to CSV.

Exit codes: 0 success, 2 input error, 3 domain error, 4 suite/assertion
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .divergences import (
    classical_fidelity,
    delta_max_bounds,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    OperatorMonotoneSpec,
    reverse_relative_entropy,
    t_operator,
    trace_distance_classical,
    trace_distance_quantum,
    uhlmann_fidelity,
)
from .errors import DomainError, RevfidError, ValidationError
from .geometry import (
    TangentPoint,
    classical_fisher,
    curve_length,
    fisher_both,
    fmin_geodesic,
    fr_estimate,
    rld_fisher,
    sld_fisher,
    tangent_reverse_estimation,
)
from .linalg import HermitianMatrix
from .reverse_tests import (
    general_reverse_test,
    minimal_reverse_test,
    sample_contraction,
    verify_reverse_test,
)
from .states import (
    DensityMatrix,
    ProbDist,
    PureState,
    apply_channel,
    make_density,
    random_channel,
    random_density,
    random_tangent,
    rng_for,
    tensor,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_SUITE = 4

DEFAULT_TOLERANCES = {
    "monotonicity": 1e-9,
    "concavity": 1e-9,
    "multiplicativity": 1e-8,
    "sandwich": 1e-8,
    "sandwich_commuting": 1e-6,
    "distance_bounds": 1e-9,
    "reverse_test_residual": 1e-7,
    "reverse_test_optimality": 1e-8,
    "geodesic_length": 1e-6,
    "fisher_order": 1e-9,
    "tangent_fisher": 1e-8,
}

SUITE_NAMES = (
    "monotonicity",
    "sandwich",
    "concavity",
    "multiplicativity",
    "geometry",
    "reverse-tests",
)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 20
    dims: tuple[int, ...] = (2, 3, 4)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if any(d < 2 for d in self.dims):
            raise ValidationError("every dim must be >= 2")


@dataclass
class SuiteReport:
    suite: str
    trials: int
    seed: int
    failures: list
    max_residual: dict
    wall_time: float
    tolerances: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "trials": self.trials,
                "seed": self.seed,
                "failures": self.failures,
                "max_residual": self.max_residual,
                "wall_time_seconds": self.wall_time,
                "tolerances": self.tolerances,
            },
            indent=2,
            sort_keys=True,
        )

    @property
    def passed(self) -> bool:
        return not self.failures


def fmt(x: float) -> str:
    return f"{x:.12f}"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_state(path: str) -> DensityMatrix:
    """JSON object {"dim": n, "re": [[...]], "im": [[...]]}, row-major."""
    obj = _load_json(path)
    try:
        return make_density(_matrix_from(obj, path))
    except RevfidError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _matrix_from(obj: dict, path: str) -> np.ndarray:
    if "re" not in obj:
        raise ValidationError(f"{path}: missing 're' field")
    dim = int(obj.get("dim", len(obj["re"])))
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(f"{path}: matrix shape does not match dim {dim}")
    return re + 1j * im


def load_hermitian(path: str) -> HermitianMatrix:
    obj = _load_json(path)
    return HermitianMatrix(_matrix_from(obj, path))


def load_prob(path: str) -> ProbDist:
    obj = _load_json(path)
    if "p" not in obj:
        raise ValidationError(f"{path}: missing 'p' field")
    try:
        return ProbDist(np.asarray(obj["p"], dtype=float))
    except RevfidError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _is_prob_file(path: str) -> bool:
    return "p" in _load_json(path)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------- compute


def cmd_compute(args) -> int:
    q = args.quantity
    lines: list[str] = []
    if q in ("fidelity", "fmin") and _is_prob_file(args.files[0]):
        p, qq = load_prob(args.files[0]), load_prob(args.files[1])
        lines.append(fmt(classical_fidelity(p, qq)))
    elif q == "fidelity":
        rho, sigma = load_state(args.files[0]), load_state(args.files[1])
        lines.append(fmt(uhlmann_fidelity(rho, sigma)))
    elif q == "fmin":
        rho, sigma = load_state(args.files[0]), load_state(args.files[1])
        lines.append(fmt(f_min(rho, sigma)))
    elif q == "fmin-geomean":
        rho, sigma = load_state(args.files[0]), load_state(args.files[1])
        lines.append(fmt(f_min_via_geomean(rho, sigma)))
    elif q == "ffmin":
        rho, sigma = load_state(args.files[0]), load_state(args.files[1])
        lines.append(fmt(f_f_min(rho, sigma, OperatorMonotoneSpec.power(args.alpha))))
    elif q == "dr-entropy":
        rho, sigma = load_state(args.files[0]), load_state(args.files[1])
        lines.append(fmt(reverse_relative_entropy(rho, sigma)))
    elif q == "trace-distance":
        if _is_prob_file(args.files[0]):
            p, qq = load_prob(args.files[0]), load_prob(args.files[1])
            lines.append(fmt(trace_distance_classical(p, qq)))
        else:
            rho, sigma = load_state(args.files[0]), load_state(args.files[1])
            lines.append(fmt(trace_distance_quantum(rho, sigma)))
    elif q == "delta-max-bounds":
        rho, sigma = load_state(args.files[0]), load_state(args.files[1])
        b = delta_max_bounds(rho, sigma)
        lines.append(f"lower {fmt(b.lower)}")
        lines.append(f"upper {fmt(b.upper)}")
        lines.append(f"upper_via_measurement {fmt(b.upper_via_measurement)}")
    elif q in ("sld", "rld"):
        rho = load_state(args.files[0])
        vel = load_hermitian(args.files[1])
        tp = TangentPoint(rho, vel)
        rep = sld_fisher(tp) if q == "sld" else rld_fisher(tp)
        lines.append(fmt(rep.j_sld if q == "sld" else rep.j_rld))
    elif q == "fr-estimate":
        rho, sigma = load_state(args.files[0]), load_state(args.files[1])
        lines.append(
            fmt(
                fr_estimate(
                    rho,
                    sigma,
                    control_points=args.control_points,
                    iterations=args.iterations,
                    seed=args.seed,
                )
            )
        )
    else:
        raise ValidationError(f"unknown quantity {q!r}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write_out(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- suites


def _trial_seed(base: int, suite: str, trial: int) -> int:
    tag = zlib.crc32(suite.encode())
    return (base * 1000003 + tag * 101 + trial * 13) % (2**31)


def _record(failures, residuals, name, value, tol, seed):
    residuals[name] = max(residuals.get(name, 0.0), value)
    if value > tol:
        failures.append({"invariant": name, "residual": value, "seed": seed})


def _suite_monotonicity(cfg: RunConfig, canary: bool, failures, residuals):
    tol = cfg.tolerances["monotonicity"]
    sign = -1.0 if canary else 1.0
    for trial in range(cfg.trials):
        dim = cfg.dims[trial % len(cfg.dims)]
        seed = _trial_seed(cfg.seed, "mono", trial)
        rho = random_density(dim, dim, seed)
        sigma = random_density(dim, dim, seed + 1)
        lam = random_channel(dim, dim, 2, seed + 2)
        rho2, sigma2 = apply_channel(lam, rho), apply_channel(lam, sigma)
        pairs = [
            ("uhlmann_monotone", uhlmann_fidelity(rho, sigma), uhlmann_fidelity(rho2, sigma2)),
            ("fmin_monotone", f_min(rho, sigma), f_min(rho2, sigma2)),
        ]
        for alpha in (0.25, 0.5, 0.75):
            spec = OperatorMonotoneSpec.power(alpha)
            pairs.append(
                (
                    f"ffmin_{alpha}_monotone",
                    f_f_min(rho, sigma, spec),
                    f_f_min(rho2, sigma2, spec),
                )
            )
        for name, before, after in pairs:
            _record(failures, residuals, name, sign * (before - after), tol, seed)
        _record(
            failures,
            residuals,
            "trace_distance_contracts",
            sign * (trace_distance_quantum(rho2, sigma2) - trace_distance_quantum(rho, sigma)),
            tol,
            seed,
        )
        _record(
            failures,
            residuals,
            "dr_entropy_contracts",
            sign * (reverse_relative_entropy(rho2, sigma2) - reverse_relative_entropy(rho, sigma)),
            tol,
            seed,
        )


def _suite_sandwich(cfg: RunConfig, canary: bool, failures, residuals):
    tol = cfg.tolerances["sandwich"]
    dtol = cfg.tolerances["distance_bounds"]
    sign = -1.0 if canary else 1.0
    for trial in range(cfg.trials):
        seed = _trial_seed(cfg.seed, "sandwich", trial)
        rho = random_density(2, 2, seed)
        sigma = random_density(2, 2, seed + 1)
        fmin = f_min(rho, sigma)
        fu = uhlmann_fidelity(rho, sigma)
        fr = fr_estimate(rho, sigma, control_points=3, iterations=6, seed=seed)
        _record(failures, residuals, "fmin_below_fr", sign * (fmin - fr), tol, seed)
        _record(failures, residuals, "fr_below_uhlmann", sign * (fr - fu), tol, seed)
        delta = trace_distance_quantum(rho, sigma)
        _record(failures, residuals, "one_minus_f_below_delta", sign * (1 - fu - delta), dtol, seed)
        _record(
            failures,
            residuals,
            "delta_below_sqrt",
            sign * (delta - math.sqrt(max(1 - fu * fu, 0.0))),
            dtol,
            seed,
        )


def _suite_concavity(cfg: RunConfig, canary: bool, failures, residuals):
    tol = cfg.tolerances["concavity"]
    sign = -1.0 if canary else 1.0
    spec = OperatorMonotoneSpec.power(0.5)
    for trial in range(cfg.trials):
        dim = cfg.dims[trial % len(cfg.dims)]
        seed = _trial_seed(cfg.seed, "concave", trial)
        rng = rng_for(seed, stream=9)
        rhos = [random_density(dim, dim, seed + i) for i in (0, 1)]
        sigmas = [random_density(dim, dim, seed + i) for i in (2, 3)]
        lam = rng.dirichlet((2.0, 2.0))
        mu = rng.dirichlet((2.0, 2.0))
        rho_mix = make_density(lam[0] * rhos[0].mat + lam[1] * rhos[1].mat)
        sig_mix_mu = make_density(mu[0] * sigmas[0].mat + mu[1] * sigmas[1].mat)
        sig_mix_lam = make_density(lam[0] * sigmas[0].mat + lam[1] * sigmas[1].mat)
        strong = sum(
            math.sqrt(lam[i] * mu[i]) * f_min(rhos[i], sigmas[i]) for i in (0, 1)
        )
        _record(
            failures,
            residuals,
            "fmin_strong_concave",
            sign * (strong - f_min(rho_mix, sig_mix_mu)),
            tol,
            seed,
        )
        joint = sum(lam[i] * f_f_min(rhos[i], sigmas[i], spec) for i in (0, 1))
        _record(
            failures,
            residuals,
            "ffmin_joint_concave",
            sign * (joint - f_f_min(rho_mix, sig_mix_lam, spec)),
            tol,
            seed,
        )


def _suite_multiplicativity(cfg: RunConfig, canary: bool, failures, residuals):
    tol = cfg.tolerances["multiplicativity"]
    for trial in range(cfg.trials):
        seed = _trial_seed(cfg.seed, "mult", trial)
        rho = random_density(2, 2, seed)
        sigma = random_density(2, 2, seed + 1)
        single = f_min(rho, sigma)
        double = f_min(tensor(rho, rho), tensor(sigma, sigma))
        gap = abs(double - single * single)
        if canary:
            gap = tol * 2 + gap
        _record(failures, residuals, "fmin_multiplicative", gap, tol, seed)


def _suite_geometry(cfg: RunConfig, canary: bool, failures, residuals):
    sign = -1.0 if canary else 1.0
    for trial in range(cfg.trials):
        dim = cfg.dims[trial % len(cfg.dims)]
        seed = _trial_seed(cfg.seed, "geom", trial)
        rho, vel = random_tangent(dim, seed)
        tp = TangentPoint(rho, vel)
        rep = fisher_both(tp)
        _record(
            failures,
            residuals,
            "rld_dominates_sld",
            sign * (rep.j_sld - rep.j_rld),
            cfg.tolerances["fisher_order"],
            seed,
        )
        _, p, dp = tangent_reverse_estimation(tp)
        _record(
            failures,
            residuals,
            "tangent_fisher_matches_rld",
            abs(classical_fisher(p, dp) - rep.j_rld),
            cfg.tolerances["tangent_fisher"],
            seed,
        )
        sigma = random_density(dim, dim, seed + 7)
        curve = fmin_geodesic(rho, sigma, n_samples=33)
        half = 0.5 * curve_length(curve, metric="rld")
        _record(
            failures,
            residuals,
            "geodesic_half_length",
            abs(half - math.acos(min(max(f_min(rho, sigma), 0.0), 1.0))),
            cfg.tolerances["geodesic_length"],
            seed,
        )


def _suite_reverse_tests(cfg: RunConfig, canary: bool, failures, residuals):
    rtol = cfg.tolerances["reverse_test_residual"]
    otol = cfg.tolerances["reverse_test_optimality"]
    sign = -1.0 if canary else 1.0
    for trial in range(cfg.trials):
        dim = cfg.dims[trial % len(cfg.dims)]
        seed = _trial_seed(cfg.seed, "rt", trial)
        rho = random_density(dim, dim, seed)
        sigma = random_density(dim, dim, seed + 1)
        fmin = f_min(rho, sigma)
        rt = minimal_reverse_test(rho, sigma)
        rep = verify_reverse_test(rt, rho, sigma, tol=rtol)
        _record(
            failures,
            residuals,
            "minimal_rt_prepares_pair",
            max(rep.rho_residual, rep.sigma_residual),
            rtol,
            seed,
        )
        _record(
            failures,
            residuals,
            "minimal_rt_achieves_fmin",
            abs(rt.fidelity() - fmin),
            1e-9,
            seed,
        )
        a = sample_contraction(t_operator(rho, sigma), seed + 2)
        grt, _ = general_reverse_test(rho, sigma, a)
        grep = verify_reverse_test(grt, rho, sigma, tol=rtol)
        _record(
            failures,
            residuals,
            "general_rt_prepares_pair",
            max(grep.rho_residual, grep.sigma_residual),
            rtol,
            seed,
        )
        _record(
            failures,
            residuals,
            "general_rt_below_fmin",
            sign * (grt.fidelity() - fmin),
            otol,
            seed,
        )


_SUITES = {
    "monotonicity": _suite_monotonicity,
    "sandwich": _suite_sandwich,
    "concavity": _suite_concavity,
    "multiplicativity": _suite_multiplicativity,
    "geometry": _suite_geometry,
    "reverse-tests": _suite_reverse_tests,
}


def run_suite(name: str, cfg: RunConfig, canary: bool = False) -> SuiteReport:
    if name != "all" and name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}")
    failures: list = []
    residuals: dict = {}
    start = time.perf_counter()
    for key in (_SUITES if name == "all" else {name: _SUITES[name]}):
        _SUITES[key](cfg, canary, failures, residuals)
    return SuiteReport(
        suite=name,
        trials=cfg.trials,
        seed=cfg.seed,
        failures=failures,
        max_residual=residuals,
        wall_time=time.perf_counter() - start,
        tolerances=dict(cfg.tolerances),
    )


def cmd_suite(args) -> int:
    cfg = RunConfig(
        seed=args.seed,
        trials=args.trials,
        dims=tuple(args.dims),
        tolerances=_merged_tolerances(args.tol),
    )
    report = run_suite(args.name, cfg, canary=args.canary_negate)
    text = report.to_json() + "\n"
    sys.stdout.write(text)
    _write_out(text, args.out)
    return EXIT_OK if report.passed else EXIT_SUITE


# ---------------------------------------------------------- counterexamples


def _triangle_states(theta: float):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    psi = PureState(np.array([c, s]))
    phi = PureState(np.array([c, -s]))
    tau = make_density(np.diag([c, s]) / (c + s))
    return psi, phi, tau, c, s


def cmd_counterexample(args) -> int:
    theta = args.theta
    if not 0.0 < theta < math.pi / 2.0 + 1e-12:
        raise ValidationError(f"theta must lie in (0, pi/2], got {theta}")
    psi, phi, tau, c, s = _triangle_states(theta)
    lines = [f"theta {fmt(theta)}"]
    if args.name == "triangle-fmin":
        f_psi_phi = f_min_pure(psi.projector(), phi)
        f_leg = f_min_pure(tau, psi)
        lines.append(f"fmin_psi_phi {fmt(f_psi_phi)}")
        lines.append(f"fmin_psi_tau {fmt(f_leg)}")
        lines.append(f"fmin_phi_tau {fmt(f_min_pure(tau, phi))}")
        defect = math.acos(min(max(f_psi_phi, 0.0), 1.0)) - 2.0 * math.acos(f_leg)
        lines.append(f"angle_defect {fmt(defect)}")
        boundary = theta > math.pi / 2.0 - 1e-9
        violated = defect > 0.0
        lines.append(f"violation {'yes' if violated else 'no'}")
        text = "\n".join(lines) + "\n"
        sys.stdout.write(text)
        _write_out(text, args.out)
        if boundary:
            return EXIT_OK
        return EXIT_OK if violated else EXIT_SUITE
    if args.name == "triangle-deltamax":
        delta_direct = 1.0  # distinct pure states are perfectly distinguishable
        f_leg = f_min_pure(tau, psi)
        bound = 2.0 * math.sqrt(max(1.0 - f_leg * f_leg, 0.0))
        lines.append(f"delta_max_psi_phi {fmt(delta_direct)}")
        lines.append(f"fmin_psi_tau {fmt(f_leg)}")
        lines.append(f"detour_upper_bound {fmt(bound)}")
        lines.append(f"triangle_defect {fmt(delta_direct - bound)}")
        violated = delta_direct > bound
        lines.append(f"violation {'yes' if violated else 'no'}")
        text = "\n".join(lines) + "\n"
        sys.stdout.write(text)
        _write_out(text, args.out)
        return EXIT_OK if violated else EXIT_SUITE
    raise ValidationError(f"unknown counterexample {args.name!r}")


# ---------------------------------------------------------------- geodesic


def cmd_geodesic(args) -> int:
    rho = load_state(args.files[0])
    sigma = load_state(args.files[1])
    curve = fmin_geodesic(rho, sigma, n_samples=args.samples)
    dim = rho.dim
    speeds = []
    for state, vel in zip(curve.states, curve.velocities):
        j = rld_fisher(TangentPoint(state, vel)).j_rld
        speeds.append(math.sqrt(max(j, 0.0)))
    if f_min(rho, sigma) >= 1.0 - 1e-12:
        rows = [(0.0, curve.states[0], 0.0, 0.0)]
    else:
        cum = np.concatenate(
            [[0.0], cumulative_trapezoid(np.array(speeds), x=curve.times)]
        )
        rows = [
            (t, st, sp * sp, cl)
            for t, st, sp, cl in zip(curve.times, curve.states, speeds, cum)
        ]
    header = ["t"]
    for i in range(dim):
        for j in range(dim):
            header += [f"rho_re_{i}_{j}", f"rho_im_{i}_{j}"]
    header += ["j_rld", "cumulative_length"]
    lines = [",".join(header)]
    for t, state, jval, cl in rows:
        cells = [f"{t:.12g}"]
        for i in range(dim):
            for j in range(dim):
                cells += [f"{state.mat[i, j].real:.12g}", f"{state.mat[i, j].imag:.12g}"]
        cells += [f"{jval:.12g}", f"{cl:.12g}"]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_out(text, args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------------ main


def _merged_tolerances(pairs: list[str] | None) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    for item in pairs or []:
        if "=" not in item:
            raise ValidationError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in tols:
            raise ValidationError(f"unknown tolerance {name!r}")
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise ValidationError(f"bad tolerance value {value!r}") from exc
    return tols


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revfid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="evaluate one quantity on state files")
    pc.add_argument(
        "quantity",
        choices=[
            "fidelity",
            "fmin",
            "fmin-geomean",
            "ffmin",
            "dr-entropy",
            "trace-distance",
            "delta-max-bounds",
            "sld",
            "rld",
            "fr-estimate",
        ],
    )
    pc.add_argument("files", nargs=2, help="two JSON input files")
    pc.add_argument("--alpha", type=float, default=0.5)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--control-points", type=int, default=3)
    pc.add_argument("--iterations", type=int, default=20)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_compute)

    ps = sub.add_parser("suite", help="run a randomized property suite")
    ps.add_argument("name", choices=list(SUITE_NAMES) + ["all"])
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--trials", type=int, default=20)
    ps.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    ps.add_argument("--tol", action="append", metavar="NAME=VALUE")
    ps.add_argument("--out", default=None)
    ps.add_argument("--canary-negate", action="store_true", help=argparse.SUPPRESS)
    ps.set_defaults(func=cmd_suite)

    px = sub.add_parser("counterexample", help="reproduce a triangle counterexample")
    px.add_argument("name", choices=["triangle-fmin", "triangle-deltamax"])
    px.add_argument("--theta", type=float, required=True)
    px.add_argument("--out", default=None)
    px.set_defaults(func=cmd_counterexample)

    pg = sub.add_parser("geodesic", help="trace the minimal-fidelity geodesic to CSV")
    pg.add_argument("files", nargs=2, help="endpoint state files")
    pg.add_argument("--samples", type=int, default=33)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_geodesic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RevfidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
