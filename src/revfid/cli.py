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
from dataclasses import asdict, dataclass, field
from numbers import Real

import numpy as np

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
    _cumulative_trapezoid,
    classical_fisher,
    curve_length,
    curve_speeds,
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
    ProbDist,
    PureState,
    apply_channel,
    make_density,
    random_channel,
    random_density,
    random_tangent,
    require_integer,
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
    "distance_bounds": 1e-9,
    "reverse_test_residual": 1e-7,
    "reverse_test_optimality": 1e-8,
    "reverse_test_fidelity": 1e-9,
    "geodesic_length": 1e-6,
    "fisher_order": 1e-9,
    "tangent_fisher": 1e-8,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 20
    dims: tuple[int, ...] = (2, 3, 4)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        require_integer("seed", self.seed, None)  # negative suite seeds are valid
        require_integer("trials", self.trials, 1)
        if not self.dims:
            raise ValidationError("dims must name at least one dimension")
        for d in self.dims:
            require_integer("every dim", d, 2)
        for name in self.tolerances:
            if name not in DEFAULT_TOLERANCES:
                raise ValidationError(f"unknown tolerance {name!r}")
        for name in DEFAULT_TOLERANCES:
            if name not in self.tolerances:
                raise ValidationError(f"missing tolerance {name!r}")
            value = self.tolerances[name]  # +-inf are valid: they force or forgive every check
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValidationError(f"tolerance {name!r} must be a real number, got {value!r}")
            if math.isnan(value):
                raise ValidationError(f"tolerance {name!r} is NaN")


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
        fields = asdict(self)
        fields["wall_time_seconds"] = fields.pop("wall_time")
        return json.dumps(fields, indent=2, sort_keys=True)

    @property
    def passed(self) -> bool:
        return not self.failures


def fmt(x: float) -> str:
    return f"{x:.12f}"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return obj


def _matrix_input(make, obj: dict, path: str):
    """make(M) for the JSON object {"dim": n, "re": [[...]], "im": [[...]]},
    M = re + i im row-major, with its errors prefixed by the file name."""
    m = _matrix_from(obj, path)
    try:
        # symmetrizing entries near the float maximum overflows: an error, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return make(m)
    except RevfidError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _matrix_from(obj: dict, path: str) -> np.ndarray:
    if "re" not in obj:
        raise ValidationError(f"{path}: missing 're' field")
    try:
        dim = obj.get("dim", len(obj["re"]))
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        if dim != int(dim):
            raise ValueError(f"dim {dim!r} is not an integer")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: malformed numeric field: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(f"{path}: matrix shape does not match dim {dim}")
    return re + 1j * im


def _prob_from(obj: dict, path: str) -> ProbDist:
    """JSON object {"p": [...]}."""
    if "p" not in obj:
        raise ValidationError(f"{path}: missing 'p' field")
    try:
        return ProbDist(np.asarray(obj["p"], dtype=float))
    except (RevfidError, TypeError, ValueError) as exc:  # TypeError, ValueError: malformed numbers
        raise ValidationError(f"{path}: {exc}") from exc


def _emit(lines: list[str], out: str | None, tee: bool = True) -> None:
    """Write the lines to the file `out` if given, and to stdout when `tee`
    is set or there is no file."""
    text = "\n".join(lines) + "\n"
    if tee or not out:
        sys.stdout.write(text)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"{out}: {exc}") from exc


# ---------------------------------------------------------------- compute


def _bounds_lines(bounds) -> list[str]:
    names = ("lower", "upper", "upper_via_measurement")
    return [f"{name} {fmt(getattr(bounds, name))}" for name in names]


# quantity -> f(first, second, args), a number or a list of output lines; the
# second file is a state, or a Hermitian velocity for "sld" and "rld"
_STATE_QUANTITIES = {
    "fidelity": lambda rho, sigma, _: uhlmann_fidelity(rho, sigma),
    "fmin": lambda rho, sigma, _: f_min(rho, sigma),
    "fmin-geomean": lambda rho, sigma, _: f_min_via_geomean(rho, sigma),
    "ffmin": lambda rho, sigma, a: f_f_min(rho, sigma, OperatorMonotoneSpec.power(a.alpha)),
    "dr-entropy": lambda rho, sigma, _: reverse_relative_entropy(rho, sigma),
    "trace-distance": lambda rho, sigma, _: trace_distance_quantum(rho, sigma),
    "delta-max-bounds": lambda rho, sigma, _: _bounds_lines(delta_max_bounds(rho, sigma)),
    "sld": lambda rho, vel, _: sld_fisher(TangentPoint(rho, vel)).j_sld,
    "rld": lambda rho, vel, _: rld_fisher(TangentPoint(rho, vel)).j_rld,
    "fr-estimate": lambda rho, sigma, a: fr_estimate(
        rho, sigma, control_points=a.control_points, iterations=a.iterations, seed=a.seed
    ),
}

# quantity -> f(p, q) when the first file is a distribution {"p": [...]}
_DISTRIBUTION_QUANTITIES = {
    "fidelity": classical_fidelity,
    "fmin": classical_fidelity,
    "trace-distance": trace_distance_classical,
}


def cmd_compute(args) -> int:
    q, (first, second) = args.quantity, args.files
    obj = _load_json(first)
    if q in _DISTRIBUTION_QUANTITIES and "p" in obj:
        value = _DISTRIBUTION_QUANTITIES[q](_prob_from(obj, first), _prob_from(_load_json(second), second))
    else:
        make = HermitianMatrix if q in ("sld", "rld") else make_density
        rho = _matrix_input(make_density, obj, first)
        value = _STATE_QUANTITIES[q](rho, _matrix_input(make, _load_json(second), second), args)
    _emit(value if isinstance(value, list) else [fmt(value)], args.out)
    return EXIT_OK


# ---------------------------------------------------------------- suites
#
# Each suite is a generator of the checks of one trial at (dim, seed):
# (invariant, residual, tolerance, signed). A check fails when its residual
# exceeds its tolerance. `signed` is true for the residual of an inequality,
# which may be negative, and false for a distance, which is not.


def _trial_seed(base: int, suite: str, trial: int) -> int:
    tag = zlib.crc32(suite.encode())
    return (base * 1000003 + tag * 101 + trial * 13) % (2**31)


def _suite_monotonicity(dim: int, seed: int, tols: dict):
    tol = tols["monotonicity"]
    rho = random_density(dim, dim, seed)
    sigma = random_density(dim, dim, seed + 1)
    lam = random_channel(dim, dim, 2, seed + 2)
    rho2, sigma2 = apply_channel(lam, rho), apply_channel(lam, sigma)
    gap = uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(rho2, sigma2)
    yield "uhlmann_monotone", gap, tol, True
    yield "fmin_monotone", f_min(rho, sigma) - f_min(rho2, sigma2), tol, True
    for alpha in (0.25, 0.5, 0.75):
        spec = OperatorMonotoneSpec.power(alpha)
        gap = f_f_min(rho, sigma, spec) - f_f_min(rho2, sigma2, spec)
        yield f"ffmin_{alpha}_monotone", gap, tol, True
    gap = trace_distance_quantum(rho2, sigma2) - trace_distance_quantum(rho, sigma)
    yield "trace_distance_contracts", gap, tol, True
    gap = reverse_relative_entropy(rho2, sigma2) - reverse_relative_entropy(rho, sigma)
    yield "dr_entropy_contracts", gap, tol, True


def _suite_sandwich(_dim: int, seed: int, tols: dict):
    tol, dtol = tols["sandwich"], tols["distance_bounds"]
    rho = random_density(2, 2, seed)
    sigma = random_density(2, 2, seed + 1)
    fmin = f_min(rho, sigma)
    fu = uhlmann_fidelity(rho, sigma)
    fr = fr_estimate(rho, sigma, control_points=3, iterations=6, seed=seed)
    yield "fmin_below_fr", fmin - fr, tol, True
    yield "fr_below_uhlmann", fr - fu, tol, True
    delta = trace_distance_quantum(rho, sigma)
    yield "one_minus_f_below_delta", 1 - fu - delta, dtol, True
    yield "delta_below_sqrt", delta - math.sqrt(max(1 - fu * fu, 0.0)), dtol, True


def _suite_concavity(dim: int, seed: int, tols: dict):
    tol = tols["concavity"]
    spec = OperatorMonotoneSpec.power(0.5)
    rng = rng_for(seed, stream=9)
    rhos = [random_density(dim, dim, seed + i) for i in (0, 1)]
    sigmas = [random_density(dim, dim, seed + i) for i in (2, 3)]
    lam = rng.dirichlet((2.0, 2.0))
    mu = rng.dirichlet((2.0, 2.0))
    rho_mix = make_density(lam[0] * rhos[0].mat + lam[1] * rhos[1].mat)
    sig_mix_mu = make_density(mu[0] * sigmas[0].mat + mu[1] * sigmas[1].mat)
    sig_mix_lam = make_density(lam[0] * sigmas[0].mat + lam[1] * sigmas[1].mat)
    strong = sum(math.sqrt(lam[i] * mu[i]) * f_min(rhos[i], sigmas[i]) for i in (0, 1))
    yield "fmin_strong_concave", strong - f_min(rho_mix, sig_mix_mu), tol, True
    joint = sum(lam[i] * f_f_min(rhos[i], sigmas[i], spec) for i in (0, 1))
    yield "ffmin_joint_concave", joint - f_f_min(rho_mix, sig_mix_lam, spec), tol, True


def _suite_multiplicativity(_dim: int, seed: int, tols: dict):
    rho = random_density(2, 2, seed)
    sigma = random_density(2, 2, seed + 1)
    single = f_min(rho, sigma)
    double = f_min(tensor(rho, rho), tensor(sigma, sigma))
    yield "fmin_multiplicative", abs(double - single * single), tols["multiplicativity"], False


def _suite_geometry(dim: int, seed: int, tols: dict):
    rho, vel = random_tangent(dim, seed)
    tp = TangentPoint(rho, vel)
    rep = fisher_both(tp)
    yield "rld_dominates_sld", rep.j_sld - rep.j_rld, tols["fisher_order"], True
    _, p, dp = tangent_reverse_estimation(tp)
    gap = abs(classical_fisher(p, dp) - rep.j_rld)
    yield "tangent_fisher_matches_rld", gap, tols["tangent_fisher"], False
    sigma = random_density(dim, dim, seed + 7)
    half = 0.5 * curve_length(fmin_geodesic(rho, sigma, n_samples=33), metric="rld")
    gap = abs(half - math.acos(min(max(f_min(rho, sigma), 0.0), 1.0)))
    yield "geodesic_half_length", gap, tols["geodesic_length"], False


def _suite_reverse_tests(dim: int, seed: int, tols: dict):
    rtol = tols["reverse_test_residual"]
    rho = random_density(dim, dim, seed)
    sigma = random_density(dim, dim, seed + 1)
    fmin = f_min(rho, sigma)
    rt = minimal_reverse_test(rho, sigma)
    # rtol may be -inf (every check fails), which verify_reverse_test's tol rejects; the residuals meet rtol below
    rep = verify_reverse_test(rt, rho, sigma)
    yield "minimal_rt_prepares_pair", max(rep.rho_residual, rep.sigma_residual), rtol, False
    yield "minimal_rt_achieves_fmin", abs(rt.fidelity() - fmin), tols["reverse_test_fidelity"], False
    a = sample_contraction(t_operator(rho, sigma), seed + 2)
    grt = general_reverse_test(rho, sigma, a)
    grep = verify_reverse_test(grt, rho, sigma)
    yield "general_rt_prepares_pair", max(grep.rho_residual, grep.sigma_residual), rtol, False
    yield "general_rt_below_fmin", grt.fidelity() - fmin, tols["reverse_test_optimality"], True


# suite name -> (seed tag, checks of one trial), in the order "all" runs them
_SUITES = {
    "monotonicity": ("mono", _suite_monotonicity),
    "sandwich": ("sandwich", _suite_sandwich),
    "concavity": ("concave", _suite_concavity),
    "multiplicativity": ("mult", _suite_multiplicativity),
    "geometry": ("geom", _suite_geometry),
    "reverse-tests": ("rt", _suite_reverse_tests),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: RunConfig, canary: bool = False) -> SuiteReport:
    """Run one suite, or all of them, for cfg.trials trials each.

    Trial k runs at dims[k % len(dims)] with a seed derived from cfg.seed, the
    suite and k. A canary run must fail every suite: it negates each signed
    residual and raises each unsigned one by twice its tolerance.
    """
    if name != "all" and name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}")
    failures: list = []
    residuals: dict = {}
    start = time.perf_counter()
    for tag, checks in _SUITES.values() if name == "all" else [_SUITES[name]]:
        for trial in range(cfg.trials):
            seed = _trial_seed(cfg.seed, tag, trial)
            for invariant, value, tol, signed in checks(
                cfg.dims[trial % len(cfg.dims)], seed, cfg.tolerances
            ):
                if canary:
                    value = -value if signed else value + 2 * tol
                residuals[invariant] = max(residuals.get(invariant, 0.0), value)
                if value > tol:
                    failures.append({"invariant": invariant, "residual": value, "seed": seed})
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
    _emit([report.to_json()], args.out)
    return EXIT_OK if report.passed else EXIT_SUITE


def _merged_tolerances(pairs: list[str] | None) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    for item in pairs or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise ValidationError(f"--tol expects name=value, got {item!r}")
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise ValidationError(f"bad tolerance value {value!r}") from exc
    return tols


# ---------------------------------------------------------- counterexamples


def triangle_quantities(theta: float) -> dict[str, float]:
    """The triangle counterexamples at opening angle theta, built on the pure
    states psi, phi = cos(theta/2)|0> +- sin(theta/2)|1> and the diagonal
    detour state tau; a positive defect is a violation."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    psi = PureState(np.array([c, s]))
    phi = PureState(np.array([c, -s]))
    tau = make_density(np.diag([c, s]) / (c + s))
    direct = f_min_pure(psi.projector(), phi)
    leg = f_min_pure(tau, psi)
    bound = 2.0 * math.sqrt(max(1.0 - leg * leg, 0.0))
    return {
        "fmin_psi_phi": direct,
        "fmin_psi_tau": leg,
        "fmin_phi_tau": f_min_pure(tau, phi),
        "angle_defect": math.acos(min(max(direct, 0.0), 1.0)) - 2.0 * math.acos(leg),
        "delta_max_psi_phi": 1.0,  # distinct pure states are perfectly distinguishable
        "detour_upper_bound": bound,
        "triangle_defect": 1.0 - bound,
    }


# counterexample -> the quantities it prints, its defect last
_COUNTEREXAMPLES = {
    "triangle-fmin": ("fmin_psi_phi", "fmin_psi_tau", "fmin_phi_tau", "angle_defect"),
    "triangle-deltamax": (
        "delta_max_psi_phi",
        "fmin_psi_tau",
        "detour_upper_bound",
        "triangle_defect",
    ),
}


def cmd_counterexample(args) -> int:
    theta = args.theta
    if not 0.0 < theta < math.pi / 2.0 + 1e-12:
        raise ValidationError(f"theta must lie in (0, pi/2], got {theta}")
    quantities = triangle_quantities(theta)
    names = _COUNTEREXAMPLES[args.name]
    violated = quantities[names[-1]] > 0.0
    lines = [f"theta {fmt(theta)}"]
    lines += [f"{name} {fmt(quantities[name])}" for name in names]
    lines.append(f"violation {'yes' if violated else 'no'}")
    _emit(lines, args.out)
    # at theta = pi/2 the fmin triangle is tight and is reported without assertion
    boundary = args.name == "triangle-fmin" and theta > math.pi / 2.0 - 1e-9
    return EXIT_OK if violated or boundary else EXIT_SUITE


# ---------------------------------------------------------------- geodesic


def cmd_geodesic(args) -> int:
    rho, sigma = (_matrix_input(make_density, _load_json(path), path) for path in args.files)
    curve = fmin_geodesic(rho, sigma, n_samples=args.samples)
    speeds = curve_speeds(curve, "rld")
    lengths = _cumulative_trapezoid(speeds, curve.times)
    rows = zip(curve.times, curve.states, speeds, lengths)
    if not speeds.any():  # equal endpoints: the curve stands still
        rows = [(0.0, rho, 0.0, 0.0)]
    columns = [f"rho_{part}_{i}_{j}" for i, j in np.ndindex(rho.mat.shape) for part in ("re", "im")]
    lines = [",".join(["t", *columns, "j_rld", "cumulative_length"])]
    for t, state, speed, length in rows:
        entries = [x for z in state.mat.ravel() for x in (z.real, z.imag)]
        lines.append(",".join(f"{x:.12g}" for x in [t, *entries, speed * speed, length]))
    _emit(lines, args.out, tee=False)
    return EXIT_OK


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revfid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="evaluate one quantity on state files")
    pc.add_argument("quantity", choices=list(_STATE_QUANTITIES | _DISTRIBUTION_QUANTITIES))
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
    px.add_argument("name", choices=list(_COUNTEREXAMPLES))
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
