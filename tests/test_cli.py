import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from revfid.cli import (
    DEFAULT_TOLERANCES,
    EXIT_DOMAIN,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SUITE,
    SUITE_NAMES,
    RunConfig,
    main,
    run_suite,
)
from revfid.divergences import f_min_pure
from revfid.errors import ValidationError
from revfid.geometry import curve_speeds, fmin_geodesic
from revfid.states import PureState, make_density, random_density

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def state_files(tmp_path):
    def write(name, diag):
        path = tmp_path / name
        n = len(diag)
        path.write_text(
            json.dumps({"dim": n, "re": [[diag[i] if i == j else 0.0 for j in range(n)] for i in range(n)]})
        )
        return str(path)

    return {
        "rho": write("rho.json", [0.5, 0.5]),
        "sigma": write("sigma.json", [0.8, 0.2]),
        "pure": write("pure.json", [1.0, 0.0]),
    }


def test_compute_fmin_commuting(state_files, capsys):
    code = main(["compute", "fmin", state_files["rho"], state_files["sigma"]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.948683298051"


def test_compute_fmin_identical(state_files, capsys):
    code = main(["compute", "fmin", state_files["rho"], state_files["rho"]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_compute_delta_max_bounds(state_files, capsys):
    code = main(["compute", "delta-max-bounds", state_files["rho"], state_files["sigma"]])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lower 0.051316701949"
    assert lines[1] == "upper 0.316227766017"
    assert lines[2].startswith("upper_via_measurement ")


def test_compute_classical_fidelity(tmp_path, capsys):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"p": [0.36, 0.64]}))
    q.write_text(json.dumps({"p": [0.64, 0.36]}))
    assert main(["compute", "fidelity", str(p), str(q)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.960000000000"


def test_compute_fisher(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    vel = tmp_path / "vel.json"
    rho.write_text(json.dumps({"dim": 2, "re": [[0.75, 0.0], [0.0, 0.25]]}))
    vel.write_text(json.dumps({"dim": 2, "re": [[0.0, 0.5], [0.5, 0.0]]}))
    assert main(["compute", "sld", str(rho), str(vel)]) == EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-10)
    assert main(["compute", "rld", str(rho), str(vel)]) == EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_compute_fr_estimate_sandwich(state_files, capsys):
    assert main(["compute", "fr-estimate", state_files["rho"], state_files["sigma"]]) == EXIT_OK
    fr = float(capsys.readouterr().out)
    assert fr == pytest.approx(math.sqrt(0.4) + math.sqrt(0.1), abs=1e-6)


@pytest.mark.parametrize("option, value, name", [("--control-points", "-1", "control_points"),
                                                  ("--iterations", "-4", "iterations"),
                                                  ("--seed", "-1", "seed")])
def test_compute_fr_estimate_negative_count_exits_2(state_files, capsys, option, value, name):
    code = main(["compute", "fr-estimate", state_files["rho"], state_files["sigma"], option, value])
    assert code == EXIT_INPUT
    assert f"input error: {name} must be an integer >= 0, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["fmin-geomean"], "0.948683298051"),
        (["ffmin", "--alpha", "0.3"], "0.955541847279"),  # sum p^0.7 q^0.3
        (["dr-entropy"], "0.223143551314"),  # KL(p || q) for commuting states
        (["trace-distance"], "0.300000000000"),
    ],
)
def test_compute_closed_forms_commuting(state_files, capsys, argv, expected):
    code = main(["compute", argv[0], state_files["rho"], state_files["sigma"], *argv[1:]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize(
    "quantity, expected", [("fmin", "0.948683298051"), ("trace-distance", "0.300000000000")]
)
def test_compute_distribution_files(tmp_path, capsys, quantity, expected):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"p": [0.5, 0.5]}))
    q.write_text(json.dumps({"p": [0.8, 0.2]}))
    assert main(["compute", quantity, str(p), str(q)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "delta-max-bounds"],
        ["suite", "multiplicativity", "--trials", "2"],
        ["counterexample", "triangle-deltamax", "--theta", "0.2"],
    ],
)
def test_out_file_matches_stdout(state_files, tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    files = [state_files["rho"], state_files["sigma"]] if argv[0] == "compute" else []
    main([*argv, *files, "--out", str(out)])
    assert out.read_text() == capsys.readouterr().out


def test_unwritable_out_exits_2(state_files, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "out.txt"
    code = main(["compute", "fmin", state_files["rho"], state_files["sigma"], "--out", str(out)])
    assert code == EXIT_INPUT
    assert "missing-dir" in capsys.readouterr().err


def test_missing_file_exits_2(state_files, capsys):
    assert main(["compute", "fmin", state_files["rho"], "no-such-file.json"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, diagnostic",
    [
        ("{not json", "bad.json:1:"),  # diagnostics carry the parse location
        ('{"re": "abc"}', "bad.json: malformed numeric field"),
        ('{"re": [[1, 0], [0]]}', "bad.json: malformed numeric field"),
        ('{"dim": "x", "re": [[1]]}', "bad.json: malformed numeric field"),
        ('{"dim": 2.7, "re": [[0.5, 0], [0, 0.5]]}', "bad.json: malformed numeric field: dim 2.7 is not an integer"),
        ('{"p": "abc"}', "bad.json: could not convert"),
        ('{"p": [NaN, 1.0]}', "bad.json: probability vector has non-finite entries"),
        ('{"p": null}', "bad.json: probability vector has non-finite entries"),
        ("3", "bad.json: expected a JSON object"),
        ('{"im": [[0.5, 0], [0, 0.5]]}', "bad.json: missing 're' field"),
        ('{"dim": 3, "re": [[0.5, 0], [0, 0.5]]}', "bad.json: matrix shape does not match dim 3"),
        ('{"re": [[1, 0], [0, 1]]}', "bad.json: trace 2.0 deviates from 1 by more than 1e-08"),
    ],
    ids=["syntax", "string", "ragged", "dim", "dim_fraction", "p_string", "p_nan", "p_null", "not_object",
         "no_re", "dim_mismatch", "trace_2"],
)
def test_malformed_json_exits_2(tmp_path, capsys, text, diagnostic):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["compute", "fmin", str(bad), str(bad)])
    assert code == EXIT_INPUT
    assert diagnostic in capsys.readouterr().err


def test_distribution_against_a_state_file_exits_2(state_files, tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"p": [0.5, 0.5]}')
    assert main(["compute", "fidelity", str(p), state_files["rho"]]) == EXIT_INPUT
    assert "rho.json: missing 'p' field" in capsys.readouterr().err


def test_overflowing_entries_name_the_file_without_warnings(tmp_path):
    # symmetrizing 1e308 entries overflows; stderr holds the one input error
    rho, big = tmp_path / "r.json", tmp_path / "big.json"
    rho.write_text(json.dumps({"re": [[0.6, 0.0], [0.0, 0.4]]}))
    big.write_text(json.dumps({"re": [[1e308, 1e308], [1e308, -1e308]]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for files in (["rld", rho, big], ["fmin", big, rho]):
        proc = subprocess.run(
            [sys.executable, "-m", "revfid.cli", "compute", *map(str, files)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == f"input error: {big}: matrix has non-finite entries\n"


def test_singular_rho_exits_3(state_files, capsys):
    # a full-rank sigma is the base, so F_min against the pure rho is the closed form
    assert main(["compute", "fmin", state_files["pure"], state_files["sigma"]]) == EXIT_OK
    closed = f_min_pure(make_density(np.diag([0.8, 0.2])), PureState(np.array([1.0, 0.0])))
    assert capsys.readouterr().out.strip() == f"{closed:.12f}"
    # with both states singular no base exists
    assert main(["compute", "fmin", state_files["pure"], state_files["pure"]]) == EXIT_DOMAIN
    assert "domain error: rho is singular" in capsys.readouterr().err


def test_unknown_quantity_exits_2(state_files, capsys):
    assert main(["compute", "nonsense", state_files["rho"], state_files["sigma"]]) == EXIT_INPUT


def test_suite_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["suite", "reverse-tests", "--trials", "4", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["failures"] == []
    assert report["suite"] == "reverse-tests"
    assert "minimal_rt_achieves_fmin" in report["max_residual"]
    assert report["tolerances"] == {k: pytest.approx(v) for k, v in DEFAULT_TOLERANCES.items()}


def test_suite_deterministic(capsys):
    main(["suite", "geometry", "--trials", "3", "--seed", "7"])
    first = capsys.readouterr().out
    main(["suite", "geometry", "--trials", "3", "--seed", "7"])
    second = capsys.readouterr().out
    # wall time differs between runs; everything else must be identical
    a = json.loads(first)
    b = json.loads(second)
    a.pop("wall_time_seconds")
    b.pop("wall_time_seconds")
    assert a == b


def test_suite_canary_fails(capsys):
    code = main(["suite", "multiplicativity", "--trials", "2", "--seed", "1", "--canary-negate"])
    assert code == EXIT_SUITE
    report = json.loads(capsys.readouterr().out)
    assert report["failures"]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_canary_fails_every_suite(capsys, name):
    code = main(["suite", name, "--trials", "1", "--seed", "1", "--dims", "2", "--canary-negate"])
    assert code == EXIT_SUITE
    assert json.loads(capsys.readouterr().out)["failures"]


def test_suite_tolerance_override(capsys):
    # absurdly tight tolerance forces failures -> exit 4
    code = main(
        ["suite", "multiplicativity", "--trials", "4", "--seed", "1", "--tol", "multiplicativity=1e-18"]
    )
    assert code == EXIT_SUITE


def test_suite_bad_tolerance_exits_2(capsys):
    for tol, message in [
        ("nonsense=1", "unknown tolerance 'nonsense'"),
        ("sandwich_commuting=1e-6", "unknown tolerance 'sandwich_commuting'"),
        ("monotonicity", "--tol expects name=value"),
        ("monotonicity=abc", "bad tolerance value 'abc'"),
    ]:
        assert main(["suite", "sandwich", "--trials", "1", "--tol", tol]) == EXIT_INPUT
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(DEFAULT_TOLERANCES))
def test_every_tolerance_is_read_by_a_check(name):
    # at -inf every check that reads the tolerance fails, whatever its residual
    cfg = RunConfig(seed=3, trials=1, dims=(2,), tolerances={**DEFAULT_TOLERANCES, name: -math.inf})
    assert run_suite("all", cfg).failures


def test_every_invariant_fails_at_minus_infinity():
    # no check keeps a literal tolerance of its own: with every key at -inf,
    # every invariant the suites report fails
    cfg = RunConfig(seed=3, trials=1, dims=(2,), tolerances=dict.fromkeys(DEFAULT_TOLERANCES, -math.inf))
    report = run_suite("all", cfg)
    assert {f["invariant"] for f in report.failures} == set(report.max_residual)


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(trials=0)
    with pytest.raises(ValidationError):
        RunConfig(dims=(1,))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dims": (2.5,)}, r"^every dim must be an integer >= 2, got 2\.5$"),
        ({"trials": 1.5}, r"^trials must be an integer >= 1, got 1\.5$"),
        # the error used to name a derived trial seed, 2145557055.5
        ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
    ],
    ids=["dims", "trials", "seed"],
)
def test_run_config_type_checks_integer_arguments(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        RunConfig(**kwargs)


def test_run_config_accepts_negative_and_numpy_seeds():
    # `revfid suite --seed -5` is a valid run: the trial seeds are derived mod 2^31
    assert RunConfig(seed=-5).seed == -5
    assert RunConfig(seed=np.int64(-5), trials=np.int64(1), dims=(np.int32(2),)).trials == 1


def test_run_config_rejects_empty_dims():
    # run_suite cycles trials over dims: an empty tuple divided by zero
    with pytest.raises(ValidationError, match="dims"):
        RunConfig(dims=())


def test_run_config_rejects_missing_and_unknown_tolerances():
    tols = dict(DEFAULT_TOLERANCES)
    del tols["sandwich"]
    with pytest.raises(ValidationError, match="missing tolerance 'sandwich'"):
        RunConfig(tolerances=tols)
    with pytest.raises(ValidationError, match="unknown tolerance 'nonsense'"):
        RunConfig(tolerances={**DEFAULT_TOLERANCES, "nonsense": 1.0})


@pytest.mark.parametrize("value", ["x", None, 1j, True])
def test_run_config_rejects_non_numeric_tolerances(value):
    # math.isnan raised a raw TypeError: must be real number, not str
    with pytest.raises(ValidationError, match=rf"^tolerance 'monotonicity' must be a real number, got {value!r}$"):
        RunConfig(tolerances={**DEFAULT_TOLERANCES, "monotonicity": value})
    with pytest.raises(ValidationError, match="^tolerance 'monotonicity' is NaN$"):
        RunConfig(tolerances={**DEFAULT_TOLERANCES, "monotonicity": math.nan})
    for bound in (math.inf, -math.inf, np.float64(1e-9), 0):
        RunConfig(tolerances={**DEFAULT_TOLERANCES, "monotonicity": bound})


def test_suite_nan_tolerance_exits_2(capsys):
    # value > nan is always false: a NaN tolerance would switch every check off
    code = main(["suite", "monotonicity", "--trials", "1", "--tol", "monotonicity=nan"])
    assert code == EXIT_INPUT
    assert "NaN" in capsys.readouterr().err


def test_run_suite_all_smoke():
    report = run_suite("all", RunConfig(seed=3, trials=1, dims=(2,)))
    assert report.passed


def test_counterexample_triangle_fmin(capsys):
    code = main(["counterexample", "triangle-fmin", "--theta", str(math.pi / 3)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "fmin_psi_tau 0.732050807569" in out
    assert "violation yes" in out


def test_counterexample_triangle_fmin_boundary(capsys):
    code = main(["counterexample", "triangle-fmin", "--theta", str(math.pi / 2)])
    assert code == EXIT_OK  # boundary case reported without assertion
    out = capsys.readouterr().out
    assert "fmin_psi_tau 0.707106781187" in out
    assert "angle_defect 0.000000000000" in out


def test_counterexample_triangle_deltamax(capsys):
    code = main(["counterexample", "triangle-deltamax", "--theta", "0.2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "delta_max_psi_phi 1.000000000000" in out
    assert "violation yes" in out
    bound = float(next(l.split()[1] for l in out.splitlines() if l.startswith("detour_upper_bound")))
    assert bound == pytest.approx(0.814227400652, abs=1e-10)


def test_counterexample_theta_out_of_range(capsys):
    assert main(["counterexample", "triangle-fmin", "--theta", "3.0"]) == EXIT_INPUT


def test_geodesic_csv(state_files, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        ["geodesic", state_files["rho"], state_files["sigma"], "--samples", "21", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-2:] == ["j_rld", "cumulative_length"]
    assert len(lines) == 22
    final = lines[-1].split(",")
    half_len = 0.5 * float(final[-1])
    assert half_len == pytest.approx(math.acos(math.sqrt(0.4) + math.sqrt(0.1)), abs=1e-6)
    # constant speed: J column equals (2 theta)^2 everywhere
    theta = math.acos(math.sqrt(0.4) + math.sqrt(0.1))
    for row in lines[1:]:
        assert float(row.split(",")[-2]) == pytest.approx((2 * theta) ** 2, abs=1e-9)


def test_geodesic_pure_target(tmp_path, capsys):
    # sigma = |0><0| is singular at t = 1, where the velocity vanishes on its kernel
    rho = tmp_path / "rho.json"
    pure = tmp_path / "pure.json"
    rho.write_text(json.dumps({"dim": 2, "re": [[0.6, 0.1], [0.1, 0.4]]}))
    pure.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}))
    assert main(["geodesic", str(rho), str(pure)]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    theta = math.acos(math.sqrt(0.23 / 0.4))  # f_min(rho, |0><0|) = <0|rho^-1|0>^-1/2
    assert len(rows) == 33
    for row in rows:
        assert float(row[-2]) == pytest.approx((2 * theta) ** 2, abs=1e-9)
    assert 0.5 * float(rows[-1][-1]) == pytest.approx(theta, abs=1e-6)


def test_geodesic_identical_endpoints(state_files, capsys):
    code = main(["geodesic", state_files["rho"], state_files["rho"]])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + single row
    assert float(lines[1].split(",")[-1]) == 0.0


def test_geodesic_deterministic(state_files, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["geodesic", state_files["rho"], state_files["sigma"], "--out", str(a)])
    main(["geodesic", state_files["rho"], state_files["sigma"], "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _geodesic_csv_via_scipy(rho, sigma, samples):
    """The geodesic CSV with its lengths from scipy.integrate.cumulative_trapezoid: the reference."""
    curve = fmin_geodesic(rho, sigma, n_samples=samples)
    speeds = curve_speeds(curve, "rld")
    lengths = cumulative_trapezoid(speeds, x=curve.times, initial=0.0)
    columns = [f"rho_{part}_{i}_{j}" for i, j in np.ndindex(rho.mat.shape) for part in ("re", "im")]
    lines = [",".join(["t", *columns, "j_rld", "cumulative_length"])]
    for t, state, speed, length in zip(curve.times, curve.states, speeds, lengths):
        entries = [x for z in state.mat.ravel() for x in (z.real, z.imag)]
        lines.append(",".join(f"{x:.12g}" for x in [t, *entries, speed * speed, length]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("samples", [21, 34, 501])
def test_geodesic_csv_is_byte_identical_to_the_scipy_route(tmp_path, samples):
    for seed, dim in ((1, 2), (2, 3), (3, 4)):
        rho, sigma = random_density(dim, dim, seed), random_density(dim, dim, seed + 20)
        paths = []
        for name, state in (("rho", rho), ("sigma", sigma)):
            path = tmp_path / f"{name}{seed}.json"
            path.write_text(json.dumps({"re": state.mat.real.tolist(), "im": state.mat.imag.tolist()}))
            paths.append(str(path))
        out = tmp_path / f"curve{seed}.csv"
        assert main(["geodesic", *paths, "--samples", str(samples), "--out", str(out)]) == EXIT_OK
        # the files round-trip the states exactly, so the reference sees the same inputs
        expected = _geodesic_csv_via_scipy(make_density(rho.mat), make_density(sigma.mat), samples)
        assert out.read_bytes() == expected.encode()
