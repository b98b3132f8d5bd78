import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.linalg import solve_sylvester
from scipy.linalg.lapack import zgees, ztrsyl

from revfid import geometry
from revfid.divergences import (
    OperatorMonotoneSpec,
    delta_max_bounds,
    delta_max_pure,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    quasi_entropy_comparison,
    reverse_relative_entropy,
    t_operator,
    trace_distance_quantum,
    uhlmann_fidelity,
)
from revfid.errors import DimensionMismatchError, DomainError, SingularStateError, ValidationError
from revfid.geometry import (
    Curve,
    GeodesicState,
    TangentPoint,
    classical_fisher,
    commutative_geodesic_flow,
    curve_length,
    curve_speeds,
    expansion_check,
    fisher_both,
    fmin_geodesic,
    fr_estimate,
    geodesic_start,
    rld_fisher,
    rld_geodesic_flow,
    sld_fisher,
    tangent_reverse_estimation,
)
from revfid.geometry import (
    _gl_nodes,
    _integrate_flow,
    _lyapunov_solve,
    _rld_stage,
    _segment_lengths,
)
from revfid.linalg import HermitianMatrix
from revfid.reverse_tests import (
    general_reverse_test,
    hidden_pair,
    hidden_pair_fidelity,
    minimal_reverse_test,
    pure_target_reverse_test,
    verify_reverse_test,
)
from revfid.states import (
    DensityMatrix,
    ProbDist,
    PureState,
    SignedVector,
    make_density,
    random_density,
    random_pure,
    random_tangent,
    rng_for,
    state_distance,
)

ROOT = Path(__file__).resolve().parents[1]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def coin_tangent(t=0.5):
    return TangentPoint(
        make_density(np.diag([t, 1 - t])), HermitianMatrix(np.diag([1.0, -1.0]))
    )


# ------------------------------------------------------------------ Fisher


def test_sld_zero_velocity():
    tp = TangentPoint(random_density(3, 3, 1), HermitianMatrix(np.zeros((3, 3))))
    rep = sld_fisher(tp)
    assert rep.j_sld == 0.0
    assert np.allclose(rep.sld.entries, 0.0)


def test_sld_classical_coin():
    assert sld_fisher(coin_tangent()).j_sld == pytest.approx(4.0, abs=1e-12)


def test_sld_maximally_mixed_pauli():
    tp = TangentPoint(make_density(np.eye(2) / 2), HermitianMatrix(PAULI_X / 2))
    rep = sld_fisher(tp)
    assert rep.j_sld == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.sld.entries, PAULI_X, atol=1e-12)


def test_sld_lyapunov_residual():
    rho, v = random_tangent(4, 2)
    rep = sld_fisher(TangentPoint(rho, v))
    recon = 0.5 * (rep.sld.entries @ rho.mat + rho.mat @ rep.sld.entries)
    assert np.linalg.norm(recon - v.entries) < 1e-9


def test_rld_classical_coin_matches_sld():
    assert rld_fisher(coin_tangent()).j_rld == pytest.approx(4.0, abs=1e-12)


def test_rld_strictly_larger_noncommuting():
    tp = TangentPoint(make_density(np.diag([0.75, 0.25])), HermitianMatrix(PAULI_X / 2))
    rep = fisher_both(tp)
    assert rep.j_sld == pytest.approx(1.0, abs=1e-12)
    assert rep.j_rld == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rep.j_rld > rep.j_sld


def test_fisher_ordering_random():
    for seed in range(30):
        rho, v = random_tangent(3, seed)
        rep = fisher_both(TangentPoint(rho, v))
        assert rep.j_rld >= rep.j_sld - 1e-9


def test_tangent_point_rejects_trace():
    with pytest.raises(ValidationError):
        TangentPoint(random_density(2, 2, 1), HermitianMatrix(np.eye(2)))


# ------------------------------------------- tangent reverse estimation


def test_tangent_estimation_commuting():
    tp = coin_tangent(0.3)
    n, p, dp = tangent_reverse_estimation(tp)
    assert sorted(np.round(p.weights, 10)) == [0.3, 0.7]
    assert sorted(np.round(dp.values, 10)) == [-1.0, 1.0]
    # preparation columns are computational basis vectors up to order/phase
    assert np.allclose(np.sort(np.abs(n).ravel()), [0, 0, 1, 1], atol=1e-12)
    assert classical_fisher(p, dp) == pytest.approx(rld_fisher(tp).j_rld, abs=1e-10)


def test_tangent_estimation_zero_velocity():
    tp = TangentPoint(random_density(3, 3, 4), HermitianMatrix(np.zeros((3, 3))))
    _, p, dp = tangent_reverse_estimation(tp)
    assert np.allclose(dp.values, 0.0)
    assert classical_fisher(p, dp) == 0.0


@pytest.mark.parametrize("dp", [[-0.5, 0.5], [0.5, -0.5]])
def test_classical_fisher_rejects_dp_off_the_support_of_p(dp):
    # the p = 0 point was dropped, so these read 0.25 instead of having no finite value
    with pytest.raises(DomainError, match="dp is non-zero where p is 0"):
        classical_fisher(ProbDist([1.0, 0.0]), SignedVector(dp))


def test_classical_fisher_rejects_mismatched_sizes():
    with pytest.raises(DimensionMismatchError):
        classical_fisher(ProbDist([0.5, 0.5]), SignedVector([0.1, -0.1, 0.0]))


def test_tangent_estimation_achieves_rld():
    rho, v = random_tangent(2, 17)
    tp = TangentPoint(rho, v)
    n, p, dp = tangent_reverse_estimation(tp)
    assert abs(classical_fisher(p, dp) - rld_fisher(tp).j_rld) < 1e-8
    # reconstruction of both the state and the velocity
    assert np.linalg.norm((n * p.weights) @ n.conj().T - rho.mat) < 1e-8
    assert np.linalg.norm((n * dp.values) @ n.conj().T - v.entries) < 1e-8


def _ill_conditioned_point(i):
    """(rng, U, rho): rho = U diag(w) U† at d = 2..4 with least eigenvalue
    10^U(-9, -4), and the generator that drew it, for the velocity."""
    rng = rng_for(i, stream=11)
    dim = 2 + i % 3
    lam = 10.0 ** rng.uniform(-9.0, -4.0)
    w = rng.uniform(0.2, 1.0, dim)
    w[0] = 0.0
    w = w / w.sum() * (1.0 - dim * lam) + lam
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return rng, u, make_density((u * w) @ u.conj().T)


def test_fisher_commuting_tangents_on_ill_conditioned_states():
    # drho commutes with rho, so J^R = J^S; read from the same (w, X) they stay
    # equal, where J^R from an inverse of rho can fall below J^S by more than
    # the ordering check's 1e-9
    for i in range(400):
        rng, u, rho = _ill_conditioned_point(i)
        delta = rng.standard_normal(rho.dim)
        delta -= delta.mean()
        rep = fisher_both(TangentPoint(rho, HermitianMatrix((u * delta) @ u.conj().T)))
        assert abs(rep.j_rld - rep.j_sld) <= 1e-12 * rep.j_rld


def test_tangent_estimation_on_ill_conditioned_states():
    # dp must sum to 0 within 1e-9 while J^R, its classical Fisher
    # information, reaches 1e9 here
    for i in range(400):
        rng, _, rho = _ill_conditioned_point(i)
        g = rng.standard_normal((rho.dim, rho.dim)) + 1j * rng.standard_normal((rho.dim, rho.dim))
        v = g + g.conj().T
        v -= np.trace(v).real / rho.dim * np.eye(rho.dim)
        tp = TangentPoint(rho, HermitianMatrix(v))
        _, p, dp = tangent_reverse_estimation(tp)
        j = rld_fisher(tp).j_rld
        assert abs(classical_fisher(p, dp) - j) <= 1e-12 * j


def test_rld_fisher_matches_inverse_route():
    # L = drho rho^-1 and J^R = tr(drho rho^-1 drho) by an LU solve, on
    # well-conditioned points
    for seed in range(200):
        rho, v = random_tangent(2 + seed % 3, seed)
        rld_ref = np.linalg.solve(rho.mat, v.entries).conj().T
        j_ref = np.trace(v.entries @ np.linalg.solve(rho.mat, v.entries)).real
        rep = rld_fisher(TangentPoint(rho, v))
        assert np.linalg.norm(rep.rld - rld_ref) <= 1e-12 * np.linalg.norm(rld_ref)
        assert abs(rep.j_rld - j_ref) <= 1e-12 * j_ref


# ------------------------------------------------------------- geodesics


def test_fmin_geodesic_equal_endpoints():
    rho = random_density(2, 2, 3)
    curve = fmin_geodesic(rho, rho, 9)
    assert curve_length(curve, "rld") == pytest.approx(0.0, abs=1e-12)


def test_fmin_geodesic_commuting_length():
    rho = make_density(np.diag([0.5, 0.5]))
    sigma = make_density(np.diag([0.8, 0.2]))
    curve = fmin_geodesic(rho, sigma, 33)
    expect = 2 * math.acos(math.sqrt(0.4) + math.sqrt(0.1))
    assert curve_length(curve, "rld") == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(0.643501108793, abs=1e-10)


def test_fmin_geodesic_endpoints_and_half_length():
    rho = random_density(2, 2, 6)
    sigma = random_density(2, 2, 60)
    curve = fmin_geodesic(rho, sigma, 33)
    assert state_distance(curve.states[0], rho) < 1e-8
    assert state_distance(curve.states[-1], sigma) < 1e-8
    half = 0.5 * curve_length(curve, "rld")
    assert abs(half - math.acos(f_min(rho, sigma))) < 1e-6


def test_fmin_geodesic_rld_matrices_commute():
    rho = random_density(2, 2, 14)
    sigma = random_density(2, 2, 15)
    curve = fmin_geodesic(rho, sigma, 9)
    mats = [
        rld_fisher(TangentPoint(s, v)).rld
        for s, v in zip(curve.states, curve.velocities)
    ]
    for a in mats:
        for b in mats:
            assert np.linalg.norm(a @ b - b @ a) < 1e-7


# ---------------------------------------------------------- curve length


def test_curve_length_needs_samples():
    rho = random_density(2, 2, 1)
    still = HermitianMatrix(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        curve_length(
            Curve(np.array([0.0, 1.0]), (rho, rho), (still, still)), "rld"
        )


@pytest.mark.parametrize(
    "times, n_states, n_velocities, match",
    [
        ([0.0, 0.5, 1.0], 2, None, "times and states must have equal length"),
        ([[0.0, 1.0]], 2, None, "times and states must have equal length"),
        ([0.0, 0.5, 0.5], 3, None, "time grid must be strictly increasing"),
        ([0.0, 0.5, 1.0], 3, 2, "velocities length must match states"),
    ],
)
def test_curve_rejects_malformed_grids(times, n_states, n_velocities, match):
    # n_velocities None: one velocity per state
    rho = random_density(2, 2, 1)
    vels = (HermitianMatrix(np.zeros((2, 2))),) * (n_states if n_velocities is None else n_velocities)
    with pytest.raises(ValidationError, match=match):
        Curve(np.array(times), (rho,) * n_states, vels)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_curve_rejects_non_finite_times(bad):
    # a NaN time passed the ordering check, and curve_length returned nan under a RuntimeWarning
    curve = fmin_geodesic(random_density(2, 2, 1), random_density(2, 2, 2), n_samples=5)
    with pytest.raises(ValidationError, match="time grid has non-finite entries"):
        Curve(np.array([0.0, bad, 0.5, 0.75, 1.0]), curve.states, curve.velocities)


@pytest.mark.parametrize("velocity_dim", [None, 3])
def test_curve_rejects_mixed_dims(velocity_dim):
    # unchecked, curve_length failed later with a raw numpy ValueError
    rho = random_density(2, 2, 1)
    # velocity_dim None: the states mix dims, each with a zero velocity of its own dim
    states = (rho, rho, random_density(3, 3, 1)) if velocity_dim is None else (rho,) * 3
    vels = tuple(HermitianMatrix(np.zeros((velocity_dim or s.dim,) * 2)) for s in states)
    with pytest.raises(DimensionMismatchError):
        Curve(np.array([0.0, 0.5, 1.0]), states, vels)


def test_curve_length_of_one_state_is_zero():
    still = HermitianMatrix(np.zeros((2, 2)))
    assert curve_length(Curve(np.array([0.0]), (random_density(2, 2, 1),), (still,)), "rld") == 0.0


def test_curve_has_no_default_velocities():
    with pytest.raises(TypeError, match="velocities"):
        Curve(np.array([0.0]), (random_density(2, 2, 1),))


def test_fmin_geodesic_needs_two_samples():
    with pytest.raises(ValidationError, match=r"^n_samples must be an integer >= 2, got 1$"):
        fmin_geodesic(random_density(2, 2, 1), random_density(2, 2, 2), n_samples=1)


@pytest.mark.parametrize("n_samples", [3.0, True, "5", None])
def test_fmin_geodesic_rejects_non_integer_samples(n_samples):
    # 3.0 used to reach np.linspace and raise a raw TypeError
    with pytest.raises(ValidationError, match=rf"^n_samples must be an integer >= 2, got {n_samples!r}$"):
        fmin_geodesic(random_density(2, 2, 1), random_density(2, 2, 2), n_samples)


def test_curve_length_rejects_unknown_metric():
    curve = fmin_geodesic(random_density(2, 2, 1), random_density(2, 2, 2), 5)
    with pytest.raises(ValidationError):
        curve_length(curve, "bures")


def test_coin_great_circle_length_pi():
    # orthogonal endpoints (1,0) -> (0,1) embedded diagonally
    delta = 1e-8
    times = np.linspace(delta, 1 - delta, 101)
    states, vels = [], []
    for t in times:
        c, s = math.cos(math.pi * t / 2), math.sin(math.pi * t / 2)
        states.append(make_density(np.diag([c * c, s * s])))
        vels.append(HermitianMatrix(np.diag([-math.pi * c * s, math.pi * c * s])))
    curve = Curve(times, tuple(states), tuple(vels))
    assert curve_length(curve, "sld") == pytest.approx(math.pi, abs=1e-6)
    assert curve_length(curve, "rld") == pytest.approx(math.pi, abs=1e-6)


def _central_difference_error(curve):
    """max over the interior samples of ||(rho_{i+1} - rho_{i-1}) / (t_{i+1} - t_{i-1}) - v_i||_F,
    relative to max ||v_i||_F: the attached velocities against a plain central difference of the states."""
    t = curve.times
    m = np.array([s.mat for s in curve.states])
    v = np.array([x.entries for x in curve.velocities])
    fd = (m[2:] - m[:-2]) / (t[2:] - t[:-2])[:, None, None]
    return np.max(np.linalg.norm(fd - v[1:-1], axis=(1, 2))) / np.max(np.linalg.norm(v, axis=(1, 2)))


# (dim, seed) pairs random_density(d, d, s) -> random_density(d, d, s + 100) whose RLD flow
# completes 100 steps; (2, 8) and (3, 22) run close to the cone's boundary
RLD_FLOW_PAIRS = [(2, 0), (2, 1), (2, 8), (3, 6), (3, 22), (4, 24), (4, 26)]


@pytest.mark.parametrize("build", ["fmin_geodesic", "commutative_geodesic_flow", "rld_geodesic_flow"])
def test_curve_velocities_are_the_derivative_of_the_states(build):
    # the central difference errs by h^2 rho^(3) / 6 + O(h^4): on the grid steps h and h/2 the error is at
    # most 2 h^2 (measured at most 1.21 h^2 on 90 geodesics, 1.2 h^2 on 90 commutative and 1.65 h^2 on 29
    # RLD flows, d = 2..4, seeds 0..29) and falls about fourfold (3.86 to 4.75 measured) when h halves
    pairs = RLD_FLOW_PAIRS if build == "rld_geodesic_flow" else [(d, s) for d in (2, 3, 4) for s in range(4)]
    for d, s in pairs:
        rho, sigma = random_density(d, d, s), random_density(d, d, s + 100)
        if build == "fmin_geodesic":
            coarse, fine = (fmin_geodesic(rho, sigma, n) for n in (33, 65))
        else:
            flow = commutative_geodesic_flow if build == "commutative_geodesic_flow" else rld_geodesic_flow
            start, total = geodesic_start(rho, sigma)
            coarse, fine = (flow(start, total / n, n) for n in (100, 200))
        h = coarse.times[1] - coarse.times[0]
        e_coarse, e_fine = _central_difference_error(coarse), _central_difference_error(fine)
        assert e_coarse <= 2.0 * h * h
        assert 3.5 <= e_coarse / e_fine <= 5.0


def _quadrature_grids(n, rng, irregular=1):
    """A uniform grid, then irregular ones: uniform random points, and steps over six decades."""
    yield np.linspace(0.0, 1.0, n)
    for _ in range(irregular):
        yield np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, n - 2))))
        yield np.cumsum(rng.random(n) ** 3 + 1e-6)


def test_simpson_port_is_scipy_simpson_bit_for_bit():
    # odd n: pairs of intervals only; even n: Cartwright's correction on the last interval,
    # where numpy's array power and the scalar pow can round the cube differently
    # (about 1 grid in 400 on an AVX-512 host), hence 50 irregular grids of each kind per n
    rng = np.random.default_rng(15)
    for n in range(3, 61):
        for x in _quadrature_grids(n, rng, irregular=50):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert geometry._simpson(y, x) == simpson(y, x=x)


def test_cumulative_trapezoid_is_scipys_bit_for_bit():
    rng = np.random.default_rng(16)
    for n in range(2, 61):
        for x in _quadrature_grids(n, rng):
            y = rng.random(n)
            assert np.array_equal(geometry._cumulative_trapezoid(y, x), cumulative_trapezoid(y, x=x, initial=0.0))


def test_curve_length_is_scipy_simpson_of_the_speeds():
    for seed in range(9):
        dim = 2 + seed % 3
        for n in (17, 18, 33, 34):
            curve = fmin_geodesic(random_density(dim, dim, seed), random_density(dim, dim, seed + 40), n)
            for metric in ("rld", "sld"):
                assert curve_length(curve, metric) == simpson(curve_speeds(curve, metric), x=curve.times)


def _curve_length_by_sample(curve, metric="rld"):
    """Independent route: one eigh per sample, in curve order."""
    speeds = []
    for state, vel in zip(curve.states, curve.velocities):
        w, v = np.linalg.eigh(state.mat)
        d = v.conj().T @ vel.entries @ v
        w = np.maximum(w, 1e-290)
        if metric == "rld":
            j = float(np.sum(np.abs(d) ** 2 / w[None, :]))
        else:
            j = float(np.sum(2.0 * np.abs(d) ** 2 / np.add.outer(w, w)))
        if not math.isfinite(j) or j > 1e15:
            raise DomainError("metric undefined: velocity leaves the support of a singular state")
        speeds.append(math.sqrt(max(j, 0.0)))
    return float(simpson(np.array(speeds), x=curve.times))


@pytest.mark.parametrize("metric", ["rld", "sld"])
def test_curve_length_matches_sample_loop(metric):
    for seed in range(9):
        dim = 2 + seed % 3
        curve = fmin_geodesic(random_density(dim, dim, seed), random_density(dim, dim, seed + 40), 17)
        ref = _curve_length_by_sample(curve, metric)
        assert abs(curve_length(curve, metric) - ref) <= 1e-12 * ref


def test_curve_length_velocity_off_support_matches_sample_loop():
    rho = make_density(np.diag([1.0, 0.0]))
    curve = Curve(
        np.array([0.0, 0.5, 1.0]),
        (make_density(np.diag([0.5, 0.5])), rho, rho),
        tuple(HermitianMatrix(np.diag([-1.0, 1.0])) for _ in range(3)),
    )
    for metric in ("rld", "sld"):
        with pytest.raises(DomainError) as ref:
            _curve_length_by_sample(curve, metric)
        with pytest.raises(DomainError) as got:
            curve_length(curve, metric)
        assert str(got.value) == str(ref.value)


def test_curve_length_pure_target_takes_endpoint_limit():
    # at t = 1 an eigenvalue of |0><0| is 0 and the velocity vanishes on its
    # eigenvector: J there is the 0/0 limit (2 theta)^2, not 0
    rho = make_density(np.array([[0.6, 0.1], [0.1, 0.4]]))
    phi = PureState(np.array([1.0, 0.0]))
    curve = fmin_geodesic(rho, phi.projector(), 33)
    theta = math.acos(f_min_pure(rho, phi))
    assert abs(0.5 * curve_length(curve, "rld") - theta) < 1e-6
    assert np.allclose(curve_speeds(curve, "rld"), 2 * theta, rtol=0.0, atol=1e-9)


def test_curve_speeds_limit_needs_two_regular_samples():
    pure = make_density(np.diag([1.0, 0.0]))
    still = HermitianMatrix(np.zeros((2, 2)))
    curve = Curve(np.array([0.0, 0.5, 1.0]), (random_density(2, 2, 1), pure, pure), (still,) * 3)
    with pytest.raises(DomainError, match="fewer than two samples"):
        curve_speeds(curve, "rld")


# ---------------------------------------------------------------- flows


def test_flow_rejects_zero_l():
    rho = random_density(2, 2, 2)
    with pytest.raises(ValidationError):
        commutative_geodesic_flow(GeodesicState(rho, np.zeros((2, 2), complex)), 0.01, 5)


def test_flow_rejects_bad_constraint():
    rho = make_density(np.diag([0.7, 0.3]))
    l = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)  # rho L† != L rho
    with pytest.raises(ValidationError):
        commutative_geodesic_flow(GeodesicState(rho, l), 0.01, 5)


@pytest.mark.parametrize("flow", [commutative_geodesic_flow, rld_geodesic_flow])
@pytest.mark.parametrize(
    "l, error, match",
    [
        (np.eye(3, dtype=complex), DimensionMismatchError, "shape"),
        (np.array([1.0, -1.0], dtype=complex), DimensionMismatchError, "shape"),
        (np.diag([1.0, np.nan]).astype(complex), ValidationError, "L has non-finite"),
        (np.diag([np.inf, -1.0]).astype(complex), ValidationError, "L has non-finite"),
        # meets rho L† = L rho, but tr(L rho) = 1/2
        (0.5 * np.eye(2, dtype=complex), ValidationError, r"start violates tr\(L rho\) = 0"),
    ],
)
def test_flow_rejects_malformed_l(flow, l, error, match):
    # rejected before any arithmetic: no matmul error, no RuntimeWarning
    with pytest.raises(error, match=match):
        flow(GeodesicState(make_density(np.diag([0.5, 0.5])), l), 0.01, 5)


@pytest.mark.parametrize(
    "state_as_array, l, match",
    [
        (True, np.diag([1.0, -1.0]), "^state must be a DensityMatrix, got ndarray$"),
        (False, "L", "^L must be an array of numbers$"),
        (False, [[1.0, "x"], [0.0, -1.0]], "^L must be an array of numbers$"),
    ],
)
def test_geodesic_state_names_a_malformed_field(state_as_array, l, match):
    # unchecked, a flow raised a raw AttributeError (no attribute 'mat') or numpy's ValueError
    rho = make_density(np.diag([0.5, 0.5]))
    with pytest.raises(ValidationError, match=match):
        GeodesicState(rho.mat if state_as_array else rho, l)


# every public function of a state pair, with the names its one pair check, states.require_pair, gives its arguments
PAIR_FUNCTIONS = {
    "fmin_geodesic": (fmin_geodesic, ("rho", "sigma")),
    "fr_estimate": (fr_estimate, ("rho", "sigma")),
    "geodesic_start": (geodesic_start, ("rho", "sigma")),
    "uhlmann_fidelity": (uhlmann_fidelity, ("rho", "sigma")),
    "t_operator": (t_operator, ("rho", "sigma")),
    "f_min": (f_min, ("rho", "sigma")),
    "f_min_via_geomean": (f_min_via_geomean, ("rho", "sigma")),
    "f_f_min": (lambda rho, sigma: f_f_min(rho, sigma, OperatorMonotoneSpec.sqrt()), ("rho", "sigma")),
    "quasi_entropy_comparison": (lambda rho, sigma: quasi_entropy_comparison(rho, sigma, 0.5), ("rho", "sigma")),
    "reverse_relative_entropy": (reverse_relative_entropy, ("rho", "sigma")),
    "trace_distance_quantum": (trace_distance_quantum, ("rho", "sigma")),
    "delta_max_bounds": (delta_max_bounds, ("rho", "sigma")),
    "minimal_reverse_test": (minimal_reverse_test, ("rho", "sigma")),
    "general_reverse_test": (lambda rho, sigma: general_reverse_test(rho, sigma, np.eye(2)), ("rho", "sigma")),
    "hidden_pair": (hidden_pair, ("rho", "sigma")),
    "hidden_pair_fidelity": (hidden_pair_fidelity, ("rho", "sigma")),
    "state_distance": (state_distance, ("a", "b")),
    "f_min_pure": (f_min_pure, ("rho", "phi")),
    "delta_max_pure": (delta_max_pure, ("rho", "phi")),
    "pure_target_reverse_test": (pure_target_reverse_test, ("rho", "phi")),
    "verify_reverse_test": (verify_reverse_test, ("rt", "rho", "sigma")),
}


@pytest.mark.parametrize(
    "call, names, which",
    [
        pytest.param(call, names, i, id=f"{names[i]}-{name}")
        for name, (call, names) in PAIR_FUNCTIONS.items()
        for i in range(len(names))
    ],
)
def test_pair_constructions_name_an_array_state(call, names, which):
    # unchecked, an argument given as its array raised a raw AttributeError
    rho, sigma, phi = random_density(2, 2, 1), random_density(2, 2, 2), random_pure(2, 3)
    rt = minimal_reverse_test(rho, sigma)
    given = {"rho": rho, "sigma": sigma, "a": rho, "b": sigma, "phi": phi, "rt": rt}
    arrays = {"rho": rho.mat, "sigma": sigma.mat, "a": rho.mat, "b": sigma.mat, "phi": phi.amplitudes, "rt": rt.prep}
    args = [given[n] for n in names]
    kind = type(args[which]).__name__
    args[which] = arrays[names[which]]
    with pytest.raises(ValidationError, match=f"^{names[which]} must be a {kind}, got ndarray$"):
        call(*args)


@pytest.mark.parametrize("flow", [commutative_geodesic_flow, rld_geodesic_flow])
def test_list_start_behaves_like_array_start(flow):
    start, _ = geodesic_start(random_density(3, 3, 11), random_density(3, 3, 12))
    listed = GeodesicState(start.state, start.rld_matrix.tolist())
    assert listed.rld_matrix.dtype == complex and not listed.rld_matrix.flags.writeable
    assert listed.constraint_residual() == start.constraint_residual()
    a, b = flow(start, 0.01, 4), flow(listed, 0.01, 4)
    assert all(np.array_equal(x.mat, y.mat) for x, y in zip(a.states, b.states))
    real = GeodesicState(make_density(np.diag([0.5, 0.5])), [[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(flow(real, 0.01, 3).states[-1].mat, flow(_unit_start(), 0.01, 3).states[-1].mat)


@pytest.mark.parametrize("flow", [commutative_geodesic_flow, rld_geodesic_flow])
def test_flow_rejects_singular_start(flow):
    # satisfies every other start check: rho L† = L rho, tr(L rho) = 0, J^R = 1
    gs = GeodesicState(
        make_density(np.diag([0.5, 0.5, 0.0])), np.diag([1.0, -1.0, 0.0]).astype(complex)
    )
    with pytest.raises(SingularStateError):
        flow(gs, 0.01, 5)


def test_geodesic_start_is_unit_speed():
    rho = random_density(2, 2, 6)
    sigma = random_density(2, 2, 60)
    gs, total = geodesic_start(rho, sigma)
    assert total == pytest.approx(2 * math.acos(f_min(rho, sigma)), abs=1e-9)
    j = np.trace(gs.rld_matrix.conj().T @ gs.rld_matrix @ rho.mat).real
    assert j == pytest.approx(1.0, abs=1e-8)
    assert gs.constraint_residual() < 1e-8
    assert abs(np.trace(gs.rld_matrix @ rho.mat).real) < 1e-8


def test_geodesic_start_at_the_target_is_at_rest():
    rho = random_density(3, 3, 6)
    gs, total = geodesic_start(rho, rho)
    assert total == 0.0
    assert gs.state is rho and np.array_equal(gs.rld_matrix, np.zeros((3, 3)))


def test_commutative_flow_matches_classical_closed_form():
    rho = make_density(np.diag([0.5, 0.5]))
    sigma = make_density(np.diag([0.8, 0.2]))
    gs, total = geodesic_start(rho, sigma)
    flow = commutative_geodesic_flow(gs, total / 200, 200)
    p = np.array([0.5, 0.5])
    q = np.array([0.8, 0.2])
    theta = math.acos(np.sum(np.sqrt(p * q)))
    for t, st in zip(flow.times, flow.states):
        amp = (np.sin((1 - t) * theta) * np.sqrt(p) + np.sin(t * theta) * np.sqrt(q)) / math.sin(theta)
        assert np.abs(np.diag(st.mat).real - amp**2).max() < 1e-6


def test_commutative_flow_reaches_sigma():
    rho = random_density(2, 2, 6)
    sigma = random_density(2, 2, 60)
    gs, total = geodesic_start(rho, sigma)
    flow = commutative_geodesic_flow(gs, total / 500, 500)
    assert state_distance(flow.states[-1], sigma) < 1e-5
    geo = fmin_geodesic(rho, sigma, 2)
    assert state_distance(flow.states[-1], geo.states[-1]) < 1e-5


def test_commutative_flow_preserves_trace():
    rho = random_density(3, 3, 12)
    sigma = random_density(3, 3, 13)
    gs, total = geodesic_start(rho, sigma)
    flow = commutative_geodesic_flow(gs, 1e-3 * total, 1000)
    drift = max(abs(np.trace(s.mat).real - 1.0) for s in flow.states)
    assert drift < 1e-6


def test_rld_flow_agrees_with_commutative_on_commuting_data():
    rho = make_density(np.diag([0.5, 0.5]))
    sigma = make_density(np.diag([0.8, 0.2]))
    gs, total = geodesic_start(rho, sigma)
    a = commutative_geodesic_flow(gs, total / 200, 200)
    b = rld_geodesic_flow(gs, total / 200, 200)
    assert max(state_distance(x, y) for x, y in zip(a.states, b.states)) < 1e-6


def test_rld_flow_diagonal_invariance():
    gs = GeodesicState(make_density(np.eye(2) / 2), np.diag([1.0, -1.0]).astype(complex))
    flow = rld_geodesic_flow(gs, 1e-3, 1000)
    assert max(abs(s.mat[0, 1]) for s in flow.states) < 1e-12
    assert max(abs(np.trace(s.mat).real - 1.0) for s in flow.states) < 1e-6


def test_rld_flow_unit_speed_drift():
    rho = random_density(2, 2, 44)
    sigma = random_density(2, 2, 45)
    gs, _ = geodesic_start(rho, sigma)
    flow = rld_geodesic_flow(gs, 1e-3, 1000)  # unit flow time, dt*steps = 1
    drift = 0.0
    for st, v in zip(flow.states, flow.velocities):
        j = rld_fisher(TangentPoint(st, v)).j_rld
        drift = max(drift, abs(j - 1.0))
    assert drift < 1e-4


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("flow", [commutative_geodesic_flow, rld_geodesic_flow])
def test_flow_multi_seed_curve_or_domain_error(dim, flow):
    # the only failure a flow may report on valid starts is a DomainError;
    # a ValidationError or LinAlgError propagates and fails the test
    for seed in range(6):
        rho = random_density(dim, dim, seed)
        sigma = random_density(dim, dim, seed + 500)
        gs, total = geodesic_start(rho, sigma)
        try:
            flow_curve = flow(gs, total / 500, 500)
        except DomainError:
            continue
        assert len(flow_curve.states) == len(flow_curve.velocities) == 501
        assert all(isinstance(s, DensityMatrix) for s in flow_curve.states)
        assert min(s.min_eigenvalue() for s in flow_curve.states) >= -1e-10
        assert max(abs(np.trace(s.mat).real - 1.0) for s in flow_curve.states) < 1e-6


def test_commutative_flow_near_singular_start_curve_or_domain_error():
    # rho = (1 - eps) R + eps I/d with R of rank ceil(d/2): the flow meets the
    # cone's boundary only where some weight reaches 0, so a start that close
    # to it still yields a curve or a DomainError, never an invalid state
    for i in range(30):
        dim = 2 + i % 3
        eps = 10.0 ** rng_for(i, stream=5).uniform(-8.0, -4.0)
        r = random_density(dim, math.ceil(dim / 2), 1000 + i).mat
        rho = make_density((1.0 - eps) * r + eps * np.eye(dim) / dim)
        gs, total = geodesic_start(rho, random_density(dim, dim, 2000 + i))
        try:
            flow_curve = commutative_geodesic_flow(gs, total / 500, 500)
        except DomainError:
            continue
        assert len(flow_curve.states) == len(flow_curve.velocities) == 501
        assert min(s.min_eigenvalue() for s in flow_curve.states) >= -1e-10
        assert max(abs(np.trace(s.mat).real - 1.0) for s in flow_curve.states) < 1e-6


def test_commutative_flow_reaches_sigma_near_the_boundary():
    # lambda_min(rho) = 9.4e-7: a fixed-step RK4 of the same flow, with the
    # same 500 steps, leaves the cone at step 3
    rho, sigma = random_density(3, 3, 457471300), random_density(3, 3, 457471301)
    assert rho.min_eigenvalue() < 1e-6
    gs, total = geodesic_start(rho, sigma)
    flow = commutative_geodesic_flow(gs, total / 500, 500)
    assert state_distance(flow.states[-1], sigma) < 1e-9


def test_geodesic_start_near_singular_rho():
    # rho = (1 - eps) R + eps I/d with R of rank ceil(d/2), down to eps = 1e-9:
    # L0 = drho rho^-1 must pass the flow's own start check, and the flows with
    # eps >= 1e-8 must reach sigma
    reached = 0
    for i in range(300):
        dim = 2 + i % 3
        eps = 10.0 ** rng_for(i, stream=7).uniform(-9.0, 0.0)
        r = random_density(dim, math.ceil(dim / 2), 3000 + i).mat
        rho = make_density((1.0 - eps) * r + eps * np.eye(dim) / dim)
        sigma = random_density(dim, dim, 4000 + i)
        gs, total = geodesic_start(rho, sigma)
        geometry._check_flow_start(gs, total / 500, 500)
        if eps >= 1e-8:
            flow = commutative_geodesic_flow(gs, total / 500, 500)
            assert state_distance(flow.states[-1], sigma) < 1e-6
            reached += 1
    assert reached == 253


def _arc_pairs(family):
    if family == "random":
        for i in range(100):
            dim = 2 + i % 4
            yield random_density(dim, dim, 5000 + i), random_density(dim, dim, 6000 + i)
        return
    # README's ill-conditioned family: rho = (1 - eps) R + eps I/d, R of rank ceil(d/2), eps from 1e-9 to 1
    for dim in (2, 3, 4):
        for s in range(200):
            eps = 10.0 ** (-9 + 9 * (s % 50) / 50)
            r = random_density(dim, math.ceil(dim / 2), s).mat
            yield make_density((1 - eps) * r + eps * np.eye(dim) / dim), random_density(dim, dim, s + 7)


@pytest.mark.parametrize("family", ["random", "ill_conditioned"])
def test_geodesic_start_reads_the_arc_off_the_minimal_test(family):
    # the arc time is 2 arccos F_min bit for bit, and L0 agrees with the route it replaced:
    # the RLD matrix of a sampled fmin_geodesic's velocity at 0, divided by sqrt(J^R)
    for rho, sigma in _arc_pairs(family):
        gs, total = geodesic_start(rho, sigma)
        assert total == 2 * math.acos(minimal_reverse_test(rho, sigma).fidelity())
        fisher = rld_fisher(TangentPoint(rho, fmin_geodesic(rho, sigma, n_samples=3).velocities[0]))
        ref = fisher.rld / math.sqrt(fisher.j_rld)
        assert np.linalg.norm(gs.rld_matrix - ref) <= 1e-10 * np.linalg.norm(ref)


def _flow_with_stage(stage, start, dt, steps):
    """The RK4 integrator of rld_geodesic_flow with its stage solve dL/dt = _rld_stage(r, m)
    replaced by ``stage``."""
    with mock.patch.object(geometry, "_rld_stage", stage):
        return _integrate_flow(start, dt, steps)


def _matrix_rk4_flow(start, dt, steps):
    """The commutative flow as a d x d matrix RK4 on (rho, L): the ODE route
    that the closed form of commutative_geodesic_flow is checked against."""
    eye = np.eye(start.state.dim)
    return _flow_with_stage(lambda _r, m: -0.5 * (m @ m + eye), start, dt, steps)


def test_commutative_flow_matches_matrix_rk4():
    # the matrix RK4 converges to the closed form at order 4: halving the
    # step divides its global error by 2^4 = 16
    starts = [(dim, seed) for dim in (2, 3, 4) for seed in range(20)] + [(8, 0)]
    ratios = []
    for dim, seed in starts:
        gs, total = geodesic_start(random_density(dim, dim, seed), random_density(dim, dim, seed + 500))
        errors = []
        for steps in (50, 100):
            got = commutative_geodesic_flow(gs, total / steps, steps)
            ref = _matrix_rk4_flow(gs, total / steps, steps)
            assert np.array_equal(got.times, ref.times)
            errors.append([
                max(np.abs(a.mat - b.mat).max() for a, b in zip(got.states, ref.states)),
                max(np.abs(a.entries - b.entries).max() for a, b in zip(got.velocities, ref.velocities)),
            ])
        ratios.append(np.divide(*errors))
    assert np.min(ratios) >= 15.0
    assert 15.5 <= np.median(ratios) <= 16.5


def _rejected_step(flow, gs, dt, steps):
    with pytest.raises(DomainError, match=r"^step \d+ rejected: ") as err:
        flow(gs, dt, steps)
    return int(str(err.value).split()[1])


def test_flows_past_the_arc_end_in_domain_error():
    # past the arc an eigenvalue l = tan(.) of L diverges where rho's weight on
    # it reaches 0: the closed form stops at the first grid step past that
    # time; the matrix RK4's l then grows by orders of magnitude per step, and
    # its residual crosses the bound at that step or the next
    for seed in range(6):
        gs, total = geodesic_start(random_density(3, 3, seed), random_density(3, 3, seed + 500))
        for factor in (1.5, 2.0, 4.0, 8.0):
            dt = factor * total / 500
            got = _rejected_step(commutative_geodesic_flow, gs, dt, 500)
            ref = _rejected_step(_matrix_rk4_flow, gs, dt, 500)
            assert ref - got in (0, 1)


@pytest.mark.parametrize(
    "dt, match",
    [
        # l = tan(pi/4 - t/2) diverges at t = pi/2: between steps 1 and 2
        (1.0, "step 2 rejected: L diverges at t = 1.5708"),
        (3.0, "step 1 rejected: L diverges at t = 1.5708"),
        (-1.0, "step 2 rejected: L diverges at t = -1.5708"),
    ],
)
def test_commutative_flow_rejects_first_bad_step(dt, match):
    gs = GeodesicState(make_density(np.diag([0.5, 0.5])), np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(DomainError, match=match):
        commutative_geodesic_flow(gs, dt, 6)


@pytest.mark.parametrize("abort_after_calls", [None, 4])
def test_flow_reports_first_invalid_step_before_later_abort(abort_after_calls):
    # a steep dL/dt pushes step 1 out of the PSD cone; a stage failure at step 2
    # must not mask it, since a step-by-step loop rejects step 1 first
    gs = GeodesicState(make_density(np.diag([0.5, 0.5])), np.zeros((2, 2), complex))
    calls = []

    def deriv_l(_r, _m):
        calls.append(1)
        if abort_after_calls is not None and len(calls) > abort_after_calls:
            raise DomainError("stage failure")
        return -np.diag([40.0, 0.0])

    with pytest.raises(ValidationError, match="min eigenvalue"):
        _flow_with_stage(deriv_l, gs, 0.5, 3)


def _unit_start():
    return GeodesicState(make_density(np.diag([0.5, 0.5])), np.diag([1.0, -1.0]).astype(complex))


@pytest.mark.parametrize("flow", [commutative_geodesic_flow, rld_geodesic_flow])
@pytest.mark.parametrize(
    "dt, steps, match",
    [
        (0.0, 3, "dt must be finite and non-zero"),
        (math.nan, 3, "dt must be finite and non-zero"),
        (math.inf, 3, "dt must be finite and non-zero"),
        (1j, 3, "dt must be finite and non-zero"),
        (0.01, -2, "steps must be an integer >= 0"),
        (0.01, 2.5, "steps must be an integer >= 0"),
        (0.01, 3.0, "steps must be an integer >= 0"),
        (0.01, True, "steps must be an integer >= 0"),
    ],
)
def test_flow_rejects_bad_dt_or_steps(flow, dt, steps, match):
    # rejected before any arithmetic: no ZeroDivisionError, TypeError or numpy error
    with pytest.raises(ValidationError, match=match):
        flow(_unit_start(), dt, steps)


@pytest.mark.parametrize("flow", [commutative_geodesic_flow, rld_geodesic_flow])
def test_flow_zero_steps_and_backward_steps(flow):
    gs = _unit_start()
    curve = flow(gs, 0.01, np.int64(0))
    assert len(curve.states) == len(curve.velocities) == 1
    assert curve.states[0] is gs.state
    # a negative dt runs the flow backward on the same normalized grid
    fwd, back = flow(gs, 0.01, 5), flow(gs, -0.01, 5)
    assert np.array_equal(fwd.times, back.times)
    diag = [np.diag(s.mat).real for s in back.states]
    assert np.allclose(diag, [d[::-1] for d in (np.diag(s.mat).real for s in fwd.states)], atol=1e-12)


@pytest.mark.parametrize("dt", [1.0, 2.0])
def test_rld_flow_non_finite_stage_is_the_steps_domain_error(dt):
    # L and rho stay diagonal, so the residual is 0 until l overflows; the
    # non-finite stage (at dt = 2 it reaches the LU solve) must end in the
    # step's DomainError, not a LAPACK error
    with pytest.raises(DomainError, match=r"step \d+ rejected: constraint residual nan"):
        rld_geodesic_flow(_unit_start(), dt, 6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rld_stage_passes_non_finite_on(bad):
    # no LAPACK error: the stage is not finite, and the integrator, which runs
    # the stages under this errstate, rejects the step on its residual
    r = np.diag([0.5, 0.5]).astype(complex)
    r[0, 1] = bad
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dl = _rld_stage(r, np.diag([1.0, -1.0]).astype(complex))
    assert not np.isfinite(dl).all()


def test_rld_stage_unconverged_eigensolve_is_not_finite(monkeypatch):
    # above KRONECKER_STAGE_MAX_DIM the stage runs eigh_upper: an eigensolve that does not converge
    # returns NaN where np.linalg.eigh would raise, and the stage is lost
    dim = geometry.KRONECKER_STAGE_MAX_DIM + 1
    monkeypatch.setattr(geometry, "eigh_upper", lambda a: (np.full(dim, np.nan), np.full((dim, dim), np.nan + 0j)))
    r, l, _ = _stage_point(dim, 0)
    with np.errstate(invalid="ignore"):  # as the integrator runs its stages
        dl = _rld_stage(r, l)
    assert np.isnan(dl).all()


def test_rld_stage_singular_solve_is_the_steps_domain_error():
    # up to KRONECKER_STAGE_MAX_DIM the stage is one LU solve: at r = 0 its Kronecker form is
    # singular, the solve returns NaN where np.linalg.solve would raise, and the step is rejected
    dim = geometry.KRONECKER_STAGE_MAX_DIM
    with np.errstate(invalid="ignore"):
        assert np.isnan(_rld_stage(np.zeros((dim, dim), complex), np.eye(dim, dtype=complex))).all()
    with pytest.raises(DomainError, match="step 1 rejected: constraint residual nan"):
        _flow_with_stage(lambda r, m: _rld_stage(np.zeros_like(r), m), _unit_start(), 0.01, 3)


def test_integrate_flow_nan_derivative_is_the_steps_domain_error():
    with pytest.raises(DomainError, match="step 1 rejected: constraint residual nan"):
        _flow_with_stage(lambda r, _m: np.full_like(r, np.nan), _unit_start(), 0.01, 3)


def _schur_stage(r, m):
    """The stage solve the eigenbasis route replaced, kept as an oracle:
    rho dL + dL rho = -(rho L†L + rho) on the complex stage point r itself,
    by Bartels-Stewart (Comm. ACM 15, 1972) with one Schur factor
    r = U T U† for both sides; T Y + Y T = U† rhs U is solved by ztrsyl.
    A non-finite stage gives NaN, so the step's residual check rejects it."""
    rhs = -(r @ m.conj().T @ m + r)
    if not (np.isfinite(r).all() and np.isfinite(rhs).all()):
        return np.full_like(r, np.nan)
    t, _, _, u, _, info = zgees(lambda _: None, r)  # unsorted: the callback is unused
    assert info == 0
    uh = u.conj().T
    y, scale, info = ztrsyl(t, t, uh @ rhs @ u)  # scale < 1 only to avoid overflow
    assert info >= 0
    return u @ (y / scale) @ uh


def _schur_flow(start, dt, steps):
    return _flow_with_stage(_schur_stage, start, dt, steps)


def _flow_outcome(flow, gs, dt, steps):
    """The curve, or the step number of the DomainError that ended the flow."""
    try:
        return flow(gs, dt, steps)
    except DomainError as err:
        assert str(err).startswith("step ")
        return int(str(err).split()[1])


def test_rld_flow_matches_schur_route():
    # completed flows agree to rounding, amplified along the arc; where the
    # flow reaches the cone's boundary, L blows up within a few steps and the
    # two routes round the residual differently, so the abort may move a step
    # d = 5 and 6 run the eigenbasis stage, d = 2..4 the Kronecker one
    completed = 0
    for dim, seed in [(dim, seed) for dim in (2, 3, 4) for seed in range(20)] + [(5, 0), (5, 1), (6, 0), (6, 1)]:
        gs, total = geodesic_start(random_density(dim, dim, seed), random_density(dim, dim, seed + 500))
        got = _flow_outcome(rld_geodesic_flow, gs, total / 500, 500)
        ref = _flow_outcome(_schur_flow, gs, total / 500, 500)
        assert isinstance(got, int) == isinstance(ref, int), (dim, seed)
        if isinstance(got, int):
            assert abs(got - ref) <= 1, (dim, seed)
            continue
        completed += 1
        assert np.array_equal(got.times, ref.times)
        for a, b in zip(got.states, ref.states):
            assert np.abs(a.mat - b.mat).max() <= 1e-9
    assert completed >= 10


def _stage_point(dim, seed):
    rng = rng_for(seed, stream=3)
    rho = random_density(dim, dim, seed).mat
    l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    r = rho + 0.05 * (l @ rho)  # an RK4 stage point: not Hermitian
    return r, l, -(r @ l.conj().T @ l + r)


def test_lyapunov_kernel_matches_scipy():
    # the flow's stage solve: the Hermitian part of the stage point, the
    # actual (non-Hermitian) right side
    for seed in range(30):
        r, _, rhs = _stage_point(2 + seed % 3, seed)
        assert np.linalg.norm(r - r.conj().T) > 1e-3
        a = 0.5 * (r + r.conj().T)
        w, v = np.linalg.eigh(a)
        x = _lyapunov_solve(w, v, rhs)
        ref = solve_sylvester(a, a, rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(a @ x + x @ a - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_kronecker_stage_matches_eigenbasis_stage(monkeypatch):
    # the two sides of KRONECKER_STAGE_MAX_DIM solve the same stage equation to rounding, amplified by
    # the condition number of X -> hX + Xh, max |w_i + w_j| / min |w_i + w_j|: up to 1.2e4 here, where
    # some stage point's h is indefinite; the gap is at most 8.3e-16 times it on these points
    points = [_stage_point(2 + seed % 3, seed)[:2] for seed in range(30)]
    kron = [_rld_stage(r, l) for r, l in points]
    monkeypatch.setattr(geometry, "KRONECKER_STAGE_MAX_DIM", 0)
    for (r, l), got in zip(points, kron):
        ref = _rld_stage(r, l)
        w = np.linalg.eigvalsh(r + r.conj().T)
        sums = np.abs(w[:, None] + w)
        assert np.linalg.norm(got - ref) <= 1e-14 * (sums.max() / sums.min()) * np.linalg.norm(ref)


def test_sld_fisher_matches_eigenbasis_formula():
    # the SLD is L = V (2 D / (w_i + w_j)) V† with D = V† drho V
    for k in range(50):
        dim = 2 + k % 5
        rho, vel = random_tangent(dim, 7_000 + k)
        w, v = rho.spectrum.eigenvalues, rho.spectrum.frame
        ref = v @ (2.0 * (v.conj().T @ vel.entries @ v) / np.add.outer(w, w)) @ v.conj().T
        ref = 0.5 * (ref + ref.conj().T)
        j_ref = np.trace(ref @ vel.entries).real
        rep = sld_fisher(TangentPoint(rho, vel))
        assert np.linalg.norm(rep.sld.entries - ref) <= 1e-12 * np.linalg.norm(ref)
        assert abs(rep.j_sld - j_ref) <= 1e-12 * abs(j_ref)


def _unit_speed_point(k):
    """(rho, L) at unit RLD speed, with L = V rho^-1 for a traceless Hermitian V
    (so rho L† = L rho); dims cycle 2, 3, 4, 6."""
    dim = (2, 3, 4, 6)[k % 4]
    rho = random_density(dim, dim, 90_000 + k).mat
    g = rng_for(90_000 + k, stream=5).standard_normal((dim, dim, 2)) @ [1.0, 1j]
    v = g + g.conj().T
    v -= np.trace(v).real / dim * np.eye(dim)
    rho_inv = np.linalg.inv(rho)
    v /= math.sqrt(np.trace(v @ rho_inv @ v).real)
    return rho, v @ rho_inv


def _assert_euler_lagrange(dl, l):
    # the Euler-Lagrange equation of the RLD energy under tr rho = 1 at unit
    # speed: dL/dt + dL/dt† + L†L + I = 0
    ll = l.conj().T @ l
    dim = len(l)
    residual = np.linalg.norm(dl + dl.conj().T + ll + np.eye(dim))
    assert residual <= 1e-11 * (np.linalg.norm(ll) + math.sqrt(dim))


def test_stage_solve_satisfies_euler_lagrange():
    for k in range(80):
        rho, l = _unit_speed_point(k)
        _assert_euler_lagrange(_rld_stage(rho, l), l)


def test_first_stage_solve_loads_no_scipy(tmp_path):
    # a fresh process whose first call is the stage solve: its LU solve is numpy's own
    rho, l = _unit_speed_point(1)
    np.save(tmp_path / "rho.npy", rho)
    np.save(tmp_path / "l.npy", l)
    code = (
        "import sys, numpy as np\n"
        "from revfid.geometry import _rld_stage\n"
        f"rho, l = np.load({str(tmp_path / 'rho.npy')!r}), np.load({str(tmp_path / 'l.npy')!r})\n"
        f"np.save({str(tmp_path / 'dl.npy')!r}, _rld_stage(rho, l))\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    dl = np.load(tmp_path / "dl.npy")
    assert np.isfinite(dl).all()
    _assert_euler_lagrange(dl, l)


CHART_FAILURES = {1: "degenerate chart point", 2: "chart path leaves the positive cone"}


def _segment_by_node(g0, g1):
    """Independent route for one segment, one node at a time: its length
    and each node's failure code (0 regular, else a key of CHART_FAILURES)."""
    nodes, weights = _gl_nodes()
    dg = g1 - g0
    length, codes = 0.0, []
    for u, w in zip(nodes, weights):
        g = g0 + u * dg
        m = g @ g.conj().T
        tau = float(np.trace(m).real)
        if tau <= 0.0:
            codes.append(1)
            continue
        dm = dg @ g.conj().T + g @ dg.conj().T
        dtau = float(np.trace(dm).real)
        rho = m / tau
        drho = dm / tau - m * (dtau / tau**2)
        if np.linalg.eigvalsh(rho)[0] <= 1e-13:
            codes.append(2)
            continue
        codes.append(0)
        j = float(np.trace(drho @ np.linalg.inv(rho) @ drho).real)
        length += w * math.sqrt(max(j, 0.0))
    return length, codes


def _chart_length_by_node(anchors):
    """Independent route: one node at a time, in path order."""
    total = 0.0
    for g0, g1 in zip(anchors[:-1], anchors[1:]):
        length, codes = _segment_by_node(g0, g1)
        for code in codes:
            if code:
                raise DomainError(CHART_FAILURES[code])
        total += length
    return total


def _chart_length(anchors):
    """RLD length of the path rho(t) = G(t)G(t)†/tr, G piecewise linear through
    the anchors, by one stacked _segment_lengths call; the first failing node
    in path order names the error."""
    a = np.asarray(anchors)
    lengths, failing = _segment_lengths(a[:-1], a[1:])
    if failing.any():  # a boolean mask keeps path order
        raise DomainError(CHART_FAILURES[failing[failing > 0][0]])
    return float(lengths.sum())


def test_segment_lengths_stacked_matches_node_loop():
    for seed in range(6):
        dim = 2 + seed % 3
        rng = rng_for(seed, stream=6)
        starts, ends = rng.standard_normal((2, 2, 2, dim, dim, 2)) @ [1.0, 1j]
        # one degenerate segment and one that stays on the cone's boundary
        starts[1, 0] = ends[1, 0] = 0.0
        starts[1, 1] = ends[1, 1] = np.diag([1.0] + [0.0] * (dim - 1))
        lengths, failing = _segment_lengths(starts, ends)
        assert lengths.shape == (2, 2) and failing.shape == (2, 2, 8)
        for k in np.ndindex(2, 2):
            ref, codes = _segment_by_node(starts[k], ends[k])
            assert failing[k].tolist() == codes
            if not any(codes):
                assert abs(lengths[k] - ref) <= 1e-12 * ref
        assert set(failing[1, 0].tolist()) == {1} and set(failing[1, 1].tolist()) == {2}


def test_chart_length_matches_node_loop():
    for seed in range(20):
        dim = 2 + seed % 3
        rng = rng_for(seed, stream=4)
        anchors = [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(3 + seed % 3)
        ]
        ref = _chart_length_by_node(anchors)
        assert abs(_chart_length(anchors) - ref) <= 1e-12 * ref


@pytest.mark.parametrize(
    "anchors",
    [
        [np.zeros((2, 2), complex)] * 2,
        [np.eye(2), np.diag([1.0, 0.5]), np.diag([1.0, 0.0]), np.diag([1.0, 0.0])],
        [np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.zeros((2, 2))],
    ],
)
def test_chart_length_first_failing_node(anchors):
    anchors = [np.asarray(a, dtype=complex) for a in anchors]
    with pytest.raises(DomainError) as ref:
        _chart_length_by_node(anchors)
    with pytest.raises(DomainError) as got:
        _chart_length(anchors)
    assert str(got.value) == str(ref.value)


# ------------------------------------------------------------ fr estimate


def test_fr_equal_states_is_one():
    rho = random_density(2, 2, 5)
    assert fr_estimate(rho, rho, 3, 5, 0) == 1.0


def test_fr_commuting_pinches():
    rho = make_density(np.diag([0.5, 0.5]))
    sigma = make_density(np.diag([0.8, 0.2]))
    fr = fr_estimate(rho, sigma, 3, 10, 1)
    fmin = f_min(rho, sigma)
    assert abs(fr - fmin) < 1e-6
    assert abs(fr - uhlmann_fidelity(rho, sigma)) < 1e-6


def test_fr_strictly_above_fmin_on_smoothed_orthogonal_pair():
    theta = math.pi / 3
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    psi = np.array([c, s])
    phi = np.array([c, -s])
    eps = 1e-3
    rho = make_density((1 - eps) * np.outer(psi, psi) + eps * np.eye(2) / 2)
    sigma = make_density((1 - eps) * np.outer(phi, phi) + eps * np.eye(2) / 2)
    fr = fr_estimate(rho, sigma, 3, 25, 1)
    fmin = f_min(rho, sigma)
    assert fr > fmin + 1e-3
    assert fr <= uhlmann_fidelity(rho, sigma) + 1e-8


def _fr_estimate_full_path(rho, sigma, control_points, iterations, seed):
    """The search with one whole-path evaluation per trial and sign, each
    node by node: the route fr_estimate's segment reuse replaced."""
    fmin_val = f_min(rho, sigma)
    if fmin_val >= 1.0 - 1e-12:
        return 1.0
    best = 2.0 * math.acos(fmin_val)
    anchors = [s.sqrt() for s in fmin_geodesic(rho, sigma, n_samples=control_points + 2).states]
    try:
        current = _chart_length_by_node(anchors)
    except DomainError:
        return math.cos(0.5 * best)
    best = min(best, current)
    rng = rng_for(seed)
    step = 0.1 * float(np.mean([np.linalg.norm(a) for a in anchors]))
    shrink_levels = 0
    d = rho.dim
    for _ in range(iterations):
        improved = False
        for i in range(1, len(anchors) - 1):
            direction = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            direction /= np.linalg.norm(direction)
            for sign in (1.0, -1.0):
                trial = [a.copy() for a in anchors]
                trial[i] = trial[i] + sign * step * direction
                try:
                    length = _chart_length_by_node(trial)
                except DomainError:
                    continue
                if length < current - 1e-12:
                    anchors, current, improved = trial, length, True
                    break
        best = min(best, current)
        if not improved:
            step *= 0.5
            shrink_levels += 1
            if shrink_levels >= 12:
                break
    return float(min(math.cos(0.5 * best), 1.0))


def test_fr_matches_full_path_search():
    for seed in range(60):
        dim = 2 + seed % 3
        rho = random_density(dim, dim, 3_000 + seed)
        sigma = random_density(dim, dim, 4_000 + seed)
        ref = _fr_estimate_full_path(rho, sigma, 3, 6, seed)
        assert abs(fr_estimate(rho, sigma, 3, 6, seed) - ref) <= 1e-12


def test_fr_evaluates_only_moved_segments(monkeypatch):
    shapes = []

    def counted(starts, ends, *args, _original=geometry._segment_lengths, **kwargs):
        shapes.append(np.shape(starts)[:-2])
        return _original(starts, ends, *args, **kwargs)

    monkeypatch.setattr(geometry, "_segment_lengths", counted)
    rho, sigma = random_density(3, 3, 11), random_density(3, 3, 12)
    for control_points, iterations in ((3, 6), (2, 9), (5, 4)):
        shapes.clear()
        fr_estimate(rho, sigma, control_points, iterations, 7)
        # the whole path once, then one call per trial: two signs x two segments
        assert shapes[0] == (control_points + 1,)
        assert set(shapes[1:]) == {(2, 2)}
        assert len(shapes) <= 1 + iterations * control_points


def test_fr_keeps_the_plus_trial_when_both_signs_shorten(monkeypatch):
    rho, sigma = random_density(2, 2, 21), random_density(2, 2, 22)
    best = 2.0 * math.acos(f_min(rho, sigma))
    seed = 5
    rng = rng_for(seed)  # the search's one draw: its direction at the one interior anchor
    direction = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    anchor = []

    def lengths(starts, ends):
        shape = np.shape(starts)[:-2]
        if shape == (2,):  # the whole path: two segments, each as long as the closed form
            anchor.append(ends[0])
            out = np.full(shape, best)
        else:  # both trials shorten; the move along -direction shortens more
            plus = [np.vdot(direction, ends[k, 0] - anchor[0]).real > 0 for k in range(2)]
            out = np.array([[0.3 * best if p else 0.1 * best] * 2 for p in plus])
        return out, np.zeros(shape + (8,), dtype=int)

    monkeypatch.setattr(geometry, "_segment_lengths", lengths)
    assert fr_estimate(rho, sigma, 1, 1, seed) == pytest.approx(math.cos(0.3 * best), abs=1e-15)


def test_fr_estimate_rejects_negative_or_non_integer_counts():
    rho, sigma = random_density(2, 2, 1), random_density(2, 2, 2)
    for control_points, iterations, name in ((-1, 20, "control_points"), (2.0, 20, "control_points"),
                                             (3, -4, "iterations"), (3, True, "iterations")):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 0"):
            fr_estimate(rho, sigma, control_points, iterations)
    # zero of each is valid: one segment, no search
    assert f_min(rho, sigma) - 1e-8 <= fr_estimate(rho, sigma, 0, 0) <= uhlmann_fidelity(rho, sigma) + 1e-8


def test_fr_sandwich_random():
    for seed in range(10):
        rho = random_density(2, 2, seed)
        sigma = random_density(2, 2, seed + 400)
        fr = fr_estimate(rho, sigma, 3, 6, seed)
        assert f_min(rho, sigma) - 1e-8 <= fr <= uhlmann_fidelity(rho, sigma) + 1e-8


# ------------------------------------------------------- expansion check


def test_expansion_zero_velocity():
    tp = TangentPoint(random_density(2, 2, 3), HermitianMatrix(np.zeros((2, 2))))
    rep = expansion_check(tp)
    assert all(r < 1e-12 for r in rep.residuals)


def test_expansion_classical_coin_order_three():
    # skewed coin: the cubic term survives (a fair coin with symmetric dp
    # is even in eps and converges at order 4 instead)
    tp = TangentPoint(
        make_density(np.diag([0.3, 0.7])), HermitianMatrix(np.diag([0.3, -0.3]))
    )
    rep = expansion_check(tp)
    assert 2.7 <= rep.slope <= 3.3


def test_expansion_random_qubit_both_metrics():
    rho, v = random_tangent(2, 8)
    tp = TangentPoint(rho, v)
    for which in ("fmin", "uhlmann"):
        rep = expansion_check(tp, which=which)
        assert 2.7 <= rep.slope <= 3.3


def test_expansion_rejects_cone_exit():
    rho = make_density(np.diag([0.95, 0.05]))
    v = HermitianMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        expansion_check(TangentPoint(rho, v), eps_list=(0.5, 0.25))


def test_expansion_rejects_unknown_fidelity():
    with pytest.raises(ValidationError, match="which must be 'fmin' or 'uhlmann'"):
        expansion_check(coin_tangent(), which="sld")


@pytest.mark.parametrize(
    "eps_list",
    [(), (0.1,), (0.1, 0.1), (0.1, 0.0), (0.1, -0.05), (0.1, np.nan), (0.1, np.inf), 0.1, [[0.1, 0.05]], ("a", "b")],
)
def test_expansion_rejects_bad_eps_list(eps_list):
    # the slope is a line fit in log eps: at least two distinct finite eps > 0
    with pytest.raises(ValidationError, match="eps_list"):
        expansion_check(coin_tangent(), eps_list=eps_list)


def test_arccos_bound_forms():
    # as an upper bound, the checklist's form with the correction factor inside
    # the root fails at every F < 1: with x = 1 - F, arccos(1-x)^2 = 2x + x^2/3
    # + 4x^3/45 + ... with every term positive, so the root falls short by about
    # 4x^3/45 in arccos^2 (at F = 0 it is sqrt(7/3) against pi/2); it is a lower
    # bound. With the factor outside the root it holds on all of [0, 1].
    grid = np.arange(0.0, 1.0 + 1e-3 / 2, 1e-3)
    inside = np.sqrt(2.0 * (1.0 - grid) * (1.0 + (1.0 - grid) / 6.0))
    assert not np.all(np.arccos(grid) <= inside + 1e-9)
    assert np.all(np.arccos(grid[:-1]) > inside[:-1])  # at every grid point F < 1
    outside = np.sqrt(2.0 * (1.0 - grid)) * (1.0 + (1.0 - grid) / 6.0)
    assert np.all(np.arccos(grid) <= outside + 1e-9)
