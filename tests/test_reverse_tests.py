import math

import numpy as np
import pytest

from revfid.divergences import (
    OperatorMonotoneSpec,
    classical_fidelity,
    f_min,
    f_min_pure,
    quasi_entropy_comparison,
    t_operator,
    uhlmann_fidelity,
)
from revfid.errors import DimensionMismatchError, DomainError, ValidationError
from revfid.geometry import Curve, TangentPoint
from revfid.linalg import HermitianMatrix
from revfid.reverse_tests import (
    ReverseTest,
    general_reverse_test,
    hidden_pair,
    hidden_pair_fidelity,
    minimal_reverse_test,
    mixture_reverse_test,
    pure_target_reverse_test,
    sample_contraction,
    verify_reverse_test,
)
from revfid.states import (
    ProbDist,
    SignedVector,
    make_density,
    random_density,
    random_pure,
)


def qubit_pair(seed):
    return random_density(2, 2, seed), random_density(2, 2, seed + 1000)


def test_reverse_test_rejects_nonunit_columns():
    with pytest.raises(ValidationError):
        ReverseTest(
            prep=np.eye(2) * 2.0,
            p=ProbDist(np.array([0.5, 0.5])),
            q=ProbDist(np.array([0.5, 0.5])),
        )


@pytest.mark.parametrize("name", ["p", "q"])
def test_reverse_test_rejects_a_p_or_q_that_is_not_a_probdist(name):
    # a plain list used to raise AttributeError: 'list' object has no attribute 'size'
    kwargs = {"p": ProbDist(np.array([0.5, 0.5])), "q": ProbDist(np.array([0.5, 0.5])), name: [0.5, 0.5]}
    with pytest.raises(ValidationError, match=f"^{name} must be a ProbDist, got list$"):
        ReverseTest(np.eye(2), **kwargs)


@pytest.mark.parametrize("tol", [-1.0, math.nan, "x"], ids=["negative", "nan", "str"])
def test_verify_reverse_test_rejects_a_bad_tolerance(tol):
    # -1.0 and nan gave passes=False without error, and "x" a raw TypeError
    rho, sigma = qubit_pair(9)
    with pytest.raises(ValidationError, match=r"^tol must be a finite real >= 0, got "):
        verify_reverse_test(minimal_reverse_test(rho, sigma), rho, sigma, tol=tol)


def test_minimal_commuting_is_computational_basis():
    rho = make_density(np.diag([0.5, 0.5]))
    sigma = make_density(np.diag([0.8, 0.2]))
    rt = minimal_reverse_test(rho, sigma)
    # columns are basis vectors up to order/phase; distributions match spectra
    assert sorted(np.round(rt.p.weights, 12)) == [0.5, 0.5]
    assert sorted(np.round(rt.q.weights, 12)) == [0.2, 0.8]
    assert np.allclose(np.abs(rt.prep), np.abs(rt.prep).round())


def test_minimal_prepares_pair_and_achieves_fmin():
    rho, sigma = qubit_pair(9)
    rt = minimal_reverse_test(rho, sigma)
    rep = verify_reverse_test(rt, rho, sigma, tol=1e-8)
    assert rep.passes
    assert abs(rep.fidelity_of_pq - f_min(rho, sigma)) < 1e-9


def test_minimal_higher_dims():
    for dim in (3, 4, 5):
        rho = random_density(dim, dim, dim)
        sigma = random_density(dim, dim, dim + 17)
        rt = minimal_reverse_test(rho, sigma)
        assert verify_reverse_test(rt, rho, sigma, tol=1e-8).passes
        assert abs(rt.fidelity() - f_min(rho, sigma)) < 1e-9


def test_verification_catches_corruption():
    rho, sigma = qubit_pair(21)
    rt = minimal_reverse_test(rho, sigma)
    swapped = rt.p.weights.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    bad = ReverseTest(rt.prep, ProbDist(swapped), rt.q)
    assert not verify_reverse_test(bad, rho, sigma).passes


def test_sample_contraction_constraints():
    t = HermitianMatrix(np.diag([1.0, 2.0]))
    a = sample_contraction(t, 4)
    assert np.linalg.norm(a, ord=2) <= 1.0 + 1e-12
    ta = t.entries @ a
    assert np.linalg.norm(ta - a.conj().T @ t.entries) < 1e-10
    assert np.linalg.eigvalsh(0.5 * (ta + ta.conj().T))[0] > -1e-12


def test_general_reverse_test_identity_recovers_minimal():
    rho, sigma = qubit_pair(2)
    rt = general_reverse_test(rho, sigma, np.eye(2))
    assert verify_reverse_test(rt, rho, sigma, tol=1e-7).passes
    assert abs(rt.fidelity() - f_min(rho, sigma)) < 1e-7


def _fidelity_gap(rt, rho, sigma, a):
    # the family's contract: the test built from A has classical fidelity tr(rho T A)
    return abs(rt.fidelity() - np.trace(rho.mat @ t_operator(rho, sigma).entries @ a).real)


def test_general_reverse_test_identity_on_rank_deficient_sigma_is_minimal():
    # Psi's columns beyond T's rank carry rho's mass on T's kernel with q = 0;
    # a reduced SVD would drop them and lose that mass
    for dim in (2, 3, 4):
        for seed in range(100):
            rho = random_density(dim, dim, seed)
            sigma = random_density(dim, 1 + seed % (dim - 1), seed + 7)
            rt = general_reverse_test(rho, sigma, np.eye(dim))
            rep = verify_reverse_test(rt, rho, sigma)
            assert max(rep.rho_residual, rep.sigma_residual) <= 1e-12, (dim, seed)
            assert abs(rt.fidelity() - f_min(rho, sigma)) <= 1e-12, (dim, seed)


def test_general_reverse_test_fidelity_is_tr_rho_ta():
    for dim in (2, 3, 4, 5):
        for seed in range(100):
            rho = random_density(dim, dim, seed)
            sigma = random_density(dim, dim, seed + 7)
            for a in (sample_contraction(t_operator(rho, sigma), seed), np.eye(dim)):
                rt = general_reverse_test(rho, sigma, a)
                assert verify_reverse_test(rt, rho, sigma, tol=1e-10).passes, (dim, seed)
                assert _fidelity_gap(rt, rho, sigma, a) <= 1e-12, (dim, seed)


def test_general_reverse_test_on_ill_conditioned_rho():
    # lambda_min(rho) down to 1e-9 puts s_x ~ 1e6 on a letter with p_x ~ 1e-25:
    # that letter's direction comes from its sigma amplitude, which is s_x^2
    # times longer than its rho amplitude
    for dim in (2, 3, 4):
        for seed in range(200):
            eps = 10.0 ** (-9 + 9 * (seed % 50) / 50)
            rho = make_density((1 - eps) * random_density(dim, (dim + 1) // 2, seed).mat + eps * np.eye(dim) / dim)
            sigma = random_density(dim, dim, seed + 7)
            a = sample_contraction(t_operator(rho, sigma), seed)
            rt = general_reverse_test(rho, sigma, a)
            assert verify_reverse_test(rt, rho, sigma, tol=1e-7).passes, (dim, seed)
            assert _fidelity_gap(rt, rho, sigma, a) <= 1e-10, (dim, seed)


def test_general_reverse_test_strict_contraction_loses():
    rho, sigma = qubit_pair(13)
    t = t_operator(rho, sigma)
    a = 0.6 * sample_contraction(t, 13)
    rt = general_reverse_test(rho, sigma, a)
    assert verify_reverse_test(rt, rho, sigma, tol=1e-7).passes
    assert rt.fidelity() < f_min(rho, sigma) - 1e-6


def test_general_reverse_test_rejects_invalid_a():
    rho, sigma = qubit_pair(5)
    with pytest.raises(ValidationError):
        general_reverse_test(rho, sigma, 2.0 * np.eye(2))


def test_general_reverse_test_rejects_a_with_ta_just_below_the_cone():
    # TA = diag(0.5, -1e-9) passes the contraction check's -1e-8 cut; the test
    # is then built from TA clipped at 0, and A fails as an input, not as an
    # internal matrix the caller never passed
    rho = random_density(2, 2, 3)
    with pytest.raises(ValidationError, match="A is outside the valid family"):
        general_reverse_test(rho, rho, np.diag([0.5, -1e-9]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_general_reverse_test_rejects_non_finite_a(bad):
    # unchecked, a NaN reaches LAPACK (LinAlgError: SVD did not converge) and an
    # inf warns, then fails on an internal matrix
    rho, sigma = qubit_pair(6)
    a = 0.5 * sample_contraction(t_operator(rho, sigma), 6)
    a[0, 1] = bad
    with pytest.raises(ValidationError, match="contraction A has non-finite entries"):
        general_reverse_test(rho, sigma, a)


def test_verify_reverse_test_dim_mismatch():
    rho2, rho3 = random_density(2, 2, 1), random_density(3, 3, 1)
    with pytest.raises(DimensionMismatchError):
        verify_reverse_test(minimal_reverse_test(rho2, rho2), rho3, rho3)


def test_pure_target_reverse_test():
    rho = make_density(np.eye(2) / 2)
    phi = random_pure(2, 3)
    rt = pure_target_reverse_test(rho, phi)
    rep = verify_reverse_test(rt, rho, phi.projector(), tol=1e-9)
    assert rep.passes
    assert rt.p.weights[0] == pytest.approx(0.5, abs=1e-10)  # c = 1/2
    assert rt.fidelity() == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_pure_target_fidelity_matches_closed_form():
    rho = random_density(3, 3, 8)
    phi = random_pure(3, 9)
    rt = pure_target_reverse_test(rho, phi)
    assert verify_reverse_test(rt, rho, phi.projector(), tol=1e-8).passes
    assert rt.fidelity() == pytest.approx(f_min_pure(rho, phi), abs=1e-9)


def test_mixture_reverse_test():
    comps = []
    lams, mus = (0.3, 0.7), (0.6, 0.4)
    pairs = [qubit_pair(31), qubit_pair(32)]
    for (rho, sigma), lam, mu in zip(pairs, lams, mus):
        comps.append((minimal_reverse_test(rho, sigma), lam, mu))
    mixed = mixture_reverse_test(comps)
    rho_mix = make_density(sum(l * r.mat for (r, _), l in zip(pairs, lams)))
    sig_mix = make_density(sum(m * s.mat for (_, s), m in zip(pairs, mus)))
    assert verify_reverse_test(mixed, rho_mix, sig_mix, tol=1e-8).passes
    expect = sum(
        math.sqrt(l * m) * f_min(r, s) for (r, s), l, m in zip(pairs, lams, mus)
    )
    assert mixed.fidelity() == pytest.approx(expect, abs=1e-9)


def test_mixture_weights_validated():
    rho, sigma = qubit_pair(1)
    rt = minimal_reverse_test(rho, sigma)
    with pytest.raises(ValidationError):
        mixture_reverse_test([(rt, 0.5, 1.0), (rt, 0.4, 0.0)])


@pytest.mark.parametrize("weight", [math.nan, math.inf, "0.5", None, -0.5])
def test_mixture_rejects_non_finite_non_numeric_and_negative_weights(weight):
    # a NaN weight passed the sum and sign checks (NaN compares false) and failed later in ProbDist
    rt = minimal_reverse_test(*qubit_pair(1))
    for comps in ([(rt, weight, 0.5), (rt, 0.5, 0.5)], [(rt, 0.5, 0.5), (rt, 0.5, weight)]):
        with pytest.raises(ValidationError, match=r"^mixture weight must be a finite real >= -1e-12, got "):
            mixture_reverse_test(comps)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda rho, sigma: SignedVector([0.0, 0.0], total="0"), "declared total"),
        (lambda rho, sigma: SignedVector([0.0, 0.0], total=None), "declared total"),
        (lambda rho, sigma: OperatorMonotoneSpec.power("0.5"), "power exponent"),
        (lambda rho, sigma: quasi_entropy_comparison(rho, sigma, "0.5"), "alpha"),
        (lambda rho, sigma: ProbDist(["a", "b"]), "probability vector"),
        (lambda rho, sigma: general_reverse_test(rho, sigma, "x"), "contraction A"),
    ],
    ids=["total-str", "total-none", "power-str", "alpha-str", "probdist-str", "contraction-str"],
)
def test_non_numeric_input_is_a_validation_error_naming_it(call, name):
    with pytest.raises(ValidationError, match=f"^{name} "):
        call(*qubit_pair(3))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda rho, sigma: TangentPoint(rho.mat, HermitianMatrix(np.zeros((2, 2)))), "state"),
        (lambda rho, sigma: TangentPoint(rho, np.zeros((2, 2))), "velocity"),
        (lambda rho, sigma: Curve(np.array([0.0, 0.5, 1.0]), (rho,) * 3, (np.zeros((2, 2)),) * 3), "velocities"),
        (lambda rho, sigma: Curve(np.array([0.0, 0.5, 1.0]), (rho,) * 3, None), "velocities"),
        (lambda rho, sigma: Curve(np.array([0.0]), (rho,), 5), "velocities"),
        (lambda rho, sigma: Curve(np.array([0.0]), (rho.mat,), (HermitianMatrix(np.zeros((2, 2))),)), "states"),
        (lambda rho, sigma: sample_contraction(np.eye(2), 1), "t"),
        (lambda rho, sigma: mixture_reverse_test([minimal_reverse_test(rho, sigma)]), "mixture component"),
        (lambda rho, sigma: mixture_reverse_test([(rho, 1.0, 1.0)]), "mixture component test"),
    ],
    ids=[
        "tangent-state",
        "tangent-velocity",
        "curve-velocities",
        "curve-velocities-none",
        "curve-velocities-int",
        "curve-states",
        "contraction-t",
        "mixture-bare",
        "mixture-test",
    ],
)
def test_wrong_argument_type_is_a_validation_error_naming_it(call, name):
    # a wrong type raised a raw AttributeError or TypeError from deeper in the call; None velocities were
    # the finite-difference input of a Curve, which is removed
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        call(*qubit_pair(3))


def test_hidden_pair_commuting_is_identity():
    rho = make_density(np.diag([0.5, 0.5]))
    sigma = make_density(np.diag([0.8, 0.2]))
    _, sigma_prime = hidden_pair(rho, sigma)
    assert np.allclose(sigma_prime.mat, sigma.mat, atol=1e-12)


def test_hidden_pair_fidelity_equals_fmin():
    rho, sigma = qubit_pair(2)
    assert abs(hidden_pair_fidelity(rho, sigma) - f_min(rho, sigma)) < 1e-9


def test_hidden_pair_fidelity_higher_dims():
    for dim in (3, 4):
        rho = random_density(dim, dim, dim + 40)
        sigma = random_density(dim, dim, dim + 80)
        assert abs(hidden_pair_fidelity(rho, sigma) - f_min(rho, sigma)) < 1e-9


def test_uhlmann_dominates_fmin_via_hidden_pair():
    # the hidden pair realizes F_min as an Uhlmann fidelity of modified states
    rho, sigma = qubit_pair(77)
    assert hidden_pair_fidelity(rho, sigma) <= uhlmann_fidelity(rho, sigma) + 1e-9


def test_hidden_pair_w_factor_contract():
    # W_rho = sqrt(rho), W_sigma = sqrt(rho) T: W_rho W_rho† = rho,
    # W_sigma W_sigma† = sigma, W_rho W_sigma† is Hermitian and PSD, and the
    # hidden pair's T rho T is W_sigma† W_sigma
    for dim in range(2, 6):
        for s in range(25):
            rho, sigma = random_density(dim, dim, 300 + s), random_density(dim, dim, 400 + s)
            w_rho = rho.sqrt()
            w_sigma = w_rho @ t_operator(rho, sigma).entries
            cross = w_rho @ w_sigma.conj().T
            assert np.abs(w_rho @ w_rho.conj().T - rho.mat).max() <= 1e-12
            assert np.abs(w_sigma @ w_sigma.conj().T - sigma.mat).max() <= 1e-12
            assert np.abs(cross - cross.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(cross)[0] >= -1e-12
            assert np.abs(hidden_pair(rho, sigma)[1].mat - w_sigma.conj().T @ w_sigma).max() <= 1e-12


def test_hidden_pair_on_ill_conditioned_rho():
    # lambda_min(rho) from 1e-9 / d to 0.1: T rho T densely lost its unit trace
    # (14 of these 600 pairs raised) and missed F_min by up to 2.9e-9; the Uhlmann
    # fidelity of the hidden pair read from eigvalsh missed it by up to 6.1e-12
    for dim in (2, 3, 4):
        for s in range(200):
            eps = 10.0 ** (-9 + 9 * (s % 50) / 50)
            rank = math.ceil(dim / 2)
            rho = make_density((1 - eps) * random_density(dim, rank, s).mat + eps * np.eye(dim) / dim)
            sigma = random_density(dim, dim, s + 7)
            _, sigma_prime = hidden_pair(rho, sigma)
            gap = np.abs(sigma_prime.spectrum.eigenvalues - sigma.spectrum.eigenvalues).max()
            assert gap <= 1e-12
            assert abs(hidden_pair_fidelity(rho, sigma) - f_min(rho, sigma)) <= 1e-13


def test_prepared_pair_matches_classical_embedding():
    rho, sigma = qubit_pair(4)
    rt = minimal_reverse_test(rho, sigma)
    prep_rho, prep_sigma = rt.prepared_pair()
    assert np.allclose(prep_rho, rho.mat, atol=1e-12)
    assert np.allclose(prep_sigma, sigma.mat, atol=1e-12)
    assert classical_fidelity(rt.p, rt.q) == pytest.approx(rt.fidelity())


def test_general_reverse_test_keeps_q_mass_on_ill_conditioned_pair():
    # lambda_min(rho) = 2.7e-5 and T spans 0.11 to 124: a letter with p ~ 3e-17
    # carries q's mass, and computing q as t^2 p lost 1.7e-8 of it, which
    # ProbDist rejected
    from revfid.cli import RunConfig, run_suite

    report = run_suite("all", RunConfig(seed=16657441, trials=1, dims=(3,)))
    assert report.passed, report.failures
