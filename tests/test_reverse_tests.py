import math

import numpy as np
import pytest

from revfid.divergences import (
    classical_fidelity,
    f_min,
    f_min_pure,
    t_operator,
    uhlmann_fidelity,
)
from revfid.errors import DomainError, ValidationError
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
    # (14 of these 600 pairs raised) and missed F_min by up to 2.9e-9
    for dim in (2, 3, 4):
        for s in range(200):
            eps = 10.0 ** (-9 + 9 * (s % 50) / 50)
            rank = math.ceil(dim / 2)
            rho = make_density((1 - eps) * random_density(dim, rank, s).mat + eps * np.eye(dim) / dim)
            sigma = random_density(dim, dim, s + 7)
            _, sigma_prime = hidden_pair(rho, sigma)
            gap = np.abs(sigma_prime.spectrum.eigenvalues - sigma.spectrum.eigenvalues).max()
            assert gap <= 1e-12
            assert abs(hidden_pair_fidelity(rho, sigma) - f_min(rho, sigma)) <= 1e-10


def test_prepared_pair_matches_classical_embedding():
    rho, sigma = qubit_pair(4)
    rt = minimal_reverse_test(rho, sigma)
    prep_rho, prep_sigma = rt.prepared_pair()
    assert np.allclose(prep_rho, rho.mat, atol=1e-12)
    assert np.allclose(prep_sigma, sigma.mat, atol=1e-12)
    assert classical_fidelity(rt.p, rt.q) == pytest.approx(rt.fidelity())


def test_general_reverse_test_keeps_q_mass_on_ill_conditioned_pair():
    # lambda_min(rho) = 2.7e-5 and T spans 0.11 to 124: the completion block C
    # puts a 1.5e8 eigenvalue on a column with p ~ 3e-17, where t^2 p lost
    # 1.7e-8 of q's mass and ProbDist rejected it
    from revfid.cli import RunConfig, run_suite

    report = run_suite("all", RunConfig(seed=16657441, trials=1, dims=(3,)))
    assert report.passed, report.failures
