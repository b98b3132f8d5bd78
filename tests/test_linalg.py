import warnings

import numpy as np
import pytest

from revfid.divergences import OperatorMonotoneSpec, f_f_min
from revfid.errors import DimensionMismatchError, DomainError, NotPsdError, ValidationError
from revfid.linalg import (
    STRICT_POS_FACTOR,
    ZERO_ROUNDOFF_FACTOR,
    HermitianMatrix,
    eig_hermitian,
    eigh_upper,
    geometric_mean,
    matrix_sqrt,
    solve1,
    trace_norm,
    zero_roundoff,
)
from revfid.reverse_tests import sample_contraction
from revfid.states import random_density


def test_hermitian_symmetrizes():
    h = HermitianMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert np.allclose(h.entries, h.entries.conj().T)
    assert h.entries[0, 1] == pytest.approx(1.0)


def test_hermitian_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.zeros((2, 3)))


def test_hermitian_rejects_nonfinite():
    with pytest.raises(ValidationError):
        HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eig_pauli_x():
    dec = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    # columns are (1,-1)/sqrt2 and (1,1)/sqrt2 up to phase
    for i, target in enumerate([np.array([1, -1]), np.array([1, 1])]):
        col = dec.frame[:, i]
        overlap = abs(np.vdot(col, target / np.sqrt(2)))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_eigh_upper_is_numpys_eigh_bit_for_bit():
    # eigh_upper is numpy's private heevd gufunc: a release that renames or changes it fails here
    rng = np.random.default_rng(2)
    shapes = [(d, d) for d in range(2, 7)] + [(5, 4, 4)]
    for shape in shapes:
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a = g + g.conj().swapaxes(-1, -2)
        for got, want in zip(eigh_upper(a), np.linalg.eigh(a, UPLO="U")):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_eigh_upper_returns_nan_where_eigh_raises():
    # the solve of an all-NaN matrix does not converge: eigh raises, eigh_upper passes NaN on
    a = np.full((3, 3), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(a)
    with np.errstate(invalid="ignore"):
        w, v = eigh_upper(a)
    assert np.isnan(w).all() and np.isnan(v).all()


def test_solve1_is_numpys_solve_bit_for_bit():
    # solve1 is numpy's private gesv gufunc for a 1-D right side: a release that renames or changes it fails here
    rng = np.random.default_rng(3)
    for d in range(1, 5):
        n = d * d
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got, want = solve1(a, b), np.linalg.solve(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_solve1_returns_nan_where_solve_raises():
    # a singular system: np.linalg.solve raises, solve1 under the RLD flow's errstate passes NaN on silently
    a, b = np.zeros((4, 4), dtype=complex), np.ones(4, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        warnings.simplefilter("error")
        x = solve1(a, b)
    assert np.isnan(x).all()


def test_eig_reconstruct():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = HermitianMatrix(g)
    dec = eig_hermitian(h)
    assert np.allclose(dec.reconstruct(), h.entries)


def test_map_spectrum_rejects_nonfinite_image():
    with pytest.raises(DomainError):
        OperatorMonotoneSpec.custom(np.sqrt)._evaluate(np.array([-1.0, 1.0]))


def test_matrix_sqrt_rejects_negative():
    with pytest.raises(NotPsdError) as exc:
        matrix_sqrt(np.diag([1.0, -0.5]))
    assert exc.value.report.min_eigenvalue == pytest.approx(-0.5)


def test_matrix_sqrt_clips_roundoff():
    out = matrix_sqrt(np.diag([1.0, -1e-14]))
    assert np.allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-7)


def test_geometric_mean_identity_reduces_to_sqrt():
    out = geometric_mean(np.eye(2), np.diag([4.0, 9.0]))
    assert np.allclose(out.entries, np.diag([2.0, 3.0]))


def test_geometric_mean_commuting_entrywise():
    out = geometric_mean(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    assert np.allclose(out.entries, np.diag([2.0, 2.0]))


def test_geometric_mean_symmetric():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    A = a @ a.T + 0.1 * np.eye(3)
    B = b @ b.T + 0.1 * np.eye(3)
    ab = geometric_mean(A, B).entries
    ba = geometric_mean(B, A).entries
    assert np.allclose(ab, ba, atol=1e-10)


def test_geometric_mean_rejects_singular_base():
    with pytest.raises(DomainError):
        geometric_mean(np.diag([1.0, 0.0]), np.eye(2))


@pytest.mark.parametrize("least", [0.9e-11, 1.5e-11, 0.9e-12, 1.5e-12])
def test_one_strict_positivity_rule(least):
    # the geometric mean's base and sample_contraction's T are strictly positive iff
    # lambda_min > STRICT_POS_FACTOR * max(1, lambda_max); at 1.5e-11 the base's old
    # scale, ||A||_F = 17.3, rejected what sample_contraction accepted
    lam_max = 10.0 if least > 5e-12 else 0.5
    t = HermitianMatrix(np.diag([least, lam_max, lam_max, lam_max]))
    calls = (lambda: geometric_mean(t, np.eye(4)), lambda: sample_contraction(t, 0))
    for call in calls:
        if least <= STRICT_POS_FACTOR * max(1.0, lam_max):
            with pytest.raises(DomainError):
                call()
        else:
            call()


def weighted_geometric_mean(A, B, alpha):
    """A #_alpha B = A^1/2 (A^-1/2 B A^-1/2)^alpha A^1/2 for A > 0, by two eigh."""
    w, v = np.linalg.eigh(A)
    ra, ira = (v * np.sqrt(w)) @ v.conj().T, (v / np.sqrt(w)) @ v.conj().T
    wi, vi = np.linalg.eigh(ira @ B @ ira)
    return ra @ (vi * np.clip(wi, 0.0, None) ** alpha) @ vi.conj().T @ ra


def test_weighted_geometric_mean_half_matches():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    A = a @ a.T + 0.2 * np.eye(3)
    B = b @ b.T + 0.2 * np.eye(3)
    assert np.allclose(weighted_geometric_mean(A, B, 0.5), geometric_mean(A, B).entries, atol=1e-10)
    # as an oracle: tr(rho #_alpha sigma) is F_min for f = x^alpha
    for seed in range(10):
        rho, sigma = random_density(3, 3, 90 + seed), random_density(3, 3, 190 + seed)
        for alpha in (0.25, 0.5, 0.75):
            ref = np.trace(weighted_geometric_mean(rho.mat, sigma.mat, alpha)).real
            assert abs(f_f_min(rho, sigma, OperatorMonotoneSpec.power(alpha)) - ref) <= 1e-10


def test_trace_norm_jordan_block():
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def test_trace_norm_hermitian_is_abs_eigenvalue_sum():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)


def test_zero_roundoff_reads_the_maximum_at_either_end():
    # sorted ascending (stored eigenvalues) or descending (singular values): the cut is
    # ZERO_ROUNDOFF_FACTOR n eps max(x), inclusive
    cut = ZERO_ROUNDOFF_FACTOR * 3 * np.finfo(float).eps * 0.5
    x = np.array([cut, np.nextafter(cut, 1.0), 0.5])
    for values in (x, x[::-1]):
        kept = zero_roundoff(values)
        assert list(kept) == [0.0 if v == cut else v for v in values]
        assert list(zero_roundoff(values[1:] if values[0] == cut else values[:-1])) == [v for v in values if v != cut]


@pytest.mark.parametrize(
    "call",
    [matrix_sqrt, eig_hermitian, lambda m: geometric_mean(m, m), trace_norm, HermitianMatrix],
    ids=["matrix_sqrt", "eig_hermitian", "geometric_mean", "trace_norm", "HermitianMatrix"],
)
def test_matrix_functions_name_a_state_given_for_a_matrix(call):
    # a DensityMatrix raised a raw TypeError from np.asarray; its entries are rho.mat
    with pytest.raises(ValidationError, match="expected a matrix, got DensityMatrix"):
        call(random_density(3, 3, 1))
