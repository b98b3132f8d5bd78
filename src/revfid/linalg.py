"""Dense Hermitian linear algebra: spectral calculus, PSD square roots,
the geometric mean and trace norm.

Every operation symmetrizes its input as (H + H†)/2 before decomposing,
so floating-point drift never leaks non-Hermitian parts downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatchError, DomainError, NotPsdError, ValidationError

# Every cut the package makes, one line of reason each; zero_roundoff is the one zero rule.
# eigh leaves up to 1.0 n eps max of round-off in a rank-deficient state's stored kernel: twice that is 0
ZERO_ROUNDOFF_FACTOR = 2.0
# non-PSD below -this * max(1, ||H||_F) for matrix_sqrt, below -this for a directly built DensityMatrix;
# general_reverse_test reads K = TA's kernel at the same level relative to max(1, ||K||)
PSD_TOL_FACTOR = 1e-10
# geometric_mean's A and sample_contraction's T are singular iff lambda_min <= this * max(1, lambda_max)
STRICT_POS_FACTOR = 1e-12
# conditioning, not rank: a state is too close to singular to invert iff lambda_min <= this
FULL_RANK_MIN_EIG = 1e-10
# make_density_stack repairs a trace off by this much and clips eigenvalues down to -this
TRACE_TOL = EIG_TOL = 1e-8
# measure keeps Re tr(E rho), dropping at most ||E - E†||_F / 2: an effect further than this from E† is rejected
HERMITIAN_TOL = 1e-10
# a reverse-test letter whose weight (a remainder eigenvalue or 1 - a^2) is at most this is dropped
LETTER_MIN_WEIGHT = 1e-12
# a reverse-test column whose longer amplitude is at most this prepares nothing and is dropped
DROP_COLUMN_NORM = 1e-12
# _segment_lengths reads a node of a factor path as outside the positive cone iff lambda_min <= this
CONE_MIN_EIG = 1e-13
# a reverse test this close to fidelity 1 is an equal pair: its geodesic stands still
EQUAL_PAIR_FIDELITY = 1.0 - 1e-12

# np.linalg.eigh(a, UPLO="U")'s LAPACK heevd gufunc without its ~5 µs wrapper; private, so pinned in test_linalg.
# It takes (..., d, d) stacks, and a solve that does not converge gives NaN where np.linalg.eigh raises.
eigh_upper = _umath_linalg.eigh_up
# np.linalg.solve(a, b)'s LAPACK gesv gufunc for a 1-D right side b, without its wrapper; private, so pinned in
# test_linalg. A singular system gives NaN where np.linalg.solve raises.
solve1 = _umath_linalg.solve1


def zero_roundoff(x: np.ndarray) -> np.ndarray:
    """x (nonnegative, sorted either way) with each entry <= ZERO_ROUNDOFF_FACTOR n eps max(x) set to 0."""
    low, high = sorted((x[0], x[-1]))
    cut = ZERO_ROUNDOFF_FACTOR * 2.0**-52 * len(x) * high  # float64 eps
    return x if low > cut else np.where(x > cut, x, 0.0)


def require_finite(entries, what: str, dtype=None) -> np.ndarray:
    """np.asarray(entries, dtype); ValidationError naming ``what`` unless every entry is a finite
    number (NaN fails every comparison a later check would make)."""
    try:
        a = np.asarray(entries, dtype=dtype)
    except (TypeError, ValueError):  # a string, None or a ragged nesting among the entries
        raise ValidationError(f"{what} must be an array of numbers") from None
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    return a


def _as_square_complex(entries) -> np.ndarray:
    try:
        a = np.asarray(entries, dtype=complex)
    except TypeError:  # e.g. a DensityMatrix, whose entries are its .mat
        raise ValidationError(f"expected a matrix, got {type(entries).__name__}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2 over the last two axes."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class HermitianMatrix:
    """Complex square matrix with the Hermiticity contract enforced."""

    entries: np.ndarray

    def __post_init__(self):
        h = hermitian_part(_as_square_complex(self.entries))
        require_finite(h, "matrix")  # after symmetrizing, which overflows near the float maximum
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue/eigenframe pair, eigenvalues ascending, frame unitary."""

    eigenvalues: np.ndarray
    frame: np.ndarray

    def function(self, fw: np.ndarray) -> np.ndarray:
        """V diag(fw) V†, symmetrized, for the values fw of f at the eigenvalues."""
        return hermitian_part((self.frame * fw) @ self.frame.conj().T)


def _hermitian(H) -> HermitianMatrix:
    return H if isinstance(H, HermitianMatrix) else HermitianMatrix(H)


def eig_hermitian(H) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix; eigenvalues sorted ascending."""
    w, v = np.linalg.eigh(_hermitian(H).entries)
    return SpectralDecomposition(eigenvalues=w, frame=v)


def matrix_sqrt(P) -> HermitianMatrix:
    """Principal square root of a PSD matrix, the one PSD square-root rule: NotPsdError below
    -PSD_TOL_FACTOR * max(1, ||P||_F), else the root of the eigenvalues clipped to zero."""
    return HermitianMatrix(_psd_sqrt(_hermitian(P).entries))


def _psd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a finite Hermitian array, eigenvalues clipped at 0 after matrix_sqrt's NotPsdError rule."""
    w, v = np.linalg.eigh(a)
    tol = PSD_TOL_FACTOR * max(1.0, float(np.linalg.norm(a)))
    if w[0] < -tol:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} < -{tol:.3e}")
    return np.maximum(w, 0.0), v


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """matrix_sqrt of a finite Hermitian array, as a plain Hermitian array."""
    w, v = _psd_eigh(a)
    return SpectralDecomposition(eigenvalues=w, frame=v).function(np.sqrt(w))


def geometric_mean(A, B) -> HermitianMatrix:
    """Operator geometric mean A # B = sqrt(A) sqrt(A^-1/2 B A^-1/2) sqrt(A);
    DomainError unless A is strictly positive.  Formed in the eigenframe of A = V diag(w) V† as
    V diag(w^1/2) Z^1/2 diag(w^1/2) V† with Z of ``_geomean_inner``; no root of A is inverted."""
    A, B = _hermitian(A), _hermitian(B)
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimension mismatch: {A.dim} vs {B.dim}")
    a = eig_hermitian(A)
    if a.eigenvalues[0] <= STRICT_POS_FACTOR * max(1.0, a.eigenvalues[-1]):
        raise DomainError(
            f"first argument of geometric_mean is singular (min eigenvalue {a.eigenvalues[0]:.3e}); "
            "regularize explicitly (A + eps*I) before calling"
        )
    rw, v = np.sqrt(a.eigenvalues), a.frame
    return HermitianMatrix(v @ (rw[:, None] * _psd_sqrt(_geomean_inner(a, B.entries)) * rw) @ v.conj().T)


def _geomean_inner(a: SpectralDecomposition, b: np.ndarray) -> np.ndarray:
    """Z = diag(w^-1/2) V†BV diag(w^-1/2), symmetrized, for A = V diag(w) V† (w > 0): A # B's inner operator."""
    rw, v = np.sqrt(a.eigenvalues), a.frame
    return hermitian_part((v.conj().T @ b @ v) / (rw[:, None] * rw))


def trace_norm(X) -> float:
    """Sum of singular values of an arbitrary complex square matrix."""
    a = _as_square_complex(X.entries if isinstance(X, HermitianMatrix) else X)
    require_finite(a, "matrix")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))
