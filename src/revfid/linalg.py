"""Dense Hermitian linear algebra: spectral calculus, PSD square roots,
the geometric mean and trace norm.

Every operation symmetrizes its input as (H + H†)/2 before decomposing,
so floating-point drift never leaks non-Hermitian parts downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, DomainError, NotPsdError, ValidationError

# Eigenvalues above -PSD_TOL_FACTOR * ||H||_F are clipped to zero; anything
# lower is a hard PSD violation.  Shared by the square root and the geometric
# mean so all callers agree on the cone boundary; general_reverse_test's
# pseudo-inverse of TA cuts its kernel at the same relative level.
PSD_TOL_FACTOR = 1e-10
STRICT_POS_FACTOR = 1e-12


def require_finite(a: np.ndarray, what: str) -> None:
    """ValidationError unless every entry of ``a`` is finite (NaN fails
    every comparison a later check would make)."""
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")


def _as_square_complex(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
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

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue/eigenframe pair, eigenvalues ascending, frame unitary."""

    eigenvalues: np.ndarray
    frame: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.frame * self.eigenvalues) @ self.frame.conj().T

    def function(self, fw: np.ndarray) -> np.ndarray:
        """V diag(fw) V†, symmetrized, for the values fw of f at the eigenvalues."""
        return hermitian_part((self.frame * fw) @ self.frame.conj().T)


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def _hermitian(H) -> HermitianMatrix:
    if isinstance(H, HermitianMatrix):
        return H
    return HermitianMatrix(H)


def eig_hermitian(H) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix; eigenvalues sorted ascending."""
    H = _hermitian(H)
    w, v = np.linalg.eigh(H.entries)
    return SpectralDecomposition(eigenvalues=w, frame=v)


def map_spectrum(w: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """f at each eigenvalue; raises DomainError where f is not finite."""
    with np.errstate(all="ignore"):
        fw = np.array([f(lam) for lam in w], dtype=float)
    bad = ~np.isfinite(fw)
    if bad.any():
        raise DomainError(f"scalar map undefined at eigenvalue {w[bad][0]!r}")
    return fw


def psd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a Hermitian array, negative eigenvalues clipped to zero;
    raises NotPsdError below -PSD_TOL_FACTOR * max(1, ||a||_F)."""
    w, v = np.linalg.eigh(a)
    tol = PSD_TOL_FACTOR * max(1.0, float(np.linalg.norm(a)))
    if w[0] < -tol:
        report = PsdReport(False, float(w[0]), tol)
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} < -{tol:.3e}", report=report)
    return np.clip(w, 0.0, None), v


def matrix_sqrt(P) -> HermitianMatrix:
    """Principal square root of a PSD matrix."""
    w, v = psd_eigh(_hermitian(P).entries)
    return HermitianMatrix((v * np.sqrt(w)) @ v.conj().T)


def _mean_operands(A, B, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(A), B) as arrays, with positivity and the root read off one eigh of A;
    DomainError unless A is strictly positive."""
    A, B = _hermitian(A), _hermitian(B)
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimension mismatch: {A.dim} vs {B.dim}")
    w, v = np.linalg.eigh(A.entries)
    if w[0] <= STRICT_POS_FACTOR * max(1.0, A.fro_norm()):
        raise DomainError(
            f"first argument of {what} is singular (min eigenvalue {w[0]:.3e}); "
            "regularize explicitly (A + eps*I) before calling"
        )
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T), B.entries


def geometric_mean(A, B) -> HermitianMatrix:
    """Operator geometric mean A # B = sqrt(A) sqrt(A^-1/2 B A^-1/2) sqrt(A)."""
    return HermitianMatrix(geometric_mean_from_sqrt(*_mean_operands(A, B, "geometric_mean")))


def geometric_mean_from_sqrt(ra: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A # B = ra sqrt(ra^-1 B ra^-†) ra† as a plain array, for the invertible
    root ra = sqrt(A) (inverted by LU)."""
    ira = np.linalg.inv(ra)
    w, v = psd_eigh(hermitian_part(ira @ b @ ira.conj().T))
    return ra @ hermitian_part((v * np.sqrt(w)) @ v.conj().T) @ ra.conj().T


def trace_norm(X) -> float:
    """Sum of singular values of an arbitrary complex square matrix."""
    a = _as_square_complex(X.entries if isinstance(X, HermitianMatrix) else X)
    require_finite(a, "matrix")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))
