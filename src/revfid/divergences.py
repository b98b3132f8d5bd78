"""Scalar divergences: classical and Uhlmann fidelity, the reverse-test
minimal fidelity F_min and its generalized-f family, relative entropies,
trace distances, and bounds on the reverse-test statistical distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, DomainError, ValidationError
from .linalg import (
    HermitianMatrix,
    SpectralDecomposition,
    geometric_mean_from_sqrt,
    map_spectrum,
    trace_norm,
)
from .states import FULL_RANK_MIN_EIG, DensityMatrix, ProbDist, PureState

_SINGULAR = "{} is singular (min eigenvalue {{lam:.3e}}); use the pure-target closed form or regularize explicitly"


def _check_sizes(p: ProbDist, q: ProbDist) -> None:
    if p.size != q.size:
        raise DimensionMismatchError(f"distribution sizes differ: {p.size} vs {q.size}")


def _check_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"state dims differ: {rho.dim} vs {sigma.dim}")


def classical_fidelity(p: ProbDist, q: ProbDist) -> float:
    """Bhattacharyya coefficient sum_x sqrt(p(x) q(x))."""
    _check_sizes(p, q)
    return float(np.sum(np.sqrt(p.weights * q.weights)))


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr sqrt(sqrt(sigma) rho sqrt(sigma)), the largest monotone extension."""
    _check_dims(rho, sigma)
    rs = rho.sqrt()
    w = np.linalg.eigvalsh(rs @ sigma.mat @ rs)
    return float(min(np.sum(np.sqrt(np.clip(w, 0.0, None))), 1.0))


def t_spectrum(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[SpectralDecomposition, np.ndarray, np.ndarray]:
    """Eigensystem of T = sqrt(rho^-1/2 sigma rho^-1/2), ascending, with R† and s: for the stored spectra
    rho = V diag(w) V†, sigma = U diag(s) U†, the SVD diag(w^-1/2) V†U diag(s^1/2) = L diag(t) R† gives t and
    the frame V L, and sqrt(rho) T = U diag(s^1/2) R L† V†; s <= 1e-14 max(s) (sigma's kernel) and
    t <= d eps max(t) (LAPACK's error bound) read as 0."""
    _check_dims(rho, sigma)
    rho.require_full_rank(_SINGULAR.format("rho"))
    w, v = rho.spectrum.eigenvalues, rho.spectrum.frame
    s, u = sigma.spectrum.eigenvalues, sigma.spectrum.frame
    s = np.where(s > 1e-14 * s[-1], s, 0.0)
    left, t, right = np.linalg.svd((v.conj().T @ u) * np.sqrt(s) / np.sqrt(w)[:, None])
    t = np.where(t > len(t) * np.finfo(float).eps * t[0], t, 0.0)
    return SpectralDecomposition(eigenvalues=t[::-1], frame=(v @ left)[:, ::-1]), right[::-1], s


def _t_base(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix, bool]:
    """(B, other, B is sigma): the base B of rho # sigma = sigma # rho is the full-rank
    state with the larger least eigenvalue, rho on a tie; its error grows like 1/lambda_min(B)."""
    _check_dims(rho, sigma)
    swapped = sigma.min_eigenvalue() > rho.min_eigenvalue()
    base, other = (sigma, rho) if swapped else (rho, sigma)
    base.require_full_rank(_SINGULAR.format("sigma" if swapped else "rho"))
    return base, other, swapped


def _minimal_test(rho: DensityMatrix, sigma: DensityMatrix):
    """(p, q, frame, B, B is sigma): the minimal reverse test's weights p for rho, q for sigma on the
    eigenframe e_x of T = sqrt(B^-1/2 other B^-1/2), t_x ascending: B's b_x = <e_x|B|e_x>, the other's t_x^2 b_x."""
    base, other, swapped = _t_base(rho, sigma)
    spec, *_ = t_spectrum(base, other)
    b = np.sum(spec.frame.conj() * (base.mat @ spec.frame), axis=0).real
    p, q = (spec.eigenvalues**2 * b, b) if swapped else (b, spec.eigenvalues**2 * b)
    return p, q, spec.frame, base, swapped


def t_operator(rho: DensityMatrix, sigma: DensityMatrix) -> HermitianMatrix:
    """T = sqrt(rho^-1/2 sigma rho^-1/2); (sqrt(rho) T)(sqrt(rho) T)† = sigma."""
    spec, *_ = t_spectrum(rho, sigma)
    return HermitianMatrix(spec.function(spec.eigenvalues))


def f_min(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Reverse-test optimal fidelity tr(rho # sigma); the smallest monotone extension."""
    p, q, *_ = _minimal_test(rho, sigma)
    return float(min(np.sum(np.sqrt(p * q)), 1.0))


def f_min_via_geomean(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Same quantity through the operator geometric mean tr(rho # sigma),
    an independent route that never forms T's eigensystem."""
    base, other, _ = _t_base(rho, sigma)
    g = geometric_mean_from_sqrt(base.sqrt(), other.mat)
    return float(min(max(np.trace(g).real, 0.0), 1.0))


def f_min_pure(rho: DensityMatrix, phi: PureState) -> float:
    """F_min against a pure target, from the overlaps c = V† phi with rho = V diag(w) V†: 0 when
    ||c|| on the kernel (w <= FULL_RANK_MIN_EIG) exceeds 1e-8, else 1 / ||c_i / sqrt(w_i)|| on the support."""
    if rho.dim != phi.dim:
        raise DimensionMismatchError(f"state dims differ: {rho.dim} vs {phi.dim}")
    w = rho.spectrum.eigenvalues
    c = rho.spectrum.frame.conj().T @ phi.amplitudes
    on = w > FULL_RANK_MIN_EIG
    if np.linalg.norm(c[~on]) > 1e-8:
        return 0.0
    return float(min(1.0 / np.linalg.norm(c[on] / np.sqrt(w[on])), 1.0))


@dataclass(frozen=True)
class OperatorMonotoneSpec:
    """Scalar operator monotone function on [0, inf).

    For ``custom`` maps operator monotonicity is the caller's responsibility;
    the map is evaluated as given.
    """

    kind: str  # "power" or "custom"
    alpha: float | None = None
    fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind == "power":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise ValidationError(f"power exponent must lie in (0, 1], got {self.alpha}")
        elif self.kind == "custom":
            if self.fn is None:
                raise ValidationError("custom spec needs a callable")
        else:
            raise ValidationError(f"unknown operator-monotone kind {self.kind!r}")

    @classmethod
    def power(cls, alpha: float) -> "OperatorMonotoneSpec":
        return cls(kind="power", alpha=alpha)

    @classmethod
    def sqrt(cls) -> "OperatorMonotoneSpec":
        return cls(kind="power", alpha=0.5)

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "OperatorMonotoneSpec":
        return cls(kind="custom", fn=fn)

    def __call__(self, t: float) -> float:
        if self.kind == "power":
            return float(max(t, 0.0) ** self.alpha)
        return float(self.fn(t))

    def _slope_at_infinity(self) -> float:
        """lim_{t->inf} f(t)/t: 1 for the power family at alpha = 1, else 0; a custom map's
        limit is not known, so it raises DomainError."""
        if self.kind == "custom":
            raise DomainError("custom operator-monotone map at a zero-mass point: lim f(t)/t is not known")
        return 1.0 if self.alpha == 1.0 else 0.0


def generalized_fidelity_classical(p: ProbDist, q: ProbDist, f: OperatorMonotoneSpec) -> float:
    """F_f(p, q) = sum_x p(x) f(q(x)/p(x)).

    A point with p(x) = 0 contributes the limit of p f(q/p) as p -> 0,
    q(x) lim f(t)/t: q(x) at alpha = 1 and 0 for alpha < 1 in the power
    family; a custom map there is rejected.
    """
    _check_sizes(p, q)
    return _perspective_sum(p.weights, q.weights, f)


def _perspective_sum(p: np.ndarray, q: np.ndarray, f: OperatorMonotoneSpec) -> float:
    """sum_x p(x) f(q(x)/p(x)), with q(x) lim f(t)/t where p(x) = 0 < q(x)."""
    on = p > 0.0
    ratio = q[on] / p[on]
    total = float(p[on] @ map_spectrum(ratio, f))
    if (q[~on] > 0.0).any():
        total += float(q[~on].sum()) * f._slope_at_infinity()
    return total


def f_f_min(rho: DensityMatrix, sigma: DensityMatrix, f: OperatorMonotoneSpec) -> float:
    """Generalized minimal fidelity tr(sqrt(rho) f(T^2) sqrt(rho)): the classical F_f of
    the minimal reverse test, zero-mass points of rho included."""
    p, q, *_ = _minimal_test(rho, sigma)
    return _perspective_sum(p, q, f)


def quasi_entropy_comparison(
    rho: DensityMatrix, sigma: DensityMatrix, alpha: float
) -> tuple[float, float]:
    """Compare the alpha quasi-entropy with the reverse-test minimal fidelity.

    Returns (s_alpha, one_minus_f_alpha_min) with
    s_alpha = 1 - tr rho^(1-alpha) sigma^alpha, read off the stored spectra
    rho = V diag(w) V†, sigma = U diag(s) U† as 1 - sum_ij w_i^(1-alpha) |<v_i|u_j>|^2 s_j^alpha, and
    F_alpha_min = tr sqrt(rho) (rho^-1/2 sigma rho^-1/2)^alpha sqrt(rho),
    the exponent pairing under which both reduce to
    1 - sum p^(1-alpha) q^alpha on commuting pairs.  The minimality of
    F_alpha_min among monotone extensions gives
    s_alpha <= one_minus_f_alpha_min, with equality iff the pair commutes.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    _check_dims(rho, sigma)
    rho.require_full_rank(_SINGULAR.format("rho"))
    sigma.require_full_rank(_SINGULAR.format("sigma"))
    w, s = rho.spectrum.eigenvalues, sigma.spectrum.eigenvalues
    overlap = np.abs(rho.spectrum.frame.conj().T @ sigma.spectrum.frame) ** 2
    s_alpha = 1.0 - float(w ** (1.0 - alpha) @ overlap @ s**alpha)
    f_alpha_min = f_f_min(rho, sigma, OperatorMonotoneSpec.power(alpha))
    return s_alpha, 1.0 - f_alpha_min


def kl_divergence(p: ProbDist, q: ProbDist) -> float:
    """sum_x p(x) ln(p(x)/q(x)); +inf when supp p is not inside supp q."""
    _check_sizes(p, q)
    return _kl(p.weights, q.weights)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """sum_x p(x) ln(p(x)/q(x)) over p(x) > 0; +inf when q(x) = 0 there."""
    on = p > 0.0
    if (q[on] <= 0.0).any():
        return math.inf
    return float(p[on] @ np.log(p[on] / q[on]))


def reverse_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D^R(rho || sigma) = tr rho ln(sqrt(rho) sigma^-1 sqrt(rho)): the KL divergence
    of the minimal reverse test."""
    _check_dims(rho, sigma)
    sigma.require_full_rank("sigma must be strictly positive for D^R")
    p, q, *_ = _minimal_test(rho, sigma)
    return _kl(p, q)


def trace_distance_classical(p: ProbDist, q: ProbDist) -> float:
    _check_sizes(p, q)
    return float(0.5 * np.sum(np.abs(p.weights - q.weights)))


def trace_distance_quantum(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    _check_dims(rho, sigma)
    return float(0.5 * trace_norm(rho.mat - sigma.mat))


def delta_max_pure(rho: DensityMatrix, phi: PureState) -> float:
    """Closed form for the pure-target reverse-test distance: 1 - c with
    c the largest weight such that rho - c |phi><phi| stays PSD."""
    c = f_min_pure(rho, phi) ** 2
    return float(1.0 - c)


@dataclass(frozen=True)
class DeltaMaxBounds:
    lower: float
    upper: float
    upper_via_measurement: float

    def __post_init__(self):
        if self.lower > min(self.upper, self.upper_via_measurement) + 1e-10:
            raise ValidationError("delta-max lower bound exceeds an upper bound")


def delta_max_bounds(rho: DensityMatrix, sigma: DensityMatrix) -> DeltaMaxBounds:
    """Sandwich 1 - F_min <= Delta_max <= sqrt(1 - F_min^2), plus the
    sharper measurement bound Delta(M(rho), M(T rho T)) in the T eigenbasis."""
    p, q, *_ = _minimal_test(rho, sigma)
    fmin = float(min(np.sum(np.sqrt(p * q)), 1.0))
    return DeltaMaxBounds(
        lower=1.0 - fmin,
        upper=math.sqrt(max(1.0 - fmin * fmin, 0.0)),
        upper_via_measurement=float(0.5 * np.sum(np.abs(p - q))),
    )
