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
    _geomean_inner,
    _psd_eigh,
    trace_norm,
    zero_roundoff,
)
from .states import FULL_RANK_MIN_EIG, DensityMatrix, ProbDist, PureState, _check_dims, require_real

_SINGULAR = " is singular (min eigenvalue {lam:.3e}); use the pure-target closed form or regularize explicitly"


def _check_sizes(p: ProbDist, q: ProbDist) -> None:
    if p.size != q.size:
        raise DimensionMismatchError(f"distribution sizes differ: {p.size} vs {q.size}")


def classical_fidelity(p: ProbDist, q: ProbDist) -> float:
    """Bhattacharyya coefficient sum_x sqrt(p(x) q(x))."""
    _check_sizes(p, q)
    return float(np.sum(np.sqrt(p.weights * q.weights)))


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr sqrt(sqrt(sigma) rho sqrt(sigma)), the largest monotone extension: the trace norm of
    sqrt(rho) sqrt(sigma), the singular values of diag(w^1/2) V†U diag(s^1/2) for the stored spectra."""
    _check_dims(rho, sigma)
    rw, rs = (np.sqrt(x.spectrum.eigenvalues) for x in (rho, sigma))
    m = (rho.spectrum.frame.conj().T @ sigma.spectrum.frame) * rs * rw[:, None]
    return float(min(np.sum(np.linalg.svd(m, compute_uv=False)), 1.0))


def _base(rho: DensityMatrix, sigma: DensityMatrix, either: bool) -> tuple[DensityMatrix, DensityMatrix, bool]:
    """(B, other, B is sigma) after the one check pass, dims and B's full rank, for the base B = rho or, with
    ``either``, the state with the larger least eigenvalue (rho on a tie): B^-1/2 routes err like 1/lambda_min(B)."""
    _check_dims(rho, sigma)
    swapped = either and sigma.spectrum.eigenvalues[0] > rho.spectrum.eigenvalues[0]
    base, other = (sigma, rho) if swapped else (rho, sigma)
    base.require_full_rank(("sigma" if swapped else "rho") + _SINGULAR)  # formatted only if it raises
    return base, other, swapped


def t_spectrum(rho: DensityMatrix, sigma: DensityMatrix, either: bool = False) -> tuple:
    """T = sqrt(B^-1/2 O B^-1/2) on the base B of ``_base`` as the raw factors of one SVD, (t, L, R†, s,
    B is sigma): for the stored spectra B = V diag(w) V† and O = U diag(s) U†, diag(w^-1/2) V†U diag(s^1/2)
    = L diag(t) R† with t descending, so T = VL diag(t) (VL)† and sqrt(B) T = U diag(s^1/2) R L† V†;
    s (O's kernel) and t pass through the one zero rule, linalg.zero_roundoff."""
    base, other, swapped = _base(rho, sigma, either)
    w, v = base.spectrum.eigenvalues, base.spectrum.frame
    s = zero_roundoff(other.spectrum.eigenvalues)
    left, t, right = np.linalg.svd((v.conj().T @ other.spectrum.frame) * np.sqrt(s / w[:, None]))
    return zero_roundoff(t), left, right, s, swapped


def _minimal_test(rho: DensityMatrix, sigma: DensityMatrix):
    """(p, q, L, B, B is sigma): the minimal reverse test's weights p for rho, q for sigma on T's eigenframe
    e_x = V L_x of t_spectrum, t_x descending: B's b_x = <e_x|B|e_x> = sum_i w_i |L_ix|^2, the other's t_x^2 b_x."""
    t, left, _, _, swapped = t_spectrum(rho, sigma, either=True)
    base = sigma if swapped else rho
    b = base.spectrum.eigenvalues @ np.abs(left) ** 2
    return (t * t * b, b, left, base, swapped) if swapped else (b, t * t * b, left, base, swapped)


def t_operator(rho: DensityMatrix, sigma: DensityMatrix) -> HermitianMatrix:
    """T = sqrt(rho^-1/2 sigma rho^-1/2); (sqrt(rho) T)(sqrt(rho) T)† = sigma."""
    t, left, *_ = t_spectrum(rho, sigma)
    frame = rho.spectrum.frame @ left
    return HermitianMatrix((frame * t) @ frame.conj().T)


def f_min(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Reverse-test optimal fidelity tr(rho # sigma); the smallest monotone extension."""
    p, q, *_ = _minimal_test(rho, sigma)
    return min(float(np.sqrt(p * q).sum()), 1.0)


def f_min_via_geomean(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Same quantity through the operator geometric mean tr(rho # sigma) in the base's stored
    eigenframe, an independent route: an eigh of Z = diag(w^-1/2) V† other V diag(w^-1/2) = U diag(z) U†,
    not T's SVD, under matrix_sqrt's PSD rule; tr(B # O) = tr(diag(w) Z^1/2) = sum_k z_k^1/2 sum_i w_i |U_ik|^2."""
    base, other, _ = _base(rho, sigma, either=True)
    z, u = _psd_eigh(_geomean_inner(base.spectrum, other.mat))
    return float(min(base.spectrum.eigenvalues @ np.abs(u) ** 2 @ np.sqrt(z), 1.0))


def f_min_pure(rho: DensityMatrix, phi: PureState) -> float:
    """F_min against a pure target, from the overlaps c = V† phi with rho = V diag(w) V†: 0 when
    ||c|| on the kernel (w <= FULL_RANK_MIN_EIG) exceeds 1e-8, else 1 / ||c_i / sqrt(w_i)|| on the support."""
    _check_dims(rho, phi)
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
            require_real("power exponent", self.alpha)
            if not 0.0 < self.alpha <= 1.0:
                raise ValidationError(f"power exponent must lie in (0, 1], got {self.alpha}")
        elif self.kind == "custom":
            if not callable(self.fn):
                raise ValidationError(f"custom spec needs a callable, got {type(self.fn).__name__}")
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
        return float(self._evaluate(np.asarray(t, dtype=float)))

    def _evaluate(self, t: np.ndarray) -> np.ndarray:
        """f at each entry of t, the power family as max(t, 0)^alpha; DomainError where f is not a finite real."""
        if self.kind == "power":
            ft = np.maximum(t, 0.0) ** self.alpha
        else:
            with np.errstate(all="ignore"):
                values = [self.fn(x) for x in t.flat]
            try:
                ft = np.array(values, dtype=float).reshape(t.shape)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"operator-monotone map output is not one real number per point: {exc}") from None
        bad = ~np.isfinite(ft)
        if bad.any():
            raise DomainError(f"operator-monotone map is not finite at {t[bad][0]!r}")
        return ft

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
    total = float(p[on] @ f._evaluate(q[on] / p[on]))
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
    require_real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    _base(rho, sigma, either=False)
    sigma.require_full_rank("sigma" + _SINGULAR)
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
    fmin = min(float(np.sqrt(p * q).sum()), 1.0)
    return DeltaMaxBounds(
        lower=1.0 - fmin,
        upper=math.sqrt(max(1.0 - fmin * fmin, 0.0)),
        upper_via_measurement=float(0.5 * np.sum(np.abs(p - q))),
    )
