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
    hermitian_part,
    map_spectrum,
    psd_eigh,
    support_inverse_power,
    trace_norm,
)
from .states import DensityMatrix, ProbDist, PureState

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


def t_spectrum(rho: DensityMatrix, sigma: DensityMatrix) -> SpectralDecomposition:
    """Eigensystem of T = sqrt(rho^-1/2 sigma rho^-1/2), eigenvalues ascending,
    from rho's stored spectrum and one eigh of the inner operator."""
    _check_dims(rho, sigma)
    rho.require_full_rank(_SINGULAR.format("rho"))
    ir = rho.spectrum.function(1.0 / np.sqrt(rho.spectrum.eigenvalues))
    w_inner, frame = psd_eigh(hermitian_part(ir @ sigma.mat @ ir))
    return SpectralDecomposition(eigenvalues=np.sqrt(w_inner), frame=frame)


def _t_base(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix, bool]:
    """(B, other, B is sigma): the base B of rho # sigma = sigma # rho is the full-rank
    state with the larger least eigenvalue, rho on a tie; its error grows like 1/lambda_min(B)."""
    _check_dims(rho, sigma)
    swapped = sigma.min_eigenvalue() > rho.min_eigenvalue()
    base, other = (sigma, rho) if swapped else (rho, sigma)
    base.require_full_rank(_SINGULAR.format("sigma" if swapped else "rho"))
    return base, other, swapped


def _t_weights(rho: DensityMatrix, sigma: DensityMatrix):
    """(t, b, frame, B, B is sigma): the eigensystem (t_x, e_x) of T = sqrt(B^-1/2 other B^-1/2)
    and b_x = <e_x|B|e_x>, so tr(B g(T)) = sum_x g(t_x) b_x."""
    base, other, swapped = _t_base(rho, sigma)
    spec = t_spectrum(base, other)
    b = np.sum(spec.frame.conj() * (base.mat @ spec.frame), axis=0).real
    return spec.eigenvalues, b, spec.frame, base, swapped


def t_operator(rho: DensityMatrix, sigma: DensityMatrix) -> HermitianMatrix:
    """T = sqrt(rho^-1/2 sigma rho^-1/2); (sqrt(rho) T)(sqrt(rho) T)† = sigma."""
    spec = t_spectrum(rho, sigma)
    return HermitianMatrix(spec.function(spec.eigenvalues))


def f_min(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Reverse-test optimal fidelity tr(rho # sigma); the smallest monotone extension."""
    t, b, *_ = _t_weights(rho, sigma)
    return float(min(max(t @ b, 0.0), 1.0))


def f_min_via_geomean(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Same quantity through the operator geometric mean tr(rho # sigma),
    an independent route that never forms T's eigensystem."""
    base, other, _ = _t_base(rho, sigma)
    g = geometric_mean_from_sqrt(base.sqrt(), other.mat)
    return float(min(max(np.trace(g).real, 0.0), 1.0))


def f_min_pure(rho: DensityMatrix, phi: PureState) -> float:
    """F_min against a pure target; 0 when phi leaves the support of rho."""
    if rho.dim != phi.dim:
        raise DimensionMismatchError(f"state dims differ: {rho.dim} vs {phi.dim}")
    w = np.clip(rho.spectrum.eigenvalues, 0.0, None)
    proj = rho.spectrum.function(support_inverse_power(w, 0.0))
    if np.linalg.norm(phi.amplitudes - proj @ phi.amplitudes) > 1e-8:
        return 0.0
    v = rho.spectrum.function(support_inverse_power(w, 0.5)) @ phi.amplitudes
    return float(min(1.0 / np.linalg.norm(v), 1.0))


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


def generalized_fidelity_classical(p: ProbDist, q: ProbDist, f: OperatorMonotoneSpec) -> float:
    """F_f(p, q) = sum_x p(x) f(q(x)/p(x)); zero-mass points contribute 0.

    The zero-mass convention matches the limit p*f(q/p) -> 0, valid for the
    power family; custom maps hit a zero-mass point only if the caller
    guarantees f(t)/t -> 0, otherwise the point is rejected.
    """
    _check_sizes(p, q)
    total = 0.0
    for pw, qw in zip(p.weights, q.weights):
        if pw <= 0.0:
            if qw > 0.0 and f.kind == "custom":
                raise DomainError(
                    "custom operator-monotone map at a zero-mass point: "
                    "the p(x)=0 convention requires f(t)/t -> 0"
                )
            continue
        total += pw * f(qw / pw)
    return float(total)


def f_f_min(rho: DensityMatrix, sigma: DensityMatrix, f: OperatorMonotoneSpec) -> float:
    """Generalized minimal fidelity tr(sqrt(rho) f(T^2) sqrt(rho)); on the base sigma, the
    transpose map x f(1/x), which is 0 where rho has no mass (x = 0), as in the classical form."""
    t, b, _, _, swapped = _t_weights(rho, sigma)
    if not swapped:
        return float(map_spectrum(t, lambda lam: f(lam * lam)) @ b)
    if f.kind == "custom" and t[0] <= 0.0:
        raise DomainError("custom operator-monotone map at a zero-mass point of rho: x f(1/x) at x = 0")
    return float(map_spectrum(t, lambda lam: lam * lam * f(1.0 / (lam * lam)) if lam > 0.0 else 0.0) @ b)


def quasi_entropy_comparison(
    rho: DensityMatrix, sigma: DensityMatrix, alpha: float
) -> tuple[float, float]:
    """Compare the alpha quasi-entropy with the reverse-test minimal fidelity.

    Returns (s_alpha, one_minus_f_alpha_min) with
    s_alpha = 1 - tr rho^(1-alpha) sigma^alpha and
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
    rho_pow = rho.spectrum.function(np.clip(rho.spectrum.eigenvalues, 0.0, None) ** (1.0 - alpha))
    sig_pow = sigma.spectrum.function(np.clip(sigma.spectrum.eigenvalues, 0.0, None) ** alpha)
    s_alpha = 1.0 - float(np.trace(rho_pow @ sig_pow).real)
    f_alpha_min = f_f_min(rho, sigma, OperatorMonotoneSpec.power(alpha))
    return s_alpha, 1.0 - f_alpha_min


def kl_divergence(p: ProbDist, q: ProbDist) -> float:
    """sum_x p(x) ln(p(x)/q(x)); +inf when supp p is not inside supp q."""
    _check_sizes(p, q)
    total = 0.0
    for pw, qw in zip(p.weights, q.weights):
        if pw <= 0.0:
            continue
        if qw <= 0.0:
            return math.inf
        total += pw * math.log(pw / qw)
    return float(total)


def reverse_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D^R(rho || sigma) = tr rho ln(sqrt(rho) sigma^-1 sqrt(rho))."""
    _check_dims(rho, sigma)
    sigma.require_full_rank("sigma must be strictly positive for D^R")
    rs = rho.sqrt()
    w, frame = np.linalg.eigh(hermitian_part(rs @ np.linalg.inv(sigma.mat) @ rs))
    # rho and the core share the kernel of rho, so log is taken on the support
    cut = 1e-14 * max(1.0, float(abs(w[-1])))
    logw = np.where(w > cut, np.log(np.where(w > cut, w, 1.0)), 0.0)
    return float(np.trace(rho.mat @ ((frame * logw) @ frame.conj().T)).real)


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
    t, b, *_ = _t_weights(rho, sigma)
    fmin = float(min(max(t @ b, 0.0), 1.0))
    via_meas = float(0.5 * np.sum(np.abs(b - t**2 * b)))
    return DeltaMaxBounds(
        lower=1.0 - fmin,
        upper=math.sqrt(max(1.0 - fmin * fmin, 0.0)),
        upper_via_measurement=via_meas,
    )
