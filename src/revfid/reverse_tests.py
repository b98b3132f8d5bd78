"""Reverse tests: preparation channels plus classical distribution pairs
that map back onto a given pair of quantum states.

The minimal construction reads T = sqrt(B^-1/2 O B^-1/2), B the better-
conditioned state, off one SVD of the two stored spectra
(divergences.t_spectrum) and the optimal (p, q) off T's eigenframe; the
general family is parameterized by a contraction A with TA = A†T >= 0
and read off one SVD of T on the support of TA, plus the letters of
I - A†A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import _base, _minimal_test, classical_fidelity, f_min_pure, t_operator, t_spectrum, uhlmann_fidelity
from .errors import DomainError, ValidationError
from .linalg import (
    DROP_COLUMN_NORM,
    LETTER_MIN_WEIGHT,
    PSD_TOL_FACTOR,
    STRICT_POS_FACTOR,
    HermitianMatrix,
    hermitian_part,
    require_finite,
)
from .states import (
    DensityMatrix,
    ProbDist,
    PureState,
    _ginibre,
    _prechecked,
    _prechecked_dist,
    _rebuilt,
    require_instance,
    require_pair,
    require_real,
    rng_for,
)

COLUMN_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ReverseTest:
    """Preparation matrix (unit columns) with source distributions p, q, checked here; the library's
    minimal test is built prechecked, since its kernel guarantees what these checks guard."""

    prep: np.ndarray
    p: ProbDist
    q: ProbDist

    def __post_init__(self):
        require_instance("p", self.p, ProbDist)
        require_instance("q", self.q, ProbDist)
        n = require_finite(self.prep, "prep matrix", complex)
        if n.ndim != 2:
            raise ValidationError("prep must be a dim x m matrix")
        if n.shape[1] != self.p.size or n.shape[1] != self.q.size:
            raise ValidationError("prep column count must match p and q sizes")
        norms = np.linalg.norm(n, axis=0)
        if np.any(np.abs(norms - 1.0) > COLUMN_NORM_TOL):
            raise ValidationError("prep columns must be unit vectors")
        n.setflags(write=False)
        object.__setattr__(self, "prep", n)

    @property
    def dim(self) -> int:
        return self.prep.shape[0]

    @property
    def size(self) -> int:
        return self.prep.shape[1]

    def prepared_pair(self) -> np.ndarray:
        """The prepared states stacked as (2, dim, dim), unpacking as (rho', sigma'): one product for both."""
        cols = self.prep
        return (cols * np.array((self.p.weights, self.q.weights))[:, None, :]) @ cols.conj().T

    def fidelity(self) -> float:
        return classical_fidelity(self.p, self.q)


@dataclass(frozen=True)
class VerificationReport:
    rho_residual: float
    sigma_residual: float
    fidelity_of_pq: float
    passes: bool
    tolerance: float


def verify_reverse_test(
    rt: ReverseTest, rho: DensityMatrix, sigma: DensityMatrix, tol: float = 1e-7
) -> VerificationReport:
    """Trace-norm residuals of the preparation identities, both from one SVD call (finite operands);
    tol must be a finite real >= 0."""
    require_real("tol", tol, 0)
    require_pair(rt, rho, names=("rt", "rho"), kinds=(ReverseTest, DensityMatrix))
    require_pair(rt, sigma, names=("rt", "sigma"), kinds=(ReverseTest, DensityMatrix))
    residuals = rt.prepared_pair()
    residuals[0] -= rho.mat
    residuals[1] -= sigma.mat
    r_res, s_res = (float(x) for x in np.linalg.svd(residuals, compute_uv=False).sum(axis=1))
    return VerificationReport(
        rho_residual=r_res,
        sigma_residual=s_res,
        fidelity_of_pq=rt.fidelity(),
        passes=bool(r_res <= tol and s_res <= tol),
        tolerance=tol,
    )


def minimal_reverse_test(rho: DensityMatrix, sigma: DensityMatrix) -> ReverseTest:
    """Optimal reverse test on an alphabet of size dim: the (p, q) that f_min reads, in ascending sqrt(q/p),
    prepared with the unit columns sqrt(B) e_x / sqrt(b_x) = V (w^1/2 L_x) / sqrt(b_x) of _minimal_test's
    eigenframe e_x = V L_x on the base B = V diag(w) V†.  Its classical fidelity is f_min.  The columns are
    unit vectors and p, q nonnegative, so the test and its distributions are built prechecked, read-only."""
    p, q, left, base, swapped = _minimal_test(rho, sigma)
    prep = base.spectrum.frame @ (np.sqrt(base.spectrum.eigenvalues)[:, None] * left / np.sqrt(q if swapped else p))
    if not swapped:  # sqrt(q/p) = t descends on the base rho
        prep, p, q = prep[:, ::-1], p[::-1], q[::-1]
    prep.setflags(write=False)
    return _prechecked(ReverseTest, prep=prep, p=_prechecked_dist(p), q=_prechecked_dist(q))


def sample_contraction(t: HermitianMatrix, seed: int) -> np.ndarray:
    """Random contraction A with TA = A†T >= 0 and ||A||_op <= 1."""
    require_instance("t", t, HermitianMatrix)
    w, v = np.linalg.eigh(t.entries)
    if w[0] <= STRICT_POS_FACTOR * max(1.0, w[-1]):
        raise DomainError("sample_contraction requires strictly positive T")
    g = _ginibre(rng_for(seed), t.dim, t.dim)
    h = g @ g.conj().T
    a = (v / w) @ (v.conj().T @ h)
    opnorm = np.linalg.norm(a, ord=2)
    if opnorm > 1.0:
        a = a / (opnorm * (1.0 + 1e-12))
    return a


def general_reverse_test(rho: DensityMatrix, sigma: DensityMatrix, a: np.ndarray) -> ReverseTest:
    """A-parameterized reverse test over an alphabet of at most 2 dim letters, with fidelity tr(rho TA).

    A = P diag(a) Q† must be a contraction with K = TA = A†T = V diag(w) V† >= 0 and T on K's support.
    The SVD T V diag(w^-1/2) = Psi diag(s) Y† on that support gives letters psi_x preparing
    sqrt(rho) A† psi_x for rho and s_x sqrt(rho) K^1/2 y_x = s_x^2 sqrt(rho) A† psi_x for sigma; the
    letters of I - A†A = Q diag(1 - a^2) Q† prepare rho only.  With A = identity, Psi is T's frame
    and s^2 = t, which leaves the minimal test; strict contractions give strictly smaller classical
    fidelity.
    """
    t = t_operator(rho, sigma).entries
    d = rho.dim
    a = require_finite(a, "contraction A", complex)
    if a.shape != (d, d):
        raise ValidationError(f"contraction must be {d}x{d}, got {a.shape}")
    scale = max(1.0, np.linalg.norm(t))
    _, sv, qh = np.linalg.svd(a)
    if sv[0] > 1.0 + 1e-10:
        raise ValidationError("A is not a contraction")
    k = t @ a
    if np.linalg.norm(k - a.conj().T @ t) > 1e-8 * scale:
        raise ValidationError("A violates TA = A†T")
    w, v = np.linalg.eigh(hermitian_part(k))
    if w[0] < -1e-8 * scale:
        raise ValidationError("TA is not PSD")
    # K's support: eigenvalues at or below PSD_TOL_FACTOR * max(1, ||K||) read as 0
    on = w > PSD_TOL_FACTOR * max(1.0, float(w[-1]))
    if np.linalg.norm(v[:, ~on].conj().T @ t) > 1e-8 * scale:
        raise ValidationError("T leaves the support of TA; A is outside the valid family")
    v, w = v[:, on], w[on]
    psi, s, yh = np.linalg.svd(t @ v / np.sqrt(w))  # the full Psi: columns beyond K's rank get q = 0

    sr = rho.sqrt()
    gap = (1.0 - sv) * (1.0 + sv)
    gap = np.where(gap > LETTER_MIN_WEIGHT, gap, 0.0)
    rho_amp = np.hstack([sr @ a.conj().T @ psi, sr @ qh.conj().T * np.sqrt(gap)])
    sigma_amp = np.zeros_like(rho_amp)
    sigma_amp[:, : len(s)] = sr @ (v * np.sqrt(w)) @ yh.conj().T * s
    p, q = (np.linalg.norm(x, axis=0) ** 2 for x in (rho_amp, sigma_amp))
    # the two amplitudes are parallel; the longer one carries the direction with the smaller relative error
    cols = np.where(q > p, sigma_amp, rho_amp)
    norms = np.sqrt(np.maximum(p, q))
    keep = norms > DROP_COLUMN_NORM
    return ReverseTest(prep=cols[:, keep] / norms[keep], p=ProbDist(p[keep]), q=ProbDist(q[keep]))


def pure_target_reverse_test(rho: DensityMatrix, phi: PureState) -> ReverseTest:
    """Optimal reverse test when sigma is the pure state |phi><phi|.

    q is a point mass on the target column; p gives that column the largest
    weight c keeping rho - c|phi><phi| PSD and spreads the rest over the
    eigenvectors of the remainder.
    """
    c = f_min_pure(rho, phi) ** 2
    remainder = rho.mat - c * np.outer(phi.amplitudes, phi.amplitudes.conj())
    w, v = np.linalg.eigh(hermitian_part(remainder))
    keep = w > LETTER_MIN_WEIGHT
    p = np.concatenate([[c], w[keep]])
    q = np.zeros(len(p))
    q[0] = 1.0
    return ReverseTest(prep=np.column_stack([phi.amplitudes, v[:, keep]]), p=ProbDist(p), q=ProbDist(q))


def mixture_reverse_test(
    components: list[tuple[ReverseTest, float, float]]
) -> ReverseTest:
    """Block-concatenate component tests with mixture weights (lambda, mu).

    The result prepares the lambda-mixture of the component rho's and the
    mu-mixture of the sigma's, with classical fidelity
    sum_y sqrt(lambda_y mu_y) F(p_y, q_y).
    """
    for c in components if isinstance(components, (list, tuple)) else [components]:
        if not isinstance(c, tuple) or len(c) != 3:
            raise ValidationError(f"mixture component must be a (test, lambda, mu) tuple, got {type(c).__name__}")
        require_instance("mixture component test", c[0], ReverseTest)
    if not components:
        raise ValidationError("mixture needs at least one component")
    for weight in (x for _, lam, mu in components for x in (lam, mu)):
        require_real("mixture weight", weight, -1e-12)
    lams, mus = np.array([(lam, mu) for _, lam, mu in components]).T
    if abs(lams.sum() - 1.0) > 1e-9 or abs(mus.sum() - 1.0) > 1e-9:
        raise ValidationError("mixture weights must each sum to 1")
    dim = components[0][0].dim
    if any(rt.dim != dim for rt, _, _ in components):
        raise ValidationError("component tests must share the Hilbert dimension")
    prep = np.hstack([rt.prep for rt, _, _ in components])
    p = np.concatenate([lam * rt.p.weights for rt, lam, _ in components])
    q = np.concatenate([mu * rt.q.weights for rt, _, mu in components])
    return ReverseTest(prep=prep, p=ProbDist(p), q=ProbDist(q))


def hidden_pair(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    """States (rho, T rho T) whose Uhlmann fidelity equals F_min(rho, sigma).

    t_spectrum's factors give sqrt(rho) T = U diag(s^1/2) R L† V†, so T rho T = F diag(s) F† with the
    unitary F = V L R†: sigma's eigenvalues on a new frame, rebuilt with no decomposition beyond the SVD.
    W_rho = sqrt(rho) and W_sigma = sqrt(rho) T are the paper's W-factors: W_rho W_rho† = rho,
    W_sigma W_sigma† = sigma, W_rho W_sigma† = W_sigma W_rho† >= 0.
    """
    _base(rho, sigma, either=False)
    _, left, right, s = t_spectrum(rho.spectrum, sigma.spectrum)
    return rho, _rebuilt(s[None], (rho.spectrum.frame @ left @ right)[None])[0]


def hidden_pair_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    rho_p, sigma_p = hidden_pair(rho, sigma)
    return uhlmann_fidelity(rho_p, sigma_p)
