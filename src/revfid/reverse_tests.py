"""Reverse tests: preparation channels plus classical distribution pairs
that map back onto a given pair of quantum states.

The minimal construction diagonalizes T = sqrt(rho^-1/2 sigma rho^-1/2)
and reads the optimal (p, q) off the eigenframe; the general family is
parameterized by a contraction A commuting against T, completed to an
isometry row block and embedded in a larger PSD matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import _minimal_test, classical_fidelity, f_min_pure, t_spectrum, uhlmann_fidelity
from .errors import DomainError, ValidationError
from .linalg import PSD_TOL_FACTOR, STRICT_POS_FACTOR, HermitianMatrix, hermitian_part, require_finite, trace_norm
from .states import DensityMatrix, ProbDist, PureState, make_density, rng_for

COLUMN_NORM_TOL = 1e-9
DROP_COLUMN_NORM = 1e-12


@dataclass(frozen=True)
class ReverseTest:
    """Preparation matrix (unit columns) with source distributions p, q."""

    prep: np.ndarray
    p: ProbDist
    q: ProbDist

    def __post_init__(self):
        n = np.asarray(self.prep, dtype=complex)
        if n.ndim != 2:
            raise ValidationError("prep must be a dim x m matrix")
        require_finite(n, "prep matrix")
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

    def prepared_pair(self) -> tuple[np.ndarray, np.ndarray]:
        cols = self.prep
        rho = (cols * self.p.weights) @ cols.conj().T
        sigma = (cols * self.q.weights) @ cols.conj().T
        return rho, sigma

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
    """Trace-norm residuals of the preparation identities."""
    prep_rho, prep_sigma = rt.prepared_pair()
    r_res = trace_norm(prep_rho - rho.mat)
    s_res = trace_norm(prep_sigma - sigma.mat)
    return VerificationReport(
        rho_residual=r_res,
        sigma_residual=s_res,
        fidelity_of_pq=rt.fidelity(),
        passes=bool(r_res <= tol and s_res <= tol),
        tolerance=tol,
    )


def minimal_reverse_test(rho: DensityMatrix, sigma: DensityMatrix) -> ReverseTest:
    """Optimal reverse test on an alphabet of size dim.

    The (p, q) that f_min reads, prepared with the normalized columns of sqrt(B) V for
    T's eigenframe V on the base B, in ascending sqrt(q/p).  Its classical fidelity is f_min.
    """
    p, q, frame, base, swapped = _minimal_test(rho, sigma)
    cols = base.sqrt() @ frame
    prep = cols / np.linalg.norm(cols, axis=0)
    if swapped:  # t = sqrt(p/q) ascends on the base sigma
        prep, p, q = prep[:, ::-1], p[::-1], q[::-1]
    return ReverseTest(prep=prep, p=ProbDist(p), q=ProbDist(q))


def sample_contraction(t: HermitianMatrix, seed: int) -> np.ndarray:
    """Random contraction A with TA = A†T >= 0 and ||A||_op <= 1."""
    w, v = np.linalg.eigh(t.entries)
    if w[0] <= STRICT_POS_FACTOR * max(1.0, w[-1]):
        raise DomainError("sample_contraction requires strictly positive T")
    d = t.dim
    rng = rng_for(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g @ g.conj().T
    a = (v / w) @ (v.conj().T @ h)
    opnorm = np.linalg.norm(a, ord=2)
    if opnorm > 1.0:
        a = a / (opnorm * (1.0 + 1e-12))
    return a


def _contraction_eigh(t: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(TA, w, v, A') for a contraction A with TA = A†T >= 0.  A's one SVD A = P diag(a) Q† checks
    ||A|| <= 1 and completes the isometry row, A' = P diag(sqrt(1 - a^2)) with A A† + A' A'† = I, its
    nonzero columns first; one eigh of TA's Hermitian part gives w, clipped at 0 after the PSD check."""
    scale = max(1.0, np.linalg.norm(t))
    p, sv, _ = np.linalg.svd(a)
    if sv[0] > 1.0 + 1e-10:
        raise ValidationError("A is not a contraction")
    ta = t @ a
    if np.linalg.norm(ta - a.conj().T @ t) > 1e-8 * scale:
        raise ValidationError("A violates TA = A†T")
    ta = hermitian_part(ta)
    w, v = np.linalg.eigh(ta)
    if w[0] < -1e-8 * scale:
        raise ValidationError("TA is not PSD")
    gap = ((1.0 - sv) * (1.0 + sv))[::-1]
    a_prime = p[:, ::-1] * np.sqrt(np.where(gap > 1e-12, gap, 0.0))
    return ta, np.clip(w, 0.0, None), v, a_prime


def general_reverse_test(rho: DensityMatrix, sigma: DensityMatrix, a: np.ndarray) -> ReverseTest:
    """A-parameterized reverse test over an alphabet of at most 2 dim letters.

    With A = identity the extra letters get no weight and are dropped, which
    leaves the minimal test; strict contractions give strictly smaller
    classical fidelity.
    """
    d = rho.dim
    spec, *_ = t_spectrum(rho, sigma)
    t = spec.function(spec.eigenvalues)
    a = np.asarray(a, dtype=complex)
    if a.shape != (d, d):
        raise ValidationError(f"contraction must be {d}x{d}, got {a.shape}")
    require_finite(a, "contraction A")
    ta, w_ta, v_ta, a_prime = _contraction_eigh(t, a)

    tap = t @ a_prime
    # Schur complement of this C against the TA block is eps * I, so the
    # assembled block matrix stays PSD without any search.
    eps = 1e-9 * float(np.trace(t).real)
    # TA's pseudo-inverse: eigenvalues at or below PSD_TOL_FACTOR * max(1, ||TA||) read as 0
    on = w_ta > PSD_TOL_FACTOR * max(1.0, float(w_ta[-1]))
    ta_pinv = (v_ta * np.where(on, 1.0 / np.where(on, w_ta, 1.0), 0.0)) @ v_ta.conj().T
    c = tap.conj().T @ ta_pinv @ tap + eps * np.eye(d)
    t_tilde = HermitianMatrix(np.block([[ta, tap], [tap.conj().T, c]]))
    scale = max(1.0, t_tilde.fro_norm())
    w, frame = np.linalg.eigh(t_tilde.entries)
    if w[0] < -1e-7 * scale:
        raise ValidationError("assembled block matrix is not PSD; A is outside the valid family")

    sr = rho.sqrt()
    cols = sr @ frame[:d]
    norms = np.linalg.norm(cols, axis=0)
    keep = norms > DROP_COLUMN_NORM
    cols = cols[:, keep]
    norms = norms[keep]
    p = norms**2
    # q_x = ||sqrt(rho) [TA, TA'] f_x||^2 = t_x^2 p_x keeps sum_x q_x = tr sigma;
    # C can put a huge t_x on a tiny p_x, where t_x^2 p_x loses that mass
    q = np.linalg.norm(sr @ t_tilde.entries[:d] @ frame[:, keep], axis=0) ** 2
    return ReverseTest(prep=cols / norms, p=ProbDist(p), q=ProbDist(q))


def pure_target_reverse_test(rho: DensityMatrix, phi: PureState) -> ReverseTest:
    """Optimal reverse test when sigma is the pure state |phi><phi|.

    q is a point mass on the target column; p gives that column the largest
    weight c keeping rho - c|phi><phi| PSD and spreads the rest over the
    eigenvectors of the remainder.
    """
    c = f_min_pure(rho, phi) ** 2
    remainder = rho.mat - c * np.outer(phi.amplitudes, phi.amplitudes.conj())
    w, v = np.linalg.eigh(0.5 * (remainder + remainder.conj().T))
    cols = [phi.amplitudes]
    p = [c]
    for i in range(len(w)):
        if w[i] > 1e-12:
            cols.append(v[:, i])
            p.append(float(w[i]))
    q = np.zeros(len(p))
    q[0] = 1.0
    return ReverseTest(prep=np.column_stack(cols), p=ProbDist(np.array(p)), q=ProbDist(q))


def mixture_reverse_test(
    components: list[tuple[ReverseTest, float, float]]
) -> ReverseTest:
    """Block-concatenate component tests with mixture weights (lambda, mu).

    The result prepares the lambda-mixture of the component rho's and the
    mu-mixture of the sigma's, with classical fidelity
    sum_y sqrt(lambda_y mu_y) F(p_y, q_y).
    """
    if not components:
        raise ValidationError("mixture needs at least one component")
    lams = np.array([lam for _, lam, _ in components])
    mus = np.array([mu for _, _, mu in components])
    if abs(lams.sum() - 1.0) > 1e-9 or abs(mus.sum() - 1.0) > 1e-9:
        raise ValidationError("mixture weights must each sum to 1")
    if np.any(lams < -1e-12) or np.any(mus < -1e-12):
        raise ValidationError("mixture weights must be nonnegative")
    dim = components[0][0].dim
    if any(rt.dim != dim for rt, _, _ in components):
        raise ValidationError("component tests must share the Hilbert dimension")
    prep = np.hstack([rt.prep for rt, _, _ in components])
    p = np.concatenate([lam * rt.p.weights for rt, lam, _ in components])
    q = np.concatenate([mu * rt.q.weights for rt, _, mu in components])
    return ReverseTest(prep=prep, p=ProbDist(p), q=ProbDist(q))


def hidden_pair(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    """States (rho, T rho T) whose Uhlmann fidelity equals F_min(rho, sigma).

    T's SVD diag(w^-1/2) V†U diag(s^1/2) = L diag(t) R† gives sqrt(rho) T = U diag(s^1/2) R L† V†,
    so T rho T = F diag(s) F† with the unitary F = V L R†: sigma's eigenvalues on a new frame,
    with no product of dense T's.  W_rho = sqrt(rho) and W_sigma = sqrt(rho) T are the paper's
    W-factors: W_rho W_rho† = rho, W_sigma W_sigma† = sigma, W_rho W_sigma† = W_sigma W_rho† >= 0.
    """
    spec, right, s = t_spectrum(rho, sigma)
    f = spec.frame @ right
    return rho, make_density((f * s) @ f.conj().T)


def hidden_pair_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    rho_p, sigma_p = hidden_pair(rho, sigma)
    return uhlmann_fidelity(rho_p, sigma_p)
