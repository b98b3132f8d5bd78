"""SLD/RLD Fisher information, tangent reverse estimation, curve-length
functionals, geodesics of the minimal fidelity, the general RLD geodesic
flow, and the variational path-length fidelity estimator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from .divergences import _check_sizes, f_min, uhlmann_fidelity
from .errors import DimensionMismatchError, DomainError, ValidationError
from .linalg import (
    CONE_MIN_EIG,
    EQUAL_PAIR_FIDELITY,
    HermitianMatrix,
    eigh_upper,
    hermitian_part,
    require_finite,
    solve1,
)
from .reverse_tests import ReverseTest, minimal_reverse_test
from .states import (
    FULL_RANK_MIN_EIG,
    DensityMatrix,
    ProbDist,
    SignedVector,
    _ginibre,
    make_density,
    make_density_stack,
    require_instance,
    require_integer,
    rng_for,
)

FLOW_CONSTRAINT_TOL = 1e-4
# _rld_stage solves its d^2 x d^2 Kronecker form up to this d and in an eigenbasis above: on one BLAS thread, whole
# flows took 0.58 / 0.65 / 0.77 / 1.16 / 2.21 x the eigenbasis route's time per step at d = 2 / 3 / 4 / 5 / 6
# (median of 10 runs; the LU solve is O(d^6)), so the crossover lies between d = 4 and 5
KRONECKER_STAGE_MAX_DIM = 4


@dataclass(frozen=True)
class TangentPoint:
    """State with a traceless Hermitian velocity."""

    state: DensityMatrix
    velocity: HermitianMatrix

    def __post_init__(self):
        require_instance("state", self.state, DensityMatrix)
        require_instance("velocity", self.velocity, HermitianMatrix)
        if self.velocity.dim != self.state.dim:
            raise ValidationError("velocity dimension does not match the state")
        if abs(np.trace(self.velocity.entries).real) > 1e-9:
            raise ValidationError("velocity must be traceless")


@dataclass(frozen=True)
class FisherReport:
    """Fisher information under the SLD and/or RLD metric."""

    j_sld: float | None = None
    j_rld: float | None = None
    sld: HermitianMatrix | None = None
    rld: np.ndarray | None = None

    def __post_init__(self):
        if self.j_sld is not None and self.j_rld is not None:
            if self.j_rld < self.j_sld - 1e-9:
                raise ValidationError("RLD Fisher information below SLD value")


@dataclass(frozen=True)
class Curve:
    """Sampled path of states, each with its velocity d rho/dt, on a strictly increasing grid in [0, 1]."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    velocities: tuple[HermitianMatrix, ...]

    def __post_init__(self):
        t = require_finite(self.times, "time grid", float)  # NaN passes the ordering check below
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValidationError("times and states must have equal length")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValidationError("time grid must be strictly increasing")
        if not all(isinstance(x, DensityMatrix) for x in self.states):
            raise ValidationError("states must be DensityMatrix objects")
        vels = self.velocities
        if not isinstance(vels, (tuple, list)) or not all(isinstance(x, HermitianMatrix) for x in vels):
            raise ValidationError("velocities must be a tuple of HermitianMatrix objects, one per state")
        if len(self.velocities) != len(self.states):
            raise ValidationError("velocities length must match states")
        dims = {x.dim for x in (*self.states, *self.velocities)}
        if len(dims) > 1:
            raise DimensionMismatchError(f"curve states and velocities mix dims {sorted(dims)}")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "velocities", tuple(self.velocities))


@dataclass(frozen=True)
class GeodesicState:
    """(rho, L) pair feeding the RLD geodesic flows; L is stored as a read-only complex array."""

    state: DensityMatrix
    rld_matrix: np.ndarray

    def __post_init__(self):
        require_instance("state", self.state, DensityMatrix)
        l = require_finite(self.rld_matrix, "L", complex).copy()
        l.setflags(write=False)
        object.__setattr__(self, "rld_matrix", l)

    def constraint_residual(self) -> float:
        r, l = self.state.mat, self.rld_matrix
        return float(np.linalg.norm(r @ l.conj().T - l @ r))


def _lyapunov_solve(w: np.ndarray, v: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with A X + X A = rhs for Hermitian A = V diag(w) V†, V unitary:
    X = V ((V† rhs V) / (w_i + w_j)) V†, for any rhs. sld_fisher applies the
    same formula to the velocity it holds in rho's eigenbasis."""
    vh = v.conj().T
    return v.dot(vh.dot(rhs).dot(v) / (w[:, None] + w)).dot(vh)


def _tangent_eigenbasis(tp: TangentPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, V, X): rho = V diag(w) V† from the stored spectrum, and the velocity
    X = V† drho V in that basis."""
    require_instance("tp", tp, TangentPoint)
    tp.state.require_full_rank()
    w, v = tp.state.spectrum.eigenvalues, tp.state.spectrum.frame
    return w, v, v.conj().T @ tp.velocity.entries @ v


def _fisher_information(w: np.ndarray, x2: np.ndarray, metric: str) -> np.ndarray:
    """J over (..., d, d) stacks of |X_ij|^2, X the velocity in the eigenbasis of
    rho = V diag(w) V†: sum |X_ij|^2 / w_j (RLD) or sum 2 |X_ij|^2 / (w_i + w_j) (SLD)."""
    if metric == "rld":
        return np.sum(x2 / w[..., None, :], axis=(-2, -1))
    return np.sum(2.0 * x2 / (w[..., :, None] + w[..., None, :]), axis=(-2, -1))


def sld_fisher(tp: TangentPoint) -> FisherReport:
    """L = V (2 X_ij / (w_i + w_j)) V†, which solves drho = (L rho + rho L)/2,
    and J^S = tr L^2 rho."""
    w, v, x = _tangent_eigenbasis(tp)
    sld = HermitianMatrix(v.dot(2.0 * x / (w[:, None] + w)).dot(v.conj().T))
    return FisherReport(j_sld=float(_fisher_information(w, np.abs(x) ** 2, "sld")), sld=sld)


def rld_fisher(tp: TangentPoint) -> FisherReport:
    """L = drho rho^-1 = V (X_ij / w_j) V† and J^R = tr(drho rho^-1 drho)."""
    w, v, x = _tangent_eigenbasis(tp)
    rld = v.dot(x / w).dot(v.conj().T)
    return FisherReport(j_rld=float(_fisher_information(w, np.abs(x) ** 2, "rld")), rld=rld)


def fisher_both(tp: TangentPoint) -> FisherReport:
    s, r = sld_fisher(tp), rld_fisher(tp)
    return FisherReport(j_sld=s.j_sld, j_rld=r.j_rld, sld=s.sld, rld=r.rld)


def tangent_reverse_estimation(
    tp: TangentPoint,
) -> tuple[np.ndarray, ProbDist, SignedVector]:
    """Minimal tangent reverse estimation (N, p, dp) with N p N† = rho and
    N dp N† = drho; the classical Fisher information of (p, dp) equals J^R.

    rho^-1/2 drho rho^-1/2 is X_ij / sqrt(w_i w_j) in rho's eigenbasis; with its
    eigenvectors U, N's columns are those of V diag(sqrt w) U, normalized."""
    w, v, x = _tangent_eigenbasis(tp)
    sw = np.sqrt(w)
    lam, u = np.linalg.eigh(hermitian_part(x / np.outer(sw, sw)))
    cols = (v * sw).dot(u)
    norms = np.linalg.norm(cols, axis=0)
    p = norms**2
    return cols / norms, ProbDist(p), SignedVector(lam * p, total=0.0)


def classical_fisher(p: ProbDist, dp: SignedVector) -> float:
    """sum dp^2 / p; a point with p = 0 adds 0 if dp is 0 there and has no finite information otherwise."""
    _check_sizes(p, dp, names=("p", "dp"), kinds=(ProbDist, SignedVector))
    on = p.weights > 0
    if dp.values[~on].any():
        raise DomainError("Fisher information undefined: dp is non-zero where p is 0")
    return float(np.sum(dp.values[on] ** 2 / p.weights[on]))


def fmin_geodesic(rho: DensityMatrix, sigma: DensityMatrix, n_samples: int = 33) -> Curve:
    """Commutative-RLD geodesic realizing F_min: the classical great circle
    of the minimal reverse test pushed through its preparation map."""
    require_integer("n_samples", n_samples, 2)
    return _great_circle(rho, minimal_reverse_test(rho, sigma), n_samples)


def _great_circle(rho: DensityMatrix, rt: ReverseTest, n_samples: int) -> Curve:
    """The geodesic of :func:`fmin_geodesic` from its minimal reverse test rt."""
    fid = rt.fidelity()
    times = np.linspace(0.0, 1.0, n_samples)
    if fid >= EQUAL_PAIR_FIDELITY:  # the curve stands still
        return Curve(times, (rho,) * n_samples, (HermitianMatrix(np.zeros((rho.dim, rho.dim))),) * n_samples)
    theta = math.acos(fid)
    arc = _arc(rt.prep, np.sqrt(rt.p.weights), np.sqrt(rt.q.weights), theta, theta * times[:, None], theta)
    return Curve(times, *make_density_stack(*arc[1:]))


def _arc(cols: np.ndarray, a0: np.ndarray, a1: np.ndarray, theta: float, phi: np.ndarray, rate: float):
    """The one great-circle formula: at the column of angles phi, a = (sin(theta - phi) a0 + sin(phi) a1) /
    sin(theta), the states cols diag(a^2) cols† / |a|^2 over unit columns cols and their velocities
    rate cols diag(2 a da/dphi) cols† / |a|^2. |a| = 1 for unit a0, a1 at angle theta; the flow's
    are so only as far as its start is unit speed, which it is to 1e-6, hence the division."""
    amp = (np.sin(theta - phi) * a0 + np.sin(phi) * a1) / math.sin(theta)
    damp = rate * (np.cos(phi) * a1 - np.cos(theta - phi) * a0) / math.sin(theta)
    norm = np.sum(amp * amp, axis=1)[:, None]
    states = (cols * (amp * amp / norm)[:, None, :]) @ cols.conj().T
    return amp, states, (cols * (2.0 * amp * damp / norm)[:, None, :]) @ cols.conj().T


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule over pairs of intervals of a strictly increasing grid of at
    least 3 samples; with an even count the last interval takes Cartwright's (2017)
    correction. A 1-D port of scipy.integrate.simpson in its operation order."""
    h = np.diff(x)
    stop = len(y) - 2 - (len(y) + 1) % 2  # the pairs cover all intervals, or all but the last
    h0, h1, y0, y1, y2 = h[0:stop:2], h[1:stop + 1:2], y[0:stop:2], y[1:stop + 1:2], y[2:stop + 2:2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    total = np.sum(hsum / 6.0 * (y0 * (2.0 - 1.0 / h0divh1) + y1 * (hsum * (hsum / hprod)) + y2 * (2.0 - h0divh1)))
    if len(y) % 2 == 0:
        # 0-d arrays: numpy's array power can round differently from the scalar pow
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = (2 * b**2 + 3 * a * b) / (6 * (b + a))
        beta = (b**2 + 3.0 * a * b) / (6 * a)
        eta = b**3 / (6 * a * (a + b))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(total)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y from x[0] to each x[i], 0 first (scipy's cumulative_trapezoid)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def curve_length(curve: Curve, metric: str = "rld") -> float:
    """Integral of sqrt(J_t) along the curve by composite Simpson quadrature."""
    require_instance("curve", curve, Curve)
    if len(curve.states) < 3:
        if len(curve.states) == 1:
            return 0.0
        raise ValidationError("need at least 3 samples for quadrature")
    return _simpson(curve_speeds(curve, metric), curve.times)


def curve_speeds(curve: Curve, metric: str = "rld") -> np.ndarray:
    """sqrt(J_t) at every sample, in each state's stored eigenbasis.

    Where an eigenvalue lies below the full-rank cut and the velocity vanishes
    on its eigenvector, J is 0/0: the speed there is extrapolated linearly from
    the regular samples, which is exact on the constant-speed f_min geodesic.
    A velocity component off the support of a singular state has no finite
    metric.
    """
    if metric not in ("sld", "rld"):
        raise ValidationError(f"metric must be 'sld' or 'rld', got {metric!r}")
    require_instance("curve", curve, Curve)
    vels = np.array([v.entries for v in curve.velocities])
    w = np.array([s.spectrum.eigenvalues for s in curve.states])
    v = np.array([s.spectrum.frame for s in curve.states])
    d = np.abs(v.conj().swapaxes(1, 2) @ vels @ v) ** 2
    kernel = w <= FULL_RANK_MIN_EIG
    vanishing = ~kernel[:, None, :] | (d <= FULL_RANK_MIN_EIG**2)
    limit = kernel.any(axis=1) & vanishing.all(axis=(1, 2))
    w = np.maximum(w, 1e-290)
    j = _fisher_information(w, d, metric)
    j[limit] = 0.0
    if not np.all(np.isfinite(j)) or np.any(j > 1e15):
        raise DomainError("metric undefined: velocity leaves the support of a singular state")
    speeds = np.sqrt(np.maximum(j, 0.0))
    if limit.any():
        if np.count_nonzero(~limit) < 2:
            raise DomainError("metric undefined: fewer than two samples off the boundary")
        t, reg = curve.times, np.flatnonzero(~limit)
        k = np.clip(np.searchsorted(t[reg], t[limit]) - 1, 0, len(reg) - 2)
        a, b = reg[k], reg[k + 1]
        speeds[limit] = speeds[a] + (t[limit] - t[a]) * (speeds[b] - speeds[a]) / (t[b] - t[a])
    return speeds


def geodesic_start(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[GeodesicState, float]:
    """Unit-speed initial data (rho, L0) for the commutative geodesic flow, plus the total arc
    time 2 theta, theta = arccos F_min: the great circle's RLD speed is 2 theta, so at rate 1/2
    its drho(0) has unit speed, and L0 = drho(0) rho^-1 = V (X_ij / w_j) V† as in rld_fisher."""
    rt = minimal_reverse_test(rho, sigma)
    rho.require_full_rank()
    fid = rt.fidelity()
    if fid >= EQUAL_PAIR_FIDELITY:
        return GeodesicState(rho, np.zeros_like(rho.mat)), 0.0
    theta = math.acos(fid)
    vel = _arc(rt.prep, np.sqrt(rt.p.weights), np.sqrt(rt.q.weights), theta, np.zeros((1, 1)), 0.5)[2][0]
    w, v = rho.spectrum.eigenvalues, rho.spectrum.frame
    return GeodesicState(rho, v @ (v.conj().T @ vel @ v / w) @ v.conj().T), 2.0 * theta


def _check_flow_start(start: GeodesicState, dt: float, steps: int) -> None:
    """Reject a bad dt or steps (dt < 0 runs backward) or start before any arithmetic."""
    if isinstance(dt, bool) or not isinstance(dt, Real) or not math.isfinite(dt) or dt == 0:
        raise ValidationError(f"dt must be finite and non-zero, got {dt!r}")
    require_integer("steps", steps, 0)
    require_instance("start", start, GeodesicState)
    l = start.rld_matrix
    if l.shape != start.state.mat.shape:
        raise DimensionMismatchError(f"L has shape {l.shape}, the state has dim {start.state.dim}")
    if start.constraint_residual() > 1e-8:
        raise ValidationError("start violates rho L† = L rho")
    if abs(np.trace(l @ start.state.mat).real) > 1e-8:
        raise ValidationError("start violates tr(L rho) = 0")
    start.state.require_full_rank()
    j = float(np.trace(l.conj().T @ l @ start.state.mat).real)
    if abs(j - 1.0) > 1e-6:
        raise ValidationError(f"start is not unit speed: J^R = {j}")


def _integrate_flow(start: GeodesicState, dt: float, steps: int) -> Curve:
    total = dt * steps
    rho = np.empty((steps + 1,) + start.state.mat.shape, dtype=complex)
    l = np.empty_like(rho)
    rho[0] = start.state.mat
    l[0] = start.rld_matrix
    v0 = HermitianMatrix(total * 0.5 * (l[0] @ rho[0] + rho[0] @ l[0].conj().T))

    def trajectory(k):
        # states and velocities of steps 1..k, validated in one pass
        r, m = rho[1 : k + 1], l[1 : k + 1]
        return make_density_stack(r, total * 0.5 * (m @ r + r @ m.conj().swapaxes(1, 2)))

    # complex scalars: a complex array times a Python float converts the float each time
    half, whole, sixth = np.complex128(0.5 * dt), np.complex128(dt), np.complex128(dt / 6.0)
    r, m = rho[0], l[0]
    k1r = m.dot(r)
    # a step that blows up goes non-finite and its residual check rejects it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps):
            try:
                # classical 4-stage Runge-Kutta on the coupled (rho, L) system
                k1l = _rld_stage(r, m)
                r2, m2 = r + half * k1r, m + half * k1l
                k2r, k2l = m2.dot(r2), _rld_stage(r2, m2)
                r3, m3 = r + half * k2r, m + half * k2l
                k3r, k3l = m3.dot(r3), _rld_stage(r3, m3)
                r4, m4 = r + whole * k3r, m + whole * k3l
                k4r, k4l = m4.dot(r4), _rld_stage(r4, m4)
                r = r + sixth * (k1r + (k2r + k2r) + (k3r + k3r) + k4r)  # x + x = 2x exactly
                m = m + sixth * (k1l + (k2l + k2l) + (k3l + k3l) + k4l)
                r = r + r.conj().T
                r = r / r.real.trace()  # the flow conserves trace analytically
                # r is Hermitian, so rho L† - L rho = (L rho)† - L rho, and
                # L rho is the next step's first stage
                k1r = m.dot(r)
                c = k1r - k1r.conj().T
                residual = math.sqrt(np.vdot(c, c).real)
                if not residual <= FLOW_CONSTRAINT_TOL:
                    raise DomainError(
                        f"step {k + 1} rejected: constraint residual {residual:.3e} exceeds {FLOW_CONSTRAINT_TOL}"
                    )
            except DomainError:
                trajectory(k)  # an invalid earlier step is reported first
                raise
            rho[k + 1] = r
            l[k + 1] = m
    states, velocities = trajectory(steps)
    times = [0.0] + [(k + 1) * dt / total for k in range(steps)]
    return Curve(np.array(times), (start.state,) + states, (v0,) + velocities)


def commutative_geodesic_flow(start: GeodesicState, dt: float, steps: int) -> Curve:
    """Flow of 2 dL/dt + L^2 + 1 = 0, drho/dt = L rho (commutative family), in closed form.

    With H = rho0^-1/2 L0 rho0^1/2 = U diag(l0) U† (Hermitian on the constraint
    rho L† = L rho; a start's residual, at most 1e-8, is projected out) and the
    fixed frame N = rho0^1/2 U, the flow is L = N diag(l) N^-1 and
    rho = N diag(c^2) N† with c = cos(t/2) + l0 sin(t/2), l = 2c'/c =
    tan(arctan l0 - t/2): the great circle of fmin_geodesic, _arc at theta = pi/2
    and phi = t/2 with a0 = |N_x| and a1 = a0 l0 on N's unit columns. Where some
    a reaches 0, rho meets the cone's boundary and l diverges: the first grid
    step with a <= 0 stops the flow with a DomainError.

    The grid is normalized to [0, 1]; velocities are derivatives with
    respect to the normalized parameter.
    """
    _check_flow_start(start, dt, steps)
    total = dt * steps
    sw, v = np.sqrt(start.state.spectrum.eigenvalues), start.state.spectrum.frame
    # H in rho0's eigenbasis: diag(w)^-1/2 (V† L0 V) diag(w)^1/2
    ell0, u = np.linalg.eigh(hermitian_part((v.conj().T @ start.rld_matrix @ v) * sw / sw[:, None]))
    n = (v * sw) @ u
    a0 = np.linalg.norm(n, axis=0)
    t = dt * np.arange(steps + 1)
    amp, rho, vel = _arc(n / a0, a0, a0 * ell0, 0.5 * math.pi, 0.5 * t[:, None], 0.5 * total)
    past = np.flatnonzero((amp[1:] <= 0.0).any(axis=1))
    if past.size:
        # the first l to diverge: the least l0 forward, the largest backward
        blow_up = 2.0 * math.atan(ell0[0]) + math.pi if dt > 0 else 2.0 * math.atan(ell0[-1]) - math.pi
        raise DomainError(f"step {past[0] + 1} rejected: L diverges at t = {blow_up:.6g}")
    states, velocities = make_density_stack(rho[1:], vel[1:])
    times = np.concatenate(([0.0], t[1:] / total))
    return Curve(times, (start.state,) + states, (HermitianMatrix(vel[0]),) + velocities)


def rld_geodesic_flow(start: GeodesicState, dt: float, steps: int) -> Curve:
    """General RLD geodesic: RK4 of drho/dt = L rho, rho dL + dL rho = -rho (L†L + 1), each
    stage solved on the Hermitian part of its stage point (see _rld_stage). The anti-Hermitian
    part dropped is O(dt * constraint residual); a step whose residual exceeds
    FLOW_CONSTRAINT_TOL, or is not finite, stops the flow with a DomainError."""
    _check_flow_start(start, dt, steps)
    return _integrate_flow(start, dt, steps)


def _rld_stage(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """dL/dt at the stage point (r, m), from h dL + dL h = -r (L†L + 1) with h = (r + r†)/2: up to
    KRONECKER_STAGE_MAX_DIM one LU solve (solve1: numpy's LAPACK gesv) of its Kronecker form
    -(h ⊗ I + I ⊗ hᵀ) vec dL = vec(r (L†L + 1)), above it one eigensolve of r + r† (eigh_upper:
    numpy's LAPACK heevd) and a Lyapunov solve. NaN where the solve is singular or does not converge.
    r is a C-contiguous complex array, as the integrator's stage points are."""
    d = len(r)
    c = r.dot(m.conj().T.dot(m)) + r
    if d <= KRONECKER_STAGE_MAX_DIM:
        k = _kronecker_sum_map(d).dot(r.view(np.float64).ravel()).view(np.complex128)
        return solve1(k.reshape(d * d, d * d), c.ravel()).reshape(d, d)
    w, v = eigh_upper(r + r.conj().T)
    return _lyapunov_solve(w, v, c * -2.0)  # twice the stage's equation


@functools.cache
def _kronecker_sum_map(d: int) -> np.ndarray:
    """The real (2 d^4, 2 d^2) matrix of the map r -> -(h ⊗ I + I ⊗ hᵀ), h = (r + r†)/2, between the
    float views of the row-major vec(r) and vec(-(h ⊗ I + I ⊗ hᵀ)), real and imaginary parts
    interleaved; built once per d and shared read-only."""
    eye = np.eye(d)
    units = np.eye(2 * d * d).view(np.complex128).reshape(-1, d, d)  # one real or imaginary part of r set to 1
    h = 0.5 * (units + units.conj().swapaxes(1, 2))
    k = -np.array([np.kron(x, eye) + np.kron(eye, x.T) for x in h]).reshape(len(h), -1)
    k = np.ascontiguousarray(k.view(np.float64).T)
    k.setflags(write=False)
    return k


@functools.cache
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The 8-point Gauss-Legendre rule on [0, 1]; computed once and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(8)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _segment_lengths(starts: np.ndarray, ends: np.ndarray):
    """RLD lengths of rho(u) = GG†/tr, G = A + uD, D = B - A, over (..., d, d)
    stacks of endpoints A = starts and B = ends, and the (..., 8) codes of
    their nodes: 0 if regular, 1 if tr GG† <= 0, 2 if rho(u) leaves the
    positive cone (it raises nothing, and a failing segment's length is
    meaningless). J = tr(drho rho^-1 drho) takes one solve per node."""
    nodes, weights = _gl_nodes()
    a = np.asarray(starts)
    dg = np.asarray(ends) - a
    ah, dh = a.conj().swapaxes(-1, -2), dg.conj().swapaxes(-1, -2)
    ad = a @ dh
    # GG† = M0 + u M1 + u^2 M2, formed once per segment: AA†, AD† + (AD†)†, DD†
    m0, m1, m2 = (x[..., None, :, :] for x in (a @ ah, ad + ad.conj().swapaxes(-1, -2), dg @ dh))
    u = nodes[:, None, None]
    m, dm = m0 + u * (m1 + u * m2), m1 + 2.0 * u * m2
    tau, dtau = (np.trace(x, axis1=-2, axis2=-1).real for x in (m, dm))
    degenerate = tau <= 0.0
    # a unit tau keeps the arithmetic of degenerate nodes finite
    tau = np.where(degenerate, 1.0, tau)[..., None, None]
    rho = m / tau
    drho = (dm - rho * dtau[..., None, None]) / tau
    failing = np.where(degenerate, 1, 2 * (np.linalg.eigvalsh(rho)[..., 0] <= CONE_MIN_EIG))
    if failing.any():  # the identity stands in for failing nodes, so the solve cannot fail
        rho = np.where(failing[..., None, None] > 0, np.eye(rho.shape[-1]), rho)
    j = np.einsum("...ij,...ji->...", drho, np.linalg.solve(rho, drho)).real
    return np.sum(weights * np.sqrt(np.maximum(j, 0.0)), axis=-1), failing


def fr_estimate(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    control_points: int = 3,
    iterations: int = 20,
    seed: int = 0,
) -> float:
    """Variational upper path: cos of half the shortest RLD length found.

    The search space is the exact commutative geodesic plus piecewise
    square-root-factor paths refined by coordinate descent, so the result
    always lies in [F_min, F] up to quadrature noise. A trial moves one
    anchor by +step or -step along a random direction: one stacked call
    re-evaluates, for both signs, only the two segments the anchor joins.
    """
    require_integer("control_points", control_points, 0)
    require_integer("iterations", iterations, 0)
    rng = rng_for(seed)
    rt = minimal_reverse_test(rho, sigma)  # the pair check and the base's full rank
    rho.require_full_rank()
    sigma.require_full_rank()
    fmin_val = rt.fidelity()
    if fmin_val >= EQUAL_PAIR_FIDELITY:
        return 1.0
    best = 2.0 * math.acos(fmin_val)  # exact length of the commutative geodesic

    geo = _great_circle(rho, rt, control_points + 2)
    anchors = np.array([s.sqrt() for s in geo.states])
    lengths, failing = _segment_lengths(anchors[:-1], anchors[1:])
    if failing.any():
        return math.cos(0.5 * best)
    current = float(lengths.sum())  # only falls from here on

    step = 0.1 * float(np.mean([np.linalg.norm(a) for a in anchors]))
    shrink_levels = 0
    d = rho.dim
    signs = np.array([1.0, -1.0])[:, None, None]
    for _ in range(iterations):
        improved = False
        for i in range(1, len(anchors) - 1):
            direction = _ginibre(rng, d, d)
            direction /= np.linalg.norm(direction)
            # (sign, anchor i-1..i+1) paths; only segments i-1 and i move
            paths = np.array([anchors[i - 1 : i + 2]] * 2)
            paths[:, 1] = anchors[i] + signs * step * direction
            trials = np.array([lengths] * 2)
            trials[:, i - 1 : i + 1], failing = _segment_lengths(paths[:, :-1], paths[:, 1:])
            totals = trials.sum(axis=1)
            accept = ~failing.any(axis=(1, 2)) & (totals < current - 1e-12)
            if accept.any():
                k = int(np.argmax(accept))  # the + trial first
                anchors[i], lengths, current = paths[k, 1], trials[k], float(totals[k])
                improved = True
        if not improved:
            step *= 0.5
            shrink_levels += 1
            if shrink_levels >= 12:
                break
    return float(min(math.cos(0.5 * min(best, current)), 1.0))


@dataclass(frozen=True)
class ExpansionReport:
    """Residuals of the second-order expansion at each eps and their fitted log-log slope."""

    eps: tuple[float, ...]
    residuals: tuple[float, ...]
    slope: float


def expansion_check(
    tp: TangentPoint,
    eps_list: Sequence[float] = (1e-1, 5e-2, 2.5e-2, 1.25e-2),
    which: str = "fmin",
) -> ExpansionReport:
    """Order-of-convergence of 1 - F(rho, rho + eps drho) = eps^2 J / 8 + O(eps^3).

    ``which`` selects F_min (against J^R) or the Uhlmann fidelity (against
    J^S).  The fitted log-log slope of the residual should sit near 3.  A
    shifted state rho + eps drho that fails make_density's PSD check raises
    a DomainError naming eps.
    """
    if which not in ("fmin", "uhlmann"):
        raise ValidationError("which must be 'fmin' or 'uhlmann'")
    try:
        eps_arr = np.asarray(eps_list, dtype=float)
    except (TypeError, ValueError):
        eps_arr = np.empty(0)
    # the slope is a line fit in log eps: it needs two distinct logs
    if eps_arr.ndim != 1 or not np.all(np.isfinite(eps_arr) & (eps_arr > 0)) or np.unique(eps_arr).size < 2:
        raise ValidationError(f"eps_list must hold at least two distinct finite values > 0, got {eps_list!r}")
    rep = fisher_both(tp)
    j = rep.j_rld if which == "fmin" else rep.j_sld
    residuals = []
    for eps in eps_list:
        try:
            sigma = make_density(tp.state.mat + eps * tp.velocity.entries)
        except ValidationError as exc:
            if not str(exc).startswith("min eigenvalue"):  # the PSD check, not trace or finiteness
                raise
            raise DomainError(f"state leaves the PSD cone at eps = {eps}") from exc
        fid = f_min(tp.state, sigma) if which == "fmin" else uhlmann_fidelity(tp.state, sigma)
        residuals.append(abs(fid - (1.0 - eps * eps * j / 8.0)))
    if all(r == 0.0 for r in residuals):
        slope = math.inf
    else:  # a zero residual among nonzero ones is floored for the log
        slope = float(np.polyfit(np.log(eps_arr), np.log(np.maximum(residuals, 1e-300)), 1)[0])
    return ExpansionReport(eps=tuple(eps_list), residuals=tuple(residuals), slope=slope)
