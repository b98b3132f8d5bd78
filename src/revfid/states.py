"""Quantum states, classical distributions, channels, measurements, and the
seeded random generators that drive the property suites.

All random_* functions are pure in (parameters, seed): they build a fresh
``numpy`` generator from the seed, so repeated calls agree bit-for-bit.
Parallel trials should use distinct (seed, stream) pairs via
:func:`rng_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, SingularStateError, ValidationError
from .linalg import (
    HermitianMatrix,
    SpectralDecomposition,
    _as_square_complex,
    hermitian_part,
    require_finite,
    trace_norm,
)

TRACE_TOL = 1e-8
EIG_TOL = 1e-8
FULL_RANK_MIN_EIG = 1e-10


def require_integer(name: str, value, least: int, what: str = "an integer") -> None:
    """ValidationError naming ``name`` unless ``value`` is an integer >= least; numpy
    integers count, bool does not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(f"{name} must be {what} >= {least}, got {value!r}")


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream), both integers >= 0; streams never share state."""
    require_integer("seed", seed, 0)
    require_integer("stream", stream, 0)
    return np.random.default_rng([int(seed), int(stream)])


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian matrix, with the read-only eigendecomposition
    (eigenvalues ascending) that validation computes as ``spectrum``."""

    matrix: HermitianMatrix
    spectrum: SpectralDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.matrix.entries
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace {tr} deviates from 1")
        w, v = np.linalg.eigh(m)
        if w[0] < -1e-10:
            raise ValidationError("density matrix is not PSD within tolerance")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "spectrum", SpectralDecomposition(eigenvalues=w, frame=v))

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def mat(self) -> np.ndarray:
        return self.matrix.entries

    def min_eigenvalue(self) -> float:
        return float(self.spectrum.eigenvalues[0])

    def require_full_rank(self, message: str = "operation requires a strictly positive state") -> None:
        """SingularStateError(message) unless the least eigenvalue ``{lam}``
        exceeds FULL_RANK_MIN_EIG."""
        lam = self.min_eigenvalue()
        if lam <= FULL_RANK_MIN_EIG:
            raise SingularStateError(message.format(lam=lam))

    def sqrt(self) -> np.ndarray:
        """Principal square root from the stored spectrum, as a plain array."""
        return self.spectrum.function(np.sqrt(np.clip(self.spectrum.eigenvalues, 0.0, None)))


@dataclass(frozen=True)
class PureState:
    """Unit vector in C^dim."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        require_finite(a, "state vector")
        n = np.linalg.norm(a)
        if abs(n - 1.0) > 1e-8:
            raise ValidationError(f"state vector norm {n} deviates from 1")
        a = a / n
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> DensityMatrix:
        return DensityMatrix(HermitianMatrix(np.outer(self.amplitudes, self.amplitudes.conj())))


@dataclass(frozen=True)
class ProbDist:
    """Finite probability distribution; tiny negative weights are clipped."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        require_finite(w, "probability vector")
        if w.min(initial=0.0) < -1e-10:
            raise ValidationError(f"negative weight {w.min()} in probability vector")
        w = np.clip(w, 0.0, None)
        s = w.sum()
        if abs(s - 1.0) > 1e-8:
            raise ValidationError(f"probability weights sum to {s}")
        w = w / s
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class SignedVector:
    """Real vector with a caller-declared total (0 for tangent vectors)."""

    values: np.ndarray
    total: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        require_finite(v, "signed vector")
        if abs(v.sum() - self.total) > 1e-9:
            raise ValidationError(f"values sum to {v.sum()}, declared total {self.total}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Channel:
    """CPTP map in Kraus form."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValidationError("channel needs at least one Kraus operator")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks):
            raise ValidationError("Kraus operators have inconsistent shapes")
        require_finite(np.stack(ks), "Kraus operator")
        comp = sum(k.conj().T @ k for k in ks)
        if np.linalg.norm(comp - np.eye(shape[1])) > 1e-8:
            raise ValidationError("Kraus operators do not satisfy completeness")
        for k in ks:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def make_density(entries) -> DensityMatrix:
    """Validate and normalize one array into a DensityMatrix: :func:`make_density_stack`
    on a stack of one."""
    return make_density_stack(_as_square_complex(entries)[None])[0][0]


def _prechecked(cls, **fields):
    """Instance of a frozen dataclass whose __post_init__ checks already ran."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # bypasses the frozen __setattr__, one call for all fields
    return obj


def make_density_stack(
    states, velocities=None
) -> tuple[tuple[DensityMatrix, ...], tuple[HermitianMatrix, ...] | None]:
    """Validate and normalize an (n, d, d) stack of states into DensityMatrix
    objects, and a matching stack of velocities into ``HermitianMatrix``, in one pass.

    Symmetrizes, clips eigenvalues in [-1e-8, 0) to zero, renormalizes a
    trace within 1e-8 of one; anything worse is rejected with diagnostics,
    the error a loop over the indices would raise first: state i, then
    velocity i, before index i + 1.  One eigh serves the whole stack, and each
    state's ``spectrum`` is the clipped, renormalized eigensystem it is rebuilt from.
    """
    s = np.asarray(states, dtype=complex)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {s.shape}")
    v = None if velocities is None else np.asarray(velocities, dtype=complex)
    if v is not None and v.shape != s.shape:
        raise DimensionMismatchError(f"velocity stack {v.shape} does not match state stack {s.shape}")

    # Each check only looks below the first failure found so far; checks run
    # in the scalar order, so at a shared index the earlier check wins.
    stop, error = len(s), None

    def note(bad, make_error):
        nonlocal stop, error
        hit = np.flatnonzero(bad[:stop])
        if hit.size:
            stop, error = int(hit[0]), make_error(int(hit[0]))

    h = hermitian_part(s)  # checked after symmetrizing, as in HermitianMatrix
    note(~np.isfinite(h).all(axis=(1, 2)), lambda i: ValidationError("matrix has non-finite entries"))
    tr = np.trace(h[:stop], axis1=1, axis2=2).real
    note(
        np.abs(tr - 1.0) > TRACE_TOL,
        lambda i: ValidationError(f"trace {float(tr[i])} deviates from 1 by more than {TRACE_TOL}"),
    )
    w, frame = np.linalg.eigh(h[:stop])
    note(w[:, 0] < -EIG_TOL, lambda i: ValidationError(f"min eigenvalue {w[i, 0]:.3e} below -{EIG_TOL}"))
    if v is not None:
        v = hermitian_part(v)
        note(~np.isfinite(v).all(axis=(1, 2)), lambda i: ValidationError("matrix has non-finite entries"))
    if error is not None:
        raise error

    # w >= 0 and sums to 1, so each rebuilt state is unit-trace and PSD to rounding
    w = np.clip(w, 0.0, None)
    w = w / w.sum(axis=1, keepdims=True)
    out = hermitian_part((frame * w[:, None, :]) @ frame.conj().swapaxes(1, 2))
    for a in (out, w, frame):
        a.setflags(write=False)  # the per-state views below inherit this
    rhos = tuple(
        _prechecked(
            DensityMatrix,
            matrix=_prechecked(HermitianMatrix, entries=m),
            spectrum=_prechecked(SpectralDecomposition, eigenvalues=w_i, frame=v_i),
        )
        for m, w_i, v_i in zip(out, w, frame)
    )
    if v is None:
        return rhos, None
    v.setflags(write=False)
    return rhos, tuple(_prechecked(HermitianMatrix, entries=m) for m in v)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Ginibre-induced random state of the given rank."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank {rank} out of range for dim {dim}")
    g = _ginibre(rng_for(seed), dim, rank)
    m = g @ g.conj().T
    return DensityMatrix(HermitianMatrix(m / np.trace(m).real))


def random_pure(dim: int, seed: int) -> PureState:
    v = _ginibre(rng_for(seed), dim, 1).reshape(-1)
    return PureState(v / np.linalg.norm(v))


def random_channel(dim_in: int, dim_out: int, kraus_count: int, seed: int) -> Channel:
    """Random CPTP map: QR isometry into dim_out x kraus_count, sliced."""
    if kraus_count < 1:
        raise ValidationError("kraus_count must be >= 1")
    if dim_out * kraus_count < dim_in:
        raise ValidationError("dim_out * kraus_count must be >= dim_in for an isometry")
    g = _ginibre(rng_for(seed), dim_out * kraus_count, dim_in)
    q, r = np.linalg.qr(g)
    # fix the phase convention so the isometry is a pure function of the seed
    q = q * np.sign(np.diag(r).real)
    kraus = [q[i * dim_out : (i + 1) * dim_out, :] for i in range(kraus_count)]
    return Channel(tuple(kraus))


def apply_channel(lam: Channel, rho: DensityMatrix) -> DensityMatrix:
    if lam.dim_in != rho.dim:
        raise DimensionMismatchError(f"channel input dim {lam.dim_in} != state dim {rho.dim}")
    out = sum(k @ rho.mat @ k.conj().T for k in lam.kraus)
    return make_density(out)


def preparation_channel(columns: np.ndarray) -> Channel:
    """Channel sending the x-th basis distribution to the pure state in column x."""
    n = np.asarray(columns, dtype=complex)
    dim, m = n.shape
    kraus = []
    for x in range(m):
        k = np.zeros((dim, m), dtype=complex)
        k[:, x] = n[:, x]
        kraus.append(k)
    return Channel(tuple(kraus))


def embed_classical(p: ProbDist) -> DensityMatrix:
    return DensityMatrix(HermitianMatrix(np.diag(p.weights.astype(complex))))


def measure(effects: Sequence, rho: DensityMatrix) -> ProbDist:
    """Born probabilities tr(E_x rho) for a POVM given as a list of effects."""
    mats = [e.entries if isinstance(e, HermitianMatrix) else np.asarray(e, dtype=complex) for e in effects]
    if any(m.shape != (rho.dim, rho.dim) for m in mats):
        raise DimensionMismatchError("effect dimensions do not match the state")
    total = sum(mats)
    if np.linalg.norm(total - np.eye(rho.dim)) > 1e-8:
        raise ValidationError("effects do not sum to the identity (incomplete POVM)")
    for m in mats:
        if np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] < -1e-9:
            raise ValidationError("effect is not PSD")
    w = np.array([float(np.trace(m @ rho.mat).real) for m in mats])
    return ProbDist(np.clip(w, 0.0, None))


def basis_measurement(frame: np.ndarray) -> list[np.ndarray]:
    """Rank-one projectors onto the columns of a unitary frame."""
    f = np.asarray(frame, dtype=complex)
    return [np.outer(f[:, i], f[:, i].conj()) for i in range(f.shape[1])]


def tensor(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    return make_density(np.kron(rho.mat, sigma.mat))


def random_tangent(dim: int, seed: int) -> tuple[DensityMatrix, HermitianMatrix]:
    """Full-rank state plus a traceless Hermitian velocity (property-suite fuel).

    The velocity is scaled relative to the state's smallest eigenvalue so
    that rho + eps * v stays PSD for eps up to at least 5 / dim.
    """
    rho = random_density(dim, dim, seed)
    g = _ginibre(rng_for(seed, stream=1), dim, dim)
    v = 0.5 * (g + g.conj().T)
    v = v - np.trace(v).real * np.eye(dim) / dim
    norm = np.linalg.norm(v)
    if norm > 0:
        v = v * (0.2 * rho.min_eigenvalue() / norm) * dim
    return rho, HermitianMatrix(v)


def state_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace-norm distance used in residual checks."""
    return trace_norm(a.mat - b.mat)
