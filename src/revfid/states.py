"""Quantum states, classical distributions, channels, measurements, and the
seeded random generators that drive the property suites.

All random_* functions are pure in (parameters, seed): they build a fresh
``numpy`` generator from the seed, so repeated calls agree bit-for-bit.
Parallel trials should use distinct (seed, stream) pairs via
:func:`rng_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, SingularStateError, ValidationError
from .linalg import (
    EIG_TOL,
    FULL_RANK_MIN_EIG,
    HERMITIAN_TOL,
    PSD_TOL_FACTOR,
    TRACE_TOL,
    HermitianMatrix,
    SpectralDecomposition,
    _as_square_complex,
    hermitian_part,
    require_finite,
    trace_norm,
)


def require_integer(name: str, value, least: int | None) -> None:
    """ValidationError naming ``name`` unless ``value`` is an integer >= least (any integer
    when least is None); numpy integers count, bool does not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")


def require_instance(name: str, value, cls: type) -> None:
    """ValidationError naming ``name`` unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def require_real(name: str, value, least: float | None = None) -> None:
    """ValidationError naming ``name`` unless ``value`` is a finite real >= least (any finite real when
    least is None); numpy floats count, bool does not."""
    real = not isinstance(value, bool) and isinstance(value, Real) and -np.inf < value < np.inf
    if not real or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValidationError(f"{name} must be a finite real{bound}, got {value!r}")


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream), both integers >= 0; streams never share state."""
    require_integer("seed", seed, 0)
    require_integer("stream", stream, 0)
    return np.random.default_rng([int(seed), int(stream)])


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian matrix, with the read-only eigendecomposition
    (eigenvalues ascending, clipped at 0) that validation computes as ``spectrum``."""

    matrix: HermitianMatrix
    spectrum: SpectralDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.matrix.entries
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace {tr} deviates from 1")
        w, v = np.linalg.eigh(m)
        if w[0] < -PSD_TOL_FACTOR:
            raise ValidationError("density matrix is not PSD within tolerance")
        w = np.clip(w, 0.0, None)
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
        return self.spectrum.function(np.sqrt(self.spectrum.eigenvalues))


@dataclass(frozen=True)
class PureState:
    """Unit vector in C^dim."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = require_finite(self.amplitudes, "state vector", complex).reshape(-1)
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
        w = require_finite(self.weights, "probability vector", float).reshape(-1)
        if w.min(initial=0.0) < -1e-10:
            raise ValidationError(f"negative weight {w.min()} in probability vector")
        w = np.maximum(w, 0.0)
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
        v = require_finite(self.values, "signed vector", float).reshape(-1)
        require_real("declared total", self.total)
        if abs(v.sum() - self.total) > 1e-9:
            raise ValidationError(f"values sum to {v.sum()}, declared total {self.total}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Channel:
    """CPTP map in Kraus form, kept as one read-only (count, d_out, d_in) stack."""

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ks = np.array(self.kraus, dtype=complex)
        except ValueError:
            raise ValidationError("Kraus operators have inconsistent shapes") from None
        if ks.ndim != 3 or not len(ks):
            raise ValidationError(f"channel needs a stack of at least one Kraus matrix, got shape {ks.shape}")
        require_finite(ks, "Kraus operator")
        comp = (ks.conj().swapaxes(1, 2) @ ks).sum(axis=0)
        if np.linalg.norm(comp - np.eye(ks.shape[2])) > 1e-8:
            raise ValidationError("Kraus operators do not satisfy completeness")
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]


def make_density(entries) -> DensityMatrix:
    """Validate and normalize one array into a DensityMatrix: :func:`make_density_stack`
    on a stack of one."""
    return make_density_stack(_as_square_complex(entries)[None])[0][0]


def _prechecked(cls, **fields):
    """Instance of a frozen dataclass whose __post_init__ checks already ran."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # bypasses the frozen __setattr__, one call for all fields
    return obj


def _prechecked_dist(w: np.ndarray) -> ProbDist:
    """ProbDist of finite weights that pass its checks, built without them: the same clip at 0 and
    division by the sum, so the weights are ProbDist(w)'s bit for bit."""
    w = np.maximum(w, 0.0)
    w = w / w.sum()
    w.setflags(write=False)
    return _prechecked(ProbDist, weights=w)


def make_density_stack(
    states, velocities=None
) -> tuple[tuple[DensityMatrix, ...], tuple[HermitianMatrix, ...] | None]:
    """Validate and normalize an (n, d, d) stack of states into DensityMatrix
    objects, and a matching stack of velocities into ``HermitianMatrix``, in one pass.

    Symmetrizes, clips eigenvalues in [-EIG_TOL, 0) to zero, renormalizes a
    trace within TRACE_TOL of one; anything worse is rejected with diagnostics,
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
    rhos = _rebuilt(w, frame)
    if v is None:
        return rhos, None
    v.setflags(write=False)
    return rhos, tuple(_prechecked(HermitianMatrix, entries=m) for m in v)


def _rebuilt(w: np.ndarray, frame: np.ndarray) -> tuple[DensityMatrix, ...]:
    """States rebuilt from (n, d) ascending eigenvalues and their (n, d, d) frames, which they keep
    as ``spectrum``: w is clipped at 0 and renormalized, so each is unit-trace and PSD to rounding."""
    w = np.clip(w, 0.0, None)
    w = w / w.sum(axis=1, keepdims=True)
    out = hermitian_part((frame * w[:, None, :]) @ frame.conj().swapaxes(1, 2))
    for a in (out, w, frame):
        a.setflags(write=False)  # the per-state views below inherit this
    return tuple(
        _prechecked(
            DensityMatrix,
            matrix=_prechecked(HermitianMatrix, entries=m),
            spectrum=_prechecked(SpectralDecomposition, eigenvalues=w_i, frame=v_i),
        )
        for m, w_i, v_i in zip(out, w, frame)
    )


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Ginibre-induced random state of the given rank."""
    require_integer("dim", dim, 1)
    require_integer("rank", rank, 1)
    if rank > dim:
        raise ValidationError(f"rank {rank} out of range for dim {dim}")
    g = _ginibre(rng_for(seed), dim, rank)
    m = g @ g.conj().T
    return DensityMatrix(HermitianMatrix(m / np.trace(m).real))


def random_pure(dim: int, seed: int) -> PureState:
    require_integer("dim", dim, 1)
    v = _ginibre(rng_for(seed), dim, 1).reshape(-1)
    return PureState(v / np.linalg.norm(v))


def random_channel(dim_in: int, dim_out: int, kraus_count: int, seed: int) -> Channel:
    """Random CPTP map: QR isometry into dim_out x kraus_count, reshaped into the Kraus stack."""
    for name, value in (("dim_in", dim_in), ("dim_out", dim_out), ("kraus_count", kraus_count)):
        require_integer(name, value, 1)
    if dim_out * kraus_count < dim_in:
        raise ValidationError("dim_out * kraus_count must be >= dim_in for an isometry")
    g = _ginibre(rng_for(seed), dim_out * kraus_count, dim_in)
    q, r = np.linalg.qr(g)
    # fix the phase convention so the isometry is a pure function of the seed
    q = q * np.sign(np.diag(r).real)
    return Channel(q.reshape(kraus_count, dim_out, dim_in))


def apply_channel(lam: Channel, rho: DensityMatrix) -> DensityMatrix:
    if lam.dim_in != rho.dim:
        raise DimensionMismatchError(f"channel input dim {lam.dim_in} != state dim {rho.dim}")
    return make_density((lam.kraus @ rho.mat @ lam.kraus.conj().swapaxes(1, 2)).sum(axis=0))


def preparation_channel(columns: np.ndarray) -> Channel:
    """Channel sending the x-th basis distribution to the pure state in column x: Kraus x is n e_x^T."""
    n = np.asarray(columns, dtype=complex)
    if n.ndim != 2:
        raise ValidationError(f"preparation columns must form a 2-d array, got shape {n.shape}")
    m = n.shape[1]
    return Channel(np.where(np.eye(m, dtype=bool)[:, None, :], n.T[:, :, None], 0.0))


def embed_classical(p: ProbDist) -> DensityMatrix:
    """diag(p), rebuilt from p sorted stably on the same permutation of the standard basis, with no decomposition."""
    order = np.argsort(p.weights, kind="stable")
    return _rebuilt(p.weights[None, order], np.eye(p.size, dtype=complex)[None, :, order])[0]


def measure(effects: Sequence, rho: DensityMatrix) -> ProbDist:
    """Born probabilities tr(E_x rho) for a POVM given as a list of effects."""
    mats = [e.entries if isinstance(e, HermitianMatrix) else np.asarray(e, dtype=complex) for e in effects]
    if any(m.shape != (rho.dim, rho.dim) for m in mats):
        raise DimensionMismatchError("effect dimensions do not match the state")
    mats = require_finite(mats, "effect", complex).reshape(-1, rho.dim, rho.dim)
    if np.linalg.norm(mats.sum(axis=0) - np.eye(rho.dim)) > 1e-8:
        raise ValidationError("effects do not sum to the identity (incomplete POVM)")
    if np.linalg.norm(mats - mats.conj().swapaxes(1, 2), axis=(1, 2)).max() > HERMITIAN_TOL:
        raise ValidationError("effect is not Hermitian")
    if np.linalg.eigvalsh(hermitian_part(mats))[:, 0].min() < -1e-9:
        raise ValidationError("effect is not PSD")
    return ProbDist(np.clip(np.einsum("xij,ji->x", mats, rho.mat).real, 0.0, None))


def basis_measurement(frame: np.ndarray) -> list[np.ndarray]:
    """Rank-one projectors onto the columns of a unitary frame."""
    f = np.asarray(frame, dtype=complex)
    return [np.outer(f[:, i], f[:, i].conj()) for i in range(f.shape[1])]


def tensor(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """rho (x) sigma from the sorted Kronecker product of the stored spectra, with no decomposition."""
    w = np.kron(rho.spectrum.eigenvalues, sigma.spectrum.eigenvalues)
    order = np.argsort(w)
    return _rebuilt(w[None, order], np.kron(rho.spectrum.frame, sigma.spectrum.frame)[None, :, order])[0]


def random_tangent(dim: int, seed: int) -> tuple[DensityMatrix, HermitianMatrix]:
    """Full-rank state plus a traceless Hermitian velocity (property-suite fuel).

    The velocity is scaled relative to the state's smallest eigenvalue so
    that rho + eps * v stays PSD for eps up to at least 5 / dim.
    """
    rho = random_density(dim, dim, seed)
    g = _ginibre(rng_for(seed, stream=1), dim, dim)
    v = hermitian_part(g)
    v = v - np.trace(v).real * np.eye(dim) / dim
    norm = np.linalg.norm(v)
    if norm > 0:
        v = v * (0.2 * rho.min_eigenvalue() / norm) * dim
    return rho, HermitianMatrix(v)


def _check_dims(a, b) -> None:
    """DimensionMismatchError unless the operands (anything with ``dim``) share the Hilbert dimension."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} vs {b.dim}")


def state_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace-norm distance used in residual checks."""
    _check_dims(a, b)
    return trace_norm(a.mat - b.mat)
