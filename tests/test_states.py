import numpy as np
import pytest

from revfid.errors import DimensionMismatchError, ValidationError
from revfid.linalg import HermitianMatrix
from revfid.reverse_tests import ReverseTest
from revfid.states import (
    EIG_TOL,
    TRACE_TOL,
    Channel,
    DensityMatrix,
    ProbDist,
    PureState,
    SignedVector,
    apply_channel,
    basis_measurement,
    embed_classical,
    make_density,
    make_density_stack,
    measure,
    preparation_channel,
    random_channel,
    random_density,
    random_pure,
    random_tangent,
    rng_for,
    tensor,
)


def test_make_density_valid_qubit():
    rho = make_density(np.array([[0.5, 0.1], [0.1, 0.5]]))
    w = np.linalg.eigvalsh(rho.mat)
    assert np.allclose(w, [0.4, 0.6])


def test_make_density_rejects_bad_trace():
    with pytest.raises(ValidationError):
        make_density(np.diag([0.6, 0.6]))


def test_make_density_rejects_negative():
    with pytest.raises(ValidationError):
        make_density(np.diag([1.2, -0.2]))


def test_make_density_clips_roundoff():
    rho = make_density(np.diag([1.0 + 5e-9, -5e-9]))
    assert rho.min_eigenvalue() >= 0.0
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)


def test_random_density_rank():
    rho = random_density(4, 2, 7)
    w = np.linalg.eigvalsh(rho.mat)
    assert np.sum(w > 1e-10) == 2


def test_random_density_deterministic():
    assert np.array_equal(random_density(3, 3, 5).mat, random_density(3, 3, 5).mat)


def test_rng_streams_differ():
    a = rng_for(1, 0).standard_normal(4)
    b = rng_for(1, 1).standard_normal(4)
    assert not np.allclose(a, b)


@pytest.mark.parametrize(
    "seed, stream, name, shown",
    [(-1, 0, "seed", "-1"), (1.9, 0, "seed", "1.9"), (True, 0, "seed", "True"), ("3", 0, "seed", "'3'"),
     (1, -2, "stream", "-2"), (1, 0.0, "stream", "0.0"), (1, False, "stream", "False")],
)
def test_rng_for_rejects_non_integer_or_negative(seed, stream, name, shown):
    # numpy's own message for -1 names neither argument, and int() truncated 1.9 to 1
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer >= 0, got {shown}$"):
        rng_for(seed, stream)


def test_rng_for_accepts_numpy_integers():
    a = rng_for(np.int64(3), np.uint8(1)).standard_normal(4)
    assert np.array_equal(a, rng_for(3, 1).standard_normal(4))


def test_random_density_rejects_fractional_seed():
    # it used to return the seed-1 state
    with pytest.raises(ValidationError, match=r"^seed must be an integer >= 0, got 1\.9$"):
        random_density(2, 2, 1.9)


def test_pure_state_normalizes():
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert psi.projector().mat[0, 0] == pytest.approx(0.5)


def test_prob_dist_rejects_negative():
    with pytest.raises(ValidationError):
        ProbDist(np.array([1.1, -0.1]))


def test_signed_vector_total():
    SignedVector(np.array([0.5, -0.5]), total=0.0)
    with pytest.raises(ValidationError):
        SignedVector(np.array([0.5, 0.5]), total=0.0)


def test_random_channel_complete():
    lam = random_channel(3, 2, 2, 8)
    comp = sum(k.conj().T @ k for k in lam.kraus)
    assert np.linalg.norm(comp - np.eye(3)) < 1e-9


def test_channel_rejects_incomplete_kraus():
    with pytest.raises(ValidationError):
        Channel((np.eye(2) * 0.5,))


def test_depolarizing_channel():
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1, -1]),
    ]
    lam = Channel(tuple(0.5 * p for p in paulis))
    rho = random_density(2, 2, 3)
    out = apply_channel(lam, rho)
    assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)


def test_apply_channel_dim_mismatch():
    lam = random_channel(2, 2, 2, 1)
    with pytest.raises(DimensionMismatchError):
        apply_channel(lam, random_density(3, 3, 1))


def test_preparation_channel_prepares_columns():
    cols = np.column_stack([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)])
    lam = preparation_channel(cols)
    p = embed_classical(ProbDist(np.array([0.3, 0.7])))
    out = apply_channel(lam, p)
    expect = 0.3 * np.outer(cols[:, 0], cols[:, 0]) + 0.7 * np.outer(cols[:, 1], cols[:, 1])
    assert np.allclose(out.mat, expect)


def test_measure_x_basis_on_zero():
    frame = np.column_stack([np.array([1, 1]), np.array([1, -1])]) / np.sqrt(2)
    effects = basis_measurement(frame)
    p = measure(effects, PureState(np.array([1.0, 0.0])).projector())
    assert np.allclose(p.weights, [0.5, 0.5])


def test_measure_rejects_incomplete_povm():
    with pytest.raises(ValidationError):
        measure([np.eye(2) * 0.5], random_density(2, 2, 1))


def test_tensor_of_pure_is_pure():
    a = random_pure(2, 1).projector()
    b = random_pure(2, 2).projector()
    w = np.linalg.eigvalsh(tensor(a, b).mat)
    assert np.sum(w > 1e-10) == 1


def test_random_tangent_traceless_and_safe():
    rho, v = random_tangent(3, 9)
    assert abs(np.trace(v.entries).real) < 1e-12
    assert np.linalg.eigvalsh(rho.mat + 0.5 * v.entries)[0] > 0


# ------------------------------------------------------ batched validation


def _stack_inputs(n=6, dim=3):
    states = [random_density(dim, dim, seed).mat for seed in range(n)]
    # a rank-deficient state with a round-off negative eigenvalue to clip
    states[n // 2] = np.diag([0.6, 0.4 + 5e-9, -5e-9]).astype(complex)
    vels = []
    for seed in range(n):
        g = rng_for(seed, stream=2).standard_normal((dim, dim))
        vels.append(g + g.T)
    return np.array(states), np.array(vels, dtype=complex)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _reference_make_density(entries):
    # the scalar route make_density had before it became the stack of one:
    # HermitianMatrix and DensityMatrix check the rebuilt matrix again
    h = HermitianMatrix(entries)
    tr = float(np.trace(h.entries).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
    w, v = np.linalg.eigh(h.entries)
    if w[0] < -EIG_TOL:
        raise ValidationError(f"min eigenvalue {w[0]:.3e} below -{EIG_TOL}")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    return DensityMatrix(HermitianMatrix((v * w) @ v.conj().T))


def _scalar_loop(states, vels):
    # the per-index construction the stack replaces: state i, then velocity i
    out = []
    for s, v in zip(states, vels):
        out.append((_reference_make_density(s), HermitianMatrix(v)))
    return out


@pytest.mark.parametrize(
    "entries",
    [
        np.ones((2, 3)),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.diag([0.55, 0.55]),
        np.diag([1.2, -0.2]),
        np.diag([1.0 + 2e-8, -2e-8]),
        np.diag([0.5, 0.5 + 6e-9]),
        np.diag([0.6, 0.4 + 5e-9, -5e-9]),
    ],
    ids=["non_square", "nan", "trace", "negative", "below_clip", "renormalized", "clipped"],
)
def test_make_density_matches_reference(entries):
    # the same error, or the same entries bit for bit
    expected = _outcome(lambda: _reference_make_density(entries).mat)
    got = _outcome(lambda: make_density(entries).mat)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert np.array_equal(got, expected)
        _assert_is_stored_spectrum(make_density(entries))


def test_make_density_stack_matches_scalar():
    states, vels = _stack_inputs()
    rhos, hs = make_density_stack(states, vels)
    for rho, h, (ref_rho, ref_h) in zip(rhos, hs, _scalar_loop(states, vels)):
        assert np.abs(rho.mat - ref_rho.mat).max() <= 1e-15
        assert np.array_equal(h.entries, ref_h.entries)
        assert not rho.mat.flags.writeable and not h.entries.flags.writeable
        assert rho.min_eigenvalue() >= -1e-10
    only, none = make_density_stack(states)
    assert none is None
    assert all(np.array_equal(a.mat, b.mat) for a, b in zip(only, rhos))
    assert make_density_stack(states[:0], vels[:0]) == ((), ())


_BAD = {
    "nan": lambda m: np.where(np.eye(len(m)) == 1, m, np.nan),
    "trace": lambda m: 1.1 * m,
    "negative": lambda m: np.diag([1.2, -0.2] + [0.0] * (len(m) - 2)).astype(complex),
}


@pytest.mark.parametrize(
    "state_faults, velocity_faults",
    [
        ({0: "nan"}, {}),
        ({4: "nan", 2: "trace"}, {}),
        ({1: "negative", 3: "nan"}, {}),
        ({3: "trace", 1: "negative"}, {}),
        ({2: "negative"}, {2: "nan"}),
        ({3: "trace"}, {1: "nan"}),
        ({}, {5: "nan"}),
    ],
)
def test_make_density_stack_raises_first_scalar_error(state_faults, velocity_faults):
    states, vels = _stack_inputs()
    for i, kind in state_faults.items():
        states[i] = _BAD[kind](states[i])
    for i, kind in velocity_faults.items():
        vels[i] = _BAD[kind](vels[i])
    expected = _outcome(lambda: _scalar_loop(states, vels))
    assert isinstance(expected, tuple) and expected[0] is ValidationError
    assert _outcome(lambda: make_density_stack(states, vels)) == expected


@pytest.mark.parametrize("dim", [2, 3])
def test_overflowing_symmetrization_is_rejected(dim):
    # finite entries whose Hermitian part overflows; eigh on it returns NaN at
    # dim 2 and raises LinAlgError at dim 3
    m = np.eye(dim) / dim + 1e308 * (1 - np.eye(dim))
    fine = np.eye(dim) / dim
    builds = [
        lambda: make_density(m),
        lambda: make_density_stack(np.array([fine, m])),
        lambda: make_density_stack(np.array([fine, fine]), np.array([fine, m])),
        lambda: DensityMatrix(HermitianMatrix(m)),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for build in builds:
            with pytest.raises(ValidationError, match="matrix has non-finite entries"):
                build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProbDist(np.array([np.nan, 1.0])),
        lambda: PureState(np.array([np.nan, 1.0])),
        lambda: SignedVector(np.array([np.nan, 0.0])),
        lambda: Channel((np.diag([1.0, np.nan]),)),
        lambda: ReverseTest(np.array([[1.0, np.nan], [0.0, 1.0]]), ProbDist([0.5, 0.5]), ProbDist([0.5, 0.5])),
    ],
    ids=["ProbDist", "PureState", "SignedVector", "Channel", "ReverseTest"],
)
def test_validators_reject_non_finite(build):
    # every later check is a comparison that NaN fails silently
    with pytest.raises(ValidationError, match="non-finite entries"):
        build()


def test_make_density_stack_rejects_bad_shapes():
    states, vels = _stack_inputs()
    with pytest.raises(DimensionMismatchError):
        make_density_stack(states[:, :2, :])
    with pytest.raises(DimensionMismatchError):
        make_density_stack(states, vels[:-1])


def _assert_is_stored_spectrum(rho):
    # the stored spectrum is eigh of the stored entries, read-only
    w, v = np.linalg.eigh(rho.mat)
    spec = rho.spectrum
    assert np.abs(spec.eigenvalues - w).max() <= 1e-15
    # eigenvectors agree up to a phase (the test spectra are non-degenerate)
    overlaps = np.abs(np.sum(v.conj() * spec.frame, axis=0))
    assert np.abs(overlaps - 1.0).max() <= 1e-12
    assert np.abs(spec.reconstruct() - rho.mat).max() <= 1e-14
    assert rho.min_eigenvalue() == spec.eigenvalues[0]
    assert not spec.eigenvalues.flags.writeable and not spec.frame.flags.writeable


def test_density_matrix_keeps_validated_spectrum():
    for seed in range(6):
        dim = 2 + seed % 4
        g = rng_for(seed, stream=3).standard_normal((dim, dim, 2)) @ [1.0, 1.0j]
        m = g @ g.conj().T
        _assert_is_stored_spectrum(DensityMatrix(HermitianMatrix(m / np.trace(m).real)))
        _assert_is_stored_spectrum(make_density(m / np.trace(m).real))
        _assert_is_stored_spectrum(random_density(dim, dim, seed))


def test_make_density_stack_keeps_validated_spectrum():
    states, vels = _stack_inputs()
    for rhos in (make_density_stack(states, vels)[0], make_density_stack(states)[0]):
        for rho in rhos:
            _assert_is_stored_spectrum(rho)
