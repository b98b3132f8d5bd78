"""The T-based quantities read each state's stored spectrum and make one SVD,
of rho^-1/2 sigma^1/2 built from those spectra.

They are checked against the route they replaced, which decomposes every
state and intermediate again through the HermitianMatrix wrappers; against
its typed errors on singular and non-PSD input; and by counting the
decompositions and inverses per call, which also shows that constructing
a state from a validated one decomposes it once.
"""

import math
import re

import numpy as np
import pytest

import revfid
from revfid.divergences import (
    OperatorMonotoneSpec,
    delta_max_bounds,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    quasi_entropy_comparison,
    reverse_relative_entropy,
    t_operator,
    uhlmann_fidelity,
)
from revfid.errors import SingularStateError, ValidationError
from revfid.geometry import (
    Curve,
    TangentPoint,
    curve_speeds,
    expansion_check,
    fisher_both,
    fmin_geodesic,
    fr_estimate,
    geodesic_start,
    rld_fisher,
    sld_fisher,
    tangent_reverse_estimation,
)
from revfid.linalg import HermitianMatrix, eig_hermitian, geometric_mean, matrix_sqrt
from revfid.reverse_tests import (
    general_reverse_test,
    hidden_pair,
    minimal_reverse_test,
    sample_contraction,
    verify_reverse_test,
)
from revfid.states import (
    DensityMatrix,
    ProbDist,
    PureState,
    apply_channel,
    embed_classical,
    make_density,
    make_density_stack,
    random_channel,
    random_density,
    random_pure,
    random_tangent,
    tensor,
)

ALPHAS = (0.25, 0.5, 0.75)


# ------------------------------------------------- the wrapper route (oracle)


def oracle_t_operator(rho, sigma):
    lam = float(np.linalg.eigvalsh(rho.mat)[0])
    if lam <= 1e-10:
        raise SingularStateError(
            f"rho is singular (min eigenvalue {lam:.3e}); "
            "use the pure-target closed form or regularize explicitly"
        )
    w, v = np.linalg.eigh(rho.mat)
    ir = (v / np.sqrt(w)) @ v.conj().T
    return matrix_sqrt(HermitianMatrix(ir @ sigma.mat @ ir))


def oracle_f_min(rho, sigma):
    t = oracle_t_operator(rho, sigma)
    return float(min(max(np.trace(rho.mat @ t.entries).real, 0.0), 1.0))


def oracle_f_f_min(rho, sigma, f):
    t = oracle_t_operator(rho, sigma)
    dec = eig_hermitian(t)
    ft2 = (dec.frame * [f(lam * lam) for lam in dec.eigenvalues]) @ dec.frame.conj().T
    return float(np.trace(rho.mat @ ft2).real)


def oracle_delta_max_bounds(rho, sigma):
    fmin = oracle_f_min(rho, sigma)
    dec = eig_hermitian(oracle_t_operator(rho, sigma))
    p = np.array([float((dec.frame[:, i].conj() @ rho.mat @ dec.frame[:, i]).real) for i in range(rho.dim)])
    q = dec.eigenvalues**2 * p
    return 1.0 - fmin, math.sqrt(max(1.0 - fmin * fmin, 0.0)), float(0.5 * np.sum(np.abs(p - q)))


def oracle_minimal_reverse_test(rho, sigma):
    dec = eig_hermitian(oracle_t_operator(rho, sigma))
    cols = matrix_sqrt(rho.matrix).entries @ dec.frame
    p = np.linalg.norm(cols, axis=0) ** 2
    return cols / np.linalg.norm(cols, axis=0), p, dec.eigenvalues**2 * p


def oracle_uhlmann_fidelity(rho, sigma):
    rs = matrix_sqrt(rho.matrix).entries
    w = np.linalg.eigvalsh(rs @ sigma.mat @ rs)
    return float(min(np.sum(np.sqrt(np.clip(w, 0.0, None))), 1.0))


def oracle_reverse_relative_entropy(rho, sigma):
    if np.linalg.eigvalsh(sigma.mat)[0] <= 1e-10:
        raise SingularStateError("sigma must be strictly positive for D^R")
    rs = matrix_sqrt(rho.matrix).entries
    dec = eig_hermitian(HermitianMatrix(rs @ np.linalg.inv(sigma.mat) @ rs))
    w = dec.eigenvalues
    cut = 1e-14 * max(1.0, float(abs(w[-1])))
    logw = np.where(w > cut, np.log(np.where(w > cut, w, 1.0)), 0.0)
    return float(np.trace(rho.mat @ ((dec.frame * logw) @ dec.frame.conj().T)).real)


def oracle_f_min_pure(rho, phi):
    # the support projector and rho^-1/2 as matrix functions of the stored spectrum,
    # with the kernel cut at 1e-10 of max(1, the largest eigenvalue)
    w = np.clip(rho.spectrum.eigenvalues, 0.0, None)
    on = w > 1e-10 * max(1.0, float(w[-1]))
    proj = rho.spectrum.function(np.where(on, 1.0, 0.0))
    if np.linalg.norm(phi.amplitudes - proj @ phi.amplitudes) > 1e-8:
        return 0.0
    v = rho.spectrum.function(np.where(on, 1.0 / np.sqrt(np.where(on, w, 1.0)), 0.0)) @ phi.amplitudes
    return float(min(1.0 / np.linalg.norm(v), 1.0))


def oracle_quasi_entropy(rho, sigma, alpha):
    rho_pow = rho.spectrum.function(np.clip(rho.spectrum.eigenvalues, 0.0, None) ** (1.0 - alpha))
    sig_pow = sigma.spectrum.function(np.clip(sigma.spectrum.eigenvalues, 0.0, None) ** alpha)
    return 1.0 - float(np.trace(rho_pow @ sig_pow).real)


# --------------------------------------------------------------- agreement


def well_conditioned_pairs():
    # lambda_min >= 0.2 / d: both routes are accurate to round-off here
    for dim in range(2, 7):
        for seed in range(4):
            s = 100 * dim + seed
            rho, sigma = (
                make_density(0.8 * random_density(dim, dim, k).mat + 0.2 * np.eye(dim) / dim)
                for k in (s, s + 50)
            )
            yield rho, sigma


def close(got, ref, tol=1e-12):
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def test_t_quantities_match_wrapper_route():
    for rho, sigma in well_conditioned_pairs():
        assert np.abs(t_operator(rho, sigma).entries - oracle_t_operator(rho, sigma).entries).max() <= 1e-12
        assert close(f_min(rho, sigma), oracle_f_min(rho, sigma))
        for alpha in ALPHAS:
            spec = OperatorMonotoneSpec.power(alpha)
            assert close(f_f_min(rho, sigma, spec), oracle_f_f_min(rho, sigma, spec))
        b = delta_max_bounds(rho, sigma)
        got = (b.lower, b.upper, b.upper_via_measurement)
        assert all(close(g, r) for g, r in zip(got, oracle_delta_max_bounds(rho, sigma)))
        assert close(uhlmann_fidelity(rho, sigma), oracle_uhlmann_fidelity(rho, sigma))
        assert close(reverse_relative_entropy(rho, sigma), oracle_reverse_relative_entropy(rho, sigma))


def test_minimal_reverse_test_matches_wrapper_route():
    for rho, sigma in well_conditioned_pairs():
        rt = minimal_reverse_test(rho, sigma)
        prep, p, q = oracle_minimal_reverse_test(rho, sigma)
        assert np.abs(rt.p.weights - p).max() <= 1e-12
        assert np.abs(rt.q.weights - q).max() <= 1e-12
        # the same columns up to a phase each (T's spectrum is non-degenerate here)
        overlaps = np.abs(np.sum(rt.prep.conj() * prep, axis=0))
        assert np.abs(overlaps - 1.0).max() <= 1e-12


def test_f_min_pure_overlaps_match_matrix_functions():
    # rho = (1 - eps) (rank ceil(d/2)) + eps I/d from eps = 1e-12 (kernel below the cut)
    # to 1, against a random phi and a phi inside the support of the low-rank part
    for d in range(2, 6):
        for k, eps in enumerate(np.logspace(-12, 0, 25)):
            for s in range(3):
                seed = 1000 * d + 10 * k + s
                base = random_density(d, math.ceil(d / 2), seed)
                rho = make_density((1.0 - eps) * base.mat + eps * np.eye(d) / d)
                support = base.spectrum.frame[:, base.spectrum.eigenvalues > 1e-10]
                inside = support @ random_pure(support.shape[1], seed).amplitudes
                for phi in (random_pure(d, seed + 1), PureState(inside)):
                    ref = oracle_f_min_pure(rho, phi)
                    got = f_min_pure(rho, phi)
                    assert abs(got - ref) <= 1e-10 * ref or got == ref == 0.0, (d, eps, s)


def test_quasi_entropy_overlaps_match_matrix_functions():
    for d in range(2, 6):
        for s in range(20):
            rho, sigma = random_density(d, d, s), random_density(d, d, s + 500)
            for alpha in (0.1, *ALPHAS, 0.9):
                s_alpha, _ = quasi_entropy_comparison(rho, sigma, alpha)
                assert abs(s_alpha - oracle_quasi_entropy(rho, sigma, alpha)) <= 1e-14


def test_one_kernel_rule_at_the_cut():
    # an eigenvalue equal to FULL_RANK_MIN_EIG = 1e-10 is in the kernel for every reader
    edge = DensityMatrix(HermitianMatrix(np.diag([1e-10, 1.0 - 1e-10])))
    assert edge.min_eigenvalue() == 1e-10
    with pytest.raises(SingularStateError):
        edge.require_full_rank()
    assert f_min_pure(edge, PureState(np.array([1.0, 0.0]))) == 0.0
    # curve_speeds takes the 0/0 limit there: the speed is extrapolated from the
    # regular samples (1 and sqrt(4/3)), not read as J = 0 off the zero velocity
    half = HermitianMatrix(np.diag([-0.5, 0.5]))
    states = (make_density(np.diag([0.5, 0.5])), make_density(np.diag([0.25, 0.75])), edge)
    curve = Curve(np.array([0.0, 0.5, 1.0]), states, (half, half, HermitianMatrix(np.zeros((2, 2)))))
    speeds = curve_speeds(curve, "rld")
    assert speeds[-1] == pytest.approx(2.0 * math.sqrt(4.0 / 3.0) - 1.0, abs=1e-12)


# ------------------------------------------------------------ typed errors


def _outcome(fn, *args):
    """Type and message of the error fn raises.  Numbers in the message are
    masked: the least eigenvalue of a singular state is round-off, and eigh
    and eigvalsh round it differently."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), re.sub(r"-?\d\.\d+e[-+]\d+", "#", str(exc))
    return None


def test_singular_base_raises_as_before():
    rho = random_density(3, 2, 5)
    sigma = random_density(3, 3, 6)
    expected = _outcome(oracle_t_operator, rho, sigma)
    assert expected[0] is SingularStateError
    # rho^-1/2 defines these, so a singular rho raises whatever sigma is
    calls = [
        (t_operator, rho, sigma),
        (hidden_pair, rho, sigma),
        (general_reverse_test, rho, sigma, np.eye(3)),
        (quasi_entropy_comparison, rho, sigma, 0.5),
    ]
    for fn, *args in calls:
        assert _outcome(fn, *args) == expected, fn.__name__
    # the symmetric quantities take the better-conditioned base, so only a pair
    # with both states singular raises, and the message names that base
    nearly = make_density((1.0 - 1e-11) * random_density(3, 2, 7).mat + 1e-11 * np.eye(3) / 3)
    assert rho.min_eigenvalue() < nearly.min_eigenvalue() <= 1e-10
    as_rho = _outcome(oracle_t_operator, nearly, rho)
    assert as_rho[0] is SingularStateError
    as_sigma = (SingularStateError, as_rho[1].replace("rho is singular", "sigma is singular", 1))
    for a, b, outcome in ((nearly, rho, as_rho), (rho, nearly, as_sigma)):
        for fn, *args in [
            (f_min, a, b),
            (f_min_via_geomean, a, b),
            (f_f_min, a, b, OperatorMonotoneSpec.sqrt()),
            (delta_max_bounds, a, b),
            (minimal_reverse_test, a, b),
        ]:
            assert _outcome(fn, *args) == outcome, fn.__name__
    assert _outcome(reverse_relative_entropy, sigma, rho) == _outcome(
        oracle_reverse_relative_entropy, sigma, rho
    )
    singular_sigma = _outcome(quasi_entropy_comparison, sigma, rho, 0.5)
    assert singular_sigma[0] is SingularStateError
    assert singular_sigma[1].startswith("sigma is singular (min eigenvalue ")


def test_singular_state_in_geometry_raises_as_before():
    rho = random_density(3, 2, 5)
    tp = TangentPoint(rho, HermitianMatrix(np.diag([1.0, -1.0, 0.0])))
    expected = (SingularStateError, "operation requires a strictly positive state")
    for fn in (sld_fisher, rld_fisher, tangent_reverse_estimation):
        assert _outcome(fn, tp) == expected
    assert _outcome(fr_estimate, random_density(3, 3, 6), rho) == expected


def test_non_psd_inputs_raise_as_before():
    with pytest.raises(ValidationError, match="not PSD within tolerance"):
        DensityMatrix(HermitianMatrix(np.diag([1.0 + 2e-10, -2e-10])))
    # sigma passes validation at -5e-11; its support cut reads that eigenvalue
    # as 0, so the pair is rho against the pure |1>, not a PSD violation
    rho = make_density(np.diag([1e-4, 1.0 - 1e-4]))
    sigma = DensityMatrix(HermitianMatrix(np.diag([-5e-11, 1.0 + 5e-11])))
    closed = f_min_pure(rho, PureState(np.array([0.0, 1.0])))
    assert abs(f_min(rho, sigma) - closed) <= 1e-10
    assert abs(f_f_min(rho, sigma, OperatorMonotoneSpec.sqrt()) - closed) <= 1e-10
    assert verify_reverse_test(minimal_reverse_test(rho, sigma), rho, sigma).passes


# --------------------------------------------------- decompositions per call


@pytest.fixture
def decompositions(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0, "inv": 0, "solve": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _decompositions(counts):
    return counts["eigh"] + counts["eigvalsh"] + counts["svd"]


def _trajectory(rho, sigma, n):
    # the segment from rho to sigma: n states and their velocities
    t = np.linspace(0.0, 1.0, n)[:, None, None]
    return (1.0 - t) * rho.mat + t * sigma.mat, np.broadcast_to(sigma.mat - rho.mat, (n,) + rho.mat.shape)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda rho, sigma: f_min(rho, sigma), 1),
        (lambda rho, sigma: minimal_reverse_test(rho, sigma), 1),
        (lambda rho, sigma: t_operator(rho, sigma), 1),
        (lambda rho, sigma: f_f_min(rho, sigma, OperatorMonotoneSpec.power(0.25)), 1),
        (lambda rho, sigma: delta_max_bounds(rho, sigma), 1),
        (lambda rho, sigma: uhlmann_fidelity(rho, sigma), 1),
        (lambda rho, sigma: reverse_relative_entropy(rho, sigma), 1),
        (lambda rho, sigma: f_min_via_geomean(rho, sigma), 1),
        (lambda rho, sigma: make_density(rho.mat), 1),
        (lambda rho, sigma: make_density_stack(*_trajectory(rho, sigma, 501)), 1),
        (lambda rho, sigma: apply_channel(random_channel(3, 3, 2, 5), rho), 1),
        (lambda rho, sigma: tensor(rho, sigma), 0),  # the Kronecker product of the stored spectra
        (lambda rho, sigma: hidden_pair(rho, sigma), 1),  # T's SVD; sigma's spectrum on a new frame
        (lambda rho, sigma: embed_classical(ProbDist(np.diag(rho.mat).real)), 0),  # p on a permuted basis
    ],
    ids=[
        "f_min",
        "minimal_reverse_test",
        "t_operator",
        "f_f_min",
        "delta_max_bounds",
        "uhlmann_fidelity",
        "reverse_relative_entropy",
        "f_min_via_geomean",
        "make_density",
        "make_density_stack",
        "apply_channel",
        "tensor",
        "hidden_pair",
        "embed_classical",
    ],
)
def test_one_decomposition_per_call_on_validated_pair(call, expected, decompositions):
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    decompositions.update(eigh=0, eigvalsh=0)  # the states' own validation is done
    call(rho, sigma)
    assert _decompositions(decompositions) == expected
    assert decompositions["inv"] == 0


def test_geometric_mean_routes_invert_nothing(decompositions):
    # A # B in A's eigenframe: an eigh of A, then one of Z = diag(w^-1/2) V†BV diag(w^-1/2);
    # f_min_via_geomean reads the base's stored spectrum for the first, and the Uhlmann
    # fidelity is the one SVD of diag(w^1/2) V†U diag(s^1/2)
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    decompositions.update(eigh=0, eigvalsh=0)
    geometric_mean(rho.mat, sigma.mat)
    assert decompositions == {"eigh": 2, "eigvalsh": 0, "svd": 0, "inv": 0, "solve": 0}
    decompositions.update(eigh=0)
    f_min_via_geomean(rho, sigma)
    assert decompositions == {"eigh": 1, "eigvalsh": 0, "svd": 0, "inv": 0, "solve": 0}
    decompositions.update(eigh=0)
    uhlmann_fidelity(rho, sigma)
    assert decompositions == {"eigh": 0, "eigvalsh": 0, "svd": 1, "inv": 0, "solve": 0}


def test_reverse_relative_entropy_inverts_nothing(decompositions):
    # D^R is the KL divergence of the minimal test: T's one SVD, no inverse of sigma
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    decompositions.update(eigh=0, eigvalsh=0)
    reverse_relative_entropy(rho, sigma)
    assert decompositions == {"eigh": 0, "eigvalsh": 0, "svd": 1, "inv": 0, "solve": 0}


@pytest.mark.parametrize(
    "fn, eighs",
    [(sld_fisher, 0), (rld_fisher, 0), (fisher_both, 0), (tangent_reverse_estimation, 1)],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_tangent_layer_reads_the_stored_spectrum(fn, eighs, decompositions):
    # the velocity in rho's stored eigenbasis serves every tangent quantity;
    # only rho^-1/2 drho rho^-1/2 is decomposed, and nothing is inverted
    rho = random_density(3, 3, 1)
    vel = HermitianMatrix(random_density(3, 3, 2).mat - rho.mat)
    tp = TangentPoint(rho, vel)
    decompositions.update(eigh=0, eigvalsh=0)
    fn(tp)
    assert decompositions == {"eigh": eighs, "eigvalsh": 0, "svd": 0, "inv": 0, "solve": 0}


def test_general_reverse_test_decomposes_ta_once(decompositions):
    # T's SVD, A's SVD (the contraction check ||A||_2 <= 1 and the letters of
    # I - A†A), TA's eigh (the PSD and support checks), and one d x d SVD of
    # T on TA's support; nothing 2d x 2d
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    a = sample_contraction(t_operator(rho, sigma), 5)
    decompositions.update(eigh=0, eigvalsh=0, svd=0)
    general_reverse_test(rho, sigma, a)
    assert decompositions == {"eigh": 1, "eigvalsh": 0, "svd": 3, "inv": 0, "solve": 0}


def test_hidden_pair_reads_t_from_one_svd(decompositions):
    # T rho T is sigma's spectrum on the frame V L R† of T's SVD, rebuilt
    # from that spectrum with no further decomposition
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    decompositions.update(eigh=0, eigvalsh=0)
    hidden_pair(rho, sigma)
    assert decompositions == {"eigh": 0, "eigvalsh": 0, "svd": 1, "inv": 0, "solve": 0}


def test_sample_contraction_inverts_t_from_its_eigh(decompositions):
    # one eigh of T checks T > 0 and gives T^-1
    t = t_operator(random_density(3, 3, 1), random_density(3, 3, 2))
    decompositions.update(eigh=0, eigvalsh=0, svd=0)
    sample_contraction(t, 5)
    assert (decompositions["eigh"], decompositions["eigvalsh"], decompositions["inv"]) == (1, 0, 0)


def test_expansion_check_decomposes_each_shift_once(decompositions):
    # make_density's eigh is the PSD check of rho + eps drho, and f_min takes T's SVD
    rho, vel = random_tangent(3, 1)
    tp = TangentPoint(rho, vel)
    decompositions.update(eigh=0, eigvalsh=0)
    expansion_check(tp)
    assert decompositions == {"eigh": 4, "eigvalsh": 0, "svd": 4, "inv": 0, "solve": 0}


def test_pure_target_and_quasi_entropy_read_the_stored_spectra(decompositions):
    # overlaps of the stored eigenframes, no matrix function; the quasi-entropy's
    # one SVD is its F_alpha_min
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    phi = random_pure(3, 3)
    decompositions.update(eigh=0, eigvalsh=0)
    f_min_pure(rho, phi)
    assert decompositions == {"eigh": 0, "eigvalsh": 0, "svd": 0, "inv": 0, "solve": 0}
    quasi_entropy_comparison(rho, sigma, 0.5)
    assert decompositions == {"eigh": 0, "eigvalsh": 0, "svd": 1, "inv": 0, "solve": 0}


def test_geodesic_start_reads_its_velocity_off_the_minimal_test(decompositions):
    # the great circle's velocity at 0 and rho's stored spectrum give L0: the minimal
    # test's one SVD, and no sampled curve whose states would be decomposed again
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    decompositions.update(eigh=0, eigvalsh=0)
    geodesic_start(rho, sigma)
    assert decompositions == {"eigh": 0, "eigvalsh": 0, "svd": 1, "inv": 0, "solve": 0}


def test_fr_estimate_takes_f_min_from_its_geodesic(decompositions):
    # F_min is the fidelity of the reverse test the start path is built from, so
    # fr_estimate makes the geodesic's eigh and svd calls and no SVD of
    # rho^-1/2 sigma^1/2 of its own (the search's eigvalsh calls check segments)
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    decompositions.update(eigh=0, eigvalsh=0)
    fmin_geodesic(rho, sigma, n_samples=5)
    geodesic = decompositions["eigh"] + decompositions["svd"]
    decompositions.update(eigh=0, eigvalsh=0, svd=0)
    fr = fr_estimate(rho, sigma, control_points=3, iterations=2)
    assert decompositions["eigh"] + decompositions["svd"] == geodesic == 2
    assert f_min(rho, sigma) - 1e-9 <= fr <= uhlmann_fidelity(rho, sigma) + 1e-9


# ----------------------------------------------------------- pair checks per call


@pytest.fixture
def pair_checks(monkeypatch):
    # every module's name for states.require_pair, counted
    calls = []
    original = revfid.states.require_pair

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (revfid.divergences, revfid.geometry, revfid.reverse_tests, revfid.states):
        monkeypatch.setattr(module, "require_pair", counted, raising=False)
    return calls


@pytest.mark.parametrize(
    "call",
    [
        lambda rho, sigma: reverse_relative_entropy(rho, sigma),
        lambda rho, sigma: fr_estimate(rho, sigma, control_points=3, iterations=2),
    ],
    ids=["reverse_relative_entropy", "fr_estimate"],
)
def test_one_pair_check_per_call(call, pair_checks):
    # the minimal test's _base checks the pair; the full-rank demands beyond the base's follow it
    call(random_density(3, 3, 1), random_density(3, 3, 2))
    assert len(pair_checks) == 1
