"""The symmetric F_min quantities take the better-conditioned state as base.

F_min(rho, sigma) = tr(rho # sigma) = tr(sigma # rho), and the error of a
base B grows like 1/lambda_min(B).  These tests check f_min, f_f_min,
delta_max_bounds, minimal_reverse_test and f_min_via_geomean against a
60-digit mpmath reference on ill-conditioned rho, D^R against one on
ill-conditioned sigma, and check the exact symmetry the one base decision
gives.  The minimal test's weights and preparation columns, read off the
SVD factor, are pinned against the dense formulas <e_x|B|e_x> and
sqrt(B) e_x / ||sqrt(B) e_x||.  The kernel under them, t_spectrum, takes
two spectra of any trace: scaled by 2 and 8, they give exactly twice t.
"""

import math

import mpmath
import numpy as np
import pytest

from revfid.divergences import (
    OperatorMonotoneSpec,
    _minimal_test,
    delta_max_bounds,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    generalized_fidelity_classical,
    kl_divergence,
    reverse_relative_entropy,
    t_spectrum,
    uhlmann_fidelity,
)
from revfid.errors import DomainError
from revfid.linalg import SpectralDecomposition, geometric_mean
from revfid.reverse_tests import COLUMN_NORM_TOL, ReverseTest, minimal_reverse_test, verify_reverse_test
from revfid.states import ProbDist, PureState, make_density, random_density

QUARTER, HALF, THREE_QUARTERS = (OperatorMonotoneSpec.power(a) for a in (0.25, 0.5, 0.75))


def reference(rho, sigma, alphas):
    """tr(rho (rho^-1/2 sigma rho^-1/2)^alpha) for each alpha, in 60 digits."""
    with mpmath.workdps(60):
        r, s = mpmath.matrix(rho.mat.tolist()), mpmath.matrix(sigma.mat.tolist())
        w, v = mpmath.eigh(r)
        ir = v * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * v.H
        inner = ir * s * ir
        wi, vi = mpmath.eigh((inner + inner.H) / 2)
        b = [mpmath.re((vi[:, k].H * r * vi[:, k])[0]) for k in range(rho.dim)]
        return [float(sum(max(x, 0) ** a * bk for x, bk in zip(wi, b))) for a in alphas]


def ill_conditioned(eps, s):
    rho = make_density((1 - eps) * random_density(4, 2, s).mat + eps * np.eye(4) / 4)
    return rho, random_density(4, 4, s + 50)


def test_f_f_min_on_a_benchmark_pair_with_lambda_min_above_1e_4():
    # lambda_min(rho) = 1.2e-4; the rho base missed the reference by 1.45e-10
    eps = 0.00024564687465212923
    rho = make_density((1 - eps) * random_density(2, 1, 434843494).mat + eps * np.eye(2) / 2)
    sigma = random_density(2, 2, 434843495)
    (ref,) = reference(rho, sigma, (0.25,))
    assert abs(f_f_min(rho, sigma, QUARTER) - ref) <= 1e-10


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-9])
def test_ill_conditioned_rho_matches_mpmath(eps):
    for s in range(10):
        rho, sigma = ill_conditioned(eps, s)
        r25, r50, r75 = reference(rho, sigma, (0.25, 0.5, 0.75))
        assert abs(f_min(rho, sigma) - r50) <= 1e-9
        assert abs(f_min(sigma, rho) - r50) <= 1e-9
        assert abs(minimal_reverse_test(rho, sigma).fidelity() - r50) <= 1e-9
        assert abs(f_f_min(rho, sigma, QUARTER) - r25) <= 1e-9
        assert abs(f_f_min(rho, sigma, HALF) - r50) <= 1e-9
        # on the base sigma alpha = 3/4 is x^(1/4), the most sensitive to T's tiny eigenvalues
        assert abs(f_f_min(rho, sigma, THREE_QUARTERS) - r75) <= 1e-9
        assert f_min(rho, sigma) == f_min(sigma, rho)
        assert delta_max_bounds(rho, sigma) == delta_max_bounds(sigma, rho)


def test_f_min_and_bounds_are_exactly_symmetric():
    for k in range(600):
        d = 2 + k % 4
        rank = d if k % 3 else d - 1
        eps = (1e-3, 1e-7, 0.0)[k % 3]
        rho = make_density((1 - eps) * random_density(d, d, k).mat + eps * np.eye(d) / d)
        sigma = make_density(0.99 * random_density(d, rank, k + 7000).mat + 0.01 * np.eye(d) / d)
        assert f_min(rho, sigma) == f_min(sigma, rho)
        assert delta_max_bounds(rho, sigma) == delta_max_bounds(sigma, rho)


def test_minimal_reverse_test_on_the_base_sigma():
    rho, sigma = ill_conditioned(1e-8, 3)
    rt = minimal_reverse_test(rho, sigma)
    assert verify_reverse_test(rt, rho, sigma).passes
    # columns ascend in sqrt(q/p), the order of the rho base
    assert np.all(np.diff(rt.q.weights / rt.p.weights) >= 0)
    # the same test as from the swapped arguments, with p and q exchanged
    back = minimal_reverse_test(sigma, rho)
    assert np.array_equal(rt.prep, back.prep[:, ::-1])
    assert np.abs(rt.p.weights - back.q.weights[::-1]).max() <= 1e-15
    assert np.abs(rt.q.weights - back.p.weights[::-1]).max() <= 1e-15


def test_pure_rho_against_a_full_rank_sigma():
    psi = PureState(np.array([0.6, 0.8j, 0.0]))
    sigma = random_density(3, 3, 21)
    closed = f_min_pure(sigma, psi)
    rho = psi.projector()
    # rho's support cut makes T's two zero eigenvalues exact zeros
    assert abs(f_min(rho, sigma) - closed) <= 1e-12
    rt = minimal_reverse_test(rho, sigma)
    assert verify_reverse_test(rt, rho, sigma).passes
    assert abs(rt.fidelity() - closed) <= 1e-12
    assert abs(f_f_min(rho, sigma, HALF) - closed) <= 1e-12
    # the independent route takes the square root of the inner operator, which
    # turns round-off at its zero eigenvalues into ~1e-8
    assert abs(f_min_via_geomean(rho, sigma) - closed) <= 1e-7


def ill_conditioned_family():
    """600 pairs at d = 2, 3, 4: rho = (1 - eps) (rank ceil(d/2)) + eps I/d with eps
    log-spaced from 1e-9 to 1, against a full-rank sigma."""
    for dim in (2, 3, 4):
        for s in range(200):
            eps = 10.0 ** (-9 + 9 * (s % 50) / 50)
            r = random_density(dim, math.ceil(dim / 2), s).mat
            yield make_density((1 - eps) * r + eps * np.eye(dim) / dim), random_density(dim, dim, s + 7)


def random_pairs():
    for dim in range(2, 6):
        for s in range(100):
            yield random_density(dim, dim, s), random_density(dim, dim, s + 500)


def both_orders(pairs):
    for rho, sigma in pairs:
        yield rho, sigma
        yield sigma, rho


@pytest.mark.parametrize("pairs", [random_pairs, ill_conditioned_family])
def test_minimal_test_reads_the_base_weights_off_the_svd_factor(pairs):
    # b_x = <e_x|B|e_x> for e_x = V L_x by the dense product with B: measured at
    # most 1.2e-15 apart on both families, in both argument orders
    for rho, sigma in both_orders(pairs()):
        p, q, left, base, swapped = _minimal_test(rho, sigma)
        frame = base.spectrum.frame @ left
        dense = np.sum(frame.conj() * (base.mat @ frame), axis=0).real
        assert np.abs((q if swapped else p) - dense).max() <= 4e-15


@pytest.mark.parametrize("pairs", [random_pairs, ill_conditioned_family])
def test_minimal_reverse_test_columns_are_the_normalized_root_of_the_base(pairs):
    # prep is the dense sqrt(B) e_x / ||sqrt(B) e_x|| in ascending sqrt(q/p): measured
    # at most 1.2e-14 apart, and the norms within 9e-16 of 1
    for rho, sigma in both_orders(pairs()):
        _, _, left, base, swapped = _minimal_test(rho, sigma)
        cols = base.sqrt() @ base.spectrum.frame @ left
        cols = cols / np.linalg.norm(cols, axis=0)
        prep = minimal_reverse_test(rho, sigma).prep
        assert np.abs(prep - (cols if swapped else cols[:, ::-1])).max() <= 5e-14
        assert np.abs(np.linalg.norm(prep, axis=0) - 1.0).max() <= 4e-15


@pytest.mark.parametrize("pairs", [random_pairs, ill_conditioned_family])
def test_t_spectrum_takes_spectra_of_any_trace(pairs):
    # the kernel reads spectra, not states: on a base of trace 2 and another operator of trace 8,
    # T = sqrt(B^-1/2 O B^-1/2) doubles exactly, and its SVD factors are the unit-trace ones bit for bit
    for rho, sigma in both_orders(pairs()):
        t, left, right, s = t_spectrum(rho.spectrum, sigma.spectrum)
        base = SpectralDecomposition(2 * rho.spectrum.eigenvalues, rho.spectrum.frame)
        other = SpectralDecomposition(8 * sigma.spectrum.eigenvalues, sigma.spectrum.frame)
        t2, left2, right2, s2 = t_spectrum(base, other)
        assert np.array_equal(t2, 2 * t) and np.array_equal(s2, 8 * s)
        assert np.array_equal(left2, left) and np.array_equal(right2, right)


def rank_deficient_sigma():
    for dim in range(2, 6):
        for s in range(50):
            yield random_density(dim, dim, s), random_density(dim, 1 + s % (dim - 1), s + 900)


@pytest.mark.parametrize("pairs", [random_pairs, ill_conditioned_family, rank_deficient_sigma])
def test_library_built_minimal_test_holds_what_reverse_test_checks(pairs):
    # minimal_reverse_test skips ReverseTest's and ProbDist's checks; the kernel
    # guarantees what they guard, and a user-built re-wrap of it passes them
    for rho, sigma in both_orders(pairs()):
        rt = minimal_reverse_test(rho, sigma)
        assert np.abs(np.linalg.norm(rt.prep, axis=0) - 1.0).max() <= COLUMN_NORM_TOL
        for w in (rt.p.weights, rt.q.weights):
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-14
        assert not any(x.flags.writeable for x in (rt.prep, rt.p.weights, rt.q.weights))
        again = ReverseTest(rt.prep, ProbDist(rt.p.weights), ProbDist(rt.q.weights))
        assert np.array_equal(again.prep, rt.prep)
        # ProbDist divides by the sum again, which moves a weight by at most 2 ulp (measured)
        np.testing.assert_array_max_ulp(again.p.weights, rt.p.weights, maxulp=2)
        np.testing.assert_array_max_ulp(again.q.weights, rt.q.weights, maxulp=2)


def test_f_min_via_geomean_is_the_trace_of_the_geometric_mean():
    # the trace read off Z's eigensystem against the dense tr(rho # sigma): measured 7.0e-15
    for rho, sigma in random_pairs():
        dense = np.trace(geometric_mean(rho.mat, sigma.mat).entries).real
        assert abs(f_min_via_geomean(rho, sigma) - dense) <= 1e-12


def test_route_gap_on_the_ill_conditioned_family():
    # the geometric mean through an LU inverse of sqrt(B) missed f_min by up to
    # 6.7e-9 relative here (14 pairs above 1e-10); in B's eigenframe no root is inverted
    for rho, sigma in ill_conditioned_family():
        fm = f_min(rho, sigma)
        assert abs(f_min_via_geomean(rho, sigma) - fm) <= 1e-10 * fm


def uhlmann_reference(rho, sigma):
    """tr sqrt(sqrt(sigma) rho sqrt(sigma)) in 60 digits."""
    with mpmath.workdps(60):
        r, s = mpmath.matrix(rho.mat.tolist()), mpmath.matrix(sigma.mat.tolist())
        w, v = mpmath.eigh(s)
        root = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.H
        inner = root * r * root
        return float(sum(mpmath.sqrt(max(x, 0)) for x in mpmath.eigh((inner + inner.H) / 2, eigvals_only=True)))


def test_uhlmann_fidelity_on_the_ill_conditioned_family_matches_mpmath():
    # the eigenvalues of sqrt(rho) sigma sqrt(rho) missed by up to 7.3e-12; the singular
    # values of the stored-factor product diag(w^1/2) V†U diag(s^1/2) do not
    for rho, sigma in list(ill_conditioned_family())[::10]:
        assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_reference(rho, sigma)) <= 1e-12


def test_rank_two_rho_at_d_4_has_exact_zero_mass_points():
    # rho = V diag(.7, .3, 0, 0) V† against a sigma it does not commute with: T has a
    # two-dimensional kernel, whose singular values must read 0, or each adds
    # p^(1/4) q^(3/4) ~ 1e-8 at alpha = 3/4 for p ~ 1e-32
    for s in range(20):
        g = np.random.default_rng(s).standard_normal((4, 4, 2)) @ [1.0, 1j]
        frame = np.linalg.qr(g)[0]
        rho = make_density((frame[:, :2] * [0.7, 0.3]) @ frame[:, :2].conj().T)
        sigma = random_density(4, 4, s + 50)
        with mpmath.workdps(60):
            v, sm = mpmath.matrix(frame[:, :2].tolist()), mpmath.matrix(sigma.mat.tolist())
            r = v * mpmath.diag([mpmath.mpf(0.7), mpmath.mpf(0.3)]) * v.H
            w, u = mpmath.eigh(sm)
            inner = u * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * u.H
            inner = inner * r * inner
            wi, vi = mpmath.eigh((inner + inner.H) / 2)
            # on the base sigma, F_f at alpha = 3/4 is sum_x <e_x|sigma|e_x> t_x^(1/2)
            b = [mpmath.re((vi[:, k].H * sm * vi[:, k])[0]) for k in range(4)]
            ref = float(sum(bk * max(x, 0) ** 0.25 for x, bk in zip(wi, b)))
        rt = minimal_reverse_test(rho, sigma)
        assert np.count_nonzero(rt.p.weights == 0.0) == 2
        assert abs(f_f_min(rho, sigma, THREE_QUARTERS) - ref) <= 1e-12


def test_zero_mass_points_of_rho_follow_the_classical_convention():
    # T's least eigenvalue is exactly 0 on the base sigma: rho has no mass there
    rho = make_density(np.diag([0.6, 0.4, 0.0]))
    sigma = make_density(np.diag([0.2, 0.3, 0.5]))
    rt = minimal_reverse_test(rho, sigma)
    for alpha in (0.25, 0.5, 1.0):
        f = OperatorMonotoneSpec.power(alpha)
        # where rho has no mass, sigma's 0.5 counts with lim f(t)/t: 1 at alpha = 1, else 0
        expected = 0.6 ** (1 - alpha) * 0.2**alpha + 0.4 ** (1 - alpha) * 0.3**alpha
        expected += 0.5 if alpha == 1.0 else 0.0
        assert abs(f_f_min(rho, sigma, f) - expected) <= 1e-15
        assert abs(generalized_fidelity_classical(rt.p, rt.q, f) - expected) <= 1e-15
    custom = OperatorMonotoneSpec.custom(np.sqrt)
    with pytest.raises(DomainError, match="zero-mass point"):
        f_f_min(rho, sigma, custom)
    with pytest.raises(DomainError, match="zero-mass point"):
        generalized_fidelity_classical(rt.p, rt.q, custom)


def test_zero_mass_value_is_the_limit_of_full_rank_rho():
    # rho_eps = diag(.6, .4 - eps, eps) -> diag(.6, .4, 0): the eps point adds eps^(1 - alpha) .5^alpha
    sigma = make_density(np.diag([0.2, 0.3, 0.5]))
    for alpha in (0.25, 0.5, 1.0):
        f = OperatorMonotoneSpec.power(alpha)
        limit = f_f_min(make_density(np.diag([0.6, 0.4, 0.0])), sigma, f)
        epsilons = (1e-4, 1e-7, 1e-10)
        gaps = [abs(f_f_min(make_density(np.diag([0.6, 0.4 - e, e])), sigma, f) - limit) for e in epsilons]
        for eps, gap in zip(epsilons, gaps):
            assert gap <= 2.0 * eps ** (1.0 - alpha) + 1e-15
        if alpha == 1.0:  # tr sigma for every rho
            assert abs(limit - 1.0) <= 1e-15 and max(gaps) <= 1e-15
        else:
            assert gaps[0] > gaps[1] > gaps[2]


def test_f_f_min_is_the_classical_value_of_the_minimal_test_on_either_base():
    for s in range(6):
        rho, sigma = ill_conditioned(1e-4, s)
        for a, b in ((rho, sigma), (sigma, rho)):
            rt = minimal_reverse_test(a, b)
            for f in (QUARTER, THREE_QUARTERS, OperatorMonotoneSpec.custom(lambda x: x / (1.0 + x))):
                assert abs(f_f_min(a, b, f) - generalized_fidelity_classical(rt.p, rt.q, f)) <= 1e-12


def reverse_entropy_reference(rho, sigma):
    """tr rho ln(rho^1/2 sigma^-1 rho^1/2) in 60 digits."""
    with mpmath.workdps(60):
        r, s = mpmath.matrix(rho.mat.tolist()), mpmath.matrix(sigma.mat.tolist())
        w, v = mpmath.eigh(r)
        root = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.H
        core = root * mpmath.inverse(s) * root
        wc, vc = mpmath.eigh((core + core.H) / 2)
        terms = [mpmath.re((vc[:, k].H * r * vc[:, k])[0]) * mpmath.log(x) for k, x in enumerate(wc) if x > 0]
        return float(sum(terms))


# each bound is one a route through an LU inverse of sigma misses: it errs by
# 2.7e-10, 3.3e-8 and 2.5e-7 on these pairs
@pytest.mark.parametrize("eps, tol", [(1e-6, 1.5e-10), (1e-8, 1.5e-8), (1e-9, 1.2e-7)])
def test_reverse_relative_entropy_on_ill_conditioned_sigma_matches_mpmath(eps, tol):
    for s in range(10):
        sigma, rho = ill_conditioned(eps, s)
        assert abs(reverse_relative_entropy(rho, sigma) - reverse_entropy_reference(rho, sigma)) <= tol


def test_reverse_relative_entropy_is_the_kl_divergence_of_the_minimal_test():
    for s in range(6):
        rho, sigma = ill_conditioned(1e-4, s)
        for a, b in ((rho, sigma), (sigma, rho)):  # the base sigma, then the base rho
            rt = minimal_reverse_test(a, b)
            assert abs(reverse_relative_entropy(a, b) - kl_divergence(rt.p, rt.q)) <= 1e-12


MAXIMAL_F = {
    "(x-1)^2": lambda x: (x - 1.0) ** 2,
    "x ln x": lambda x: x * np.log(x),
    "-ln x": lambda x: -np.log(x),
    "x^2": lambda x: x**2,
}


@pytest.mark.parametrize("name", sorted(MAXIMAL_F))
def test_maximal_f_divergence_is_the_classical_value_of_the_minimal_test(name):
    # for operator convex f, tr sigma f(sigma^-1/2 rho sigma^-1/2) is the maximal
    # f-divergence, and the minimal reverse test attains it: sum_x q f(p/q)
    f = MAXIMAL_F[name]
    for dim in range(2, 6):
        for s in range(100):
            rho, sigma = random_density(dim, dim, 1000 * dim + s), random_density(dim, dim, 1000 * dim + s + 500)
            w, u = sigma.spectrum.eigenvalues, sigma.spectrum.frame
            x = np.linalg.eigh((u.conj().T @ rho.mat @ u) / np.sqrt(np.outer(w, w)))
            quantum = float(np.sum(np.abs(x.eigenvectors) ** 2 * w[:, None] * f(x.eigenvalues)))
            rt = minimal_reverse_test(rho, sigma)
            p, q = rt.p.weights, rt.q.weights
            assert abs(quantum - float(q @ f(p / q))) <= 1e-10 * abs(quantum)
