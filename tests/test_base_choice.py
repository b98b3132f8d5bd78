"""The symmetric F_min quantities take the better-conditioned state as base.

F_min(rho, sigma) = tr(rho # sigma) = tr(sigma # rho), and the error of a
base B grows like 1/lambda_min(B).  These tests check f_min, f_f_min,
delta_max_bounds, minimal_reverse_test and f_min_via_geomean against a
60-digit mpmath reference on ill-conditioned rho, and check the exact
symmetry the one base decision gives.
"""

import mpmath
import numpy as np
import pytest

from revfid.divergences import (
    OperatorMonotoneSpec,
    delta_max_bounds,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    generalized_fidelity_classical,
)
from revfid.errors import DomainError
from revfid.reverse_tests import minimal_reverse_test, verify_reverse_test
from revfid.states import PureState, make_density, random_density

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
        if eps == 1e-6:
            # on the base sigma alpha = 3/4 is x^(1/4), which amplifies the error
            # of T's tiny eigenvalues: 3.9e-8 at eps = 1e-9 (ROADMAP D)
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
    # the square root at T's two zero eigenvalues turns round-off into ~1e-8
    # (restricting to the support is still open, ROADMAP D)
    assert abs(f_min(rho, sigma) - closed) <= 1e-7
    assert abs(f_min_via_geomean(rho, sigma) - closed) <= 1e-7
    rt = minimal_reverse_test(rho, sigma)
    assert verify_reverse_test(rt, rho, sigma).passes
    assert abs(rt.fidelity() - closed) <= 1e-7
    assert abs(f_f_min(rho, sigma, HALF) - closed) <= 1e-7


def test_zero_mass_points_of_rho_follow_the_classical_convention():
    # T's least eigenvalue is exactly 0 on the base sigma: rho has no mass there
    rho = make_density(np.diag([0.6, 0.4, 0.0]))
    sigma = make_density(np.diag([0.2, 0.3, 0.5]))
    rt = minimal_reverse_test(rho, sigma)
    for alpha in (0.25, 0.5, 1.0):
        f = OperatorMonotoneSpec.power(alpha)
        expected = 0.6 ** (1 - alpha) * 0.2**alpha + 0.4 ** (1 - alpha) * 0.3**alpha
        assert abs(f_f_min(rho, sigma, f) - expected) <= 1e-15
        assert abs(generalized_fidelity_classical(rt.p, rt.q, f) - expected) <= 1e-15
    custom = OperatorMonotoneSpec.custom(np.sqrt)
    with pytest.raises(DomainError, match="zero-mass point"):
        f_f_min(rho, sigma, custom)
    with pytest.raises(DomainError, match="zero-mass point"):
        generalized_fidelity_classical(rt.p, rt.q, custom)


def test_f_f_min_is_the_classical_value_of_the_minimal_test_on_either_base():
    for s in range(6):
        rho, sigma = ill_conditioned(1e-4, s)
        for a, b in ((rho, sigma), (sigma, rho)):
            rt = minimal_reverse_test(a, b)
            for f in (QUARTER, THREE_QUARTERS, OperatorMonotoneSpec.custom(lambda x: x / (1.0 + x))):
                assert abs(f_f_min(a, b, f) - generalized_fidelity_classical(rt.p, rt.q, f)) <= 1e-12
