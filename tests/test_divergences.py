import math

import numpy as np
import pytest

from revfid.divergences import (
    OperatorMonotoneSpec,
    classical_fidelity,
    delta_max_bounds,
    delta_max_pure,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    generalized_fidelity_classical,
    kl_divergence,
    quasi_entropy_comparison,
    reverse_relative_entropy,
    t_operator,
    trace_distance_classical,
    trace_distance_quantum,
    uhlmann_fidelity,
)
from revfid.errors import DomainError, SingularStateError, ValidationError
from revfid.states import ProbDist, PureState, make_density, random_density, random_pure


@pytest.fixture
def commuting_pair():
    return make_density(np.diag([0.5, 0.5])), make_density(np.diag([0.8, 0.2]))


def test_classical_fidelity_swap():
    p = ProbDist(np.array([0.36, 0.64]))
    q = ProbDist(np.array([0.64, 0.36]))
    assert classical_fidelity(p, q) == pytest.approx(0.96, abs=1e-12)


def test_uhlmann_pure_overlap():
    zero = PureState(np.array([1.0, 0.0]))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    f = uhlmann_fidelity(zero.projector(), plus.projector())
    assert f == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_uhlmann_commuting_is_classical(commuting_pair):
    rho, sigma = commuting_pair
    assert uhlmann_fidelity(rho, sigma) == pytest.approx(
        math.sqrt(0.4) + math.sqrt(0.1), abs=1e-12
    )


def test_t_operator_reconstructs_sigma():
    rho = random_density(3, 3, 1)
    sigma = random_density(3, 3, 2)
    t = t_operator(rho, sigma).entries
    from revfid.linalg import matrix_sqrt

    w = matrix_sqrt(rho.matrix).entries @ t
    assert np.allclose(w @ w.conj().T, sigma.mat, atol=1e-10)


def test_fmin_identical_is_one():
    rho = random_density(3, 3, 4)
    assert f_min(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fmin_commuting(commuting_pair):
    rho, sigma = commuting_pair
    expect = math.sqrt(0.4) + math.sqrt(0.1)
    assert f_min(rho, sigma) == pytest.approx(expect, abs=1e-12)
    assert f_min_via_geomean(rho, sigma) == pytest.approx(expect, abs=1e-12)


def test_fmin_maximally_mixed_vs_pure():
    # against I/2 the value only depends on the target being pure: 1/sqrt(2)
    for theta in (0.3, math.pi / 2):
        psi = PureState(np.array([math.cos(theta / 2), math.sin(theta / 2)]))
        rho = make_density(np.eye(2) / 2)
        # the spectral route squares roundoff in the rank-one square root,
        # so it is a few digits short of the closed form
        assert f_min(rho, psi.projector()) == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        assert f_min_pure(rho, psi) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_fmin_routes_agree():
    rho = random_density(2, 2, 3)
    sigma = random_density(2, 2, 30)
    assert abs(f_min(rho, sigma) - f_min_via_geomean(rho, sigma)) < 1e-9


def test_fmin_requires_full_rank():
    # a full-rank sigma is the base for a singular rho, in either argument order
    singular = random_density(3, 2, 5)
    full = random_density(3, 3, 6)
    assert f_min(singular, full) == f_min(full, singular)
    # the square root at T's zero eigenvalue turns round-off into ~1e-8 on both routes
    assert abs(f_min(singular, full) - f_min_via_geomean(singular, full)) < 1e-7
    with pytest.raises(SingularStateError):
        f_min(singular, random_density(3, 2, 7))


def test_fmin_pure_off_support_is_zero():
    rho = make_density(np.diag([1.0, 0.0]))
    phi = PureState(np.array([0.0, 1.0]))
    assert f_min_pure(rho, phi) == 0.0


def test_fmin_below_uhlmann():
    for seed in range(10):
        rho = random_density(3, 3, seed)
        sigma = random_density(3, 3, seed + 50)
        assert f_min(rho, sigma) <= uhlmann_fidelity(rho, sigma) + 1e-10


def test_operator_monotone_spec_validation():
    with pytest.raises(ValidationError):
        OperatorMonotoneSpec.power(1.5)
    with pytest.raises(ValidationError):
        OperatorMonotoneSpec(kind="custom")
    assert OperatorMonotoneSpec.sqrt()(4.0) == pytest.approx(2.0)


def test_generalized_classical_power_half_is_fidelity():
    p = ProbDist(np.array([0.36, 0.64]))
    q = ProbDist(np.array([0.64, 0.36]))
    val = generalized_fidelity_classical(p, q, OperatorMonotoneSpec.sqrt())
    assert val == pytest.approx(0.96, abs=1e-12)


def test_generalized_classical_zero_mass_power():
    p = ProbDist(np.array([0.0, 1.0]))
    q = ProbDist(np.array([0.5, 0.5]))
    val = generalized_fidelity_classical(p, q, OperatorMonotoneSpec.sqrt())
    assert val == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_generalized_classical_zero_mass_custom_rejected():
    p = ProbDist(np.array([0.0, 1.0]))
    q = ProbDist(np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        generalized_fidelity_classical(p, q, OperatorMonotoneSpec.custom(lambda t: (t + 1) / 2))


def test_ffmin_power_one_is_trace(commuting_pair):
    rho, sigma = commuting_pair
    assert f_f_min(rho, sigma, OperatorMonotoneSpec.power(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_ffmin_sqrt_is_fmin(commuting_pair):
    rho, sigma = commuting_pair
    assert f_f_min(rho, sigma, OperatorMonotoneSpec.sqrt()) == pytest.approx(
        f_min(rho, sigma), abs=1e-10
    )


def test_ffmin_commuting_power_03(commuting_pair):
    # sum_x p(x)^0.7 q(x)^0.3 evaluated by scalar arithmetic
    rho, sigma = commuting_pair
    expect = 0.5**0.7 * (0.8**0.3 + 0.2**0.3)
    assert expect == pytest.approx(0.955541847279, abs=1e-12)
    assert f_f_min(rho, sigma, OperatorMonotoneSpec.power(0.3)) == pytest.approx(
        expect, abs=1e-10
    )


def test_quasi_entropy_commuting_equality(commuting_pair):
    rho, sigma = commuting_pair
    s_alpha, one_minus = quasi_entropy_comparison(rho, sigma, 0.3)
    assert abs(s_alpha - one_minus) < 1e-10


def test_quasi_entropy_noncommuting_strict_order():
    rho = random_density(2, 2, 11)
    sigma = random_density(2, 2, 12)
    s_alpha, one_minus = quasi_entropy_comparison(rho, sigma, 0.5)
    assert one_minus - s_alpha > 1e-6  # strict for non-commuting pairs


def test_quasi_entropy_order_many_seeds():
    for seed in range(20):
        rho = random_density(3, 3, seed)
        sigma = random_density(3, 3, seed + 200)
        for alpha in (0.25, 0.5, 0.75):
            s_alpha, one_minus = quasi_entropy_comparison(rho, sigma, alpha)
            assert s_alpha <= one_minus + 1e-9


def test_kl_oracle():
    p = ProbDist(np.array([0.5, 0.5]))
    q = ProbDist(np.array([0.8, 0.2]))
    assert kl_divergence(p, q) == pytest.approx(
        0.5 * math.log(0.5 / 0.8) + 0.5 * math.log(0.5 / 0.2), abs=1e-12
    )


def test_kl_support_violation_is_inf():
    p = ProbDist(np.array([0.5, 0.5]))
    q = ProbDist(np.array([1.0, 0.0]))
    assert kl_divergence(p, q) == math.inf


def test_classical_kernels_match_the_loop_form():
    # the per-letter loops the array kernels replaced; only the summation order differs
    def loop_ff(p, q, alpha):
        total = 0.0
        for pw, qw in zip(p, q):
            total += qw * (alpha == 1.0) if pw <= 0.0 else pw * (qw / pw) ** alpha
        return total

    def loop_kl(p, q):
        return sum(pw * math.log(pw / qw) for pw, qw in zip(p, q) if pw > 0.0)

    rng = np.random.default_rng(3)
    for k in range(50):
        w, v = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        w[k % 5] = 0.0  # a zero-mass point of p
        p, q = ProbDist(w / w.sum()), ProbDist(v)
        for alpha in (0.25, 0.75, 1.0):
            got = generalized_fidelity_classical(p, q, OperatorMonotoneSpec.power(alpha))
            assert abs(got - loop_ff(p.weights, q.weights, alpha)) <= 1e-15
        assert abs(kl_divergence(p, q) - loop_kl(p.weights, q.weights)) <= 1e-14


def test_reverse_relative_entropy_commuting_is_kl(commuting_pair):
    rho, sigma = commuting_pair
    p = ProbDist(np.diag(rho.mat).real)
    q = ProbDist(np.diag(sigma.mat).real)
    assert reverse_relative_entropy(rho, sigma) == pytest.approx(
        kl_divergence(p, q), abs=1e-10
    )


def test_reverse_relative_entropy_zero_on_equal():
    rho = random_density(3, 3, 7)
    assert reverse_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_reverse_relative_entropy_needs_positive_sigma():
    with pytest.raises(SingularStateError):
        reverse_relative_entropy(random_density(3, 3, 1), random_density(3, 2, 2))


def test_trace_distance_pure_pair():
    zero = PureState(np.array([1.0, 0.0]))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    d = trace_distance_quantum(zero.projector(), plus.projector())
    assert d == pytest.approx(math.sqrt(1 - 0.5), abs=1e-12)


def test_trace_distance_classical_matches_embedded(commuting_pair):
    rho, sigma = commuting_pair
    p = ProbDist(np.array([0.5, 0.5]))
    q = ProbDist(np.array([0.8, 0.2]))
    assert trace_distance_classical(p, q) == pytest.approx(
        trace_distance_quantum(rho, sigma), abs=1e-12
    )


def test_delta_max_pure_maximally_mixed():
    rho = make_density(np.eye(2) / 2)
    phi = random_pure(2, 13)
    assert delta_max_pure(rho, phi) == pytest.approx(0.5, abs=1e-12)


def test_delta_max_pure_identity():
    # closed form: 1 - c with c = f_min_pure^2, checked on a skewed state
    rho = make_density(np.diag([0.75, 0.25]))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert f_min_pure(rho, plus) ** 2 == pytest.approx(3 / 8, abs=1e-12)
    assert delta_max_pure(rho, plus) == pytest.approx(5 / 8, abs=1e-12)
    # the largest removable weight really is 3/8
    c = 3 / 8
    w = np.linalg.eigvalsh(rho.mat - c * plus.projector().mat)
    assert w[0] == pytest.approx(0.0, abs=1e-12)


def test_delta_max_bounds_commuting(commuting_pair):
    rho, sigma = commuting_pair
    b = delta_max_bounds(rho, sigma)
    assert b.lower == pytest.approx(0.051316701949, abs=1e-12)
    assert b.upper == pytest.approx(0.316227766017, abs=1e-12)
    assert b.upper_via_measurement == pytest.approx(0.3, abs=1e-12)


def test_delta_max_bounds_measurement_sharper():
    rho = random_density(2, 2, 5)
    sigma = random_density(2, 2, 55)
    b = delta_max_bounds(rho, sigma)
    assert b.lower <= b.upper_via_measurement + 1e-10
    assert b.upper_via_measurement <= b.upper + 1e-10
