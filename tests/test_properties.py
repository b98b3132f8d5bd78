"""Randomized invariants, driven by hypothesis over generator seeds."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from revfid.divergences import (
    OperatorMonotoneSpec,
    classical_fidelity,
    delta_max_bounds,
    f_f_min,
    f_min,
    f_min_via_geomean,
    reverse_relative_entropy,
    trace_distance_quantum,
    uhlmann_fidelity,
)
from revfid.geometry import TangentPoint, fisher_both
from revfid.reverse_tests import hidden_pair_fidelity, minimal_reverse_test, verify_reverse_test
from revfid.states import (
    ProbDist,
    apply_channel,
    embed_classical,
    make_density,
    random_channel,
    random_density,
    random_tangent,
    rng_for,
    tensor,
)

seeds = st.integers(min_value=0, max_value=10**6)
dims = st.sampled_from([2, 3, 4])
SETTINGS = settings(max_examples=25, deadline=None)


def pair(dim, seed):
    return random_density(dim, dim, seed), random_density(dim, dim, seed + 10**7)


@SETTINGS
@given(seeds, dims)
def test_fmin_between_zero_and_uhlmann(seed, dim):
    rho, sigma = pair(dim, seed)
    fmin = f_min(rho, sigma)
    assert 0.0 <= fmin <= uhlmann_fidelity(rho, sigma) + 1e-10


@SETTINGS
@given(seeds, dims)
def test_fmin_symmetric(seed, dim):
    rho, sigma = pair(dim, seed)
    assert abs(f_min(rho, sigma) - f_min(sigma, rho)) < 1e-9


@SETTINGS
@given(seeds, dims)
def test_fmin_routes_agree(seed, dim):
    rho, sigma = pair(dim, seed)
    assert abs(f_min(rho, sigma) - f_min_via_geomean(rho, sigma)) < 1e-9


@SETTINGS
@given(seeds, dims)
def test_fmin_unitary_invariant(seed, dim):
    rho, sigma = pair(dim, seed)
    g = rng_for(seed, stream=3).standard_normal((dim, dim)) + 1j * rng_for(
        seed, stream=4
    ).standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    rho_u = make_density(u @ rho.mat @ u.conj().T)
    sigma_u = make_density(u @ sigma.mat @ u.conj().T)
    assert abs(f_min(rho_u, sigma_u) - f_min(rho, sigma)) < 1e-9


@SETTINGS
@given(seeds, dims)
def test_monotone_under_channels(seed, dim):
    rho, sigma = pair(dim, seed)
    lam = random_channel(dim, dim, 2, seed + 5)
    rho2, sigma2 = apply_channel(lam, rho), apply_channel(lam, sigma)
    assert f_min(rho2, sigma2) >= f_min(rho, sigma) - 1e-9
    assert uhlmann_fidelity(rho2, sigma2) >= uhlmann_fidelity(rho, sigma) - 1e-9
    assert trace_distance_quantum(rho2, sigma2) <= trace_distance_quantum(rho, sigma) + 1e-9
    assert reverse_relative_entropy(rho2, sigma2) <= reverse_relative_entropy(rho, sigma) + 1e-9


@SETTINGS
@given(seeds)
@example(931469)  # sigma (x) sigma has the genuine eigenvalue 9.4e-15, which a relative 1e-14 cut dropped
def test_fmin_multiplicative_under_tensor(seed):
    rho, sigma = pair(2, seed)
    single = f_min(rho, sigma)
    assert abs(f_min(tensor(rho, rho), tensor(sigma, sigma)) - single**2) < 1e-8


@SETTINGS
@given(seeds, dims)
def test_classical_embedding_reduces_fmin(seed, dim):
    w = rng_for(seed, stream=7).dirichlet(np.ones(dim) * 2)
    v = rng_for(seed, stream=8).dirichlet(np.ones(dim) * 2)
    p, q = ProbDist(w), ProbDist(v)
    rho, sigma = embed_classical(p), embed_classical(q)
    cf = classical_fidelity(p, q)
    assert abs(f_min(rho, sigma) - cf) < 1e-9
    assert abs(uhlmann_fidelity(rho, sigma) - cf) < 1e-9


@SETTINGS
@given(seeds, dims)
def test_minimal_reverse_test_roundtrip(seed, dim):
    rho, sigma = pair(dim, seed)
    rt = minimal_reverse_test(rho, sigma)
    rep = verify_reverse_test(rt, rho, sigma, tol=1e-8)
    assert rep.passes
    assert abs(rep.fidelity_of_pq - f_min(rho, sigma)) < 1e-9


@SETTINGS
@given(seeds, dims)
def test_hidden_pair_realizes_fmin(seed, dim):
    rho, sigma = pair(dim, seed)
    assert abs(hidden_pair_fidelity(rho, sigma) - f_min(rho, sigma)) < 1e-9


@SETTINGS
@given(seeds, dims)
def test_strong_joint_concavity(seed, dim):
    rho0, sigma0 = pair(dim, seed)
    rho1, sigma1 = pair(dim, seed + 1)
    rng = rng_for(seed, stream=11)
    lam = rng.dirichlet((2.0, 2.0))
    mu = rng.dirichlet((2.0, 2.0))
    mix_rho = make_density(lam[0] * rho0.mat + lam[1] * rho1.mat)
    mix_sigma = make_density(mu[0] * sigma0.mat + mu[1] * sigma1.mat)
    lower = math.sqrt(lam[0] * mu[0]) * f_min(rho0, sigma0) + math.sqrt(
        lam[1] * mu[1]
    ) * f_min(rho1, sigma1)
    assert f_min(mix_rho, mix_sigma) >= lower - 1e-9


@SETTINGS
@given(seeds, dims, st.sampled_from([0.25, 0.5, 0.75]))
def test_ffmin_joint_concavity(seed, dim, alpha):
    rho0, sigma0 = pair(dim, seed)
    rho1, sigma1 = pair(dim, seed + 1)
    lam = rng_for(seed, stream=12).dirichlet((2.0, 2.0))
    spec = OperatorMonotoneSpec.power(alpha)
    mix_rho = make_density(lam[0] * rho0.mat + lam[1] * rho1.mat)
    mix_sigma = make_density(lam[0] * sigma0.mat + lam[1] * sigma1.mat)
    lower = lam[0] * f_f_min(rho0, sigma0, spec) + lam[1] * f_f_min(rho1, sigma1, spec)
    assert f_f_min(mix_rho, mix_sigma, spec) >= lower - 1e-9


@SETTINGS
@given(seeds, dims)
def test_fidelity_distance_bounds(seed, dim):
    rho, sigma = pair(dim, seed)
    f = uhlmann_fidelity(rho, sigma)
    d = trace_distance_quantum(rho, sigma)
    assert 1 - f <= d + 1e-9
    assert d <= math.sqrt(max(1 - f * f, 0.0)) + 1e-9


@SETTINGS
@given(seeds, dims)
def test_delta_max_bounds_ordered(seed, dim):
    rho, sigma = pair(dim, seed)
    b = delta_max_bounds(rho, sigma)
    assert b.lower <= b.upper_via_measurement + 1e-10
    assert b.upper_via_measurement <= b.upper + 1e-10


@SETTINGS
@given(seeds, dims)
def test_metric_ordering(seed, dim):
    rho, v = random_tangent(dim, seed)
    rep = fisher_both(TangentPoint(rho, v))
    assert rep.j_rld >= rep.j_sld - 1e-9


@SETTINGS
@given(seeds, dims)
def test_pinsker_type_bound(seed, dim):
    rho, sigma = pair(dim, seed)
    dr = reverse_relative_entropy(rho, sigma)
    fmin = f_min(rho, sigma)
    assert dr >= 0.5 * (1 - fmin) ** 2 - 1e-9
