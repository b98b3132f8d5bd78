"""End-to-end acceptance checks.

Each test covers one numbered criterion and emits a single pass/fail line;
run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
verdicts.
"""

import math

import numpy as np
import pytest

from revfid.divergences import (
    OperatorMonotoneSpec,
    delta_max_bounds,
    delta_max_pure,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    reverse_relative_entropy,
    t_operator,
    trace_distance_quantum,
    uhlmann_fidelity,
)
from revfid.geometry import (
    TangentPoint,
    arccos_product_bound_holds,
    commutative_geodesic_flow,
    curve_length,
    expansion_check,
    fisher_both,
    fmin_geodesic,
    fr_estimate,
    geodesic_start,
)
from revfid.reverse_tests import general_reverse_test, minimal_reverse_test, sample_contraction
from revfid.states import (
    PureState,
    apply_channel,
    make_density,
    random_channel,
    random_density,
    random_pure,
    random_tangent,
    rng_for,
    state_distance,
    tensor,
)


def verdict(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_dual_route_agreement():
    worst = 0.0
    for i in range(1000):
        dim = 2 + i % 5  # dims 2..6
        rho = random_density(dim, dim, 10_000 + i)
        sigma = random_density(dim, dim, 20_000 + i)
        a = f_min(rho, sigma)
        b = f_min_via_geomean(rho, sigma)
        worst = max(worst, abs(a - b) / max(a, 1e-12))
    verdict(1, worst <= 1e-9, f"max relative gap {worst:.3e}")


def test_criterion_2_minimal_reverse_test_optimality():
    worst_eq = 0.0
    worst_opt = -1.0
    for i in range(200):
        dim = 2 + i % 3
        rho = random_density(dim, dim, 30_000 + i)
        sigma = random_density(dim, dim, 40_000 + i)
        fmin = f_min(rho, sigma)
        rt = minimal_reverse_test(rho, sigma)
        worst_eq = max(worst_eq, abs(rt.fidelity() - fmin))
        t = t_operator(rho, sigma)
        for j in range(20):
            a = sample_contraction(t, 50_000 + 100 * i + j)
            grt = general_reverse_test(rho, sigma, a)
            worst_opt = max(worst_opt, grt.fidelity() - fmin)
    ok = worst_eq <= 1e-9 and worst_opt <= 1e-8
    verdict(2, ok, f"equality gap {worst_eq:.3e}, optimality excess {worst_opt:.3e}")


def test_criterion_3_sandwich():
    worst = 0.0
    for i in range(100):
        rho = random_density(2, 2, 60_000 + i)
        sigma = random_density(2, 2, 70_000 + i)
        fr = fr_estimate(rho, sigma, control_points=3, iterations=6, seed=i)
        worst = max(worst, f_min(rho, sigma) - fr, fr - uhlmann_fidelity(rho, sigma))
    worst_eq = 0.0
    for i in range(100):
        w = rng_for(80_000 + i).dirichlet((2.0, 2.0))
        v = rng_for(81_000 + i).dirichlet((2.0, 2.0))
        rho = make_density(np.diag(w))
        sigma = make_density(np.diag(v))
        fr = fr_estimate(rho, sigma, control_points=3, iterations=6, seed=i)
        fmin = f_min(rho, sigma)
        fu = uhlmann_fidelity(rho, sigma)
        worst_eq = max(worst_eq, abs(fr - fmin), abs(fr - fu), abs(fmin - fu))
    ok = worst <= 1e-8 and worst_eq <= 1e-6
    verdict(3, ok, f"sandwich excess {worst:.3e}, commuting spread {worst_eq:.3e}")


def test_criterion_4_monotonicity():
    specs = [OperatorMonotoneSpec.power(a) for a in (0.25, 0.5, 0.75)]
    worst = 0.0
    for i in range(500):
        dim = 2 + i % 3
        rho = random_density(dim, dim, 90_000 + i)
        sigma = random_density(dim, dim, 100_000 + i)
        lam = random_channel(dim, dim, 2, 110_000 + i)
        rho2, sigma2 = apply_channel(lam, rho), apply_channel(lam, sigma)
        worst = max(worst, uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(rho2, sigma2))
        worst = max(worst, f_min(rho, sigma) - f_min(rho2, sigma2))
        for spec in specs:
            worst = max(worst, f_f_min(rho, sigma, spec) - f_f_min(rho2, sigma2, spec))
        worst = max(
            worst, trace_distance_quantum(rho2, sigma2) - trace_distance_quantum(rho, sigma)
        )
        worst = max(
            worst, reverse_relative_entropy(rho2, sigma2) - reverse_relative_entropy(rho, sigma)
        )
    verdict(4, worst <= 1e-9, f"max monotonicity violation {worst:.3e}")


def test_criterion_5_concavity():
    spec = OperatorMonotoneSpec.sqrt()
    worst = 0.0
    for i in range(200):
        dim = 2 + i % 3
        rho0 = random_density(dim, dim, 120_000 + i)
        sigma0 = random_density(dim, dim, 130_000 + i)
        rho1 = random_density(dim, dim, 140_000 + i)
        sigma1 = random_density(dim, dim, 150_000 + i)
        rng = rng_for(160_000 + i)
        lam = rng.dirichlet((2.0, 2.0))
        mu = rng.dirichlet((2.0, 2.0))
        mix_rho = make_density(lam[0] * rho0.mat + lam[1] * rho1.mat)
        mix_sigma_mu = make_density(mu[0] * sigma0.mat + mu[1] * sigma1.mat)
        strong = math.sqrt(lam[0] * mu[0]) * f_min(rho0, sigma0) + math.sqrt(
            lam[1] * mu[1]
        ) * f_min(rho1, sigma1)
        worst = max(worst, strong - f_min(mix_rho, mix_sigma_mu))
        mix_sigma_lam = make_density(lam[0] * sigma0.mat + lam[1] * sigma1.mat)
        joint = lam[0] * f_f_min(rho0, sigma0, spec) + lam[1] * f_f_min(rho1, sigma1, spec)
        worst = max(worst, joint - f_f_min(mix_rho, mix_sigma_lam, spec))
    verdict(5, worst <= 1e-9, f"max concavity violation {worst:.3e}")


def test_criterion_6_multiplicativity():
    worst = 0.0
    for i in range(100):
        rho = random_density(2, 2, 170_000 + i)
        sigma = random_density(2, 2, 180_000 + i)
        single = f_min(rho, sigma)
        double = f_min(tensor(rho, rho), tensor(sigma, sigma))
        worst = max(worst, abs(double - single * single))
    verdict(6, worst <= 1e-8, f"max multiplicativity gap {worst:.3e}")


def test_criterion_7_counterexamples():
    ok = True
    details = []
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        psi = PureState(np.array([c, s]))
        phi = PureState(np.array([c, -s]))
        tau = make_density(np.diag([c, s]) / (c + s))
        leg = f_min_pure(tau, psi)
        defect = math.acos(f_min_pure(psi.projector(), phi)) - 2 * math.acos(leg)
        if defect <= 0.01:
            ok = False
            details.append(f"fmin triangle margin {defect:.4f} at theta={theta:.3f}")
    theta = 0.2
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    tau = make_density(np.diag([c, s]) / (c + s))
    leg = f_min_pure(tau, PureState(np.array([c, s])))
    bound = 2 * math.sqrt(1 - leg * leg)
    if not 1.0 > bound:
        ok = False
        details.append("delta-max triangle not violated at theta=0.2")
    psi = random_pure(3, 1)
    g = rng_for(2).standard_normal(3) + 1j * rng_for(3).standard_normal(3)
    g = g - np.vdot(psi.amplitudes, g) * psi.amplitudes  # orthogonalize
    phi = PureState(g / np.linalg.norm(g))
    if abs(f_min_pure(psi.projector(), phi)) > 1e-12:
        ok = False
        details.append("distinct pure pair has nonzero minimal fidelity")
    verdict(7, ok, "; ".join(details) or "all three reproduce")


def test_criterion_8_pure_state_closed_forms():
    ok = True
    details = []
    half = make_density(np.eye(2) / 2)
    for i in range(20):
        phi = random_pure(2, 190_000 + i)
        if abs(f_min_pure(half, phi) - 1 / math.sqrt(2)) > 1e-12:
            ok = False
            details.append("maximally mixed closed form off")
        if abs(delta_max_pure(half, phi) - 0.5) > 1e-12:
            ok = False
            details.append("maximally mixed distance off")
    # delta_max to a pure target is 1 - c, with c the largest weight keeping
    # rho - c |phi><phi| PSD; so at that c the least eigenvalue is exactly 0.
    # The checklist's 1 - F(rho, |phi><phi|)^2 is only a lower bound, since
    # f_min <= F (rho = diag(3/4, 1/4), phi = |+> gives 5/8 against 1/2).
    worst = 0.0
    worst_uhlmann = 0.0
    for i in range(100):
        dim = 2 + i % 3
        rho = random_density(dim, dim, 200_000 + i)
        phi = random_pure(dim, 210_000 + i)
        dist = delta_max_pure(rho, phi)
        least = np.linalg.eigvalsh(rho.mat - (1 - dist) * phi.projector().mat)[0]
        worst = max(worst, abs(least))
        worst_uhlmann = max(worst_uhlmann, (1 - uhlmann_fidelity(rho, phi.projector()) ** 2) - dist)
    if worst > 1e-10:
        ok = False
        details.append(f"rho - (1 - delta_max_pure) |phi><phi| least eigenvalue {worst:.3e}")
    if worst_uhlmann > 1e-10:
        ok = False
        details.append(f"delta_max_pure below 1 - uhlmann^2 by {worst_uhlmann:.3e}")
    verdict(8, ok, "; ".join(details) or "closed forms agree")


def test_criterion_8_pure_state_distance_closed_form_internal():
    # the closed-form identity that does hold: delta_max_pure = 1 - f_min_pure^2
    worst = 0.0
    for i in range(100):
        dim = 2 + i % 3
        rho = random_density(dim, dim, 200_000 + i)
        phi = random_pure(dim, 210_000 + i)
        worst = max(worst, abs(delta_max_pure(rho, phi) - (1 - f_min_pure(rho, phi) ** 2)))
    assert worst <= 1e-12


def test_criterion_9_geometry():
    ok = True
    details = []
    for i in range(10):
        rho, v = random_tangent(2 + i % 3, 220_000 + i)
        tp = TangentPoint(rho, v)
        for which in ("fmin", "uhlmann"):
            slope = expansion_check(tp, which=which).slope
            if not 2.7 <= slope <= 3.3:
                ok = False
                details.append(f"{which} expansion slope {slope:.2f}")
    worst_len = 0.0
    for i in range(50):
        rho = random_density(2, 2, 230_000 + i)
        sigma = random_density(2, 2, 240_000 + i)
        curve = fmin_geodesic(rho, sigma, 33)
        half = 0.5 * curve_length(curve, "rld")
        worst_len = max(worst_len, abs(half - math.acos(f_min(rho, sigma))))
    if worst_len > 1e-6:
        ok = False
        details.append(f"geodesic half-length gap {worst_len:.3e}")
    rho = random_density(2, 2, 6)
    sigma = random_density(2, 2, 60)
    gs, total = geodesic_start(rho, sigma)
    flow = commutative_geodesic_flow(gs, total / 500, 500)
    endpoint = state_distance(flow.states[-1], sigma)
    if endpoint > 1e-5:
        ok = False
        details.append(f"flow endpoint error {endpoint:.3e}")
    worst_ord = 0.0
    for i in range(500):
        rho, v = random_tangent(2 + i % 3, 250_000 + i)
        rep = fisher_both(TangentPoint(rho, v))
        worst_ord = max(worst_ord, rep.j_sld - rep.j_rld)
    if worst_ord > 1e-9:
        ok = False
        details.append(f"metric ordering violation {worst_ord:.3e}")
    verdict(9, ok, "; ".join(details) or "expansions, geodesics, flows, ordering all hold")


def test_criterion_10_inequality_suite():
    ok = True
    details = []
    worst = 0.0
    for i in range(200):
        dim = 2 + i % 3
        rho = random_density(dim, dim, 260_000 + i)
        sigma = random_density(dim, dim, 270_000 + i)
        f = uhlmann_fidelity(rho, sigma)
        d = trace_distance_quantum(rho, sigma)
        worst = max(worst, (1 - f) - d, d - math.sqrt(max(1 - f * f, 0.0)))
        fmin = f_min(rho, sigma)
        worst = max(worst, 0.5 * (1 - fmin) ** 2 - reverse_relative_entropy(rho, sigma))
        b = delta_max_bounds(rho, sigma)
        worst = max(worst, b.upper_via_measurement - math.sqrt(max(1 - fmin * fmin, 0.0)))
    if worst > 1e-9:
        ok = False
        details.append(f"distance/entropy inequality violation {worst:.3e}")
    # The checklist's sqrt(2(1-F)(1 + (1-F)/6)) bounds arccos F from below, not
    # above: with x = 1 - F, arccos(1-x)^2 = 2x + x^2/3 + 4x^3/45 + ... and every
    # term of the series is positive.  The paper's abstract states no arccos
    # bound, so the form the checklist meant is not settled; this asserts the
    # sandwich that holds, with the factor moved outside the root on the upper side.
    grid = np.arange(0.0, 1.0 + 1e-3 / 2, 1e-3)
    lower = np.sqrt(2.0 * (1.0 - grid) * (1.0 + (1.0 - grid) / 6.0))
    if np.any(lower > np.arccos(grid) + 1e-9):
        ok = False
        details.append("arccos lower bound fails on the 1001-point grid")
    if not arccos_product_bound_holds():
        ok = False
        details.append("arccos upper bound fails on the 1001-point grid")
    verdict(10, ok, "; ".join(details) or "all inequalities hold")
