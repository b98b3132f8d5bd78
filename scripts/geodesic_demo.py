#!/usr/bin/env python3
"""Compare three routes to the minimal-fidelity geodesic on a random
qubit pair: the closed form, the exact flow from geodesic_start's initial
data, and the variational path estimator, all against the scalar value
of f_min."""

import argparse
import math

from revfid import (
    commutative_geodesic_flow,
    curve_length,
    f_min,
    fmin_geodesic,
    fr_estimate,
    geodesic_start,
    random_density,
    state_distance,
    uhlmann_fidelity,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=6)
    ap.add_argument("--dim", type=int, default=2)
    args = ap.parse_args()

    rho = random_density(args.dim, args.dim, args.seed)
    sigma = random_density(args.dim, args.dim, args.seed + 1000)
    fmin = f_min(rho, sigma)
    fu = uhlmann_fidelity(rho, sigma)
    print(f"f_min           = {fmin:.12f}")
    print(f"uhlmann         = {fu:.12f}")

    curve = fmin_geodesic(rho, sigma, 65)
    half = 0.5 * curve_length(curve, "rld")
    print(f"1/2 RLD length  = {half:.12f}  (arccos f_min = {math.acos(fmin):.12f})")

    gs, total = geodesic_start(rho, sigma)
    flow = commutative_geodesic_flow(gs, total / 500, 500)
    print(f"flow endpoint residual = {state_distance(flow.states[-1], sigma):.3e}")

    fr = fr_estimate(rho, sigma, control_points=3, iterations=20, seed=args.seed)
    print(f"fr_estimate     = {fr:.12f}  (sandwiched by the two fidelities above)")


if __name__ == "__main__":
    main()
