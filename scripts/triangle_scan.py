#!/usr/bin/env python3
"""Scan the triangle-inequality counterexamples over the opening angle.

For each theta the pair (psi, phi) of pure states admits a detour through
the diagonal state tau that is shorter than the direct leg under the
Bhattacharyya angle of the minimal fidelity, and cheaper than the direct
statistical distance for the reverse-test distance. The states and the
defects are those of `revfid counterexample`.
"""

import argparse
import math

from revfid.cli import triangle_quantities


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=15)
    args = ap.parse_args()
    print(f"{'theta':>8} {'fmin leg':>10} {'angle defect':>13} {'delta defect':>13}")
    for k in range(1, args.steps + 1):
        theta = k * (math.pi / 2) / (args.steps + 1)
        q = triangle_quantities(theta)
        print(
            f"{theta:8.4f} {q['fmin_psi_tau']:10.6f} {q['angle_defect']:13.6f} "
            f"{q['triangle_defect']:13.6f}"
        )


if __name__ == "__main__":
    main()
