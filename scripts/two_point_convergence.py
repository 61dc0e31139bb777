#!/usr/bin/env python3
"""Convergence of the geometric-family ratios to the two-point constant.

For f_delta = (1, delta) and g = h = (1, delta, ..., delta^r), prints the
ratio against the closed-form constant c_delta(p) for a delta grid and
p in {2, 3/2, 3}.  At p = 2 the ratio equals 1 + delta for every r; away
from p = 2 the convergence is geometric in r but visibly incomplete at
r = 8 once delta is large.

Usage: python3 scripts/two_point_convergence.py [--r-max 8]
"""

import argparse

from sumsetlab.cli import nonnegative_int
from sumsetlab.search import (
    c_p_constant,
    geometric_family_ratio,
    two_point_constant,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=nonnegative_int, default=8)
    args = ap.parse_args()
    rs = sorted({r for r in (0, 2, 4, args.r_max) if r <= args.r_max})  # each r <= r_max once

    for p in (2.0, 1.5, 3.0):
        print(f"p = {p}   (c_p = {c_p_constant(p):.10f})")
        print(f"{'delta':>6} {'c_delta':>12} "
              + " ".join(f"{'r=' + str(r):>10}" for r in rs)
              + f" {'residual@rmax':>14}")
        for i in range(11):
            delta = i / 10
            c = two_point_constant(delta, p)
            row = [geometric_family_ratio(delta, p, r, r) for r in rs]
            resid = row[-1] - c
            print(f"{delta:>6.1f} {c:>12.8f} "
                  + " ".join(f"{v:>10.6f}" for v in row)
                  + f" {resid:>14.3e}")
        print()


if __name__ == "__main__":
    main()
