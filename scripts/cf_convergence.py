#!/usr/bin/env python3
"""Convergence study for the reproducing Cauchy-Fueter integral.

Sweeps the product Gauss-Legendre order of the sphere rule and reports the
worst componentwise reproduction error of a seeded left-regular degree-one
polynomial over a batch of interior evaluation points.  The error should
drop roughly two decades per order doubling until it hits rounding noise.
"""

import argparse
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from crfbench.hypercomplex import HNumber
from crfbench.polycalc import HPoly
from crfbench import integrate as ig


@dataclass
class SweepConfig:
    orders: tuple = (8, 12, 16, 24, 32, 40, 48)
    npoints: int = 10
    radius: float = 1.0
    scale: float = 0.45
    seed: int = 7


def regular_degree_one(seed):
    rng = random.Random(seed)
    basis = [HPoly.constant("H", 1, 1)]
    for a in (1, 2, 3):
        basis.append(
            HPoly.coordinate("H", 1, 0, a)
            - HPoly.coordinate("H", 1, 0, 0).mul_const_left(HNumber.unit("H", a)))
    F = HPoly.zero("H", 1)
    for b in basis:
        F = F + b.mul_const_right(
            HNumber("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)]))
    return F


def interior_points(seed, count, scale):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        p = [rng.uniform(-scale, scale) for _ in range(4)]
        if math.sqrt(sum(c * c for c in p)) <= scale:
            pts.append(tuple(p))
    return pts


def run(cfg):
    F = regular_degree_one(cfg.seed)
    pts = interior_points(cfg.seed + 1, cfg.npoints, cfg.scale)
    print(f"test function  : seeded left-regular degree-one, seed={cfg.seed}")
    print(f"evaluation pts : {cfg.npoints} inside |q| <= {cfg.scale}")
    print(f"sphere         : center 0, radius {cfg.radius}")
    print()
    print(f"{'order':>6} {'nodes':>8} {'worst error':>14} {'seconds':>9}")
    outside = (2.0 * cfg.radius, 0.0, 0.0, 0.0)
    prev = None
    for order in cfg.orders:
        t0 = time.perf_counter()
        rule = ig.sphere_rule((0.0, 0.0, 0.0, 0.0), cfg.radius, order)
        # one pass over the rule for all points, with the exterior point
        # in the last order's pass
        values = ig.cauchy_fueter_points(
            F, rule, pts, [outside] if order == cfg.orders[-1] else [])
        worst = 0.0
        for p, got in zip(pts, values):
            want = F.evaluate(p)
            worst = max(worst, max(
                abs(a - b) for a, b in zip(got.coeffs, want.coeffs)))
        dt = time.perf_counter() - t0
        ratio = "" if prev in (None, 0.0) else f"  (x{prev / worst:.1f})"
        print(f"{order:>6} {rule.size:>8} {worst:>14.3e} {dt:>9.2f}{ratio}")
        prev = worst
    print()
    print("exterior check : integral over the same sphere at an outside point")
    out = values[-1]
    print(f"                 |value| = {max(abs(c) for c in out.coeffs):.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--points", type=int, default=10)
    ap.add_argument("--orders", type=int, nargs="+",
                    default=list(SweepConfig.orders))
    args = ap.parse_args()
    run(SweepConfig(orders=tuple(args.orders), npoints=args.points,
                    seed=args.seed))


if __name__ == "__main__":
    main()
