#!/usr/bin/env python3
"""Syzygy dimensions and compatibility ranks for the Fueter operator rows.

Prints, per algebra, the degree-wise left syzygy dimensions of the stacked
operator matrix and whether the second-order compatibility rows span the
degree-two syzygy space.  --full adds the octonionic degree-three count and
the three-variable case, where the compatibility rows stop spanning.
"""

import argparse
import time

from crfbench import syzygy as sz
from crfbench.hypercomplex import DIM


def report(algebra, n, degrees, verify_span):
    name = {"H": "quaternionic", "O": "octonionic"}[algebra]
    print(f"{name}, n={n}")
    dims = []
    for k in degrees:
        t0 = time.perf_counter()
        d = sz.syzygy_dim(algebra, n, k)
        dims.append(d)
        print(f"  degree {k}: syzygy dim = {d:>4}   "
              f"({time.perf_counter() - t0:.2f}s)")
    rank = sz.compat_rows_rank(algebra, n)
    pairs = n * (n - 1)
    d = DIM[algebra]
    print(f"  compatibility rows: rank {rank} of {pairs * d} "
          f"({'independent' if rank == pairs * d else 'dependent'})")
    if verify_span and 2 in degrees:
        dim2 = dims[degrees.index(2)]
        verdict = "span" if rank == dim2 else "do NOT span"
        print(f"  rows {verdict} the degree-2 syzygies "
              f"(rank {rank} vs dim {dim2})")
    matrix = sz.build_dbar_matrix(algebra, n)
    rows = sz.all_compat_rows(algebra, n)
    ok = all(sz.verify_syzygy(r, matrix) for r in rows)
    print(f"  symbolic verification row * matrix == 0: "
          f"{'ok' if ok else 'FAILED'} ({len(rows)} rows)")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="include the octonionic n=3 case and degree 3")
    args = ap.parse_args()

    report("H", 2, (1, 2), verify_span=True)
    report("O", 2, (1, 2), verify_span=True)
    if args.full:
        t0 = time.perf_counter()
        d3 = sz.syzygy_dim("O", 2, 3)
        print(f"octonionic n=2 degree-3 syzygy dim = {d3} "
              f"({time.perf_counter() - t0:.1f}s)")
        print()
        report("O", 3, (1, 2), verify_span=True)


if __name__ == "__main__":
    main()
