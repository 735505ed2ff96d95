"""Command-line workbench.

Subcommands
-----------
verify-identities   run the seeded operator/form identity suite
check               CRF / admissibility / rank report for f on a hypersurface
solve               solve the conjugate-Fueter system dbar u = g exactly
extend              extension of f with conjugate-Fueter image vanishing to
                    order m on an affine hypersurface
jump                two-sided regular splitting across an affine hypersurface
syzygy              syzygy dimensions and the compatibility-row span check
cf-integral         reproducing-integral convergence report on a sphere

Reports are JSON (default) or aligned text via ``--format table``.  Default
output is deterministic byte for byte for fixed inputs; ``--timings`` adds
wall-clock data and waives that guarantee.  Exit codes: 0 all checks passed,
1 a check failed or the problem is infeasible, 2 invalid input, 3 resource
budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .hypercomplex import DIM, HNumber
from .polycalc import (HPoly, compat_pbar, dbar_system, fueter_d, fueter_dbar,
                       laplacian)
from . import forms
from . import hypersurface as hsur
from . import integrate as ig
from . import crfsolve as cs
from . import syzygy as sz

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _check(name, ok, value=None, tol=None, backend="exact"):
    entry = {"name": name, "status": "pass" if ok else "fail",
             "backend": backend}
    if value is not None:
        entry["value"] = value
    if tol is not None:
        entry["tol"] = tol
    return entry


def _report(command, inputs, seed, checks, result=None):
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    rep = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "inputs_sha256": _digest(inputs),
        "seed": seed,
        "checks": checks,
        "status": status,
    }
    if result is not None:
        rep["result"] = result
    return rep


def _emit(rep, fmt, timings=None):
    if timings is not None:
        rep = dict(rep)
        rep["timings"] = timings
    if fmt == "json":
        print(json.dumps(rep, indent=2, sort_keys=True))
        return
    print(f"# {rep['command']}  status={rep['status']}")
    for c in rep["checks"]:
        val = c.get("value")
        tol = c.get("tol")
        line = f"{c['status'].upper():4s}  {c['name']}"
        if val is not None:
            line += f"  value={val}"
        if tol is not None:
            line += f"  tol={tol}"
        print(line)
    if timings is not None:
        for k, v in timings.items():
            print(f"time  {k}  {v:.3f}s")


def _exit_code(rep):
    return 0 if rep["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _load_payload(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported or missing schema_version")
    return payload


def _load_function_surface(path):
    payload = _load_payload(path)
    f = HPoly.from_json(payload["f"])
    if f.algebra != "H" or f.n != 2:
        raise ValueError("f must be quaternionic in two variables")
    S = hsur.Hypersurface(HPoly.from_json(payload["surface"]["rho"]))
    return payload, f, S


def _load_system(path):
    payload = _load_payload(path)
    g = [HPoly.from_json(item) for item in payload["g"]]
    if not g:
        raise ValueError("empty system")
    return payload, g


def _rand_poly(rng, algebra, n, deg=3, terms=5):
    width = DIM[algebra] * n
    d = DIM[algebra]
    out = HPoly.zero(algebra, n)
    for _ in range(terms):
        exp = [0] * width
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(width)] += 1
        c = HNumber(algebra, [Fraction(rng.randint(-2, 2)) for _ in range(d)])
        if not c.is_zero():
            out = out + HPoly(algebra, n, {tuple(exp): c})
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_identities(args):
    algebras = ["H", "O"] if args.algebra == "both" else [args.algebra]
    rng = random.Random(args.seed)
    checks = []
    count = args.count
    for algebra in algebras:
        n = args.n
        ok = True
        for _ in range(count):
            p = _rand_poly(rng, algebra, n)
            for h in range(n):
                lap = laplacian(p, h)
                if fueter_d(fueter_dbar(p, h), h) != lap or \
                        fueter_dbar(fueter_d(p, h), h) != lap:
                    ok = False
        checks.append(_check(f"laplacian_factorization_{algebra}", ok))
        ok = True
        for _ in range(count):
            u = _rand_poly(rng, algebra, 2) if n != 2 else _rand_poly(rng, algebra, n)
            residuals = compat_pbar(dbar_system(u))
            if any(not r.is_zero() for r in residuals):
                ok = False
        checks.append(_check(f"compatibility_of_images_{algebra}", ok))
        # cube law: Laplacian of q^3 equals -2(d-2)(2q + conj q)
        q = HPoly.variable(algebra, 1, 0)
        lap = laplacian(q * q * q, 0)
        want = (q.scale(2) + q.conj()).scale(-2 * (DIM[algebra] - 2))
        checks.append(_check(f"laplacian_cube_{algebra}", lap == want))
    if "O" in algebras:
        a = HNumber.unit("O", 1)
        b = HNumber.unit("O", 2)
        c = HNumber.unit("O", 4)
        checks.append(_check(
            "nonassociative_witness_O", (a * b) * c == -(a * (b * c))
            and (a * b) * c == HNumber.unit("O", 7)))
    if "H" in algebras:
        ok = True
        for _ in range(count):
            F = _rand_poly(rng, "H", 1)
            lhs, rhs = forms.identity_lu1(F)
            if lhs != rhs:
                ok = False
        checks.append(_check("volume_identity_one_variable", ok))
        ok = True
        for _ in range(max(2, count // 2)):
            F = _rand_poly(rng, "H", 2, deg=2, terms=4)
            lhs, rhs = forms.identity_lub(F)
            if lhs != rhs:
                ok = False
        checks.append(_check("seven_form_identity_two_variables", ok))
        pole = tuple(Fraction(rng.randint(-2, 2)) for _ in range(8))
        w2 = forms.omega2(pole)
        checks.append(_check(
            "kernel_form_exterior_derivative_closed",
            forms.k2(pole).exterior_d().is_zero()))
        checks.append(_check("kernel_form_term_count", len(w2.terms) == 8))
        K = forms.cf_kernel_quaternion((0, 0, 0, 0))
        checks.append(_check(
            "cauchy_kernel_two_sided_regular",
            forms.pole_fueter_dbar(K, 0).num.is_zero()
            and forms.pole_fueter_dbar_right(K, 0).num.is_zero()))
    inputs = {"algebra": args.algebra, "n": args.n, "count": args.count}
    return _report("verify-identities", inputs, args.seed, checks)


def cmd_check(args):
    payload, f, S = _load_function_surface(args.input)
    checks = []
    crf = hsur.is_crf(f, S, tol=args.tol)
    backend = crf.backend
    checks.append(_check("tangentially_crf", crf.holds, backend=backend))
    rep = hsur.is_admissible(f, S, tol=max(args.tol, 1e-6) if not S.is_affine
                             else args.tol)
    checks.append(_check("admissible", rep.admissible, backend=backend))
    bad = sorted(name for name, sub in rep.derived.items() if not sub.holds)
    result = {"derived_failures": bad}
    if crf.holds:
        pts = S.sample_points(args.samples, seed=args.seed)
        ok = all(hsur.rank_condition(f, S, p, tol=args.tol) for p in pts)
        checks.append(_check("pointwise_rank_condition", ok,
                             tol=args.tol, backend=backend))
    return _report("check", payload, args.seed, checks, result=result)


def cmd_solve(args):
    payload, g = _load_system(args.input)
    try:
        u = cs.solve_crf(g, max_unknowns=args.max_unknowns)
    except cs.CompatibilityViolation as exc:
        checks = [_check("solvable", False, value=str(exc))]
        return _report("solve", payload, args.seed, checks)
    checks = [_check("solvable", True),
              _check("verified_exactly",
                     list(dbar_system(u)) == list(g))]
    return _report("solve", payload, args.seed, checks,
                   result={"u": u.to_json()})


def cmd_extend(args):
    payload, f, S = _load_function_surface(args.input)
    try:
        F = cs.crf_extend(f, S, m=args.order_m, budget=args.budget,
                          max_unknowns=args.max_unknowns)
    except cs.NoPolynomialExtensionWithinBudget as exc:
        checks = [_check("extension_exists", False, value=str(exc))]
        return _report("extend", payload, args.seed, checks)
    checks = [_check("extension_exists", True),
              _check("restriction_matches",
                     hsur._reduce_mod_affine(F - f, S).is_zero())]
    return _report("extend", payload, args.seed, checks,
                   result={"F": F.to_json(), "m": args.order_m})


def cmd_jump(args):
    payload, f, S = _load_function_surface(args.input)
    try:
        Fp, Fm = cs.jump_split(f, S, budget=args.budget,
                               max_unknowns=args.max_unknowns)
    except cs.NotAdmissibleOrBudget as exc:
        checks = [_check("splittable", False, value=str(exc))]
        return _report("jump", payload, args.seed, checks)
    u = dbar_system(Fp)
    checks = [_check("splittable", True),
              _check("plus_side_regular",
                     all(c.is_zero() for c in u))]
    return _report("jump", payload, args.seed, checks,
                   result={"F_plus": Fp.to_json(), "F_minus": Fm.to_json()})


def cmd_syzygy(args):
    inputs = {"algebra": args.algebra, "n": args.n, "degree": args.degree}
    dims = []
    for k in range(args.degree + 1):
        dims.append(sz.syzygy_dim(args.algebra, args.n, k,
                                  max_unknowns=args.max_unknowns))
    checks = [_check("dimensions_computed", True, value=dims)]
    result = {"dimensions": dims}
    if args.degree >= 2:
        rank = sz.compat_rows_rank(args.algebra, args.n)
        spans = rank == dims[2]
        result["compat_rank"] = rank
        result["compat_rows_span_degree_two"] = spans
        checks.append(_check("compat_rows_independent",
                             rank == args.n * (args.n - 1) * DIM[args.algebra],
                             value=rank))
        checks.append(_check("compat_rows_span_degree_two", spans,
                             value={"rank": rank, "dim": dims[2]}))
    return _report("syzygy", inputs, args.seed, checks, result=result)


def cmd_cf_integral(args):
    inputs = {"order": args.order, "radius": args.radius,
              "points": args.points, "tol": args.tol}
    rng = random.Random(args.seed)
    rule = ig.sphere_rule((0, 0, 0, 0), args.radius, args.order)
    checks = []
    area = 2.0 * math.pi ** 2 * args.radius ** 3
    werr = abs(math.fsum(rule.weights) - area) / area
    checks.append(_check("weights_sum_to_area", werr < 1e-10,
                         value=werr, tol=1e-10, backend="float"))
    basis = [HPoly.constant("H", 1, 1)]
    for a in (1, 2, 3):
        basis.append(HPoly.coordinate("H", 1, 0, a)
                     - HPoly.coordinate("H", 1, 0, 0).mul_const_left(
                         HNumber.unit("H", a)))
    F = HPoly.zero("H", 1)
    for b in basis:
        F = F + b.mul_const_right(
            HNumber("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)]))
    worst = 0.0
    for _ in range(args.points):
        while True:
            q0 = [rng.uniform(-0.45, 0.45) * args.radius for _ in range(4)]
            if math.sqrt(sum(c * c for c in q0)) <= 0.45 * args.radius:
                break
        got = ig.cauchy_fueter_eval(F, rule, q0)
        want = F.evaluate(tuple(q0)).to_float()
        worst = max(worst, max(abs(a - b)
                               for a, b in zip(got.coeffs, want.coeffs)))
    checks.append(_check("interior_reproduction", worst < args.tol,
                         value=worst, tol=args.tol, backend="float"))
    q_out = (2.0 * args.radius, 0.0, 0.5 * args.radius, 0.0)
    ext = ig.cauchy_fueter_raw(F, rule, q_out)
    ext_err = max(abs(c) for c in ext.coeffs)
    checks.append(_check("exterior_vanishing", ext_err < args.tol,
                         value=ext_err, tol=args.tol, backend="float"))
    return _report("cf-integral", inputs, args.seed, checks)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crfbench",
        description="verification workbench for quaternionic and octonionic "
                    "conjugate-Fueter analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_tol=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (non-deterministic)")
        if with_tol:
            p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("verify-identities",
                       help="seeded operator and form identity suite")
    p.add_argument("--algebra", choices=("H", "O", "both"), default="both")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=10)
    common(p)

    p = sub.add_parser("check", help="CRF/admissibility report "
                       "(exit 0 only for admissible data)")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=10)
    common(p)

    p = sub.add_parser("solve", help="solve dbar u = g exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--max-unknowns", type=int, default=200000)
    common(p, with_tol=False)

    p = sub.add_parser("extend", help="vanishing-order extension on an "
                       "affine hypersurface")
    p.add_argument("--input", required=True)
    p.add_argument("--order-m", type=int, default=2)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--max-unknowns", type=int, default=200000)
    common(p, with_tol=False)

    p = sub.add_parser("jump", help="two-sided regular splitting")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--max-unknowns", type=int, default=200000)
    common(p, with_tol=False)

    p = sub.add_parser("syzygy", help="operator syzygy dimensions")
    p.add_argument("--algebra", choices=("H", "O"), required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--max-unknowns", type=int, default=400000)
    common(p, with_tol=False)

    p = sub.add_parser("cf-integral", help="reproducing integral on a sphere")
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--points", type=int, default=10)
    common(p)
    p.set_defaults(tol=1e-8)

    return parser


_COMMANDS = {
    "verify-identities": cmd_verify_identities,
    "check": cmd_check,
    "solve": cmd_solve,
    "extend": cmd_extend,
    "jump": cmd_jump,
    "syzygy": cmd_syzygy,
    "cf-integral": cmd_cf_integral,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        rep = handler(args)
    except (cs.BudgetExceeded, sz.ResourceBudget) as exc:
        print(f"error: resource budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    timings = {"total": time.perf_counter() - t0} if args.timings else None
    _emit(rep, args.format, timings)
    return _exit_code(rep)


if __name__ == "__main__":
    sys.exit(main())
