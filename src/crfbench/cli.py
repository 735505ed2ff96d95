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

Reports are JSON (default), exactly ``json.dumps(report, indent=2,
sort_keys=True)``, or aligned text via ``--format table``.  Default output is
deterministic byte for byte for fixed inputs; ``--timings`` adds wall-clock
data and waives that guarantee.  Exit codes: 0 all checks passed, 1 a check
failed or the problem is infeasible, 2 invalid input, 3 resource budget
exhausted (an unknown cap, or memory), 4 an exact self-check of a computed
answer failed (a program fault, never a verdict on the input).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .hypercomplex import DIM, HNumber
from .linalg import BudgetExceeded
from .polycalc import (SCHEMA_VERSION, HPoly, _from_int_terms, compat_pbar,
                       dbar_system, fueter_d, fueter_dbar, laplacian)
from . import forms
from . import hypersurface as hsur
from . import integrate as ig
from . import crfsolve as cs
from . import syzygy as sz


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _check(name, ok, value=None, tol=None, backend="exact"):
    """One report check.  A non-finite float value fails the check and is
    written as a string ("nan", "inf"), which JSON can carry."""
    if isinstance(value, float) and not math.isfinite(value):
        ok, value = False, str(value)
    entry = {"name": name, "status": "pass" if ok else "fail",
             "backend": backend}
    if value is not None:
        entry["value"] = value
    if tol is not None:
        entry["tol"] = tol
    return entry


def _report(command, inputs, checks, result=None, seed=0):
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


def _dumps(obj, pad):
    """``json.dumps(obj, indent=2, sort_keys=True)`` at indent ``pad``, byte
    for byte; a list of only strs or only ints (no bool) joins at C speed."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        return "{\n" + ",\n".join(
            f"{inner}{_quote(k)}: {_dumps(v, inner)}"
            for k, v in sorted(obj.items())) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        items = (map(_quote, obj) if kinds == {str} else
                 map(int.__repr__, obj) if kinds == {int} else
                 [_dumps(x, inner) for x in obj])
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    return json.dumps(obj)


def _emit(rep, fmt, timings=None):
    if timings is not None:
        rep = dict(rep)
        rep["timings"] = timings
    if fmt == "json":
        print(_dumps(rep, ""))
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


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _load_payload(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    version = payload.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValueError("unsupported or missing schema_version")
    return payload


def _loader(load):
    """A payload loader that reports a missing key as invalid input."""
    def wrapped(path):
        try:
            return load(path)
        except KeyError as exc:
            raise ValueError(f"missing key {exc}") from None
    return wrapped


@_loader
def _load_function_surface(path):
    payload = _load_payload(path)
    f = HPoly.from_json(payload["f"])
    if f.algebra != "H" or f.n != 2:
        raise ValueError("f must be quaternionic in two variables")
    if not isinstance(payload["surface"], dict):
        raise ValueError("surface must be a JSON object")
    S = hsur.Hypersurface(HPoly.from_json(payload["surface"]["rho"]))
    return payload, f, S


@_loader
def _load_system(path):
    payload = _load_payload(path)
    g = payload["g"]
    if not isinstance(g, list) or not g:
        raise ValueError("g must be a nonempty list")
    return payload, [HPoly.from_json(item) for item in g]


def _rand_poly(rng, algebra, n, deg=3, terms=5):
    """A sum of ``terms`` random monomials of degree at most ``deg`` with
    integer coefficients in [-2, 2]; a repeated monomial adds to the earlier
    one, and a sum that cancels drops (a later draw of it comes last)."""
    width = DIM[algebra] * n
    d = DIM[algebra]
    acc = {}
    for _ in range(terms):
        exp = [0] * width
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(width)] += 1
        ints = [rng.randint(-2, 2) for _ in range(d)]
        if not any(ints):
            continue
        exp = tuple(exp)
        if exp in acc:
            ints = [a + b for a, b in zip(acc[exp], ints)]
            if not any(ints):
                del acc[exp]
                continue
        acc[exp] = ints
    return _from_int_terms(algebra, n, acc, 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_identities(args):
    algebras = ["H", "O"] if args.algebra == "both" else [args.algebra]
    if args.count < 1:
        raise ValueError("count must be at least 1")
    if args.n < 2 or ("H" in algebras and args.n != 2):
        raise ValueError("the quaternionic compatibility pair needs n == 2, "
                         "the octonionic residuals n >= 2")
    rng = random.Random(args.seed)
    checks = []
    count = args.count
    for algebra in algebras:
        n = args.n
        # lists, not generators: every draw is made whatever the verdicts
        checks.append(_check(f"laplacian_factorization_{algebra}", all([
            fueter_d(fueter_dbar(p, h), h) == laplacian(p, h)
            == fueter_dbar(fueter_d(p, h), h)
            for p in [_rand_poly(rng, algebra, n) for _ in range(count)]
            for h in range(n)])))
        checks.append(_check(f"compatibility_of_images_{algebra}", all([
            all(r.is_zero() for r in compat_pbar(dbar_system(
                _rand_poly(rng, algebra, n)))) for _ in range(count)])))
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
        checks.append(_check("volume_identity_one_variable", all([
            lhs == rhs for lhs, rhs in (
                forms.identity_lu1(_rand_poly(rng, "H", 1))
                for _ in range(count))])))
        checks.append(_check("seven_form_identity_two_variables", all([
            lhs == rhs for lhs, rhs in (
                forms.identity_lub(_rand_poly(rng, "H", 2, deg=2, terms=4))
                for _ in range(max(2, count // 2)))])))
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
    return _report("verify-identities", inputs, checks, seed=args.seed)


def cmd_check(args):
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    payload, f, S = _load_function_surface(args.input)
    checks = []
    rep = hsur.is_admissible(f, S, tol=args.tol)
    crf = rep.crf
    backend = crf.backend
    checks.append(_check("tangentially_crf", crf.holds, backend=backend))
    checks.append(_check("admissible", rep.admissible, backend=backend))
    bad = sorted(name for name, sub in rep.derived.items() if not sub.holds)
    result = {"derived_failures": bad}
    if crf.holds:
        pts = S.sample_points(args.samples, seed=args.seed)
        ok = all(hsur.rank_condition(f, S, p, tol=args.tol) for p in pts)
        checks.append(_check("pointwise_rank_condition", ok,
                             tol=args.tol, backend=backend))
    return _report("check", payload, checks, result=result, seed=args.seed)


def cmd_solve(args):
    payload, g = _load_system(args.input)
    try:
        u = cs.solve_crf(g, max_unknowns=args.max_unknowns)
    except cs.CompatibilityViolation as exc:
        checks = [_check("solvable", False, value=str(exc))]
        return _report("solve", payload, checks)
    # solve_crf verified dbar_system(u) == g exactly; a failure exits 4
    checks = [_check("solvable", True), _check("verified_exactly", True)]
    return _report("solve", payload, checks,
                   result={"u": u.to_json()})


def cmd_extend(args):
    payload, f, S = _load_function_surface(args.input)
    try:
        F = cs.crf_extend(f, S, m=args.order_m, budget=args.budget,
                          max_unknowns=args.max_unknowns)
    except cs.NoPolynomialExtensionWithinBudget as exc:
        checks = [_check("extension_exists", False, value=str(exc))]
        return _report("extend", payload, checks)
    checks = [_check("extension_exists", True),
              _check("restriction_matches",
                     cs.rho_adic_digits(F - f, S, 1)[0].is_zero())]
    return _report("extend", payload, checks,
                   result={"F": F.to_json(), "m": args.order_m})


def cmd_jump(args):
    payload, f, S = _load_function_surface(args.input)
    try:
        Fp, Fm = cs.jump_split(f, S, budget=args.budget,
                               max_unknowns=args.max_unknowns)
    except cs.NotAdmissibleOrBudget as exc:
        checks = [_check("splittable", False, value=str(exc))]
        return _report("jump", payload, checks)
    u = dbar_system(Fp)
    checks = [_check("splittable", True),
              _check("plus_side_regular",
                     all(c.is_zero() for c in u))]
    return _report("jump", payload, checks,
                   result={"F_plus": Fp.to_json(), "F_minus": Fm.to_json()})


def cmd_syzygy(args):
    inputs = {"algebra": args.algebra, "n": args.n, "degree": args.degree}
    if args.degree < 0:
        raise ValueError("degree must be nonnegative")
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
    return _report("syzygy", inputs, checks, result=result)


def _worst(errors):
    """The largest error; nan when any is nan (``max`` can drop a nan)."""
    return math.nan if any(map(math.isnan, errors)) else max(errors)


def cmd_cf_integral(args):
    inputs = {"order": args.order, "radius": args.radius,
              "points": args.points, "tol": args.tol}
    if args.points < 1:
        raise ValueError("points must be at least 1")
    try:
        area = 2.0 * math.pi ** 2 * args.radius ** 3
    except OverflowError:
        area = math.inf
    if not 0.0 < area < math.inf:
        raise ValueError("radius must be finite and positive, with a finite "
                         "nonzero sphere area 2 pi^2 r^3")
    # the kernel divides by |q - q0|^4, and every q - q0 below (interior
    # points within 0.45 r of the centre, the exterior point at about 2.06 r)
    # has a length between r/2 and 4 r
    try:
        scales = ((args.radius / 2) ** 4, (4 * args.radius) ** 4)
    except OverflowError:
        scales = (math.inf,)
    if not all(sys.float_info.min <= k <= sys.float_info.max for k in scales):
        raise ValueError("radius must keep the kernel scale |q - q0|^4, for "
                         "|q - q0| from r/2 to 4 r, in the normal float range")
    rng = random.Random(args.seed)
    rule = ig.sphere_rule((0, 0, 0, 0), args.radius, args.order)
    checks = []
    werr = abs(ig._exact_sums(rule.weights[None, :])[0] - area) / area
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
    inside = []
    while len(inside) < args.points:
        q0 = [rng.uniform(-0.45, 0.45) * args.radius for _ in range(4)]
        if math.sqrt(sum(c * c for c in q0)) <= 0.45 * args.radius:
            inside.append(q0)
    q_out = (2.0 * args.radius, 0.0, 0.5 * args.radius, 0.0)
    *got, ext = ig.cauchy_fueter_points(F, rule, inside, [q_out])
    worst = _worst([abs(a - b) for q0, v in zip(inside, got) for a, b in
                    zip(v.coeffs, F.evaluate(tuple(q0)).to_float().coeffs)])
    checks.append(_check("interior_reproduction", worst < args.tol,
                         value=worst, tol=args.tol, backend="float"))
    ext_err = _worst([abs(c) for c in ext.coeffs])
    checks.append(_check("exterior_vanishing", ext_err < args.tol,
                         value=ext_err, tol=args.tol, backend="float"))
    return _report("cf-integral", inputs, checks, seed=args.seed)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built once per process; ``parse_args`` leaves
    it unchanged."""
    parser = argparse.ArgumentParser(
        prog="crfbench",
        description="verification workbench for quaternionic and octonionic "
                    "conjugate-Fueter analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def tolerance(text):
        value = float(text)
        if not (math.isfinite(value) and value >= 0.0):
            raise argparse.ArgumentTypeError(
                f"tolerance must be finite and nonnegative: {text!r}")
        return value

    def common(p, with_tol=True):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (non-deterministic)")
        if with_tol:
            p.add_argument("--tol", type=tolerance, default=1e-10)

    p = sub.add_parser("verify-identities",
                       help="seeded operator and form identity suite")
    p.add_argument("--algebra", choices=("H", "O", "both"), default="both")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    common(p, with_tol=False)

    p = sub.add_parser("check", help="CRF/admissibility report "
                       "(exit 0 only for admissible data)")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
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
        if getattr(args, "max_unknowns", 1) < 1:
            raise ValueError("max-unknowns must be at least 1")
        rep = handler(args)
    except (BudgetExceeded, MemoryError) as exc:
        print(f"error: resource budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4
    timings = {"total": time.perf_counter() - t0} if args.timings else None
    _emit(rep, args.format, timings)
    return 0 if rep["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
