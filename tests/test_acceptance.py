"""Acceptance gate: every headline claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each criterion asserts its stated tolerance and prints
``ACCEPTANCE <k> PASS`` on success.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from crfbench.hypercomplex import DIM, HNumber
from crfbench.polycalc import (HPoly, compat_pbar, dbar_system, fueter_d,
                               fueter_dbar, fueter_transform, laplacian)
from crfbench.forms import Dqbar_form, Dq_form, Form, identity_lu1, \
    identity_lub, volume_block_form
from crfbench import crfsolve as cs
from crfbench import hypersurface as hs
from crfbench import integrate as ig
from crfbench import syzygy as sz


def _ok(k, message):
    print(f"ACCEPTANCE {k} PASS: {message}")


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


def coord(h, a, algebra="H", n=2):
    return HPoly.coordinate(algebra, n, h, a)


def counterexample_poly():
    j, k = HNumber.unit("H", 2), HNumber.unit("H", 3)
    return (coord(0, 1) * coord(1, 0)).mul_const_left(-j) + \
        (coord(0, 0) * coord(1, 0)).mul_const_left(k)


def regular_linear(rng):
    out = HPoly.constant("H", 2, 1).mul_const_right(
        HNumber("H", [Fraction(rng.randint(-2, 2)) for _ in range(4)]))
    for h in range(2):
        for a in (1, 2, 3):
            b = coord(h, a) - coord(h, 0).mul_const_left(HNumber.unit("H", a))
            out = out + b.mul_const_right(
                HNumber("H", [Fraction(rng.randint(-2, 2)) for _ in range(4)]))
    return out


def test_criterion_1_octonionic_syzygy_dimensions():
    """Degrees 0..2 of the octonionic two-variable syzygy module are
    (0, 0, 16), and the sixteen compatibility rows are independent and span
    degree two; the whole computation stays under five minutes."""
    t0 = time.time()
    dims = [sz.syzygy_dim("O", 2, k) for k in range(3)]
    assert dims == [0, 0, 16]
    rows = sz.all_compat_rows("O", 2)
    assert len(rows) == 16
    matrix = sz.build_dbar_matrix("O", 2)
    for row in rows:
        assert sz.verify_syzygy(row, matrix)
    rank = sz.compat_rows_rank("O", 2)
    assert rank == 16 == dims[2]
    elapsed = time.time() - t0
    assert elapsed < 300
    _ok(1, f"octonionic n=2 syzygy dims (0,0,16); 16 compatibility rows "
           f"independent and spanning ({elapsed:.1f}s)")


def test_criterion_2_incompatibility_witness_tables():
    """g_a = x_{b,0}^2 produces a residual exactly in slot (a, b): +2 for
    octonions (n = 2 and 3, every ordered pair), -2 for quaternions."""
    for n in (2, 3):
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                table = sz.independence_witness(a, b, "O", n)
                for (l, m), residual in table.items():
                    expected = 2 if (l, m) == (a, b) else 0
                    assert residual == HPoly.constant("O", n, expected), \
                        (n, a, b, l, m)
    for a in range(2):
        b = 1 - a
        table = sz.independence_witness(a, b, "H", 2)
        for key, residual in table.items():
            expected = -2 if key == (a, b) else 0
            assert residual == HPoly.constant("H", 2, expected)
    _ok(2, "witness residuals +2 (octonionic, all ordered pairs, n=2,3) "
           "and -2 (quaternionic), exact")


def test_criterion_3_cube_law_and_counterexample_goldens():
    """Laplacian cube law in both algebras, and the quadratic boundary
    function that is tangentially CRF yet non-admissible, all exact."""
    for algebra, factor in (("H", -4), ("O", -12)):
        q = HPoly.variable(algebra, 1, 0)
        lap = laplacian(q * q * q, 0)
        assert lap == (q.scale(2) + q.conj()).scale(factor), algebra
    S = hs.Hypersurface(coord(1, 3))
    f = counterexample_poly()
    assert hs.is_crf(f, S).holds
    rep = hs.is_admissible(f, S)
    assert not rep.admissible
    v1, v2 = rep.derived["y3"].witness_value
    assert v1 == HNumber("H", [-2, 0, 0, 0]) and v2.is_zero()
    for p in S.sample_points(5, seed=1):
        td = hs.derived_at(f, S, p)
        assert td.f_perp == HNumber("H", [-p[0], p[1], 0, 0])
    _ok(3, "cube law -4(2q+conj q) / -12(2q+conj q); counterexample CRF, "
           "non-admissible with residual -2 and normal part -x0 + x1 i, exact")


def test_criterion_4_reproducing_integral():
    """Constants and a seeded degree-one regular polynomial are reproduced at
    ten interior points to 1e-8; the integral vanishes outside; halving the
    step (doubling the order) reduces the error; all under ten seconds."""
    t0 = time.time()
    rng = random.Random(7)
    basis = [HPoly.constant("H", 1, 1)]
    for a in (1, 2, 3):
        basis.append(HPoly.coordinate("H", 1, 0, a)
                     - HPoly.coordinate("H", 1, 0, 0).mul_const_left(
                         HNumber.unit("H", a)))
    F = HPoly.zero("H", 1)
    for b in basis:
        F = F + b.mul_const_right(
            HNumber("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)]))
    assert fueter_dbar(F, 0).is_zero()
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 40)
    one = HPoly.constant("H", 1, 1)
    pts = []
    while len(pts) < 10:
        p = [rng.uniform(-0.45, 0.45) for _ in range(4)]
        if math.sqrt(sum(c * c for c in p)) <= 0.45:
            pts.append(tuple(p))
    worst = 0.0
    for q0 in pts:
        got = ig.cauchy_fueter_eval(one, rule, q0)
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(got.coeffs, (1.0, 0.0, 0.0, 0.0))))
        got = ig.cauchy_fueter_eval(F, rule, q0)
        want = F.evaluate(q0).to_float()
        worst = max(worst, max(abs(a - b)
                               for a, b in zip(got.coeffs, want.coeffs)))
    assert worst < 1e-8
    ext = ig.cauchy_fueter_raw(F, rule, (1.7, 0.4, -0.2, 0.9))
    ext_err = max(abs(c) for c in ext.coeffs)
    assert ext_err < 1e-8
    q0 = (0.5, -0.25, 0.3, 0.15)
    want = F.evaluate(q0).to_float()
    errs = []
    for order in (12, 24, 48):
        r = ig.sphere_rule((0, 0, 0, 0), 1.0, order)
        got = ig.cauchy_fueter_eval(F, r, q0)
        errs.append(max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)))
    assert errs[0] > errs[1] > errs[2]
    elapsed = time.time() - t0
    assert elapsed < 10
    _ok(4, f"reproduction at 10 interior points to 1e-8 (worst {worst:.2e}), "
           f"exterior {ext_err:.2e}, error drops {errs[0]:.1e} -> "
           f"{errs[1]:.1e} -> {errs[2]:.1e} ({elapsed:.1f}s)")


def test_criterion_5_operator_and_form_identities():
    """Volume identity (50 random), seven-form identity (20 random),
    Laplacian factorization and compatibility-of-images (100 random per
    algebra), all exact."""
    rng = random.Random(11)
    for _ in range(50):
        F = _rand_poly(rng, "H", 1)
        lhs, rhs = identity_lu1(F)
        assert lhs == rhs
    for _ in range(20):
        F = _rand_poly(rng, "H", 2, deg=2, terms=4)
        lhs, rhs = identity_lub(F)
        assert lhs == rhs
    for algebra in ("H", "O"):
        for _ in range(100):
            p = _rand_poly(rng, algebra, 2, deg=3, terms=4)
            h = rng.randrange(2)
            lap = laplacian(p, h)
            assert fueter_d(fueter_dbar(p, h), h) == lap
            assert fueter_dbar(fueter_d(p, h), h) == lap
        for _ in range(100):
            u = _rand_poly(rng, algebra, 2, deg=3, terms=4)
            assert all(r.is_zero() for r in compat_pbar(dbar_system(u)))
    _ok(5, "volume identity x50, seven-form identity x20, Laplacian "
           "factorization x100 and image compatibility x100 per algebra, exact")


def test_criterion_6_solver_round_trips():
    """Fifty exact solve round trips per algebra at degree <= 4, plus
    rejection of an incompatible right-hand side in both algebras."""
    rng = random.Random(2024)
    for algebra in ("H", "O"):
        for _ in range(50):
            u = _rand_poly(rng, algebra, 2, deg=4, terms=5)
            g = dbar_system(u)
            u2 = cs.solve_crf(g)
            assert list(dbar_system(u2)) == list(g)
    for algebra in ("H", "O"):
        exp = [0] * (2 * DIM[algebra])
        exp[DIM[algebra]] = 2
        g = [HPoly(algebra, 2, {tuple(exp): HNumber.from_real(algebra, 1)}),
             HPoly.zero(algebra, 2)]
        with pytest.raises(cs.CompatibilityViolation):
            cs.solve_crf(g)
    _ok(6, "50 exact round trips per algebra (degree <= 4) and incompatible "
           "rejection in both algebras")


def test_criterion_7_admissibility_extension_consistency():
    """Admissibility agrees with order-two extension feasibility on affine
    surfaces: at least 20 admissible and 5 non-admissible functions."""
    flat = hs.Hypersurface(coord(1, 3))
    tilted = hs.Hypersurface(
        coord(0, 0) + coord(1, 1).scale(2) - HPoly.constant("H", 2, 1))
    rng = random.Random(33)
    admissible_count = 0
    for i in range(20):
        S = flat if i % 2 == 0 else tilted
        f = regular_linear(rng) + S.rho * _rand_poly(rng, "H", 2, deg=1,
                                                     terms=3)
        assert hs.is_admissible(f, S).admissible
        F = cs.crf_extend(f, S, m=2)
        assert cs.rho_adic_digits(F - f, S, 1)[0].is_zero()
        admissible_count += 1
    counter = counterexample_poly()
    non_admissible = [
        (counter, flat),
        (counter.scale(2), flat),
        (counter + regular_linear(rng), flat),
        (HPoly.variable_conj("H", 2, 0), flat),
        (coord(0, 0) ** 2, flat),
        (HPoly.variable_conj("H", 2, 0), tilted),
    ]
    non_admissible_count = 0
    for f, S in non_admissible:
        assert not hs.is_admissible(f, S).admissible
        with pytest.raises(cs.NoPolynomialExtensionWithinBudget):
            cs.crf_extend(f, S, m=2)
        non_admissible_count += 1
    assert admissible_count >= 20 and non_admissible_count >= 5
    _ok(7, f"{admissible_count} admissible functions extend to order two and "
           f"{non_admissible_count} non-admissible ones are infeasible, exact")


def test_criterion_8_restriction_identities_and_transform():
    """Volume and tangential restriction identities at 20+ points on three
    surfaces (1e-10); the transform sends z^3 to q^3 (1e-12) and the
    Laplacian of the transformed complex reciprocal is -4 times the Cauchy
    kernel (1e-5, step-1e-4 finite differences)."""
    surfaces = [
        hs.Hypersurface(coord(1, 3)),
        hs.Hypersurface(coord(0, 0) + coord(1, 1).scale(2)
                        - HPoly.constant("H", 2, 1)),
        hs.Hypersurface(coord(0, 1) - coord(1, 0) + coord(1, 2).scale(3)
                        - HPoly.constant("H", 2, 2)),
    ]
    w1 = Dqbar_form("H", 2, 0).wedge(volume_block_form("H", 2, 1))
    w2 = volume_block_form("H", 2, 0).wedge(Dqbar_form("H", 2, 1))
    rng = random.Random(13)
    points_checked = 0
    for S in surfaces:
        for p in S.sample_points(7, seed=17):
            pf = tuple(float(x) for x in p)
            fr = S.oriented_tangent_frame(pf)
            nu1, nu2 = (v.to_float() for v in S.normal_at(pf))
            for w, nu in ((w1, nu1), (w2, nu2)):
                got = w.pullback_at(fr, pf).to_float()
                want = -nu.conj()
                assert max(abs(a - b) for a, b in
                           zip(got.coeffs, want.coeffs)) < 1e-10
            f = _rand_poly(rng, "H", 2, deg=3, terms=5)
            td = hs.derived_at(f, S, p)
            for h in range(2):
                one_form = Form.zero("H", 2, 1)
                for a in range(4):
                    one_form = one_form + Form(
                        "H", 2, 1, {(4 * h + a,): td.f_coord[4 * h + a]})
                lhs = Dq_form("H", 2, h).wedge(one_form)
                rhs = volume_block_form("H", 2, h).mul_left(-td.f_qbar[h])
                frame = S.tangent_vectors_rational(p, 4, seed=points_checked)
                assert lhs.pullback_at(frame, p) == rhs.pullback_at(frame, p)
            points_checked += 1
    assert points_checked >= 20

    def u_cube(x, y):
        return x ** 3 - 3 * x * y ** 2

    def v_cube(x, y):
        return 3 * x ** 2 * y - y ** 3

    golden = fueter_transform(
        u_cube, v_cube, HNumber("H", [1.0, 2.0, 0.0, 0.0], "float"))
    assert max(abs(a - b) for a, b in
               zip(golden.coeffs, (-11.0, -2.0, 0.0, 0.0))) < 1e-12
    for _ in range(10):
        q = tuple(rng.uniform(-1.5, 1.5) for _ in range(4))
        if sum(c * c for c in q[1:]) < 1e-4:
            continue
        qh = HNumber("H", list(q), "float")
        got = fueter_transform(u_cube, v_cube, qh)
        want = qh * qh * qh
        assert max(abs(a - b)
                   for a, b in zip(got.coeffs, want.coeffs)) < 1e-12

    def u_inv(x, y):
        return x / (x * x + y * y)

    def v_inv(x, y):
        return -y / (x * x + y * y)

    def transformed(q):
        return fueter_transform(u_inv, v_inv, HNumber("H", list(q), "float"))

    step = 1e-4
    worst = 0.0
    for q in [(0.9, 0.7, -0.5, 0.3), (-1.1, 0.4, 0.8, -0.6),
              (0.3, -1.2, 0.5, 0.7)]:
        lap = [0.0] * 4
        base = transformed(q)
        for i in range(4):
            hi = list(q)
            lo = list(q)
            hi[i] += step
            lo[i] -= step
            up, dn = transformed(tuple(hi)), transformed(tuple(lo))
            for c in range(4):
                lap[c] += (up.coeffs[c] - 2 * base.coeffs[c]
                           + dn.coeffs[c]) / step ** 2
        want = ig.cf_kernel_value(q, (0, 0, 0, 0)).scale(-4.0)
        worst = max(worst, max(abs(a - b)
                               for a, b in zip(lap, want.coeffs)))
    assert worst < 1e-5
    _ok(8, f"restriction identities at {points_checked} points x 3 surfaces "
           f"(1e-10/exact); cube transform golden (1e-12); kernel Laplacian "
           f"match (worst {worst:.1e} < 1e-5)")
