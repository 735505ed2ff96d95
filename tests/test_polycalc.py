"""Fueter-calculus oracles: frozen derivative values, operator identities."""

import math
import random
from fractions import Fraction

import pytest

from crfbench import hypercomplex, polycalc
from crfbench.cli import _rand_poly
from crfbench.forms import PoleRingElement, pole_fueter_dbar_right
from crfbench.hypercomplex import DIM, AlgebraMismatch, HNumber
from crfbench.polycalc import (
    HPoly,
    compat_pbar,
    dbar_system,
    fueter_d,
    fueter_dbar,
    fueter_transform,
    laplacian,
)
from oracles import number_json


def rand_poly(rng, algebra, n, max_deg, n_terms, span=3, den=1):
    """Random terms with components p/q, |p| <= span, 1 <= q <= den."""
    def component():
        num = rng.randint(-span, span)
        return Fraction(num, rng.randint(1, den)) if den > 1 else Fraction(num)

    d = DIM[algebra]
    terms = {}
    for _ in range(n_terms):
        exp = [0] * (d * n)
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(d * n)] += 1
        coef = HNumber(algebra, [component() for _ in range(d)])
        terms[tuple(exp)] = terms.get(tuple(exp), HNumber.zero(algebra)) + coef
    return HPoly(algebra, n, terms)


# ---------------------------------------------------------------------------
# frozen first-order values
# ---------------------------------------------------------------------------

def test_partial_of_coordinate():
    x0 = HPoly.coordinate("H", 1, 0, 0)
    assert x0.partial_flat(0) == HPoly.constant("H", 1, 1)
    assert x0.partial_flat(1).is_zero()


def test_dbar_of_variable_is_minus_two():
    q = HPoly.variable("H", 1, 0)
    assert fueter_dbar(q, 0) == HPoly.constant("H", 1, -2)
    # octonionic analog: 1 - 7 = -6
    p = HPoly.variable("O", 1, 0)
    assert fueter_dbar(p, 0) == HPoly.constant("O", 1, -6)


def test_dbar_of_conj_variable_is_dim():
    qb = HPoly.variable_conj("H", 1, 0)
    assert fueter_dbar(qb, 0) == HPoly.constant("H", 1, 4)
    pb = HPoly.variable_conj("O", 1, 0)
    assert fueter_dbar(pb, 0) == HPoly.constant("O", 1, 8)


def test_dbar_ignores_other_variables():
    rng = random.Random(11)
    for _ in range(20):
        p = rand_poly(rng, "H", 2, 3, 4)
        # a polynomial in the second variable only is annihilated by dbar_0
        q_only = HPoly("H", 2, {e: c for e, c in p.terms.items() if not any(e[:4])})
        assert fueter_dbar(q_only, 0).is_zero()


def test_dbar_system_of_second_variable():
    q2 = HPoly.variable("H", 2, 1)
    s = dbar_system(q2)
    assert s[0].is_zero()
    assert s[1] == HPoly.constant("H", 2, -2)


def test_laplacian_of_cubed_variable_golden():
    # Delta q^3 = -2(d-2)(2q + conj q): -4 for quaternions, -12 for octonions
    # (hand derivation via q^3 = x0^3 - 3 x0 s + (3 x0^2 - s) v, s = |Im q|^2)
    for algebra, factor in (("H", -4), ("O", -12)):
        q = HPoly.variable(algebra, 1, 0)
        qb = HPoly.variable_conj(algebra, 1, 0)
        lhs = laplacian(q ** 3, 0)
        rhs = (2 * q + qb).scale(factor)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# operator identities on random polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algebra", ["H", "O"])
def test_laplacian_factorization_both_orders(algebra):
    rng = random.Random(12)
    for _ in range(100):
        p = rand_poly(rng, algebra, 2, 4, 4)
        h = rng.randrange(2)
        a = fueter_d(fueter_dbar(p, h), h)
        b = fueter_dbar(fueter_d(p, h), h)
        c = laplacian(p, h)
        assert a == c
        assert b == c


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_laplacian_commutes_with_dbar(algebra):
    # the Laplacian is a scalar operator, so it commutes with the
    # unit-multiplying Fueter operators in any variable; the Fueter operators
    # of *different* variables do not commute with each other.
    rng = random.Random(13)
    for _ in range(50):
        p = rand_poly(rng, algebra, 2, 4, 4)
        assert laplacian(fueter_dbar(p, 0), 1) == fueter_dbar(laplacian(p, 1), 0)
        assert laplacian(fueter_dbar(p, 0), 0) == fueter_dbar(laplacian(p, 0), 0)


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_compat_residuals_annihilate_gradients(algebra):
    # P-bar of dbar_system(u) vanishes identically for every polynomial u
    rng = random.Random(14)
    for _ in range(100):
        u = rand_poly(rng, algebra, 2, 4, 4)
        g = dbar_system(u)
        for r in compat_pbar(g):
            assert r.is_zero()


def test_compat_residual_octonion_witness():
    # g = (x_{1,0}^2, 0): exactly the (0,1) residual fires, with value 2
    x = HPoly.coordinate("O", 2, 1, 0)
    g = [x * x, HPoly.zero("O", 2)]
    res = compat_pbar(g)
    assert res[0] == HPoly.constant("O", 2, 2)
    assert res[1].is_zero()


def test_compat_residual_quaternion_incompatible_example():
    # g = (y_0^2, 0) is not a dbar_system image: first residual = -2
    y0 = HPoly.coordinate("H", 2, 1, 0)
    g = [y0 * y0, HPoly.zero("H", 2)]
    res = compat_pbar(g)
    assert res[0] == HPoly.constant("H", 2, -2)
    assert res[1].is_zero()


def dbar_right(p, h):
    """sum_a dp/dx_{h,a} * i_a, by the pole ring's right-unit route."""
    return pole_fueter_dbar_right(PoleRingElement.from_poly(p), h).num


def test_right_operators_smoke():
    q = HPoly.variable("H", 1, 0)
    assert dbar_right(q, 0) == HPoly.constant("H", 1, -2)
    with pytest.raises(ValueError):
        dbar_right(HPoly.variable("O", 1, 0), 0)


def test_left_linearity_over_right_constants():
    # dbar(p * c) == dbar(p) * c for constant quaternions (associativity)
    rng = random.Random(16)
    for _ in range(50):
        p = rand_poly(rng, "H", 2, 3, 4)
        c = HNumber("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        assert fueter_dbar(p.mul_const_right(c), 0) == \
            fueter_dbar(p, 0).mul_const_right(c)


# ---------------------------------------------------------------------------
# stencil oracle: every operator against its definition
# ---------------------------------------------------------------------------

def fueter_by_definition(p, h, conjugate, right):
    """sum_a u_a * dp/dx_{h,a} from partial_flat and unit products."""
    d = DIM[p.algebra]
    out = HPoly.zero(p.algebra, p.n)
    for alpha in range(d):
        u = HNumber.unit(p.algebra, alpha)
        if conjugate:
            u = u.conj()
        part = p.partial_flat(d * h + alpha)
        out = out + HPoly(p.algebra, p.n, {
            e: (c * u if right else u * c) for e, c in part.terms.items()})
    return out


def laplacian_by_definition(p, h):
    out = HPoly.zero(p.algebra, p.n)
    for alpha in range(p.dim):
        i = p.dim * h + alpha
        out = out + p.partial_flat(i).partial_flat(i)
    return out


STENCIL_OPERATORS = {
    "fueter_dbar": (fueter_dbar, False, False),
    "fueter_d": (fueter_d, True, False),
    "pole_fueter_dbar_right": (dbar_right, False, True),
}


@pytest.mark.parametrize("algebra", ["H", "O"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_operators_match_their_definition(algebra, n):
    rng = random.Random(1000 + 10 * n + (algebra == "O"))
    for _ in range(6):
        p = rand_poly(rng, algebra, n, 3, 6, span=5, den=4)
        for h in range(n):
            for name, (op, conjugate, right) in STENCIL_OPERATORS.items():
                if right and algebra != "H":
                    continue
                assert op(p, h) == fueter_by_definition(
                    p, h, conjugate, right), (name, h)
            assert laplacian(p, h) == laplacian_by_definition(p, h)


# ---------------------------------------------------------------------------
# slice-function lift
# ---------------------------------------------------------------------------

def test_fueter_transform_cube():
    # u + iv = (x + iy)^3 lifts z^3 to q^3
    u = lambda x, y: x ** 3 - 3 * x * y ** 2
    v = lambda x, y: 3 * x ** 2 * y - y ** 3
    rng = random.Random(17)
    for _ in range(20):
        q = HNumber("H", [rng.uniform(-2, 2) for _ in range(4)], backend="float")
        expected = q * q * q
        got = fueter_transform(u, v, q)
        for a, b in zip(got.coeffs, expected.coeffs):
            assert abs(a - b) < 1e-12


def test_fueter_transform_identity_at_j():
    # F(z) = z lifted and evaluated at q = j gives j
    qj = HNumber.unit("H", 2).to_float()
    got = fueter_transform(lambda x, y: x, lambda x, y: y, qj)
    assert got == qj


def test_fueter_transform_cube_golden_value():
    # (1 + 2i)^3 = -11 - 2i, computed by hand
    u = lambda x, y: x ** 3 - 3 * x * y ** 2
    v = lambda x, y: 3 * x ** 2 * y - y ** 3
    q = HNumber("H", (1.0, 2.0, 0.0, 0.0), backend="float")
    got = fueter_transform(u, v, q)
    assert abs(got.coeffs[0] + 11) < 1e-12
    assert abs(got.coeffs[1] + 2) < 1e-12


def test_fueter_transform_axis():
    q = HNumber("H", (2.0, 0.0, 0.0, 0.0), backend="float")
    got = fueter_transform(lambda x, y: x * x, lambda x, y: y, q)
    assert got.coeffs == (4.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fueter_transform(lambda x, y: x, lambda x, y: 1.0 + y, q)


# ---------------------------------------------------------------------------
# ring mechanics / io
# ---------------------------------------------------------------------------

def test_product_coefficient_order():
    # (i x) * (j x) = k x^2 while (j x) * (i x) = -k x^2
    x = HPoly.coordinate("H", 1, 0, 0)
    i, j, k = (HNumber.unit("H", a) for a in (1, 2, 3))
    assert x.mul_const_left(i) * x.mul_const_left(j) == (x * x).mul_const_left(k)
    assert x.mul_const_left(j) * x.mul_const_left(i) == (x * x).mul_const_left(-k)


def test_evaluate_exact_and_float():
    q = HPoly.variable("H", 1, 0)
    p = q * q
    v = p.evaluate((Fraction(1), Fraction(2), Fraction(0), Fraction(0)))
    assert v == HNumber("H", (-3, 4, 0, 0))
    vf = p.evaluate((1.0, 2.0, 0.0, 0.0))
    assert vf.backend == "float"
    assert abs(vf.coeffs[0] + 3) < 1e-14 and abs(vf.coeffs[1] - 4) < 1e-14


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_exact_evaluation_keeps_fractions_for_int_fraction_and_mixed_points(
        algebra):
    """Int, Fraction and mixed points give the same exact value, with
    Fraction components, equal to the term-by-term Fraction sum."""
    rng = random.Random(22)
    for _ in range(20):
        p = rand_poly(rng, algebra, 2, 4, 6, den=3)
        ints = [rng.randint(-3, 3) for _ in range(p.width)]
        fracs = [Fraction(x) for x in ints]
        mixed = [x if i % 2 else Fraction(x) for i, x in enumerate(ints)]
        want = [Fraction(0)] * p.dim
        for exp, coef in p.terms.items():
            m = math.prod(Fraction(x) ** e for x, e in zip(ints, exp))
            for idx, c in enumerate(coef.coeffs):
                want[idx] += c * m
        for pt in (ints, fracs, mixed):
            got = p.evaluate(pt)
            assert got.backend == "exact"
            assert list(got.coeffs) == want
            assert all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_integer_evaluation_and_gradient_match_the_partials(algebra):
    """The integer ``evaluate`` and the one-pass gradient equal
    ``partial_flat(i).evaluate`` (and the Fraction term sum) at int points
    and at points with mixed denominators, for random, zero and constant
    polynomials."""
    rng = random.Random(23)
    polys = [rand_poly(rng, algebra, 2, 4, 6, den=5) for _ in range(25)]
    polys += [HPoly.zero(algebra, 2), HPoly.constant(algebra, 2, 0),
              HPoly.constant(algebra, 2, Fraction(-7, 3))]
    for p in polys:
        ints = [rng.randint(-3, 3) for _ in range(p.width)]
        mixed = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 7)))
                 if i % 3 else rng.randint(-3, 3) for i in range(p.width)]
        for pt in (ints, mixed):
            want = [Fraction(0)] * p.dim
            for exp, coef in p.terms.items():
                m = math.prod(Fraction(x) ** e for x, e in zip(pt, exp))
                for idx, c in enumerate(coef.coeffs):
                    want[idx] += c * m
            got = p.evaluate(pt)
            assert list(got.coeffs) == want
            assert all(type(c) is Fraction for c in got.coeffs)
            den, rows = polycalc._int_gradient(p, pt)
            assert len(rows) == p.width
            for i, row in enumerate(rows):
                assert [Fraction(v, den) for v in row] == \
                    list(p.partial_flat(i).evaluate(pt).coeffs)
    with pytest.raises(ValueError):
        polycalc._int_gradient(polys[0], (0,) * 3)


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_float_evaluation_is_the_insertion_order_sum(algebra):
    """Float points sum float(c) * m over the terms in insertion order, bit
    for bit."""
    def check(p, pt):
        want = [0.0] * p.dim
        for exp, coef in p.terms.items():
            m = 1.0
            for x, e in zip(pt, exp):
                if e:
                    m *= x ** e
            for idx, c in enumerate(coef.coeffs):
                if c:
                    want[idx] += float(c) * m
        got = p.evaluate(pt)
        assert got.backend == "float"
        assert [v.hex() for v in got.coeffs] == [v.hex() for v in want]

    rng = random.Random(21)
    for _ in range(50):
        p = rand_poly(rng, algebra, 2, 4, 6, den=3)
        pt = [rng.uniform(-2, 2) for _ in range(p.width)]
        check(p, pt)
    # components above 2^64 over large denominators
    big = random.Random(32)
    d = DIM[algebra]
    for _ in range(20):
        terms = {}
        for _ in range(5):
            exp = tuple(big.randint(0, 2) for _ in range(2 * d))
            terms[exp] = HNumber(algebra, [
                Fraction(big.randint(-2 ** 90, 2 ** 90),
                         big.randint(1, 2 ** 70)) for _ in range(d)])
        p = HPoly(algebra, 2, terms)
        check(p, [big.uniform(-2, 2) for _ in range(p.width)])


def test_json_roundtrip():
    rng = random.Random(19)
    p = rand_poly(rng, "O", 2, 3, 5)
    assert HPoly.from_json(p.to_json()) == p
    blob = p.to_json()
    assert blob["schema_version"] == 1
    assert blob["terms"] == sorted(blob["terms"], key=lambda t: t["exp"])


def test_compat_pbar_input_validation():
    with pytest.raises(ValueError):
        compat_pbar([HPoly.zero("H", 3)] * 3)  # quaternionic needs n == 2
    with pytest.raises(ValueError):
        compat_pbar([HPoly.zero("H", 2)])      # wrong length


# ---------------------------------------------------------------------------
# the integer form
# ---------------------------------------------------------------------------

def scratch_form(p):
    """(den, rows) computed from p's Fraction coefficients alone: the lcm of
    the component denominators and each term's components times it."""
    den = math.lcm(*[c.denominator for coef in p.terms.values()
                     for c in coef.coeffs])
    return den, {e: [c.numerator * (den // c.denominator) for c in coef.coeffs]
                 for e, coef in p.terms.items()}


def assert_carries_form(p):
    assert p._ints is not None, "result built without its integer form"
    assert p._ints == scratch_form(p)


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_kernel_results_carry_the_canonical_integer_form(algebra):
    rng = random.Random(20)
    n = 2
    for _ in range(6):
        p = rand_poly(rng, algebra, n, 3, 5, den=6)
        q = rand_poly(rng, algebra, n, 2, 3, den=4)
        for h in range(n):
            for op in (fueter_dbar, fueter_d, laplacian):
                assert_carries_form(op(p, h))
            assert_carries_form(fueter_d(fueter_dbar(p, h), h))
            assert_carries_form(fueter_dbar(fueter_d(p, h), h))
            assert_carries_form(laplacian(fueter_dbar(p * q, h), 1 - h))
        assert_carries_form(p * q)
        assert_carries_form(q * p * q)
        assert_carries_form(q ** 3)
        assert_carries_form(_rand_poly(rng, algebra, n))
        # operands keep theirs: the kernels only read cached rows
        assert_carries_form(p)
        assert_carries_form(q)


def assert_form(p, want):
    """p holds exactly the pair ``want``, its terms in want's order."""
    assert_carries_form(p)
    assert p._ints == want
    assert list(p._ints[1]) == list(want[1])


def input_form(algebra, terms):
    """The canonical pair of a constructor's input {exp: coefficient}, real
    scalars embedded and zero coefficients dropped, in the input's order."""
    coefs = {}
    for exp, c in terms.items():
        if not isinstance(c, HNumber):
            c = HNumber.from_real(algebra, c)
        if not c.is_zero():
            coefs[tuple(exp)] = c.coeffs
    den = math.lcm(*[x.denominator for cs in coefs.values() for x in cs])
    return den, {e: [x.numerator * (den // x.denominator) for x in cs]
                 for e, cs in coefs.items()}


@pytest.mark.parametrize("comps", [
    ["1", "-2/3", 0, 7],                    # canonical strings and ints
    ["2/4", "-0", "+3", " 1 "],             # read by Fraction or reduced
    ["1.5", "1e2", "1_000", "-6/8"],
    [0, "0", "-0", "0/5"],                  # a zero coefficient drops
])
def test_from_json_builds_the_integer_form_of_the_constructor(comps):
    """HPoly.from_json builds ``_ints`` straight from the payload; it equals
    the constructor's, fed the components through ``Fraction``, term order
    included."""
    blob = {"algebra": "H", "n": 1, "terms": [
        {"exp": [1, 0, 0, 0], "coef": {"algebra": "H", "c": comps}},
        {"exp": [0, 2, 0, 0],
         "coef": {"algebra": "H", "c": ["1/6", 0, "-5", "3/9"]}},
        {"exp": [0, 0, 0, 1],
         "coef": {"algebra": "H", "c": [0, "0/7", "-0", "0"]}},
        {"exp": [0, 0, 0, 0],
         "coef": {"algebra": "H", "c": ["-7/21", "4", 0, "10/4"]}}]}
    want = HPoly("H", 1, {
        tuple(t["exp"]): HNumber("H", [Fraction(c) for c in t["coef"]["c"]])
        for t in blob["terms"]})
    got = HPoly.from_json(blob)
    assert got._ints == want._ints
    assert list(got._ints[1]) == list(want._ints[1])


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_constructors_store_the_canonical_integer_form(algebra):
    """HPoly(...), the named constructors and from_json store the canonical
    pair of their input, its terms in the input's order: fractional and
    integral components, real-scalar coefficients, zero coefficients
    dropped."""
    rng = random.Random(30)
    d, n = DIM[algebra], 2
    for _ in range(30):
        terms = {}
        for _ in range(6):
            exp = tuple(rng.randint(0, 2) for _ in range(d * n))
            roll = rng.random()
            if roll < 0.2:
                terms[exp] = HNumber.zero(algebra)
            elif roll < 0.35:
                terms[exp] = rand_rational(rng)
            elif roll < 0.45:
                terms[exp] = rng.randint(-2, 2)
            else:
                terms[exp] = HNumber(algebra, [rand_rational(rng)
                                               for _ in range(d)])
        p = HPoly(algebra, n, terms)
        assert_form(p, input_form(algebra, terms))
        # from_json keeps the payload's term order, sorted or not
        blob = p.to_json()
        rng.shuffle(blob["terms"])
        q = HPoly.from_json(blob)
        assert_form(q, input_form(algebra, {
            tuple(t["exp"]): HNumber.from_json(t["coef"])
            for t in blob["terms"]}))
        assert q == p
    width = d * n
    zero = (0,) * width
    unit = [tuple(int(i == k) for i in range(width)) for k in range(d)]
    cases = [
        (HPoly.constant(algebra, n, Fraction(-6, 4)),
         (2, {zero: [-3] + [0] * (d - 1)})),
        (HPoly.constant(algebra, n, 0), (1, {})),
        (HPoly.constant(algebra, n, HNumber(algebra, [Fraction(1, 6)] * d)),
         (6, {zero: [1] * d})),
        (HPoly.coordinate(algebra, n, 0, d - 1),
         (1, {unit[d - 1]: [1] + [0] * (d - 1)})),
        (HPoly.variable(algebra, n, 0),
         (1, {unit[k]: [int(i == k) for i in range(d)] for k in range(d)})),
        (HPoly.zero(algebra, n), (1, {})),
    ]
    for p, want in cases:
        assert_form(p, want)


@pytest.mark.parametrize("algebra,n", [("H", 2), ("O", 2), ("O", 3)])
def test_compat_pbar_leaves_cached_forms_canonical(algebra, n):
    rng = random.Random(21)
    g = [rand_poly(rng, algebra, n, 3, 4, den=6) for _ in range(n)]
    first = compat_pbar(g)
    for comp in g:
        assert_carries_form(comp)
    for r in first:
        assert r._ints == scratch_form(r)
    # a second pass reads the cached forms and agrees with the first
    assert compat_pbar(g) == first


def test_derivative_dropping_every_fraction_normalises_the_form():
    one, third = HNumber.one("H"), HNumber.from_real("H", Fraction(1, 3))
    p = HPoly("H", 2, {(2, 0, 0, 0, 0, 0, 0, 0): one,
                       (0, 0, 0, 0, 1, 0, 0, 0): third})
    assert p._ints[0] == 3
    out = fueter_dbar(p, 0)
    assert out == HPoly.coordinate("H", 2, 0, 0).scale(2)
    assert out._ints == (1, {(1, 0, 0, 0, 0, 0, 0, 0): [2, 0, 0, 0]})


def test_derivative_cancelling_to_zero_has_the_zero_form():
    # x1 - x0 i is left regular: dbar of a third of it cancels to 0
    p = HPoly("H", 1, {(1, 0, 0, 0): HNumber("H", [0, Fraction(-1, 3), 0, 0]),
                       (0, 1, 0, 0): HNumber("H", [Fraction(1, 3), 0, 0, 0])})
    out = fueter_dbar(p, 0)
    assert out.is_zero()
    assert out._ints == (1, {})
    lap = laplacian(p, 0)     # no term survives the shift at all
    assert lap.is_zero()
    assert lap._ints == (1, {})


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_each_polynomial_is_converted_once(monkeypatch, algebra):
    """One verify-identities trial converts p once; its derivatives carry
    their integer forms, so the nested operators convert nothing."""
    calls = []
    numerators = polycalc._numerators

    def counting(coeffs, den):
        calls.append(coeffs)
        return numerators(coeffs, den)

    monkeypatch.setattr(polycalc, "_numerators", counting)
    n = 3
    p = rand_poly(random.Random(22), algebra, n, 3, 5, den=4)
    for h in range(n):
        lap = laplacian(p, h)
        assert len(calls) == len(p.terms)
        assert fueter_d(fueter_dbar(p, h), h) == lap
        assert fueter_dbar(fueter_d(p, h), h) == lap
    assert len(calls) == len(p.terms)
    # a random polynomial of the CLI is born with its form
    calls.clear()
    u = _rand_poly(random.Random(23), algebra, n)
    laplacian(u, 0)
    assert calls == []


# ---------------------------------------------------------------------------
# the ring operations on the integer form, against their term-wise
# Fraction definitions
# ---------------------------------------------------------------------------

def ref_add(p, q):
    """p's terms in order, q's new exponents appended, a cancelled sum
    dropped in place."""
    terms = dict(p.terms)
    for exp, coef in q.terms.items():
        if exp in terms:
            s = terms[exp] + coef
            if s.is_zero():
                del terms[exp]
            else:
                terms[exp] = s
        else:
            terms[exp] = coef
    return terms


def ref_neg(p):
    return {e: -c for e, c in p.terms.items()}


def ref_sub(p, q):
    return ref_add(p, HPoly(q.algebra, q.n, ref_neg(q)))


def ref_scale(p, s):
    return {e: c.scale(s) for e, c in p.terms.items()} if s else {}


def ref_mul_const(p, c, left):
    out = ((e, c * a if left else a * c) for e, a in p.terms.items())
    return {e: a for e, a in out if not a.is_zero()}


def ref_conj(p):
    return {e: c.conj() for e, c in p.terms.items()}


def ref_partial(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c.scale(e[i])
            for e, c in p.terms.items() if e[i]}


def rand_rational(rng, span=4, den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_partner(rng, p):
    """A random polynomial that shares exponents with p: some terms of p
    negated (their sum cancels), some perturbed, and new ones."""
    terms = {}
    for exp, coef in p.terms.items():
        roll = rng.random()
        if roll < 0.3:
            terms[exp] = -coef
        elif roll < 0.5:
            terms[exp] = coef.scale(rand_rational(rng)) + \
                HNumber(p.algebra, [rand_rational(rng) for _ in range(p.dim)])
    extra = rand_poly(rng, p.algebra, p.n, 3, 3, span=4, den=6)
    for exp, coef in extra.terms.items():
        terms.setdefault(exp, coef)
    return HPoly(p.algebra, p.n, terms)


def lazy(p):
    """p as a kernel result, p + 0, rather than a constructor's."""
    return p + HPoly.zero(p.algebra, p.n)


def assert_matches_reference(got, want):
    """Same terms, in the same order, and the integer form of a freshly
    constructed polynomial; == and hash agree with the eager one."""
    eager = HPoly(got.algebra, got.n, want)
    assert got._ints == eager._ints
    assert got == eager and hash(got) == hash(eager)
    assert list(got.terms.items()) == list(want.items())
    assert got == eager and hash(got) == hash(eager)


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_ring_operations_match_their_term_wise_definitions(algebra):
    rng = random.Random(27)
    zero = HPoly.zero(algebra, 2)
    for trial in range(40):
        p = rand_poly(rng, algebra, 2, 3, 5, span=4, den=6)
        q = rand_partner(rng, p)
        c = HNumber(algebra, [rand_rational(rng) for _ in range(p.dim)])
        s = rng.choice([0, 1, -1, 3, Fraction(1, 2), rand_rational(rng)])
        i = rng.randrange(p.width)
        for a, b in ((p, q), (lazy(p), q), (p, lazy(q)), (q, p), (p, p),
                     (p, zero), (zero, p)):
            assert_matches_reference(a + b, ref_add(a, b))
            assert_matches_reference(a - b, ref_sub(a, b))
        for a in (p, lazy(p), zero):
            assert_matches_reference(-a, ref_neg(a))
            assert_matches_reference(a.scale(s), ref_scale(a, s))
            assert_matches_reference(a * s, ref_scale(a, s))
            assert_matches_reference(a.conj(), ref_conj(a))
            assert_matches_reference(a.partial_flat(i), ref_partial(a, i))
            for const in (c, HNumber.zero(algebra), s):
                assert_matches_reference(a.mul_const_left(const),
                                         ref_mul_const(a, const, True))
                assert_matches_reference(a.mul_const_right(const),
                                         ref_mul_const(a, const, False))
            assert_matches_reference(c * a, ref_mul_const(a, c, True))
            assert_matches_reference(a * c, ref_mul_const(a, c, False))


def test_ring_operations_keep_the_term_wise_errors():
    """The term-wise HNumber operations raised these on a nonzero
    polynomial and nothing on the zero one."""
    p = HPoly.coordinate("H", 2, 0, 1)
    zero = HPoly.zero("H", 2)
    bad = [
        (lambda a: a.scale(0.5), TypeError),
        (lambda a: a.scale("x"), TypeError),
        (lambda a: a * HNumber("H", [1, 0, 0, 0], "float"), AlgebraMismatch),
        (lambda a: HNumber("H", [1, 0, 0, 0], "float") * a, AlgebraMismatch),
        (lambda a: a.mul_const_left(HNumber.one("O")), AlgebraMismatch),
        (lambda a: a.mul_const_right(HNumber.one("O")), AlgebraMismatch),
        (lambda a: a.mul_const_left(0.5), TypeError),
    ]
    for op, error in bad:
        with pytest.raises(error):
            op(p)
        assert op(zero).is_zero()
    assert p.scale(0.0).is_zero()
    with pytest.raises(TypeError):
        p * 0.5
    with pytest.raises(AlgebraMismatch):
        p - HPoly.zero("O", 2)


@pytest.mark.parametrize("algebra,n", [("H", 2), ("O", 2), ("O", 3)])
def test_identity_checks_build_no_hnumber(monkeypatch, algebra, n):
    """The factorisation dbar then d = Laplacian and the zero test of the
    compatibility residuals of an image run on integer forms alone: no
    coefficient is ever built as an HNumber."""
    rng = random.Random(28)
    polys = [rand_poly(rng, algebra, n, 4, 5, den=4) for _ in range(3)]
    polys.append(_rand_poly(rng, algebra, n))
    calls = []
    from_ints = hypercomplex._from_ints

    def counting(*args):
        calls.append(args)
        return from_ints(*args)

    monkeypatch.setattr(hypercomplex, "_from_ints", counting)
    monkeypatch.setattr(polycalc, "_from_ints", counting)
    for p in polys:
        for h in range(n):
            assert fueter_d(fueter_dbar(p, h), h) == laplacian(p, h)
        assert all(r.is_zero() for r in compat_pbar(dbar_system(p)))
    assert calls == []
    # reading the coefficients builds them, on each read
    lap = laplacian(polys[0], 0)
    lap.terms
    lap.terms
    assert len(calls) == 2 * len(lap._ints[1]) > 0


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_to_json_is_the_term_wise_number_json(algebra):
    """to_json, written from the integer form, is the term-wise payload
    form of each coefficient (``oracles.number_json``), for eager and lazy polynomials with and without
    denominators, negative numerators, zero components and components above
    2^64; from_json inverts it."""
    rng = random.Random(29)
    d = DIM[algebra]
    big = HNumber(algebra, [Fraction(2 ** 70 + 1, 3), 0, -5, 2 ** 66]
                  + [Fraction(-1, 2 ** 65)] * (d - 4))
    cases = [rand_poly(rng, algebra, 2, 3, 5, span=4, den=den)
             for den in (1, 6) for _ in range(5)]
    cases += [HPoly(algebra, 2, {(1,) + (0,) * (2 * d - 1): big,
                                 (0,) * (2 * d): Fraction(-7, 4)}),
              HPoly.constant(algebra, 2, 2 ** 80), HPoly.zero(algebra, 2)]
    for p in cases:
        want = {"schema_version": 1, "algebra": algebra, "n": 2,
                "terms": [{"exp": list(e), "coef": number_json(p.terms[e])}
                          for e in sorted(p.terms)]}
        for q in (p, lazy(p)):
            assert q.to_json() == want
            assert HPoly.from_json(q.to_json()) == p
