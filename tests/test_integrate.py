"""Sphere quadrature and the quaternionic reproducing integral."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crfbench.hypercomplex import MUL_TABLE, HNumber
from crfbench.polycalc import HPoly, fueter_dbar
from crfbench.forms import cf_kernel_quaternion
from crfbench import integrate as ig


def quaternion_batch_mul(a, b):
    """Componentwise quaternion product of (N, 4) arrays by
    ``integrate._mul_into``, the product the reproducing integral runs on
    its node blocks, from a zero start into a component-major array."""
    out = np.zeros((a.shape[0], 4), order="F")
    ig._mul_into(a.T, b.T, out.T, np.empty(a.shape[0]))
    return out


def regular_degree_one(seed):
    """Seeded random left-regular polynomial of degree one on H."""
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


def interior_points(seed, count, scale=0.45):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        p = [rng.uniform(-scale, scale) for _ in range(4)]
        if math.sqrt(sum(c * c for c in p)) <= scale:
            pts.append(tuple(p))
    return pts


def max_err(got, want):
    return max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs))


# ---------------------------------------------------------------------------
# rule construction
# ---------------------------------------------------------------------------

def test_rule_validation():
    with pytest.raises(ValueError):
        ig.sphere_rule((0, 0, 0, 0), 1.0, 1)
    with pytest.raises(ValueError):
        ig.sphere_rule((0, 0, 0, 0), 0.0, 8)
    with pytest.raises(ValueError):
        ig.sphere_rule((0, 0, 0), 1.0, 8)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0])
def test_rule_rejects_a_radius_that_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="finite and positive"):
        ig.sphere_rule((0, 0, 0, 0), radius, 8)


@pytest.mark.parametrize("radius", [1.0, 2.5])
@pytest.mark.parametrize("order", [12, 16])
def test_weights_sum_to_sphere_area(radius, order):
    rule = ig.sphere_rule((0.5, -1.0, 0.0, 2.0), radius, order)
    area = 2.0 * math.pi ** 2 * radius ** 3
    assert abs(math.fsum(rule.weights) - area) < 1e-11 * area
    assert rule.size == order ** 3
    # nodes lie on the sphere, normals point outward with unit length
    d = rule.nodes - rule.center[None, :]
    assert np.allclose(np.linalg.norm(d, axis=1), radius, atol=1e-12)
    assert np.allclose(d / radius, rule.normals, atol=1e-12)


def test_second_moment_golden():
    """integral of x0^2 over S^3(r) equals (pi^2 / 2) r^5."""
    x0sq = HPoly.coordinate("H", 1, 0, 0) ** 2
    for radius in (1.0, 2.0):
        rule = ig.sphere_rule((0, 0, 0, 0), radius, 12)
        weighted = rule.weights[:, None] * ig.batch_evaluate(x0sq, rule.nodes)
        got = ig._exact_sums(weighted.T)
        want = 0.5 * math.pi ** 2 * radius ** 5
        assert abs(got[0] - want) < 1e-9 * want
        assert all(abs(c) < 1e-12 for c in got[1:])


# ---------------------------------------------------------------------------
# vectorized backends agree with the scalar one
# ---------------------------------------------------------------------------

def test_batch_mul_matches_scalar():
    rng = random.Random(5)
    A = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(40)])
    B = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(40)])
    got = quaternion_batch_mul(A, B)
    for i in range(40):
        a = HNumber("H", list(A[i]), "float")
        b = HNumber("H", list(B[i]), "float")
        want = (a * b).coeffs
        assert max(abs(x - y) for x, y in zip(got[i], want)) < 1e-13


def test_batch_mul_is_bitwise_the_structure_tensor_contraction():
    # the column products sum alpha-major, as the einsum over the structure
    # tensor T[gamma, alpha, beta] does, so every bit (and sign of zero) agrees
    T = np.zeros((4, 4, 4))
    for alpha in range(4):
        for beta in range(4):
            gamma, sign = MUL_TABLE["H"][alpha][beta]
            T[gamma, alpha, beta] = sign
    rng = np.random.default_rng(6)
    for scale in (1e-6, 1.0, 1e6):
        A = rng.standard_normal((500, 4)) * scale
        B = rng.standard_normal((500, 4))
        A[rng.random((500, 4)) < 0.2] = 0.0
        B[rng.random((500, 4)) < 0.2] = -0.0
        got = quaternion_batch_mul(A, B)
        want = np.einsum("gab,na,nb->ng", T, A, B)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_batch_evaluate_matches_scalar():
    rng = random.Random(6)
    poly = HPoly.zero("H", 1)
    for _ in range(6):
        exp = [rng.randint(0, 2) for _ in range(4)]
        c = HNumber("H", [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        poly = poly + HPoly("H", 1, {tuple(exp): c})
    pts = np.array([[rng.uniform(-1.5, 1.5) for _ in range(4)]
                    for _ in range(25)])
    got = ig.batch_evaluate(poly, pts)
    for i in range(25):
        want = poly.evaluate(tuple(pts[i])).to_float()
        assert max(abs(x - y) for x, y in zip(got[i], want.coeffs)) < 1e-11


def test_batch_evaluate_is_the_sorted_term_wise_sum():
    """batch_evaluate adds float(c) * mono for every component c of every
    term, in sorted exponent order, bit for bit; components are fractional,
    negative and above 2^53."""
    rng = random.Random(31)

    def component():
        roll = rng.random()
        if roll < 0.2:
            return 0
        if roll < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        if roll < 0.8:
            return Fraction(rng.randint(-2 ** 70, 2 ** 70),
                            rng.randint(1, 2 ** 40))
        return rng.choice([-1, 1]) * rng.randint(2 ** 53, 2 ** 64)

    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            exp = tuple(rng.randint(0, 3) for _ in range(4))
            terms[exp] = HNumber("H", [component() for _ in range(4)])
        poly = HPoly("H", 1, terms)
        pts = np.array([[rng.uniform(-1.5, 1.5) for _ in range(4)]
                        for _ in range(9)])
        want = np.zeros((pts.shape[0], 4))
        for exp in sorted(poly.terms):
            mono = np.ones(pts.shape[0])
            for i, e in enumerate(exp):
                if e:
                    mono = mono * pts[:, i] ** e
            for c, value in enumerate(poly.terms[exp].coeffs):
                want[:, c] += mono * float(value)
        got = ig.batch_evaluate(poly, pts)
        assert [x.hex() for x in got.ravel().tolist()] == \
            [x.hex() for x in want.ravel().tolist()]


def test_batch_evaluate_validates_shape():
    with pytest.raises(ValueError):
        ig.batch_evaluate(HPoly.constant("H", 2, 1), np.zeros((3, 8)))


def test_kernel_reference_matches_exact_form():
    """The float kernel agrees with the exact pole-ring kernel, and
    G(q - q0) = -i when q - q0 = i."""
    q0 = (Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(0))
    K = cf_kernel_quaternion(q0)
    rng = random.Random(9)
    for _ in range(5):
        q = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(4))
        if all(a == b for a, b in zip(q, q0)):
            continue
        want = K.evaluate(q)
        got = ig.cf_kernel_value(tuple(float(c) for c in q),
                                 tuple(float(c) for c in q0))
        assert max(abs(float(a) - b)
                   for a, b in zip(want.coeffs, got.coeffs)) < 1e-12
    at_i = ig.cf_kernel_value((0.5, 0.0, 2.0, 0.0), (0.5, -1.0, 2.0, 0.0))
    assert max(abs(a - b)
               for a, b in zip(at_i.coeffs, (0.0, -1.0, 0.0, 0.0))) < 1e-15


# ---------------------------------------------------------------------------
# reproducing property
# ---------------------------------------------------------------------------

def test_reproduces_constants():
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 32)
    one = HPoly.constant("H", 1, 1)
    for q0 in interior_points(11, 10):
        got = ig.cauchy_fueter_eval(one, rule, q0)
        assert max_err(got, HNumber.one("H").to_float()) < 1e-8


def test_reproduces_regular_degree_one():
    F = regular_degree_one(3)
    assert fueter_dbar(F, 0).is_zero()
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 40)
    for q0 in interior_points(13, 10):
        got = ig.cauchy_fueter_eval(F, rule, q0)
        assert max_err(got, F.evaluate(q0).to_float()) < 1e-8


def test_reproduces_on_shifted_sphere():
    F = regular_degree_one(4)
    center = (1.0, -2.0, 0.5, 0.0)
    rule = ig.sphere_rule(center, 1.5, 40)
    rng = random.Random(15)
    for _ in range(5):
        q0 = tuple(c + rng.uniform(-0.4, 0.4) for c in center)
        got = ig.cauchy_fueter_eval(F, rule, q0)
        assert max_err(got, F.evaluate(q0).to_float()) < 1e-8


def test_node_value_integrand_matches_polynomial():
    F = regular_degree_one(7)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 16)
    q0 = (0.2, -0.1, 0.05, 0.3)
    via_poly = ig.cauchy_fueter_eval(F, rule, q0)
    # node by node through the scalar evaluation
    pointwise = np.array([F.evaluate(tuple(p)).to_float().coeffs
                          for p in rule.nodes])
    assert max_err(via_poly, ig.cauchy_fueter_eval(pointwise, rule, q0)) \
        < 1e-12
    # values on the nodes, evaluated once, give the same bits
    vals = ig.batch_evaluate(F, rule.nodes)
    assert ig.cauchy_fueter_eval(vals, rule, q0) == via_poly
    with pytest.raises(ValueError):
        ig.cauchy_fueter_eval(vals[1:], rule, q0)


def test_exterior_points_integrate_to_zero():
    F = regular_degree_one(3)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 40)
    for q0 in [(2.0, 0.5, -0.3, 1.0), (0.0, 1.8, 0.0, 0.0),
               (-1.2, -1.2, 1.2, 1.2)]:
        got = ig.cauchy_fueter_raw(F, rule, q0)
        assert max(abs(c) for c in got.coeffs) < 1e-8


def test_eval_rejects_non_interior_points():
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 8)
    one = HPoly.constant("H", 1, 1)
    with pytest.raises(ig.PointOutsideDomain):
        ig.cauchy_fueter_eval(one, rule, (1.5, 0, 0, 0))
    with pytest.raises(ig.PointOutsideDomain):
        ig.cauchy_fueter_eval(one, rule, (1.0, 0, 0, 0))   # on the sphere
    # raw has no location check
    ig.cauchy_fueter_raw(one, rule, (1.5, 0, 0, 0))


def test_node_coincidence_guard():
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 8)
    one = HPoly.constant("H", 1, 1)
    with pytest.raises(ZeroDivisionError):
        ig.cauchy_fueter_raw(one, rule, tuple(rule.nodes[0]))


def test_translation_covariance():
    F = regular_degree_one(8)
    t = (0.7, -0.3, 0.2, 1.1)
    q0 = (0.15, 0.2, -0.1, 0.05)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 20)
    rule_t = ig.sphere_rule(t, 1.0, 20)
    base = ig.cauchy_fueter_eval(F, rule, q0)

    shifted = np.array([F.evaluate(tuple(a - b for a, b in zip(p, t)))
                        .to_float().coeffs for p in rule_t.nodes])
    moved = ig.cauchy_fueter_eval(
        shifted, rule_t, tuple(a + b for a, b in zip(q0, t)))
    assert max_err(base, moved) < 1e-12


def test_order_doubling_reduces_error():
    F = regular_degree_one(3)
    q0 = (0.55, -0.2, 0.33, 0.1)
    want = F.evaluate(q0).to_float()
    errs = []
    for order in (12, 24, 48):
        rule = ig.sphere_rule((0, 0, 0, 0), 1.0, order)
        errs.append(max_err(ig.cauchy_fueter_eval(F, rule, q0), want))
    assert errs[0] > 10 * errs[1] > 100 * errs[2]


def test_results_are_deterministic():
    F = regular_degree_one(3)
    q0 = (0.3, 0.1, -0.2, 0.25)
    a = ig.cauchy_fueter_eval(F, ig.sphere_rule((0, 0, 0, 0), 1.0, 16), q0)
    b = ig.cauchy_fueter_eval(F, ig.sphere_rule((0, 0, 0, 0), 1.0, 16), q0)
    assert a.coeffs == b.coeffs


# ---------------------------------------------------------------------------
# component-major arrays and correctly rounded sums
# ---------------------------------------------------------------------------

def fsum_outcome(values):
    try:
        return math.fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def exact_sums_outcome(values):
    try:
        return ig._exact_sums(np.array(values, dtype=float)[None, :])[0].hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


TINY = 2.2250738585072014e-308          # smallest normal float
HUGE = 1.7976931348623157e308           # largest finite float

summands = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0),
              st.integers(-997, 997)),                # 1e-300 .. 1e300
    st.floats(-TINY, TINY),                             # subnormals
    st.floats(1e307, HUGE) | st.floats(-HUGE, -1e307),  # near overflow
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def rows_with_cancellation(draw, elements=summands):
    """A row, often joined by its own negation plus small noise and shuffled,
    so the exact sum cancels many binades below the largest entry."""
    row = draw(st.lists(elements, max_size=60))
    if draw(st.booleans()):
        noise = draw(st.lists(st.floats(-1e-5, 1e-5), max_size=5))
        row = row + [-x for x in row] + noise
        draw(st.randoms(use_true_random=False)).shuffle(row)
    return row


@settings(max_examples=400, deadline=None)
@given(rows_with_cancellation())
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0])
@example([5e-324, 5e-324, -1e-323])
@example([HUGE, HUGE, -HUGE])
@example([HUGE, -HUGE, 1.0])
@example([1e300, 1.0, -1e300, 1e-300])
def test_exact_sums_has_the_bits_of_fsum(row):
    assert exact_sums_outcome(row) == fsum_outcome(row)


@settings(max_examples=200, deadline=None)
@given(rows_with_cancellation(
    summands | st.sampled_from([math.inf, -math.inf, math.nan])))
@example([math.inf, -math.inf])
@example([math.nan, 1.0])
@example([math.inf, 1.0, HUGE])
def test_exact_sums_matches_fsum_on_non_finite_rows(row):
    assert exact_sums_outcome(row) == fsum_outcome(row)


def test_exact_sums_of_long_rows_in_one_call():
    """Rows long enough for M = 17 and entries over 600 binades: several
    extraction passes per row, one scratch buffer for all rows."""
    rng = np.random.default_rng(14)
    rows = rng.standard_normal((5, 85184)) * 10.0 ** rng.uniform(
        -300, 300, (5, 85184))
    rows[1] = np.abs(rows[1])
    rows[2, ::2] = -rows[2, 1::2]
    rows[3] = 0.0
    rows[4, :100] = 5e-324
    want = [math.fsum(r).hex() for r in rows]
    assert [s.hex() for s in ig._exact_sums(rows)] == want


def reference_rule(center, radius, order):
    """Nodes, weights and normals as first built: stacked row-major."""
    x, w = np.polynomial.legendre.leggauss(order)
    psi, w_psi = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w
    phi, w_phi = math.pi * (x + 1.0), math.pi * w
    P, T, F = np.meshgrid(psi, psi, phi, indexing="ij")
    WP, WT, WF = np.meshgrid(w_psi, w_psi, w_phi, indexing="ij")
    sp, cp, st_, ct = np.sin(P), np.cos(P), np.sin(T), np.cos(T)
    units = np.stack([cp, sp * ct, sp * st_ * np.cos(F),
                      sp * st_ * np.sin(F)], axis=-1).reshape(-1, 4)
    weights = ((radius ** 3) * (sp ** 2) * st_ * WP * WT * WF).reshape(-1)
    return np.asarray(center, float)[None, :] + radius * units, weights, units


def reference_mul(a, b):
    out = np.zeros((a.shape[0], 4))
    for alpha, row in enumerate(MUL_TABLE["H"]):
        for beta, (gamma, sign) in enumerate(row):
            if sign > 0:
                out[:, gamma] += a[:, alpha] * b[:, beta]
            else:
                out[:, gamma] -= a[:, alpha] * b[:, beta]
    return out


def reference_evaluate(poly, points):
    out = np.zeros((points.shape[0], 4))
    for exp in sorted(poly.terms):
        mono = np.ones(points.shape[0])
        for i, e in enumerate(exp):
            if e:
                mono = mono * points[:, i] ** e
        out += mono[:, None] * np.array(
            [float(c) for c in poly.terms[exp].coeffs])
    return out


def reference_raw(vals, nodes, weights, normals, q0):
    """The reproducing integral as first written: row-major (N, 4) arrays
    and one math.fsum per component column."""
    diff = nodes - np.asarray(q0, dtype=float)[None, :]
    nsq = np.sum(diff * diff, axis=1)
    conj = diff.copy()
    conj[:, 1:] = -conj[:, 1:]
    kernel = conj / (nsq * nsq)[:, None]
    weighted = weights[:, None] * reference_mul(
        reference_mul(kernel, normals), vals)
    return [math.fsum(weighted[:, c]) / ig.TWO_PI_SQ for c in range(4)]


def hexes(values):
    return [float(v).hex() for v in values]


PIN_POINTS = [(0.2, -0.1, 0.05, 0.3), (-0.31, 0.12, 0.0, -0.27),
              (2.0, 0.5, -0.3, 1.0), (0.0, 1.8, 0.0, 0.0)]


@pytest.mark.parametrize("order", [8, 20])
def test_reproducing_integral_keeps_the_bits_of_the_row_major_formula(order):
    F = regular_degree_one(5)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, order)
    nodes, weights, normals = reference_rule((0, 0, 0, 0), 1.0, order)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)
    assert np.array_equal(rule.normals, normals)
    vals = reference_evaluate(F, nodes)
    assert np.array_equal(ig.batch_evaluate(F, rule.nodes), vals)
    for q0 in PIN_POINTS:
        want = hexes(reference_raw(vals, nodes, weights, normals, q0))
        assert hexes(ig.cauchy_fueter_raw(F, rule, q0).coeffs) == want
        assert hexes(ig.cauchy_fueter_raw(vals, rule, q0).coeffs) == want


# orders whose node count order**3 is below the block size, not a multiple
# of it and an exact multiple of it (8**3 = 512, 21**3 = 9261, 32**3 = 32768)
BLOCK_ORDERS = [8, 21, 32]


def test_block_orders_cover_every_block_layout():
    sizes = [order ** 3 for order in BLOCK_ORDERS]
    assert sizes[0] < ig._BLOCK
    assert sizes[1] > ig._BLOCK and sizes[1] % ig._BLOCK
    assert sizes[2] > ig._BLOCK and sizes[2] % ig._BLOCK == 0


@pytest.mark.parametrize("radius", [1.0, 0.35])
@pytest.mark.parametrize("order", BLOCK_ORDERS)
def test_sphere_rule_keeps_the_bits_of_the_meshgrid_construction(order,
                                                                  radius):
    center = (0.5, -1.0, 0.0, 2.0)
    rule = ig.sphere_rule(center, radius, order)
    want = reference_rule(center, radius, order)
    for got, ref in zip((rule.nodes, rule.weights, rule.normals), want):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert rule.nodes.flags.f_contiguous and rule.normals.flags.f_contiguous


@pytest.mark.parametrize("radius", [1.0, 0.35])
@pytest.mark.parametrize("order", BLOCK_ORDERS)
def test_blocked_reproducing_integral_keeps_the_bits_of_the_formula(order,
                                                                     radius):
    rule = ig.sphere_rule((0, 0, 0, 0), radius, order)
    nodes, weights, normals = reference_rule((0, 0, 0, 0), radius, order)
    rng = np.random.default_rng(order)
    vals = rng.standard_normal((rule.size, 4))
    vals[rng.random(vals.shape) < 0.1] = 0.0
    vals[rng.random(vals.shape) < 0.1] = -0.0
    F = regular_degree_one(order)
    poly_vals = reference_evaluate(F, nodes)
    for q0 in [tuple(radius * c for c in p) for p in PIN_POINTS]:
        for arg, ref in ((vals, vals), (F, poly_vals)):
            want = hexes(reference_raw(ref, nodes, weights, normals, q0))
            assert hexes(ig.cauchy_fueter_raw(arg, rule, q0).coeffs) == want


@pytest.mark.parametrize("block", [7, 500, 576, 4096])
def test_reproducing_integral_bits_do_not_depend_on_the_block_size(
        monkeypatch, block):
    rule = ig.sphere_rule((0, 0, 0, 0), 0.7, 12)
    F = regular_degree_one(12)
    want = [hexes(ig.cauchy_fueter_raw(F, rule, q0).coeffs)
            for q0 in PIN_POINTS]
    monkeypatch.setattr(ig, "_BLOCK", block)
    assert [hexes(ig.cauchy_fueter_raw(F, rule, q0).coeffs)
            for q0 in PIN_POINTS] == want


def test_coinciding_node_raises_in_any_block(monkeypatch):
    monkeypatch.setattr(ig, "_BLOCK", 100)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 8)
    one = HPoly.constant("H", 1, 1)
    for i in (0, 99, 100, 250, rule.size - 1):
        with pytest.raises(ZeroDivisionError):
            ig.cauchy_fueter_raw(one, rule, tuple(rule.nodes[i]))


def test_q0_needs_four_components():
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 8)
    one = HPoly.constant("H", 1, 1)
    for q0 in ((0.1,), (0.1, 0.2, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError):
            ig.cauchy_fueter_raw(one, rule, q0)


def test_integrals_leave_the_callers_arrays_untouched():
    F = regular_degree_one(9)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 8)
    row_major = reference_evaluate(F, np.ascontiguousarray(rule.nodes))
    for vals in (row_major, ig.batch_evaluate(F, rule.nodes)):
        before = [a.tobytes() for a in (vals, rule.weights, rule.nodes,
                                        rule.normals)]
        ig.cauchy_fueter_eval(vals, rule, PIN_POINTS[0])
        ig.cauchy_fueter_raw(vals, rule, PIN_POINTS[2])
        after = [a.tobytes() for a in (vals, rule.weights, rule.nodes,
                                       rule.normals)]
        assert after == before


def test_node_arrays_are_component_major():
    F = regular_degree_one(10)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 8)
    A = np.ones((5, 4))
    for a in (rule.nodes, rule.normals, ig.batch_evaluate(F, rule.nodes),
              quaternion_batch_mul(A, A)):
        assert a.flags.f_contiguous


def test_reproducing_integral_sums_no_node_column_with_fsum(monkeypatch):
    F = regular_degree_one(11)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 20)
    lengths = []
    fsum = math.fsum

    def counting_fsum(values):
        values = list(values)
        lengths.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    ig.cauchy_fueter_raw(F, rule, PIN_POINTS[0])
    assert lengths and max(lengths) < rule.size
