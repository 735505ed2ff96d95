"""Sphere quadrature and the quaternionic reproducing integral."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from crfbench.hypercomplex import MUL_TABLE, HNumber
from crfbench.polycalc import HPoly, fueter_dbar
from crfbench.forms import cf_kernel_quaternion
from crfbench import integrate as ig


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
        got = ig.surface_integral(x0sq, rule)
        want = 0.5 * math.pi ** 2 * radius ** 5
        assert abs(got.coeffs[0] - want) < 1e-9 * want
        assert all(abs(c) < 1e-12 for c in got.coeffs[1:])


# ---------------------------------------------------------------------------
# vectorized backends agree with the scalar one
# ---------------------------------------------------------------------------

def test_batch_mul_matches_scalar():
    rng = random.Random(5)
    A = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(40)])
    B = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(40)])
    got = ig.quaternion_batch_mul(A, B)
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
        got = ig.quaternion_batch_mul(A, B)
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


def test_callable_integrand_matches_polynomial():
    F = regular_degree_one(7)
    rule = ig.sphere_rule((0, 0, 0, 0), 1.0, 16)
    q0 = (0.2, -0.1, 0.05, 0.3)
    via_poly = ig.cauchy_fueter_eval(F, rule, q0)
    via_call = ig.cauchy_fueter_eval(
        lambda p: F.evaluate(p).to_float(), rule, q0)
    assert max_err(via_poly, via_call) < 1e-12
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

    def F_shift(p):
        return F.evaluate(tuple(a - b for a, b in zip(p, t))).to_float()

    moved = ig.cauchy_fueter_eval(
        F_shift, rule_t, tuple(a + b for a, b in zip(q0, t)))
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
