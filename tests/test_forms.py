"""Form engine: pole ring, wedge/d/star mechanics, exact identity suites."""

import math
import random
from fractions import Fraction

import pytest

from crfbench.hypercomplex import HNumber
from crfbench.polycalc import HPoly, fueter_dbar
from crfbench import forms
from crfbench.forms import (
    OMEGA2_COMPLEX_MONOMIALS,
    OMEGA2_PREFACTOR,
    Dq_form,
    Dqbar_form,
    Form,
    PoleRingElement,
    cf_kernel_quaternion,
    complex_differential,
    dq_form,
    dqbar_form,
    identity_lu1,
    identity_lub,
    k2,
    omega2,
    pole_fueter_dbar,
    pole_fueter_dbar_right,
    volume_block_form,
)


def rand_poly(rng, n, max_deg, n_terms, span=3):
    terms = {}
    for _ in range(n_terms):
        exp = [0] * (4 * n)
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(4 * n)] += 1
        terms[tuple(exp)] = HNumber("H", [Fraction(rng.randint(-span, span))
                                          for _ in range(4)])
    return HPoly("H", n, terms)


# ---------------------------------------------------------------------------
# pole ring
# ---------------------------------------------------------------------------

def test_pole_ring_add_lifts_orders():
    pole = (0, 0, 0, 0)
    one = HPoly.constant("H", 1, 1)
    a = PoleRingElement(one, pole, 1)     # 1/r^2
    b = PoleRingElement(one, pole, 2)     # 1/r^4
    s = a + b
    pt = (Fraction(1), Fraction(1), 0, 0)   # r^2 = 2
    assert s.evaluate(pt) == HNumber.from_real("H", Fraction(1, 2) + Fraction(1, 4))


def test_pole_ring_derivative_quotient_rule():
    rng = random.Random(300)
    pole = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
    for _ in range(10):
        num = rand_poly(rng, 1, 3, 3)
        g = PoleRingElement(num, pole, rng.randint(1, 2))
        i = rng.randrange(4)
        dg = g.partial_flat(i)
        # check numerically at a rational point away from the pole
        pt = tuple(Fraction(rng.randint(3, 6)) for _ in range(4))
        h = Fraction(1, 10 ** 6)
        pt_h = tuple(p + (h if j == i else 0) for j, p in enumerate(pt))
        approx = (g.evaluate(pt_h) - g.evaluate(pt)).scale(Fraction(1) / h)
        exact = dg.evaluate(pt)
        err = (approx - exact).norm_sq()
        assert float(err) < 1e-8


def test_pole_ring_mixed_poles_rejected():
    one = HPoly.constant("H", 1, 1)
    a = PoleRingElement(one, (0, 0, 0, 0), 1)
    b = PoleRingElement(one, (1, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        a + b
    # m = 0 elements are pole-free and combine with anything
    c = PoleRingElement.from_poly(one)
    assert (a + c).m == 1


def test_pole_ring_equality_across_representations():
    pole = (0, 0, 0, 0)
    one = HPoly.constant("H", 1, 1)
    r2 = PoleRingElement(one, pole, 1)
    from crfbench.forms import _r_squared
    lifted = PoleRingElement(_r_squared(pole, "H", 1), pole, 2)
    assert r2 == lifted


def test_forms_and_pole_ring_elements_are_unhashable():
    """Equal values have more than one representation (r^2 / r^2 == 1), so
    neither type has a hash."""
    one = HPoly.constant("H", 1, 1)
    for value in (PoleRingElement(one, (0, 0, 0, 0), 1),
                  Form("H", 1, 1, {(0,): one})):
        with pytest.raises(TypeError):
            hash(value)


# ---------------------------------------------------------------------------
# wedge / d / star mechanics
# ---------------------------------------------------------------------------

def test_wedge_noncommutative_coefficients_golden():
    i, j, k = (HNumber.unit("H", a) for a in (1, 2, 3))
    one = HPoly.constant("H", 1, 1)
    dx0 = forms._basis_form("H", 1, (0,))
    dx1 = forms._basis_form("H", 1, (1,))
    a = dx0.mul_left(one.mul_const_left(i)).wedge(dx1.mul_left(one.mul_const_left(j)))
    b = dx0.mul_left(one.mul_const_left(j)).wedge(dx1.mul_left(one.mul_const_left(i)))
    diff = a - b
    assert diff.terms[(0, 1)] == PoleRingElement.from_poly(
        one.mul_const_left(k + k))


def test_wedge_graded_anticommutativity_scalar_coeffs():
    rng = random.Random(301)
    for _ in range(20):
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        def rand_form(k):
            terms = {}
            for _ in range(3):
                idx = tuple(sorted(rng.sample(range(8), k)))
                terms[idx] = rand_poly(rng, 2, 2, 2).component(0)
            return Form("H", 2, k, terms)
        a, b = rand_form(ka), rand_form(kb)
        lhs = a.wedge(b)
        rhs = b.wedge(a).scale(Fraction((-1) ** (ka * kb)))
        assert lhs == rhs


def test_exterior_d_squared_zero():
    rng = random.Random(302)
    for _ in range(10):
        k = rng.randint(0, 3)
        terms = {}
        for _ in range(3):
            idx = tuple(sorted(rng.sample(range(8), k)))
            terms[idx] = rand_poly(rng, 2, 3, 3)
        w = Form("H", 2, k, terms)
        assert w.exterior_d().exterior_d().is_zero()


def test_exterior_d_squared_zero_with_poles():
    pole = tuple(Fraction(c) for c in (1, 0, 0, 0, 0, 2, 0, 0))
    rng = random.Random(303)
    terms = {}
    for _ in range(3):
        idx = tuple(sorted(rng.sample(range(8), 2)))
        terms[idx] = PoleRingElement(rand_poly(rng, 2, 2, 2), pole, 1)
    w = Form("H", 2, 2, terms)
    assert w.exterior_d().exterior_d().is_zero()


def test_hodge_star_goldens():
    # *dx0 = +dx1^dx2^dx3^dy and dx_i ^ *dx_i = volume, every i
    dx0 = forms._basis_form("H", 2, (0,))
    star = dx0.hodge_star()
    assert set(star.terms) == {(1, 2, 3, 4, 5, 6, 7)}
    vol = forms._basis_form("H", 2, tuple(range(8)))
    for i in range(8):
        dxi = forms._basis_form("H", 2, (i,))
        assert dxi.wedge(dxi.hodge_star()) == vol


def test_hodge_star_involution_sign():
    rng = random.Random(304)
    for k in range(0, 5):
        idx = tuple(sorted(rng.sample(range(8), k)))
        w = Form("H", 2, k, {idx: rand_poly(rng, 2, 2, 2)})
        ss = w.hodge_star().hodge_star()
        assert ss == w.scale(Fraction((-1) ** (k * (8 - k))))


def test_pullback_identity_frame():
    vol = forms._basis_form("H", 1, (0, 1, 2, 3))
    frame = [[Fraction(1 if i == j else 0) for i in range(4)] for j in range(4)]
    assert vol.pullback_at(frame, (0, 0, 0, 0)) == HNumber.one("H")
    # odd permutation flips sign
    frame2 = [frame[1], frame[0], frame[2], frame[3]]
    assert vol.pullback_at(frame2, (0, 0, 0, 0)) == -HNumber.one("H")


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def test_identity_lu1_on_variable():
    # d(Dq . q) = (dbar q) dx = -2 dx
    q = HPoly.variable("H", 1, 0)
    lhs, rhs = identity_lu1(q)
    assert lhs == rhs
    assert rhs == volume_block_form("H", 1, 0).scale(Fraction(-2))


def test_identity_lu1_random_suite():
    rng = random.Random(305)
    for _ in range(50):
        F = rand_poly(rng, 1, 4, 5)
        lhs, rhs = identity_lu1(F)
        assert lhs == rhs


def test_identity_lub_hand_instances():
    # hand-expanded cases: F = x0 exercises the first block, F = y0 the second
    for F in (HPoly.coordinate("H", 2, 0, 0), HPoly.coordinate("H", 2, 1, 0)):
        lhs, rhs = identity_lub(F)
        assert lhs == rhs
    # spot-frozen coefficient from the hand expansion for F = x0:
    # rhs coefficient of dx0^dx2^dx3^dy is -i
    lhs, rhs = identity_lub(HPoly.coordinate("H", 2, 0, 0))
    coef = rhs.terms[(0, 2, 3, 4, 5, 6, 7)]
    assert coef == PoleRingElement.from_poly(
        HPoly.constant("H", 2, -HNumber.unit("H", 1)))


def test_identity_lub_random_suite():
    rng = random.Random(306)
    for _ in range(20):
        F = rand_poly(rng, 2, 3, 5)
        lhs, rhs = identity_lub(F)
        assert lhs == rhs


def test_identity_lub_regular_reduces_to_star():
    # for dbar_1 F = dbar_2 F = 0 the identity collapses to lhs = *dF
    F = HPoly.coordinate("H", 2, 0, 1) - HPoly.coordinate("H", 2, 0, 0).mul_const_left(
        HNumber.unit("H", 1))  # x1 - x0 i, regular in both variables
    assert fueter_dbar(F, 0).is_zero()
    assert fueter_dbar(F, 1).is_zero()
    lhs, _ = identity_lub(F)
    dF = Form.zero("H", 2, 1)
    for i in range(8):
        dF = dF + forms._basis_form("H", 2, (i,)).mul_left(F.partial_flat(i))
    assert lhs == dF.hodge_star()


def test_identity_frames_are_shared_and_stay_the_fresh_products():
    rng = random.Random(307)
    for _ in range(2):
        identity_lu1(rand_poly(rng, 1, 3, 4))
        identity_lub(rand_poly(rng, 2, 2, 4))
    assert forms._lu1_frames("H") is forms._lu1_frames("H")
    assert forms._lu1_frames("H") == (Dq_form("H", 1, 0),
                                      volume_block_form("H", 1, 0))
    dy = volume_block_form("H", 2, 1)
    assert forms._lub_frames() is forms._lub_frames()
    assert forms._lub_frames() == (
        volume_block_form("H", 2, 0), dy,
        dqbar_form("H", 2, 0).wedge(dq_form("H", 2, 0)).wedge(dy),
        dqbar_form("H", 2, 1).wedge(dq_form("H", 2, 1)),
        Dqbar_form("H", 2, 0), Dqbar_form("H", 2, 1))

# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_cf_kernel_structure_and_value():
    q0 = (Fraction(1, 2), 0, -1, 3)
    G = cf_kernel_quaternion(q0)
    assert G.m == 2
    # at q - q0 = i the kernel value is conj(i)/|i|^4 = -i
    pt = (Fraction(1, 2), 1, -1, 3)
    assert G.evaluate(pt) == -HNumber.unit("H", 1)


def test_cf_kernel_two_sided_regular():
    rng = random.Random(307)
    for _ in range(5):
        q0 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
        G = cf_kernel_quaternion(q0)
        assert pole_fueter_dbar(G).is_zero()
        assert pole_fueter_dbar_right(G).is_zero()


def test_pole_fueter_matches_definition():
    """The quotient rule in closed form: d(r^2)/dx_a = 2 (x_a - p_a) is
    real, so with s = q - p and r^2 = |s|^2,
    sum_a i_a d(N / r^2m)/dx_a = (dbar N r^2 - 2m s N) / r^(2m+2), and with
    right units (sum_a dN/dx_a i_a r^2 - 2m N s) / r^(2m+2)."""
    rng = random.Random(308)
    units = [HNumber.unit("H", a) for a in range(4)]
    for m in (0, 1, 2):
        for _ in range(3):
            pole = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(4))
            N = rand_poly(rng, 1, 2, 4)
            g = PoleRingElement(N, pole, m)
            s = HPoly.variable("H", 1, 0) - HPoly.constant(
                "H", 1, HNumber("H", pole))
            r2 = HPoly.zero("H", 1)
            for a, p in enumerate(pole):
                x = HPoly.coordinate("H", 1, 0, a) - HPoly.constant("H", 1, p)
                r2 = r2 + x * x
            dbar_n = dn_right = HPoly.zero("H", 1)
            for a, u in enumerate(units):
                dbar_n = dbar_n + N.partial_flat(a).mul_const_left(u)
                dn_right = dn_right + N.partial_flat(a).mul_const_right(u)
            left = PoleRingElement(dbar_n * r2 - (s * N).scale(2 * m),
                                   pole, m + 1)
            right = PoleRingElement(dn_right * r2 - (N * s).scale(2 * m),
                                    pole, m + 1)
            assert pole_fueter_dbar(g) == left
            assert pole_fueter_dbar_right(g) == right


def test_omega2_structure():
    assert len(OMEGA2_COMPLEX_MONOMIALS) == 2
    assert abs(OMEGA2_PREFACTOR - 1.0 / (8 * math.pi ** 4)) < 1e-18
    w = omega2((0,) * 8)
    assert w.degree == 6
    assert all(c.m == 3 for c in w.terms.values())
    # coefficients stay in span{1, i}: quaternion components j, k vanish
    for c in w.terms.values():
        for coef in c.num.terms.values():
            assert coef.coeffs[2] == 0 and coef.coeffs[3] == 0


def test_omega2_expansion_matches_complex_layer():
    # rebuilding from the two published complex monomials gives omega2
    pole = (0,) * 8
    acc = Form.zero("H", 2, 6)
    for mono in OMEGA2_COMPLEX_MONOMIALS:
        w = complex_differential(mono[0])
        for label in mono[1:]:
            w = w.wedge(complex_differential(label))
        acc = acc + w
    got = acc.mul_left(PoleRingElement(HPoly.constant("H", 2, 1), pole, 3))
    assert got == omega2(pole)


def test_k2_is_closed():
    kk = k2((0,) * 8)
    assert kk.degree == 7
    assert kk.exterior_d().is_zero()
    kk2 = k2(tuple(Fraction(c) for c in (1, 0, -2, 0, 0, 3, 0, 1)))
    assert kk2.exterior_d().is_zero()
