"""Tangential calculus on hypersurfaces: derived functions, CRF/admissibility
decisions, the pointwise rank test, restriction identities, and convexity."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfbench.hypercomplex import HNumber
from crfbench.polycalc import HPoly, fueter_dbar, dbar_system
from crfbench.forms import Dq_form, Dqbar_form, Form, volume_block_form
from crfbench import hypersurface as hs


def coord(h, a):
    return HPoly.coordinate("H", 2, h, a)


def const(c):
    return HPoly.constant("H", 2, c)


def unit(a):
    return HNumber.unit("H", a)


@pytest.fixture(scope="module")
def flat():
    """S = {y3 = 0}."""
    return hs.Hypersurface(coord(1, 3))


@pytest.fixture(scope="module")
def tilted():
    """S = {x0 + 2 y1 = 1}."""
    return hs.Hypersurface(coord(0, 0) + coord(1, 1).scale(2) - const(1))


@pytest.fixture(scope="module")
def mixed():
    """S = {x1 - y0 + 3 y2 = 2}: both normal components nonzero."""
    return hs.Hypersurface(
        coord(0, 1) - coord(1, 0) + coord(1, 2).scale(3) - const(2))


@pytest.fixture(scope="module")
def sphere():
    """S = {|q1|^2 + |q2|^2 = 4}."""
    rho = HPoly.zero("H", 2)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) ** 2
    return hs.Hypersurface(rho - const(4))


@pytest.fixture(scope="module")
def counterexample():
    """f = -x1 y0 j + x0 y0 k: CRF on {y3 = 0} but not admissible."""
    return (coord(0, 1) * coord(1, 0)).mul_const_left(-unit(2)) + \
        (coord(0, 0) * coord(1, 0)).mul_const_left(unit(3))


def regular_linear_basis():
    """Degree-one polynomials annihilated by both conjugate-Fueter operators."""
    out = [const(1)]
    for h in range(2):
        for a in (1, 2, 3):
            out.append(coord(h, a) - coord(h, 0).mul_const_left(unit(a)))
    return out


def random_regular(rng):
    """Random left-regular polynomial: right combinations of the basis."""
    F = HPoly.zero("H", 2)
    for b in regular_linear_basis():
        c = HNumber("H", [Fraction(rng.randint(-2, 2)) for _ in range(4)])
        F = F + b.mul_const_right(c)
    return F


def random_poly(rng, deg=2, terms=5):
    out = HPoly.zero("H", 2)
    for _ in range(terms):
        exp = [0] * 8
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(8)] += 1
        c = HNumber("H", [Fraction(rng.randint(-2, 2)) for _ in range(4)])
        if not c.is_zero():
            out = out + HPoly("H", 2, {tuple(exp): c})
    return out


# ---------------------------------------------------------------------------
# construction, sampling, geometry
# ---------------------------------------------------------------------------

def test_rho_must_be_scalar():
    """Non-scalar, zero and constant rho are all rejected."""
    for rho in (coord(0, 0).mul_const_left(unit(1)), HPoly.zero("H", 2),
                HPoly.constant("H", 2, 3)):
        with pytest.raises(ValueError):
            hs.Hypersurface(rho)


def test_sample_points_lie_on_surface(flat, mixed, sphere):
    for S in (flat, mixed):
        for p in S.sample_points(10, seed=3):
            assert S.value_at(p) == 0
    for p in sphere.sample_points(6, seed=3):
        assert abs(S_val := float(sphere.value_at(p))) < 1e-11, S_val


def test_exact_normal_iff_perfect_square(flat, mixed):
    p = flat.sample_points(1, seed=1)[0]
    nu1, nu2 = flat.normal_at(p)          # |grad| = 1
    assert nu1.backend == "exact" and nu2 == unit(3)
    p = mixed.sample_points(1, seed=1)[0]
    nu1, nu2 = mixed.normal_at(p)         # |grad|^2 = 11: not a square
    assert nu1.backend == "float"
    assert abs(nu1.norm_sq() + nu2.norm_sq() - 1.0) < 1e-14


def test_tangent_vectors_are_tangent(mixed):
    p = mixed.sample_points(1, seed=9)[0]
    g = mixed.gradient_at(p)
    for v in mixed.tangent_vectors_rational(p, 6, seed=4):
        assert sum(c * x for c, x in zip(g, v)) == 0


def test_oriented_frame_has_unit_volume(mixed, sphere):
    for S in (mixed, sphere):
        p = tuple(float(x) for x in S.sample_points(1, seed=2)[0])
        fr = S.oriented_tangent_frame(p)
        assert len(fr) == 7
        g = np.array([float(c) for c in S.gradient_at(p)])
        for v in fr:
            assert abs(float(g @ v)) < 1e-10
        assert abs(S.omega_value(p, fr) - 1.0) < 1e-12


def test_surface_json_roundtrip(sphere):
    blob = sphere.to_json()
    assert blob["schema_version"] == hs.SCHEMA_VERSION
    back = hs.Hypersurface.from_json(blob)
    assert back.rho == sphere.rho


# ---------------------------------------------------------------------------
# derived functions: goldens
# ---------------------------------------------------------------------------

def test_counterexample_is_crf_but_not_admissible(flat, counterexample):
    res = hs.is_crf(counterexample, flat)
    assert res.holds
    rep = hs.is_admissible(counterexample, flat)
    assert not rep.admissible
    # the failure is exactly in the normal-coordinate derived function, with
    # tangential residual (-2, 0)
    bad = rep.derived["y3"]
    assert not bad.holds
    v1, v2 = bad.witness_value
    assert v1 == HNumber("H", [-2, 0, 0, 0]) and v2.is_zero()
    for name, sub in rep.derived.items():
        if name != "y3":
            assert sub.holds, name


def test_counterexample_normal_component(flat, counterexample):
    # f_perp = -x0 + x1 i on S
    for p in flat.sample_points(5, seed=8):
        td = hs.derived_at(counterexample, flat, p)
        expected = HNumber("H", [-p[0], p[1], 0, 0])
        assert td.f_perp == expected
        # scaled variant agrees (|grad rho| = 1)
        assert hs.f_perp_scaled(counterexample, flat, p) == expected


def test_counterexample_derived_function_values(flat, counterexample):
    p = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3),
         Fraction(1, 2), Fraction(-2), Fraction(1), Fraction(0))
    td = hs.derived_at(counterexample, flat, p)
    # f_(x0) = y0 k, f_(x1) = -y0 j, f_(y0) = -x1 j + x0 k, f_(y3) = -x0 + x1 i
    y0 = p[4]
    assert td.f_coord[0] == HNumber("H", [0, 0, 0, y0])
    assert td.f_coord[1] == HNumber("H", [0, 0, -y0, 0])
    assert td.f_coord[4] == HNumber("H", [0, 0, -p[1], p[0]])
    assert td.f_coord[7] == HNumber("H", [-p[0], p[1], 0, 0])
    for i in (2, 3, 5, 6):
        assert td.f_coord[i].is_zero()


def test_conjugate_variable_fails_crf(flat):
    qbar1 = HPoly.variable_conj("H", 2, 0)
    res = hs.is_crf(qbar1, flat)
    assert not res.holds
    v1, v2 = res.witness_value
    assert v1 == HNumber("H", [4, 0, 0, 0]) and v2.is_zero()
    p = flat.sample_points(1, seed=5)[0]
    b1, b2 = hs.dbar_b(qbar1, flat, p)
    assert b1 == HNumber("H", [-4, 0, 0, 0]) and b2.is_zero()


def test_extension_independence(flat, mixed, counterexample):
    """Adding rho * A to the extension leaves all tangential data unchanged."""
    rng = random.Random(17)
    for S in (flat, mixed):
        A = random_poly(rng, deg=1, terms=4)
        f2 = counterexample + S.rho * A
        for p in S.sample_points(4, seed=23):
            a = hs.derived_at(counterexample, S, p)
            b = hs.derived_at(f2, S, p)
            assert a.f_perp == b.f_perp
            assert a.f_qbar == b.f_qbar
            assert a.f_coord == b.f_coord


def test_derived_polys_match_pointwise_values(mixed, counterexample):
    polys = hs.derived_polys(counterexample, mixed)
    for p in mixed.sample_points(4, seed=31):
        td = hs.derived_at(counterexample, mixed, p)
        for i, name in enumerate(hs.COORD_NAMES):
            assert polys[name].evaluate(p) == td.f_coord[i]


def test_derived_polys_require_affine(sphere, counterexample):
    with pytest.raises(ValueError):
        hs.derived_polys(counterexample, sphere)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_scaled_normal_component_of_linear(a, b, c):
    """For f = a x0 + b y1 + c y3 on {y3 = 0}: |grad| f_perp =
    grad-directional derivative minus <g, Df>."""
    S = hs.Hypersurface(HPoly.coordinate("H", 2, 1, 3))
    f = coord(0, 0).scale(a) + coord(1, 1).scale(b) + coord(1, 3).scale(c)
    p = tuple(Fraction(k, 2) for k in (1, -2, 3, 0, 2, 1, -1, 0))
    got = hs.f_perp_scaled(f, S, p)
    # <g, Df> with g = e_{y3}: conj(pack(0,0,0,1)) * dbar_2 f = -k * dbar_2 f
    d2 = fueter_dbar(f, 1).evaluate(p)
    assert got == HNumber.from_real("H", c) - unit(3).conj() * d2


# ---------------------------------------------------------------------------
# admissibility of regular restrictions, numeric path
# ---------------------------------------------------------------------------

def test_regular_restrictions_are_admissible_affine(flat, tilted, mixed):
    rng = random.Random(5)
    for S in (flat, tilted, mixed):
        for _ in range(3):
            F = random_regular(rng)
            u1, u2 = dbar_system(F)
            assert u1.is_zero() and u2.is_zero()
            rep = hs.is_admissible(F, S)
            assert rep.admissible, S.rho


def test_regular_restriction_admissible_on_sphere(sphere):
    rng = random.Random(11)
    F = random_regular(rng)
    samples = sphere.sample_points(5, seed=77)
    rep = hs.is_admissible(F, sphere, samples=samples, tol=1e-6)
    assert rep.admissible
    assert set(rep.derived) == set(hs.COORD_NAMES)


def test_conjugate_variable_not_admissible_on_sphere(sphere):
    qbar1 = HPoly.variable_conj("H", 2, 0)
    samples = sphere.sample_points(5, seed=78)
    rep = hs.is_admissible(qbar1, sphere, samples=samples)
    assert not rep.admissible
    assert not rep.crf.holds


# ---------------------------------------------------------------------------
# pointwise rank test
# ---------------------------------------------------------------------------

def test_rank_condition_goldens(flat, counterexample):
    p = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3),
         Fraction(1, 2), Fraction(-2), Fraction(1), Fraction(0))
    assert hs.rank_condition(counterexample, flat, p)
    assert hs._complex_rank(hs.rank_matrix(counterexample, flat, p)) == 2
    qbar1 = HPoly.variable_conj("H", 2, 0)
    assert not hs.rank_condition(qbar1, flat, p)
    assert hs._complex_rank(hs.rank_matrix(qbar1, flat, p)) == 3


def test_rank_condition_matches_pointwise_crf(flat, tilted, mixed):
    """rank < 3 at p iff the tangential pair vanishes at p."""
    rng = random.Random(31)
    surfaces = (flat, tilted, mixed)
    checked_true = checked_false = 0
    for t in range(45):
        f = random_poly(rng)
        S = surfaces[t % 3]
        for p in S.sample_points(2, seed=900 + t):
            td = hs.derived_at(f, S, p)
            crf_here = td.f_qbar[0].is_zero() and td.f_qbar[1].is_zero()
            assert hs.rank_condition(f, S, p) == crf_here
            checked_true += crf_here
            checked_false += not crf_here
    for t in range(15):
        F = random_regular(rng)
        S = surfaces[t % 3]
        for p in S.sample_points(2, seed=4000 + t):
            assert hs.rank_condition(F, S, p)
            checked_true += 1
    assert checked_true >= 20 and checked_false >= 20


def test_rank_condition_float_path(flat, counterexample):
    p = (1.0, 2.0, -1.0, 3.0, 0.5, -2.0, 1.0, 0.0)
    assert hs.rank_condition(counterexample, flat, p)
    assert not hs.rank_condition(HPoly.variable_conj("H", 2, 0), flat, p)


# ---------------------------------------------------------------------------
# restriction identities (orientation-sensitive)
# ---------------------------------------------------------------------------

def test_volume_restriction_identities(flat, tilted, mixed, sphere):
    """(Dqbar_1 ^ dy)|_S = -conj(nu_1) omega and
    (dx ^ Dqbar_2)|_S = -conj(nu_2) omega on oriented orthonormal frames."""
    w1 = Dqbar_form("H", 2, 0).wedge(volume_block_form("H", 2, 1))
    w2 = volume_block_form("H", 2, 0).wedge(Dqbar_form("H", 2, 1))
    for S in (flat, tilted, mixed, sphere):
        for p in S.sample_points(5, seed=13):
            p = tuple(float(x) for x in p)
            fr = S.oriented_tangent_frame(p)
            nu1, nu2 = (v.to_float() for v in S.normal_at(p))
            got1 = w1.pullback_at(fr, p).to_float()
            got2 = w2.pullback_at(fr, p).to_float()
            for got, nu in ((got1, nu1), (got2, nu2)):
                want = -nu.conj()
                err = max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs))
                assert err < 1e-10


def test_volume_restriction_golden_flat(flat):
    """On {y3 = 0} the second identity reads (dx ^ Dqbar_2)|_S = k * omega."""
    p = (0.3, -1.2, 0.7, 2.0, 0.25, -0.5, 1.5, 0.0)
    fr = flat.oriented_tangent_frame(p)
    w2 = volume_block_form("H", 2, 0).wedge(Dqbar_form("H", 2, 1))
    got = w2.pullback_at(fr, p).to_float()
    want = unit(3).to_float()
    assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) < 1e-12


def test_volume_restriction_scales_with_frame_volume(mixed):
    """On a non-orthonormal frame both sides scale by omega(frame)."""
    p = tuple(float(x) for x in mixed.sample_points(1, seed=41)[0])
    fr = mixed.oriented_tangent_frame(p)
    fr[0] = 2.0 * fr[0]
    fr[3] = fr[3] + 0.25 * fr[5]
    om = mixed.omega_value(p, fr)
    w1 = Dqbar_form("H", 2, 0).wedge(volume_block_form("H", 2, 1))
    nu1 = mixed.normal_at(p)[0].to_float()
    got = w1.pullback_at(fr, p).to_float()
    want = (-nu1.conj()).scale(om)
    assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) < 1e-10


def test_tangential_restriction_identity_exact(mixed):
    """Dq_h|_S ^ d_(q_h) f = -f_(qbar_h) (block volume)|_S, exactly, on
    rational tangent 4-frames of an affine surface."""
    rng = random.Random(7)
    for trial in range(8):
        f = random_poly(rng, deg=3, terms=6)
        p = mixed.sample_points(1, seed=100 + trial)[0]
        td = hs.derived_at(f, mixed, p)
        for h in range(2):
            one_form = Form.zero("H", 2, 1)
            for a in range(4):
                one_form = one_form + Form(
                    "H", 2, 1, {(4 * h + a,): td.f_coord[4 * h + a]})
            lhs = Dq_form("H", 2, h).wedge(one_form)
            rhs = volume_block_form("H", 2, h).mul_left(-td.f_qbar[h])
            for s in range(2):
                frame = mixed.tangent_vectors_rational(
                    p, 4, seed=200 + 10 * trial + s)
                assert lhs.pullback_at(frame, p) == rhs.pullback_at(frame, p)


# ---------------------------------------------------------------------------
# tangent H-line and convexity
# ---------------------------------------------------------------------------

def test_tangent_h_line_is_tangent(mixed, sphere):
    for S in (mixed, sphere):
        p = S.sample_points(1, seed=19)[0]
        nu1, nu2 = (v.to_float() for v in S.normal_at(p))
        v1, v2 = hs.tangent_h_line(S, p)
        v1, v2 = v1.to_float(), v2.to_float()
        pair = nu1.conj() * v1 + nu2.conj() * v2
        assert max(abs(c) for c in pair.coeffs) < 1e-12


def test_levi_sphere_interior_positive(sphere):
    for p in sphere.sample_points(4, seed=29):
        res = hs.levi_h_convexity(sphere, p, side="negative")
        assert res.classification == "positive-definite"
        assert all(e > 0 for e in res.eigenvalues)
    # the exterior side flips the sign
    p = sphere.sample_points(1, seed=30)[0]
    assert hs.levi_h_convexity(
        sphere, p, side="positive").classification == "negative-definite"


def test_levi_signature_difference_surface():
    """rho = |q1|^2 - |q2|^2 - 1 at a point with nu_2 = 0: the tangent
    H-line sits inside the concave block, so {rho < 0} is negative-definite."""
    rho = HPoly.zero("H", 2)
    for a in range(4):
        rho = rho + coord(0, a) ** 2 - coord(1, a) ** 2
    S = hs.Hypersurface(rho - const(1))
    p = tuple(Fraction(c) for c in (1, 0, 0, 0, 0, 0, 0, 0))
    res = hs.levi_h_convexity(S, p, side="negative")
    assert res.classification == "negative-definite"
    assert np.allclose(res.eigenvalues, [-1.0] * 4)


def test_levi_degenerate_and_indefinite():
    # rho = x0 + y0^2 - y1^2: flat normal direction, saddle along the line
    S = hs.Hypersurface(coord(0, 0) + coord(1, 0) ** 2 - coord(1, 1) ** 2)
    p = tuple(Fraction(0) for _ in range(8))
    assert hs.levi_h_convexity(S, p).classification == "indefinite"
    # rho = x0 + y0^2: rank-one form
    S2 = hs.Hypersurface(coord(0, 0) + coord(1, 0) ** 2)
    assert hs.levi_h_convexity(S2, p).classification == "degenerate"
    assert not hs.is_nondegenerate(S2, [p])


def test_levi_side_validation(sphere):
    p = sphere.sample_points(1, seed=2)[0]
    with pytest.raises(ValueError):
        hs.levi_h_convexity(sphere, p, side="inside")
