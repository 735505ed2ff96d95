"""Tangential calculus on hypersurfaces: derived functions, CRF/admissibility
decisions, the pointwise rank test, restriction identities, and convexity."""

import hashlib
import math
import random
import types
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


def test_sampling_rejects_a_surface_without_real_points():
    S = hs.Hypersurface(coord(0, 0) * coord(0, 0) + const(1))
    with pytest.raises(ValueError, match="no real points"):
        S.sample_points(1)


def test_sample_points_lie_on_surface(flat, mixed, sphere):
    for S in (flat, mixed):
        for p in S.sample_points(10, seed=3):
            assert S.rho.evaluate(p).coeffs[0] == 0
    for p in sphere.sample_points(6, seed=3):
        S_val = float(sphere.rho.evaluate(p).coeffs[0])
        assert abs(S_val) < 1e-11, S_val


@pytest.mark.parametrize("radius", [Fraction(1, 10 ** 2), Fraction(1, 10 ** 6),
                                    Fraction(1, 10 ** 10),
                                    Fraction(1, 10 ** 40), Fraction(10 ** 40),
                                    Fraction(1, 10 ** 150),
                                    Fraction(10 ** 150)],
                         ids=["1e-2", "1e-6", "1e-10", "1e-40", "1e40",
                              "1e-150", "1e150"])
def test_sampling_does_not_depend_on_the_size_of_s(radius):
    """Both float tests are scale-free and Newton starts at the size of S:
    on the sphere |q|^2 = r^2 the points are the unit sphere's points times
    r up to rounding, each within 1e-13 r of S, and none is called
    singular.  Starts in (-2, 2)^8 found no point for r = 1e-40, and a
    Newton step whose val * grad rho underflows never moved for
    r = 1e-150."""
    S = hs.Hypersurface(_sphere_rho(radius * radius))
    unit_pts = hs.Hypersurface(_sphere_rho(1)).sample_points(8, seed=7)
    pts = S.sample_points(8, seed=7)
    for p, q in zip(pts, unit_pts):
        assert abs(math.hypot(*p) - float(radius)) < 1e-13 * float(radius)
        assert max(abs(a / float(radius) - b) for a, b in zip(p, q)) < 1e-6


@pytest.mark.parametrize("seed, digest", [
    (0, "4ada7549f60bf7405451c5742e22bf21c64aff0ed809befaf8567a65762bb184"),
    (7, "93df1debd64fda7a6d2bde1291e55f88647369e29488eac0ad07dcfff49e36bb"),
])
def test_unit_sphere_points_are_pinned(seed, digest):
    """The underflow guard of the Newton step changes no bit at the unit
    scale: 300 points of the unit sphere, pinned by the sha256 of their
    float.hex digits."""
    pts = hs.Hypersurface(_sphere_rho(1)).sample_points(300, seed=seed)
    text = repr([[x.hex() for x in p] for p in pts])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sampling_still_finds_a_singular_surface():
    """rho = x0^2 vanishes to second order on S, so grad rho vanishes there
    against its variation H p."""
    S = hs.Hypersurface(coord(0, 0) * coord(0, 0))
    with pytest.raises(ValueError, match="gradient vanishes"):
        S.sample_points(1)


def test_affine_sample_points_golden(tilted):
    """Seeded exact sampling: the draws and the pivot value are pinned."""
    rational = hs.Hypersurface(
        coord(0, 1).scale(Fraction(1, 2)) - coord(1, 0).scale(Fraction(7, 3))
        + coord(1, 2).scale(Fraction(2, 3)) + const(Fraction(5, 4)))
    want = {
        tilted: ["-1/4 -1 3/4 7/4 -3/2 5/8 7/4 0",
                 "-1/4 -1/2 7/4 7/4 1 5/8 -1/4 -1",
                 "2 1 -2 -3/2 -3/4 -1/2 1/4 -2"],
        rational: ["-1/4 -1 3/4 7/4 23/28 -2 7/4 0",
                   "-1/4 -1/2 7/4 7/4 5/14 -1 -1/4 -1",
                   "2 1 -2 -3/2 23/28 -7/4 1/4 -2"],
    }
    for S, points in want.items():
        got = S.sample_points(3, seed=3)
        assert all(type(x) is Fraction for p in got for x in p)
        assert [" ".join(map(str, p)) for p in got] == points


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
        # the scaled variant sum_i g_i f_(xi_i) agrees: grad rho = e_{y3}
        assert td.f_coord[7] == expected


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
    # the boundary pair (-f_(qbar_1), -f_(qbar_2))
    b1, b2 = (-q for q in hs.derived_at(qbar1, flat, p).f_qbar)
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


def test_tangential_polys_match_pointwise_values(mixed, counterexample):
    polys, qbar = hs.tangential_polys(counterexample, mixed)
    for p in mixed.sample_points(4, seed=31):
        td = hs.derived_at(counterexample, mixed, p)
        for i in range(8):
            assert polys[i].evaluate(p) == td.f_coord[i]
        for h in range(2):
            assert qbar[h].evaluate(p) == td.f_qbar[h]
            # f_(qbar_h) = sum_a i_a f_(x_{h,a})
            packed = HNumber.zero("H")
            for a in range(4):
                packed = packed + unit(a) * td.f_coord[4 * h + a]
            assert packed == td.f_qbar[h]


def test_affine_crf_witness_is_the_first_pointwise_failure(
        flat, tilted, mixed, counterexample):
    """is_crf's witness on affine S is the first of its 50 seeded points
    where the pointwise tangential pair is nonzero, with that pair as its
    value; a point where the pair vanishes (f = l^2 conj q1 at a zero of l)
    is passed over."""
    rng = random.Random(29)
    qbar1 = HPoly.variable_conj("H", 2, 0)
    witnesses = []
    for S in (flat, tilted, mixed):
        pts = S.sample_points(50, seed=20240601)
        line = coord(0, 2) - const(pts[0][2])
        for f in (qbar1, coord(0, 0) ** 2,
                  counterexample + random_regular(rng), line * line * qbar1):
            res = hs.is_crf(f, S)
            bad = [p for p in pts
                   if not all(v.is_zero()
                              for v in hs.derived_at(f, S, p).f_qbar)]
            assert res.holds == (not bad)
            if bad:
                assert res.witness_point == bad[0]
                assert res.witness_value == \
                    hs.derived_at(f, S, bad[0]).f_qbar
                witnesses.append(pts.index(bad[0]))
    # counterexample + regular is CRF on the wall only
    assert witnesses == [0, 0, 1] + [0, 0, 0, 1] * 2


def test_affine_crf_draws_no_point_after_its_witness(flat, monkeypatch):
    """On the wall, the witness of conj(q1) (and of l^2 conj(q1), which
    vanishes at the first point) is the first failing point of
    ``sample_points(50, seed=20240601)``, and is_crf draws the seeded points
    one at a time: eight draws per point, none after the witness."""
    pts = flat.sample_points(50, seed=20240601)
    qbar1 = HPoly.variable_conj("H", 2, 0)
    line = coord(0, 2) - const(pts[0][2])
    draws = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(hs, "random",
                        types.SimpleNamespace(Random=CountingRandom))
    for f, index in ((qbar1, 0), (line * line * qbar1, 1)):
        first = next(p for p in pts if not all(
            v.is_zero() for v in hs.derived_at(f, flat, p).f_qbar))
        assert pts.index(first) == index
        draws.clear()
        assert hs.is_crf(f, flat).witness_point == first
        assert len(draws) == 8 * (index + 1)


def test_affine_crf_witness_when_every_sample_vanishes(flat):
    """P(x0)^2 conj(q1), with P vanishing at every quarter-integer x0 in
    [-2, 2], is not CRF on the wall, yet its tangential pair vanishes at
    all 50 seeded points: the witness is the first of them, with no value."""
    x0 = coord(0, 0)
    P = const(1)
    for k in range(-8, 9):
        P = P * (x0.scale(4) - const(k))
    res = hs.is_crf(P * P * HPoly.variable_conj("H", 2, 0), flat)
    assert not res.holds and res.witness_value is None
    assert res.witness_point == flat.sample_points(1, seed=20240601)[0]


def _eager_affine_samples(S, count, seed):
    """The affine branch of ``sample_points`` as it was before the points
    were drawn lazily: every point drawn and completed in one loop."""
    rng = random.Random(seed)
    _, piv, s = S.affine_form()
    out = []
    for _ in range(count):
        p = [Fraction(rng.randint(-8, 8), 4) for _ in range(8)]
        p[piv] = s.evaluate(p).coeffs[0]
        out.append(tuple(p))
    return out


def test_affine_sample_points_are_unchanged(flat, tilted, mixed):
    for S in (flat, tilted, mixed):
        for count, seed in ((50, 20240601), (7, 3), (1, 0), (0, 5), (-2, 5)):
            assert S.sample_points(count, seed=seed) == \
                _eager_affine_samples(S, count, seed)


def test_tangential_polys_require_affine(sphere, counterexample):
    with pytest.raises(ValueError):
        hs.tangential_polys(counterexample, sphere)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_scaled_normal_component_of_linear(a, b, c):
    """For f = a x0 + b y1 + c y3 on {y3 = 0}: |grad| f_perp =
    grad-directional derivative minus <g, Df>."""
    S = hs.Hypersurface(HPoly.coordinate("H", 2, 1, 3))
    f = coord(0, 0).scale(a) + coord(1, 1).scale(b) + coord(1, 3).scale(c)
    p = tuple(Fraction(k, 2) for k in (1, -2, 3, 0, 2, 1, -1, 0))
    got = hs.derived_at(f, S, p).f_perp    # |grad rho| = 1 on {y3 = 0}
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
    rep = hs.is_admissible(F, sphere, tol=1e-6)
    assert rep.admissible
    assert set(rep.derived) == set(hs.COORD_NAMES)


def test_conjugate_variable_not_admissible_on_sphere(sphere):
    qbar1 = HPoly.variable_conj("H", 2, 0)
    rep = hs.is_admissible(qbar1, sphere)
    assert not rep.admissible
    assert not rep.crf.holds


def test_curved_crf_bound_is_relative_to_the_partials_of_f():
    """The float CRF test bounds the pair by tol times f's largest partial
    at the point: a zero gradient gives a zero pair, which passes; a tiny
    non-CRF f fails as its unit-size multiple does; and a pair that is not
    finite (10^250 x0^2 overflows on a sphere of radius 10^100) fails."""
    x0sq = coord(0, 0) * coord(0, 0)
    unit_s = hs.Hypersurface(_sphere_rho(1))
    big = hs.Hypersurface(_sphere_rho(10 ** 200))
    for f in (HPoly.zero("H", 2), const(5)):
        assert hs.is_crf(f, unit_s).holds
    for c in (Fraction(1, 10 ** 12), 1, 10 ** 12):
        assert not hs.is_crf(x0sq.scale(c), unit_s).holds
    res = hs.is_crf(x0sq.scale(10 ** 250), big)
    assert not res.holds
    assert not all(math.isfinite(c) for v in res.witness_value
                   for c in v.coeffs)


def test_affine_admissibility_judges_the_projections_own_pair(
        flat, mixed, counterexample, monkeypatch):
    """On affine S every CRF verdict of is_admissible, f's first, reads the
    very pair object that _tangential returned for that function: f's pair
    is not packed again from its derived functions."""
    tangential, affine_crf = hs._tangential, hs._affine_crf
    made, judged = [], []

    def spy_tangential(partials, g):
        made.append(tangential(partials, g))
        return made[-1]

    def spy_affine_crf(f_qbar, S):
        judged.append(f_qbar)
        return affine_crf(f_qbar, S)

    monkeypatch.setattr(hs, "_tangential", spy_tangential)
    monkeypatch.setattr(hs, "_affine_crf", spy_affine_crf)
    for S in (flat, mixed):
        for f in (counterexample, HPoly.variable_conj("H", 2, 0)):
            made.clear()
            judged.clear()
            hs.is_admissible(f, S)
            assert len(judged) == len(made) > 0
            assert all(q is pair for q, (_, pair) in zip(judged, made))
    assert len(judged) == 1     # conj(q1) is not CRF on mixed


def test_curved_decisions_form_the_partials_of_f_once(sphere, monkeypatch):
    """On curved S, is_crf forms f's eight partials once and evaluates them
    at its 25 points (not 8 per point), and is_admissible forms one more
    set for its 160 stencil points."""
    f = random_regular(random.Random(11))
    partial_flat = HPoly.partial_flat
    calls = []

    def counted(self, i):
        if self is f:
            calls.append(i)
        return partial_flat(self, i)

    monkeypatch.setattr(HPoly, "partial_flat", counted)
    assert hs.is_crf(f, sphere)
    assert calls == list(range(8))
    calls.clear()
    assert hs.is_admissible(f, sphere, tol=1e-6).admissible
    assert calls == list(range(8)) * 2


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


def _sphere_rho(r_squared):
    rho = const(-r_squared)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) * coord(h, a)
    return rho


def test_rank_condition_float_path_does_not_depend_on_the_scale_of_rho():
    """On the unit sphere scaled by 1e-9 the exact rank of conj(q1)'s matrix
    is 3 at every sample point, and the float test must say so too."""
    rho = _sphere_rho(1)
    unit_sphere = hs.Hypersurface(rho)
    scaled = hs.Hypersurface(rho.scale(Fraction(1, 10 ** 9)))
    qbar1 = HPoly.variable_conj("H", 2, 0)
    pts = unit_sphere.sample_points(5)
    assert scaled.sample_points(5) == pts
    for p in pts:
        exact = tuple(Fraction(c).limit_denominator(10 ** 12) for c in p)
        assert hs._complex_rank(hs.rank_matrix(qbar1, scaled, exact)) == 3
        assert hs.rank_condition(qbar1, scaled, p) is False
        assert hs.rank_condition(qbar1, unit_sphere, p) is False


def test_rank_condition_float_path_does_not_depend_on_the_size_of_grad_rho():
    """On the sphere of radius 1e-10, |grad rho| = 2e-10: the float test must
    still see the rank 3 of conj(q1)'s matrix at p."""
    r = Fraction(1, 10 ** 10)
    S = hs.Hypersurface(_sphere_rho(r * r))
    p = (0.0,) * 4 + (0.6 * float(r), 0.0, 0.8 * float(r), 0.0)
    exact = tuple(Fraction(c).limit_denominator(10 ** 12) for c in p)
    qbar1 = HPoly.variable_conj("H", 2, 0)
    assert hs._complex_rank(hs.rank_matrix(qbar1, S, exact)) == 3
    assert hs.rank_condition(qbar1, S, p) is False


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
# the rank matrix from one gradient per point
# ---------------------------------------------------------------------------

def wirtinger_from_scratch(re_poly, im_poly, pair, conjugate, pt):
    """One Wirtinger entry built on its own, as a reference: four
    ``partial_flat`` derivatives of the real and imaginary polynomials, each
    evaluated at pt."""
    s = 1 if conjugate else -1
    (re_a, im_a), (re_b, im_b) = (
        [poly.partial_flat(i).evaluate(pt).coeffs[0]
         for poly in (re_poly, im_poly)] for i in pair)
    return (Fraction(re_a - s * im_b, 1) / 2, Fraction(im_a + s * re_b, 1) / 2)


def rank_matrix_from_scratch(f, S, pt):
    """The 4x3 rank matrix with every entry built by its own derivatives."""
    f0, f1, f2, f3 = (f.component(b) for b in range(4))
    U, Vb, rho = (f0, f1), (f2, -f3), (S.rho, HPoly.zero("H", 2))

    def W(polys, pair, conj):
        return wirtinger_from_scratch(*polys, pair, conj, pt)

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def add(a, b):
        return (a[0] + b[0], a[1] + b[1])

    z1, w1, z2, w2 = (0, 1), (2, 3), (4, 5), (6, 7)
    return [
        [sub(W(U, z1, True), W(Vb, w1, True)), W(rho, z1, True),
         sub((0, 0), W(rho, w1, True))],
        [add(W(Vb, z1, False), W(U, w1, False)), W(rho, w1, False),
         W(rho, z1, False)],
        [sub(W(U, z2, True), W(Vb, w2, True)), W(rho, z2, True),
         sub((0, 0), W(rho, w2, True))],
        [add(W(Vb, z2, False), W(U, w2, False)), W(rho, w2, False),
         W(rho, z2, False)],
    ]


def unit_sphere():
    rho = const(-1)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) ** 2
    return hs.Hypersurface(rho)


def test_rank_matrix_matches_entrywise_derivatives(flat, tilted,
                                                   counterexample):
    """Each of the 12 entries equals, value and type, the one built from its
    own four derivatives: admissible f (regular plus a multiple of rho), the
    counterexample and conj(q1), on the wall, the tilted plane and the unit
    sphere at exact rational points."""
    fr = Fraction
    regular = coord(0, 1) - coord(0, 0).mul_const_left(unit(1))
    qbar1 = HPoly.variable_conj("H", 2, 0)
    sphere1 = unit_sphere()
    cases = [
        (flat, [(fr(3, 5), fr(4, 5)) + (0,) * 6,
                (fr(1), fr(-2), fr(1, 3), fr(5), fr(-1, 2), fr(7), fr(2), 0)]
         + flat.sample_points(3, seed=5)),
        (tilted, [(fr(3, 5), fr(4, 5), 0, 0, 0, fr(1, 5), 0, 0)]
         + tilted.sample_points(3, seed=5)),
        (sphere1, [(fr(3, 5), fr(4, 5)) + (0,) * 6,
                   (0,) * 4 + (fr(5, 13), 0, fr(12, 13), 0),
                   (fr(1, 2),) * 4 + (0,) * 4]),
    ]
    seen = 0
    for S, points in cases:
        admissible = regular + S.rho * coord(0, 2).mul_const_left(unit(3))
        for f in (admissible, counterexample, qbar1):
            for p in points:
                assert S.rho.evaluate(p).coeffs[0] == 0
                got = hs.rank_matrix(f, S, p)
                want = rank_matrix_from_scratch(f, S, tuple(p))
                assert got == want
                assert [[tuple(map(type, e)) for e in row] for row in got] \
                    == [[tuple(map(type, e)) for e in row] for row in want]
                seen += 1
    assert seen == 3 * (5 + 4 + 3)


def test_rank_matrix_takes_one_gradient_of_f_per_point(flat, monkeypatch):
    """One gradient pass per point, on f, and no ``partial_flat`` call at
    all: rho's partials come from the surface, stored on affine S."""
    f = coord(0, 1) * coord(1, 0) + coord(0, 0).mul_const_left(unit(2))
    cases = [(flat, p) for p in flat.sample_points(4, seed=3)]
    cases.append((unit_sphere(), (Fraction(3, 5), Fraction(4, 5)) + (0,) * 6))
    gradient, partial_flat = hs._int_gradient, HPoly.partial_flat
    passes, partials = [], []

    def counted_gradient(poly, point):
        passes.append(poly)
        return gradient(poly, point)

    def counted_partial(self, i):
        partials.append(self)
        return partial_flat(self, i)

    monkeypatch.setattr(hs, "_int_gradient", counted_gradient)
    monkeypatch.setattr(HPoly, "partial_flat", counted_partial)
    for S, p in cases:
        passes.clear()
        hs.rank_matrix(f, S, p)
        assert len(passes) == 1
        assert passes[0] is f
    assert partials == []


def rank_by_gauss_jordan(rows):
    """Rank of a matrix of complex pairs by Gauss-Jordan in Fractions: each
    pivot row divided by its pivot, every other row cleared."""
    rows = [[complex_pair(e) for e in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows))
                    if rows[r][col] != (0, 0)), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        a, b = rows[rank][col]
        n = a * a + b * b
        inv = (a / n, -b / n)
        rows[rank] = [cmul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != (0, 0):
                fct = rows[r][col]
                rows[r] = [(x[0] - y[0], x[1] - y[1])
                           for x, y in zip(rows[r],
                                           (cmul(fct, z) for z in rows[rank]))]
        rank += 1
    return rank


def complex_pair(e):
    return (Fraction(e[0]), Fraction(e[1]))


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def test_fraction_free_rank_matches_gauss_jordan():
    """The Gaussian-integer engine of the rank test against a Fraction
    Gauss-Jordan reference, on random 4x3 matrices of every rank 0..3:
    full rank, a third column in the complex span of the first two, rank-one
    outer products, zero columns and the zero matrix."""
    rng = random.Random(61)

    def entry():
        return (Fraction(rng.randint(-6, 6), rng.randint(1, 9)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 9)))

    seen = set()
    for trial in range(400):
        kind = trial % 5
        if kind == 0:
            rows = [[entry() for _ in range(3)] for _ in range(4)]
        elif kind == 1:
            a, b = entry(), entry()
            rows = [[x, y, (cmul(a, x)[0] + cmul(b, y)[0],
                            cmul(a, x)[1] + cmul(b, y)[1])]
                    for x, y in (([entry(), entry()]) for _ in range(4))]
        elif kind == 2:
            col = [entry() for _ in range(4)]
            row = [entry() for _ in range(3)]
            rows = [[cmul(c, r) for r in row] for c in col]
        elif kind == 3:
            rows = [[entry(), (0, 0), entry()] for _ in range(4)]
        else:
            rows = [[(0, 0)] * 3 for _ in range(4)]
        rng.shuffle(rows)
        want = rank_by_gauss_jordan(rows)
        assert hs._complex_rank(rows) == want
        seen.add(want)
    assert seen == {0, 1, 2, 3}
