"""Exact solvers: graded conjugate-Fueter solve, kernels, extensions, jumps."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfbench.hypercomplex import DIM, MUL_TABLE, HNumber
from crfbench.linalg import Echelon, nullspace_sparse, solve_sparse
from crfbench.polycalc import (HPoly, compat_pbar, dbar_system, fueter_dbar,
                               monomials)
from crfbench.hypersurface import Hypersurface, is_admissible
from crfbench import crfsolve as cs
from crfbench import hypercomplex, polycalc

from oracles import (CLASS_REFUSAL, FLIPPED, _assemble, dbar_images,
                     with_index_rule_broken, with_sign_flipped)


def rand_poly(rng, algebra, n, deg=3, terms=5):
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


def coord(h, a):
    return HPoly.coordinate("H", 2, h, a)


def factorial_prod(exp):
    return math.prod(math.factorial(e) for e in exp)


@pytest.fixture(scope="module")
def flat():
    return Hypersurface(coord(1, 3))


@pytest.fixture(scope="module")
def counterexample():
    j, k = HNumber.unit("H", 2), HNumber.unit("H", 3)
    return (coord(0, 1) * coord(1, 0)).mul_const_left(-j) + \
        (coord(0, 0) * coord(1, 0)).mul_const_left(k)


def regular_poly(rng):
    out = HPoly.zero("H", 2)
    basis = [HPoly.constant("H", 2, 1)]
    for h in range(2):
        for a in (1, 2, 3):
            basis.append(
                coord(h, a) - coord(h, 0).mul_const_left(HNumber.unit("H", a)))
    for b in basis:
        out = out + b.mul_const_right(
            HNumber("H", [Fraction(rng.randint(-2, 2)) for _ in range(4)]))
    return out


# ---------------------------------------------------------------------------
# graded solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algebra", ["H", "O"])
def test_round_trips(algebra):
    rng = random.Random(42 if algebra == "H" else 43)
    for _ in range(12):
        u = rand_poly(rng, algebra, 2)
        g = dbar_system(u)
        u2 = cs.solve_crf(g)
        assert list(dbar_system(u2)) == list(g)


def test_octonionic_three_variable_round_trip():
    rng = random.Random(44)
    u = rand_poly(rng, "O", 3, deg=2, terms=4)
    g = dbar_system(u)
    u2 = cs.solve_crf(g)
    assert list(dbar_system(u2)) == list(g)


def test_solution_is_deterministic():
    rng = random.Random(45)
    u = rand_poly(rng, "H", 2)
    g = dbar_system(u)
    a = cs.solve_crf(g)
    b = cs.solve_crf(g)
    assert a == b


def test_full_monomial_space_is_listed_only_when_candidates_fail(monkeypatch):
    # these right-hand sides are solved on the shifts of their own support,
    # so the full degree-(k+1) monomial space is never enumerated
    def no_full_space(*args):
        raise AssertionError("full monomial space enumerated")
    monkeypatch.setattr(cs, "monomials", no_full_space)
    rng = random.Random(42)
    for _ in range(4):
        g = dbar_system(rand_poly(rng, "H", 2))
        assert list(dbar_system(cs.solve_crf(g))) == list(g)


def test_full_monomial_space_solves_what_the_candidates_cannot(monkeypatch):
    # g = (j y1, -i x2) has no solution on the shifts of its own support;
    # the full degree-2 space gives the one with free variables zero
    listed = []

    def spy(width, k):
        listed.append((width, k))
        return monomials(width, k)
    monkeypatch.setattr(cs, "monomials", spy)
    i, j, k = (HNumber.unit("H", a) for a in (1, 2, 3))
    g = [coord(1, 1).mul_const_left(j), coord(0, 2).mul_const_left(-i)]
    u = cs.solve_crf(g)
    assert (8, 2) in listed
    assert list(dbar_system(u)) == g
    assert u == ((coord(0, 3) * coord(1, 3)).mul_const_left(-k)
                 + (coord(0, 3) * coord(1, 1)).mul_const_left(i)
                 + (coord(0, 2) * coord(1, 3)).mul_const_left(j))
    # a cap between the 15 candidates and the 36 monomials of degree 2 (four
    # unknowns each) stops the solve before the full space is listed
    listed.clear()
    with pytest.raises(cs.BudgetExceeded, match="needs 144 unknowns"):
        cs.solve_crf(g, max_unknowns=100)
    assert (8, 2) not in listed


def test_constant_right_hand_side():
    g = [HPoly.constant("H", 2, 1), HPoly.zero("H", 2)]
    u = cs.solve_crf(g)
    assert list(dbar_system(u)) == g
    assert u.degree() == 1


def test_zero_right_hand_side():
    g = [HPoly.zero("O", 2), HPoly.zero("O", 2)]
    assert cs.solve_crf(g).is_zero()


@pytest.mark.parametrize("algebra,expected", [("H", -2), ("O", 2)])
def test_incompatible_rejection(algebra, expected):
    """g_a = x_{b,0}^2 has a constant residual (the two algebras disagree in
    sign), so it can never be a conjugate-Fueter image."""
    width = DIM[algebra] * 2
    exp = [0] * width
    exp[DIM[algebra]] = 2       # x_{1,0}^2
    g = [HPoly(algebra, 2, {tuple(exp): HNumber.from_real(algebra, 1)}),
         HPoly.zero(algebra, 2)]
    from crfbench.polycalc import compat_pbar
    residuals = compat_pbar(g)
    assert any(r.coefficient((0,) * width).coeffs[0] == expected
               for r in residuals if not r.is_zero())
    with pytest.raises(cs.CompatibilityViolation):
        cs.solve_crf(g)


def test_solve_validation():
    with pytest.raises(ValueError):
        cs.solve_crf([])
    with pytest.raises(ValueError):
        cs.solve_crf([HPoly.zero("H", 2)])   # wrong component count


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_solve_refuses_a_read_out_that_fails_verification(monkeypatch,
                                                          algebra):
    """A class solve whose read-out has one integer value moved by 1 gives
    a u off by x^[mu] i_beta / den, deg mu >= 1, so dbar u != g and the
    exact check of solve_crf raises."""
    g = dbar_system(rand_poly(random.Random(47), algebra, 2))
    cs.solve_crf(g)
    class_solve = cs._class_solve

    def perturbed(*args):
        den, out = class_solve(*args)
        j = min(out)
        return den, {**out, j: out[j] + 1}
    monkeypatch.setattr(cs, "_class_solve", perturbed)
    with pytest.raises(AssertionError, match="solution failed verification"):
        cs.solve_crf(g)


def test_budget_guard():
    rng = random.Random(46)
    u = rand_poly(rng, "H", 2, deg=3)
    g = dbar_system(u)
    with pytest.raises(cs.BudgetExceeded):
        cs.solve_crf(g, max_unknowns=3)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_round_trip_property(seed):
    rng = random.Random(seed)
    u = rand_poly(rng, "H", 2, deg=2, terms=3)
    g = dbar_system(u)
    assert list(dbar_system(cs.solve_crf(g))) == list(g)


def test_divided_power_entries_are_units():
    """In the divided-power basis the operator matrix has entries in
    {-1, 0, +1} (zeros are never stored), and each column's image is
    fueter_dbar of x^mu/mu! i_beta read in the x^[nu] = x^nu/nu! basis."""
    for algebra in ("H", "O"):
        width = DIM[algebra] * 2
        columns = [(mu, beta)
                   for mu in monomials(width, 3)[:40]
                   for beta in range(DIM[algebra])]
        for (mu, beta), image in zip(columns,
                                     dbar_images(algebra, 2, columns)):
            assert set(image.values()) <= {Fraction(-1), Fraction(1)}
            u = HPoly(algebra, 2, {mu: HNumber.unit(algebra, beta).scale(
                Fraction(1, factorial_prod(mu)))})
            expected = {(h, nu, gamma): c * factorial_prod(nu)
                        for h in range(2)
                        for nu, coef in fueter_dbar(u, h).terms.items()
                        for gamma, c in enumerate(coef.coeffs) if c}
            assert image == expected


def rational_poly(rng, algebra, n, deg, terms):
    """Random terms of degree <= deg with components p/q, |p| <= 3, q <= 3."""
    width, d = DIM[algebra] * n, DIM[algebra]
    out = HPoly.zero(algebra, n)
    for _ in range(terms):
        exp = [0] * width
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(width)] += 1
        c = HNumber(algebra, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(d)])
        out = out + HPoly(algebra, n, {tuple(exp): c})
    return out


def unpeeled_solve(g):
    """solve_crf without the presolve: for each degree the sorted shifts of
    the right-hand-side support, then the full monomial space, each assembled
    whole from dbar_images and eliminated by solve_sparse."""
    algebra, n = g[0].algebra, g[0].n
    width, d = DIM[algebra] * n, DIM[algebra]
    for idx, res in enumerate(compat_pbar(g)):
        if not res.is_zero():
            raise cs.CompatibilityViolation(
                f"compatibility residual #{idx} is nonzero")
    den, parts = cs._rhs_by_degree(g)
    u = HPoly.zero(algebra, n)
    for k, rhs in sorted(parts.items()):
        candidates = sorted({(nu[:i] + (nu[i] + 1,) + nu[i + 1:], beta)
                             for _, nu, _ in rhs for i in range(width)
                             for beta in range(d)})
        full = sorted((mu, beta) for mu in monomials(width, k + 1)
                      for beta in range(d))
        for columns in (candidates, full):
            rows, values = _assemble(dbar_images(algebra, n, columns), rhs)
            sol = solve_sparse(rows, values)
            if sol is not None:
                u = u + cs._poly_from_columns(algebra, n, columns, sol)
                break
        else:
            raise cs.CompatibilityViolation(
                "right-hand side passes the pairwise residual check but hits "
                f"a higher-order obstruction at degree {k}")
    return u.scale(Fraction(1, den))


def outcome(solver, g):
    try:
        u = solver(g)
    except cs.CompatibilityViolation as e:
        return str(e)
    return list(u.terms.items())


def obstructed_o3(a, b):
    """(0, a x_{0,2}, b x_{1,5} x_{0,2}) on (O, 3): its pairwise residuals
    vanish for every pair of unit coefficients, and degree 2 is not in the
    image of dbar."""
    x = HPoly.coordinate
    return [HPoly.zero("O", 3), x("O", 3, 0, 2).mul_const_left(a),
            (x("O", 3, 1, 5) * x("O", 3, 0, 2)).mul_const_left(b)]


@pytest.mark.parametrize("algebra,n", [("H", 2), ("O", 2), ("O", 3)])
def test_presolve_gives_the_unpeeled_answer(algebra, n):
    """The presolved solve returns the polynomial, term order included, or
    the CompatibilityViolation that the whole candidate systems give."""
    rng = random.Random(f"presolve/{algebra}{n}")
    deg = 4 if n == 2 else 2
    cases = []
    for _ in range(8):
        g = dbar_system(rational_poly(rng, algebra, n, deg, 4))
        cases.append(g)
        # a term added to one slot usually breaks a pairwise residual
        h = rng.randrange(n)
        cases.append([gh + rational_poly(rng, algebra, n, deg - 1, 1)
                      if i == h else gh for i, gh in enumerate(g)])
    if algebra == "O" and n == 3:
        # higher-order obstructions, alone and on top of a solvable g
        a, b = HNumber.unit("O", 6), HNumber.unit("O", 3)
        cases.append(obstructed_o3(a.scale(Fraction(2, 3)), b))
        solvable = dbar_system(rational_poly(rng, "O", 3, 2, 2))
        cases.append([p + q for p, q in zip(
            obstructed_o3(a, b.scale(Fraction(-1, 2))), solvable)])
    kinds = set()
    for g in cases:
        want = outcome(unpeeled_solve, g)
        assert outcome(cs.solve_crf, g) == want
        kinds.add(want if isinstance(want, str) else "solved")
    assert "solved" in kinds and len(kinds) > 1
    if algebra == "O" and n == 3:
        assert any("higher-order" in kind for kind in kinds)


def test_budget_counts_the_candidates_before_the_presolve(monkeypatch):
    """A cap between the presolved and the whole candidate count still
    raises: the presolve saves work, not unknowns."""
    counts = []
    peel = cs._peel

    def spy(monos, *args):
        kept = peel(monos, *args)
        counts.append((len(monos), len(kept)))
        return kept
    monkeypatch.setattr(cs, "_peel", spy)
    rng = random.Random(47)
    u = HPoly.zero("H", 2)
    for _ in range(3):
        c = rational_poly(rng, "H", 2, 0, 1)
        for i in rng.sample(range(8), 3):
            c = c * coord(i // 4, i % 4)
        u = u + c
    g = dbar_system(u)      # homogeneous of degree 2: one graded solve
    assert list(dbar_system(cs.solve_crf(g))) == list(g)
    [(whole, kept)] = counts
    assert kept < whole
    for cap in (4 * kept, 4 * whole - 1):
        with pytest.raises(cs.BudgetExceeded):
            cs.solve_crf(g, max_unknowns=cap)
    assert list(dbar_system(cs.solve_crf(g, max_unknowns=4 * whole))) == g


def test_presolve_counts_are_pinned(monkeypatch):
    """Monomials kept by the presolve and rows fed to elimination for a fixed
    (O, 2) right-hand side of degree 5, printed when the presolve went in;
    without the presolve every candidate is kept and more rows are fed.
    Each block feeds its class-0 row alone: its d = 8 rows are signed
    copies of the class-0 rows of the other classes, so 384 / 8 = 48 rows
    are fed, with the right-hand sides of all eight classes riding along."""
    counts, rows = [], [0]
    peel, add_row = cs._peel, Echelon.add_row

    def spy_peel(monos, *args):
        out = peel(monos, *args)
        counts.append((len(monos), len(out)))
        return out

    def spy_add_row(self, *args):
        rows[0] += 1
        return add_row(self, *args)
    monkeypatch.setattr(cs, "_peel", spy_peel)
    monkeypatch.setattr(Echelon, "add_row", spy_add_row)
    rng = random.Random(48)
    u = sum((rational_poly(rng, "O", 2, 6, 1) for _ in range(8)),
            HPoly.zero("O", 2))
    # x_{0,0} x_{1,7}^5 i_3 makes the degree exact
    u = u + HPoly("O", 2, {(1,) + (0,) * 14 + (5,): HNumber.unit("O", 3)})
    g = dbar_system(u)
    assert max(gh.degree() for gh in g) == 5
    assert list(dbar_system(cs.solve_crf(g))) == list(g)
    # (candidates, kept) per degree 0..4, then the rows fed (8208 unpeeled,
    # 384 when every class was fed)
    assert counts == [(16, 16), (106, 23), (61, 1), (61, 1), (198, 3)]
    assert rows[0] == 48


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.integers(1, 20), st.data())
def test_packing_round_trips_and_keeps_tuple_order(width, top, data):
    """Exponents with entries up to ``top`` packed in fields of the bit
    length of ``top`` unpack to themselves and compare as their tuples, and
    the packed e_i are the units."""
    bits = top.bit_length()
    exps = st.lists(st.integers(0, top), min_size=width, max_size=width)
    a, b = tuple(data.draw(exps)), tuple(data.draw(exps))
    for exp in (a, b):
        assert cs._unpack(cs._pack(exp, bits), bits, width) == exp
    assert (cs._pack(a, bits) < cs._pack(b, bits)) == (a < b)
    assert (cs._pack(a, bits) == cs._pack(b, bits)) == (a == b)
    for i in range(width):
        e_i = tuple(int(j == i) for j in range(width))
        assert cs._pack(e_i, bits) == polycalc._units(width, bits)[i]


def packed_blocks(algebra, n, k, rhs):
    """rhs {(h, nu, gamma): value} as the builder's {block: {gamma: value}},
    with block (h, nu) the int h << (width * bits) | nu."""
    width, bits = DIM[algebra] * n, (k + 1).bit_length()
    blocks = {}
    for (h, nu, gamma), c in sorted(rhs.items()):
        block = h << width * bits | cs._pack(nu, bits)
        blocks.setdefault(block, {})[gamma] = c
    return blocks


def graded_touched(algebra, n, bits, monos):
    """The (block, q) pairs of each packed monomial of ``monos``."""
    coords = cs._coordinates(algebra, n, bits)
    return [cs._touched(coords, mu) for mu in monos]


def class_frame(algebra, n, bits):
    return cs._class_frame(MUL_TABLE[algebra], DIM[algebra] * n, bits)


def graded_rows(algebra, n, bits, monos, blocks):
    """The class-0 rows and right-hand sides on the packed ``monos``."""
    neighbours = dict(zip(monos, graded_touched(algebra, n, bits, monos)))
    return cs._class_rows(algebra, monos, neighbours, blocks,
                          class_frame(algebra, n, bits))


def odd_xor(d, mu):
    x = 0
    for i, e in enumerate(mu):
        if e & 1:
            x ^= i % d
    return x


def parity(v, mu):
    """<v, mu> mod 2, with <v, mu> the sum of v_{i mod d} mu_i."""
    return sum(v[i % len(v)] * e for i, e in enumerate(mu)) % 2


def expand_class_rows(algebra, n, bits, monos, blocks, built):
    """The rows and values that the class-0 rows and right-hand sides
    ``built`` stand for, d interleaved rows per block in sorted order, by
    the certificates of the live table read on unpacked exponents.

    Row (h, nu, delta) lies in class c = delta XOR odd(nu).  Its entry on
    column (mu, odd(mu) XOR c), at pos * d + odd(mu) XOR c for mu =
    monos[pos], is the class-0 entry of its block on pos times the row sign
    eps_c(odd(nu)) (-1)^(v_0 + <v, nu>) and the column sign eps_c(odd(mu))
    (-1)^<v, mu>; its value is right-hand side c times the row sign.  A
    block with no member keeps only its rows of nonzero value.  The odd
    classes that ``built`` hands out must be those of the unpacked monos."""
    d, width = DIM[algebra], DIM[algebra] * n
    rows, values, odds = built
    mus = [cs._unpack(mu, bits, width) for mu in monos]
    assert odds == [odd_xor(d, mu) for mu in mus]
    certificates = [hypercomplex._certificate(MUL_TABLE[algebra], c)
                    for c in range(d)]
    members = {block for pairs in graded_touched(algebra, n, bits, monos)
               for block, _ in pairs}
    order = sorted(members | blocks.keys())
    assert len(rows) == len(values) == len(order)
    out_rows, out_values = [], []
    for block, row, sides in zip(order, rows, values):
        nu = cs._unpack(block & (1 << width * bits) - 1, bits, width)
        assert (sides is None) == (block not in blocks)
        assert bool(row) == (block in members)
        for delta in range(d):
            c = delta ^ odd_xor(d, nu)
            v, eps = certificates[c]
            row_sign = eps[odd_xor(d, nu)] * (-1) ** (v[0] + parity(v, nu))
            value = row_sign * sides[c] if sides else 0
            if not row and not value:
                continue
            out_rows.append({
                pos * d + (odd_xor(d, mus[pos]) ^ c):
                    row_sign * eps[odd_xor(d, mus[pos])]
                    * (-1) ** parity(v, mus[pos]) * entry
                for pos, entry in row.items()})
            out_values.append(value)
    return out_rows, out_values


def assert_rows_are_assembled(algebra, n, bits, monos, rhs, blocks, built):
    """``built``, the class-0 rows and right-hand sides on the packed
    ``monos`` and the pinned ``blocks`` (rhs packed), expanded into every
    class, are the rows and values of _assemble over dbar_images of the
    unpacked columns: the same lists, with each row's entries in the same
    order.  Returns the number of empty rows, the rows of pinned blocks
    that keep no monomial."""
    d, width = DIM[algebra], DIM[algebra] * n
    columns = [(cs._unpack(mu, bits, width), beta)
               for mu in monos for beta in range(d)]
    rows, values = _assemble(dbar_images(algebra, n, columns), rhs)
    got_rows, got_values = expand_class_rows(algebra, n, bits, monos,
                                             blocks, built)
    assert [list(row.items()) for row in got_rows] == \
        [list(row.items()) for row in rows]
    assert got_values == values
    return sum(not row for row in rows)


GRADED_CASES = [("H", 1, 8), ("O", 1, 4), ("H", 2, 4), ("O", 2, 3),
                ("O", 3, 2)]


@pytest.mark.parametrize("algebra,n,deg", GRADED_CASES)
def test_graded_rows_are_the_assembled_rows(algebra, n, deg, monkeypatch):
    """Every system ``_solve_homogeneous`` builds, on the candidates and on
    the full space, is one class-0 row per block whose expansion into the d
    classes by the certified signs equals _assemble(dbar_images(...), rhs)
    on the same columns, entry for entry; so do the full degree-(k+1)
    space and random subsets of it, where some pinned block keeps no
    monomial.  The degrees run through k + 1 = 2, 4 (and 8 for (H, 1)),
    where the field width grows by one bit."""
    d, width = DIM[algebra], DIM[algebra] * n
    systems, peeled, built = [], [], []
    solve_homogeneous, peel = cs._solve_homogeneous, cs._peel
    class_rows = cs._class_rows

    def spy_solve(rhs, k, *args):
        systems.append((rhs, k))
        return solve_homogeneous(rhs, k, *args)

    def spy_peel(neighbours, pinned):
        peeled.append(peel(neighbours, pinned))
        return peeled[-1]

    def spy_rows(algebra_, monos, neighbours, blocks, frame):
        out = class_rows(algebra_, monos, neighbours, blocks, frame)
        assert monos == sorted(peeled[-1])
        built.append((len(systems) - 1, monos,
                      [neighbours[mu] for mu in monos], blocks, out))
        return out
    monkeypatch.setattr(cs, "_solve_homogeneous", spy_solve)
    monkeypatch.setattr(cs, "_peel", spy_peel)
    monkeypatch.setattr(cs, "_class_rows", spy_rows)
    rng = random.Random(f"rows/{algebra}{n}")
    cases = []
    for _ in range(3):
        # one term of each degree 1..deg+1, so every k = 0..deg is solved
        u = rational_poly(rng, algebra, n, deg + 1, 3)
        for t in range(1, deg + 2):
            exp = [0] * width
            for _ in range(t):
                exp[rng.randrange(width)] += 1
            u = u + HPoly(algebra, n, {tuple(exp): HNumber.unit(
                algebra, rng.randrange(d)).scale(rng.choice([-2, 1, 3]))})
        cases.append(dbar_system(u))
    if n == 2 and algebra == "H":
        i, j = HNumber.unit("H", 1), HNumber.unit("H", 2)
        cases.append([coord(1, 1).mul_const_left(j),
                      coord(0, 2).mul_const_left(-i)])
    if n == 3:
        cases.append(obstructed_o3(HNumber.unit("O", 6),
                                   HNumber.unit("O", 3)))
    for g in cases:
        try:
            cs.solve_crf(g)
        except cs.CompatibilityViolation:
            pass
    monkeypatch.undo()
    attempts = [0] * len(systems)
    memberless = 0
    for index, monos, touched, blocks, out in built:
        rhs, k = systems[index]
        bits = (k + 1).bit_length()
        attempts[index] += 1
        assert blocks == packed_blocks(algebra, n, k, rhs)
        assert monos == sorted(set(monos))
        assert touched == graded_touched(algebra, n, bits, monos)
        memberless += assert_rows_are_assembled(algebra, n, bits, monos, rhs,
                                                blocks, out)
    if n == 2 and algebra == "H" or n == 3:
        assert 2 in attempts        # a full-space attempt was built
    if n == 3:
        # the obstruction's candidates peel every neighbour of a pinned block
        assert memberless
    assert {k + 1 for _, k in systems} == set(range(1, deg + 2))
    memberless = 0      # now over random subsets of the full space
    for rhs, k in systems:
        bits = (k + 1).bit_length()
        blocks = packed_blocks(algebra, n, k, rhs)
        full = sorted(cs._pack(mu, bits) for mu in monomials(width, k + 1))
        assert_rows_are_assembled(algebra, n, bits, full, rhs, blocks,
                                  graded_rows(algebra, n, bits, full, blocks))
        for _ in range(3):
            monos = sorted(rng.sample(full, rng.randint(0, min(len(full),
                                                                12))))
            memberless += assert_rows_are_assembled(
                algebra, n, bits, monos, rhs, blocks,
                graded_rows(algebra, n, bits, monos, blocks))
    assert memberless


@pytest.mark.parametrize("algebra,n,top", [("H", 1, 3), ("H", 2, 3),
                                           ("H", 3, 3), ("O", 1, 3),
                                           ("O", 2, 3), ("O", 3, 2)])
def test_kernel_rows_are_the_assembled_rows(algebra, n, top, monkeypatch):
    """The class-0 rows of the kernel-basis system of each degree <= top,
    expanded into the d classes by the certified signs, are those of
    _assemble over dbar_images of its sorted columns."""
    d, width = DIM[algebra], DIM[algebra] * n
    built = []
    class_rows = cs._class_rows

    def spy_rows(algebra_, monos, neighbours, blocks, frame):
        built.append((monos, class_rows(algebra_, monos, neighbours, blocks,
                                        frame)))
        return built[-1][1]
    monkeypatch.setattr(cs, "_class_rows", spy_rows)
    monkeypatch.setattr(cs, "nullspace_sparse", lambda rows, ncols: [])
    for degree in range(top + 1):
        assert cs.regular_kernel_basis(algebra, n, degree) == []
        [(monos, (rows, values, odds))] = built
        built.clear()
        bits = max(degree, 1).bit_length()
        columns = sorted((mu, beta) for k in range(degree + 1)
                         for mu in monomials(width, k) for beta in range(d))
        assert [(cs._unpack(mu, bits, width), beta)
                for mu in monos for beta in range(d)] == columns
        assert values == [None] * len(rows)
        want, _ = _assemble(dbar_images(algebra, n, columns), {})
        got, _ = expand_class_rows(algebra, n, bits, monos, {},
                                   (rows, values, odds))
        assert [list(row.items()) for row in got] == \
            [list(row.items()) for row in want]


@pytest.mark.parametrize("algebra,n", [("H", 2), ("O", 2), ("O", 3)])
def test_class_solve_is_the_assembled_solve(algebra, n):
    """_class_solve on random subsets of the candidates and of the full
    space, and on both whole, gives solve_sparse's answer on the whole
    system _assemble(dbar_images(...), rhs): the same read-out, or None.
    The right-hand sides include candidates that are inconsistent where
    the full space is not, and the obstruction of (O, 3)."""
    d, width = DIM[algebra], DIM[algebra] * n
    rng = random.Random(f"class-solve/{algebra}{n}")
    deg = 3 if n == 2 else 2
    cases = [dbar_system(rational_poly(rng, algebra, n, deg, 4))
             for _ in range(3)]
    if algebra == "H":
        i, j = HNumber.unit("H", 1), HNumber.unit("H", 2)
        cases.append([coord(1, 1).mul_const_left(j),
                      coord(0, 2).mul_const_left(-i)])
    if n == 3:
        cases.append(obstructed_o3(HNumber.unit("O", 6),
                                   HNumber.unit("O", 3)))
    outcomes = set()
    for g in cases:
        _, parts = cs._rhs_by_degree(g)
        for k, rhs in parts.items():
            bits = (k + 1).bit_length()
            blocks = packed_blocks(algebra, n, k, rhs)
            coords = cs._coordinates(algebra, n, bits)
            low = (1 << width * bits) - 1
            candidates = sorted({(block & low) + one for block in blocks
                                 for _, one, _, _ in coords})
            full = sorted(cs._pack(mu, bits)
                          for mu in monomials(width, k + 1))
            sets = [candidates, full] + [
                sorted(rng.sample(pool, rng.randint(1, len(pool))))
                for pool in (candidates, full) for _ in range(3)]
            for monos in sets:
                neighbours = dict(zip(monos, graded_touched(
                    algebra, n, bits, monos)))
                got = cs._class_solve(algebra, monos, neighbours, blocks,
                                      class_frame(algebra, n, bits))
                columns = [(cs._unpack(mu, bits, width), beta)
                           for mu in monos for beta in range(d)]
                want = solve_sparse(*_assemble(
                    dbar_images(algebra, n, columns), rhs))
                assert got == want
                outcomes.add((monos is candidates, monos is full,
                              got is None))
    assert (False, False, True) in outcomes and \
        (False, False, False) in outcomes
    # the candidates fail where the full space solves
    if algebra == "H" or n == 3:
        assert (True, False, True) in outcomes
    if algebra == "H":
        assert (False, True, False) in outcomes
    if n == 3:
        assert (False, True, True) in outcomes      # the obstruction


@pytest.mark.parametrize("algebra,n,degree", [("H", 1, 3), ("H", 2, 2),
                                              ("O", 1, 2), ("O", 2, 1),
                                              ("O", 3, 1)])
def test_kernel_basis_is_the_assembled_nullspace(algebra, n, degree):
    """The kernel basis is nullspace_sparse of the whole system
    _assemble(dbar_images(...)) on the sorted columns, one polynomial per
    free column in increasing order."""
    d, width = DIM[algebra], DIM[algebra] * n
    columns = sorted((mu, beta) for k in range(degree + 1)
                     for mu in monomials(width, k) for beta in range(d))
    rows, _ = _assemble(dbar_images(algebra, n, columns), {})
    want = [cs._poly_from_columns(algebra, n, columns, vec)
            for vec in nullspace_sparse(rows, len(columns))]
    assert cs.regular_kernel_basis(algebra, n, degree) == want


@pytest.mark.parametrize("args,message", [
    (("H", 0, 1), "at least one variable"),
    (("O", -1, 2), "at least one variable"),
    (("H", 2, -1), "degree must be nonnegative"),
    (("X", 2, 1), "unknown algebra 'X'"),
])
def test_kernel_basis_validates_its_arguments(args, message):
    with pytest.raises(ValueError, match=message):
        cs.regular_kernel_basis(*args)


@pytest.mark.parametrize("algebra,a,b", FLIPPED + [("H", None, None)])
def test_graded_routes_refuse_an_uncertified_table(monkeypatch, algebra, a,
                                                   b):
    """The graded solve and the kernel basis refuse the tables that the
    syzygy count refuses (a None: the table off the index rule).  The
    constant right-hand side has no compatibility residual to fail first."""
    table = MUL_TABLE[algebra]
    monkeypatch.setitem(MUL_TABLE, algebra, with_index_rule_broken(table)
                        if a is None else with_sign_flipped(table, a, b))
    g = [HPoly.constant(algebra, 2, 1), HPoly.zero(algebra, 2)]
    with pytest.raises(AssertionError, match=CLASS_REFUSAL):
        cs.solve_crf(g)
    with pytest.raises(AssertionError, match=CLASS_REFUSAL):
        cs.regular_kernel_basis(algebra, 2, 1)


# ---------------------------------------------------------------------------
# kernel bases
# ---------------------------------------------------------------------------

def test_kernel_dimension_golden():
    basis = cs.regular_kernel_basis("H", 1, 1)
    assert len(basis) == 16
    for p in basis:
        assert fueter_dbar(p, 0).is_zero()


def test_kernel_dimension_against_dense_rank():
    """Independent oracle: the conjugate-Fueter coefficient matrix on the
    degree <= 1 monomial basis, assembled through the polynomial calculus and
    ranked with numpy."""
    monos = [(0, 0, 0, 0)] + [tuple(int(i == a) for i in range(4))
                              for a in range(4)]
    cols = []
    for mu in monos:
        for beta in range(4):
            coeffs = [Fraction(0)] * 4
            coeffs[beta] = Fraction(1)
            p = HPoly("H", 1, {mu: HNumber("H", coeffs)})
            img = fueter_dbar(p, 0)
            col = np.zeros(4)   # image is a constant
            if not img.is_zero():
                col = np.array([float(c)
                                for c in img.coefficient((0, 0, 0, 0)).coeffs])
            cols.append(col)
    mat = np.stack(cols, axis=1)
    rank = np.linalg.matrix_rank(mat)
    assert mat.shape[1] - rank == 16


@pytest.mark.parametrize("algebra,top", [("H", 4), ("O", 3)])
def test_one_variable_kernel_dimensions_closed_form(algebra, top):
    """Independent count: the regular homogeneous polynomials of degree k in
    one variable number d * C(k + d - 2, d - 2)."""
    d = DIM[algebra]
    sizes = [0] + [len(cs.regular_kernel_basis(algebra, 1, k))
                   for k in range(top + 1)]
    for k in range(top + 1):
        assert sizes[k + 1] - sizes[k] == d * math.comb(k + d - 2, d - 2)


@pytest.mark.parametrize("algebra,n,degree,size,digest", [
    ("O", 2, 2, 952, "eb98e9b2c3e6e934"),
    ("H", 3, 2, 208, "ba3dec563c4c217b"),
    ("O", 1, 3, 960, "e803ff5d971391d3"),
])
def test_kernel_bases_are_byte_stable(algebra, n, degree, size, digest):
    """Kernel bases past the benchmark goldens, pinned by the sha256 prefix
    of their canonical JSON: the basis, its order and every coefficient."""
    basis = cs.regular_kernel_basis(algebra, n, degree)
    text = json.dumps([p.to_json() for p in basis], sort_keys=True)
    assert len(basis) == size
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("algebra,n,degree,size,digest", [
    ("H", 2, 0, 4, "13a3b2773d0bb12e"),
    ("H", 2, 1, 28, "06c5490630f48224"),
    ("H", 2, 2, 108, "f7a3fa5b6ad9303b"),
    ("H", 2, 3, 308, "c0cfc07b93562968"),
    ("O", 2, 1, 120, "d78f9f9f9b617043"),
])
def test_small_kernel_bases_are_byte_stable(algebra, n, degree, size,
                                            digest):
    """The kernel bases of (H, 2) up to degree 3 and of (O, 2) at degree 1,
    pinned by the sha256 prefix of their canonical JSON as printed before
    the graded rows were built on packed monomials."""
    basis = cs.regular_kernel_basis(algebra, n, degree)
    text = json.dumps([p.to_json() for p in basis], sort_keys=True)
    assert len(basis) == size
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_kernel_budget_guard():
    with pytest.raises(cs.BudgetExceeded):
        cs.regular_kernel_basis("H", 2, 3, max_unknowns=10)
    # far too many columns to list: the cap is checked on their count
    with pytest.raises(cs.BudgetExceeded):
        cs.regular_kernel_basis("O", 3, 40)


def with_coefficient_moved(p, delta):
    """p with the first integer entry of its first term of degree >= 1
    moved by delta: dbar of that one term is nonzero, so the result is not
    regular when p is."""
    den, rows = p._ints
    exp = next(e for e in rows if sum(e))
    rows = dict(rows)
    rows[exp] = [rows[exp][0] + delta] + rows[exp][1:]
    return polycalc._int_poly(p.algebra, p.n, rows, den)


def is_regular(p):
    return all(fueter_dbar(p, h).is_zero() for h in range(p.n))


def corrupted_groups(group):
    """Every copy c of ``group`` with one integer coefficient moved by +-1,
    the other copies as they are."""
    return [group[:c] + [with_coefficient_moved(group[c], delta)]
            + group[c + 1:]
            for c in range(len(group)) for delta in (1, -1)]


@pytest.mark.parametrize("algebra,n,degree", [("H", 2, 2), ("O", 2, 1)])
def test_kernel_basis_refuses_a_corrupted_class_copy(monkeypatch, algebra, n,
                                                     degree):
    """With one integer coefficient of one class copy moved by +-1, in the
    first group of degree >= 1, for every copy c and both signs, the packed
    check fails and the kernel basis raises."""
    d = DIM[algebra]
    class_copies = cs._class_copies
    for c in range(d):
        for delta in (1, -1):
            seen = []

            def spy_copies(*args):
                copies = class_copies(*args)
                if not seen and max(p.degree() for p in copies) >= 1:
                    copies[c] = with_coefficient_moved(copies[c], delta)
                    seen.append(copies)
                    assert not cs._all_regular(copies)
                return copies
            monkeypatch.setattr(cs, "_class_copies", spy_copies)
            with pytest.raises(AssertionError,
                               match="kernel vector not regular"):
                cs.regular_kernel_basis(algebra, n, degree)
            assert len(seen) == 1
            monkeypatch.undo()


@pytest.mark.parametrize("algebra,n,degree", [("H", 2, 2), ("O", 2, 1),
                                              ("H", 3, 2)])
def test_packed_check_agrees_with_fueter_dbar(algebra, n, degree):
    """The packed check of a group of d class copies is True exactly when
    fueter_dbar(p, h) is zero for every copy p and variable h: on every
    group of the basis, where both hold, and on every corruption of the
    groups of degree >= 1, where both fail."""
    d = DIM[algebra]
    basis = cs.regular_kernel_basis(algebra, n, degree)
    groups = [basis[i:i + d] for i in range(0, len(basis), d)]
    corrupted = [bad for group in groups
                 if max(p.degree() for p in group) >= 1
                 for bad in corrupted_groups(group)]
    assert len(corrupted) > len(groups)
    for group in groups:
        assert cs._all_regular(group) and all(map(is_regular, group))
    for group in corrupted:
        assert cs._all_regular(group) == all(map(is_regular, group)) is False


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_packed_check_is_not_fooled_by_cancelling_copies(algebra):
    """Copies 2^t r and -r pack to 0 in base 2^t: the base the check takes
    from the copies' own entries is larger, for every t."""
    r = HPoly(algebra, 2, {(1,) + (0,) * (2 * DIM[algebra] - 1):
                           HNumber.unit(algebra, 1)})
    assert not is_regular(r)
    for t in range(40):
        assert not cs._all_regular([r.scale(2 ** t), -r])
        assert not cs._all_regular([r.scale(2 ** t), -r, r.scale(3)])


# ---------------------------------------------------------------------------
# rho-adic tools
# ---------------------------------------------------------------------------

AFFINE_CASES = [
    (coord(1, 3), 7, 1),
    # s = (1 - x0)/2 and g_p = 2 exercise both scalings of the digits
    (coord(0, 0) + coord(1, 1).scale(2) - HPoly.constant("H", 2, 1), 5, 2),
    # rational gradient entries in several coordinates, a negative
    # non-unit g_p and a nonzero constant
    (coord(0, 1).scale(Fraction(1, 2)) - coord(1, 0).scale(Fraction(7, 3))
     + coord(1, 2).scale(Fraction(2, 3)) + HPoly.constant("H", 2, Fraction(5, 4)),
     4, Fraction(-7, 3)),
]
AFFINE_IDS = ["wall", "tilted", "rational"]


@pytest.mark.parametrize("rho, pivot, g_p", AFFINE_CASES, ids=AFFINE_IDS)
def test_divmod_affine_identity(rho, pivot, g_p):
    S = Hypersurface(rho)
    grad, piv, s = S.affine_form()
    assert (piv, grad[piv]) == (pivot, g_p)
    assert all(e[pivot] == 0 for e in s.terms)
    x_p = HPoly.coordinate("H", 2, pivot // 4, pivot % 4)
    assert (x_p - s).scale(g_p) == rho
    rng = random.Random(47)
    points = S.sample_points(3, seed=5)
    # random data, and the pivot powers, whose digits the extension
    # columns are built from
    for p in [rand_poly(rng, "H", 2, deg=3, terms=5) for _ in range(6)] \
            + [x_p ** e for e in range(7)]:
        digits = cs.rho_adic_digits(p, S, p.degree() + 1)
        rebuilt = HPoly.zero("H", 2)
        for j, d in enumerate(digits):
            rebuilt = rebuilt + S.rho ** j * d
            assert all(e[pivot] == 0 for e in d.terms)
        assert rebuilt == p
        # digit 0 is the restriction to S
        for q in points:
            assert digits[0].evaluate(q) == p.evaluate(q)


def test_rho_adic_digits_is_one_change_of_coordinates(flat, monkeypatch):
    calls = {"partial_flat": 0}
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(HPoly, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(HPoly, name, counted)
    p = rand_poly(random.Random(46), "H", 2, deg=3, terms=5)
    cs.rho_adic_digits(p, flat, 4)
    assert calls == {"partial_flat": 0}


def right_multiples(touched, block):
    """The images {(h, j, exp, delta): value} of the four columns
    x^mu i_beta of a monomial with (id, q) pairs ``touched``, where
    block[id] = (h, j, exp): dbar and the digits are right H-linear, so
    c i_gamma on a block becomes c i_gamma i_beta."""
    table = MUL_TABLE["H"]
    for beta in range(4):
        yield {block[i] + (table[gamma][beta][0],):
               table[gamma][beta][1] * c for i, q in touched for gamma, c in q}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("rho", [case[0] for case in AFFINE_CASES],
                         ids=AFFINE_IDS)
def test_extension_images_match_the_polynomial_route(rho, m):
    """The closed-form column images of the extension system are the digits
    of dbar_h(rho x^mu i_beta), for every mu of degree <= 2: each monomial's
    (block, q) pairs, right-multiplied by i_beta, with the block ids read
    back through ``ids``."""
    S = Hypersurface(rho)
    monos = [mu for k in range(3) for mu in monomials(8, k)]
    den, images, ids = cs._extension_images(S.affine_form(), m, 3)
    assert list(images) == monos
    # ids number the blocks 0, 1, ... in first-seen order, each block once
    assert list(ids.values()) == list(range(len(ids)))
    assert list(dict.fromkeys(i for touched in images.values()
                              for i, _ in touched)) == list(range(len(ids)))
    # each monomial lists a block once, with a nonzero q of distinct units
    for touched in images.values():
        assert len({i for i, _ in touched}) == len(touched)
        for _, q in touched:
            assert type(q) is tuple and q
            assert len({gamma for gamma, _ in q}) == len(q)
            assert all(type(c) is int and c for _, c in q)
    block = list(ids)
    columns = (column for touched in images.values()
               for column in right_multiples(touched, block))
    for mu in monos:
        for beta in range(4):
            image = next(columns)
            column = HPoly("H", 2, {mu: HNumber.unit("H", beta)})
            assert {key: Fraction(c, den) for key, c in image.items()} == \
                cs._dbar_digits(S.rho * column, S, m)
            assert all(type(c) is int for c in image.values())
    assert next(columns, None) is None


@pytest.mark.parametrize("case, m, budget, den, blocks, digest", [
    ("wall", 1, 0, 1, 0, "ced7490fb75fd6ad"),
    ("wall", 1, 3, 1, 36, "60005941e438ff08"),
    ("wall", 1, 6, 1, 792, "a93666668ad14b89"),
    ("wall", 2, 0, 1, 0, "ced7490fb75fd6ad"),
    ("wall", 2, 3, 1, 52, "b7a75cfc2a037380"),
    ("wall", 2, 6, 1, 1452, "2868d34ceec8acd4"),
    ("wall", 4, 0, 1, 0, "ced7490fb75fd6ad"),
    ("wall", 4, 3, 1, 54, "2d7347ac30d614e7"),
    ("wall", 4, 6, 1, 1764, "394df234c1204880"),
    ("tilted", 1, 0, 1, 0, "ced7490fb75fd6ad"),
    ("tilted", 1, 3, 4, 72, "0fb1b8846324b723"),
    ("tilted", 1, 6, 32, 1584, "711ca438b66371bd"),
    ("tilted", 2, 0, 1, 0, "ced7490fb75fd6ad"),
    ("tilted", 2, 3, 4, 88, "4b6c1bfe7b50f503"),
    ("tilted", 2, 6, 32, 2244, "93007c4d135f03bf"),
    ("tilted", 4, 0, 1, 0, "ced7490fb75fd6ad"),
    ("tilted", 4, 3, 4, 90, "18f201e472ddeac1"),
    ("tilted", 4, 6, 32, 2556, "fd6bf6d0eb53e1cf"),
    ("rational", 1, 0, 6, 0, "7bb852d822c1c85b"),
    ("rational", 1, 3, 4704, 72, "a498cccd0e783715"),
    ("rational", 1, 6, 103262208, 1584, "fe1973f16d0218f0"),
    ("rational", 2, 0, 6, 0, "7bb852d822c1c85b"),
    ("rational", 2, 3, 4704, 88, "16dc487b07791a78"),
    ("rational", 2, 6, 103262208, 2244, "d30a31ad8319ae8f"),
    ("rational", 4, 0, 6, 0, "7bb852d822c1c85b"),
    ("rational", 4, 3, 4704, 90, "96689a072ab29938"),
    ("rational", 4, 6, 103262208, 2556, "24d8d9367f206b66"),
])
def test_extension_images_are_byte_stable(case, m, budget, den, blocks,
                                          digest):
    """The memoised column images, pinned by their common denominator,
    their block count and the sha256 prefix of their repr, term and id
    order included, as printed when the digit scales were a closed form
    in C(e, j), g_p and s."""
    S = Hypersurface(AFFINE_CASES[AFFINE_IDS.index(case)][0])
    got = cs._extension_images(S.affine_form(), m, budget)
    text = repr((got[0], list(got[1].items()), list(got[2].items())))
    assert (got[0], len(got[2])) == (den, blocks)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("budget", [0, 1, 3, 6])
def test_extension_images_divide_each_pivot_power_once(budget, monkeypatch):
    """A fresh build of the columns divides x_p^e by rho once for each
    e < max(budget, 1), for m digits each, and takes no dbar."""
    S = Hypersurface(AFFINE_CASES[2][0])
    calls = []

    def divided(poly, form, count, _orig=cs._rho_digits):
        calls.append((poly, count))
        return _orig(poly, form, count)

    def dbar(*args):
        calls.append(args)
        return fueter_dbar(*args)

    monkeypatch.setattr(cs, "_rho_digits", divided)
    monkeypatch.setattr(cs, "fueter_dbar", dbar)
    form = S.affine_form()
    cs._extension_images.__wrapped__(form, 3, budget)
    x_p = HPoly.coordinate("H", 2, form.pivot // 4, form.pivot % 4)
    assert calls == [(x_p ** e, 3) for e in range(max(budget, 1))]


def test_rho_adic_digits_golden(flat):
    A = coord(0, 0) * coord(1, 1)            # pivot-free
    B = coord(0, 2) - HPoly.constant("H", 2, 3)
    C = HPoly.constant("H", 2, 5)
    p = flat.rho * (flat.rho * A + B) + C    # rho^2 A + rho B + C
    digits = cs.rho_adic_digits(p, flat, 4)
    assert digits[0] == C
    assert digits[1] == B
    assert digits[2] == A
    assert digits[3].is_zero()


# ---------------------------------------------------------------------------
# extension problems
# ---------------------------------------------------------------------------

def test_extend_order_one_iff_tangentially_crf(flat, counterexample):
    F = cs.crf_extend(counterexample, flat, m=1)
    for h in range(2):
        digits = cs.rho_adic_digits(fueter_dbar(F, h), flat, 1)
        assert digits[0].is_zero()
    assert cs.rho_adic_digits(F - counterexample, flat, 1)[0].is_zero()
    with pytest.raises(cs.NoPolynomialExtensionWithinBudget):
        cs.crf_extend(HPoly.variable_conj("H", 2, 0), flat, m=1)


def test_counterexample_has_no_order_two_extension(flat, counterexample):
    """CRF but non-admissible data is infeasible at vanishing order 2, at
    the default budget and beyond."""
    for budget in (None, counterexample.degree() + 4):
        with pytest.raises(cs.NoPolynomialExtensionWithinBudget):
            cs.crf_extend(counterexample, flat, m=2, budget=budget)


def test_admissible_data_extends_to_order_two(flat):
    rng = random.Random(48)
    for _ in range(3):
        f = regular_poly(rng) + flat.rho * rand_poly(rng, "H", 2, deg=1,
                                                     terms=3)
        assert is_admissible(f, flat).admissible
        F = cs.crf_extend(f, flat, m=2)
        assert cs.rho_adic_digits(F - f, flat, 1)[0].is_zero()
        for h in range(2):
            digits = cs.rho_adic_digits(fueter_dbar(F, h), flat, 2)
            assert all(d.is_zero() for d in digits)
        # orders above max(deg f, budget) add no condition
        assert cs.crf_extend(f, flat, m=10 ** 6) == F


def test_extend_on_tilted_surface():
    S = Hypersurface(coord(0, 0) + coord(1, 1).scale(2) - HPoly.constant("H", 2, 1))
    rng = random.Random(49)
    f = regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1, terms=2)
    F = cs.crf_extend(f, S, m=2)
    assert cs.rho_adic_digits(F - f, S, 1)[0].is_zero()


def test_extend_and_jump_on_rational_surface():
    """A negative non-unit g_p, rational gradient entries and a nonzero
    constant in rho."""
    S = Hypersurface(AFFINE_CASES[2][0])
    rng = random.Random(52)
    f = regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1, terms=3)
    F = cs.crf_extend(f, S, m=2)
    assert cs.rho_adic_digits(F - f, S, 1)[0].is_zero()
    for h in range(2):
        digits = cs.rho_adic_digits(fueter_dbar(F, h), S, 2)
        assert all(d.is_zero() for d in digits)
    Fp, Fm = cs.jump_split(f, S)
    assert Fm.is_zero()
    assert all(u.is_zero() for u in dbar_system(Fp))
    assert cs.rho_adic_digits(Fp - f, S, 1)[0].is_zero()


def test_extend_columns_make_no_polynomial_calls(flat, monkeypatch):
    """``rho_adic_digits`` and ``fueter_dbar`` serve only the right-hand
    side and the verification, so their call counts do not grow with the
    budget."""
    calls = {"rho_adic_digits": 0, "fueter_dbar": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(cs, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(cs, name, counted)
    rng = random.Random(53)
    f = regular_poly(rng) + flat.rho * rand_poly(rng, "H", 2, deg=1, terms=3)
    seen = []
    for budget in (3, 5):
        calls.update(dict.fromkeys(calls, 0))
        cs.crf_extend(f, flat, m=2, budget=budget)
        seen.append(dict(calls))
    # two each for the right-hand side and two each for the check
    assert seen == [{"rho_adic_digits": 4, "fueter_dbar": 4}] * 2


def test_solves_build_no_hnumber(flat, monkeypatch):
    """solve_crf, the kernel basis and a feasible extension (columns built
    afresh) read elimination's answers into integer forms, check them and
    write their JSON from those forms: no coefficient is ever built as an
    HNumber."""
    rng = random.Random(61)
    g = dbar_system(rand_poly(rng, "O", 2))
    f = regular_poly(rng) + flat.rho * rand_poly(rng, "H", 2, deg=1, terms=3)
    calls = []
    for module in (hypercomplex, polycalc, cs):
        for name in ("_from_ints", "_trusted"):
            if hasattr(module, name):
                def counting(*args, _orig=getattr(module, name)):
                    calls.append(args)
                    return _orig(*args)

                monkeypatch.setattr(module, name, counting)
    cs._extension_images.cache_clear()
    u = cs.solve_crf(g)
    u.to_json()
    for p in cs.regular_kernel_basis("H", 2, 2):
        p.to_json()
    cs.crf_extend(f, flat, m=2).to_json()
    assert calls == []
    # reading the coefficients builds them
    u.terms
    assert calls


def unpeeled_extend(f, S, m, budget):
    """``_extend`` without the presolve and the memo: every column
    x^mu i_beta with deg mu < budget, computed afresh, assembled whole and
    eliminated by solve_sparse; the F = f + rho P it gives, or None when the
    system is infeasible."""
    monos = [mu for k in range(budget) for mu in monomials(8, k)]
    den, images, ids = cs._extension_images.__wrapped__(S.affine_form(), m,
                                                        budget)
    columns = [column for touched in images.values()
               for column in right_multiples(touched, list(ids))]
    rhs = {k: -c for k, c in cs._dbar_digits(f, S, m).items()}
    sol = solve_sparse(*_assemble(columns, rhs))
    if sol is None:
        return None
    sden, values = sol
    blocks = {}
    for j in sorted(values):
        blocks.setdefault(monos[j // 4], [Fraction(0)] * 4)[j % 4] = \
            Fraction(values[j] * den, sden)
    P = HPoly("H", 2, {mu: HNumber("H", coeffs)
                       for mu, coeffs in blocks.items()})
    return f + S.rho * P


def extension_outcome(F):
    """A feasible answer as its JSON and its term order, or None."""
    return None if F is None else (F.to_json(), list(F.terms.items()))


@pytest.mark.parametrize("rho", [case[0] for case in AFFINE_CASES],
                         ids=AFFINE_IDS)
def test_presolved_extension_gives_the_unpeeled_answer(rho, counterexample):
    """crf_extend at m = 1, 2, 3 and jump_split (full order) return the F
    of the whole system, term order included, or are infeasible with it, for
    every budget 0..3 and for admissible and non-admissible data."""
    S = Hypersurface(rho)
    rng = random.Random(54)
    data = [regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1,
                                                  terms=3),
            counterexample, HPoly.variable_conj("H", 2, 0), coord(0, 0) ** 2]
    kinds = set()
    for f in data:
        for budget in range(4):
            top = max(f.degree(), budget)
            for m in (1, 2, 3, None):
                try:
                    if m is None:
                        F = cs.jump_split(f, S, budget=budget)[0]
                    else:
                        F = cs.crf_extend(f, S, m=m, budget=budget)
                except (cs.NoPolynomialExtensionWithinBudget,
                        cs.NotAdmissibleOrBudget):
                    F = None
                want = unpeeled_extend(f, S, top if m is None
                                       else min(m, top), budget)
                assert extension_outcome(F) == extension_outcome(want)
                kinds.add(F is None)
    assert kinds == {True, False}


@pytest.mark.parametrize("rho", [case[0] for case in AFFINE_CASES],
                         ids=AFFINE_IDS)
def test_extension_peels_int_blocks_as_it_would_tuple_blocks(
        rho, counterexample, monkeypatch):
    """_extend hands _peel int blocks (the (id, q) pairs of each monomial
    and the pinned ids), and the peel keeps the monomials, in order, that it
    keeps on the same pairs with the ids read back as their (h, j, exp)
    blocks and the right-hand side's blocks pinned, at m = 1, 2, 3 and
    budgets 0..4 for the data of
    test_presolved_extension_gives_the_unpeeled_answer.  When a block of the
    right-hand side has no id, _extend is infeasible without a peel."""
    S = Hypersurface(rho)
    rng = random.Random(54)
    data = [regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1,
                                                  terms=3),
            counterexample, HPoly.variable_conj("H", 2, 0), coord(0, 0) ** 2]
    peel, peeled = cs._peel, []

    def spy(neighbours, pinned):
        out = peel(neighbours, pinned)
        peeled.append((neighbours, pinned, out))
        return out
    monkeypatch.setattr(cs, "_peel", spy)
    for f in data:
        for budget in range(5):
            for m in (1, 2, 3):
                peeled.clear()
                F = cs._extend(f, S, m, budget, 200000)
                _, images, ids = cs._extension_images(S.affine_form(), m,
                                                      budget)
                rhs = {key[:3] for key in cs._dbar_digits(f, S, m)}
                if not peeled:
                    assert F is None and not rhs <= ids.keys()
                    continue
                [(neighbours, pinned, kept)] = peeled
                assert neighbours is images
                assert all(type(i) is int for touched in neighbours.values()
                           for i, _ in touched)
                assert all(type(i) is int for i in pinned)
                block = list(ids)
                blocks = {mu: [(block[i], q) for i, q in touched]
                          for mu, touched in images.items()}
                assert kept == peel(blocks, rhs)


def row_multiset(rows, values):
    """The rows with their values, as a sorted list of (entries, value)."""
    return sorted((sorted(row.items()), value)
                  for row, value in zip(rows, values))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("rho", [case[0] for case in AFFINE_CASES],
                         ids=AFFINE_IDS)
def test_extension_rows_are_the_polynomial_route_rows(rho, m, counterexample,
                                                      monkeypatch):
    """The rows and values that _block_rows builds for _extend at budget 3
    are, as a multiset, those of _assemble over the polynomial-route images
    den * _dbar_digits(rho x^mu i_beta) of the kept columns, with the
    right-hand side keyed by (h, j, exp, gamma) again.  Only a multiset:
    the builder orders rows by block id, _assemble by key."""
    S = Hypersurface(rho)
    rng = random.Random(54)
    data = [regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1,
                                                  terms=3),
            counterexample, HPoly.variable_conj("H", 2, 0), coord(0, 0) ** 2]
    peel, block_rows, built = cs._peel, cs._block_rows, []

    def spy_peel(neighbours, pinned):
        built.append(peel(neighbours, pinned))
        return built[-1]

    def spy_rows(algebra, touched, rhs):
        out = block_rows(algebra, touched, rhs)
        built.append((rhs, out))
        return out
    monkeypatch.setattr(cs, "_peel", spy_peel)
    monkeypatch.setattr(cs, "_block_rows", spy_rows)
    den, _, ids = cs._extension_images(S.affine_form(), m, 3)
    block = list(ids)
    compared = 0
    for f in data:
        built.clear()
        cs._extend(f, S, m, 3, 200000)
        if not built:       # a right-hand-side block with no column
            assert not {key[:3] for key in cs._dbar_digits(f, S, m)} \
                <= ids.keys()
            continue
        [kept, (rhs, (rows, values))] = built
        compared += 1
        want_rhs = {block[i] + (gamma,): c for i, b in rhs.items()
                    for gamma, c in b.items()}
        assert want_rhs == {key: -c for key, c in
                            cs._dbar_digits(f, S, m).items()}
        images = [{key: c * den for key, c in cs._dbar_digits(
                       S.rho * HPoly("H", 2, {mu: HNumber.unit("H", beta)}),
                       S, m).items()}
                  for mu in kept for beta in range(4)]
        assert row_multiset(rows, values) == \
            row_multiset(*_assemble(images, want_rhs))
    assert compared


def test_unreached_right_hand_side_is_infeasible_before_elimination(
        flat, monkeypatch):
    """At budget 0 there is no column, and conj(q1) has a nonzero digit 0
    of its dbar: _extend answers None before any row is fed, as the whole
    system does."""
    add_row, fed = Echelon.add_row, [0]

    def spy(self, *args):
        fed[0] += 1
        return add_row(self, *args)
    monkeypatch.setattr(Echelon, "add_row", spy)
    f = HPoly.variable_conj("H", 2, 0)
    with pytest.raises(cs.NoPolynomialExtensionWithinBudget):
        cs.crf_extend(f, flat, m=1, budget=0)
    assert fed == [0]
    assert unpeeled_extend(f, flat, 1, 0) is None


def test_memoised_columns_give_the_unmemoised_answers(counterexample):
    """crf_extend at m = 1..4 and jump_split, interleaved over the wall, the
    tilted plane, the rational plane and 2 * wall (same surface, another
    rho, so another den) at budgets 0..5: every answer equals the one of a
    run with the memo cleared and the one of the unpeeled whole system, and
    a second round of the same calls gives the same answers, so no caller
    writes into the memoised columns."""
    rng = random.Random(58)
    data = []
    for rho in [case[0] for case in AFFINE_CASES] + [coord(1, 3).scale(2)]:
        S = Hypersurface(rho)
        admissible = regular_poly(rng) + S.rho * rand_poly(rng, "H", 2,
                                                           deg=1, terms=2)
        f = admissible if len(data) % 2 == 0 else counterexample
        data.append((S, f))
    calls = [(S, f, budget, m) for budget in range(6)
             for m in (1, 2, 3, 4, None) for S, f in data]

    def outcome(S, f, budget, m):
        try:
            if m is None:
                return extension_outcome(cs.jump_split(f, S, budget)[0])
            return extension_outcome(cs.crf_extend(f, S, m, budget))
        except (cs.NoPolynomialExtensionWithinBudget,
                cs.NotAdmissibleOrBudget):
            return None

    cs._extension_images.cache_clear()
    first = [outcome(*call) for call in calls]
    assert [outcome(*call) for call in calls] == first
    for (S, f, budget, m), got in zip(calls, first):
        cs._extension_images.cache_clear()
        assert outcome(S, f, budget, m) == got
        top = max(f.degree(), budget)
        order = top if m is None else min(m, top)
        assert extension_outcome(unpeeled_extend(f, S, order, budget)) == got
    assert {got is None for got in first} == {True, False}


@pytest.mark.parametrize("surface, counts", [
    ("wall", {2: ((165, 10), 8, 768), "full": ((165, 1), 8, 840)}),
    ("tilted", {2: ((165, 46), 296, 1248), "full": ((165, 1), 12, 1320)}),
])
def test_extension_presolve_counts_are_pinned(surface, counts, monkeypatch):
    """(candidate, kept) monomials and rows fed for one admissible item per
    surface at m = 2 and at full order (budget 4, the default), printed when
    the presolve went in, against the rows the whole system feeds.  A cap
    between the kept and the candidate unknowns still raises, and the kept
    set does not depend on the order of the neighbours."""
    S = Hypersurface(AFFINE_CASES[AFFINE_IDS.index(surface)][0])
    f = regular_poly(random.Random(55)) + S.rho * coord(0, 1)
    peeled, rows = [], [0]
    peel, add_row = cs._peel, Echelon.add_row

    def spy_peel(neighbours, pinned):
        out = peel(neighbours, pinned)
        peeled.append((neighbours, pinned, out))
        return out

    def spy_add_row(self, *args):
        rows[0] += 1
        return add_row(self, *args)
    monkeypatch.setattr(cs, "_peel", spy_peel)
    monkeypatch.setattr(Echelon, "add_row", spy_add_row)
    for m, (pair, fed, whole) in counts.items():
        order = 4 if m == "full" else m
        peeled.clear()
        rows[0] = 0
        F = cs.jump_split(f, S)[0] if m == "full" else cs.crf_extend(f, S, m)
        [(neighbours, pinned, kept)] = peeled
        assert (len(neighbours), len(kept)) == pair
        assert rows[0] == fed
        rows[0] = 0
        assert extension_outcome(unpeeled_extend(f, S, order, 4)) == \
            extension_outcome(F)
        assert rows[0] == whole
        for cap in (4 * len(kept), 4 * len(neighbours) - 1):
            with pytest.raises(cs.BudgetExceeded):
                cs.crf_extend(f, S, m=order, max_unknowns=cap)
        shuffled = list(neighbours.items())
        random.Random(56).shuffle(shuffled)
        assert set(peel(dict(shuffled), pinned)) == set(kept)


def test_extend_validation(flat):
    with pytest.raises(ValueError):
        cs.crf_extend(HPoly.constant("H", 2, 1), flat, m=0)
    with pytest.raises(ValueError):
        cs.crf_extend(HPoly.constant("H", 1, 1), flat)
    rho = HPoly.zero("H", 2)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) ** 2
    sphere = Hypersurface(rho - HPoly.constant("H", 2, 4))
    with pytest.raises(ValueError):
        cs.crf_extend(HPoly.constant("H", 2, 1), sphere)
    with pytest.raises(ValueError):
        cs.jump_split(HPoly.constant("H", 1, 1), flat)
    with pytest.raises(ValueError):
        cs.jump_split(HPoly.constant("H", 2, 1), sphere)
    with pytest.raises(ValueError):
        cs.jump_split(HPoly.coordinate("O", 2, 0, 1), flat)


# ---------------------------------------------------------------------------
# jump splitting
# ---------------------------------------------------------------------------

def test_jump_split_of_extendable_data(flat):
    rng = random.Random(50)
    f = regular_poly(rng) + flat.rho * rand_poly(rng, "H", 2, deg=1, terms=3)
    Fp, Fm = cs.jump_split(f, flat)
    assert Fm.is_zero()
    u1, u2 = dbar_system(Fp)
    assert u1.is_zero() and u2.is_zero()
    assert cs.rho_adic_digits(Fp - f, flat, 1)[0].is_zero()


def test_jump_is_the_extension_to_full_order(flat, counterexample):
    """At the default budget deg f + 2, full order is max(deg f, budget)
    = deg f + 2."""
    tilted = Hypersurface(
        coord(0, 0) + coord(1, 1).scale(2) - HPoly.constant("H", 2, 1))
    rng = random.Random(51)
    for S in (flat, tilted):
        f = regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1, terms=3)
        assert cs.jump_split(f, S)[0] == \
            cs.crf_extend(f, S, m=f.degree() + 2)
        with pytest.raises(cs.NotAdmissibleOrBudget):
            cs.jump_split(counterexample, S)
        with pytest.raises(cs.NoPolynomialExtensionWithinBudget):
            cs.crf_extend(counterexample, S, m=counterexample.degree() + 2)


def test_jump_agrees_with_the_full_order_extension_at_every_budget(
        flat, counterexample):
    """For each kind of boundary data of the benchmark's rhoadic workload
    (admissible on the wall and the tilted plane, multiples and regular
    perturbations of the counterexample, conj q1 on both planes, x0^2),
    plus constant and zero data, at budgets 0..3: jump_split's F is
    crf_extend's at order max(deg f, budget, 1), or both are infeasible
    with the same budget in the message."""
    tilted = Hypersurface(
        coord(0, 0) + coord(1, 1).scale(2) - HPoly.constant("H", 2, 1))
    rng = random.Random(57)
    qbar1 = HPoly.variable_conj("H", 2, 0)
    data = [(S, regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1,
                                                      terms=3))
            for S in (flat, tilted)]
    data += [(flat, counterexample.scale(Fraction(-1, 3))),
             (flat, counterexample + regular_poly(rng)),
             (flat, counterexample), (flat, qbar1), (tilted, qbar1),
             (flat, coord(0, 0) ** 2),
             (flat, HPoly.constant("H", 2, 3)), (tilted, HPoly.zero("H", 2))]
    outcomes = set()
    for S, f in data:
        for budget in range(4):
            m = max(f.degree(), budget, 1)
            try:
                want = cs.crf_extend(f, S, m, budget).to_json()
            except cs.NoPolynomialExtensionWithinBudget:
                want = None
            try:
                got = cs.jump_split(f, S, budget=budget)[0].to_json()
            except cs.NotAdmissibleOrBudget as exc:
                got = None
                assert str(exc) == \
                    f"no regular polynomial extension with degree <= {budget}"
            assert got == want
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_jump_split_rejects_counterexample(flat, counterexample):
    with pytest.raises(cs.NotAdmissibleOrBudget):
        cs.jump_split(counterexample, flat)


def test_jump_split_budget_guard(flat):
    with pytest.raises(cs.BudgetExceeded):
        cs.jump_split(HPoly.constant("H", 2, 1), flat, max_unknowns=2)
    # far too many monomials to list: the cap is checked on their count
    with pytest.raises(cs.BudgetExceeded):
        cs.jump_split(HPoly.constant("H", 2, 1), flat, budget=1000)
