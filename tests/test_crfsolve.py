"""Exact solvers: graded conjugate-Fueter solve, kernels, extensions, jumps."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfbench.hypercomplex import DIM, HNumber
from crfbench.polycalc import HPoly, dbar_system, fueter_dbar
from crfbench.hypersurface import Hypersurface, _reduce_mod_affine, is_admissible
from crfbench import crfsolve as cs


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
    {-1, 0, +1} (zeros are never stored)."""
    for algebra in ("H", "O"):
        width = DIM[algebra] * 2
        cand = {(mu, beta)
                for mu in cs._monomials_of_degree(width, 3)[:40]
                for beta in range(DIM[algebra])}
        system = cs._build_graded_system(algebra, 2, cand)
        assert system.entry_values() <= {Fraction(-1), Fraction(1)}


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


def test_kernel_budget_guard():
    with pytest.raises(cs.BudgetExceeded):
        cs.regular_kernel_basis("H", 2, 3, max_unknowns=10)


# ---------------------------------------------------------------------------
# rho-adic tools
# ---------------------------------------------------------------------------

def test_divmod_affine_identity(flat):
    rng = random.Random(47)
    for _ in range(6):
        p = rand_poly(rng, "H", 2, deg=3, terms=5)
        q, r = cs._divmod_affine(p, flat)
        assert flat.rho * q + r == p
        assert all(e[7] == 0 for e in r.terms)


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
    assert _reduce_mod_affine(F - counterexample, flat).is_zero()
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
        assert _reduce_mod_affine(F - f, flat).is_zero()
        for h in range(2):
            digits = cs.rho_adic_digits(fueter_dbar(F, h), flat, 2)
            assert all(d.is_zero() for d in digits)


def test_extend_on_tilted_surface():
    S = Hypersurface(coord(0, 0) + coord(1, 1).scale(2) - HPoly.constant("H", 2, 1))
    rng = random.Random(49)
    f = regular_poly(rng) + S.rho * rand_poly(rng, "H", 2, deg=1, terms=2)
    F = cs.crf_extend(f, S, m=2)
    assert _reduce_mod_affine(F - f, S).is_zero()


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
    assert _reduce_mod_affine(Fp - f, flat).is_zero()


def test_jump_split_rejects_counterexample(flat, counterexample):
    with pytest.raises(cs.NotAdmissibleOrBudget):
        cs.jump_split(counterexample, flat)


def test_jump_split_budget_guard(flat):
    with pytest.raises(cs.BudgetExceeded):
        cs.jump_split(HPoly.constant("H", 2, 1), flat, max_unknowns=2)
