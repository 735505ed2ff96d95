"""Exact polynomial solvers for the conjugate-Fueter system.

Three solvable problems, all reduced to sparse exact linear algebra over the
rationals:

* ``solve_crf``: given a right-hand side g = (g_1, ..., g_n), find a
  polynomial u with dbar_h u = g_h for every h.  The pairwise compatibility
  residuals are checked first; the solve then proceeds one homogeneous degree
  at a time in the divided-power basis, where every matrix entry of the
  operator is -1, 0, or +1.

* ``crf_extend``: given a polynomial f and an affine hypersurface S = {rho=0},
  find an extension F = f + rho P whose conjugate-Fueter image vanishes to
  order m on S (m = 1 recovers tangential CRF, m = 2 is the admissibility
  order).  Feasibility at m = 2 characterizes admissible boundary functions.

* ``jump_split``: produce a two-sided regular decomposition (F+, F-) of a
  boundary function that admits a global polynomial regular extension; the
  pair returned is (F, 0) with dbar F = 0 exactly.

Failures are reported honestly: incompatible right-hand sides raise
:class:`CompatibilityViolation`, resource caps raise :class:`BudgetExceeded`,
and the extension problems raise :class:`NoPolynomialExtensionWithinBudget` /
:class:`NotAdmissibleOrBudget` when no solution exists within the degree
budget (the two causes are indistinguishable without raising the budget).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .hypercomplex import DIM, HNumber
from .linalg import nullspace_sparse, solve_sparse
from .polycalc import (HPoly, compat_pbar, dbar_images, dbar_system,
                       fueter_dbar, monomials)


class CompatibilityViolation(ValueError):
    """The right-hand side fails a necessary solvability condition."""


class BudgetExceeded(RuntimeError):
    """The exact solve would exceed the configured resource cap."""


class NoPolynomialExtensionWithinBudget(RuntimeError):
    """No extension with the requested vanishing order exists up to the
    degree budget."""


class NotAdmissibleOrBudget(RuntimeError):
    """No global regular polynomial extension exists within the degree
    budget (the data may be non-admissible, or the budget too small)."""


# ---------------------------------------------------------------------------
# sparse assembly
# ---------------------------------------------------------------------------

def _assemble(images, rhs):
    """Sparse rows, in sorted row-key order, of the system whose column j has
    image ``images[j]`` ({row key: value}); also the matching right-hand side
    values from ``rhs`` ({row key: value}, missing keys are 0)."""
    row_map = {}
    for j, image in enumerate(images):
        for key, c in image.items():
            row_map.setdefault(key, {})[j] = c
    for key in rhs:
        row_map.setdefault(key, {})
    keys = sorted(row_map)
    return [row_map[k] for k in keys], [rhs.get(k, 0) for k in keys]


def _nonzero_coefficients(poly):
    """(exponent, unit index, coefficient) for every nonzero coefficient."""
    for exp, coef in poly.terms.items():
        for gamma, c in enumerate(coef.coeffs):
            if c != 0:
                yield exp, gamma, c


# ---------------------------------------------------------------------------
# homogeneous graded solve in the divided-power basis
# ---------------------------------------------------------------------------

def _factorial_prod(exp):
    p = 1
    for e in exp:
        p *= math.factorial(e)
    return p


def _poly_from_columns(algebra, n, columns, values):
    terms = {}
    for (mu, beta), c in zip(columns, values):
        if c == 0:
            continue
        scale = Fraction(1, _factorial_prod(mu))
        coeffs = [Fraction(0)] * DIM[algebra]
        coeffs[beta] = c * scale
        num = HNumber(algebra, coeffs)
        terms[mu] = terms[mu] + num if mu in terms else num
    return HPoly(algebra, n, {m: c for m, c in terms.items() if not c.is_zero()})


def _rhs_divided(g_slice):
    """Right-hand side keyed like the rows of ``dbar_images``:
    x^nu = nu! x^[nu]."""
    return {(h, nu, gamma): c * _factorial_prod(nu)
            for h, gh in enumerate(g_slice)
            for nu, gamma, c in _nonzero_coefficients(gh)}


def _homogeneous_slice(g, k):
    return [HPoly(gh.algebra, gh.n,
                  {e: c for e, c in gh.terms.items() if sum(e) == k})
            for gh in g]


def _solve_homogeneous(g_slice, k, algebra, n, max_unknowns):
    """Solve dbar u = g_slice with u homogeneous of degree k + 1, or None."""
    width = DIM[algebra] * n
    d = DIM[algebra]
    # support-restricted candidates: shifts of the right-hand-side support.
    # They cover every rhs row (h, nu, gamma): alpha = 0 maps the column
    # (nu + e_{d*h}, gamma) onto it.
    candidates = {(nu[:i] + (nu[i] + 1,) + nu[i + 1:], beta)
                  for gh in g_slice for nu in gh.terms
                  for i in range(width) for beta in range(d)}
    attempts = [candidates]
    full = {(mu, beta) for mu in monomials(width, k + 1)
            for beta in range(d)}
    if candidates != full:
        attempts.append(full)
    rhs = _rhs_divided(g_slice)
    for cand in attempts:
        if len(cand) > max_unknowns:
            raise BudgetExceeded(
                f"homogeneous solve needs {len(cand)} unknowns "
                f"(cap {max_unknowns})")
        columns = sorted(cand)
        rows, values = _assemble(dbar_images(algebra, n, columns), rhs)
        sol = solve_sparse(rows, values, len(columns))
        if sol is not None:
            return _poly_from_columns(algebra, n, columns, sol)
    return None


def solve_crf(g, max_unknowns=200000):
    """Solve the system dbar_h u = g_h exactly for a polynomial u.

    ``g`` is a sequence of polynomials over the same algebra and variable
    count.  The pairwise compatibility residuals must vanish; otherwise
    :class:`CompatibilityViolation` is raised with the first offender.  The
    result is verified exactly before it is returned, and is deterministic
    (free coefficients are set to zero in a fixed graded order).
    """
    g = list(g)
    if not g:
        raise ValueError("empty right-hand side")
    algebra, n = g[0].algebra, g[0].n
    if len(g) != n:
        raise ValueError("right-hand side must have one entry per variable")
    residuals = compat_pbar(g)
    for idx, res in enumerate(residuals):
        if not res.is_zero():
            raise CompatibilityViolation(
                f"compatibility residual #{idx} is nonzero")
    degrees = sorted({sum(e) for gh in g for e in gh.terms})
    u = HPoly.zero(algebra, n)
    for k in degrees:
        g_slice = _homogeneous_slice(g, k)
        if all(gh.is_zero() for gh in g_slice):
            continue
        part = _solve_homogeneous(g_slice, k, algebra, n, max_unknowns)
        if part is None:
            raise CompatibilityViolation(
                "right-hand side passes the pairwise residual check but hits "
                f"a higher-order obstruction at degree {k}")
        u = u + part
    for h in range(n):
        if fueter_dbar(u, h) != g[h]:
            raise AssertionError("internal error: solution failed verification")
    return u


# ---------------------------------------------------------------------------
# kernel bases
# ---------------------------------------------------------------------------

def regular_kernel_basis(algebra, n, degree, max_unknowns=200000):
    """Basis of polynomials of total degree <= degree annihilated by every
    conjugate-Fueter operator.  Deterministic order."""
    width = DIM[algebra] * n
    d = DIM[algebra]
    columns = sorted((mu, beta)
                     for k in range(degree + 1)
                     for mu in monomials(width, k)
                     for beta in range(d))
    if len(columns) > max_unknowns:
        raise BudgetExceeded(f"kernel basis needs {len(columns)} unknowns")
    rows, _ = _assemble(dbar_images(algebra, n, columns), {})
    out = [_poly_from_columns(algebra, n, columns, vec)
           for vec in nullspace_sparse(rows, len(columns))]
    for p in out:
        for h in range(n):
            if not fueter_dbar(p, h).is_zero():
                raise AssertionError("internal error: kernel vector not regular")
    return out


# ---------------------------------------------------------------------------
# rho-adic tools for affine hypersurfaces
# ---------------------------------------------------------------------------

def _divmod_affine(poly, S):
    """(quotient, remainder) with poly = rho * quotient + remainder and the
    remainder free of the pivot coordinate."""
    grad, piv, sub, const = S.affine_form()
    remainder = poly.substitute_linear(piv, sub, const)
    diff = poly - remainder
    quotient = HPoly.zero(poly.algebra, poly.n)
    inv = Fraction(1) / grad[piv]
    while not diff.is_zero():
        deg = max(e[piv] for e in diff.terms)
        if deg == 0:
            raise AssertionError("internal error: nonzero pivot-free residue")
        lead = {e: c for e, c in diff.terms.items() if e[piv] == deg}
        part = HPoly(poly.algebra, poly.n,
                     {tuple(v - (1 if i == piv else 0) for i, v in enumerate(e)): c.scale(inv)
                      for e, c in lead.items()})
        quotient = quotient + part
        diff = diff - S.rho * part
    return quotient, remainder


def rho_adic_digits(poly, S, count):
    """First ``count`` digits of the rho-adic expansion of poly on affine S:
    poly = d_0 + rho d_1 + rho^2 d_2 + ... with pivot-free digits."""
    digits = []
    cur = poly
    for _ in range(count):
        cur, rem = _divmod_affine(cur, S)
        digits.append(rem)
    return digits


def _extend(f, S, budget, max_unknowns, conditions):
    """F = f + rho P with deg P < budget and ``conditions(F)`` empty, or None
    when no such P exists.

    ``conditions`` maps a polynomial to its nonzero linear conditions,
    {row key: Fraction}; it must be linear in the polynomial.
    """
    if f.algebra != "H" or f.n != 2:
        raise ValueError("extension problems live on two quaternionic "
                         "variables")
    if not S.is_affine:
        raise ValueError("extension problems are implemented for affine "
                         "hypersurfaces")
    base = conditions(f)
    # columns: monomial/unit coefficients of P with deg(rho * P) <= budget
    columns = [(mu, beta) for k in range(budget)
               for mu in monomials(8, k) for beta in range(4)]
    if len(columns) > max_unknowns:
        raise BudgetExceeded(f"extension needs {len(columns)} unknowns")
    images = (conditions(S.rho * HPoly("H", 2, {mu: HNumber.unit("H", beta)}))
              for mu, beta in columns)
    rows, rhs = _assemble(images, {k: -c for k, c in base.items()})
    sol = solve_sparse(rows, rhs, len(columns))
    if sol is None:
        return None
    coeffs = {}
    for (mu, beta), c in zip(columns, sol):
        if c != 0:
            coeffs.setdefault(mu, [Fraction(0)] * 4)[beta] = c
    P = HPoly("H", 2, {mu: HNumber("H", cs) for mu, cs in coeffs.items()})
    return f + S.rho * P


def crf_extend(f, S, m=2, budget=None, max_unknowns=200000):
    """Extension F = f + rho P with dbar F = 0 to order m on affine S.

    The vanishing order is measured rho-adically: every component of the
    conjugate-Fueter image of F must have zero digits 0..m-1.  ``budget``
    caps deg F (default: deg f + 2).  Raises
    :class:`NoPolynomialExtensionWithinBudget` when the linear problem is
    infeasible within the budget.  m = 2 is feasible exactly for admissible
    boundary data; m = 1 for tangentially CRF data.
    """
    if m < 1:
        raise ValueError("vanishing order m must be at least 1")
    if budget is None:
        budget = max(f.degree(), 0) + 2

    def digit_conditions(poly):
        """(h, digit, exponent, gamma) -> Fraction rows for digits 0..m-1 of
        the conjugate-Fueter image of poly."""
        return {(h, j, exp, gamma): c
                for h in range(2)
                for j, digit in enumerate(
                    rho_adic_digits(fueter_dbar(poly, h), S, m))
                for exp, gamma, c in _nonzero_coefficients(digit)}

    F = _extend(f, S, budget, max_unknowns, digit_conditions)
    if F is None:
        raise NoPolynomialExtensionWithinBudget(
            f"no extension with vanishing order {m} and degree <= {budget}")
    for h in range(2):
        digits = rho_adic_digits(fueter_dbar(F, h), S, m)
        if any(not dgt.is_zero() for dgt in digits):
            raise AssertionError("internal error: extension failed verification")
    return F


def jump_split(f, S, budget=None, max_unknowns=200000):
    """Two-sided regular splitting (F+, F-) of f across affine S.

    Seeks a global polynomial F with F = f on S and dbar F = 0 exactly; the
    splitting is then (F, 0).  Raises :class:`NotAdmissibleOrBudget` if no
    such polynomial exists within the degree budget: the data is either not
    admissible, or admissible with no polynomial realization this small.
    """
    if budget is None:
        budget = max(f.degree(), 0) + 2

    def image_conditions(poly):
        """(h, exponent, gamma) -> Fraction rows for the conjugate-Fueter
        image of poly."""
        return {(h, exp, gamma): c
                for h in range(2)
                for exp, gamma, c in _nonzero_coefficients(fueter_dbar(poly, h))}

    F = _extend(f, S, budget, max_unknowns, image_conditions)
    if F is None:
        raise NotAdmissibleOrBudget(
            f"no regular polynomial extension with degree <= {budget}")
    u1, u2 = dbar_system(F)
    if not (u1.is_zero() and u2.is_zero()):
        raise AssertionError("internal error: jump solution not regular")
    return F, HPoly.zero("H", 2)
