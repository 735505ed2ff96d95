"""Exact polynomial solvers for the conjugate-Fueter system.

Three solvable problems, all reduced to sparse exact linear algebra over the
rationals:

* ``solve_crf``: given a right-hand side g = (g_1, ..., g_n), find a
  polynomial u with dbar_h u = g_h for every h.  The pairwise compatibility
  residuals are checked first; the solve then proceeds one homogeneous degree
  at a time in the divided-power basis, where every matrix entry of the
  operator is -1, 0, or +1.  Before assembly a presolve drops the candidate
  monomials that equations with zero right-hand side force to 0 (singleton
  rows, as in the presolve of sparse solvers), with the same answer.  Since
  i_a i_b = +-i_{a XOR b}, each degree's system is block diagonal in d
  classes, and the shifts that the multiplication table certifies map
  class 0 onto every class by a signed permutation (a table that does not
  certify them all is refused).  So only class 0 is eliminated, one row
  per block of d equations, with the right-hand sides of all d classes
  riding along, and the answer of each class is read off its own
  right-hand side and written with the shift signs.
  ``regular_kernel_basis`` eliminates class 0 of the homogeneous system
  the same way, reads each class-0 nullspace vector out once and writes
  its d class copies from that read-out with the same writer.  It
  verifies the d copies with one ``fueter_dbar`` per variable on their
  integer rows packed as base-2^s digits, where 2^s exceeds twice the
  largest coefficient a copy's dbar can have, so that a packed zero is a
  zero of every copy.

* ``crf_extend``: given a polynomial f and an affine hypersurface S = {rho=0},
  find an extension F = f + rho P whose conjugate-Fueter image vanishes to
  order m on S (m = 1 recovers tangential CRF, m = 2 is the admissibility
  order).  Feasibility at m = 2 characterizes admissible boundary functions.
  Vanishing order is read off rho-adic digits, found by repeated synthetic
  division by rho; the columns of this system are digits of monomials, each
  the digit of its pivot power, from that same division, times the rest of
  the monomial.  The same presolve as the graded solve drops the monomials
  that digit equations with zero right-hand side force to 0.  Each block of
  equations takes a monomial's columns as left multiplication by a
  quaternion, the image of the monomial on that digit block; these
  quaternions mix the classes, so the extension assembles and eliminates
  every row.

* ``jump_split``: produce a two-sided regular decomposition (F+, F-) of a
  boundary function that admits a global polynomial regular extension; the
  pair returned is (F, 0) with dbar F = 0 exactly.  It is ``crf_extend`` at
  full order: deg dbar F < max(deg f, budget), so vanishing to that order
  means dbar F = 0.

Failures are reported honestly: incompatible right-hand sides raise
:class:`CompatibilityViolation`, resource caps raise :class:`BudgetExceeded`,
and the extension problems raise :class:`NoPolynomialExtensionWithinBudget` /
:class:`NotAdmissibleOrBudget` when no solution exists within the degree
budget (the two causes are indistinguishable without raising the budget).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add, lshift

from .hypercomplex import DIM, MUL_TABLE, _class_shifts
from .linalg import BudgetExceeded, nullspace_sparse, solve_sparse
from .polycalc import (HPoly, _class_masks, _int_poly, _lowest_poly,
                       _odd_class, _pack, _parity_mask, _units, _unpack,
                       compat_pbar, fueter_dbar, monomials)


class CompatibilityViolation(ValueError):
    """The right-hand side fails a necessary solvability condition."""


class NoPolynomialExtensionWithinBudget(RuntimeError):
    """No extension with the requested vanishing order exists up to the
    degree budget."""


class NotAdmissibleOrBudget(RuntimeError):
    """No global regular polynomial extension exists within the degree
    budget (the data may be non-admissible, or the budget too small)."""


# ---------------------------------------------------------------------------
# homogeneous graded solve in the divided-power basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 14)
def _factorial_prod(exp):
    p = 1
    for e in exp:
        p *= math.factorial(e)
    return p


def _rhs_by_degree(g):
    """g over one common denominator, keyed by the equation (h, nu, gamma)
    it feeds (x^nu = nu! x^[nu]) and grouped by the degree of nu: (den, {k:
    {(h, nu, gamma): den times the coefficient of x^[nu] i_gamma in g_h}})."""
    den = math.lcm(*[gh._ints[0] for gh in g])
    out = {}
    for h, gh in enumerate(g):
        dh, rows = gh._ints
        for nu, v in rows.items():
            scale = den // dh * _factorial_prod(nu)
            part = out.setdefault(sum(nu), {})
            for gamma, c in enumerate(v):
                if c:
                    part[(h, nu, gamma)] = c * scale
    return den, out


# Block (h, nu), the d equations of dbar_h on x^[nu] i_gamma, is the int
# h << (width * bits) | nu, nu packed by crfbench.polycalc._pack, so sorted
# blocks are in (h, nu) order.

def _coordinates(algebra, n, bits):
    """Per coordinate i = d*h + alpha of a monomial packed with ``bits``-bit
    fields: (the mask of field i, its unit, h << (width * bits), alpha).
    For a monomial mu with field i nonzero, (h << (width * bits)) + mu -
    unit is the block that i_alpha times column (mu, beta) enters."""
    d = DIM[algebra]
    width = d * n
    field = (1 << bits) - 1
    return [(field * one, one, i // d << width * bits, i % d)
            for i, one in enumerate(_units(width, bits))]


def _touched(coords, mu):
    """The (block, alpha) pairs of the packed monomial mu, for :func:`_peel`
    and :func:`_class_rows`: block (h, nu), nu = mu - e_{d*h+alpha}."""
    return [(h + mu - one, a) for field, one, h, a in coords if mu & field]


@lru_cache(maxsize=64)
def _class_frame(table, width, bits):
    """(masks, shifts) for the graded systems under ``table`` on monomials
    of ``width`` coordinates packed in ``bits``-bit fields: the masks of
    :func:`crfbench.polycalc._odd_class`, and per class c, shifts[c] =
    (parity mask of v, eps) from the certificate (v, eps) of shift c
    (:func:`crfbench.hypercomplex._class_shifts`, which raises
    AssertionError for a table it cannot certify; shift 0 is the identity).

    Row (h, nu, odd(nu)) and column (mu, odd(mu)) of class 0 map to row
    (h, nu, odd(nu) XOR c) and column (mu, odd(mu) XOR c) of class c with
    the signs that :func:`_shift_sign` gives nu and mu under shifts[c]: the
    certificate has v_0 = 0."""
    return (_class_masks(len(table), width, bits),
            [(_parity_mask(v, width, bits), eps)
             for v, eps in _class_shifts(table)])


def _shift_sign(key, odd, shift):
    """The sign eps(odd) (-1)^<v, mu> that ``shift`` = (parity mask of v,
    eps) of a frame gives the rows or columns of the packed monomial mu in
    ``key``, of odd class ``odd`` (:func:`_class_frame`)."""
    mask, eps = shift
    return -eps[odd] if (key & mask).bit_count() & 1 else eps[odd]


def _write_class(rows, terms, c, shift, sign):
    """Write the class-c copy of the class-0 vector ``terms``, value v at
    x^mu i_odd for each (mu, key, odd, v), mu packed in key, into ``rows``
    {mu: [d ints]}: sign * v at x^mu i_(odd XOR c), signed by ``shift``,
    shift c of a frame (:func:`_shift_sign`)."""
    for mu, key, odd, v in terms:
        rows[mu][odd ^ c] = sign * _shift_sign(key, odd, shift) * v


def _block_rows(algebra, touched, rhs):
    """The rows and right-hand side values of a system whose equations come
    in blocks of d, one row per equation (block, delta), on the columns
    pos*d + beta of the monomials listed in ``touched``.

    ``touched[pos]`` lists the (block, q) pairs of the monomial at pos, each
    block once, with q the tuple of its nonzero (gamma, c): its d columns
    enter the block as left multiplication by q = sum c i_gamma, so column
    pos*d + beta has c * sign in row (block, delta) where i_gamma i_beta =
    sign i_delta.  For a fixed (delta, beta) one gamma alone gives i_delta,
    so no entry is written twice.  ``rhs`` maps blocks to {delta: value}.
    Rows are made per sorted block, delta inner: all d deltas where the
    block has a member, and only the deltas ``rhs`` holds where it has none
    (those rows are empty)."""
    d = DIM[algebra]
    table = MUL_TABLE[algebra]
    members = {}
    for col, pairs in zip(range(0, d * len(touched), d), touched):
        for block, q in pairs:
            held = members.get(block)
            if held is None:
                held = members[block] = [{} for _ in range(d)]
            for gamma, c in q:
                for beta, (delta, sign) in enumerate(table[gamma]):
                    held[delta][col + beta] = sign * c
    rows, values = [], []
    for block in sorted(members.keys() | rhs.keys()):
        b = rhs.get(block, {})
        held = members.get(block)
        if held is None:
            for delta in sorted(b):
                rows.append({})
                values.append(b[delta])
            continue
        rows += held
        values += [b.get(delta, 0) for delta in range(d)]
    return rows, values


def _peel(neighbours, pinned):
    """The monomials of ``neighbours`` that zero right-hand sides do not
    force to 0, in the order of ``neighbours``.

    ``neighbours`` maps each candidate monomial to its (block, x) pairs, as
    :func:`_class_rows` and :func:`_block_rows` read them; x is not read
    here.  A block's neighbours are the monomials that touch it.  Both
    systems label their blocks by ints, so the counts below hash no tuple.
    The d columns of a monomial enter each of its blocks as left
    multiplication by some q: in the graded solve x = alpha and q =
    i_alpha, where block (h, nu), labelled by its packed int, is the d
    equations of dbar_h u on x^[nu] i_gamma; in the extension x = q, the
    image of x^mu on the block, read as a quaternion, where block (h, j,
    exp), labelled by the id that :func:`_extension_images` gives it, is
    the 4 equations of digit j of dbar_h on x^exp i_gamma (dbar and the
    digits are right H-linear).  Left multiplication by q != 0 is
    invertible, and every listed q is nonzero.

    So a block outside ``pinned`` (the blocks where the right-hand side is
    nonzero) with one neighbour left forces that neighbour's coefficients to
    0, and the monomial is dropped.  Each block keeps a count and a sum of
    the ids of its neighbours left; when the count reaches 1, the sum is the
    id of the last one.  Dropping a monomial lowers the counts of its own
    blocks; a worklist of the blocks whose count drops to 1 repeats this
    until none is left.  The result is the least fixed point of this rule,
    so it does not depend on the order of ``neighbours`` nor on the labels
    of the blocks.
    """
    monos = list(neighbours)
    touched = list(neighbours.values())
    count, ids = {}, {}
    for i, pairs in enumerate(touched):
        for block, _ in pairs:
            count[block] = count.get(block, 0) + 1
            ids[block] = ids.get(block, 0) + i
    left = [True] * len(monos)
    work = [b for b, c in count.items() if c == 1 and b not in pinned]
    while work:
        block = work.pop()
        if count[block] != 1:
            continue        # its one neighbour went through another block
        i = ids[block]
        left[i] = False
        for b, _ in touched[i]:
            count[b] -= 1
            ids[b] -= i
            if count[b] == 1 and b not in pinned:
                work.append(b)
    return [mu for mu, kept in zip(monos, left) if kept]


def _class_rows(algebra, monos, neighbours, pinned, frame):
    """The class-0 rows of a graded system, with their right-hand sides in
    every class: one row per block (h, nu), in sorted order, on one column
    per monomial, the position of its packed key in ``monos``.

    The class-0 column of mu is (mu, odd(mu)).  It enters each block of
    ``neighbours[mu]`` (:func:`_touched`), nu = mu - e_{d*h+alpha}, in row
    (h, nu, alpha XOR odd(mu)) = (h, nu, odd(nu)), with entry sigma(alpha,
    odd(mu)), where i_a i_b = sigma(a, b) i_{a XOR b}.  ``pinned`` maps
    blocks to {gamma: value}.  The value of row (h, nu, gamma) lies in
    class c = gamma XOR odd(nu); it becomes right-hand side c of the class-0
    row of its block, times the sign that shift c gives that row
    (:func:`_shift_sign`).  The right-hand sides of a row are the tuple
    of its d classes, or None when its block is not pinned.  A pinned
    block that keeps no monomial gives an empty row with its right-hand
    sides.  Returns (rows, values, odds), with odds[pos] the odd class of
    monos[pos], from which the callers sign their read-outs."""
    sigma = [[sign for _, sign in row] for row in MUL_TABLE[algebra]]
    masks, shifts = frame
    odds = [_odd_class(mu, masks) for mu in monos]
    members = {}
    for pos, (mu, odd) in enumerate(zip(monos, odds)):
        for block, alpha in neighbours[mu]:
            row = members.get(block)
            if row is None:
                row = members[block] = {}
            row[pos] = sigma[alpha][odd]
    rows, values = [], []
    for block in sorted(members.keys() | pinned.keys()):
        rows.append(members.get(block, {}))
        b = pinned.get(block)
        if b is None:
            values.append(None)
            continue
        odd = _odd_class(block, masks)      # the masks see nu, not h
        sides = [0] * len(sigma)
        for gamma, value in b.items():
            c = gamma ^ odd
            sides[c] = _shift_sign(block, odd, shifts[c]) * value
        values.append(tuple(sides))
    return rows, values, odds


def _class_solve(algebra, n, bits, monos, neighbours, pinned, frame):
    """The polynomial of the free-variables-zero solution of the graded
    system on the sorted ``monos`` packed in ``bits``-bit fields, column
    pos*d + beta being x^[monos[pos]] i_beta, or None when inconsistent.

    The system is block diagonal in the d classes, and the certified shift
    c maps class 0 onto class c: A_c = R A_0 C, with R and C the diagonal
    signs of :func:`_class_frame` on rows and columns.  So A_c x = b_c
    exactly when A_0 (C x) = R b_c.  The class-0 rows of
    :func:`_class_rows` are eliminated once, with the d right-hand sides
    R b_c as d pseudo-columns after every real column
    (:func:`crfbench.linalg.solve_sparse`).  Class c's columns, in
    increasing order, are those of class 0 in increasing order, so the
    pivot set of A_c is that of A_0.  Its free-variables-zero solution is
    then C times read-out c.  The whole system's pivot set is the union
    of the classes' ones, so its free-variables-zero solution is these d
    read-outs together.  It is consistent exactly when every class is.
    Read-out c is written by :func:`_write_class` into divided-power rows
    seeded in increasing position, the whole system's column order."""
    d = DIM[algebra]
    rows, values, odds = _class_rows(algebra, monos, neighbours, pinned,
                                     frame)
    sols = solve_sparse(rows, values, range(len(monos), len(monos) + d))
    if sols is None:
        return None
    mus = {pos: _unpack(monos[pos], bits, d * n)
           for pos in sorted(set().union(*[sol for _, sol in sols]))}
    den = math.lcm(*[dc for dc, _ in sols])
    out = {mu: [0] * d for mu in mus.values()}
    for c, (dc, sol) in enumerate(sols):
        _write_class(out, [(mus[pos], monos[pos], odds[pos], den // dc * v)
                           for pos, v in sol.items()], c, frame[1][c], 1)
    scale = math.lcm(*map(_factorial_prod, out))
    return _int_poly(algebra, n, {mu: [scale // _factorial_prod(mu) * x
                                       for x in v] for mu, v in out.items()},
                     den * scale)


def _solve_homogeneous(rhs, k, algebra, n, max_unknowns):
    """Solve dbar u = b with u homogeneous of degree k + 1, or None; ``rhs``
    is b, the degree-k entry of :func:`_rhs_by_degree` (den times g's part).

    The monomials of degree k + 1 are packed (:func:`_pack`) in fields of
    the bit length of k + 1, and b's rows are grouped by packed block.  Each
    attempt (the shifts of the right-hand-side support, then the full
    monomial space) is presolved by :func:`_peel` on the packed blocks.
    :func:`_class_solve` then eliminates one class-0 row per block, from
    the same pairs, with the d classes' right-hand sides riding along,
    and returns the polynomial part, each monomial of the answer's
    nonzero columns unpacked once.  The answer is the one the whole
    attempt gives.  (In the full space every block keeps all d
    neighbours, so only the shifts lose monomials.)
    Elimination returns the solution whose free variables (the non-pivot
    columns) are zero, and its pivot set P is the set of leading columns of
    the row space, right-hand side included as the last column.  A column c
    forced by a singleton row is in P, since e_c is in the row space.  That
    row space is span(e_c) plus its vectors with a zero c entry, which are
    the row space of the system with c and its forcing rows removed; so
    that system has pivot set P - {c}, and its free-variables-zero solution
    is the old one without c, which was 0.  It is consistent exactly when
    the whole attempt is, so the fallback to the full space fires as
    before.  The unknown cap and the test for the fallback count the
    monomials before the presolve.
    """
    d = DIM[algebra]
    width = d * n
    bits = (k + 1).bit_length()
    coords = _coordinates(algebra, n, bits)
    frame = _class_frame(MUL_TABLE[algebra], width, bits)
    blocks = {}     # the pinned blocks: {block: {gamma: value}}
    for (h, nu, gamma), c in rhs.items():
        blocks.setdefault(h << width * bits | _pack(nu, bits), {})[gamma] = c
    # support-restricted candidates: shifts of the right-hand-side support.
    # They cover every rhs row (h, nu, gamma): alpha = 0 maps the column
    # (nu + e_{d*h}, gamma) onto it.
    low = (1 << width * bits) - 1
    candidates = {(block & low) + one
                  for block in blocks for _, one, _, _ in coords}
    # the attempts: the candidates, then the full monomial space, listed
    # only when the candidates fail and its count passes the cap.  The
    # candidates are a subset of it, so they are all of it exactly when
    # their count matches.
    full = math.comb(width + k, k + 1)
    sizes = [len(candidates)] + ([full] if len(candidates) < full else [])
    for attempt, size in enumerate(sizes):
        if d * size > max_unknowns:
            raise BudgetExceeded(
                f"homogeneous solve needs {d * size} unknowns "
                f"(cap {max_unknowns})")
        monos = ([_pack(mu, bits) for mu in monomials(width, k + 1)]
                 if attempt else candidates)
        neighbours = {mu: _touched(coords, mu) for mu in monos}
        kept = sorted(_peel(neighbours, blocks))
        part = _class_solve(algebra, n, bits, kept, neighbours, blocks, frame)
        if part is not None:
            return part
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
    # one variable has no pairs, so no pairwise residuals
    residuals = compat_pbar(g) if n > 1 else []
    for idx, res in enumerate(residuals):
        if not res.is_zero():
            raise CompatibilityViolation(
                f"compatibility residual #{idx} is nonzero")
    den, rhs = _rhs_by_degree(g)
    u = HPoly.zero(algebra, n)
    for k in sorted(rhs):
        part = _solve_homogeneous(rhs[k], k, algebra, n, max_unknowns)
        if part is None:
            raise CompatibilityViolation(
                "right-hand side passes the pairwise residual check but hits "
                f"a higher-order obstruction at degree {k}")
        u = u + part
    u = u.scale(Fraction(1, den))   # the parts solve dbar u = den g
    for h in range(n):
        if fueter_dbar(u, h) != g[h]:
            raise AssertionError("solution failed verification")
    return u


# ---------------------------------------------------------------------------
# kernel bases
# ---------------------------------------------------------------------------

def regular_kernel_basis(algebra, n, degree, max_unknowns=200000):
    """Basis of polynomials of total degree <= degree annihilated by every
    conjugate-Fueter operator.  Deterministic order: one vector per free
    column (mu, beta) of the whole system, in increasing column order.

    The system is block diagonal in the d classes, and class c is class 0
    under the signs of :func:`_class_frame`, so only the class-0 rows of
    :func:`_class_rows` are eliminated.  Column (mu, odd(mu) XOR c) is free
    exactly when (mu, odd(mu)) is.  The nullspace vector of free column pos
    of class 0, moved by the column signs of shift c and signed so that
    its free column holds +den, lies in the kernel of class c and is 0 on
    every other free column.  So it is the nullspace vector of that free
    column of the whole system, which is unique.  The d copies of one
    class-0 vector are the same values up to signs, so it is read out once
    and the copies are written from that read-out (:func:`_class_copies`)
    by :func:`_write_class`, which writes the graded solve's classes too.

    Every copy is checked on the polynomial route, from its own integer
    form alone: the d copies of a vector are packed as the base-2^s digits
    of one polynomial, 2^s above twice the bound d * deg * M on the
    coefficients of a copy's dbar_h (M the largest entry of any copy), and
    one ``fueter_dbar`` per variable decides them all exactly
    (:func:`_all_regular`).  A copy that is not regular raises
    AssertionError.
    """
    if algebra not in DIM:
        raise ValueError(f"unknown algebra {algebra!r}")
    if n < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    d = DIM[algebra]
    width = d * n
    # the monomials of degree <= degree number C(width + degree, degree)
    size = d * math.comb(width + degree, degree)
    if size > max_unknowns:
        raise BudgetExceeded(f"kernel basis needs {size} unknowns")
    monos = sorted(mu for k in range(degree + 1) for mu in monomials(width, k))
    bits = max(degree, 1).bit_length()
    coords = _coordinates(algebra, n, bits)
    keys = [_pack(mu, bits) for mu in monos]
    frame = _class_frame(MUL_TABLE[algebra], width, bits)
    rows, _, odds = _class_rows(algebra, keys,
                                {key: _touched(coords, key) for key in keys},
                                {}, frame)
    out = []
    for sol in nullspace_sparse(rows, len(keys)):
        copies = _class_copies(algebra, n, monos, keys, odds, frame[1], sol)
        if not _all_regular(copies):
            raise AssertionError("kernel vector not regular")
        out += copies
    return out


def _class_copies(algebra, n, monos, keys, odds, shifts, sol):
    """The d kernel polynomials of the class-0 nullspace vector ``sol`` =
    (den, {pos: int}), one per class copy, in increasing order of the free
    column's unit beta: pos stands for x^[mu] i_odds[pos], mu = monos[pos]
    packed in keys[pos], and the largest pos is the free column.

    The vector is read out once: its sorted positions, their monomials,
    the lcm of their mu!, the scaled values over den times that lcm, and
    the gcd that brings them to lowest terms.  The copy of class c puts
    value v of pos at x^mu i_(odds[pos] XOR c), signed by shift c and
    flipped so that its free column holds a positive value
    (:func:`_write_class`, the writer the graded solve uses too).  Every
    copy is that value set up to signs, so one gcd serves all d."""
    den, vec = sol
    d = len(shifts)
    order = sorted(vec)
    mus = [monos[pos] for pos in order]
    facs = [_factorial_prod(mu) for mu in mus]
    scale = math.lcm(*facs)
    values = [scale // f * vec[pos] for f, pos in zip(facs, order)]
    den *= scale
    g = math.gcd(den, *values)
    if g != 1:
        den //= g
        values = [v // g for v in values]
    terms = [(mu, keys[pos], odds[pos], v)
             for mu, pos, v in zip(mus, order, values)]
    free = max(vec)     # the other entries sit at pivots before it
    odd = odds[free]
    copies = []
    for beta in range(d):
        c = beta ^ odd
        rows = {mu: [0] * d for mu in mus}
        _write_class(rows, terms, c, shifts[c],
                     _shift_sign(keys[free], odd, shifts[c]))
        copies.append(_lowest_poly(algebra, n, rows, den))
    return copies


def _all_regular(polys):
    """Whether dbar_h p = 0 for every variable h and every p of ``polys``, a
    nonempty list over one algebra and variable count, by one
    :func:`~crfbench.polycalc.fueter_dbar` per variable.

    It reads only the integer rows of each p_c = polys[c] (a den > 0 does
    not change whether dbar_h p_c is 0) and packs them into P = sum_c B^c
    p_c.  A coefficient of dbar_h p_c sums at most d terms e * x, one per
    unit alpha, with e <= deg and |x| <= M, the largest entry of any p_c;
    so it is at most d * deg * M in absolute value.  With B = 2^s > 2 * d *
    deg * M, the coefficient of dbar_h P is sum_c B^c D_c with |D_c| < B/2,
    and balanced base-B digits are unique: D_0 is that sum's balanced
    residue mod B, then the rest follow after dividing by B.  So dbar_h P =
    0 exactly when dbar_h p_c = 0 for every c."""
    d, n = polys[0].dim, polys[0].n
    forms = [p._ints[1] for p in polys]
    exps = {}
    for rows in forms:
        exps.update(dict.fromkeys(rows))
    top = max(max(map(sum, exps), default=0), 1)
    big = max(map(abs, chain.from_iterable(
        chain.from_iterable(map(dict.values, forms)))), default=0)
    s = (2 * d * top * big).bit_length()
    shifts = range(0, s * len(polys), s)        # B^c = 2^(s c)
    zero = [0] * d
    P = _lowest_poly(polys[0].algebra, n, {
        exp: [sum(map(lshift, column, shifts)) for column in
              zip(*[rows.get(exp, zero) for rows in forms])]
        for exp in exps}, 1)
    return all(fueter_dbar(P, h).is_zero() for h in range(n))


# ---------------------------------------------------------------------------
# rho-adic tools for affine hypersurfaces
# ---------------------------------------------------------------------------

def rho_adic_digits(poly, S, count):
    """First ``count`` digits of the rho-adic expansion of poly on affine S:
    poly = d_0 + rho d_1 + rho^2 d_2 + ... with pivot-free digits."""
    return _rho_digits(poly, S.affine_form(), count)


def _rho_digits(poly, form, count):
    """:func:`rho_adic_digits` on the affine form ``form``
    (a :class:`~crfbench.hypersurface.AffineForm`).

    With rho = g_p (x_p - s), Horner's rule at x_p = s over the x_p-slices
    of poly divides it by x_p - s: the last value is the remainder, and the
    earlier ones are the slices of the quotient.  d_0 is the remainder, the
    restriction of poly to S; d_j is the remainder of the j-th quotient,
    over g_p^j.  This loop is the only division by rho: the extension
    columns read their digits from its divisions of the pivot powers.
    """
    grad, piv, s = form
    algebra, n = poly.algebra, poly.n
    den, rows = poly._ints
    slices = {}
    for exp, v in rows.items():
        slices.setdefault(exp[piv], {})[exp[:piv] + (0,) + exp[piv + 1:]] = v
    quotient = [_int_poly(algebra, n, slices.get(k, {}), den)
                for k in range(max(slices, default=-1) + 1)]
    digits = []
    for j in range(count):
        values = quotient[-1:]
        for a in reversed(quotient[:-1]):
            values.append(values[-1] * s + a)
        digit = values.pop() if values else HPoly.zero(algebra, n)
        digits.append(digit.scale(grad[piv] ** -j) if j and grad[piv] != 1
                      else digit)
        quotient = values[::-1]
    return digits


def _dbar_digits(poly, S, m):
    """{(h, digit, exponent, gamma): Fraction} for the nonzero coefficients of
    rho-adic digits 0..m-1 of dbar_h poly, h = 0, 1."""
    return {(h, j, exp, gamma): Fraction(c, den)
            for h in range(2)
            for j, digit in enumerate(rho_adic_digits(fueter_dbar(poly, h), S, m))
            for den, rows in [digit._ints]
            for exp, v in rows.items()
            for gamma, c in enumerate(v) if c}


@lru_cache(maxsize=32)
def _extension_images(form, m, budget):
    """The extension system's column images on the affine S of ``form``
    (its :class:`~crfbench.hypersurface.AffineForm`), for every monomial of
    degree < budget, as (den, {mu: [(block, q), ...]}, ids) in the order of
    :func:`_extend`.  ``ids`` numbers each block (h, j, exp) of the keys of
    :func:`_dbar_digits` once, in first-seen order; mu lists each block it
    touches once, with q the tuple of the nonzero (gamma, c) such that the
    coefficient of x^exp i_gamma in the rho-adic digit j of dbar_h(rho x^mu)
    is c over ``den``, by the identities in :func:`_extend`.  These are the
    ``touched`` lists that :func:`_peel` and :func:`_block_rows` read: the
    four columns x^mu i_beta enter each block as left multiplication by q.

    ``den_d`` is the lcm of the denominators of the digits D_j(x_p^e),
    e < max(budget, 1) and j < m, that :func:`_rho_digits` divides out of
    the pivot powers, and ``den_g`` that of the gradient, so every image is
    integral over den = den_d * den_g and no entry is ever a ``Fraction``.
    ``den`` depends on the budget, so the memo is keyed by (surface, order,
    budget), the surface by the value of its form: every job builds a new
    :class:`~crfbench.hypersurface.Hypersurface`.  Its value is shared by
    every later call: callers read it and never write it."""
    monos = [mu for k in range(budget) for mu in monomials(8, k)]
    grad, piv, _ = form
    # pivot_digits[e][j]: the integer form of D_j(x_p^e), e < max(budget, 1)
    pivot_digits = [[d._ints for d in _rho_digits(_lowest_poly("H", 2, {
        (0,) * piv + (e,) + (0,) * (7 - piv): [1, 0, 0, 0]}, 1), form, m)]
        for e in range(max(budget, 1))]
    den_d = math.lcm(*(den for row in pivot_digits for den, _ in row))
    den_g = math.lcm(*(g.denominator for g in grad))
    # scales[e][j]: the terms of D_j(x_p^e) * den_d, so that D_j(x^nu) is
    # scales[nu_p][j] times x^nu'; empty for j > e
    scales = [[[(exp, v[0] * (den_d // den)) for exp, v in rows.items()]
               for den, rows in row] for row in pivot_digits]
    gints = [(g * den_g).numerator for g in grad]
    digits = {}     # nu -> [the terms (exponent, value) of D_j(x^nu) * den_d]

    def digits_of(nu):
        out = digits.get(nu)
        if out is None:
            flat = nu[:piv] + (0,) + nu[piv + 1:]
            out = digits[nu] = [[(tuple(map(add, exp, flat)), c)
                                 for exp, c in terms]
                                for terms in scales[nu[piv]]]
        return out

    images, ids = {}, {}    # ids: {(h, j, exp): int}
    for mu in monos:
        # row block h, unit a of coordinate i = 4h + a:
        # g_i D_j(x^mu) + mu_i D_{j-1}(x^(mu - e_i))
        image = {}
        own = digits_of(mu)
        for i, g in enumerate(gints):
            h, a = divmod(i, 4)
            if g:       # the first terms of (h, a): no key is there yet
                for j, terms in enumerate(own):
                    for exp, c in terms:
                        image[h, j, exp, a] = g * c
            if mu[i]:
                k = mu[i] * den_g
                lower = digits_of(mu[:i] + (mu[i] - 1,) + mu[i + 1:])
                for j, terms in zip(range(1, m), lower):
                    for exp, c in terms:
                        key = (h, j, exp, a)
                        image[key] = image.get(key, 0) + k * c
        # blocks numbered in first-seen order; each listed once per monomial
        touched = {}
        for (h, j, exp, a), c in image.items():
            if c:
                touched.setdefault(ids.setdefault((h, j, exp), len(ids)),
                                   []).append((a, c))
        images[mu] = [(block, tuple(q)) for block, q in touched.items()]
    return den_d * den_g, images, ids


def _extend(f, S, m, budget, max_unknowns):
    """F = f + rho P with deg P < budget and dbar F vanishing to order m on
    S (zero rho-adic digits 0..m-1), or None when no such P exists.

    Column (mu, beta) is the digits of dbar_h(rho x^mu i_beta), read off
    the digits of the pivot powers.  With rho = g_p (x_p - s), D_j the j-th
    digit and dbar_h = sum_a i_a d/dx_{4h+a}:

    * dbar_h(rho u) = G_h u + rho dbar_h u, with G_h = sum_a g_{4h+a} i_a;
    * D_j(rho w) = D_{j-1}(w);
    * D_j(x^nu) = x^nu' D_j(x_p^e), with e = nu_p and nu' = nu with its
      pivot entry set to 0, since x^nu' is free of the pivot; D_j(x_p^e)
      comes from the division of :func:`rho_adic_digits`.

    Each monomial's image is computed once per (surface, m, budget) and
    memoised (:func:`_extension_images`), as integers over one common
    denominator den: the system eliminated is A' = den A, so its solution
    is the wanted one over den, and the answer is multiplied by den.
    Scaling every column by den changes neither the pivot set nor any
    infeasible verdict.  The right-hand side is mapped through ``ids``; a
    block of it that no monomial touches is an equation 0 = c != 0, so the
    answer is None at once.  :func:`_peel` drops the monomials that blocks
    (h, j, exp) outside the right-hand-side support force to 0, and
    :func:`_block_rows` builds the rows of the survivors, in the order of
    the monomials, from the same memoised (block, q) pairs, per block in id
    order.  By the pivot-set argument of :func:`_solve_homogeneous`, the
    free-variables-zero answer and every infeasible verdict are those of
    the whole system, in any row order, since the pivot set depends on the
    row space alone; the unknown cap counts the monomials before the
    presolve.  An infeasibility certificate y of the peeled system
    (yA' = 0, y.b != 0) is one of the whole system only after multiples of
    the forcing blocks, in the reverse order of the peel, cancel its
    products with the dropped columns; their right-hand side is zero, so
    y.b is kept.  The columns are integral as fed, so the fraction-free
    elimination gives such a left-null witness y in integers, with no
    rescaling of A.

    The right-hand side and the callers' checks of the answer stay on the
    polynomial route, independent of these identities.
    """
    if f.algebra != "H" or f.n != 2:
        raise ValueError("extension problems live on two quaternionic "
                         "variables")
    if not S.is_affine:
        raise ValueError("extension problems are implemented for affine "
                         "hypersurfaces")
    if budget < 0:
        raise ValueError("degree budget must be nonnegative")
    # unknowns: the coefficient of x^mu i_beta in P, deg(rho * P) <= budget;
    # the monomials of degree < budget number C(budget + 7, 8)
    size = 4 * math.comb(budget + 7, 8)
    if size > max_unknowns:
        raise BudgetExceeded(f"extension needs {size} unknowns")
    den, images, ids = _extension_images(S.affine_form(), m, budget)
    rhs = {}
    for (h, j, exp, gamma), c in _dbar_digits(f, S, m).items():
        block = ids.get((h, j, exp))
        if block is None:
            return None
        rhs.setdefault(block, {})[gamma] = -c
    kept = _peel(images, rhs)
    sol = solve_sparse(*_block_rows("H", [images[mu] for mu in kept], rhs))
    if sol is None:
        return None
    sden, nums = sol
    blocks = {}
    for j in sorted(nums):
        blocks.setdefault(kept[j // 4], [0] * 4)[j % 4] = nums[j] * den
    return f + S.rho * _int_poly("H", 2, blocks, sden)


def crf_extend(f, S, m=2, budget=None, max_unknowns=200000):
    """Extension F = f + rho P with dbar F = 0 to order m on affine S.

    The vanishing order is measured rho-adically: every component of the
    conjugate-Fueter image of F must have zero digits 0..m-1.  ``budget``
    caps deg F (default: deg f + 2).  Raises
    :class:`NoPolynomialExtensionWithinBudget` when the linear problem is
    infeasible within the budget.  m = 2 is feasible exactly for admissible
    boundary data; m = 1 for tangentially CRF data.  Any m at or above
    max(deg f, budget) asks for dbar F = 0, the problem of :func:`jump_split`:
    the answer's digits are verified to order max(deg f, budget) >
    deg dbar F, and a polynomial of degree e has no digit past digit e.
    """
    if m < 1:
        raise ValueError("vanishing order m must be at least 1")
    if budget is None:
        budget = max(f.degree(), 0) + 2
    # deg dbar F < max(deg f, budget), so higher digits are identically zero
    order = min(m, max(f.degree(), budget))
    F = _extend(f, S, order, budget, max_unknowns)
    if F is None:
        raise NoPolynomialExtensionWithinBudget(
            f"no extension with vanishing order {m} and degree <= {budget}")
    if _dbar_digits(F, S, order):
        raise AssertionError("extension failed verification")
    return F


def jump_split(f, S, budget=None, max_unknowns=200000):
    """Two-sided regular splitting (F+, F-) of f across affine S.

    Seeks a global polynomial F with F = f on S and dbar F = 0 exactly; the
    splitting is then (F, 0).  Since deg dbar F < max(deg f, budget), this is
    :func:`crf_extend` to that order, whose check proves dbar F = 0.  Raises
    :class:`NotAdmissibleOrBudget` if no such polynomial exists within the
    degree budget: the data is either not admissible, or admissible with no
    polynomial realization this small.
    """
    if budget is None:
        budget = max(f.degree(), 0) + 2
    try:
        F = crf_extend(f, S, max(f.degree(), budget, 1), budget, max_unknowns)
    except NoPolynomialExtensionWithinBudget:
        raise NotAdmissibleOrBudget(
            f"no regular polynomial extension with degree <= {budget}")
    return F, HPoly.zero("H", 2)
