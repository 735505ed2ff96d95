"""Syzygies of the realified conjugate-Fueter matrix.

The conjugate-Fueter system in n hypercomplex variables realifies to an
(n*d) x d matrix over the commutative polynomial ring Q[d_0, ..., d_{N-1}]
(N = n*d partial-derivative symbols):

    M[(h, gamma), beta]  =  sum over alpha of  sign * d_{h,alpha}
                            where  i_alpha * i_beta = sign * i_gamma.

Block h of M is, entry for entry, the realified one-variable operator matrix
(:data:`crfbench.hypercomplex.OCT_DBAR_MATRIX` for octonions, its 4 x 4
corner for H).

A (left) syzygy of degree k is a row vector v of homogeneous degree-k
operator polynomials with v . M = 0.  The compatibility operators yield
syzygy rows mechanically:

* octonionic pair (l, m):   z_{l,m} g = Lap_m g_l - dbar_l(d_m g_m)
      row gamma:  v[(l, beta)] = delta_{gamma beta} * Lap_m
                  v[(m, beta)] = -(A_l . B_m)[gamma, beta]
  with A_l the dbar block of variable l and B_m the realified d block of
  variable m.  (Operator composition realifies to a matrix product; the
  identity B_m . A_m = Lap_m * Id is the alternative law.)
* quaternionic pair (l, m) uses the opposite overall sign, matching the
  published P-bar operators.

The rows come from one pass over ``MUL_TABLE``: entry (gamma, beta) of
A_l . B_m sums s1 s2 d_{l,a1} d_{m,a2} over the (a1, a2) with
conj(i_a2) i_beta = s2 i_t and i_a1 i_t = s1 i_gamma.

``syzygy_dim`` counts all degree-k syzygies by exact linear algebra over Q.
The equations v . M = 0 are the transpose of dbar on degree k+1: the
coefficient of d^mu in column beta of v . M is the image of x^[mu] i_beta
under dbar, read with its equation (h, nu, gamma) as the unknown
"coefficient of d^nu in v[(h, gamma)]".  A matrix and its transpose have
equal rank, so :func:`_rows` builds the row of each unknown by shifting
its variable's d x d stencil, and :func:`_rank_block` ranks a block's rows
with one elimination.  The stencils are per table: built once for each
(table, n, field width, h), keyed on the table's value, so a replaced
``MUL_TABLE`` gets stencils of its own.  Since i_a i_b = +-i_{a XOR b},
the system is block diagonal:
column (mu, beta) lies in block (multidegree of mu, beta XOR the odd class
of mu), the odd class being the XOR of i mod d over the i with mu_i odd,
and unknown (h, nu, gamma) in the block of column (nu + e_{d*h}, gamma).
``syzygy_dim`` ranks class 0 of one multidegree per orbit of the variable
permutations: the class shifts of :func:`crfbench.hypercomplex._class_shifts`
map it onto the other d - 1 classes, and a table without them is refused.

Most rows of a ranked block reduce to zero, and the elimination names them
(the initial-module view of a syzygy computation: Adams, Berenstein,
Loustaunau, Sabadini & Struppa, J. Geom. Anal. 9, 1999).  Rows are fed by h
and then by packed nu, an order in which adding rho to every nu keeps the
order.  A fed row that reduces to zero is the lead, the last unknown
(h, nu, gamma), of a syzygy.  That syzygy times d^rho has the lead
(h, nu + rho, gamma), and the certified class shifts carry it to every
gamma.  So every (h, nu', gamma') with nu' >= nu componentwise, at every
higher degree, is a lead too, and its row lies in the span of the rows fed
before it: leaving it out changes no pivot and no rank.  This is the
syzygy criterion of F5 (Faugere, ISSAC 2002).  :func:`_rank_block`
returns the rows it rejects with the block's rank; :func:`_leads` reads
them as the leads of class 0, degree by degree, and :func:`_rows` leaves
out their multiples.  A ranked block lies on its first k + 1 variables,
where its rows are those of the system in min(n, k + 1) variables padded
with zeros, in the same order; so the count and the lead search both rank
it in those variables alone, by the same call.

``linalg.Echelon`` pivots on the smallest column key, so the columns are
keyed to put the largest mu first: in increasing mu the largest block of
``syzygy_dim("O", 2, 5)`` fills to 1,702,606 echelon nonzeros, in
decreasing mu to 101,088.  Ranks do not depend on the column order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from .hypercomplex import DIM, MUL_TABLE, _class_shifts
from .linalg import BudgetExceeded, Echelon, rank_of
from .polycalc import (HPoly, _class_masks, _odd_class, _pack, _units,
                       _unpack, compat_pbar, monomials)


class OperatorPoly:
    """Polynomial in commuting derivative symbols with rational coefficients
    (integral ones are kept as ``int``)."""

    __slots__ = ("nsyms", "terms")

    def __init__(self, nsyms, terms=None):
        self.nsyms = nsyms
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != nsyms:
                    raise ValueError("exponent width mismatch")
                if not isinstance(c, int):
                    c = Fraction(c)
                if c:
                    clean[exp] = clean.get(exp, 0) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def zero(cls, nsyms):
        return cls(nsyms)

    @classmethod
    def symbol(cls, nsyms, i, coeff=1):
        exp = [0] * nsyms
        exp[i] = 1
        return cls(nsyms, {tuple(exp): coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        out = OperatorPoly.__new__(OperatorPoly)
        out.nsyms, out.terms = self.nsyms, terms
        return out

    def __mul__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        out = OperatorPoly.__new__(OperatorPoly)
        out.nsyms = self.nsyms
        out.terms = {e: c for e, c in acc.items() if c}
        return out

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.nsyms == other.nsyms and self.terms == other.terms

    def __repr__(self):
        items = sorted(self.terms.items())
        return "OperatorPoly(" + " + ".join(
            f"{c}*d^{list(e)}" for e, c in items[:4]
        ) + (" + ..." if len(items) > 4 else "") + ")"

    def apply(self, poly, var_of_sym):
        """Apply to an HPoly; symbol i differentiates flat coordinate
        ``var_of_sym[i]``.  Used to cross-check rows against the polynomial
        calculus."""
        out = HPoly.zero(poly.algebra, poly.n)
        for exp, c in self.terms.items():
            q = poly
            for i, e in enumerate(exp):
                for _ in range(e):
                    q = q.partial_flat(var_of_sym[i])
            out = out + q.scale(c)
        return out


def _block(algebra, n, h):
    """Realified d x d conjugate-Fueter (dbar) operator block for variable h."""
    d = DIM[algebra]
    nsyms = d * n
    rows = [[OperatorPoly.zero(nsyms) for _ in range(d)] for _ in range(d)]
    for alpha in range(d):
        for beta in range(d):
            gamma, sign = MUL_TABLE[algebra][alpha][beta]
            rows[gamma][beta] = rows[gamma][beta] + OperatorPoly.symbol(
                nsyms, d * h + alpha, sign)
    return rows


def build_dbar_matrix(algebra, n):
    """The (n*d) x d realified conjugate-Fueter matrix; row (h, gamma) is at
    flat index d*h + gamma."""
    out = []
    for h in range(n):
        out.extend(_block(algebra, n, h))
    return out


def _compat_rows(table, sign, n, pairs):
    """The d rows of each pair (l, m) of ``pairs``, in turn, as {key:
    coefficient} under the multiplication table ``table``, times ``sign``:
    -1 gives the quaternionic P-bar form (module docstring).

    Key slot << 2*n*d | exponent: slot d*h + beta for entry (h, beta), the
    degree-2 exponent packed in 2-bit fields by
    :func:`crfbench.polycalc._pack`.  ``table`` is walked once, for all the
    pairs.
    """
    d = len(table)
    width = d * n
    shift = 2 * width
    unit = _units(width, 2)
    # per gamma, (beta, a1, a2, coefficient) of each term of row gamma's
    # entry (m, beta), -sign s1 s2 d_{l,a1} d_{m,a2}
    walk = [[] for _ in range(d)]
    for beta in range(d):
        for a2 in range(d):
            t, s2 = table[a2][beta]
            if a2:                      # conj(i_a2) = -i_a2
                s2 = -s2
            for a1 in range(d):
                gamma, s1 = table[a1][t]
                walk[gamma].append((beta, a1, a2, -sign * s1 * s2))
    rows = []
    for l, m in pairs:
        if l == m or not (0 <= l < n and 0 <= m < n):
            raise ValueError(
                "need an ordered pair of distinct variable indices")
        ul, um = unit[d * l:d * l + d], unit[d * m:d * m + d]
        slot_m = [(d * m + beta) << shift for beta in range(d)]
        for gamma, terms in enumerate(walk):
            row = {(d * l + gamma) << shift | 2 * e: sign for e in um}
            row.update({slot_m[beta] | ul[a1] + um[a2]: c
                        for beta, a1, a2, c in terms})
            rows.append(row)
    return rows


def compat_syzygy_rows(l, m, algebra, n):
    """The d syzygy rows realifying the compatibility operator of pair (l, m).

    Returns a list of d row vectors, each of length n*d, of OperatorPolys.
    Quaternionic rows carry the published P-bar sign (overall minus of the
    octonionic z-form); see the module docstring.
    """
    nsyms = DIM[algebra] * n
    shift = 2 * nsyms
    sign = -1 if algebra == "H" else 1
    out = []
    for row in _compat_rows(MUL_TABLE[algebra], sign, n, [(l, m)]):
        entries = [{} for _ in range(nsyms)]
        for key, c in row.items():
            slot, exp = divmod(key, 1 << shift)
            entries[slot][_unpack(exp, 2, nsyms)] = c
        out.append([OperatorPoly(nsyms, terms) for terms in entries])
    return out


def _ordered_pairs(n):
    """Ordered pairs of distinct variables, lexicographic: the order of the
    residuals of :func:`crfbench.polycalc.compat_pbar`."""
    return [(l, m) for l in range(n) for m in range(n) if l != m]


def all_compat_rows(algebra, n):
    """Compat syzygy rows for every ordered pair, lexicographic."""
    return [row for l, m in _ordered_pairs(n)
            for row in compat_syzygy_rows(l, m, algebra, n)]


def verify_syzygy(row, matrix):
    """Exact symbolic check that row . matrix == 0."""
    ncols = len(matrix[0])
    for j in range(ncols):
        acc = OperatorPoly.zero(row[0].nsyms)
        for i, entry in enumerate(row):
            if not entry.is_zero() and not matrix[i][j].is_zero():
                acc = acc + entry * matrix[i][j]
        if not acc.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# graded dimension count
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _part(d, n, bits, g, e):
    """(packed nu, odd class of nu) for every nu of degree e > 0 in the
    fields of variable g alone, in increasing nu."""
    low = _units(d * n, bits)[d * g + d - 1]    # g's last field
    masks = _class_masks(d, d, bits)    # one variable's fields
    keys = [_pack(mu, bits) for mu in reversed(monomials(d, e))]
    return tuple((key * low, _odd_class(key, masks)) for key in keys)


def _walk(d, n, bits, md):
    """(packed nu, odd class of nu) for every nu of multidegree ``md``, in
    increasing nu, from the parts of its variables of nonzero degree."""
    walk = [(0, 0)]
    for g, e in enumerate(md):
        if e:
            walk = [(p | q, c ^ x) for p, c in walk
                    for q, x in _part(d, n, bits, g, e)]
    return walk


@lru_cache(maxsize=256)
def _stencil(table, n, bits, h):
    """Per gamma, the row of unknown (h, 0, gamma) under ``table`` as
    (key, sign) pairs: for each alpha, column (e_{d*h+alpha}, alpha XOR
    gamma) with the sign of i_alpha i_{alpha XOR gamma} = sign i_gamma,
    keyed as :func:`_rows` keys it.  The index rule that this reads was
    certified by :func:`crfbench.hypercomplex._class_shifts` before any
    block is ranked.  Keyed on the table's value, so every table gets its
    own."""
    d = len(table)
    units = _units(d * n, bits)[d * h:d * h + d]
    return tuple(tuple((-(units[a] * d + (a ^ gamma)), table[a][a ^ gamma][1])
                       for a in range(d))
                 for gamma in range(d))


def _rows(table, n, bits, block, leads):
    """(h, packed nu, row) for each unknown (h, nu, gamma) of ``block`` in
    the degree-k system under ``table``, k + 1 the degree of the block's
    multidegree, in feed order, on monomials packed by
    :func:`crfbench.polycalc._pack` in ``bits``-bit fields.

    Column (mu, beta) with packed mu m is keyed -(m*d + beta), so the
    largest mu is pivoted first; the row of (h, nu, gamma) is the
    :func:`_stencil` row of (h, 0, gamma) shifted by nu.  ``block`` =
    (md, kappa) takes the unknowns of the columns of multidegree md and
    class kappa: the (h, nu, kappa XOR odd class of nu) with nu of
    multidegree md - e_h (:func:`_walk`), by h and then by packed nu.  The
    unknowns whose nu is a multiple of the nu of a lead (h, nu) of
    ``leads`` (:func:`_leads`, found in these same n variables) are
    left out, rows that the earlier ones span (module docstring).
    """
    d = len(table)
    md, kappa = block
    for h, e in enumerate(md):
        if not e:
            continue
        stencil = _stencil(table, n, bits, h)
        rest = md[:h] + (e - 1,) + md[h + 1:]
        # packing is additive: nu >= lead exactly when nu = lead + rho
        skip = set()
        for g, lead in leads:
            if g != h:
                continue
            degs = [sum(lead[i:i + d]) for i in range(0, len(lead), d)]
            left = tuple(a - b for a, b in zip(rest, degs))
            if min(left) >= 0:
                base = _pack(lead, bits)
                skip.update(base + rho for rho, _ in _walk(d, n, bits, left))
        for nu, odd in _walk(d, n, bits, rest):
            if nu not in skip:
                m = nu * d
                yield h, nu, {key - m: sign
                              for key, sign in stencil[kappa ^ odd]}


def _rank_block(table, n, bits, block, leads):
    """(rank, dependent) of the rows :func:`_rows` gives ``block``, fed in
    order to one :class:`crfbench.linalg.Echelon`: ``dependent`` lists the
    (h, packed nu) of each fed row that reduces to zero, the leads of the
    syzygies that the block's elimination finds (module docstring)."""
    ech = Echelon()
    dependent = [(h, nu) for h, nu, row in _rows(table, n, bits, block, leads)
                 if not ech.add_row(row)]
    return ech.rank, dependent


@lru_cache(maxsize=256)
def _leads(table, m, j):
    """The leads (h, nu) of class 0 found up to degree j in m variables
    under ``table``, nu unpacked to m*d fields, in the order found.

    Degree j ranks class 0 of every multidegree of degree j + 1 (not only
    the non-increasing ones: permuting the variables reorders h), with the
    multiples of the leads below j left out; each row that
    :func:`_rank_block` finds dependent is a new lead (module docstring);
    :func:`syzygy_dim` ranks its blocks by the same calls.  The search
    stops after the first j >= 3 that finds none; a lead it misses only
    means a dependent row is fed.  Keyed on the table's value, as
    :func:`_stencil` is.
    """
    if j < 2:
        return ()
    below = _leads(table, m, j - 1)
    if j > 3 and len(below) == len(_leads(table, m, j - 2)):
        return below
    bits = (j + 1).bit_length()
    return below + tuple(
        (h, _unpack(nu, bits, m * len(table)))
        for md in monomials(m, j + 1)
        for h, nu in _rank_block(table, m, bits, (md, 0), below)[1])


def syzygy_dim(algebra, n, k, max_unknowns=None):
    """Dimension of the space of degree-k syzygy rows of the realified matrix.

    Pure exact linear algebra: unknowns are the coefficients of the n*d row
    entries on degree-k monomials; equations say each column of row . matrix
    vanishes coefficientwise.  The equation system is the transpose of dbar
    on degree k+1: equation (beta, mu) is the image of the column
    (mu, beta), with entry (h, nu, gamma) on the coefficient of d^nu in row
    entry (h, gamma).  Each block is ranked as the rows of its transpose,
    which :func:`_rows` builds one per unknown and :func:`_rank_block`
    ranks, with the largest mu as the first pivot, which fills in far less
    (module docstring); ranks do not depend on that order.
    ``max_unknowns`` guards runaway sizes (raises :class:`BudgetExceeded`).

    Each block (module docstring) is ranked on its own.  Permuting
    the variables permutes multidegrees, so only non-increasing ones are
    ranked, enumerated as the partitions of k + 1 and weighted by their
    number of permutations.  The certified shifts map class 0 onto every
    class, so class 0 alone is ranked, weighted by d; a table without them
    is refused with AssertionError.  Each block is ranked in its first
    min(n, k + 1) variables, which hold it, as :func:`_leads` ranks it,
    free of the multiples of the leads found below degree k (module
    docstring); so n reaches only the count of unknowns and the weights.
    """
    if algebra not in DIM:
        raise ValueError(f"unknown algebra {algebra!r}")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if n < 1:
        raise ValueError("need at least one variable")
    d = DIM[algebra]
    nsyms = d * n
    nunknowns = n * d * comb(nsyms + k - 1, k)
    if max_unknowns is not None and nunknowns > max_unknowns:
        raise BudgetExceeded(
            f"{nunknowns} unknowns exceed budget {max_unknowns}")

    table = MUL_TABLE[algebra]
    blocks = _ranked_blocks(algebra, n, k)
    m = min(n, k + 1)
    leads = _leads(table, m, k - 1)
    bits = (k + 1).bit_length()
    return nunknowns - sum(
        weight * _rank_block(table, m, bits, (md[:m], 0), leads)[0]
        for weight, (md, _) in blocks)


def _partitions(total, most, top):
    """The non-increasing tuples of at most ``most`` positive ints, each at
    most ``top``, that sum to ``total``, in decreasing order."""
    if not total:
        yield ()
    elif most:
        for first in range(min(total, top), 0, -1):
            for rest in _partitions(total - first, most - 1, first):
                yield (first,) + rest


def _ranked_blocks(algebra, n, k):
    """(weight, block) for each block :func:`syzygy_dim` ranks at degree k:
    class 0 of each non-increasing multidegree of n variables, in
    decreasing order, weighted by its permutations (a multinomial) times
    the d classes that the shifts of
    :func:`crfbench.hypercomplex._class_shifts` map it onto.  The count
    and the lead search rank it in its first min(n, k + 1) variables."""
    d = len(_class_shifts(MUL_TABLE[algebra]))
    blocks = []
    for head in _partitions(k + 1, n, k + 1):
        weight, left = d, n
        for count in Counter(head).values():
            weight *= comb(left, count)
            left -= count
        blocks.append((weight, (head + (0,) * left, 0)))
    return blocks


def compat_rows_rank(algebra, n):
    """Rank of the compat syzygy rows as degree-2 coefficient vectors, keyed
    slot << 2*n*d | packed exponent."""
    sign = -1 if algebra == "H" else 1
    return rank_of(_compat_rows(MUL_TABLE[algebra], sign, n,
                                _ordered_pairs(n)))


def independence_witness(a, b, algebra, n):
    """Residual table for the rank-probing right-hand side g_k = x_{b,0}^2
    delta_{k,a}: maps each ordered pair (l, m) to its residual polynomial.

    For a != b exactly the (a, b) entry is nonzero (the constant 2 for
    octonions; quaternionic pairs carry the opposite sign convention).
    """
    if a == b:
        raise ValueError("need distinct variable indices")
    g = [HPoly.zero(algebra, n) for _ in range(n)]
    x = HPoly.coordinate(algebra, n, b, 0)
    g[a] = x * x
    return dict(zip(_ordered_pairs(n), compat_pbar(g)))
