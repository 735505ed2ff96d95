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
equal rank, so :func:`_rank_rows` builds one row per unknown and those
rows are ranked.  Since
i_a i_b = +-i_{a XOR b}, the system is block diagonal by
:func:`block_key`, and ``syzygy_dim`` ranks one block per orbit of the
variable permutations and of the class shifts certified by
:func:`shift_certificate`.

``linalg.Echelon`` pivots on the smallest column key, so the columns are
keyed to put the largest mu first: in increasing mu the largest block of
``syzygy_dim("O", 2, 5)`` fills to 1,702,606 echelon nonzeros, in
decreasing mu to 101,088.  Ranks do not depend on the column order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from .crfsolve import _coordinates, _pack
from .hypercomplex import DIM, MUL_TABLE
from .linalg import BudgetExceeded, rank_of
from .polycalc import HPoly, compat_pbar, monomials


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


def laplace_operator(algebra, n, h):
    d = DIM[algebra]
    nsyms = d * n
    return OperatorPoly(nsyms, {
        tuple(2 if i == d * h + alpha else 0 for i in range(nsyms)): 1
        for alpha in range(d)})


def _compat_terms(l, m, algebra, n):
    """The d rows of pair (l, m) as {slot: {exponent: coefficient}}, slot
    d*h + beta for entry (h, beta); see the module docstring."""
    if l == m or not (0 <= l < n and 0 <= m < n):
        raise ValueError("need an ordered pair of distinct variable indices")
    d = DIM[algebra]
    table = MUL_TABLE[algebra]
    sign = -1 if algebra == "H" else 1

    def exponent(i, j):
        exp = [0] * (d * n)
        exp[i] += 1
        exp[j] += 1
        return tuple(exp)

    lap_m = dict.fromkeys(laplace_operator(algebra, n, m).terms, sign)
    rows = [{d * l + gamma: lap_m} for gamma in range(d)]
    for beta in range(d):
        slot = d * m + beta
        for a2 in range(d):
            t, s2 = table[a2][beta]
            if a2:                      # conj(i_a2) = -i_a2
                s2 = -s2
            for a1 in range(d):
                gamma, s1 = table[a1][t]
                rows[gamma].setdefault(slot, {})[
                    exponent(d * l + a1, d * m + a2)] = -sign * s1 * s2
    return rows


def compat_syzygy_rows(l, m, algebra, n):
    """The d syzygy rows realifying the compatibility operator of pair (l, m).

    Returns a list of d row vectors, each of length n*d, of OperatorPolys.
    Quaternionic rows carry the published P-bar sign (overall minus of the
    octonionic z-form); see the module docstring.
    """
    nsyms = DIM[algebra] * n
    return [[OperatorPoly(nsyms, row.get(slot)) for slot in range(nsyms)]
            for row in _compat_terms(l, m, algebra, n)]


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

def block_key(d, mu, beta):
    """Block of column (mu, beta): the multidegree (deg_0 mu, ..., deg_{n-1}
    mu) and the class beta XOR (XOR of i mod d over the i with mu_i odd).

    Under the index rule i_a i_b = +-i_{a XOR b}, dbar keeps it: an unknown
    (h, nu, gamma) has the key of column (nu + e_{d*h}, gamma).
    """
    return (tuple(sum(mu[i:i + d]) for i in range(0, len(mu), d)),
            beta ^ _odd_xor(d, mu))


def _odd_xor(d, mu):
    x = 0
    for i, e in enumerate(mu):
        if e & 1:
            x ^= i % d
    return x


def _block_columns(d, md, kappa):
    """The columns of block (md, kappa), one per monomial mu of multidegree
    md, in increasing mu."""
    for parts in product(*(sorted(monomials(d, e)) for e in md)):
        mu = sum(parts, ())
        yield mu, kappa ^ _odd_xor(d, mu)


def _rank_rows(algebra, n, k, columns):
    """The rows of the degree-k system on ``columns`` ((mu, beta) pairs),
    one per unknown (h, nu, gamma), in sorted order, on monomials packed by
    :func:`crfbench.crfsolve._pack`.  Column (mu, beta) with packed mu m is
    keyed -(m*d + beta), so the largest mu is pivoted first; through
    coordinate d*h + alpha it enters row (h, mu - unit, gamma) with the sign
    of i_alpha i_beta = sign i_gamma."""
    d = DIM[algebra]
    bits = (k + 1).bit_length()
    table = MUL_TABLE[algebra]
    coords = [(one, h, table[i % d]) for i, (_, one, h, _)
              in enumerate(_coordinates(algebra, n, bits))]
    rows = {}
    for mu, beta in columns:
        m = _pack(mu, bits)
        for e, (one, h, products) in zip(mu, coords):
            if e:
                gamma, sign = products[beta]
                rows.setdefault((h + m - one) * d + gamma, {})[
                    -(m * d + beta)] = sign
    return [rows[key] for key in sorted(rows)]


def shift_certificate(algebra, c):
    """Signs (v, eps) showing that class blocks kappa and kappa XOR c have
    equal rank, or None.

    They satisfy sigma(a, b XOR c) = sigma(a, b) (-1)^(v_a + v_0) eps(b)
    eps(a XOR b) for all a, b, where i_a i_b = sigma(a, b) i_{a XOR b}.
    Column (mu, b) then maps to (mu, b XOR c) with sign eps(b) (-1)^<v, mu>
    and unknown (h, nu, g) to (h, nu, g XOR c) with sign eps(g)
    (-1)^(v_0 + <v, nu>), where <v, mu> sums v_{i mod d} mu_i: a signed
    permutation of the two blocks, for every n, k and multidegree.
    """
    return _certificate(MUL_TABLE[algebra], c)


@lru_cache(maxsize=None)
def _certificate(table, c):
    # Multiplying eps by -1, or adding 1 to every v_a, keeps the equations,
    # so v_0 = 0 and eps(0) = 1; as i_a 1 = i_a, the equations at b = 0
    # then fix eps by v, and the search over v is exhaustive.
    d = len(table)
    sigma = [[sign for _, sign in row] for row in table]
    for bits in range(0, 1 << d, 2):
        flip = [(-1) ** (bits >> a & 1) for a in range(d)]    # (-1)^v_a
        eps = [sigma[a][c] * flip[a] for a in range(d)]
        if all(sigma[a][b ^ c] == sigma[a][b] * flip[a] * eps[b] * eps[a ^ b]
               for a in range(d) for b in range(d)):
            return tuple(bits >> a & 1 for a in range(d)), tuple(eps)
    return None


@lru_cache(maxsize=None)
def _class_orbits(table):
    """(representative classes, orbit size) under the certified shifts, or
    None when ``table`` breaks the index rule and the system has no
    blocks."""
    d = len(table)
    if any(table[a][b][0] != a ^ b for a in range(d) for b in range(d)):
        return None
    span = {0}
    for c in range(1, d):
        if c not in span and _certificate(table, c):
            span |= {x ^ c for x in span}
    classes = {min(kappa ^ x for x in span) for kappa in range(d)}
    return tuple(sorted(classes)), len(span)


def syzygy_dim(algebra, n, k, max_unknowns=None):
    """Dimension of the space of degree-k syzygy rows of the realified matrix.

    Pure exact linear algebra: unknowns are the coefficients of the n*d row
    entries on degree-k monomials; equations say each column of row . matrix
    vanishes coefficientwise.  The equation system is the transpose of dbar
    on degree k+1: equation (beta, mu) is the image of the column
    (mu, beta), with entry (h, nu, gamma) on the coefficient of d^nu in row
    entry (h, gamma).  Each block is ranked as the rows of its transpose,
    built by :func:`_rank_rows` with the largest mu as the first pivot, which
    fills in far less (module docstring); ranks do not depend on that order.
    ``max_unknowns`` guards runaway sizes (raises :class:`BudgetExceeded`).

    Each block of :func:`block_key` is ranked on its own.  Permuting
    the variables permutes multidegrees, so only non-increasing ones are
    ranked, weighted by their number of permutations; a class is ranked
    once per orbit of the certified shifts, weighted by its size.  A table
    breaking the index rule has no blocks: the whole system is ranked.
    """
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

    orbits = _class_orbits(MUL_TABLE[algebra])
    if orbits is None:
        targets = sorted(monomials(nsyms, k + 1))
        blocks = [(1, [(mu, beta) for beta in range(d) for mu in targets])]
    else:
        classes, class_orbit = orbits
        md_orbits = Counter(tuple(sorted(md, reverse=True))
                            for md in monomials(n, k + 1))
        blocks = [(md_orbit * class_orbit, _block_columns(d, md, kappa))
                  for md, md_orbit in md_orbits.items() for kappa in classes]
    return nunknowns - sum(
        weight * rank_of(_rank_rows(algebra, n, k, columns))
        for weight, columns in blocks)


def compat_rows_rank(algebra, n):
    """Rank of the compat syzygy rows as degree-2 coefficient vectors, keyed
    (slot, exponent)."""
    return rank_of({(slot, exp): c
                    for slot, entry in row.items() for exp, c in entry.items()}
                   for l, m in _ordered_pairs(n)
                   for row in _compat_terms(l, m, algebra, n))


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
