"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index -> nonzero rational (``int`` or
``Fraction``).  The core object is an incremental row-echelon accumulator
that eliminates fraction-free (Bareiss 1968, *Math. Comp.* 22): a fed row is
cleared of denominators, reduced against the stored pivots in increasing
column order with integer updates, made primitive (gcd 1, positive leading
entry) and stored under its pivot column.  The columns to clear come from
a heap of the row's columns once the first is cleared, so the row is not
rescanned for its least column after every update.  Results stay integer:
pairs ``(den, {column: int})``, the numerators of the nonzero entries over
one den > 0.  Everything is deterministic.  The pivot columns are the
leading columns of the row space, right-hand side included, so they depend
on the rows fed in but not on their order; so do every read-out, each the
unique answer, and every infeasible verdict.  Only the fill, and so the
cost, depends on the order.

For solving, the right-hand side rides along as an extra entry under a
pseudo-column that sorts after every real column, so inconsistency (a row
whose leading entry is its right-hand side: 0 = nonzero) is detected the
moment it appears.  So a row with a right-hand side needs numeric column
keys; a rank-only row may carry any mutually ordered keys.  Several
right-hand sides ride along at once under as many pseudo-columns, all
after every real column: one elimination then serves them all, and any
one of them inconsistent makes the system inconsistent.  Every answer is
read off the fully reduced rows by one transpose: the reduced column of a
right-hand side is its solution with every free variable zero, and the
reduced column of a free column, negated, is that column's nullspace
vector, each unique and read in lowest terms.

The callers build their rows directly.  The graded solve and the kernel
basis of :mod:`crfbench.crfsolve` eliminate one class of their block
diagonal systems, with the right-hand sides of every class riding along;
the extension builds block rows from quaternion images.  The syzygy ranks
of :mod:`crfbench.syzygy` feed one class block per orbit, on reversed
column keys, to one echelon each (``syzygy._rank_block``), which also names
the rows that reduce to zero: the leads of the block's syzygies.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, inf, lcm

_RHS = inf  # pseudo-column of the right-hand side, after every real column


class BudgetExceeded(RuntimeError):
    """An exact system would pass the caller's cap on its unknowns."""


class Inconsistent(Exception):
    """A row reduced to 0 = nonzero."""


def _eliminate(row, piv, col, heap=None):
    """Cancel ``row[col]`` in place: row <- b*row - a*piv, where a/b is
    row[col]/piv[col] in lowest terms (b > 0), so integer rows stay integer.
    Each column it inserts into ``row`` is pushed on ``heap``, if given."""
    a, b = row[col], piv[col]
    if b != 1:
        g = gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            for c in row:
                row[c] *= b
    for c, v in piv.items():
        if c in row:
            nv = row[c] - a * v
            if nv:
                row[c] = nv
            else:
                del row[c]
        else:
            row[c] = -a * v
            if heap is not None:
                heappush(heap, c)


def _primitive(row, lead):
    """``row`` divided by the gcd of its entries, signed so row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


class Echelon:
    """Incremental sparse row echelon form over Q, on integer rows.

    ``rhs_columns`` are the pseudo-columns of the right-hand sides, in
    order, each after every real column: by default the one ``_RHS``.
    """

    def __init__(self, rhs_columns=(_RHS,)):
        self.pivots = {}    # col -> primitive integer row (may carry rhs)
        self.rhs = rhs_columns

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, row):
        """Reduce an integer row dict in place against the stored pivots.

        Returns its leading column afterwards (a right-hand side's
        pseudo-column for 0 = nonzero), or None when the row vanished.

        The first lead is ``min(row)``: most fed rows stop there.  After
        the first elimination the leads come from a heap of the row's
        columns, which each elimination extends by only the columns it
        inserts; a popped column no longer in the row is skipped.  A pivot
        row's columns all follow its lead, so the leads rise and each is the
        least column left, as ``min`` would give.
        """
        if not row:
            return None
        pivots = self.pivots
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return lead
        _eliminate(row, piv, lead)
        heap = list(row)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            if lead in row:
                piv = pivots.get(lead)
                if piv is None:
                    return lead
                _eliminate(row, piv, lead, heap)
        return None

    def add_row(self, row, rhs=None):
        """Feed one row (dict col->rational) with its right-hand side ``rhs``
        (None or 0 for a homogeneous row), or with a tuple of its values in
        each right-hand side of ``rhs_columns``.  Returns True if rank grew.

        Raises Inconsistent when the row reduces to an impossible equation.
        """
        work = dict(row)
        if not all(work.values()):
            work = {c: v for c, v in work.items() if v}
        if type(rhs) is tuple:
            work.update((c, v) for c, v in zip(self.rhs, rhs) if v)
        elif rhs:
            work[self.rhs[0]] = rhs
        if not {int}.issuperset(map(type, work.values())):
            den = lcm(*(v.denominator for v in work.values()))
            work = {c: v.numerator * (den // v.denominator)
                    for c, v in work.items()}
        lead = self._reduce(work)
        if lead is None:
            return False
        if lead in self.rhs:
            raise Inconsistent("0 = nonzero after reduction")
        self.pivots[lead] = _primitive(work, lead)
        return True

    def back_substitute(self):
        """Fully reduce the pivot rows against each other (RREF), in integers.

        The rows stay primitive, so the reduced entry of column c is
        row[c] / row[lead].  This is a read-out: feed no rows after it.  A
        second call finds nothing left to clear and changes no row.

        Each lead is cleared from only the rows that hold it, read from a
        map built once before the loop.  The map stays exact: leads are
        taken in decreasing order, so the row of the lead being cleared
        holds only its lead, free columns and the right-hand side, and
        subtracting it never gives a row a pivot column.
        """
        pivots = self.pivots
        holders = {}    # pivot column -> the leads of the other rows with it
        for lead, row in pivots.items():
            for c in row:
                if c != lead and c in pivots:
                    holders.setdefault(c, []).append(lead)
        for lead in sorted(pivots, reverse=True):
            # earlier steps may have scaled this row; drop the common factor
            piv = pivots[lead] = _primitive(pivots[lead], lead)
            for other in holders.get(lead, ()):
                _eliminate(pivots[other], piv, lead)

    def _reduced_columns(self, columns):
        """The reduced column of each of ``columns``, none a pivot, as
        (den, {lead: int}): row[c] / row[lead] over the fully reduced rows,
        in lowest terms, read by one pass over the rows as a transpose."""
        self.back_substitute()
        reads = {c: {} for c in columns}
        for lead, row in self.pivots.items():
            for c, v in row.items():
                if c in reads:
                    g = gcd(v, row[lead])
                    reads[c][lead] = (v // g, row[lead] // g)
        dens = [lcm(*[q for _, q in read.values()]) for read in reads.values()]
        return [(den, {lead: v * (den // q) for lead, (v, q) in read.items()})
                for den, read in zip(dens, reads.values())]

    def solutions(self):
        """Per right-hand side, in order, its reduced column: its solution
        with all free variables zero, as (den, {column: int}) in lowest
        terms.  Call after feeding all rows; add_row raises Inconsistent."""
        return self._reduced_columns(self.rhs)

    def nullspace(self, ncols):
        """Basis of the solution space of the homogeneous system.

        One (den, {column: int}) per free column, in increasing free-column
        order, in lowest terms with den at that column: the free column's
        reduced column, negated.
        """
        free = [c for c in range(ncols) if c not in self.pivots]
        return [(den, {c: den, **{lead: -v for lead, v in read.items()}})
                for c, (den, read) in zip(free, self._reduced_columns(free))]


def rank_of(rows):
    """Rank of an iterable of sparse rows."""
    ech = Echelon()
    for row in rows:
        ech.add_row(row)
    return ech.rank


def solve_sparse(rows, rhs_values, rhs_columns=None):
    """Solve A x = b for one particular exact solution, or None.

    ``rows`` and ``rhs_values`` are parallel sequences.  Free variables are
    zero, which makes the answer the minimal one in the sense that every
    non-pivot coordinate (in increasing column order) vanishes.  The answer is
    :meth:`Echelon.solutions`' (den, {column: int}), ``(1, {})`` when zero.

    With ``rhs_columns``, the pseudo-columns of r right-hand sides b_0, ...,
    b_{r-1} (ints after every column of ``rows``), each value is None or the
    tuple of the row's values in b_0, ..., b_{r-1}: the rows are eliminated
    once, and the answer is the list of the r read-outs, read-out s being
    the answer for b_s alone, or None when any b_s is inconsistent.
    """
    ech = Echelon() if rhs_columns is None else Echelon(rhs_columns)
    try:
        for row, rhs in zip(rows, rhs_values):
            ech.add_row(row, rhs)
    except Inconsistent:
        return None
    sols = ech.solutions()
    return sols if rhs_columns is not None else sols[0]


def nullspace_sparse(rows, ncols):
    """Basis of the right nullspace of sparse rows, as Echelon.nullspace."""
    ech = Echelon()
    for row in rows:
        ech.add_row(row)
    return ech.nullspace(ncols)
