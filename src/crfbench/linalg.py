"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index -> nonzero Fraction.  The core object is
an incremental row-echelon accumulator: rows are reduced against the stored
pivots in increasing column order, normalized to leading coefficient 1, and
stored under their pivot column.  Everything is deterministic: the result
depends only on the rows fed in and their order.

For solving, right-hand sides ride along as extra entries under negative
pseudo-columns, so inconsistency (a zero row with nonzero rhs) is detected
the moment it appears.
"""

from __future__ import annotations

from fractions import Fraction

_RHS = -1  # pseudo-column index for the right-hand side


class Inconsistent(Exception):
    """A row reduced to 0 = nonzero."""


class Echelon:
    """Incremental sparse row echelon form over Q."""

    def __init__(self, track_rhs=False):
        self.pivots = {}          # col -> normalized row dict (may carry _RHS)
        self.track_rhs = track_rhs

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, row):
        """Reduce a row dict in place against stored pivots; return it."""
        while True:
            cols = [c for c in row if c != _RHS]
            if not cols:
                return row
            lead = min(cols)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            factor = row[lead]
            for c, v in piv.items():
                if c in row:
                    nv = row[c] - factor * v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                else:
                    row[c] = -factor * v
        # not reached

    def add_row(self, row, rhs=None):
        """Feed one row (dict col->Fraction).  Returns True if rank grew.

        Raises Inconsistent when rhs tracking is on and the row reduces to
        an impossible equation.
        """
        work = {c: Fraction(v) for c, v in row.items() if v}
        if self.track_rhs and rhs:
            work[_RHS] = Fraction(rhs)
        work = self._reduce(work)
        cols = [c for c in work if c != _RHS]
        if not cols:
            if self.track_rhs and work.get(_RHS):
                raise Inconsistent("0 = nonzero after reduction")
            return False
        lead = min(cols)
        inv = Fraction(1) / work[lead]
        self.pivots[lead] = {c: v * inv for c, v in work.items()}
        return True

    def back_substitute(self):
        """Fully reduce the pivot rows against each other (RREF)."""
        for lead in sorted(self.pivots, reverse=True):
            piv = self.pivots[lead]
            for other_lead, other in self.pivots.items():
                if other_lead >= lead or lead not in other:
                    continue
                factor = other[lead]
                for c, v in piv.items():
                    if c in other:
                        nv = other[c] - factor * v
                        if nv:
                            other[c] = nv
                        else:
                            del other[c]
                    else:
                        other[c] = -factor * v

    def solution(self, ncols):
        """Particular solution with all free variables set to zero.

        Requires rhs tracking.  Call after feeding all rows; raises
        Inconsistent from add_row, never here.
        """
        if not self.track_rhs:
            raise ValueError("echelon built without rhs tracking")
        sol = [Fraction(0)] * ncols
        # back-substitution in decreasing pivot order; free variables are
        # zero, so only later pivot columns contribute.
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            sol[lead] = row.get(_RHS, Fraction(0)) - sum(
                v * sol[c] for c, v in row.items() if c > lead and sol[c])
        return sol

    def nullspace(self, ncols):
        """Basis of the solution space of the homogeneous system.

        One basis vector per free column, deterministic order (increasing free
        column), with the free variable set to 1.
        """
        self.back_substitute()
        free = [c for c in range(ncols) if c not in self.pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for lead, row in self.pivots.items():
                v = row.get(fc)
                if v:
                    vec[lead] = -v
            basis.append(vec)
        return basis


def rank_of(rows):
    """Rank of an iterable of sparse rows."""
    ech = Echelon()
    for row in rows:
        ech.add_row(row)
    return ech.rank


def solve_sparse(rows, rhs_values, ncols):
    """Solve A x = b for one particular exact solution, or None.

    ``rows`` and ``rhs_values`` are parallel sequences.  Free variables are
    zero, which makes the answer the minimal one in the sense that every
    non-pivot coordinate (in increasing column order) vanishes.
    """
    ech = Echelon(track_rhs=True)
    try:
        for row, rhs in zip(rows, rhs_values):
            ech.add_row(row, rhs)
    except Inconsistent:
        return None
    return ech.solution(ncols)


def nullspace_sparse(rows, ncols):
    """Basis of the right nullspace of the matrix given by sparse rows."""
    ech = Echelon()
    for row in rows:
        ech.add_row(row)
    return ech.nullspace(ncols)
