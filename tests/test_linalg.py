"""Exact elimination engine: rank, solve, nullspace."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfbench.linalg import (_RHS, Echelon, Inconsistent, _eliminate,
                             _primitive, nullspace_sparse, rank_of,
                             solve_sparse)


def dense_to_rows(mat):
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in mat]


def as_fractions(result):
    """A read-out (den, {column: int}) as the {column: Fraction} map it
    stands for; den is a positive int, every entry a nonzero int, and the
    pair is in lowest terms."""
    den, ints = result
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in ints.values())
    assert math.gcd(den, *ints.values()) == 1
    return {c: Fraction(v, den) for c, v in ints.items()}


def test_rank_matches_numpy_on_random_integer_matrices():
    rng = random.Random(100)
    for _ in range(50):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        want = np.linalg.matrix_rank(np.array(mat, dtype=float))
        assert rank_of(dense_to_rows(mat)) == want


def test_solve_consistent_system():
    rng = random.Random(101)
    for _ in range(50):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(Fraction(mat[i][j]) * x[j] for j in range(n)) for i in range(m)]
        sol = solve_sparse(dense_to_rows(mat), b)
        assert sol is not None
        sol = as_fractions(sol)
        for i in range(m):
            assert sum(Fraction(mat[i][j]) * sol.get(j, 0)
                       for j in range(n)) == b[i]


def test_solve_detects_inconsistency():
    rows = dense_to_rows([[1, 1], [2, 2]])
    assert solve_sparse(rows, [Fraction(1), Fraction(3)]) is None


def test_inconsistency_raised_incrementally():
    ech = Echelon()
    ech.add_row({0: Fraction(1)}, Fraction(2))
    with pytest.raises(Inconsistent):
        ech.add_row({0: Fraction(2)}, Fraction(5))


def test_nullspace_annihilates_and_has_right_dimension():
    rng = random.Random(102)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(2, 8)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rows = dense_to_rows(mat)
        basis = [as_fractions(v) for v in nullspace_sparse(rows, n)]
        assert len(basis) == n - rank_of(dense_to_rows(mat))
        for vec in basis:
            for row in mat:
                assert sum(Fraction(a) * vec.get(j, 0)
                           for j, a in enumerate(row)) == 0
        # basis vectors are independent: each has a 1 in a distinct free column
        assert rank_of(basis) == len(basis)


def test_free_variables_are_zero_in_particular_solution():
    # x + y = 2 with free y: solution must be (2, 0)
    sol = solve_sparse([{0: Fraction(1), 1: Fraction(1)}], [Fraction(2)])
    assert as_fractions(sol) == {0: Fraction(2)}
    # the random consistent systems: back-substitution is zero off the
    # pivots and agrees with the read-out of the reduced row echelon form
    rng = random.Random(101)
    for _ in range(50):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(Fraction(mat[i][j]) * x[j] for j in range(n)) for i in range(m)]
        ech = Echelon()
        for row, rhs in zip(dense_to_rows(mat), b):
            ech.add_row(row, rhs)
        sol = as_fractions(ech.solutions()[0])
        assert all(sol.get(c, 0) == 0 for c in range(n) if c not in ech.pivots)
        ech.back_substitute()
        rref = [Fraction(0)] * n
        for lead, row in ech.pivots.items():
            rref[lead] = Fraction(row.get(_RHS, 0), row[lead])
        assert [sol.get(c, 0) for c in range(n)] == rref


# ---------------------------------------------------------------------------
# rational input: rows scaled by rationals, entries a mix of int and Fraction
# ---------------------------------------------------------------------------

def scaled_rows(rng, mat):
    """Each row of the integer matrix times a random nonzero rational; an
    entry that comes out integral is fed as an ``int`` half the time."""
    rows = []
    for row in mat:
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(1, 12))
        out = {}
        for j, v in enumerate(row):
            if v:
                q = scale * v
                out[j] = int(q) if q.denominator == 1 and rng.random() < 0.5 \
                    else q
        rows.append(out)
    return rows


def random_matrix(rng, m, n):
    return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]


def assert_primitive_integer_pivots(ech):
    for lead, row in ech.pivots.items():
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == lead and row[lead] > 0
        assert math.gcd(*row.values()) == 1


def test_rank_of_rational_rows_matches_numpy():
    rng = random.Random(103)
    for _ in range(50):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mat = random_matrix(rng, m, n)
        want = np.linalg.matrix_rank(np.array(mat, dtype=float))
        assert rank_of(scaled_rows(rng, mat)) == want


def test_solve_rational_rows_exact_and_zero_off_pivots():
    rng = random.Random(104)
    for _ in range(50):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = scaled_rows(rng, random_matrix(rng, m, n))
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        b = [sum(v * x[j] for j, v in row.items()) for row in rows]
        b = [int(v) if v.denominator == 1 and rng.random() < 0.5 else v
             for v in map(Fraction, b)]
        raw = solve_sparse(rows, b)
        assert raw is not None
        sol = as_fractions(raw)
        for row, rhs in zip(rows, b):
            assert sum(v * sol.get(j, 0) for j, v in row.items()) == rhs
        ech = Echelon()
        for row, rhs in zip(rows, b):
            ech.add_row(row, rhs)
        assert ech.solutions() == [raw]
        assert all(sol.get(c, 0) == 0 for c in range(n) if c not in ech.pivots)


def test_nullspace_of_rational_rows_annihilates():
    rng = random.Random(105)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(2, 8)
        mat = random_matrix(rng, m, n)
        rows = scaled_rows(rng, mat)
        basis = [as_fractions(v) for v in nullspace_sparse(rows, n)]
        rank = np.linalg.matrix_rank(np.array(mat, dtype=float))
        assert len(basis) == n - rank
        for vec in basis:
            for row in rows:
                assert sum(v * vec.get(j, 0) for j, v in row.items()) == 0


def test_inconsistency_with_rational_rhs():
    # x + y/2 = 1/3 and 2x + y = 3/4 contradict each other
    rows = [{0: 1, 1: Fraction(1, 2)}, {0: Fraction(2), 1: 1}]
    assert solve_sparse(rows, [Fraction(1, 3), Fraction(3, 4)]) is None
    ech = Echelon()
    ech.add_row(rows[0], Fraction(1, 3))
    with pytest.raises(Inconsistent):
        ech.add_row(rows[1], Fraction(3, 4))
    # the consistent right-hand side 2/3 is accepted
    assert ech.add_row(rows[1], Fraction(2, 3)) is False


def test_pivot_rows_are_primitive_integer_dicts():
    rng = random.Random(106)
    for _ in range(50):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = scaled_rows(rng, random_matrix(rng, m, n))
        for with_rhs in (False, True):
            ech = Echelon()
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                 for _ in range(n)]
            for row in rows:
                ech.add_row(row, sum(v * x[j] for j, v in row.items())
                            if with_rhs else None)
                assert_primitive_integer_pivots(ech)


# ---------------------------------------------------------------------------
# sparse read-out against a dense reference
# ---------------------------------------------------------------------------

def dense_rref(rows, b, n):
    """Reduced row echelon form of [A | b] by dense ``Fraction``
    Gauss-Jordan elimination: (pivot columns, reduced rows of length n + 1),
    or None when some row reduces to 0 = nonzero."""
    mat = [[Fraction(row.get(j, 0)) for j in range(n)] + [Fraction(rhs)]
           for row, rhs in zip(rows, b)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [v - f * p for v, p in zip(mat[i], mat[r])]
        pivots.append(col)
    if any(row[n] for row in mat[len(pivots):]):
        return None
    return pivots, mat[:len(pivots)]


def test_sparse_read_out_matches_dense_gauss_jordan():
    rng = random.Random(107)
    for _ in range(80):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mat = random_matrix(rng, m, n)
        for _ in range(rng.randint(0, 2)):     # force rank deficiency
            mat.append(list(mat[rng.randrange(len(mat))]))
        rows = scaled_rows(rng, mat)
        if rng.random() < 0.5:
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                 for _ in range(n)]
            b = [sum(v * x[j] for j, v in row.items()) for row in rows]
        else:
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows]
        ref = dense_rref(rows, b, n)
        sol = solve_sparse(rows, b)
        if ref is None:
            assert sol is None
            continue
        pivots, rref = ref
        free = set(range(n)) - set(pivots)
        want = {c: row[n] for c, row in zip(pivots, rref) if row[n]}
        sol = as_fractions(sol)
        assert sol == want
        assert all(v != 0 for v in sol.values())
        assert not free & set(sol)
        # an all-zero right-hand side is feasible with the zero answer
        assert solve_sparse(rows, [0] * len(rows)) == (1, {})
        raw = nullspace_sparse(rows, n)
        basis = [as_fractions(v) for v in raw]
        assert len(basis) == len(free)
        for f, vec in zip(sorted(free), basis):
            assert vec[f] == 1 and free & set(vec) == {f}
            assert all(v != 0 for v in vec.values())
            assert vec == {f: 1, **{c: -row[f] for c, row in zip(pivots, rref)
                                    if row[f]}}
        # right-hand sides fed along do not change the nullspace
        ech = Echelon()
        for row, rhs in zip(rows, b):
            ech.add_row(row, rhs)
        assert ech.nullspace(n) == raw


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rational_systems(draw):
    """(rows, b, n): a random rational system, consistent (b = A x),
    arbitrary (mostly inconsistent once m exceeds the rank) or rank-deficient
    (a row repeated as a rational combination of two others), with entries
    fed as ``int`` or ``Fraction``."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), rationals)
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                        min_size=m, max_size=m))
    kind = draw(st.sampled_from(["consistent", "arbitrary", "deficient"]))
    if kind == "deficient":
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a, c = draw(rationals), draw(rationals)
        mat.append([a * u + c * v for u, v in zip(mat[i], mat[j])])
    if kind == "arbitrary":
        b = draw(st.lists(rationals, min_size=len(mat), max_size=len(mat)))
    else:
        x = draw(st.lists(rationals, min_size=n, max_size=n))
        b = [sum(Fraction(v) * y for v, y in zip(row, x)) for row in mat]
    return [{j: v for j, v in enumerate(row) if v} for row in mat], b, n


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_integer_read_out_equals_rational_gauss_jordan(system):
    """(den, ints) read-outs are exactly the dense Fraction Gauss-Jordan
    answer with free variables zero, and its nullspace basis: den > 0, and
    each nullspace vector carries den at its free column."""
    rows, b, n = system
    ref = dense_rref(rows, b, n)
    sol = solve_sparse(rows, b)
    if ref is None:
        assert sol is None
        return
    pivots, rref = ref
    assert as_fractions(sol) == {c: row[n] for c, row in zip(pivots, rref)
                                 if row[n]}
    free = sorted(set(range(n)) - set(pivots))
    basis = nullspace_sparse(rows, n)
    assert len(basis) == len(free)
    for f, (den, ints) in zip(free, basis):
        assert ints[f] == den
        assert as_fractions((den, ints)) == {
            f: 1, **{c: -row[f] for c, row in zip(pivots, rref) if row[f]}}


def all_pairs_back_substitute(pivots):
    """Back-substitution as first written: for each lead, in decreasing
    order, every other pivot row is scanned for it."""
    for lead in sorted(pivots, reverse=True):
        piv = pivots[lead] = _primitive(pivots[lead], lead)
        for other_lead, other in pivots.items():
            if other_lead < lead and lead in other:
                _eliminate(other, piv, lead)


@st.composite
def deficient_systems(draw):
    """(rows, b): m rows that are integer combinations of r < min(m, n)
    random rational rows, with right-hand sides b = A x, so every row is
    fed and some reduce to nothing."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, 10))
    r = draw(st.integers(1, min(m, n) - 1))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), rationals)
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=r, max_size=r))
    weights = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r,
                                     max_size=r), min_size=m, max_size=m))
    mat = [[sum(w * row[j] for w, row in zip(ws, base)) for j in range(n)]
           for ws in weights]
    x = draw(st.lists(rationals, min_size=n, max_size=n))
    b = [sum(Fraction(v) * y for v, y in zip(row, x)) for row in mat]
    return [{j: v for j, v in enumerate(row) if v} for row in mat], b


@settings(max_examples=200, deadline=None)
@given(deficient_systems())
def test_back_substitute_matches_the_all_pairs_loop(system):
    """Clearing each lead from only the rows that hold it gives the pivot
    rows, entry order included, that scanning every row for it gives."""
    rows, b = system
    ech = Echelon()
    for row, rhs in zip(rows, b):
        ech.add_row(row, rhs)
    assert ech.rank < len(rows)
    want = {lead: dict(row) for lead, row in ech.pivots.items()}
    all_pairs_back_substitute(want)
    ech.back_substitute()
    assert list(ech.pivots) == list(want)
    for lead, row in ech.pivots.items():
        assert list(row.items()) == list(want[lead].items())


def add_row_as_first_written(ech, row, rhs=None):
    """Echelon.add_row with the copy, the zero drop and the type test as
    first written, one Python-level pass each."""
    work = {c: v for c, v in row.items() if v}
    if rhs:
        work[_RHS] = rhs
    if any(type(v) is not int for v in work.values()):
        den = math.lcm(*(v.denominator for v in work.values()))
        work = {c: v.numerator * (den // v.denominator)
                for c, v in work.items()}
    lead = ech._reduce(work)
    if lead is None:
        return False
    if lead == _RHS:
        raise Inconsistent("0 = nonzero after reduction")
    ech.pivots[lead] = _primitive(work, lead)
    return True


def feed(add, rows, echelon=Echelon):
    """What each fed row returns or raises, and the pivot rows after."""
    ech = echelon()
    out = []
    for row, rhs in rows:
        before = dict(row)
        try:
            out.append(add(ech, row, rhs))
        except Inconsistent:
            out.append(Inconsistent)
        assert row == before and list(row.items()) == list(before.items())
    return out, [(lead, list(row.items()))
                 for lead, row in ech.pivots.items()]


mixed_entries = st.one_of(st.just(0), st.just(Fraction(0)),
                          st.integers(-3, 3), rationals)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.dictionaries(st.integers(0, 6), mixed_entries, max_size=6),
    st.one_of(st.none(), st.just(0), st.just(Fraction(0)),
              st.integers(-3, 3), rationals)), max_size=8))
def test_add_row_feeds_as_first_written(rows):
    """Rows of int, Fraction and zero entries, with or without a
    right-hand side: each returns or raises what it did, the pivot rows
    are the same, entry order included, and the fed row is left as it
    was."""
    assert feed(Echelon.add_row, rows) == feed(add_row_as_first_written, rows)


class MinEchelon(Echelon):
    """Echelon with ``_reduce`` as first written: ``min(row)`` rescans the
    whole working row after every elimination."""

    def _reduce(self, row):
        pivots = self.pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                return lead
            _eliminate(row, piv, lead)
        return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.dictionaries(st.integers(0, 9), mixed_entries, max_size=8),
    st.one_of(st.none(), st.integers(-3, 3), rationals)), max_size=14))
def test_heap_leads_reduce_as_min_rescans(rows):
    """Taking the leads after the first from a heap of the row's columns
    feeds every row as min(row) does: the same returns and the same
    Inconsistent, and the same pivot rows, entry order included."""
    assert feed(Echelon.add_row, rows) == \
        feed(Echelon.add_row, rows, MinEchelon)


@settings(max_examples=300, deadline=None)
@given(rational_systems(), st.randoms(use_true_random=False))
def test_read_outs_do_not_depend_on_the_row_order(system, rng):
    """The pivot set depends on the row space alone, right-hand side
    included: permuting the rows, each with its right-hand side, leaves the
    solution, the infeasible verdict and the nullspace basis unchanged."""
    rows, b, n = system
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = [rows[i] for i in order]
    assert solve_sparse(shuffled, [b[i] for i in order]) == \
        solve_sparse(rows, b)
    assert nullspace_sparse(shuffled, n) == nullspace_sparse(rows, n)


@st.composite
def multi_rhs_systems(draw):
    """(rows, [b_0, ..., b_{r-1}], n): a random rational system with r
    right-hand sides, each consistent (b = A x) or arbitrary."""
    rows, b, n = draw(rational_systems())
    sides = [b]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = draw(st.lists(rationals, min_size=n, max_size=n))
            sides.append([sum(Fraction(v) * x[j] for j, v in row.items())
                          for row in rows])
        else:
            sides.append(draw(st.lists(rationals, min_size=len(rows),
                                       max_size=len(rows))))
    return rows, draw(st.permutations(sides)), n


@settings(max_examples=300, deadline=None)
@given(multi_rhs_systems(), st.integers(0, 5))
def test_multi_rhs_read_outs_are_the_single_rhs_solves(system, gap):
    """One feed with r right-hand sides under pseudo-columns after every
    real column gives, for each b_s, the read-out of its own single-rhs
    solve; when any b_s is inconsistent it gives None.  A row whose
    right-hand sides are all 0 may be fed with None."""
    rows, sides, n = system
    r = len(sides)
    values = [tuple(b[i] for b in sides) for i in range(len(rows))]
    values = [None if not any(v) else v for v in values]
    singles = [solve_sparse(rows, b) for b in sides]
    got = solve_sparse(rows, values, range(n + gap, n + gap + r))
    if None in singles:
        assert got is None
    else:
        assert got == singles


@settings(max_examples=300, deadline=None)
@given(multi_rhs_systems())
def test_read_outs_are_stable(system):
    """The read-outs come from the fully reduced rows, and reading them
    changes nothing: the solutions read twice, with the nullspace read in
    between, are equal, and a second back-substitution leaves every pivot
    row as it was, entry order included."""
    rows, sides, n = system
    ech = Echelon(range(n, n + len(sides)))
    try:
        for i, row in enumerate(rows):
            ech.add_row(row, tuple(b[i] for b in sides))
    except Inconsistent:
        return

    def read(reads):
        return [(den, list(ints.items())) for den, ints in reads]

    first = read(ech.solutions())
    basis = read(ech.nullspace(n))
    assert read(ech.solutions()) == first
    assert read(ech.nullspace(n)) == basis
    reduced = [(lead, list(row.items())) for lead, row in ech.pivots.items()]
    ech.back_substitute()
    assert [(lead, list(row.items()))
            for lead, row in ech.pivots.items()] == reduced


def test_multi_rhs_inconsistency_in_one_side_is_none():
    # x + y = 1, 2x + 2y = 2 is consistent; with 3 instead of 2 it is not
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    assert solve_sparse(rows, [(1, 1), (2, 2)], range(2, 4)) == \
        [(1, {0: 1}), (1, {0: 1})]
    for values in ([(1, 1), (3, 2)], [(1, 1), (2, 3)]):
        assert solve_sparse(rows, values, range(2, 4)) is None
    ech = Echelon(range(2, 4))
    ech.add_row(rows[0], (1, 1))
    with pytest.raises(Inconsistent):
        ech.add_row(rows[1], (2, 3))
