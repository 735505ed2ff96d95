"""Algebra-level oracles: frozen unit products, division-algebra laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfbench.hypercomplex import (
    ALGEBRAS,
    DIM,
    MUL_TABLE,
    OCT_DBAR_MATRIX,
    AlgebraMismatch,
    HNumber,
)


def rand_hnumber(rng, algebra, span=9):
    return HNumber(
        algebra,
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(DIM[algebra])],
    )


# ---------------------------------------------------------------------------
# frozen golden products
# ---------------------------------------------------------------------------

def test_quaternion_ij_is_k():
    i = HNumber.unit("H", 1)
    j = HNumber.unit("H", 2)
    k = HNumber.unit("H", 3)
    assert i * j == k
    assert j * i == -k


def test_octonion_imaginary_unit_squares_to_minus_one():
    for alpha in range(1, 8):
        u = HNumber.unit("O", alpha)
        assert u * u == -HNumber.one("O")


def test_octonion_nonassociativity_witness():
    # Golden values extracted by hand from the realified operator matrix
    # before this module was written: the two bracketings differ in sign.
    i1, i2, i4, i7 = (HNumber.unit("O", a) for a in (1, 2, 4, 7))
    left = (i1 * i2) * i4
    right = i1 * (i2 * i4)
    assert left == i7
    assert right == -i7
    assert left == -right


def test_unit_product_table_lookup():
    assert MUL_TABLE["H"][1][2] == (3, 1)
    assert MUL_TABLE["O"][2][5] == (7, 1)   # oriented triple (2,5,7)
    assert MUL_TABLE["O"][5][2] == (7, -1)


def test_conj_and_norm_golden():
    one_plus_i = HNumber("H", (1, 1, 0, 0))
    assert one_plus_i.conj() == HNumber("H", (1, -1, 0, 0))
    assert HNumber("H", (1, 1, 1, 1)).norm_sq() == 4


def test_octonion_matrix_defines_total_product():
    # every (alpha, beta) pair appears exactly once in the derived table
    table = MUL_TABLE["O"]
    assert len(table) == 8 and all(len(row) == 8 for row in table)
    seen = set()
    for gamma, row in enumerate(OCT_DBAR_MATRIX):
        for beta, (sign, alpha) in enumerate(row):
            assert sign in (1, -1)
            seen.add((alpha, beta))
    assert len(seen) == 64


def test_quaternion_table_is_octonion_restriction():
    # the classical table, from literals: (gamma, sign) of i_a * i_b
    one, i, j, k = range(4)
    want = {}
    for x in (one, i, j, k):
        want[one, x] = want[x, one] = (x, 1)     # 1 is the identity
    for x in (i, j, k):
        want[x, x] = (one, -1)                   # i^2 = j^2 = k^2 = -1
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        want[x, y] = (z, 1)                      # ij = k, jk = i, ki = j
        want[y, x] = (z, -1)                     # ... and they anticommute
    assert len(want) == 16
    for (a, b), entry in want.items():
        assert MUL_TABLE["H"][a][b] == entry
    assert [len(row) for row in MUL_TABLE["H"]] == [4] * 4


# ---------------------------------------------------------------------------
# division-algebra laws on bulk random samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_norm_multiplicativity_bulk(algebra):
    rng = random.Random(20240501)
    for _ in range(10_000):
        a = rand_hnumber(rng, algebra, span=5)
        b = rand_hnumber(rng, algebra, span=5)
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def test_quaternion_associativity_bulk():
    rng = random.Random(20240502)
    for _ in range(10_000):
        a = rand_hnumber(rng, "H", span=4)
        b = rand_hnumber(rng, "H", span=4)
        c = rand_hnumber(rng, "H", span=4)
        assert (a * b) * c == a * (b * c)


def test_octonion_alternativity_bulk():
    rng = random.Random(20240503)
    for _ in range(10_000):
        a = rand_hnumber(rng, "O", span=4)
        b = rand_hnumber(rng, "O", span=4)
        assert (a * a) * b == a * (a * b)
        assert (b * a) * a == b * (a * a)


def test_octonion_linearized_alternativity_units():
    # i_alpha (i_beta w) + i_beta (i_alpha w) == 0 for distinct imaginary units;
    # this is what makes the second-order operator calculus work.
    rng = random.Random(20240504)
    for alpha in range(1, 8):
        for beta in range(1, 8):
            if alpha == beta:
                continue
            w = rand_hnumber(rng, "O")
            ia, ib = HNumber.unit("O", alpha), HNumber.unit("O", beta)
            assert ia * (ib * w) + ib * (ia * w) == HNumber.zero("O")


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_conjugation_is_antiautomorphism(algebra):
    rng = random.Random(20240505)
    for _ in range(2_000):
        a = rand_hnumber(rng, algebra, span=5)
        b = rand_hnumber(rng, algebra, span=5)
        assert (a * b).conj() == b.conj() * a.conj()


small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@given(st.lists(small_fracs, min_size=8, max_size=8),
       st.lists(small_fracs, min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_norm_multiplicativity_hypothesis(ca, cb):
    a = HNumber("O", ca)
    b = HNumber("O", cb)
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@given(st.lists(small_fracs, min_size=4, max_size=4),
       st.lists(small_fracs, min_size=4, max_size=4),
       st.lists(small_fracs, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_quaternion_associativity_hypothesis(ca, cb, cc):
    a, b, c = HNumber("H", ca), HNumber("H", cb), HNumber("H", cc)
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# exact products against plain Fraction sums
# ---------------------------------------------------------------------------

def product_by_table(a, b):
    """Components of a * b as plain Fraction sums over MUL_TABLE."""
    acc = [Fraction(0)] * DIM[a.algebra]
    for alpha, x in enumerate(a.coeffs):
        for beta, y in enumerate(b.coeffs):
            gamma, sign = MUL_TABLE[a.algebra][alpha][beta]
            acc[gamma] += sign * x * y
    return acc


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_product_matches_fraction_reference(algebra):
    rng = random.Random(20240508)
    d = DIM[algebra]
    samples = []
    for _ in range(300):
        samples.append(rand_hnumber(rng, algebra, span=9))
        # integral components, small ones and ones whose products leave the
        # small-integer range
        samples.append(HNumber(algebra, [rng.randint(-3, 3) for _ in range(d)]))
        samples.append(HNumber(algebra, [rng.randint(-3000, 3000)
                                         for _ in range(d)]))
    samples.append(HNumber.zero(algebra))
    for a, b in zip(samples, reversed(samples)):
        got = a * b
        want = product_by_table(a, b)
        assert list(got.coeffs) == want
        assert all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_arithmetic_results_keep_fraction_components(algebra):
    rng = random.Random(20240509)
    for _ in range(100):
        a = rand_hnumber(rng, algebra)
        b = rand_hnumber(rng, algebra)
        for r in (a + b, a - b, -a, a * b, a.scale(3), a.scale(Fraction(2, 7)),
                  a.conj(), 5 * a):
            assert r.backend == "exact"
            assert len(r.coeffs) == DIM[algebra]
            assert all(type(c) is Fraction for c in r.coeffs)


# ---------------------------------------------------------------------------
# error handling and serialization
# ---------------------------------------------------------------------------

def test_mixed_algebra_raises():
    with pytest.raises(AlgebraMismatch):
        HNumber.one("H") * HNumber.one("O")


def test_mixed_backend_raises():
    with pytest.raises(AlgebraMismatch):
        HNumber.one("H") * HNumber.one("H", backend="float")
    exact, flt = HNumber.one("O"), HNumber.one("O", backend="float")
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(AlgebraMismatch):
            op(exact, flt)
        with pytest.raises(AlgebraMismatch):
            op(flt, exact)


def test_public_constructor_still_validates():
    with pytest.raises(TypeError):
        HNumber("H", (0.5, 0, 0, 0))
    with pytest.raises(ValueError):
        HNumber("H", (1, 0, 0))
    with pytest.raises(ValueError):
        HNumber("O", (1, 0, 0, 0))
    with pytest.raises(ValueError):
        HNumber("X", (1, 0, 0, 0))
    with pytest.raises(ValueError):
        HNumber("H", (1, 0, 0, 0), backend="decimal")
    # a float scalar cannot slip into the exact backend through scale
    with pytest.raises(TypeError):
        HNumber.one("H").scale(0.5)


def test_json_roundtrip_exact():
    a = HNumber("O", [Fraction(3, 7), -2, 0, 1, 0, 0, Fraction(-5, 2), 0])
    blob = {"algebra": "O", "c": ["3/7", "-2", "0", "1", "0", "0", "-5/2", "0"]}
    assert HNumber.from_json(blob) == a


def test_json_roundtrip_float():
    a = HNumber("H", (0.5, -1.25, 0.0, 3.0), backend="float")
    b = HNumber.from_json({"algebra": "H", "c": [0.5, -1.25, 0.0, 3.0]})
    assert b.backend == "float"
    assert b == a


def test_float_backend_mul_matches_exact():
    rng = random.Random(20240507)
    for _ in range(200):
        a = rand_hnumber(rng, "O", span=3)
        b = rand_hnumber(rng, "O", span=3)
        cf = (a.to_float() * b.to_float()).coeffs
        ce = (a * b).coeffs
        for x, y in zip(cf, ce):
            assert abs(x - float(y)) < 1e-12
