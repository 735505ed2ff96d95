"""Syzygy module: matrix realification, compat rows, graded dimensions."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from crfbench import hypercomplex, syzygy
from crfbench.crfsolve import _pack, _unpack, regular_kernel_basis
from crfbench.hypercomplex import DIM, MUL_TABLE, OCT_DBAR_MATRIX, HNumber
from crfbench.linalg import BudgetExceeded, Echelon, rank_of
from crfbench.polycalc import HPoly, compat_pbar, dbar_system, monomials
from crfbench.syzygy import (
    OperatorPoly,
    all_compat_rows,
    build_dbar_matrix,
    compat_rows_rank,
    compat_syzygy_rows,
    independence_witness,
    syzygy_dim,
    verify_syzygy,
)

from oracles import (CLASS_REFUSAL, FLIPPED, _assemble, dbar_images,
                     with_index_rule_broken, with_sign_flipped)


def laplace_operator(algebra, n, h):
    """The Laplacian of variable h as an OperatorPoly."""
    d = DIM[algebra]
    nsyms = d * n
    return OperatorPoly(nsyms, {
        tuple(2 if i == d * h + alpha else 0 for i in range(nsyms)): 1
        for alpha in range(d)})


def rand_poly(rng, algebra, n, max_deg, n_terms):
    d = DIM[algebra]
    terms = {}
    for _ in range(n_terms):
        exp = [0] * (d * n)
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(d * n)] += 1
        terms[tuple(exp)] = HNumber(
            algebra, [Fraction(rng.randint(-3, 3)) for _ in range(d)])
    return HPoly(algebra, n, terms)


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

def test_octonion_matrix_realifies_entry_for_entry():
    m = build_dbar_matrix("O", 1)
    for gamma in range(8):
        for beta in range(8):
            sign, alpha = OCT_DBAR_MATRIX[gamma][beta]
            assert m[gamma][beta] == OperatorPoly.symbol(8, alpha, sign)


def test_octonion_two_variable_blocks():
    m = build_dbar_matrix("O", 2)
    assert len(m) == 16 and all(len(r) == 8 for r in m)
    for gamma in range(8):
        for beta in range(8):
            sign, alpha = OCT_DBAR_MATRIX[gamma][beta]
            assert m[gamma][beta] == OperatorPoly.symbol(16, alpha, sign)
            assert m[8 + gamma][beta] == OperatorPoly.symbol(16, 8 + alpha, sign)


def test_quaternion_matrix_top_row():
    # realification of sum_a i_a d_a: first row is (d0, -d1, -d2, -d3)
    m = build_dbar_matrix("H", 1)
    assert m[0][0] == OperatorPoly.symbol(4, 0, 1)
    for beta in range(1, 4):
        assert m[0][beta] == OperatorPoly.symbol(4, beta, -1)


def test_matrix_row_against_polycalc():
    # row (h, gamma) applied to the component stack of u equals
    # component gamma of dbar_h u
    rng = random.Random(200)
    for algebra in ("H", "O"):
        d = DIM[algebra]
        m = build_dbar_matrix(algebra, 2)
        var_of_sym = list(range(2 * d))
        for _ in range(5):
            u = rand_poly(rng, algebra, 2, 3, 4)
            comps = [u.component(beta) for beta in range(d)]
            g = dbar_system(u)
            for h in range(2):
                for gamma in range(d):
                    acc = HPoly.zero(algebra, 2)
                    for beta in range(d):
                        acc = acc + m[d * h + gamma][beta].apply(
                            comps[beta], var_of_sym)
                    assert acc == g[h].component(gamma)


# ---------------------------------------------------------------------------
# compat rows are syzygies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algebra,n,count", [("H", 2, 8), ("O", 2, 16), ("O", 3, 48),
                                             ("H", 3, 24)])
def test_compat_rows_verify_exactly(algebra, n, count):
    m = build_dbar_matrix(algebra, n)
    rows = all_compat_rows(algebra, n)
    assert len(rows) == count
    for row in rows:
        assert verify_syzygy(row, m)


def test_compat_rows_homogeneous_degree_two():
    for algebra, n in (("H", 2), ("H", 3), ("O", 2), ("O", 3)):
        for row in all_compat_rows(algebra, n):
            assert len(row) == n * DIM[algebra]
            for entry in row:
                assert entry.nsyms == n * DIM[algebra]
                assert {sum(e) for e in entry.terms} <= {2}


def test_perturbed_row_fails_verification():
    m = build_dbar_matrix("O", 2)
    row = all_compat_rows("O", 2)[0]
    bad = list(row)
    bad[3] = bad[3] + laplace_operator("O", 2, 0)
    assert not verify_syzygy(bad, m)


def test_row_matches_compat_residual_on_random_g():
    # applying the row to an arbitrary g-stack reproduces the residual
    # component from the polynomial calculus; compat_pbar lists the ordered
    # pairs (l, m) lexicographically
    rng = random.Random(201)
    for algebra, n in (("H", 2), ("O", 2), ("O", 3)):
        d = DIM[algebra]
        var_of_sym = list(range(n * d))
        g = [rand_poly(rng, algebra, n, 3, 3) for _ in range(n)]
        res = compat_pbar(g)
        comps = []
        for gh in g:
            comps.extend(gh.component(beta) for beta in range(d))
        pairs = [(l, mm) for l in range(n) for mm in range(n) if l != mm]
        assert len(res) == len(pairs)
        for idx, (l, mm) in enumerate(pairs):
            rows = compat_syzygy_rows(l, mm, algebra, n)
            for gamma in range(d):
                acc = HPoly.zero(algebra, n)
                for j in range(n * d):
                    if not rows[gamma][j].is_zero():
                        acc = acc + rows[gamma][j].apply(comps[j], var_of_sym)
                assert acc == res[idx].component(gamma)


# ---------------------------------------------------------------------------
# graded dimensions (frozen goldens)
# ---------------------------------------------------------------------------

def test_no_constant_syzygies_brute_force():
    # independent oracle: the 16 constant rows of the n=2 octonionic matrix,
    # flattened over (column, symbol), have full rank 16 over the rationals
    m = build_dbar_matrix("O", 2)
    flat = np.zeros((16, 8 * 16))
    for j in range(16):
        for beta in range(8):
            for exp, c in m[j][beta].terms.items():
                s = next(i for i, e in enumerate(exp) if e)
                flat[j, beta * 16 + s] = float(c)
    assert np.linalg.matrix_rank(flat) == 16
    assert syzygy_dim("O", 2, 0) == 0


def test_syzygy_dims_octonion_n2():
    assert syzygy_dim("O", 2, 0) == 0
    assert syzygy_dim("O", 2, 1) == 0
    assert syzygy_dim("O", 2, 2) == 16


def test_syzygy_dims_quaternion_n2():
    assert syzygy_dim("H", 2, 0) == 0
    assert syzygy_dim("H", 2, 1) == 0
    assert syzygy_dim("H", 2, 2) == 8
    assert compat_rows_rank("H", 2) == 8


@pytest.mark.parametrize("algebra,n,top",
                         [("H", 1, 3), ("O", 1, 1), ("H", 2, 2), ("O", 2, 0),
                          ("O", 3, 2), ("H", 4, 2), ("O", 4, 1)])
def test_syzygy_dims_match_the_kernel_count(algebra, n, top):
    """Independent count: the syzygies of degree k are the unknowns minus the
    rank of dbar on degree k + 1, whose nullity is the regular kernel that
    ``regular_kernel_basis`` finds (and checks through ``fueter_dbar``).
    (H, 4, 2) and (O, 4, 1) reach n > k + 1, where syzygy_dim ranks its
    blocks in fewer variables than the system has."""
    d = DIM[algebra]
    big_n = n * d
    sizes = [len(regular_kernel_basis(algebra, n, k)) for k in range(top + 2)]
    for k in range(top + 1):
        kernel = sizes[k + 1] - sizes[k]
        assert syzygy_dim(algebra, n, k) == (
            n * d * comb(big_n + k - 1, k) - d * comb(big_n + k, k + 1)
            + kernel)


@pytest.mark.parametrize("algebra,c", [("H", 4), ("O", 2)])
@pytest.mark.parametrize("n", range(1, 9))
def test_degree_two_dimension_is_the_block_count(algebra, n, c):
    """A degree-2 block lies on at most 3 variables: each pair of variables
    carries 2d syzygies and each triple's (1, 1, 1) block c_A d more, so
    the dimension is d (2 C(n, 2) + c_A C(n, 3)), c_H = 4 and c_O = 2."""
    assert syzygy_dim(algebra, n, 2) == DIM[algebra] * (
        2 * comb(n, 2) + c * comb(n, 3))


def test_quaternion_three_variables_compat_rows_independent():
    # the 24 quaternionic compat rows for n = 3 are independent
    assert compat_rows_rank("H", 3) == 24


def test_compat_rows_span_degree_two_octonion_n2():
    assert compat_rows_rank("O", 2) == 16
    assert syzygy_dim("O", 2, 2) == 16
    # 16 independent syzygies in a 16-dimensional space: they span it


def test_degree_three_dimension_octonion_n2():
    assert syzygy_dim("O", 2, 3) == 248


def test_octonion_three_variables_compat_rows_do_not_span():
    # 48 compat rows, independent, but the degree-2 syzygy space is larger:
    # the compatibility conditions do not generate the syzygies for n = 3.
    assert compat_rows_rank("O", 3) == 48
    assert syzygy_dim("O", 3, 2) == 64


def test_resource_budget_guard():
    with pytest.raises(BudgetExceeded):
        syzygy_dim("O", 3, 3, max_unknowns=10_000)


@pytest.mark.parametrize("n, k", [(0, 1), (-1, 0), (2, -1)])
def test_syzygy_dim_rejects_invalid_sizes(n, k):
    with pytest.raises(ValueError):
        syzygy_dim("H", n, k)


def test_syzygy_dim_rejects_an_unknown_algebra():
    with pytest.raises(ValueError, match="unknown algebra 'X'"):
        syzygy_dim("X", 2, 1)


# ---------------------------------------------------------------------------
# block decomposition of the degree-k system
# ---------------------------------------------------------------------------

def block_key(d, mu, beta):
    """Block of column (mu, beta): the multidegree (deg_0 mu, ..., deg_{n-1}
    mu) and the class beta XOR (XOR of i mod d over the i with mu_i odd).

    Under the index rule i_a i_b = +-i_{a XOR b}, dbar keeps it: an unknown
    (h, nu, gamma) has the key of column (nu + e_{d*h}, gamma).
    """
    return (tuple(sum(mu[i:i + d]) for i in range(0, len(mu), d)),
            beta ^ odd_xor(d, mu))


def odd_xor(d, mu):
    x = 0
    for i, e in enumerate(mu):
        if e & 1:
            x ^= i % d
    return x


def shift_certificate(algebra, c):
    """The signs certifying that class blocks kappa and kappa XOR c of the
    live table have equal rank, or None (``hypercomplex._certificate``)."""
    return hypercomplex._certificate(MUL_TABLE[algebra], c)


def columns(algebra, n, k):
    """Every column (mu, beta) of the degree-k syzygy system."""
    d = DIM[algebra]
    return [(mu, beta) for beta in range(d) for mu in monomials(d * n, k + 1)]


def flat_dim(algebra, n, k):
    """syzygy_dim by one elimination of the whole system."""
    d = DIM[algebra]
    rank = rank_of(dbar_images(algebra, n, columns(algebra, n, k)))
    return n * d * len(monomials(d * n, k)) - rank


@pytest.mark.parametrize("algebra,n,k", [("H", 2, 4), ("H", 3, 3),
                                         ("O", 2, 2), ("O", 3, 2)])
def test_images_keep_their_block_key(algebra, n, k):
    d = DIM[algebra]
    cols = columns(algebra, n, k)
    keys = set()
    for (mu, beta), image in zip(cols, dbar_images(algebra, n, cols)):
        key = block_key(d, mu, beta)
        keys.add(key)
        for h, nu, gamma in image:
            # unknown (h, nu, gamma) carries the key of (nu + e_{d*h}, gamma)
            up = nu[:d * h] + (nu[d * h] + 1,) + nu[d * h + 1:]
            assert block_key(d, up, gamma) == key
    assert len(keys) == d * len(monomials(n, k + 1))


@pytest.mark.parametrize("algebra,n,k", [("H", 2, 3), ("O", 2, 2)])
def test_certified_shifts_map_every_entry(algebra, n, k):
    d = DIM[algebra]
    cols = columns(algebra, n, k)
    images = dict(zip(cols, dbar_images(algebra, n, cols)))
    for c in range(1, d):
        v, eps = shift_certificate(algebra, c)

        def parity(mu):
            return sum(v[i % d] * e for i, e in enumerate(mu)) % 2

        for (mu, beta), image in images.items():
            col_sign = eps[beta] * (-1) ** parity(mu)
            assert images[(mu, beta ^ c)] == {
                (h, nu, gamma ^ c):
                    sign * col_sign * eps[gamma] * (-1) ** (v[0] + parity(nu))
                for (h, nu, gamma), sign in image.items()}


@pytest.mark.parametrize("algebra,n,k", [("H", 2, 3), ("H", 3, 2),
                                         ("O", 2, 2), ("O", 3, 1)])
def test_every_block_has_its_representatives_rank(algebra, n, k):
    d = DIM[algebra]
    blocks = {}
    for mu, beta in columns(algebra, n, k):
        blocks.setdefault(block_key(d, mu, beta), []).append((mu, beta))
    ranks = {key: rank_of(dbar_images(algebra, n, cols))
             for key, cols in blocks.items()}
    for (md, kappa), rank in ranks.items():
        assert rank == ranks[(tuple(sorted(md, reverse=True)), 0)]
    assert syzygy_dim(algebra, n, k) == flat_dim(algebra, n, k) == \
        n * d * len(monomials(d * n, k)) - sum(ranks.values())


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_one_flipped_sign_leaves_no_shift_certified(monkeypatch, algebra):
    d = DIM[algebra]
    table = MUL_TABLE[algebra]
    assert all(shift_certificate(algebra, c) for c in range(1, d))
    for a in range(1, d):
        for b in range(1, d):
            monkeypatch.setitem(MUL_TABLE, algebra,
                                with_sign_flipped(table, a, b))
            assert not any(shift_certificate(algebra, c) for c in range(1, d))


@pytest.mark.parametrize("algebra,a,b", FLIPPED)
def test_corrupted_stencil_ranks_every_class(monkeypatch, algebra, a, b):
    # no shift is certified, so no class may stand for another: refused
    monkeypatch.setitem(MUL_TABLE, algebra,
                        with_sign_flipped(MUL_TABLE[algebra], a, b))
    with pytest.raises(AssertionError, match=CLASS_REFUSAL):
        syzygy_dim(algebra, 2, 2)


def test_table_breaking_the_index_rule_is_refused(monkeypatch):
    """The system has no class blocks: refused before any stencil is built,
    since the stencils read the column of i_alpha i_beta = +-i_gamma as
    beta = alpha XOR gamma; at degree 3 also before the lead search."""
    def unreachable(*args):
        raise RuntimeError("stencil built before the class refusal")

    monkeypatch.setitem(MUL_TABLE, "H",
                        with_index_rule_broken(MUL_TABLE["H"]))
    monkeypatch.setattr(syzygy, "_stencil", unreachable)
    for k in (2, 3):
        with pytest.raises(AssertionError, match=CLASS_REFUSAL):
            syzygy_dim("H", 2, k)


# ---------------------------------------------------------------------------
# independence witness tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_independence_witness_octonion(n):
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            table = independence_witness(a, b, "O", n)
            assert set(table) == {(l, m) for l in range(n) for m in range(n) if l != m}
            for (l, m), residual in table.items():
                if (l, m) == (a, b):
                    assert residual == HPoly.constant("O", n, 2)
                else:
                    assert residual.is_zero()


def test_independence_witness_quaternion_sign():
    table = independence_witness(0, 1, "H", 2)
    assert table[(0, 1)] == HPoly.constant("H", 2, -2)
    assert table[(1, 0)].is_zero()


def test_independence_witness_rejects_equal_indices():
    with pytest.raises(ValueError):
        independence_witness(1, 1, "O", 2)


# ---------------------------------------------------------------------------
# the rows syzygy_dim ranks
# ---------------------------------------------------------------------------

def block_rows(algebra, n, k, block, leads=()):
    """The rows of ``block`` of the degree-k system under the live table,
    in feed order, as ``_rows`` builds them for ``_rank_block``, without
    the multiples of ``leads``."""
    bits = (k + 1).bit_length()
    return [row for _, _, row in syzygy._rows(MUL_TABLE[algebra], n, bits,
                                              block, leads)]


def counting_echelon(made):
    """An Echelon subclass that appends each instance to ``made`` and
    records in its ``grew`` whether each fed row grew the rank."""
    class Counting(Echelon):
        def __init__(self, *args):
            super().__init__(*args)
            self.grew = []
            made.append(self)

        def add_row(self, row, rhs=None):
            grew = super().add_row(row, rhs)
            self.grew.append(grew)
            return grew

    return Counting


def assert_rows_are_assembled(algebra, n, k, cols, rows):
    """``rows`` are _assemble's rows of the images of ``cols``, in the same
    order, with column j keyed -(packed mu * d + beta)."""
    d = DIM[algebra]
    bits = (k + 1).bit_length()
    keys = [-(_pack(mu, bits) * d + beta) for mu, beta in cols]
    want, _ = _assemble(dbar_images(algebra, n, cols), {})
    assert list(rows) == [{keys[j]: v for j, v in row.items()} for row in want]


@pytest.mark.parametrize("algebra,n,top", [("H", 2, 4), ("H", 3, 3),
                                           ("O", 2, 2), ("O", 3, 2)])
def test_block_rows_are_the_assembled_rows(algebra, n, top):
    # top = 4 for (H, 2) runs k + 1 = 4, where the packed fields widen
    d = DIM[algebra]
    for k in range(top + 1):
        blocks = {}
        for mu, beta in columns(algebra, n, k):
            blocks.setdefault(block_key(d, mu, beta), []).append((mu, beta))
        assert len(blocks) == d * len(monomials(n, k + 1))
        for block, cols in blocks.items():
            assert_rows_are_assembled(algebra, n, k, cols,
                                      block_rows(algebra, n, k, block))


@pytest.mark.parametrize("algebra,n,rank", [("H", 2, 8), ("H", 3, 24),
                                            ("O", 2, 16), ("O", 3, 48)])
def test_packed_compat_rows_are_the_operator_rows(algebra, n, rank):
    """The packed rows, unpacked, are the rows of the module docstring
    composed as OperatorPolys: Lap_m on (l, gamma) and -(A_l . B_m) on
    (m, .), with the quaternionic sign; packed or as exponent tuples, they
    have the same rank."""
    d = DIM[algebra]
    nsyms = d * n
    sign = -1 if algebra == "H" else 1
    matrix = build_dbar_matrix(algebra, n)
    zero = OperatorPoly.zero(nsyms)
    want = []
    for l, m in syzygy._ordered_pairs(n):
        # B_m[t][beta]: conj(i_a) i_beta = s i_t, conj(i_a) = -i_a for a > 0
        b = [[zero] * d for _ in range(d)]
        for a in range(d):
            for beta in range(d):
                t, s = MUL_TABLE[algebra][a][beta]
                b[t][beta] = b[t][beta] + OperatorPoly.symbol(
                    nsyms, d * m + a, s if a == 0 else -s)
        lap = laplace_operator(algebra, n, m)
        for gamma in range(d):
            row = [zero] * nsyms
            row[d * l + gamma] = OperatorPoly(
                nsyms, {e: sign * c for e, c in lap.terms.items()})
            for beta in range(d):
                acc = zero
                for t in range(d):
                    acc = acc + matrix[d * l + gamma][t] * b[t][beta]
                row[d * m + beta] = OperatorPoly(
                    nsyms, {e: -sign * c for e, c in acc.terms.items()})
            want.append([entry.terms for entry in row])
    packed = syzygy._compat_rows(MUL_TABLE[algebra], sign, n,
                                 syzygy._ordered_pairs(n))
    shift = 2 * nsyms
    assert [[{_unpack(key & ((1 << shift) - 1), 2, nsyms): c
              for key, c in row.items() if key >> shift == slot}
             for slot in range(nsyms)] for row in packed] == want
    assert [[entry.terms for entry in row]
            for row in all_compat_rows(algebra, n)] == want
    assert rank == n * (n - 1) * d
    assert compat_rows_rank(algebra, n) == rank == rank_of(
        {(slot, e): c
         for slot, entry in enumerate(row) for e, c in entry.items()}
        for row in want)


def test_largest_mu_first_keeps_the_fill_small(monkeypatch):
    """Echelon pivots on the smallest column key; with the largest mu taken
    first the (O, 2, 4) blocks fill to 42,864 nonzeros, and to 238,268 in
    increasing mu.  The lead search runs first, so only the echelons of
    the ranked blocks are counted."""
    leads_below("O", 2, 4)
    made = []
    monkeypatch.setattr(syzygy, "Echelon", counting_echelon(made))
    assert syzygy_dim("O", 2, 4) == 2048
    assert len(made) == len(syzygy._ranked_blocks("O", 2, 4))
    assert sum(sum(map(len, ech.pivots.values())) for ech in made) < 60_000


def test_no_stencil_outlives_its_table(monkeypatch):
    """Stencils are kept per table value: a flipped sign gets rows of its
    own and is refused, at degree 3 before any lead search, and the shipped
    table, put back, counts as before."""
    def unreachable(*args):
        raise RuntimeError("lead search before the class refusal")

    table = MUL_TABLE["H"]
    block = ((3, 0), 0)
    shipped = block_rows("H", 2, 2, block)
    assert syzygy_dim("H", 2, 2) == 8
    monkeypatch.setitem(MUL_TABLE, "H", with_sign_flipped(table, 1, 2))
    assert block_rows("H", 2, 2, block) != shipped
    with pytest.raises(AssertionError, match=CLASS_REFUSAL):
        syzygy_dim("H", 2, 2)
    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "_leads", unreachable)
        with pytest.raises(AssertionError, match=CLASS_REFUSAL):
            syzygy_dim("H", 2, 3)
    monkeypatch.setitem(MUL_TABLE, "H", table)
    assert block_rows("H", 2, 2, block) == shipped
    assert syzygy_dim("H", 2, 2) == 8
    assert syzygy_dim("H", 2, 3) == 60


def test_many_variables_build_only_the_ranked_ones(monkeypatch):
    """At degree 0 the one ranked multidegree (1, 0, ..., 0) is enumerated
    without a monomial list of width n, and at degree 3 the blocks are
    ranked, and the leads searched, in min(n, k + 1) = 4 variables alone:
    a width of 1000 or more fails at once instead of taking time quadratic
    in n."""
    def narrow(build):
        def guarded(width, arg):
            if width >= 1000:
                raise AssertionError(f"{build.__name__} of width {width}")
            return build(width, arg)
        return guarded

    monkeypatch.setattr(syzygy, "monomials", narrow(syzygy.monomials))
    monkeypatch.setattr(syzygy, "_units", narrow(syzygy._units))
    assert syzygy_dim("H", 2000, 0) == 0
    assert syzygy_dim("H", 2000, 3) == 127_935_992_004_000


@pytest.mark.parametrize("algebra,n,k,dim", [("O", 2, 4, 2048),
                                             ("H", 3, 4, 2436),
                                             ("H", 3, 5, 10304),
                                             ("O", 2, 5, 11968),
                                             ("H", 2, 7, 5016),
                                             ("O", 3, 3, 1488),
                                             ("H", 3, 7, 105300),
                                             ("O", 3, 4, 18000),
                                             ("O", 3, 5, 150912)])
def test_syzygy_dims_at_higher_degree(algebra, n, k, dim):
    assert syzygy_dim(algebra, n, k) == dim


# ---------------------------------------------------------------------------
# rows left out as multiples of the leads the elimination found
# ---------------------------------------------------------------------------

def leads_below(algebra, n, k):
    """The leads syzygy_dim leaves out the multiples of at degree k."""
    return syzygy._leads(MUL_TABLE[algebra], min(n, k + 1), k - 1)


def full_and_kept(algebra, n, k, block):
    """Every row of ``block`` in feed order, and per row whether ``_rows``
    keeps it when it leaves out the multiples of the leads."""
    full = block_rows(algebra, n, k, block)
    kept = iter(block_rows(algebra, n, k, block, leads_below(algebra, n, k)))
    head = next(kept, None)
    flags = []
    for row in full:
        flags.append(row == head)
        if flags[-1]:
            head = next(kept, None)
    assert head is None     # the kept rows are a subsequence of the full feed
    return full, flags


def left_out_and_fed(monkeypatch, algebra, n, k):
    """syzygy_dim, with the rows it leaves out and the dependent rows it
    feeds over its ranked blocks, each block weighted as it weights the
    block's rank, read from the rows it feeds each block's ``Echelon``.
    The lead search runs first, so only those echelons are counted."""
    leads_below(algebra, n, k)
    made = []
    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "Echelon", counting_echelon(made))
        dim = syzygy_dim(algebra, n, k)
    blocks = syzygy._ranked_blocks(algebra, n, k)
    assert len(made) == len(blocks)
    left_out = fed = 0
    for (weight, block), ech in zip(blocks, made):
        every = len(block_rows(algebra, n, k, block))
        left_out += weight * (every - len(ech.grew))
        fed += weight * ech.grew.count(False)
    return dim, left_out, fed


@pytest.mark.parametrize("algebra,n,k", [
    ("H", 2, 4), ("H", 3, 3), ("O", 2, 2), ("O", 3, 2),
    ("H", 2, 5), ("O", 2, 3), ("H", 3, 4), ("O", 3, 3)])
def test_dropped_rows_change_no_pivot(algebra, n, k):
    for _, block in syzygy._ranked_blocks(algebra, n, k):
        full, flags = full_and_kept(algebra, n, k, block)
        every, kept = Echelon(), Echelon()
        for row, keep in zip(full, flags):
            grew = every.add_row(row)
            assert keep or not grew     # a dropped row reduces to zero
            if keep:
                kept.add_row(row)
        assert kept.pivots == every.pivots


@pytest.mark.parametrize("algebra,top", [("H", 6), ("O", 4)])
def test_n2_drops_every_dependent_row(monkeypatch, algebra, top):
    """From degree 3 on, the left-out rows at n = 2 number
    d (C(2d+k-3, k-2) + C(2d+k-4, k-2)), the multiples of the two degree-2
    leads x_{0,0}^2 and x_{0,0} x_{1,0} in variable 1, and that is the
    syzygy dimension: only independent rows are fed.  At degree 2 those
    leads are new, so nothing is left out."""
    d = DIM[algebra]
    for k in range(top + 1):
        closed = d * (comb(2 * d + k - 3, k - 2) + comb(2 * d + k - 4, k - 2)
                      if k >= 2 else 0)
        assert left_out_and_fed(monkeypatch, algebra, 2, k) == (
            (closed, closed, 0) if k > 2 else (closed, 0, closed))


@pytest.mark.parametrize("algebra,n,k,dropped,fed", [
    ("H", 3, 2, 0, 40), ("O", 3, 2, 0, 64), ("H", 3, 4, 2436, 0),
    ("O", 3, 3, 1464, 24), ("O", 2, 5, 11968, 0), ("H", 3, 6, 35472, 0),
    ("O", 3, 5, 150912, 0)])
def test_dependent_rows_left_out_or_fed(monkeypatch, algebra, n, k, dropped,
                                        fed):
    """Every dependent row is left out or fed and reduced to zero, counted
    on the rows syzygy_dim feeds.  No lead lies below degree 2; (O, 3, 3)
    feeds the 24 led by its new degree-3 leads, and the larger calls feed
    none."""
    assert left_out_and_fed(monkeypatch, algebra, n, k) == (
        dropped + fed, dropped, fed)


@pytest.mark.parametrize("algebra,m,found", [
    ("H", 2, [2, 0]), ("O", 2, [2, 0]), ("H", 3, [10, 4, 0]),
    ("O", 3, [8, 4, 3, 1, 0])], ids=["H2", "O2", "H3", "O3"])
def test_leads_per_degree(monkeypatch, algebra, m, found):
    """The new class-0 leads per degree from 2 until the search stops, each
    one a row that the full feed of its block rejects; at n = 2 they are
    the two compat leads (1, x_{0,0} x_{1,0}) and (1, x_{0,0}^2)."""
    table = MUL_TABLE[algebra]
    d = DIM[algebra]
    counts = []
    for j in range(2, 2 + len(found)):
        below, leads = syzygy._leads(table, m, j - 1), syzygy._leads(table, m, j)
        assert leads[:len(below)] == below
        counts.append(len(leads) - len(below))
        bits = (j + 1).bit_length()
        for h, nu in leads[len(below):]:
            md = [sum(nu[g * d:g * d + d]) for g in range(m)]
            md[h] += 1
            ech = Echelon()
            rejected = {(g, _unpack(key, bits, m * d))
                        for g, key, row in syzygy._rows(
                            table, m, bits, (tuple(md), 0), ())
                        if not ech.add_row(row)}
            assert (h, nu) in rejected
    assert counts == found
    # stopped: the next degree is not searched
    monkeypatch.setattr(syzygy, "monomials", None)
    assert syzygy._leads.__wrapped__(table, m, 2 + len(found)) == leads
    if m == 2:
        units = [tuple(int(i == a) for i in range(2 * d)) for a in (0, d)]
        assert sorted(leads) == sorted(
            [(1, tuple(map(sum, zip(*units)))),
             (1, tuple(2 * e for e in units[0]))])


# ---------------------------------------------------------------------------
# one block ranker for the count and the lead search
# ---------------------------------------------------------------------------

def solve_for(row):
    """Per gamma, the (beta, sign) with i_alpha i_beta = sign i_gamma for
    the row alpha of a multiplication table: the inverse of the signed
    permutation, which assumes no index rule."""
    out = [None] * len(row)
    for beta, (gamma, sign) in enumerate(row):
        out[gamma] = (beta, sign)
    return tuple(out)


@pytest.mark.parametrize("algebra,n,k,dim", [("H", 3, 4, 2436),
                                             ("O", 2, 4, 2048),
                                             ("O", 3, 3, 1488)])
def test_rank_block_is_one_hand_fed_echelon(monkeypatch, algebra, n, k, dim):
    """Per ranked block, ``_rank_block`` gives the rank and the rejected
    (h, packed nu) of feeding ``_rows`` to one Echelon by hand; syzygy_dim
    answers without ``rank_of``; and the stencil's XOR rule is the general
    inversion of the shipped table."""
    table = MUL_TABLE[algebra]
    d = DIM[algebra]
    bits = (k + 1).bit_length()
    leads = leads_below(algebra, n, k)
    ranked = 0
    for weight, block in syzygy._ranked_blocks(algebra, n, k):
        ech = Echelon()
        dependent = []
        for h, nu, row in syzygy._rows(table, n, bits, block, leads):
            if not ech.add_row(row):
                dependent.append((h, nu))
        assert syzygy._rank_block(table, n, bits, block, leads) == (
            ech.rank, dependent)
        ranked += weight * ech.rank
    assert n * d * comb(d * n + k - 1, k) - ranked == dim

    def unreachable(rows):
        raise RuntimeError("syzygy_dim ranked through rank_of")

    monkeypatch.setattr(syzygy, "rank_of", unreachable)
    assert syzygy_dim(algebra, n, k) == dim

    solve = [solve_for(row) for row in table]
    for h in range(n):
        keys = [_pack(tuple(int(i == d * h + a) for i in range(d * n)), bits)
                for a in range(d)]
        assert syzygy._stencil(table, n, bits, h) == tuple(
            tuple((-(keys[a] * d + solve[a][gamma][0]), solve[a][gamma][1])
                  for a in range(d))
            for gamma in range(d))


def spied_rank_block(monkeypatch, calls):
    """Patch ``syzygy._rank_block`` to append the arguments of each call to
    ``calls`` before it ranks."""
    rank_block = syzygy._rank_block

    def spy(*args):
        calls.append(args)
        return rank_block(*args)

    monkeypatch.setattr(syzygy, "_rank_block", spy)


@pytest.mark.parametrize("algebra,n,k,dim", [
    ("H", 6, 2, 440), ("O", 5, 3, 12_400),
    ("H", 2000, 3, 127_935_992_004_000)])
def test_count_ranks_in_the_search_variables(monkeypatch, algebra, n, k, dim):
    """syzygy_dim ranks each block in m = min(n, k + 1) variables, with the
    leads found in m variables, once per ranked multidegree cut to its
    first m entries."""
    m = min(n, k + 1)
    leads = leads_below(algebra, n, k)
    calls = []
    spied_rank_block(monkeypatch, calls)
    assert syzygy_dim(algebra, n, k) == dim
    blocks = syzygy._ranked_blocks(algebra, n, k)
    assert [(table, width, len(md), kappa, below)
            for table, width, _, (md, kappa), below in calls] == [
        (MUL_TABLE[algebra], m, m, 0, leads)] * len(blocks)
    assert [md for _, _, _, (md, _), _ in calls] == [
        md[:m] for _, (md, _) in blocks]


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_count_ranks_by_the_search_calls(monkeypatch, algebra):
    """At (A, 3, 3) every block that syzygy_dim ranks is ranked by a call,
    argument for argument, of the lead search's step 3."""
    table = MUL_TABLE[algebra]
    leads_below(algebra, 3, 3)
    counted, searched = [], []
    with monkeypatch.context() as patch:
        spied_rank_block(patch, counted)
        syzygy_dim(algebra, 3, 3)
    with monkeypatch.context() as patch:
        spied_rank_block(patch, searched)
        syzygy._leads.__wrapped__(table, 3, 3)
    assert len(searched) == len(monomials(3, 4))
    assert counted and all(call in searched for call in counted)
