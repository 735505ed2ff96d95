"""Exact quaternion and octonion arithmetic.

Elements live in one of the two normed division algebras over the rationals
(or over binary64 floats for the numeric lanes):

* ``"H"`` -- quaternions, units 1, i, j, k  (indices 0..3),
* ``"O"`` -- octonions, units i_0 = 1, i_1, ..., i_7.

The octonion multiplication table is *derived*, not hand-written: the module
stores the realified matrix of the one-variable conjugate-Fueter operator
(rows gamma, columns beta hold ``sign * d/dx_alpha``) as literal data and
reads off ``i_alpha * i_beta = sign * i_gamma`` from it at import time.  The
quaternion table is that table on the units 0..3, which close under the
product as 1, i, j, k with i*j = k; the test suite pins its 16 entries.

Scalars are kept exact (``fractions.Fraction``) by default.  A float backend
with identical semantics exists for quadrature and other numeric work; the
two never mix silently.  A number has no payload reader of its own:
``HPoly.from_json`` reads every coefficient's components
(``crfbench.polycalc._read_coef``).

Exact products clear each operand's denominators with one lcm, accumulate
the d^2 signed products through ``MUL_TABLE`` in Python ints and build one
``Fraction`` per output component; float products run the same signed loop
on the floats.  The public ``HNumber(...)`` validates its components;
arithmetic results (``+ - neg * scale conj``) are built by a trusted
constructor and skip that re-validation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

ALGEBRAS = ("H", "O")

#: Realified matrix of the octonionic conjugate-Fueter operator: entry
#: ``OCT_DBAR_MATRIX[gamma][beta] = (sign, alpha)`` means the gamma-component
#: of the operator applied to u picks up ``sign * d u_beta / d x_alpha``.
#: Equivalently: i_alpha * i_beta = sign * i_gamma.
OCT_DBAR_MATRIX = (
    ((+1, 0), (-1, 1), (-1, 2), (-1, 3), (-1, 4), (-1, 5), (-1, 6), (-1, 7)),
    ((+1, 1), (+1, 0), (-1, 3), (+1, 2), (-1, 5), (+1, 4), (+1, 7), (-1, 6)),
    ((+1, 2), (+1, 3), (+1, 0), (-1, 1), (-1, 6), (-1, 7), (+1, 4), (+1, 5)),
    ((+1, 3), (-1, 2), (+1, 1), (+1, 0), (-1, 7), (+1, 6), (-1, 5), (+1, 4)),
    ((+1, 4), (+1, 5), (+1, 6), (+1, 7), (+1, 0), (-1, 1), (-1, 2), (-1, 3)),
    ((+1, 5), (-1, 4), (+1, 7), (-1, 6), (+1, 1), (+1, 0), (+1, 3), (-1, 2)),
    ((+1, 6), (-1, 7), (-1, 4), (+1, 5), (+1, 2), (-1, 3), (+1, 0), (+1, 1)),
    ((+1, 7), (+1, 6), (-1, 5), (-1, 4), (+1, 3), (+1, 2), (-1, 1), (+1, 0)),
)


def _octonion_table_from_matrix(matrix):
    """Invert the (gamma, beta) -> (sign, alpha) layout into a mult table.

    Returns ``table[alpha][beta] = (gamma, sign)``.  Raises if the matrix does
    not define the product totally and uniquely (a transcription error would).
    """
    dim = len(matrix)
    table = [[None] * dim for _ in range(dim)]
    for gamma, row in enumerate(matrix):
        if len(row) != dim:
            raise ValueError("operator matrix is not square")
        for beta, (sign, alpha) in enumerate(row):
            if table[alpha][beta] is not None:
                raise ValueError(
                    f"duplicate product entry for i_{alpha} * i_{beta}"
                )
            table[alpha][beta] = (gamma, sign)
    for alpha in range(dim):
        for beta in range(dim):
            if table[alpha][beta] is None:
                raise ValueError(f"missing product entry for i_{alpha} * i_{beta}")
    return tuple(tuple(row) for row in table)


_OCTONION_TABLE = _octonion_table_from_matrix(OCT_DBAR_MATRIX)

#: MUL_TABLE[algebra][alpha][beta] == (gamma, sign)  with  i_alpha i_beta = sign i_gamma
MUL_TABLE = {
    "H": tuple(row[:4] for row in _OCTONION_TABLE[:4]),
    "O": _OCTONION_TABLE,
}

DIM = {"H": 4, "O": 8}


def _split_rows(table):
    """Per alpha, the pairs (beta, gamma) with i_alpha i_beta = +i_gamma and
    those with i_alpha i_beta = -i_gamma."""
    rows = []
    for alpha in range(len(table)):
        pos, neg = [], []
        for beta in range(len(table)):
            gamma, sign = table[alpha][beta]
            (pos if sign > 0 else neg).append((beta, gamma))
        rows.append((tuple(pos), tuple(neg)))
    return tuple(rows)


#: SPLIT_TABLE[algebra][alpha] == (pos, neg): ``MUL_TABLE`` split by sign.
SPLIT_TABLE = {a: _split_rows(MUL_TABLE[a]) for a in ALGEBRAS}


# The index rule i_a i_b = +-i_{a XOR b} makes every conjugate-Fueter system
# in the divided-power basis block diagonal in d classes: column x^[mu] i_b
# and equation (h, nu, g), the coefficient of x^[nu] i_g in dbar_h, lie in
# class b XOR odd(mu) and g XOR odd(nu), odd(mu) being the XOR of i mod d
# over the coordinates i with mu_i odd.  Both the graded solve
# (:mod:`crfbench.crfsolve`) and the syzygy count (:mod:`crfbench.syzygy`)
# map class 0 onto every class by the shifts of :func:`_class_shifts`, the
# one reader of :func:`_certificate`, and refuse a table it cannot certify.

def _certificate(table, c):
    """Signs (v, eps), with v_0 = 0, showing that class blocks kappa and
    kappa XOR c of the conjugate-Fueter systems are signed copies of each
    other under the multiplication table ``table``, or None.

    They satisfy sigma(a, b XOR c) = sigma(a, b) (-1)^(v_a + v_0) eps(b)
    eps(a XOR b) for all a, b, where i_a i_b = sigma(a, b) i_{a XOR b}.
    Column (mu, b) then maps to (mu, b XOR c) with sign eps(b) (-1)^<v, mu>
    and unknown (h, nu, g) to (h, nu, g XOR c) with sign eps(g)
    (-1)^(v_0 + <v, nu>), where <v, mu> sums v_{i mod d} mu_i: a signed
    permutation of the two blocks, for every n, k and multidegree.
    """
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
def _class_shifts(table):
    """The certificates (v, eps) of :func:`_certificate` for the shifts
    c = 0, ..., d - 1 under ``table``, shift 0 the identity: the signed
    permutations that map class 0 of every conjugate-Fueter system onto
    class c.  Raises AssertionError when ``table`` breaks the index rule or
    leaves a shift uncertified: its systems then have no such frame, and
    every graded route refuses the table."""
    d = len(table)
    shifts = tuple(_certificate(table, c) for c in range(d))
    if None in shifts or any(table[a][b][0] != a ^ b
                             for a in range(d) for b in range(d)):
        raise AssertionError("the multiplication table does not map class 0 "
                             "onto every class")
    return shifts


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("float component in exact backend; pass backend='float'")
    return Fraction(x)


def _numerators(coeffs, den):
    """Integer numerators of exact components over the common denominator
    ``den`` (a multiple of every component's denominator)."""
    if den == 1:
        return [c.numerator for c in coeffs]
    return [c.numerator * (den // c.denominator) for c in coeffs]


def _mul_into(rows, x, y, acc):
    """acc += x * y on component lists (ints, or floats for the float
    backend); ``rows`` is the algebra's ``SPLIT_TABLE`` entry."""
    for alpha, xa in enumerate(x):
        if xa:
            pos, neg = rows[alpha]
            for beta, gamma in pos:
                acc[gamma] += xa * y[beta]
            for beta, gamma in neg:
                acc[gamma] -= xa * y[beta]


class AlgebraMismatch(ValueError):
    """Raised when two operands live in different algebras or backends."""


class HNumber:
    """A quaternion or octonion with exact or float components.

    Components are stored against the unit basis i_0 = 1, i_1, ..., i_{d-1}.
    The ``backend`` is ``"exact"`` (``fractions.Fraction``) or ``"float"``.
    """

    __slots__ = ("algebra", "coeffs", "backend")

    def __init__(self, algebra, coeffs, backend="exact"):
        if algebra not in ALGEBRAS:
            raise ValueError(f"unknown algebra {algebra!r}")
        coeffs = tuple(coeffs)
        if len(coeffs) != DIM[algebra]:
            raise ValueError(
                f"{algebra} needs {DIM[algebra]} components, got {len(coeffs)}"
            )
        if backend == "exact":
            coeffs = tuple(_as_fraction(c) for c in coeffs)
        elif backend == "float":
            coeffs = tuple(float(c) for c in coeffs)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.algebra = algebra
        self.coeffs = coeffs
        self.backend = backend

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, algebra, backend="exact"):
        return cls(algebra, (0,) * DIM[algebra], backend)

    @classmethod
    def one(cls, algebra, backend="exact"):
        c = [0] * DIM[algebra]
        c[0] = 1
        return cls(algebra, c, backend)

    @classmethod
    def unit(cls, algebra, alpha, backend="exact"):
        """The basis unit i_alpha."""
        c = [0] * DIM[algebra]
        c[alpha] = 1
        return cls(algebra, c, backend)

    @classmethod
    def from_real(cls, algebra, value, backend="exact"):
        c = [0] * DIM[algebra]
        c[0] = value
        return cls(algebra, c, backend)

    # -- structure ---------------------------------------------------------

    @property
    def dim(self):
        return DIM[self.algebra]

    def _check_compatible(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch(
                f"mixed algebras {self.algebra} and {other.algebra}"
            )
        if self.backend != other.backend:
            raise AlgebraMismatch(
                f"mixed scalar backends {self.backend} and {other.backend}"
            )

    def is_zero(self):
        return not any(self.coeffs)

    def to_float(self):
        if self.backend == "float":
            return self
        return HNumber(self.algebra, [float(c) for c in self.coeffs], "float")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HNumber):
            return NotImplemented
        self._check_compatible(other)
        return _trusted(self.algebra,
                        tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]),
                        self.backend)

    def __sub__(self, other):
        if not isinstance(other, HNumber):
            return NotImplemented
        self._check_compatible(other)
        return _trusted(self.algebra,
                        tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]),
                        self.backend)

    def __neg__(self):
        return _trusted(self.algebra, tuple([-a for a in self.coeffs]),
                        self.backend)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HNumber):
            return NotImplemented
        self._check_compatible(other)
        rows = SPLIT_TABLE[self.algebra]
        if self.backend == "exact":
            x, y = self.coeffs, other.coeffs
            dx = lcm(*[c.denominator for c in x])
            dy = lcm(*[c.denominator for c in y])
            acc = [0] * len(x)
            _mul_into(rows, _numerators(x, dx), _numerators(y, dy), acc)
            return _from_ints(self.algebra, acc, dx * dy)
        acc = [0.0] * len(self.coeffs)
        _mul_into(rows, self.coeffs, other.coeffs, acc)
        return _trusted(self.algebra, tuple(acc), "float")

    def __rmul__(self, other):
        # scalar * HNumber (real scalars are central, so order is immaterial)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        coeffs = [c * s for c in self.coeffs]
        if type(s) is int or type(s) is Fraction or (
                type(s) is float and self.backend == "float"):
            return _trusted(self.algebra, tuple(coeffs), self.backend)
        return HNumber(self.algebra, coeffs, self.backend)

    def conj(self):
        c = self.coeffs
        return _trusted(self.algebra, (c[0],) + tuple([-x for x in c[1:]]),
                        self.backend)

    def norm_sq(self):
        return sum(c * c for c in self.coeffs)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HNumber):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.backend == other.backend
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.algebra, self.backend, self.coeffs))

    def __repr__(self):
        return f"HNumber({self.algebra!r}, {list(self.coeffs)!r})"

    def __str__(self):
        names = ["", "i", "j", "k"] if self.algebra == "H" else [
            "", "i1", "i2", "i3", "i4", "i5", "i6", "i7"
        ]
        parts = []
        for name, c in zip(names, self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}{('*' + name) if name else ''}")
        return " + ".join(parts) if parts else "0"


def _trusted(algebra, coeffs, backend):
    """An ``HNumber`` without validation, for arithmetic results: ``coeffs``
    is already a tuple of ``DIM[algebra]`` Fractions (exact backend) or
    floats (float backend)."""
    out = object.__new__(HNumber)
    out.algebra = algebra
    out.coeffs = coeffs
    out.backend = backend
    return out


def _from_ints(algebra, ints, den):
    """The exact ``HNumber`` with components ints[i] / den."""
    return _trusted(algebra, tuple([Fraction(v, den) for v in ints]), "exact")
