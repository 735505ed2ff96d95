"""Exact quaternion and octonion arithmetic.

Elements live in one of the two normed division algebras over the rationals
(or over binary64 floats for the numeric lanes):

* ``"H"`` -- quaternions, units 1, i, j, k  (indices 0..3),
* ``"O"`` -- octonions, units i_0 = 1, i_1, ..., i_7.

The octonion multiplication table is *derived*, not hand-written: the module
stores the realified matrix of the one-variable conjugate-Fueter operator
(rows gamma, columns beta hold ``sign * d/dx_alpha``) as literal data and
reads off ``i_alpha * i_beta = sign * i_gamma`` from it at import time.  The
quaternion table is the classical one (i*j = k); its consistency with the
octonion table restricted to indices 0..3 is asserted by the test suite.

Scalars are kept exact (``fractions.Fraction``) by default.  A float backend
with identical semantics exists for quadrature and other numeric work; the
two never mix silently.
"""

from __future__ import annotations

from fractions import Fraction

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


def _quaternion_table():
    """Classical quaternion table: i*j = k, j*k = i, k*i = j."""
    table = [[None] * 4 for _ in range(4)]
    for beta in range(4):
        table[0][beta] = (beta, 1)   # 1 * x = x
        table[beta][0] = (beta, 1)   # x * 1 = x
    for a in range(1, 4):
        table[a][a] = (0, -1)        # i^2 = j^2 = k^2 = -1
    for (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        table[a][b] = (c, 1)
        table[b][a] = (c, -1)
    return tuple(tuple(row) for row in table)


#: MUL_TABLE[algebra][alpha][beta] == (gamma, sign)  with  i_alpha i_beta = sign i_gamma
MUL_TABLE = {
    "H": _quaternion_table(),
    "O": _octonion_table_from_matrix(OCT_DBAR_MATRIX),
}

DIM = {"H": 4, "O": 8}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("float component in exact backend; pass backend='float'")
    return Fraction(x)


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
        return all(c == 0 for c in self.coeffs)

    def to_float(self):
        if self.backend == "float":
            return self
        return HNumber(self.algebra, [float(c) for c in self.coeffs], "float")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HNumber):
            return NotImplemented
        self._check_compatible(other)
        return HNumber(
            self.algebra,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.backend,
        )

    def __sub__(self, other):
        if not isinstance(other, HNumber):
            return NotImplemented
        self._check_compatible(other)
        return HNumber(
            self.algebra,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            self.backend,
        )

    def __neg__(self):
        return HNumber(self.algebra, [-a for a in self.coeffs], self.backend)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, float):
            if self.backend != "float":
                return NotImplemented
            return self.scale(other)
        if not isinstance(other, HNumber):
            return NotImplemented
        self._check_compatible(other)
        table = MUL_TABLE[self.algebra]
        if self.backend == "exact":
            acc = [_ZERO] * self.dim
        else:
            acc = [0.0] * self.dim
        for a_idx, a in enumerate(self.coeffs):
            if a == 0:
                continue
            row = table[a_idx]
            for b_idx, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                gamma, sign = row[b_idx]
                if sign == 1:
                    acc[gamma] += a * b
                else:
                    acc[gamma] -= a * b
        return HNumber(self.algebra, acc, self.backend)

    def __rmul__(self, other):
        # scalar * HNumber (real scalars are central, so order is immaterial)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, float) and self.backend == "float":
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        return HNumber(self.algebra, [c * s for c in self.coeffs], self.backend)

    def conj(self):
        c = self.coeffs
        return HNumber(self.algebra, (c[0],) + tuple(-x for x in c[1:]), self.backend)

    def norm_sq(self):
        return sum(c * c for c in self.coeffs)

    def inverse(self):
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.backend == "exact":
            return self.conj().scale(Fraction(1, 1) / n)
        return self.conj().scale(1.0 / n)

    def real(self):
        return self.coeffs[0]

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

    # -- serialization --------------------------------------------------------

    def to_json(self):
        """Portable dict form: exact components as "p/q" strings, floats as-is."""
        if self.backend == "exact":
            comps = [str(c) for c in self.coeffs]
        else:
            comps = list(self.coeffs)
        return {"algebra": self.algebra, "c": comps}

    @classmethod
    def from_json(cls, obj):
        algebra = obj["algebra"]
        comps = obj["c"]
        if comps and isinstance(comps[0], str):
            return cls(algebra, [Fraction(c) for c in comps], "exact")
        if comps and isinstance(comps[0], float):
            return cls(algebra, comps, "float")
        return cls(algebra, comps, "exact")


def unit_product(algebra, alpha, beta):
    """(gamma, sign) with i_alpha * i_beta = sign * i_gamma."""
    return MUL_TABLE[algebra][alpha][beta]
