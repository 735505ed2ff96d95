"""Differential forms with polynomial or pole coefficients.

The engine works over R^(4n) with quaternion-valued coefficients, which is
enough for every identity in the workbench (octonionic data never enters the
form layer).  A coefficient is an element of the *pole ring*: a polynomial
numerator divided by an even power of the distance to a marked point,

    N / r^(2m),     r^2 = sum_i (xi_i - p_i)^2,

closed under derivatives.  ``m = 0`` elements are plain polynomials and
combine with any pole.  The ring has one quotient rule,
``PoleRingElement.partial_flat``; the pole-ring Fueter operators
(``pole_fueter_dbar``, ``pole_fueter_dbar_right``) sum its results against
the units, and r^2 is memoised per pole.

Conventions, fixed once and validated by the identity suites:

* coordinates: variable h occupies flat indices 4h..4h+3; for n = 2 the
  blocks are written x (first variable) and y (second);
* orientation of R^(4n): dxi_0 ^ dxi_1 ^ ... ^ dxi_{4n-1} is positive,
  and the Hodge star uses this orientation with the Euclidean metric;
* ``dq_form`` / ``dqbar_form``: degree-1 forms sum_a i_a dx_{h,a} and its
  conjugate;
* ``Dq_form``: the degree-3 form sum_a (-1)^a i_a dX_{h,a-hat} where
  dX_{h,a-hat} drops dx_{h,a} from the variable's volume factor dx_{h,0} ^
  ... ^ dx_{h,3}; ``Dqbar_form`` conjugates the coefficients;
* wedge products multiply coefficients in left-to-right order (the
  coefficients are quaternions!).

Key exact identities available as functions: ``identity_lu1`` (one variable:
d(Dq . F) = dbar F dx), ``identity_lub`` (two variables, 7-forms, mixing the
conjugate-Fueter derivatives with the Hodge star of dF).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .hypercomplex import DIM, HNumber
from .polycalc import HPoly, fueter_dbar


@functools.lru_cache(maxsize=64)
def _r_squared(pole, algebra, n):
    """The squared distance polynomial to the pole point,
    sum_i x_i^2 - 2 p_i x_i + |p|^2; memoised, so every caller shares one
    (immutable) polynomial per pole."""
    width = DIM[algebra] * n
    if len(pole) != width:
        raise ValueError("pole width mismatch")
    origin = (0,) * width
    sq = sum(Fraction(p) ** 2 for p in pole)
    terms = {}
    for i, p in enumerate(pole):
        terms[origin[:i] + (2,) + origin[i + 1:]] = 1
        if p:
            terms[origin[:i] + (1,) + origin[i + 1:]] = -2 * Fraction(p)
            terms.setdefault(origin, sq)
    return HPoly(algebra, n, terms)


class PoleRingElement:
    """num / r^(2m) with polynomial numerator; m = 0 means no pole."""

    __slots__ = ("num", "pole", "m")

    def __init__(self, num, pole=None, m=0):
        if not isinstance(num, HPoly):
            raise TypeError("numerator must be an HPoly")
        if m < 0:
            raise ValueError("pole order must be nonnegative")
        if m > 0 and pole is None:
            raise ValueError("pole point required when m > 0")
        self.num = num
        self.m = m if not num.is_zero() else 0
        self.pole = tuple(Fraction(p) for p in pole) if pole is not None else None

    @classmethod
    def from_poly(cls, p):
        return cls(p, None, 0)

    @property
    def algebra(self):
        return self.num.algebra

    @property
    def n(self):
        return self.num.n

    def is_zero(self):
        return self.num.is_zero()

    def _common(self, other):
        """Lift self and other to a common pole and order; returns
        (num_a, num_b, pole, m)."""
        if self.m == 0 and other.m == 0:
            return self.num, other.num, self.pole or other.pole, 0
        pole = self.pole if self.m else other.pole
        if self.m and other.m and self.pole != other.pole:
            raise ValueError("mixed poles")
        m = max(self.m, other.m)
        r2 = _r_squared(pole, self.algebra, self.n)
        a = self.num
        for _ in range(m - self.m):
            a = a * r2
        b = other.num
        for _ in range(m - other.m):
            b = b * r2
        return a, b, pole, m

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        a, b, pole, m = self._common(other)
        return PoleRingElement(a + b, pole, m)

    def __neg__(self):
        return PoleRingElement(-self.num, self.pole, self.m)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PoleRingElement(self.num.scale(other), self.pole, self.m)
        if isinstance(other, HNumber):
            return PoleRingElement(self.num.mul_const_right(other), self.pole, self.m)
        other = _lift(other)
        if other is None:
            return NotImplemented
        if self.m and other.m and self.pole != other.pole:
            raise ValueError("mixed poles")
        pole = self.pole if self.m else other.pole
        return PoleRingElement(self.num * other.num, pole, self.m + other.m)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PoleRingElement(self.num.scale(other), self.pole, self.m)
        if isinstance(other, HNumber):
            return PoleRingElement(self.num.mul_const_left(other), self.pole, self.m)
        if isinstance(other, HPoly):
            return PoleRingElement(other * self.num, self.pole, self.m)
        return NotImplemented

    def partial_flat(self, i):
        """d/d xi_i:  (dN) r^-2m  -  m N d(r^2) r^-2(m+1)."""
        dn = self.num.partial_flat(i)
        if self.m == 0:
            return PoleRingElement(dn, self.pole, 0)
        r2 = _r_squared(self.pole, self.algebra, self.n)
        dr2 = r2.partial_flat(i)
        num = dn * r2 - self.num.scale(self.m) * dr2
        return PoleRingElement(num, self.pole, self.m + 1)

    def evaluate(self, point):
        v = self.num.evaluate(point)
        if self.m == 0:
            return v
        r2 = _r_squared(self.pole, self.algebra, self.n).evaluate(point)
        den = r2.coeffs[0] ** self.m
        if den == 0:
            raise ZeroDivisionError("evaluation at the pole")
        return v.scale(1 / den)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        try:
            a, b, _, _ = self._common(other)
        except ValueError:
            return False
        return a == b

    def __repr__(self):
        if self.m == 0:
            return f"PoleRingElement({self.num!r})"
        return f"PoleRingElement({self.num!r} / r^{2 * self.m} @ {self.pole})"


def _lift(x):
    """x as a pole-ring element when it is one or an ``HPoly``, else None."""
    if isinstance(x, HPoly):
        return PoleRingElement.from_poly(x)
    return x if isinstance(x, PoleRingElement) else None


class Form:
    """Exterior form on R^width with pole-ring coefficients.

    ``terms`` maps strictly increasing index tuples of length ``degree`` to
    :class:`PoleRingElement` coefficients.
    """

    __slots__ = ("algebra", "n", "degree", "terms")

    def __init__(self, algebra, n, degree, terms=None):
        self.algebra = algebra
        self.n = n
        self.degree = degree
        width = DIM[algebra] * n
        clean = {}
        if terms:
            for idx, coef in terms.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError("index tuple has wrong length")
                if any(not (0 <= i < width) for i in idx):
                    raise IndexError("index out of range")
                if list(idx) != sorted(set(idx)):
                    raise ValueError("indices must be strictly increasing")
                if isinstance(coef, HNumber):
                    coef = HPoly.constant(algebra, n, coef)
                if isinstance(coef, HPoly):
                    coef = PoleRingElement.from_poly(coef)
                if not coef.is_zero():
                    clean[idx] = clean[idx] + coef if idx in clean else coef
        self.terms = {i: c for i, c in clean.items() if not c.is_zero()}

    @property
    def width(self):
        return DIM[self.algebra] * self.n

    @classmethod
    def zero(cls, algebra, n, degree):
        return cls(algebra, n, degree)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if (self.algebra, self.n, self.degree) != (other.algebra, other.n, other.degree):
            raise ValueError("form spaces differ")

    def _map(self, fn):
        """The form with every coefficient c replaced by fn(c)."""
        return _form(self.algebra, self.n, self.degree,
                     {i: fn(c) for i, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for idx, coef in other.terms.items():
            terms[idx] = terms[idx] + coef if idx in terms else coef
        return _form(self.algebra, self.n, self.degree, terms)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._map(lambda c: -c)

    def scale(self, s):
        return self._map(lambda c: c * s)

    def mul_left(self, g):
        """g * omega: multiply every coefficient by g on the left."""
        return self._map(lambda c: g * c)

    def mul_right(self, g):
        """omega * g: multiply every coefficient by g on the right."""
        return self._map(lambda c: c * g)

    def wedge(self, other):
        if not isinstance(other, Form):
            raise TypeError("wedge needs a Form")
        if (self.algebra, self.n) != (other.algebra, other.n):
            raise ValueError("form spaces differ")
        acc = {}
        for i1, c1 in self.terms.items():
            s1 = set(i1)
            for i2, c2 in other.terms.items():
                if s1 & set(i2):
                    continue
                merged, sign = _merge_sorted(i1, i2)
                c = c1 * c2 if sign == 1 else -(c1 * c2)
                acc[merged] = acc[merged] + c if merged in acc else c
        return _form(self.algebra, self.n, self.degree + other.degree, acc)

    def exterior_d(self):
        acc = {}
        for idx, coef in self.terms.items():
            present = set(idx)
            for i in range(self.width):
                if i in present:
                    continue
                dc = coef.partial_flat(i)
                if dc.is_zero():
                    continue
                merged, sign = _merge_sorted((i,), idx)
                c = dc if sign == 1 else -dc
                acc[merged] = acc[merged] + c if merged in acc else c
        return _form(self.algebra, self.n, self.degree + 1, acc)

    def hodge_star(self):
        """Euclidean star for the positive orientation (0, 1, ..., width-1).

        Acts on the index part only; coefficients ride along unchanged.
        """
        width = self.width
        terms = {}
        for idx, coef in self.terms.items():
            comp = tuple(i for i in range(width) if i not in idx)
            terms[comp] = coef if _merge_sorted(idx, comp)[1] == 1 else -coef
        return _form(self.algebra, self.n, width - self.degree, terms)

    def pullback_at(self, frame, point):
        """Evaluate on tangent vectors at a point: sum_I c_I(point) det(frame_I).

        ``frame`` is a sequence of ``degree`` vectors (length ``width``).
        Exact when everything is rational, float otherwise.
        """
        if len(frame) != self.degree:
            raise ValueError("frame size must equal form degree")
        is_float = any(isinstance(x, float) for v in frame for x in v) or \
            any(isinstance(x, float) for x in point)
        acc = None
        for idx, coef in self.terms.items():
            rows = [[v[i] for i in idx] for v in frame]
            det = _det_float(rows) if is_float else _det_exact(rows)
            if det == 0:
                continue
            val = coef.evaluate(point)
            if is_float:
                val = val.to_float().scale(float(det))
            else:
                val = val.scale(det)
            acc = val if acc is None else acc + val
        if acc is None:
            backend = "float" if is_float else "exact"
            return HNumber.zero(self.algebra, backend)
        return acc

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    def __repr__(self):
        keys = sorted(self.terms)
        return f"Form(deg={self.degree}, {len(keys)} terms: {keys[:4]}...)"


def _form(algebra, n, degree, terms):
    """A ``Form`` without validation, for results whose ``terms`` already
    map strictly increasing index tuples to pole-ring elements; zero
    coefficients drop."""
    out = Form.__new__(Form)
    out.algebra, out.n, out.degree = algebra, n, degree
    out.terms = {i: c for i, c in terms.items() if not c.is_zero()}
    return out


def _merge_sorted(a, b):
    """Merge two disjoint ascending tuples; return (merged, sign) where sign
    is the parity of the permutation that sorts a + b."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


def _det_exact(rows):
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col]:
                f = mat[r][col] * inv
                for c in range(col, n):
                    mat[r][c] -= f * mat[col][c]
    return det


def _det_float(rows):
    import numpy as np
    return float(np.linalg.det(np.array(rows, dtype=float)))


# ---------------------------------------------------------------------------
# standard forms
# ---------------------------------------------------------------------------

def _basis_form(algebra, n, idx):
    """The constant-coefficient form dx_idx (coefficient 1)."""
    return Form(algebra, n, len(idx), {idx: HNumber.one(algebra)})


def _block(algebra, h, skip=None):
    """Flat indices of variable h in increasing order, without alpha = skip."""
    d = DIM[algebra]
    return tuple(d * h + a for a in range(d) if a != skip)


def _basis_units(algebra, conjugate):
    """i_0, ..., i_{d-1}, or their conjugates."""
    units = [HNumber.unit(algebra, a) for a in range(DIM[algebra])]
    return [u.conj() for u in units] if conjugate else units


def _dq(algebra, n, h, conjugate):
    """sum_a u_a dx_{h,a} with u_a = i_a, or conj(i_a) when ``conjugate``."""
    return Form(algebra, n, 1, {(i,): u for i, u in zip(
        _block(algebra, h), _basis_units(algebra, conjugate))})


def _Dq(algebra, n, h, conjugate):
    """sum_a (-1)^a u_a dX_{h,a-hat} with u_a as in :func:`_dq`."""
    units = _basis_units(algebra, conjugate)
    return Form(algebra, n, DIM[algebra] - 1,
                {_block(algebra, h, a): -u if a % 2 else u
                 for a, u in enumerate(units)})


def dq_form(algebra, n, h):
    """sum_a i_a dx_{h,a}."""
    return _dq(algebra, n, h, False)


def dqbar_form(algebra, n, h):
    """sum_a conj(i_a) dx_{h,a}."""
    return _dq(algebra, n, h, True)


def volume_block_form(algebra, n, h):
    """dx_{h,0} ^ dx_{h,1} ^ dx_{h,2} ^ dx_{h,3} (one variable's volume)."""
    return _basis_form(algebra, n, _block(algebra, h))


def Dq_form(algebra, n, h):
    """sum_a (-1)^a i_a dX_{h,a-hat}: the degree-3 kernel pairing form."""
    return _Dq(algebra, n, h, False)


def Dqbar_form(algebra, n, h):
    """Conjugate-coefficient variant of :func:`Dq_form`."""
    return _Dq(algebra, n, h, True)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

@functools.cache
def _lu1_frames(algebra):
    """(Dq, dx) of ``identity_lu1``, built once per algebra; shared, so no
    caller may mutate them (every ``Form`` operation returns a new form)."""
    return Dq_form(algebra, 1, 0), volume_block_form(algebra, 1, 0)


@functools.cache
def _lub_frames():
    """(dx, dy, dqbar_1 ^ dq_1 ^ dy, dqbar_2 ^ dq_2, Dqbar_1, Dqbar_2) of
    ``identity_lub``, built once; shared like ``_lu1_frames``."""
    dx = volume_block_form("H", 2, 0)
    dy = volume_block_form("H", 2, 1)
    return (dx, dy,
            dqbar_form("H", 2, 0).wedge(dq_form("H", 2, 0)).wedge(dy),
            dqbar_form("H", 2, 1).wedge(dq_form("H", 2, 1)),
            Dqbar_form("H", 2, 0), Dqbar_form("H", 2, 1))


def identity_lu1(F):
    """One-variable reproduction identity: d(Dq . F) = (dbar F) dx.

    Returns the pair (lhs, rhs); they agree exactly for every polynomial F.
    """
    if F.n != 1:
        raise ValueError("one-variable identity")
    Dq, dx = _lu1_frames(F.algebra)
    lhs = Dq.mul_right(F).exterior_d()
    rhs = dx.mul_left(fueter_dbar(F, 0))
    return lhs, rhs


def identity_lub(F):
    """Two-variable 7-form identity mixing dbar derivatives with *dF.

    lhs = 1/2 (dqbar_1 ^ dq_1 ^ dy ^ dF  +  dx ^ dqbar_2 ^ dq_2 ^ dF)
    rhs = -(Dqbar_1 . (dbar_1 F)) ^ dy  -  dx ^ (Dqbar_2 . (dbar_2 F))  +  *dF

    (first variable = x block, second = y block).  Exact for polynomial F.
    """
    if F.algebra != "H" or F.n != 2:
        raise ValueError("two quaternionic variables required")
    dx, dy, frame_1, frame_2, Dqbar_1, Dqbar_2 = _lub_frames()
    dF = Form("H", 2, 1, {(i,): F.partial_flat(i) for i in range(8)})
    lhs = (frame_1.wedge(dF)
           + dx.wedge(frame_2.wedge(dF))).scale(Fraction(1, 2))
    term1 = Dqbar_1.mul_right(fueter_dbar(F, 0)).wedge(dy)
    term2 = dx.wedge(Dqbar_2.mul_right(fueter_dbar(F, 1)))
    rhs = -(term1 + term2) + dF.hodge_star()
    return lhs, rhs


# ---------------------------------------------------------------------------
# reproducing kernels
# ---------------------------------------------------------------------------

def cf_kernel_quaternion(q0):
    """The one-variable reproducing kernel G(q) = conj(q - q0) / |q - q0|^4
    as a quaternion-valued pole-ring element."""
    q0 = tuple(Fraction(c) for c in q0)
    if len(q0) != 4:
        raise ValueError("kernel pole is a quaternion point")
    num = HPoly.variable_conj("H", 1, 0) - HPoly.constant(
        "H", 1, HNumber("H", q0).conj())
    return PoleRingElement(num, q0, 2)


def _pole_fueter(g, h, right):
    """sum_a i_a * d g/dx_{h,a}, or sum_a d g/dx_{h,a} * i_a for right units
    (quaternionic only), through the pole ring's quotient rule
    (:meth:`PoleRingElement.partial_flat`)."""
    if right and g.algebra != "H":
        raise ValueError("right-module operators are quaternionic only")
    d = DIM[g.algebra]
    parts = [g.partial_flat(d * h + a) for a in range(d)]
    return functools.reduce(operator.add, (
        part * u if right else u * part
        for part, u in zip(parts, _basis_units(g.algebra, False))))


def pole_fueter_dbar(g, h=0):
    """Conjugate-Fueter derivative of a pole-ring element (left units)."""
    return _pole_fueter(g, h, right=False)


def pole_fueter_dbar_right(g, h=0):
    """Right-module variant (quaternionic)."""
    return _pole_fueter(g, h, right=True)


#: Scalar normalization of the two-variable kernel form: 1 / (8 pi^4).
#: Kept outside the form so its coefficients stay exact rationals.
OMEGA2_PREFACTOR = 1.0 / (8.0 * math.pi ** 4)

#: The two complex wedge monomials of the two-variable kernel form, in the
#: complex differentials (zbar1, z1, wbar1, w1, zbar2, z2, wbar2, w2).
OMEGA2_COMPLEX_MONOMIALS = (
    ("zbar1", "w1", "zbar2", "z2", "wbar2", "w2"),
    ("zbar1", "z1", "wbar1", "w1", "zbar2", "w2"),
)

_COMPLEX_DIFFERENTIALS = {
    # label -> (flat index pair, sign of the imaginary part)
    "z1": (0, 1, 1), "zbar1": (0, 1, -1),
    "w1": (2, 3, 1), "wbar1": (2, 3, -1),
    "z2": (4, 5, 1), "zbar2": (4, 5, -1),
    "w2": (6, 7, 1), "wbar2": (6, 7, -1),
}


def complex_differential(label):
    """dz = dx + i dy (or conjugate) in the span{1, i} coefficient engine."""
    re_idx, im_idx, sign = _COMPLEX_DIFFERENTIALS[label]
    return Form("H", 2, 1, {(re_idx,): HNumber.one("H"),
                            (im_idx,): HNumber.unit("H", 1).scale(sign)})


def omega2(pole):
    """The two-variable kernel 6-form (without the 1/(8 pi^4) prefactor).

    Complex-coefficient 6-form over R^8, coefficients in span{1, i} inside the
    quaternion engine, with a sixth-order pole at ``pole``:

        (wedge of the two monomials in :data:`OMEGA2_COMPLEX_MONOMIALS`) / r^6.
    """
    pole = tuple(Fraction(c) for c in pole)
    if len(pole) != 8:
        raise ValueError("pole is a point of R^8")
    acc = Form.zero("H", 2, 6)
    for mono in OMEGA2_COMPLEX_MONOMIALS:
        w = complex_differential(mono[0])
        for label in mono[1:]:
            w = w.wedge(complex_differential(label))
        acc = acc + w
    inv_r6 = PoleRingElement(HPoly.constant("H", 2, 1), pole, 3)
    return acc.mul_left(inv_r6)


def k2(pole):
    """Exterior derivative of the kernel form (same prefactor convention)."""
    return omega2(pole).exterior_d()
