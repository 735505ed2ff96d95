"""Polynomial calculus for the conjugate-Fueter operators.

Polynomials are sparse maps from exponent tuples to exact hypercomplex
coefficients, each polynomial held in one integer form.  A polynomial in n
quaternionic (octonionic) variables lives on 4n (8n) real coordinates; the
real coordinate ``alpha`` of variable ``h`` has flat index ``dim*h + alpha``.
Variable indices ``h`` are 0-based.

The ring arithmetic (``+ - neg * scale conj mul_const_*``), ``partial_flat``
and the Fueter operators all run on that one integer form,
(den, {exp: integer numerators}), and hand it to their results.  The map of
``HNumber`` coefficients, ``HPoly.terms``, is a view built from it on each
read.

Operators (all left-multiplication convention; ``i_a`` are the imaginary
units, ``bar`` is conjugation):

* ``fueter_dbar(p, h)``  =  sum_a i_a  * d p / d x_{h,a}
* ``fueter_d(p, h)``     =  sum_a conj(i_a) * d p / d x_{h,a}
* ``laplacian(p, h)``    =  sum_a d^2 p / d x_{h,a}^2

All three run through one private kernel, ``_derive``, on signed stencils
read off ``SPLIT_TABLE``, the one multiplication table of the algebra.
``fueter_d`` and ``fueter_dbar`` on the same variable compose to the
coordinate Laplacian in either order -- in the octonions this relies on the
linearized alternative law, so nested applications are never reassociated.

Compatibility residuals for the overdetermined system ``dbar_system(u) = g``:

* quaternionic n=2 (components 0-based):
      pbar[0] = dbar_0(d_1 g_1) - lap_1 g_0
      pbar[1] = dbar_1(d_0 g_0) - lap_0 g_1
* octonionic, ordered pairs (l, m), l != m, lexicographic:
      z[l, m] = lap_m g_l - dbar_l(d_m g_m)

The two families differ by an overall sign; each is kept exactly as stated
because downstream code matches their published forms.  Vanishing of one
family is equivalent to vanishing of the other.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import gcd, lcm
from numbers import Rational
from operator import add

from .hypercomplex import (ALGEBRAS, DIM, SPLIT_TABLE, AlgebraMismatch,
                           HNumber, _from_ints, _mul_into, _numerators)

SCHEMA_VERSION = 1
_RATIO = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")  # "p", "p/q"; q > 0


class HPoly:
    """Sparse polynomial with exact quaternion/octonion coefficients.

    ``terms`` maps exponent tuples (length ``dim*n``) to nonzero ``HNumber``
    coefficients with exact backend.  Real scalars embed as coefficients with
    only component 0.

    A polynomial is immutable and holds one integer form, ``_ints`` =
    (den, {exp: integer numerators}): ``den`` is the lcm of the denominators
    of every coefficient component (1 for the zero polynomial) and each row
    holds the components of one term times ``den``.  Every kernel reads it
    and hands its result one; ``terms`` is a view built from it on each
    read.  Terms keep the order the constructor or the operations gave
    them.  Rows are shared between polynomials, so they are read, never
    written.
    """

    __slots__ = ("algebra", "n", "_ints")

    def __init__(self, algebra, n, terms=None):
        if algebra not in ALGEBRAS:
            raise ValueError(f"unknown algebra {algebra!r}")
        if n < 1:
            raise ValueError("need at least one variable")
        self.algebra = algebra
        self.n = n
        clean = {}
        if terms:
            width = DIM[algebra] * n
            for exp, coef in terms.items():
                exp = tuple(exp)
                is_h = isinstance(coef, HNumber)
                _check_term(exp, width, algebra,
                            coef.algebra if is_h else algebra)
                if not is_h:
                    coef = HNumber.from_real(algebra, coef)
                if coef.backend != "exact":
                    raise ValueError("HPoly coefficients must be exact")
                if not coef.is_zero():
                    clean[exp] = coef.coeffs
        den = lcm(*[c.denominator for cs in clean.values() for c in cs])
        self._ints = (den, {e: _numerators(cs, den)
                            for e, cs in clean.items()})

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra, n):
        return cls(algebra, n)

    @classmethod
    def constant(cls, algebra, n, value):
        if not isinstance(value, HNumber):
            value = HNumber.from_real(algebra, value)
        width = DIM[algebra] * n
        return cls(algebra, n, {(0,) * width: value})

    @classmethod
    def coordinate(cls, algebra, n, h, alpha):
        """The real coordinate x_{h,alpha} as a polynomial."""
        d = DIM[algebra]
        if not (0 <= h < n and 0 <= alpha < d):
            raise IndexError("coordinate out of range")
        width = d * n
        exp = [0] * width
        exp[d * h + alpha] = 1
        return cls(algebra, n, {tuple(exp): HNumber.one(algebra)})

    @classmethod
    def variable(cls, algebra, n, h):
        """The full hypercomplex variable q_h = sum_a x_{h,a} i_a."""
        d = DIM[algebra]
        width = d * n
        terms = {}
        for alpha in range(d):
            exp = [0] * width
            exp[d * h + alpha] = 1
            terms[tuple(exp)] = HNumber.unit(algebra, alpha)
        return cls(algebra, n, terms)

    @classmethod
    def variable_conj(cls, algebra, n, h):
        """conj(q_h) = x_{h,0} - sum_{a>0} x_{h,a} i_a."""
        return cls.variable(algebra, n, h).conj()

    # -- structure ------------------------------------------------------------

    @property
    def dim(self):
        return DIM[self.algebra]

    @property
    def width(self):
        return self.dim * self.n

    @property
    def terms(self):
        """{exp: HNumber}, built from the integer form on each read."""
        den, rows = self._ints
        return {e: _from_ints(self.algebra, v, den) for e, v in rows.items()}

    def is_zero(self):
        return not self._ints[1]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._ints[1]), default=-1)

    def component(self, beta):
        """The real-coefficient polynomial of unit component beta."""
        out = {}
        for exp, coef in self.terms.items():
            c = coef.coeffs[beta]
            if c != 0:
                out[exp] = HNumber.from_real(self.algebra, c)
        return HPoly(self.algebra, self.n, out)

    def coefficient(self, exp):
        den, rows = self._ints
        row = rows.get(tuple(exp))
        if row is None:
            return HNumber.zero(self.algebra)
        return _from_ints(self.algebra, row, den)

    def _check(self, other):
        if self.algebra != other.algebra or self.n != other.n:
            raise AlgebraMismatch("operands live on different variable spaces")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return _add(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return _add(self, other, -1)

    def __neg__(self):
        den, rows = self._ints
        return _int_poly(self.algebra, self.n,
                         {e: [-x for x in v] for e, v in rows.items()}, den)

    def __mul__(self, other):
        """Polynomial product; coefficients multiply in left-to-right order.

        Each side's integer form is read, and every term product
        accumulates through ``MUL_TABLE`` in ints."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, HNumber):
            return self.mul_const_right(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        self._check(other)
        den1, a = self._ints
        den2, b = other._ints
        rows = SPLIT_TABLE[self.algebra]
        d = self.dim
        acc = {}
        for e1, x in a.items():
            for e2, y in b.items():
                e = tuple(map(add, e1, e2))
                row = acc.get(e)
                if row is None:
                    row = acc[e] = [0] * d
                _mul_into(rows, x, y, row)
        return _from_int_terms(self.algebra, self.n, acc, den1 * den2)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, HNumber):
            return self.mul_const_left(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = HPoly.constant(self.algebra, self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, s):
        """s * p for a rational s; TypeError for any other nonzero s,
        unless p is zero."""
        den, rows = self._ints
        if not s or not rows:
            return _int_poly(self.algebra, self.n, {}, 1)
        if not isinstance(s, Rational):
            raise TypeError(f"cannot scale an exact polynomial by "
                            f"{type(s).__name__}")
        num = int(s.numerator)
        return _int_poly(self.algebra, self.n,
                         {e: [num * x for x in v] for e, v in rows.items()},
                         den * int(s.denominator))

    def mul_const_left(self, c):
        """c * p, multiplying every coefficient by c on the left."""
        return _mul_const(self, c, True)

    def mul_const_right(self, c):
        """p * c, multiplying every coefficient by c on the right."""
        return _mul_const(self, c, False)

    def conj(self):
        den, rows = self._ints
        return _int_poly(self.algebra, self.n,
                         {e: v[:1] + [-x for x in v[1:]]
                          for e, v in rows.items()}, den)

    # -- calculus -----------------------------------------------------------------

    def partial_flat(self, i):
        """d/d xi_i for a flat real-coordinate index."""
        if not (0 <= i < self.width):
            raise IndexError("coordinate index out of range")
        den, rows = self._ints
        out = {}
        for exp, v in rows.items():
            e = exp[i]
            if e:   # distinct exponents stay distinct, so nothing collides
                out[exp[:i] + (e - 1,) + exp[i + 1:]] = \
                    v if e == 1 else [e * x for x in v]
        return _int_poly(self.algebra, self.n, out, den)

    def evaluate(self, point):
        """Value at a point (flat coordinates); exact in, exact out.

        At an exact point x = X / D (D the common denominator of its
        coordinates) the sum runs over the integer form, each term padded to
        the top degree t: the value is sum_e c_e X^e D^(t - |e|) over
        den D^t, one ``Fraction`` per component."""
        point = tuple(point)
        if len(point) != self.width:
            raise ValueError("point width mismatch")
        if any(isinstance(x, float) for x in point):
            pt = [float(x) for x in point]
            acc = [0.0] * self.dim
            den, rows = self._ints
            for exp, row in rows.items():
                m = 1.0
                for x, e in zip(pt, exp):
                    if e:
                        m *= x ** e
                for idx, v in enumerate(row):
                    if v:
                        # int / int rounds once, as float(Fraction(v, den))
                        acc[idx] += v / den * m
            return HNumber(self.algebra, acc, "float")
        scale, xs = _integer_point(point)
        den, rows = self._ints
        top = self.degree()
        acc = [0] * self.dim
        for exp, row in rows.items():
            m = scale ** (top - sum(exp))
            for x, e in zip(xs, exp):
                if e:
                    m *= x ** e
            for idx, c in enumerate(row):
                if c:
                    acc[idx] += c * m
        return _from_ints(self.algebra, acc, den * scale ** max(top, 0))

    # -- comparison / io ------------------------------------------------------------

    def __eq__(self, other):
        """The integer form is canonical, so equal forms are equal terms."""
        if not isinstance(other, HPoly):
            return NotImplemented
        return (self.algebra == other.algebra and self.n == other.n
                and self._ints == other._ints)

    def __hash__(self):
        den, rows = self._ints
        return hash((self.algebra, self.n, den,
                     frozenset((e, tuple(v)) for e, v in rows.items())))

    def __repr__(self):
        items = sorted(self.terms.items())
        body = " + ".join(f"({c}) x^{list(e)}" for e, c in items[:6])
        if len(items) > 6:
            body += f" + ... ({len(items)} terms)"
        return f"HPoly[{self.algebra}, n={self.n}]({body or '0'})"

    def to_json(self):
        """From the integer form, each coefficient as ``{"algebra", "c"}``
        with component v / den in lowest terms, "p/q", or "p" when q is 1."""
        den, rows = self._ints
        terms = []
        for exp in sorted(rows):
            comps = []
            for v in rows[exp]:
                g = gcd(v, den)
                comps.append(f"{v // g}/{den // g}" if g != den else
                             str(v // g))
            terms.append({"exp": list(exp),
                          "coef": {"algebra": self.algebra, "c": comps}})
        return {
            "schema_version": SCHEMA_VERSION,
            "algebra": self.algebra,
            "n": self.n,
            "terms": terms,
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of :meth:`to_json`: KeyError for a missing key, ValueError
        for any other malformed shape.  The integer form is read straight
        from the components (:func:`_read_coef`), not through ``HNumber``."""
        if not isinstance(obj, dict):
            raise ValueError("a polynomial is a JSON object")
        version = obj.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ValueError("unsupported polynomial schema_version")
        n, items = obj["n"], obj["terms"]
        if type(n) is not int:      # a JSON true is not an integer
            raise ValueError("n must be an integer")
        if not isinstance(items, list) or \
                not all(isinstance(t, dict) for t in items):
            raise ValueError("terms must be a list of objects")
        terms = {}
        for t in items:
            exp = t["exp"]
            if not isinstance(exp, list) or \
                    not all(type(e) is int for e in exp):
                raise ValueError("an exponent is a list of integers")
            coef = _read_coef(t["coef"])
            if tuple(exp) in terms:
                raise ValueError(f"repeated exponent {exp}")
            terms[tuple(exp)] = coef
        zero = cls(obj["algebra"], n)   # checks the algebra and n
        for exp, (algebra, _) in terms.items():
            _check_term(exp, zero.width, zero.algebra, algebra)
        den = lcm(*[q for _, pq in terms.values() for _, q in pq])
        return _from_int_terms(zero.algebra, n, {
            e: [p * (den // q) for p, q in pq]
            for e, (_, pq) in terms.items()}, den)


def _check_term(exp, width, algebra, coef_algebra):
    """The per-term checks of the constructor, shared with from_json."""
    if len(exp) != width:
        raise ValueError(f"exponent width {len(exp)} != {width}")
    if any(e < 0 for e in exp):
        raise ValueError("negative exponent")
    if coef_algebra != algebra:
        raise AlgebraMismatch("coefficient algebra mismatch")


def _read_coef(obj):
    """(algebra, [(p, q), ...]) of an exact payload coefficient, component i
    being p / q.  JSON ints and ASCII "p" or "p/q" are read with ``int()``;
    any other coefficient, or one past the integer string limit, goes the
    :meth:`HNumber.from_json` route, with its checks and messages."""
    if type(obj) is dict and obj.get("algebra") in ALGEBRAS \
            and type(obj.get("c")) is list \
            and len(obj["c"]) == DIM[obj["algebra"]]:
        pq = []
        try:
            for c in obj["c"]:
                m = type(c) is str and _RATIO.fullmatch(c)
                if not (m or type(c) is int):
                    break
                pq.append((int(m[1]), int(m[2] or 1)) if m else (c, 1))
            else:
                return obj["algebra"], pq
        except ValueError:              # digits past the integer string limit
            pass
    c = HNumber.from_json(obj)
    if c.backend != "exact":
        raise ValueError("HPoly coefficients must be exact")
    return c.algebra, [(v.numerator, v.denominator) for v in c.coeffs]


def _from_int_terms(algebra, n, acc, den):
    """The polynomial with coefficients acc[exp][i] / den; zero rows drop.
    The result owns the rows that stay, so the caller must not write
    ``acc`` afterwards."""
    return _int_poly(algebra, n, {e: v for e, v in acc.items() if any(v)},
                     den)


def _int_poly(algebra, n, rows, den):
    """The polynomial with coefficients rows[exp][i] / den, every row
    nonzero.

    The rows, divided with ``den`` by their common gcd, become the result's
    integer form: exactly the canonical pair the constructor would compute
    from its coefficients.  Rows are shared, never written: they may be an
    operand's."""
    if den != 1:
        g = den
        for v in rows.values():
            g = gcd(g, *v)
            if g == 1:
                break
        if g != 1:
            den //= g
            rows = {e: [x // g for x in v] for e, v in rows.items()}
    return _lowest_poly(algebra, n, rows, den)


def _lowest_poly(algebra, n, rows, den):
    """The polynomial whose integer form is (den, rows), already in lowest
    terms: den > 0, every row nonzero, and no prime divides den and every
    entry.  The rows become the result's, shared, never written."""
    out = HPoly.__new__(HPoly)
    out.algebra, out.n, out._ints = algebra, n, (den, rows)
    return out


def _add(p, q, sign):
    """p + sign * q for sign = +-1, term by term over the integer forms: p's
    terms in order, then q's new exponents; a cancelled term drops in
    place.  Rows that need no rescaling are shared with the operands."""
    p._check(q)
    den1, a = p._ints
    den2, b = q._ints
    den = lcm(den1, den2)
    f1, f2 = den // den1, sign * (den // den2)
    rows = dict(a) if f1 == 1 else \
        {e: [f1 * x for x in v] for e, v in a.items()}
    for e, y in b.items():
        x = rows.get(e)
        if x is None:
            rows[e] = y if f2 == 1 else [f2 * v for v in y]
        else:
            s = [u + f2 * v for u, v in zip(x, y)]
            if any(s):
                rows[e] = s
            else:
                del rows[e]
    return _int_poly(p.algebra, p.n, rows, den)


def _mul_const(p, c, left):
    """c * p (left) or p * c, each coefficient times c in ints.  A rational
    c scales; other operands raise what the term-wise ``HNumber`` product
    raises, unless p is zero."""
    if isinstance(c, (int, Fraction)):
        return p.scale(c)
    den, rows = p._ints
    if not rows:
        return _int_poly(p.algebra, p.n, {}, 1)
    if not isinstance(c, HNumber):
        raise TypeError(f"cannot multiply an exact polynomial by "
                        f"{type(c).__name__}")
    if c.algebra != p.algebra or c.backend != "exact":
        raise AlgebraMismatch(f"cannot multiply an exact {p.algebra} "
                              f"polynomial by a {c.backend} {c.algebra} "
                              "number")
    dc = lcm(*[x.denominator for x in c.coeffs])
    z = _numerators(c.coeffs, dc)
    split = SPLIT_TABLE[p.algebra]
    d = p.dim
    acc = {}
    for e, v in rows.items():
        row = acc[e] = [0] * d
        if left:
            _mul_into(split, z, v, row)
        else:
            _mul_into(split, v, z, row)
    return _from_int_terms(p.algebra, p.n, acc, den * dc)


def _integer_point(point):
    """(D, X) with point = X / D: D is the lcm of the coordinates'
    denominators and X lists integers."""
    pt = [x if isinstance(x, (int, Fraction)) else Fraction(x)
          for x in point]
    scale = lcm(*[x.denominator for x in pt])
    return scale, [x.numerator * (scale // x.denominator) for x in pt]


def _int_gradient(p, point):
    """The values of every partial d p / d xi_i at an exact point, in one
    pass over p's integer form, as (den, rows): component b of the value of
    d p / d xi_i is rows[i][b] / den.  Each term's derivatives are padded to
    degree deg p - 1, as :meth:`HPoly.evaluate` pads to deg p."""
    if len(point) != p.width:
        raise ValueError("point width mismatch")
    scale, xs = _integer_point(point)
    den, terms = p._ints
    top = p.degree()
    rows = [[0] * p.dim for _ in xs]
    for exp, c in terms.items():
        pad = scale ** (top - sum(exp))
        powers = [(i, xs[i], e) for i, e in enumerate(exp) if e]
        for i, x, e in powers:
            m = e * pad * x ** (e - 1)
            for k, y, f in powers:
                if k != i:
                    m *= y ** f
            row = rows[i]
            for b, v in enumerate(c):
                if v:
                    row[b] += v * m
    return den * scale ** max(top - 1, 0), rows


# ---------------------------------------------------------------------------
# Fueter operators
# ---------------------------------------------------------------------------

def _stencils(dbar):
    same = (tuple((beta, beta) for beta in range(len(dbar))), ())
    return {"dbar": (1, dbar),
            "d": (1, dbar[:1] + tuple((neg, pos) for pos, neg in dbar[1:])),
            "lap": (2, (same,) * len(dbar))}


#: _STENCILS[algebra][op] == (k, rows): ``op`` lowers exponent d*h + alpha by
#: k and adds component beta into gamma, with the sign, for each (beta, gamma)
#: of rows[alpha] = (pos, neg).  dbar is ``SPLIT_TABLE`` itself (i_alpha c), d
#: flips its signs for alpha > 0 (conj(i_alpha) = -i_alpha), the Laplacian
#: adds each component to itself.  The right-module operator has no stencil:
#: ``forms`` reaches it by conjugation.
_STENCILS = {algebra: _stencils(SPLIT_TABLE[algebra]) for algebra in ALGEBRAS}


def _derive(p, h, op):
    """The operator ``op`` of ``_STENCILS`` in variable h.

    The term c x^exp with e = exp[i] >= k, i = d*h + alpha, adds e * u_alpha c
    (e(e-1) c for the Laplacian) to x^(exp - k e_i), in ints over p's
    integer form, whose rows it only reads.  The loop runs alpha by alpha, as
    the sum is written."""
    if not 0 <= h < p.n:
        raise IndexError("variable index out of range")
    d = DIM[p.algebra]
    k, stencil = _STENCILS[p.algebra][op]
    den, ints = p._ints
    acc = {}
    for alpha in range(d):
        i = d * h + alpha
        pos, neg = stencil[alpha]
        for exp, c in ints.items():
            e = exp[i]
            if e >= k:
                f = e if k == 1 else e * (e - 1)
                nexp = exp[:i] + (e - k,) + exp[i + 1:]
                row = acc.get(nexp)
                if row is None:
                    row = acc[nexp] = [0] * d
                for beta, gamma in pos:
                    row[gamma] += f * c[beta]
                for beta, gamma in neg:
                    row[gamma] -= f * c[beta]
    return _from_int_terms(p.algebra, p.n, acc, den)


def fueter_dbar(p, h):
    """Conjugate-Fueter derivative in variable h:  sum_a i_a * dp/dx_{h,a}."""
    return _derive(p, h, "dbar")


def fueter_d(p, h):
    """Fueter derivative in variable h:  sum_a conj(i_a) * dp/dx_{h,a}."""
    return _derive(p, h, "d")


def laplacian(p, h):
    """Coordinate Laplacian in variable h:  sum_a d^2 p / d x_{h,a}^2."""
    return _derive(p, h, "lap")


def dbar_system(u):
    """The overdetermined conjugate-Fueter system: [dbar_h u for all h]."""
    return [fueter_dbar(u, h) for h in range(u.n)]


# ---------------------------------------------------------------------------
# the conjugate-Fueter stencil in the divided-power basis
# ---------------------------------------------------------------------------

def monomials(width, k):
    """Exponent tuples of total degree k in ``width`` coordinates, in
    decreasing lexicographic order."""
    out = []
    for combo in combinations_with_replacement(range(width), k):
        exp = [0] * width
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


# Monomials packed into one int: exponent fields of a fixed bit width,
# coordinate 0 the most significant, so int order is tuple order.  Column
# x^[mu] i_beta of a graded system lies in class beta XOR odd(mu).

def _units(width, bits):
    """The packed e_i of ``width`` coordinates in ``bits``-bit fields."""
    return [1 << bits * i for i in reversed(range(width))]


def _pack(exp, bits):
    """The exponent tuple ``exp`` as one int of ``bits``-bit fields; every
    entry must be below 2**bits."""
    key = 0
    for e in exp:
        key = key << bits | e
    return key


def _unpack(key, bits, width):
    """The exponent tuple of ``width`` coordinates packed in ``key``."""
    mask = (1 << bits) - 1
    return tuple(key >> bits * i & mask for i in reversed(range(width)))


def _parity_mask(weights, width, bits):
    """The low bit of each field i, of ``width`` coordinates packed in
    ``bits``-bit fields, with weights[i mod len(weights)] = 1: the popcount
    of key & mask is odd exactly when the sum of weights[i mod d] mu_i is,
    for the monomial mu packed in key."""
    d = len(weights)
    return sum(one for i, one in enumerate(_units(width, bits))
               if weights[i % d])


@lru_cache(maxsize=64)
def _class_masks(d, width, bits):
    """The masks of :func:`_odd_class`: per bit j of a unit index, from the
    highest, the parity mask of the fields i with bit j of i mod d set."""
    return tuple(_parity_mask([a >> j & 1 for a in range(d)], width, bits)
                 for j in reversed(range(d.bit_length() - 1)))


def _odd_class(key, masks):
    """The odd class of the packed monomial ``key``, the XOR of i mod d over
    the coordinates i with an odd exponent: each bit, from the highest, is
    the parity of its odd fields under its mask (:func:`_class_masks`)."""
    odd = 0
    for m in masks:
        odd = odd << 1 | (key & m).bit_count() & 1
    return odd


def compat_pbar(g):
    """Compatibility residuals of a would-be right-hand side g.

    Quaternionic input must have n == 2 and returns the pair described in the
    module docstring; octonionic input may have any n >= 2 and returns the
    n(n-1) residuals over ordered pairs (l, m) in lexicographic order.
    All vanish when g is in the image of ``dbar_system``; the converse holds
    for n == 2 only (for O with n == 3 the pairwise rows of degree 2 have
    rank 48, the syzygies of degree 2 number 64).
    """
    if not g:
        raise ValueError("empty system")
    algebra, n = g[0].algebra, g[0].n
    if len(g) != n:
        raise ValueError("g must have one component per variable")
    for comp in g:
        if comp.algebra != algebra or comp.n != n:
            raise AlgebraMismatch("mixed components")
    if algebra == "H" and n != 2:
        raise ValueError("quaternionic residual pair is defined for n == 2")
    if n < 2:
        raise ValueError("need at least two variables")
    dm = [fueter_d(g[m], m) for m in range(n)]
    out = []
    for l, m in permutations(range(n), 2):
        lap, dd = laplacian(g[l], m), fueter_dbar(dm[m], l)
        out.append(dd - lap if algebra == "H" else lap - dd)
    return out


def fueter_transform(u_fn, v_fn, q):
    """Slice-function lift  F(q) = u(x0, r) + (Im q / r) v(x0, r),  r = |Im q|.

    ``u_fn`` and ``v_fn`` take (x0, r) floats; ``q`` is a float-backend
    quaternion (exact input is converted).  On the real axis (r = 0) the value
    is u(x0, 0) provided v(x0, 0) == 0, otherwise the lift is singular there.
    """
    if not isinstance(q, HNumber):
        raise TypeError("q must be an HNumber")
    qf = q.to_float()
    x0 = qf.coeffs[0]
    im = qf.coeffs[1:]
    r = sum(c * c for c in im) ** 0.5
    if r == 0.0:
        v0 = v_fn(x0, 0.0)
        if v0 != 0.0:
            raise ValueError("axis singularity: v(x0, 0) != 0")
        out = [u_fn(x0, 0.0)] + [0.0] * (qf.dim - 1)
        return HNumber(qf.algebra, out, "float")
    u = u_fn(x0, r)
    v = v_fn(x0, r)
    out = [u] + [c / r * v for c in im]
    return HNumber(qf.algebra, out, "float")
