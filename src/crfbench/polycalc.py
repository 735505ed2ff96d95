"""Polynomial calculus for the conjugate-Fueter operators.

Polynomials are sparse maps from exponent tuples to exact hypercomplex
coefficients.  A polynomial in n quaternionic (octonionic) variables lives on
4n (8n) real coordinates; the real coordinate ``alpha`` of variable ``h``
has flat index ``dim*h + alpha``.  Variable indices ``h`` are 0-based.

Operators (all left-multiplication convention; ``i_a`` are the imaginary
units, ``bar`` is conjugation):

* ``fueter_dbar(p, h)``  =  sum_a i_a  * d p / d x_{h,a}
* ``fueter_d(p, h)``     =  sum_a conj(i_a) * d p / d x_{h,a}
* ``laplacian(p, h)``    =  sum_a d^2 p / d x_{h,a}^2

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

from fractions import Fraction

from .hypercomplex import ALGEBRAS, DIM, AlgebraMismatch, HNumber

SCHEMA_VERSION = 1


class HPoly:
    """Sparse polynomial with exact quaternion/octonion coefficients.

    ``terms`` maps exponent tuples (length ``dim*n``) to nonzero ``HNumber``
    coefficients with exact backend.  Real scalars embed as coefficients with
    only component 0.
    """

    __slots__ = ("algebra", "n", "terms")

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
                if len(exp) != width:
                    raise ValueError(f"exponent width {len(exp)} != {width}")
                if any(e < 0 for e in exp):
                    raise ValueError("negative exponent")
                if not isinstance(coef, HNumber):
                    coef = HNumber.from_real(algebra, coef)
                if coef.algebra != algebra:
                    raise AlgebraMismatch("coefficient algebra mismatch")
                if coef.backend != "exact":
                    raise ValueError("HPoly coefficients must be exact")
                if not coef.is_zero():
                    clean[exp] = clean[exp] + coef if exp in clean else coef
        self.terms = {e: c for e, c in clean.items() if not c.is_zero()}

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
        d = DIM[algebra]
        width = d * n
        terms = {}
        for alpha in range(d):
            exp = [0] * width
            exp[d * h + alpha] = 1
            u = HNumber.unit(algebra, alpha)
            terms[tuple(exp)] = u if alpha == 0 else -u
        return cls(algebra, n, terms)

    # -- structure ------------------------------------------------------------

    @property
    def dim(self):
        return DIM[self.algebra]

    @property
    def width(self):
        return self.dim * self.n

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def component(self, beta):
        """The real-coefficient polynomial of unit component beta."""
        out = {}
        for exp, coef in self.terms.items():
            c = coef.coeffs[beta]
            if c != 0:
                out[exp] = HNumber.from_real(self.algebra, c)
        return HPoly(self.algebra, self.n, out)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), HNumber.zero(self.algebra))

    def _check(self, other):
        if self.algebra != other.algebra or self.n != other.n:
            raise AlgebraMismatch("operands live on different variable spaces")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            if exp in terms:
                s = terms[exp] + coef
                if s.is_zero():
                    del terms[exp]
                else:
                    terms[exp] = s
            else:
                terms[exp] = coef
        out = HPoly.__new__(HPoly)
        out.algebra, out.n, out.terms = self.algebra, self.n, terms
        return out

    def __sub__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = HPoly.__new__(HPoly)
        out.algebra, out.n = self.algebra, self.n
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        """Polynomial product; coefficients multiply in left-to-right order."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, HNumber):
            return self.mul_const_right(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        self._check(other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in acc:
                    acc[e] = acc[e] + c
                else:
                    acc[e] = c
        out = HPoly.__new__(HPoly)
        out.algebra, out.n = self.algebra, self.n
        out.terms = {e: c for e, c in acc.items() if not c.is_zero()}
        return out

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
        out = HPoly.__new__(HPoly)
        out.algebra, out.n = self.algebra, self.n
        out.terms = {e: c.scale(s) for e, c in self.terms.items()} if s else {}
        return out

    def mul_const_left(self, c):
        """c * p, multiplying every coefficient by c on the left."""
        out = {e: c * a for e, a in self.terms.items()}
        return HPoly(self.algebra, self.n, out)

    def mul_const_right(self, c):
        """p * c, multiplying every coefficient by c on the right."""
        out = {e: a * c for e, a in self.terms.items()}
        return HPoly(self.algebra, self.n, out)

    def conj(self):
        out = HPoly.__new__(HPoly)
        out.algebra, out.n = self.algebra, self.n
        out.terms = {e: c.conj() for e, c in self.terms.items()}
        return out

    # -- calculus -----------------------------------------------------------------

    def partial_flat(self, i):
        """d/d xi_i for a flat real-coordinate index."""
        if not (0 <= i < self.width):
            raise IndexError("coordinate index out of range")
        acc = {}
        for exp, coef in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            nexp = exp[:i] + (e - 1,) + exp[i + 1:]
            c = coef.scale(e)
            acc[nexp] = acc[nexp] + c if nexp in acc else c
        out = HPoly.__new__(HPoly)
        out.algebra, out.n = self.algebra, self.n
        out.terms = {e: c for e, c in acc.items() if not c.is_zero()}
        return out

    def partial(self, h, alpha):
        """d/d x_{h,alpha}."""
        if not (0 <= h < self.n):
            raise IndexError("variable index out of range")
        return self.partial_flat(self.dim * h + alpha)

    def evaluate(self, point):
        """Value at a point (flat coordinates); exact in, exact out."""
        point = tuple(point)
        if len(point) != self.width:
            raise ValueError("point width mismatch")
        is_float = any(isinstance(x, float) for x in point)
        if is_float:
            acc = [0.0] * self.dim
            pt = [float(x) for x in point]
            for exp, coef in self.terms.items():
                m = 1.0
                for x, e in zip(pt, exp):
                    if e:
                        m *= x ** e
                for idx, c in enumerate(coef.coeffs):
                    if c:
                        acc[idx] += float(c) * m
            return HNumber(self.algebra, acc, "float")
        acc = [Fraction(0)] * self.dim
        for exp, coef in self.terms.items():
            m = Fraction(1)
            for x, e in zip(point, exp):
                if e:
                    m *= Fraction(x) ** e
            for idx, c in enumerate(coef.coeffs):
                if c:
                    acc[idx] += c * m
        return HNumber(self.algebra, acc)

    def substitute_linear(self, i, coeffs, const):
        """Replace coordinate i by the affine form sum_j coeffs[j]*x_j + const.

        ``coeffs`` is indexed by flat coordinate and must have ``coeffs[i] == 0``.
        Used for reduction modulo affine hypersurface equations.
        """
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.width or coeffs[i] != 0:
            raise ValueError("bad substitution data")
        const = Fraction(const)
        repl = HPoly.constant(self.algebra, self.n, const)
        for j, c in enumerate(coeffs):
            if c:
                repl = repl + HPoly(
                    self.algebra, self.n,
                    {tuple(1 if t == j else 0 for t in range(self.width)):
                     HNumber.from_real(self.algebra, c)})
        out = HPoly.zero(self.algebra, self.n)
        powers = {0: HPoly.constant(self.algebra, self.n, 1)}
        for exp, coef in self.terms.items():
            e = exp[i]
            if e not in powers:
                p = max(k for k in powers if k < e)
                cur = powers[p]
                for k in range(p, e):
                    cur = cur * repl
                    powers[k + 1] = cur
            rest = exp[:i] + (0,) + exp[i + 1:]
            mono = HPoly(self.algebra, self.n, {rest: coef})
            out = out + mono * powers[e]
        return out

    # -- comparison / io ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return (self.algebra == other.algebra and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        items = sorted(self.terms.items())
        body = " + ".join(f"({c}) x^{list(e)}" for e, c in items[:6])
        if len(items) > 6:
            body += f" + ... ({len(items)} terms)"
        return f"HPoly[{self.algebra}, n={self.n}]({body or '0'})"

    def to_json(self):
        terms = []
        for exp in sorted(self.terms):
            terms.append({"exp": list(exp), "coef": self.terms[exp].to_json()})
        return {
            "schema_version": SCHEMA_VERSION,
            "algebra": self.algebra,
            "n": self.n,
            "terms": terms,
        }

    @classmethod
    def from_json(cls, obj):
        algebra = obj["algebra"]
        n = obj["n"]
        terms = {}
        for t in obj["terms"]:
            coef = HNumber.from_json(t["coef"])
            if coef.backend != "exact":
                raise ValueError("HPoly coefficients must be exact")
            terms[tuple(t["exp"])] = coef
        return cls(algebra, n, terms)


# ---------------------------------------------------------------------------
# Fueter operators
# ---------------------------------------------------------------------------

def _fueter(p, h, conjugate, right):
    """sum_a u_a * dp/dx_{h,a} with u_a = i_a, or conj(i_a) when ``conjugate``;
    ``right`` multiplies u_a on the right (quaternionic only)."""
    if right and p.algebra != "H":
        raise ValueError("right-module operators are quaternionic only")
    out = HPoly.zero(p.algebra, p.n)
    for alpha in range(p.dim):
        u = HNumber.unit(p.algebra, alpha)
        if conjugate:
            u = u.conj()
        part = p.partial(h, alpha)
        out = out + (part.mul_const_right(u) if right else part.mul_const_left(u))
    return out


def fueter_dbar(p, h):
    """Conjugate-Fueter derivative in variable h:  sum_a i_a * dp/dx_{h,a}."""
    return _fueter(p, h, conjugate=False, right=False)


def fueter_d(p, h):
    """Fueter derivative in variable h:  sum_a conj(i_a) * dp/dx_{h,a}."""
    return _fueter(p, h, conjugate=True, right=False)


def fueter_dbar_right(p, h):
    """Right-module variant  sum_a dp/dx_{h,a} * i_a  (quaternionic only)."""
    return _fueter(p, h, conjugate=False, right=True)


def fueter_d_right(p, h):
    """Right-module variant  sum_a dp/dx_{h,a} * conj(i_a)  (quaternionic only)."""
    return _fueter(p, h, conjugate=True, right=True)


def laplacian(p, h):
    """Coordinate Laplacian in variable h."""
    out = HPoly.zero(p.algebra, p.n)
    for alpha in range(p.dim):
        out = out + p.partial(h, alpha).partial(h, alpha)
    return out


def dbar_system(u):
    """The overdetermined conjugate-Fueter system: [dbar_h u for all h]."""
    return [fueter_dbar(u, h) for h in range(u.n)]


def compat_pbar(g):
    """Compatibility residuals of a would-be right-hand side g.

    Quaternionic input must have n == 2 and returns the pair described in the
    module docstring; octonionic input may have any n >= 2 and returns the
    n(n-1) residuals over ordered pairs (l, m) in lexicographic order.
    All vanish identically iff g is in the image of ``dbar_system``
    (for polynomial data this is the exact obstruction).
    """
    if not g:
        raise ValueError("empty system")
    algebra, n = g[0].algebra, g[0].n
    if len(g) != n:
        raise ValueError("g must have one component per variable")
    for comp in g:
        if comp.algebra != algebra or comp.n != n:
            raise AlgebraMismatch("mixed components")
    if algebra == "H":
        if n != 2:
            raise ValueError("quaternionic residual pair is defined for n == 2")
        p0 = fueter_dbar(fueter_d(g[1], 1), 0) - laplacian(g[0], 1)
        p1 = fueter_dbar(fueter_d(g[0], 0), 1) - laplacian(g[1], 0)
        return [p0, p1]
    if n < 2:
        raise ValueError("need at least two variables")
    out = []
    for l in range(n):
        for m in range(n):
            if l == m:
                continue
            out.append(laplacian(g[l], m) - fueter_dbar(fueter_d(g[m], m), l))
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
