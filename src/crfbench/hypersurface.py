"""Tangential conjugate-Fueter operators on real hypersurfaces of H^2.

A hypersurface S = {rho = 0} is given by a scalar polynomial rho with exact
rational coefficients on R^8 (two quaternionic variables; coordinates
x = (x_0..x_3) for the first, y = (y_0..y_3) for the second).  The unit
normal nu = grad(rho)/|grad(rho)| packs into a pair of quaternions
(nu_1, nu_2); the hermitian pairing used throughout is

    <(p_1, p_2), (r_1, r_2)>  =  conj(p_1) r_1 + conj(p_2) r_2.

For a polynomial f (regarded as its own ambient extension) the normal
component and the tangential coordinate derivatives are

    f_perp    = df/dnu - <nu, (dbar_1 f, dbar_2 f)>
    f_(xi_i)  = df/dxi_i - g_i <g, Df> / |g|^2        (g = grad rho)

which are extension-independent on S.  The tangential conjugate-Fueter
derivatives pack them with left units:

    f_(qbar_h) = sum_a i_a f_(x_{h,a}) = dbar_h f - g_h <g, Df> / |g|^2,

with g_h the quaternion packing of gradient block h, and the normal component
is f_perp = sum_i nu_i f_(xi_i).  One helper, ``_tangential``, forms
<g, Df> and this projection from the eight partials of f, on every route:
exact and float points (``derived_at``), ambient polynomials on affine S
(``tangential_polys``: the derived functions and the pair from one call),
and on curved S the values at sample and stencil points of f's eight
partials, which ``is_crf`` and ``is_admissible`` form once per call.  f is
CRF on S iff both vanish identically on S; f is *admissible* iff moreover
all eight derived functions f_(xi_i) are CRF on S.

Everything is exact at rational points (the tangential derivatives only
ever divide by |g|^2); the unit normal and f_perp are exact exactly when
|g|^2 is a perfect rational square.  numpy is imported only inside the float
work: ``Hypersurface.hessian_at``, ``omega_value``,
``oriented_tangent_frame``, the curved branch of ``sample_points`` and the
SVD path of ``rank_condition``.  Affine surfaces sample exact points, so the
exact lane never loads numpy.

Orientation.  S carries the volume form

    omega(t_1, ..., t_7) = -det[nu, t_1, ..., t_7]

(frames are positively oriented when the *outward* normal of {rho > 0}
followed by the frame is positively oriented in R^8).  This is the sign
convention validated by the restriction identities

    (Dqbar_1 ^ dy)|_S = -conj(nu_1) omega,
    (dx ^ Dqbar_2)|_S = -conj(nu_2) omega,
    Dq_1|_S ^ d_(q_1) f = -f_(qbar_1) dx|_S   (and symmetrically in q_2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import add
from typing import NamedTuple

from .crfsolve import rho_adic_digits
from .hypercomplex import HNumber
from .polycalc import HPoly, _int_gradient

COORD_NAMES = ("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")


def _is_exact_point(p):
    return all(not isinstance(c, float) for c in p)


def _exact_sqrt(fr):
    """sqrt of a nonnegative Fraction if it is a perfect square, else None."""
    fr = Fraction(fr)
    if fr < 0:
        return None
    num = math.isqrt(fr.numerator)
    den = math.isqrt(fr.denominator)
    if num * num == fr.numerator and den * den == fr.denominator:
        return Fraction(num, den)
    return None


def _log2(c):
    """log2 |c| of a nonzero Fraction, past the float range too."""
    return math.log2(abs(c.numerator)) - math.log2(c.denominator)


def _length_scale(rho):
    """k with 2^k an estimate of the size of {rho = 0}, rounded to a power
    of two: the largest (|c_0| / |c_e|)^(1/|e|) over the terms c_e x^e of
    rho with e != 0, c_0 its constant term (r on the sphere |q|^2 = r^2);
    k = 0 when c_0 = 0."""
    c0 = rho.coefficient((0,) * rho.width).coeffs[0]
    if not c0:
        return 0
    return round(max((_log2(c0) - _log2(coef.coeffs[0])) / sum(e)
                     for e, coef in rho.terms.items() if any(e)))


class AffineForm(NamedTuple):
    """Data of an affine rho = g_p (x_p - s): the constant gradient, the
    pivot p (largest |gradient[i]|, first on ties) and s, the value of x_p
    on S as a polynomial free of x_p."""
    gradient: tuple
    pivot: int
    s: HPoly


class Hypersurface:
    """Zero set of a real-coefficient, nonconstant scalar polynomial on R^8."""

    def __init__(self, rho):
        if not isinstance(rho, HPoly):
            raise TypeError("rho must be an HPoly")
        if rho.algebra != "H" or rho.n != 2:
            raise ValueError("hypersurfaces live in two quaternionic variables")
        den, rows = rho._ints
        if any(any(v[1:]) for v in rows.values()):
            raise ValueError("rho must be scalar (real-valued)")
        if rho.degree() < 1:
            raise ValueError("rho must be nonconstant")
        if rho.degree() > 1:
            # {c rho = 0} is one surface for every c != 0, and the float
            # lanes of a curved S use absolute thresholds: they see rho over
            # its largest |coefficient|
            top = max(abs(v[0]) for v in rows.values())
            rho = rho.scale(Fraction(den, top))
        self.rho = rho
        self.gradient = [rho.partial_flat(i) for i in range(8)]
        self._hessian = None
        self._affine = None
        # curved S: Newton starts and float points are read at the scale
        # 2^k of S; affine S samples exact points, at any scale
        self._size_exp = 0 if self.is_affine else _length_scale(rho)
        if self.is_affine:
            origin = (0,) * 8
            grad = tuple(g.coefficient(origin).coeffs[0] for g in self.gradient)
            piv = max(range(8), key=lambda i: abs(grad[i]))
            s = HPoly.coordinate("H", 2, piv // 4, piv % 4) - \
                rho.scale(1 / grad[piv])
            self._affine = AffineForm(grad, piv, s)

    # -- basic geometry ------------------------------------------------------

    @property
    def is_affine(self):
        return self.rho.degree() <= 1

    def affine_form(self):
        """The :class:`AffineForm` of an affine surface."""
        if self._affine is None:
            raise ValueError("the surface is not affine")
        return self._affine

    def gradient_at(self, p):
        """grad rho at p: floats at a float point, exact otherwise; on an
        affine S the stored constant gradient."""
        if self._affine is None:
            return [g.evaluate(p).coeffs[0] for g in self.gradient]
        grad = self._affine.gradient
        if _is_exact_point(p):
            return list(grad)
        return [float(c) for c in grad]

    def hessian_at(self, p):
        import numpy as np
        if self._hessian is None:
            self._hessian = [[g.partial_flat(j) for j in range(8)]
                             for g in self.gradient]
        return np.array([[float(h.evaluate(p).coeffs[0]) for h in row]
                         for row in self._hessian])

    def normal_at(self, p):
        """Unit normal as a quaternion pair; exact when |grad|^2 is a perfect
        square at an exact point, float otherwise."""
        g = self.gradient_at(p)
        nsq = sum(c * c for c in g)
        if nsq == 0:
            raise ZeroDivisionError("singular point of rho")
        if not any(isinstance(c, float) for c in g):
            root = _exact_sqrt(nsq)
            if root is not None:
                inv = Fraction(1) / root
                vals = [c * inv for c in g]
                return (HNumber("H", vals[:4]), HNumber("H", vals[4:]))
        gn = [float(c) for c in g]
        inv = 1.0 / math.sqrt(float(nsq))
        vals = [c * inv for c in gn]
        return (HNumber("H", vals[:4], "float"),
                HNumber("H", vals[4:], "float"))

    # -- frames and orientation ------------------------------------------------

    def omega_value(self, p, frame):
        """Value of the oriented volume form of S on seven tangent vectors."""
        import numpy as np
        g = [float(c) for c in self.gradient_at(p)]
        norm = math.sqrt(sum(c * c for c in g))
        nu = [c / norm for c in g]
        mat = np.array([nu] + [[float(x) for x in v] for v in frame])
        return -float(np.linalg.det(mat))

    def oriented_tangent_frame(self, p):
        """Orthonormal tangent frame with omega = +1 (float)."""
        import numpy as np
        g = np.array([float(c) for c in self.gradient_at(p)])
        nu = g / np.linalg.norm(g)
        # rows 1.. of the right factor of the SVD of nu span its complement
        _, _, vh = np.linalg.svd(nu.reshape(1, -1))
        frame = [vh[i] for i in range(1, 8)]
        if self.omega_value(p, frame) < 0:
            frame[-1] = -frame[-1]
        return [v.copy() for v in frame]

    def tangent_vectors_rational(self, p, count, seed=0):
        """Exact tangent vectors at an exact point (affine or not)."""
        rng = random.Random(seed)
        g = self.gradient_at(p)
        piv = max(range(8), key=lambda i: abs(g[i]))
        if g[piv] == 0:
            raise ZeroDivisionError("singular point of rho")
        out = []
        while len(out) < count:
            v = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
            v[piv] = 0
            v[piv] = -sum(Fraction(c) * x for c, x in zip(g, v)) / Fraction(g[piv])
            if any(v):
                out.append(v)
        return out

    # -- sampling ----------------------------------------------------------------

    def sample_points(self, count, seed=0):
        """Points on S: exact rationals for affine surfaces, Newton-projected
        floats otherwise; an attempt fails where rho or its gradient is not
        finite.

        Both float tests are scale-free, so they do not change when S and
        the points are dilated about the origin, and each Newton run starts
        from a point of uniform(-2, 2)^8 times 2^k, 2^k the size of S from
        :func:`_length_scale` (k = 0 on the unit sphere).  A point is on S
        once the Newton correction |rho| / |grad rho| is below 5e-14 |p| (on
        the unit sphere, |rho| < 1e-13, the old absolute test).  rho is
        singular there when |grad rho| is at most 1e-6 |H| |p|, with |H| the
        Frobenius norm of the Hessian of rho: grad rho vanishes against its
        own variation over the length |p|.
        """
        if self.is_affine:
            points = self._affine_points(seed)
            return [next(points) for _ in range(count)]
        import numpy as np
        rng = random.Random(seed)
        k = self._size_exp
        out = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 200 * (len(out) + 1):
                raise ValueError("sampling failed to converge: S may have "
                                 "no real points")
            try:
                p = np.array([math.ldexp(rng.uniform(-2, 2), k)
                              for _ in range(8)])
                with np.errstate(over="raise", invalid="raise"):
                    for _ in range(80):
                        val = float(self.rho.evaluate(tuple(p)).coeffs[0])
                        g = np.array([float(c) for c in self.gradient_at(tuple(p))])
                        nsq = float(g @ g)
                        if not (math.isfinite(val) and math.isfinite(nsq)):
                            break
                        size = float(np.linalg.norm(p))
                        if abs(val) < 5e-14 * math.sqrt(nsq) * size:
                            spread = float(np.linalg.norm(
                                self.hessian_at(tuple(p)))) * size
                            if not math.isfinite(spread):
                                break
                            if math.sqrt(nsq) <= 1e-6 * spread:
                                raise ValueError("rho is singular at a point "
                                                 "of S: its gradient vanishes")
                            out.append(tuple(float(x) for x in p))
                            break
                        if nsq == 0:
                            break
                        # lift val * g by an exact 2^t where it would underflow
                        t = max(0, -960 - math.frexp(val)[1]
                                - math.frexp(float(np.abs(g).max()))[1])
                        p = p - np.ldexp(math.ldexp(val, t) * g / nsq, -t)
            except (OverflowError, FloatingPointError):
                pass
        return out

    def _affine_points(self, seed):
        """The seeded exact points of affine S, drawn one at a time."""
        rng = random.Random(seed)
        _, piv, s = self.affine_form()
        while True:
            p = [Fraction(rng.randint(-8, 8), 4) for _ in range(8)]
            p[piv] = s.evaluate(p).coeffs[0]
            yield tuple(p)

    def __repr__(self):
        return f"Hypersurface({self.rho!r})"


# ---------------------------------------------------------------------------
# tangential data
# ---------------------------------------------------------------------------

@dataclass
class TangentialData:
    """Per-point tangential derivatives of a boundary function."""
    point: tuple
    normal: tuple                 # (nu_1, nu_2) HNumbers
    f_perp: HNumber
    f_coord: tuple                # 8 tangential coordinate derivatives
    f_qbar: tuple                 # (f_(qbar_1), f_(qbar_2))


def _tangential(partials, g):
    """The one projection of Df off the gradient g (eight real scalars).

    ``partials`` are the eight d f/d xi_i: HNumbers at a point (float exactly
    when g is) or HPolys when g is constant.  Returns the tangential
    coordinate derivatives f_(xi_i) and the tangential pair
    (f_(qbar_1), f_(qbar_2)).
    """
    backend = "float" if any(isinstance(c, float) for c in g) else "exact"
    units = [HNumber.unit("H", a, backend) for a in range(4)]
    dbar = [reduce(add, (units[a] * partials[4 * h + a] for a in range(4)))
            for h in range(2)]
    g1, g2 = HNumber("H", g[:4], backend), HNumber("H", g[4:], backend)
    pairing = g1.conj() * dbar[0] + g2.conj() * dbar[1]          # <g, Df>
    inv = 1 / sum(c * c for c in g)
    f_coord = tuple(d - pairing.scale(c * inv) for d, c in zip(partials, g))
    f_qbar = (dbar[0] - g1 * pairing.scale(inv),
              dbar[1] - g2 * pairing.scale(inv))
    return f_coord, f_qbar


def _dot(coeffs, vals):
    """sum_i coeffs[i] vals[i], in floats when the coefficients are floats."""
    if any(isinstance(c, float) for c in coeffs):
        vals = [v.to_float() for v in vals]
    return reduce(add, (v.scale(c) for v, c in zip(vals, coeffs)))


def derived_at(f, S, p):
    """All tangential derivatives of f at a point of S.

    Exact at rational points; ``f_perp`` (and the normal) fall back to floats
    when |grad rho|^2 is not a perfect square.
    """
    pt = tuple(p)
    f_coord, f_qbar = _tangential(
        [f.partial_flat(i).evaluate(pt) for i in range(8)], S.gradient_at(pt))
    normal = S.normal_at(pt)
    f_perp = _dot(normal[0].coeffs + normal[1].coeffs, f_coord)
    return TangentialData(pt, normal, f_perp, f_coord, f_qbar)


def tangential_polys(f, S):
    """(f_coord, f_qbar) as ambient polynomials: the eight tangential
    coordinate derivatives, in ``COORD_NAMES`` order, and the tangential
    pair.  Requires an affine S (constant gradient); their restrictions to
    S are the derived functions and the pair of :func:`derived_at`.
    """
    return _tangential([f.partial_flat(i) for i in range(8)],
                       S.affine_form().gradient)


# ---------------------------------------------------------------------------
# CRF and admissibility decisions
# ---------------------------------------------------------------------------

@dataclass
class CrfResult:
    holds: bool
    witness_point: tuple | None = None
    witness_value: tuple | None = None   # (f_qbar1, f_qbar2) at the witness
    backend: str = "exact"

    def __bool__(self):
        return self.holds


@dataclass
class AdmissibilityReport:
    admissible: bool
    crf: CrfResult
    derived: dict = field(default_factory=dict)   # coord name -> CrfResult


def _max_abs(pair):
    """Largest absolute component of some quaternions, as a float."""
    return max(abs(c) for v in pair for c in v.to_float().coeffs)


def _affine_crf(f_qbar, S):
    """The :func:`is_crf` verdict on affine S from the tangential pair."""
    restricted = [rho_adic_digits(t, S, 1)[0] for t in f_qbar]
    if all(r.is_zero() for r in restricted):
        return CrfResult(True)
    for p in islice(S._affine_points(20240601), 50):
        value = tuple(r.evaluate(p) for r in restricted)
        if not (value[0].is_zero() and value[1].is_zero()):
            return CrfResult(False, p, value)
    # identically nonzero but vanishing on all samples: still not CRF
    return CrfResult(False, next(S._affine_points(20240601)), None)


def is_crf(f, S, tol=1e-10):
    """Does f satisfy the tangential conjugate-Fueter system on S?

    Affine S: decided *identically* by digit 0 of the tangential polynomials,
    their restriction to S; a nonzero restriction, equal on S to
    ``derived_at(f, S, p).f_qbar``, has its first nonzero value at the
    points of ``S.sample_points(50, seed=20240601)``, drawn one at a time
    up to it, as the witness.  Curved S: f's eight partials are formed once
    and evaluated at 25 seeded float points; a point fails unless its
    tangential pair is finite and at most ``tol`` times the largest
    component of those partials there.  The system is linear in f and
    dilation-invariant, and so is this test: the verdict depends on neither
    the scale of f nor the size of S, and a zero gradient passes.
    """
    if S.is_affine:
        return _affine_crf(tangential_polys(f, S)[1], S)
    df = [f.partial_flat(i) for i in range(8)]
    for p in S.sample_points(25, seed=20240602):
        values = [d.evaluate(p) for d in df]
        pair = _tangential(values, S.gradient_at(p))[1]
        size = _max_abs(pair)
        if not (math.isfinite(size) and size <= tol * _max_abs(values)):
            return CrfResult(False, p, pair, backend="float")
    return CrfResult(True, backend="float")


def is_admissible(f, S, tol=1e-10):
    """CRF plus CRF of all eight derived functions.

    Affine surfaces: fully exact; one :func:`tangential_polys` call gives
    the derived polynomials and the pair that decides CRF.  Curved
    surfaces: CRF is judged by :func:`is_crf` at ``tol``; f's eight partials
    are formed once, and the derived functions' tangential pairs come from
    second-order central differences of their ambient extensions (one
    projection per stencil point serves all eight), compared against
    ``max(tol, 1e-6)`` at 10 seeded float points of S.
    """
    if S.is_affine:
        f_coord, f_qbar = tangential_polys(f, S)
        crf = _affine_crf(f_qbar, S)
    else:
        crf = is_crf(f, S, tol=tol)
    report = AdmissibilityReport(admissible=bool(crf), crf=crf)
    if not crf.holds:
        return report
    if S.is_affine:
        for name, g in zip(COORD_NAMES, f_coord):
            report.derived[name] = is_crf(g, S)
    else:
        df = [f.partial_flat(i) for i in range(8)]

        def coords_at(x):
            x = tuple(x)
            return _tangential([d.evaluate(x) for d in df],
                               S.gradient_at(x))[0]

        step = 1e-4
        pairs = []            # per sample: the eight derived functions' pairs
        for p in S.sample_points(10, seed=20240603):
            pt = tuple(float(c) for c in p)
            partials = [[] for _ in range(8)]    # partials[i][j] = d_j f_(xi_i)
            for j in range(8):
                hi, lo = list(pt), list(pt)
                hi[j] += step
                lo[j] -= step
                for i, (a, b) in enumerate(zip(coords_at(hi), coords_at(lo))):
                    partials[i].append((a - b).scale(1.0 / (2 * step)))
            g = S.gradient_at(pt)
            pairs.append((p, [_tangential(d, g)[1] for d in partials]))
        for i, name in enumerate(COORD_NAMES):
            bad = [(p, pr[i]) for p, pr in pairs
                   if _max_abs(pr[i]) > max(tol, 1e-6)]
            witness, values = bad[0] if bad else (None, None)
            report.derived[name] = CrfResult(not bad, witness, values,
                                             backend="float")
    report.admissible = all(report.derived.values())
    return report


# ---------------------------------------------------------------------------
# rank condition
# ---------------------------------------------------------------------------

def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _complex_rank(rows):
    """Rank of a matrix of complex pairs (re, im) of rationals.

    Each row is cleared of its denominators, so its entries become Gaussian
    integers, and elimination stays fraction-free: a row r with entry a
    under the pivot p of row P becomes p r - a P.  p != 0 in a domain, so
    the rank is kept."""
    work = []
    for row in rows:
        den = math.lcm(*[x.denominator for entry in row for x in entry])
        work.append([tuple(x.numerator * (den // x.denominator)
                           for x in entry) for entry in row])
    rank = 0
    for col in range(len(work[0])):
        piv = next((r for r in range(rank, len(work))
                    if work[r][col] != (0, 0)), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        p = top[col]
        for r in range(rank + 1, len(work)):
            a = work[r][col]
            if a != (0, 0):
                work[r] = [_csub(_cmul(p, x), _cmul(a, y))
                           for x, y in zip(work[r], top)]
        rank += 1
    return rank


def _wirtinger(d_a, d_b, conjugate):
    """Twice the Wirtinger derivative of re + i*im along xi_a + i xi_b.

    ``d_a`` = (d re/d xi_a, d im/d xi_a) and ``d_b`` = (d re/d xi_b,
    d im/d xi_b) are the partial pairs along the two real directions, as
    integer numerators over one denominator.
    conjugate=False: (d/dxi_a - i d/dxi_b); True flips the sign of i.
    """
    s = 1 if conjugate else -1
    # (d_a + s*i*d_b)(re + i*im)
    return (d_a[0] - s * d_b[1], d_a[1] + s * d_b[0])


def rank_matrix(f, S, p):
    """The 4x3 complex matrix of the pointwise tangential solvability test.

    Columns: [second-kind derivative combination of f, and two Wirtinger
    derivatives of rho], rows indexed by the four complex directions.  The
    tangential system for f at p is solvable iff this matrix has rank < 3.
    Exact complex pairs of ``Fraction`` at exact points.

    Every entry comes from one gradient of f and one of rho at p: the eight
    partial values of f, in one pass over its integer form
    (``polycalc._int_gradient``; component b is d f_b/d xi_i), and
    ``S.gradient_at(p)``, stored on affine S.  Each column is built in
    integers over its gradient's denominator and becomes ``Fraction`` pairs
    once, at the end.  The tangential lane (``_tangential``) is not used,
    so the two stay independent checks of each other.
    """
    pt = tuple(p)
    if not _is_exact_point(pt):
        raise ValueError("rank matrix wants exact rational points")
    f_den, df = _int_gradient(f, pt)
    grad = S.gradient_at(pt)
    g_den = math.lcm(*[c.denominator for c in grad])
    # partial pairs of U = f0 + i f1, Vbar = f2 - i f3 and rho = rho + i 0
    U = [(d[0], d[1]) for d in df]
    Vb = [(d[2], -d[3]) for d in df]
    rho = [(c.numerator * (g_den // c.denominator), 0) for c in grad]

    def W(d, pair, conj):
        return _wirtinger(d[pair[0]], d[pair[1]], conj)

    z1, w1, z2, w2 = (0, 1), (2, 3), (4, 5), (6, 7)
    rows = [
        [_csub(W(U, z1, True), W(Vb, w1, True)),
         W(rho, z1, True),
         _csub((0, 0), W(rho, w1, True))],
        [_cadd(W(Vb, z1, False), W(U, w1, False)),
         W(rho, w1, False),
         W(rho, z1, False)],
        [_csub(W(U, z2, True), W(Vb, w2, True)),
         W(rho, z2, True),
         _csub((0, 0), W(rho, w2, True))],
        [_cadd(W(Vb, z2, False), W(U, w2, False)),
         W(rho, w2, False),
         W(rho, z2, False)],
    ]
    dens = (2 * f_den, 2 * g_den, 2 * g_den)
    return [[(Fraction(re, den), Fraction(im, den))
             for (re, im), den in zip(row, dens)] for row in rows]


def rank_condition(f, S, p, tol=1e-9):
    """True iff the pointwise tangential system for f is solvable at p
    (matrix rank < 3).  Exact at rational points, SVD with ``tol`` otherwise;
    the SVD divides the two rho columns by |grad rho(p)|, so its verdict does
    not depend on the size of grad rho at p, and keeps the f column as it
    is.  A float point is read as rationals of denominator at most 10^12
    in units of the size 2^k of curved S (k = 0 on the unit sphere).  numpy
    is imported on the float path alone; an exact point never loads it."""
    pt = tuple(p)
    if _is_exact_point(pt):
        return _complex_rank(rank_matrix(f, S, pt)) < 3
    # float path: evaluate the same matrix numerically
    k = S._size_exp
    frac_pt = tuple(Fraction(math.ldexp(c, -k)).limit_denominator(10 ** 12)
                    * Fraction(2) ** k for c in pt)
    rows = rank_matrix(f, S, frac_pt)
    import numpy as np
    mat = np.array([[complex(float(re), float(im)) for (re, im) in row]
                    for row in rows])
    mat[:, 1:] /= math.hypot(*(float(c) for c in S.gradient_at(frac_pt)))
    s = np.linalg.svd(mat, compute_uv=False)
    return int((s > tol * max(1.0, s[0])).sum()) < 3

