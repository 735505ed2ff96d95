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

with g_h the quaternion packing of gradient block h.  f is CRF on S iff both
vanish identically on S; f is *admissible* iff moreover all eight derived
functions f_(xi_i) are CRF on S.

Everything is exact at rational points (the scaled quantities only ever
divide by |g|^2); the unit normal and f_perp are exact exactly when |g|^2 is
a perfect rational square.

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
from typing import NamedTuple

import numpy as np

from .hypercomplex import HNumber
from .polycalc import HPoly, fueter_dbar

SCHEMA_VERSION = 1

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


def _pack(vals, backend):
    """Pack four scalars into a quaternion."""
    return HNumber("H", vals, backend)


class AffineForm(NamedTuple):
    """Data of an affine rho = sum_i gradient[i] x_i + c.  On S the pivot
    coordinate (largest |gradient[i]|, first on ties) is
    x_pivot = sum_j sub[j] x_j + const, with sub[pivot] = 0."""
    gradient: tuple
    pivot: int
    sub: tuple
    const: Fraction


class Hypersurface:
    """Zero set of a real-coefficient, nonconstant scalar polynomial on R^8."""

    def __init__(self, rho):
        if not isinstance(rho, HPoly):
            raise TypeError("rho must be an HPoly")
        if rho.algebra != "H" or rho.n != 2:
            raise ValueError("hypersurfaces live in two quaternionic variables")
        for coef in rho.terms.values():
            if any(c != 0 for c in coef.coeffs[1:]):
                raise ValueError("rho must be scalar (real-valued)")
        if rho.degree() < 1:
            raise ValueError("rho must be nonconstant")
        self.rho = rho
        self.gradient = [rho.partial_flat(i) for i in range(8)]
        self._hess = [[self.gradient[i].partial_flat(j) for j in range(8)]
                      for i in range(8)]
        self._affine = None
        if self.is_affine:
            origin = (0,) * 8
            grad = tuple(g.coefficient(origin).coeffs[0] for g in self.gradient)
            piv = max(range(8), key=lambda i: abs(grad[i]))
            sub = tuple(Fraction(0) if i == piv else -c / grad[piv]
                        for i, c in enumerate(grad))
            const = -rho.coefficient(origin).coeffs[0] / grad[piv]
            self._affine = AffineForm(grad, piv, sub, const)

    # -- basic geometry ------------------------------------------------------

    @property
    def is_affine(self):
        return self.rho.degree() <= 1

    def affine_form(self):
        """The :class:`AffineForm` of an affine surface."""
        if self._affine is None:
            raise ValueError("the surface is not affine")
        return self._affine

    def value_at(self, p):
        return self.rho.evaluate(p).coeffs[0]

    def gradient_at(self, p):
        return [g.evaluate(p).coeffs[0] for g in self.gradient]

    def hessian_at(self, p):
        return np.array(
            [[float(self._hess[i][j].evaluate(p).coeffs[0]) for j in range(8)]
             for i in range(8)])

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
                return (_pack(vals[:4], "exact"), _pack(vals[4:], "exact"))
        gn = [float(c) for c in g]
        inv = 1.0 / math.sqrt(float(nsq))
        vals = [c * inv for c in gn]
        return (_pack(vals[:4], "float"), _pack(vals[4:], "float"))

    def gradient_quaternions(self, p):
        """Gradient blocks packed as quaternions (unnormalized), plus |g|^2."""
        g = self.gradient_at(p)
        nsq = sum(c * c for c in g)
        if any(isinstance(c, float) for c in g):
            g = [float(c) for c in g]
            backend = "float"
        else:
            backend = "exact"
        return _pack(g[:4], backend), _pack(g[4:], backend), nsq

    # -- frames and orientation ------------------------------------------------

    def omega_value(self, p, frame):
        """Value of the oriented volume form of S on seven tangent vectors."""
        g = [float(c) for c in self.gradient_at(p)]
        norm = math.sqrt(sum(c * c for c in g))
        nu = [c / norm for c in g]
        mat = np.array([nu] + [[float(x) for x in v] for v in frame])
        return -float(np.linalg.det(mat))

    def oriented_tangent_frame(self, p):
        """Orthonormal tangent frame with omega = +1 (float)."""
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

    def sample_points(self, count, seed=0, span=2):
        """Points on S: exact rationals for affine surfaces, Newton-projected
        floats otherwise."""
        rng = random.Random(seed)
        if self.is_affine:
            _, piv, sub, const = self.affine_form()
            out = []
            for _ in range(count):
                p = [Fraction(rng.randint(-span * 4, span * 4), 4) for _ in range(8)]
                p[piv] = sum(c * x for c, x in zip(sub, p)) + const
                out.append(tuple(p))
            return out
        out = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 200 * count:
                raise RuntimeError("sampling failed to converge")
            p = np.array([rng.uniform(-span, span) for _ in range(8)])
            ok = True
            for _ in range(80):
                val = float(self.rho.evaluate(tuple(p)).coeffs[0])
                if abs(val) < 1e-13:
                    break
                g = np.array([float(c) for c in self.gradient_at(tuple(p))])
                nsq = float(g @ g)
                if nsq < 1e-12:
                    ok = False
                    break
                p = p - val * g / nsq
            else:
                ok = False
            if ok and abs(float(self.rho.evaluate(tuple(p)).coeffs[0])) < 1e-12:
                out.append(tuple(float(x) for x in p))
        return out

    # -- serialization --------------------------------------------------------------

    def to_json(self):
        return {"schema_version": SCHEMA_VERSION, "rho": self.rho.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(HPoly.from_json(obj["rho"]))

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


def _pairing_value(g1, g2, v1, v2):
    """<(g1, g2), (v1, v2)> = conj(g1) v1 + conj(g2) v2."""
    return g1.conj() * v1 + g2.conj() * v2


def derived_at(f, S, p):
    """All tangential derivatives of f at a point of S.

    Exact at rational points; ``f_perp`` (and the normal) fall back to floats
    when |grad rho|^2 is not a perfect square.
    """
    exact = _is_exact_point(p) and True
    pt = tuple(p)
    g1, g2, nsq = S.gradient_quaternions(pt)
    if g1.backend == "float":
        exact = False
    partials = [f.partial_flat(i).evaluate(pt) for i in range(8)]
    dbar1 = fueter_dbar(f, 0).evaluate(pt)
    dbar2 = fueter_dbar(f, 1).evaluate(pt)
    if not exact:
        partials = [v.to_float() for v in partials]
        dbar1, dbar2 = dbar1.to_float(), dbar2.to_float()
        g1, g2 = g1.to_float(), g2.to_float()
        nsq = float(nsq)
    pairing = _pairing_value(g1, g2, dbar1, dbar2)          # <g, Df>
    inv_nsq = (Fraction(1) / nsq) if exact else (1.0 / nsq)
    gvals = list(g1.coeffs) + list(g2.coeffs)
    f_coord = tuple(
        partials[i] - (pairing.scale(gvals[i] * inv_nsq)) for i in range(8))
    f_qbar1 = dbar1 - g1 * pairing.scale(inv_nsq)
    f_qbar2 = dbar2 - g2 * pairing.scale(inv_nsq)
    # normal component: needs |g| itself
    directional = None
    for i in range(8):
        t = partials[i].scale(gvals[i])
        directional = t if directional is None else directional + t
    root = _exact_sqrt(nsq) if exact else None
    if root is not None:
        inv_norm = Fraction(1) / root
        f_perp = (directional - pairing).scale(inv_norm)
        nu1, nu2 = g1.scale(inv_norm), g2.scale(inv_norm)
    else:
        inv_norm = 1.0 / math.sqrt(float(nsq))
        f_perp = (directional - pairing).to_float().scale(inv_norm)
        nu1, nu2 = g1.to_float().scale(inv_norm), g2.to_float().scale(inv_norm)
    return TangentialData(pt, (nu1, nu2), f_perp, f_coord, (f_qbar1, f_qbar2))


def f_perp(f, S, p):
    return derived_at(f, S, p).f_perp


def f_perp_scaled(f, S, p):
    """|grad rho| * f_perp: always exact at exact points."""
    pt = tuple(p)
    g1, g2, _ = S.gradient_quaternions(pt)
    partials = [f.partial_flat(i).evaluate(pt) for i in range(8)]
    dbar1 = fueter_dbar(f, 0).evaluate(pt)
    dbar2 = fueter_dbar(f, 1).evaluate(pt)
    if g1.backend == "float":
        partials = [v.to_float() for v in partials]
        dbar1, dbar2 = dbar1.to_float(), dbar2.to_float()
    gvals = list(g1.coeffs) + list(g2.coeffs)
    directional = None
    for i in range(8):
        t = partials[i].scale(gvals[i])
        directional = t if directional is None else directional + t
    return directional - _pairing_value(g1, g2, dbar1, dbar2)


def dbar_b(f, S, p):
    """Boundary conjugate-Fueter pair (-f_(qbar_1), -f_(qbar_2)) at p."""
    td = derived_at(f, S, p)
    return (-td.f_qbar[0], -td.f_qbar[1])


def _affine_pairing(f, S):
    """(g, g_1, g_2, <g, Df>, 1/|g|^2) for the constant gradient g of an
    affine S, with g_1, g_2 its quaternion blocks."""
    g = S.affine_form().gradient
    g1 = _pack(g[:4], "exact")
    g2 = _pack(g[4:], "exact")
    pairing = fueter_dbar(f, 0).mul_const_left(g1.conj()) + \
        fueter_dbar(f, 1).mul_const_left(g2.conj())
    return g, g1, g2, pairing, Fraction(1) / sum(c * c for c in g)


def derived_polys(f, S):
    """The eight tangential coordinate derivatives as ambient polynomials.

    Requires an affine S (constant gradient); the formulas then produce exact
    global polynomials whose restrictions to S are the derived functions.
    Returns a dict keyed by coordinate name.
    """
    g, _, _, pairing, inv = _affine_pairing(f, S)
    return {name: f.partial_flat(i) - pairing.scale(g[i] * inv)
            for i, name in enumerate(COORD_NAMES)}


def tangential_qbar_polys(f, S):
    """f_(qbar_1), f_(qbar_2) as ambient polynomials (affine S)."""
    _, g1, g2, pairing, inv = _affine_pairing(f, S)
    return (
        fueter_dbar(f, 0) - pairing.mul_const_left(g1).scale(inv),
        fueter_dbar(f, 1) - pairing.mul_const_left(g2).scale(inv),
    )


def _reduce_mod_affine(poly, S):
    """Substitute the surface equation into a polynomial (affine S): the
    result vanishes identically iff poly|_S = 0."""
    _, piv, sub, const = S.affine_form()
    return poly.substitute_linear(piv, sub, const)


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

    def __bool__(self):
        return self.admissible


def is_crf(f, S, samples=None, tol=1e-10):
    """Does f satisfy the tangential conjugate-Fueter system on S?

    Affine S with no explicit samples: decided *identically* (exact reduction
    of the tangential polynomials modulo the surface equation).  Otherwise the
    tangential pair is evaluated on the samples (default: 25 seeded points)
    and compared against ``tol`` (exact zero test for exact points).
    """
    if samples is None and S.is_affine:
        t1, t2 = tangential_qbar_polys(f, S)
        if _reduce_mod_affine(t1, S).is_zero() and _reduce_mod_affine(t2, S).is_zero():
            return CrfResult(True)
        pts = S.sample_points(50, seed=20240601)
        for p in pts:
            td = derived_at(f, S, p)
            if not (td.f_qbar[0].is_zero() and td.f_qbar[1].is_zero()):
                return CrfResult(False, p, td.f_qbar)
        # identically nonzero but vanishing on all samples: still not CRF
        return CrfResult(False, pts[0] if pts else None, None)
    if samples is None:
        samples = S.sample_points(25, seed=20240602)
    for p in samples:
        td = derived_at(f, S, p)
        v1, v2 = td.f_qbar
        if v1.backend == "float" or v2.backend == "float":
            err = max(max(abs(c) for c in v1.to_float().coeffs),
                      max(abs(c) for c in v2.to_float().coeffs))
            if err > tol:
                return CrfResult(False, p, (v1, v2), backend="float")
        elif not (v1.is_zero() and v2.is_zero()):
            return CrfResult(False, p, (v1, v2))
    backend = "exact" if all(_is_exact_point(p) for p in samples) else "float"
    return CrfResult(True, backend=backend)


def _derived_value_functions(f, S):
    """Ambient extensions of the eight derived functions as callables
    (float evaluation), for non-affine surfaces."""
    dbar_polys = [fueter_dbar(f, 0), fueter_dbar(f, 1)]
    partial_polys = [f.partial_flat(i) for i in range(8)]

    def value(i, pt):
        g = [float(c) for c in S.gradient_at(pt)]
        nsq = sum(c * c for c in g)
        g1 = _pack(g[:4], "float")
        g2 = _pack(g[4:], "float")
        d1 = dbar_polys[0].evaluate(pt).to_float()
        d2 = dbar_polys[1].evaluate(pt).to_float()
        pairing = _pairing_value(g1, g2, d1, d2)
        return partial_polys[i].evaluate(pt).to_float() - \
            pairing.scale(g[i] / nsq)

    return value


def _numeric_tangential_qbar(value_fn, i, S, p, step=1e-4):
    """Tangential conjugate-Fueter pair of the i-th derived function at p,
    via central finite differences of its ambient extension."""
    pt = tuple(float(c) for c in p)
    partials = []
    for j in range(8):
        hi = list(pt)
        lo = list(pt)
        hi[j] += step
        lo[j] -= step
        partials.append(
            (value_fn(i, tuple(hi)) - value_fn(i, tuple(lo))).scale(1.0 / (2 * step)))
    g = [float(c) for c in S.gradient_at(pt)]
    nsq = sum(c * c for c in g)
    g1 = _pack(g[:4], "float")
    g2 = _pack(g[4:], "float")
    d1 = None
    d2 = None
    for a in range(4):
        u = HNumber.unit("H", a).to_float()
        t1 = u * partials[a]
        t2 = u * partials[4 + a]
        d1 = t1 if d1 is None else d1 + t1
        d2 = t2 if d2 is None else d2 + t2
    pairing = _pairing_value(g1, g2, d1, d2)
    return (d1 - g1 * pairing.scale(1.0 / nsq),
            d2 - g2 * pairing.scale(1.0 / nsq))


def is_admissible(f, S, samples=None, tol=1e-6):
    """CRF plus CRF of all eight derived functions.

    Affine surfaces: fully exact (global derived polynomials, identical
    reduction).  General surfaces: the derived functions' tangential pairs
    are formed with second-order central differences of their ambient
    extensions and compared against ``tol`` on sampled points.
    """
    crf = is_crf(f, S, samples=samples)
    report = AdmissibilityReport(admissible=bool(crf), crf=crf)
    if not crf.holds:
        return report
    if S.is_affine and samples is None:
        for name, g in derived_polys(f, S).items():
            sub = is_crf(g, S)
            report.derived[name] = sub
            if not sub.holds:
                report.admissible = False
        return report
    if samples is None:
        samples = S.sample_points(10, seed=20240603)
    value_fn = _derived_value_functions(f, S)
    for i, name in enumerate(COORD_NAMES):
        ok = True
        witness = None
        values = None
        for p in samples:
            v1, v2 = _numeric_tangential_qbar(value_fn, i, S, p)
            err = max(max(abs(c) for c in v1.coeffs),
                      max(abs(c) for c in v2.coeffs))
            if err > tol:
                ok = False
                witness, values = p, (v1, v2)
                break
        report.derived[name] = CrfResult(ok, witness, values, backend="float")
        if not ok:
            report.admissible = False
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


def _cinv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _complex_rank(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != (0, 0):
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = _cinv(rows[rank][col])
        rows[rank] = [_cmul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != (0, 0):
                fct = rows[r][col]
                rows[r] = [_csub(x, _cmul(fct, y))
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _wirtinger(re_poly, im_poly, idx_re, idx_im, conjugate, pt):
    """Value of the Wirtinger derivative of re + i*im at pt.

    conjugate=False: 1/2 (d/dxi_re - i d/dxi_im); True flips the sign of i.
    Returns a complex pair of exact scalars (pt must be exact).
    """
    s = 1 if conjugate else -1
    dre_r = re_poly.partial_flat(idx_re).evaluate(pt).coeffs[0]
    dre_i = im_poly.partial_flat(idx_re).evaluate(pt).coeffs[0]
    dim_r = re_poly.partial_flat(idx_im).evaluate(pt).coeffs[0]
    dim_i = im_poly.partial_flat(idx_im).evaluate(pt).coeffs[0]
    # (d_re + s*i*d_im)(re + i*im)/2
    re = Fraction(dre_r - s * dim_i, 1) / 2
    im = Fraction(dre_i + s * dim_r, 1) / 2
    return (re, im)


def rank_matrix(f, S, p):
    """The 4x3 complex matrix of the pointwise tangential solvability test.

    Columns: [second-kind derivative combination of f, and two Wirtinger
    derivatives of rho], rows indexed by the four complex directions.  The
    tangential system for f at p is solvable iff this matrix has rank < 3.
    Exact complex pairs at exact points.
    """
    pt = tuple(p)
    if not _is_exact_point(pt):
        raise ValueError("rank matrix wants exact rational points")
    f0, f1, f2, f3 = (f.component(b) for b in range(4))
    zero = HPoly.zero("H", 2)
    rho = S.rho
    # U = f0 + i f1, V = f2 + i f3, Vbar = f2 - i f3
    def W(re, im, pair, conj):
        idx_re, idx_im = pair
        return _wirtinger(re, im, idx_re, idx_im, conj, pt)

    z1, w1, z2, w2 = (0, 1), (2, 3), (4, 5), (6, 7)
    U = (f0, f1)
    Vb = (f2, -f3)
    rows = [
        [_csub(W(*U, z1, True), W(*Vb, w1, True)),
         W(rho, zero, z1, True),
         _csub((0, 0), W(rho, zero, w1, True))],
        [_cadd(W(*Vb, z1, False), W(*U, w1, False)),
         W(rho, zero, w1, False),
         W(rho, zero, z1, False)],
        [_csub(W(*U, z2, True), W(*Vb, w2, True)),
         W(rho, zero, z2, True),
         _csub((0, 0), W(rho, zero, w2, True))],
        [_cadd(W(*Vb, z2, False), W(*U, w2, False)),
         W(rho, zero, w2, False),
         W(rho, zero, z2, False)],
    ]
    return rows


def rank_condition(f, S, p, tol=1e-9):
    """True iff the pointwise tangential system for f is solvable at p
    (matrix rank < 3).  Exact at rational points, SVD with ``tol`` otherwise."""
    pt = tuple(p)
    if _is_exact_point(pt):
        return _complex_rank(rank_matrix(f, S, pt)) < 3
    # float path: evaluate the same matrix numerically
    frac_pt = tuple(Fraction(c).limit_denominator(10 ** 12) for c in pt)
    rows = rank_matrix(f, S, frac_pt)
    mat = np.array([[complex(float(re), float(im)) for (re, im) in row]
                    for row in rows])
    s = np.linalg.svd(mat, compute_uv=False)
    return int((s > tol * max(1.0, s[0])).sum()) < 3


# ---------------------------------------------------------------------------
# tangent H-line and Levi-type convexity
# ---------------------------------------------------------------------------

def tangent_h_line(S, p):
    """Direction v = (v_1, v_2) of the unique tangent right H-line at p:
    <nu, v> = 0 normalized with v_2 = 1 (or v = (1, 0) when nu_1 = 0)."""
    nu1, nu2 = S.normal_at(p)
    if nu1.is_zero():
        one = HNumber.one("H", nu1.backend)
        zero = HNumber.zero("H", nu1.backend)
        return (one, zero)
    v1 = -(nu1.conj().inverse() * nu2.conj())
    return (v1, HNumber.one("H", nu1.backend))


@dataclass
class LeviResult:
    classification: str
    eigenvalues: tuple
    direction: tuple          # (v_1, v_2)
    side: str


def levi_h_convexity(S, p, side="negative", tol=1e-9):
    """Classification of the normalized second fundamental form restricted to
    the tangent right H-line at p.

    ``side`` names the domain whose convexity is judged: "negative" for
    {rho < 0} (e.g. the open ball for rho = |q|^2 - r^2), "positive" for
    {rho > 0}.  Returns eigenvalues of the restricted form and one of
    "positive-definite", "negative-definite", "indefinite", "degenerate".
    """
    if side not in ("negative", "positive"):
        raise ValueError("side is 'negative' or 'positive'")
    pt = tuple(p)
    g = [float(c) for c in S.gradient_at(pt)]
    norm = math.sqrt(sum(c * c for c in g))
    if norm == 0:
        raise ZeroDivisionError("singular point of rho")
    hess = S.hessian_at(pt)
    sign = 1.0 if side == "negative" else -1.0
    v1, v2 = tangent_h_line(S, pt)
    v1, v2 = v1.to_float(), v2.to_float()
    basis = []
    for a in range(4):
        e = HNumber.unit("H", a).to_float()
        basis.append(np.array(list((v1 * e).coeffs) + list((v2 * e).coeffs)))
    mat = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            mat[a, b] = sign * float(basis[a] @ hess @ basis[b]) / norm
    eigs = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.abs(eigs).max()))
    pos = bool((eigs > tol * scale).any())
    neg = bool((eigs < -tol * scale).any())
    has_zero = bool((np.abs(eigs) <= tol * scale).any())
    if pos and neg:
        cls = "indefinite"
    elif has_zero:
        cls = "degenerate"
    elif pos:
        cls = "positive-definite"
    else:
        cls = "negative-definite"
    return LeviResult(cls, tuple(float(e) for e in eigs), (v1, v2), side)


def is_nondegenerate(S, points, side="negative", tol=1e-9):
    """True when the restricted form is definite (either sign) at every point."""
    for p in points:
        cls = levi_h_convexity(S, p, side=side, tol=tol).classification
        if cls not in ("positive-definite", "negative-definite"):
            return False
    return True
