"""Quadrature on 3-spheres and the quaternionic Cauchy reproducing integral.

The reproducing formula for a function F that is left-regular (annihilated by
the conjugate-Fueter operator) on a closed ball B(c, r) reads

    F(q0) = (2 pi^2)^{-1}  integral_{|q - c| = r}  G(q - q0) nu(q) F(q) dS(q)

for q0 in the open ball, with outward unit normal nu and kernel

    G(q) = conj(q) / |q|^4.

The integrand F is a one-variable quaternion ``HPoly`` or its values on the
rule's nodes as an (N, 4) array.

The sphere is parameterized by hyperspherical angles (psi, theta, phi) with
surface measure r^3 sin^2(psi) sin(theta); each angle carries a Gauss-Legendre
rule, so the total weight is exactly the sphere area 2 pi^2 r^3 in the limit
and to rule precision at finite order.  All quaternion arithmetic on nodes is
vectorized through the same multiplication table as the scalar backend, on
component-major (Fortran-order) ``(N, 4)`` arrays whose columns are
contiguous.  The reproducing integral makes one pass over the rule for all
its points: per block of ``_BLOCK`` nodes it forms the nodes, evaluates F
and, per point, the weighted products and their exact partials, so no
array of the rule's size is built.  Each node sees the same operations in
any block and sums are correctly rounded (``math.fsum``'s bits), so no
bit depends on the block size, the node order or the other points.

numpy is imported inside each function that does float work on nodes, not
at module top, so importing this module (as ``cli`` does for every
subcommand) does not load numpy; only the quadrature of ``cf-integral``
does, and the exact subcommands never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hypercomplex import MUL_TABLE, HNumber

TWO_PI_SQ = 2.0 * math.pi ** 2

# nodes per block of the reproducing integral: the block's nodes and F values,
# ten scratch rows and four product rows (1.4 MiB) fit in a 2 MiB L2
_BLOCK = 8192


class PointOutsideDomain(ValueError):
    """Evaluation point is not strictly inside the integration sphere."""


def _mul_into(a, b, out, tmp, conj_a=False):
    """Add a * b, or conj(a) * b, into ``out``: quaternions stored as the
    four rows of a, b and out, with ``tmp`` one row of scratch.

    Each of the 16 column products of ``MUL_TABLE["H"]`` is added to or
    subtracted from its row of ``out`` alpha-major.  Conjugating a flips
    the sign of its alpha > 0 terms, which is exact: (-x) y = -(x y), and
    IEEE defines u - v as u + (-v), signs of zero included."""
    import numpy as np
    for alpha, row in enumerate(MUL_TABLE["H"]):
        flip = conj_a and alpha > 0
        for beta, (gamma, sign) in enumerate(row):
            np.multiply(a[alpha], b[beta], out=tmp)
            if (sign > 0) != flip:
                np.add(out[gamma], tmp, out=out[gamma])
            else:
                np.subtract(out[gamma], tmp, out=out[gamma])


def batch_evaluate(poly, points):
    """Evaluate a one-variable quaternion polynomial on an (N, 4) array."""
    import numpy as np
    if poly.algebra != "H" or poly.n != 1:
        raise ValueError("batch evaluation wants a one-variable H polynomial")
    out = np.zeros((points.shape[0], 4), order="F")
    den, rows = poly._ints
    for exp in sorted(rows):
        mono = np.ones(points.shape[0])
        for i, e in enumerate(exp):
            if e:
                mono = mono * points[:, i] ** e
        for c, v in enumerate(rows[exp]):
            out[:, c] += mono * (v / den)   # rounds once, as float(Fraction)
    return out


@dataclass
class SphereRule:
    """Quadrature rule on the sphere |q - center| = radius; ``nodes`` is
    derived from the stored normals on each read, which no integral makes."""
    center: np.ndarray
    radius: float
    order: int
    weights: np.ndarray    # (N,)
    normals: np.ndarray    # (N, 4) outward unit

    @property
    def nodes(self):
        return self.center + self.radius * self.normals

    @property
    def size(self):
        return self.weights.shape[0]


def sphere_rule(center, radius, order):
    """Tensor Gauss-Legendre rule in hyperspherical angles.

    ``order`` is the point count per angle (total order**3 nodes).  The weights
    sum to the sphere area 2 pi^2 r^3 up to rule precision.
    """
    import numpy as np
    if order < 2:
        raise ValueError("order must be at least 2")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    center = np.asarray(center, dtype=float)
    if center.shape != (4,):
        raise ValueError("center must have four components")
    if not np.isfinite(center).all():
        raise ValueError("center must be finite")
    x, w = np.polynomial.legendre.leggauss(order)
    # map [-1, 1] to [0, pi] twice and [0, 2 pi] once
    psi = 0.5 * math.pi * (x + 1.0)
    w_psi = 0.5 * math.pi * w
    phi = math.pi * (x + 1.0)
    w_phi = math.pi * w

    # the angles broadcast as (psi, theta, phi) axes of an order**3 grid
    sp, cp = np.sin(psi), np.cos(psi)
    st, ct, w_theta = sp, cp, w_psi     # theta carries psi's rule
    sf, cf = np.sin(phi), np.cos(phi)
    spst = (sp[:, None] * st)[:, :, None]
    # filled component-first, so the transpose is a Fortran-order (N, 4)
    units = np.empty((4, order, order, order))
    units[0] = cp[:, None, None]
    units[1] = (sp[:, None] * ct)[:, :, None]
    units[2] = spst * cf
    units[3] = spst * sf
    units = units.reshape(4, -1).T
    jac = ((radius ** 3) * (sp ** 2))[:, None] * st
    weights = ((jac * w_psi[:, None] * w_theta)[:, :, None]
               * w_phi).reshape(-1)
    return SphereRule(center=center, radius=float(radius), order=int(order),
                      weights=weights, normals=units)


def _fsums(blocks, n, count, whole):
    """``math.fsum`` of each of ``count`` rows of ``n`` entries, bit for
    bit; ``blocks`` yields (i, r) for the blocks r of row i in order, at
    most ``_BLOCK`` long and free to overwrite.  Error-free extraction
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008): with 2^M >= b + 2
    for a block of b entries, a pass splits each entry x at sigma =
    2^(k+M), where max|x| < 2^k, into the exact q = (x + sigma) - sigma and
    x - q; the q are multiples of 2^-53 sigma whose absolute sum stays
    below sigma, so they add exactly.  Passes repeat until the block is
    zero or 2^-53 sigma would leave the normal range (then the remainders
    are kept), and one correctly rounded ``fsum`` of the row's partials is
    ``fsum`` of the row.  A zero block adds its ``fsum`` (the sign of
    zero); a row with an entry that is not finite or whose sigma could
    overflow with the row's M gets ``fsum`` of ``whole(i)``, its entries.
    """
    import numpy as np
    partials = [[] for _ in range(count)]
    scratch = np.empty(min(n, _BLOCK))
    for i, r in blocks:
        parts, buf = partials[i], scratch[:r.shape[0]]
        if parts is None:
            continue
        top = float(np.abs(r, out=buf).max())
        if not math.isfinite(top) \
                or math.frexp(top)[1] + (n + 1).bit_length() > 1023:
            partials[i] = None
            continue
        if top == 0.0:
            parts.append(math.fsum(r))
        M = (r.shape[0] + 1).bit_length()
        while top:
            k = math.frexp(top)[1] + M
            if k - 53 < -1022:
                parts.extend(r[r != 0.0].tolist())
                break
            sigma = math.ldexp(1.0, k)
            q = np.subtract(np.add(r, sigma, out=buf), sigma, out=buf)
            parts.append(float(q.sum()))
            np.subtract(r, q, out=r)
            top = float(np.abs(r, out=buf).max())
    return [math.fsum(whole(i) if parts is None else parts)
            for i, parts in enumerate(partials)]


def _exact_sums(rows):
    """``math.fsum`` of each row of a 2-D float array, bit for bit."""
    n = rows.shape[1]
    blocks = ((i, r[s:s + _BLOCK].copy()) for s in range(0, n, _BLOCK)
              for i, r in enumerate(rows))
    return _fsums(blocks, n, len(rows), rows.__getitem__)


def _weighted(F, rule, points):
    """Yield (4 p + c, r) per block of ``_BLOCK`` nodes, point index p and
    component c: r is row c of w_i G(node_i - q0) nu_i F(node_i) on the
    block for q0 = points[p], in scratch that later steps overwrite.  Per
    block the nodes are formed as ``SphereRule.nodes`` forms them and F is
    evaluated or sliced once; per point, node by node: diff = node - q0,
    nsq = d0^2 + ... + d3^2 in that order, the kernel conj(diff) / nsq^2
    (the conj folded into the first product), the two products by
    ``_mul_into`` from a zero start (alpha-major, so signs of zero agree
    with the structure-tensor contraction) and the weight."""
    import numpy as np
    scratch = np.empty((14, min(rule.size, _BLOCK)))
    for start in range(0, rule.size, _BLOCK):
        stop = min(start + _BLOCK, rule.size)
        normals = rule.normals[start:stop]
        nodes = rule.radius * normals
        nodes += rule.center
        vals = F[start:stop] if isinstance(F, np.ndarray) \
            else batch_evaluate(F, nodes)
        buf = scratch[:, :stop - start]
        diff, prod, out, nsq, tmp = buf[:4], buf[4:8], buf[8:12], *buf[12:]
        for p, q0 in enumerate(points):
            for c in range(4):
                np.subtract(nodes[:, c], q0[c], out=diff[c])
            np.multiply(diff[0], diff[0], out=nsq)
            for c in (1, 2, 3):
                np.add(nsq, np.multiply(diff[c], diff[c], out=tmp), out=nsq)
            if not nsq.all():
                raise ZeroDivisionError("q0 coincides with a quadrature node")
            np.multiply(nsq, nsq, out=nsq)
            np.divide(diff, nsq, out=diff)
            prod[:] = 0.0
            _mul_into(diff, normals.T, prod, tmp, conj_a=True)
            out[:] = 0.0
            _mul_into(prod, vals.T, out, tmp)
            np.multiply(out, rule.weights[start:stop], out=out)
            yield from enumerate(out, 4 * p)


def cauchy_fueter_points(F, rule, inside, anywhere=()):
    """(2 pi^2)^{-1} sum w_i G(node_i - q0) nu_i F(node_i), F an ``HPoly``
    or its (N, 4) node values, as a float quaternion for each q0 of
    ``inside`` (strictly inside the sphere, else ``PointOutsideDomain``)
    and then of ``anywhere``: ``_fsums`` of one ``_weighted`` pass.  For
    left-regular F it reproduces F(q0) inside and tends to 0 outside."""
    import numpy as np
    points = [np.asarray(q0, dtype=float) for q0 in (*inside, *anywhere)]
    if any(q0.shape != (4,) for q0 in points):
        raise ValueError("q0 must have four components")
    if not all(np.linalg.norm(q0 - rule.center) < rule.radius
               for q0 in points[:len(inside)]):
        raise PointOutsideDomain(
            "evaluation point must lie strictly inside the sphere")
    if isinstance(F, np.ndarray) and F.shape != (rule.size, 4):
        raise ValueError("node values must have shape (rule.size, 4)")
    sums = _fsums(_weighted(F, rule, points), rule.size, 4 * len(points),
                  lambda i: (x for j, r in _weighted(F, rule, [points[i // 4]])
                             if j == i % 4 for x in r.tolist()))
    return [HNumber("H", [s / TWO_PI_SQ for s in sums[i:i + 4]], "float")
            for i in range(0, len(sums), 4)]


def cauchy_fueter_raw(F, rule, q0):
    """One-point ``cauchy_fueter_points`` with no location check on q0."""
    return cauchy_fueter_points(F, rule, (), [q0])[0]


def cauchy_fueter_eval(F, rule, q0):
    """One-point ``cauchy_fueter_points`` with a strict interior check."""
    return cauchy_fueter_points(F, rule, [q0])[0]


def cf_kernel_value(q, q0):
    """G(q - q0) as a float quaternion (scalar reference implementation)."""
    d = [float(a) - float(b) for a, b in zip(q, q0)]
    nsq = sum(c * c for c in d)
    return HNumber("H", [d[0], -d[1], -d[2], -d[3]], "float").scale(1.0 / nsq ** 2)
