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
contiguous.  The reproducing integral walks the nodes in blocks of
``_BLOCK`` through scratch rows allocated once per call, so its working set
stays in cache instead of streaming whole-array temporaries; every node goes
through the same elementwise operations whatever block it falls in.  Final
sums are correctly rounded (the bits of ``math.fsum``) and so independent of
the node order and of the block size, and results are reproducible
bit-for-bit across runs.

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

# nodes per block of the reproducing integral: its ten scratch rows (640 KiB)
# and the block's slices of the input and output columns fit in a 2 MiB L2
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
    """Quadrature rule on the sphere |q - center| = radius."""
    center: np.ndarray
    radius: float
    order: int
    nodes: np.ndarray      # (N, 4)
    weights: np.ndarray    # (N,)
    normals: np.ndarray    # (N, 4) outward unit

    @property
    def size(self):
        return self.nodes.shape[0]


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
    x, w = np.polynomial.legendre.leggauss(order)
    # map [-1, 1] to [0, pi] twice and [0, 2 pi] once
    psi = 0.5 * math.pi * (x + 1.0)
    w_psi = 0.5 * math.pi * w
    theta, w_theta = psi, w_psi
    phi = math.pi * (x + 1.0)
    w_phi = math.pi * w

    # the angles broadcast as (psi, theta, phi) axes of an order**3 grid
    sp, cp = np.sin(psi), np.cos(psi)
    st, ct = np.sin(theta), np.cos(theta)
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
    nodes = center[None, :] + radius * units
    return SphereRule(center=center, radius=float(radius), order=int(order),
                      nodes=nodes, weights=weights, normals=units)


def _values_on_nodes(F, rule):
    """F on the rule's nodes as an (N, 4) array.  F is an ``HPoly`` or
    already that array (so a caller that integrates one F against many
    kernels evaluates it once)."""
    import numpy as np
    if isinstance(F, np.ndarray):
        if F.shape != (rule.size, 4):
            raise ValueError("node values must have shape (rule.size, 4)")
        return F
    return batch_evaluate(F, rule.nodes)


def _exact_sums(rows):
    """``math.fsum`` of each row of a 2-D float array, bit for bit, by
    error-free extraction (Rump, Ogita & Oishi, *Accurate floating-point
    summation, part I*, SIAM J. Sci. Comput. 31, 2008).  Overwrites ``rows``.

    With 2^M >= n + 2 for rows of length n, a pass splits every entry r at
    sigma = 2^(k+M), where max|r| < 2^k: q = (r + sigma) - sigma and r - q
    are both exact, and the q are multiples of 2^-53 sigma whose absolute
    sum stays below sigma, so they add exactly in any order.  Passes repeat
    until the row is zero, and ``math.fsum`` rounds the exact partials once;
    it rounds correctly, so the result is that of ``fsum`` on the row.
    Rows with a non-finite entry, all-zero rows (``fsum`` decides their sign
    of zero) and rows whose sigma would overflow go to ``fsum`` whole.
    Extraction stops before 2^-53 sigma leaves the normal range and hands
    the remainders to ``fsum``.
    """
    import numpy as np
    n = rows.shape[1]
    M = (n + 1).bit_length()
    buf = np.empty(n)
    sums = []
    for r in rows:
        top = float(np.abs(r, out=buf).max()) if n else 0.0
        if not math.isfinite(top) or top == 0.0 \
                or math.frexp(top)[1] + M > 1023:
            sums.append(math.fsum(r))
            continue
        partials = []
        while top:
            k = math.frexp(top)[1] + M
            if k - 53 < -1022:
                partials.extend(r[r != 0.0].tolist())
                break
            sigma = math.ldexp(1.0, k)
            q = np.subtract(np.add(r, sigma, out=buf), sigma, out=buf)
            partials.append(float(q.sum()))
            np.subtract(r, q, out=r)
            top = float(np.abs(r, out=buf).max())
        sums.append(math.fsum(partials))
    return sums


def cauchy_fueter_raw(F, rule, q0):
    """The reproducing integral without any location check on q0.

    Returns (2 pi^2)^{-1} sum w_i G(node_i - q0) nu_i F(node_i) as a float
    quaternion; F is taken as in ``_values_on_nodes``.  For q0 strictly
    inside and F left-regular this reproduces F(q0); for q0 strictly outside
    it tends to zero.

    The weighted products are formed ``_BLOCK`` nodes at a time (see
    ``_cf_block``) into one (4, N) array, which ``_exact_sums`` adds once.
    Each node sees the same elementwise operations in any block and the
    sums are correctly rounded, so the bits do not depend on the block size.
    """
    import numpy as np
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (4,):
        raise ValueError("q0 must have four components")
    vals = _values_on_nodes(F, rule)
    size = rule.size
    weighted = np.empty((4, size))
    buf = np.empty((10, min(size, _BLOCK)))
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        _cf_block(rule.nodes[start:stop], rule.normals[start:stop],
                  vals[start:stop], rule.weights[start:stop], q0,
                  weighted[:, start:stop], buf[:, :stop - start])
    sums = [s / TWO_PI_SQ for s in _exact_sums(weighted)]
    return HNumber("H", sums, "float")


def _cf_block(nodes, normals, vals, weights, q0, out, buf):
    """w_i G(node_i - q0) nu_i F_i for one block of nodes into the rows of
    ``out`` (4, b), in the scratch rows of ``buf`` (10, b).

    These are the operations of the whole-array formula, node by node:
    diff = node - q0, nsq = d0^2 + d1^2 + d2^2 + d3^2 in that order, the
    kernel conj(diff) / nsq^2 (the conj folded into the first product),
    the two products by ``_mul_into`` from a zero start (alpha-major, so
    signs of zero agree with the structure-tensor contraction) and the
    weight.
    """
    import numpy as np
    diff, prod, nsq, tmp = buf[0:4], buf[4:8], buf[8], buf[9]
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
    np.multiply(out, weights, out=out)


def cauchy_fueter_eval(F, rule, q0):
    """Reproducing integral with a strict interior check on q0."""
    import numpy as np
    q0 = np.asarray(q0, dtype=float)
    if np.linalg.norm(q0 - rule.center) >= rule.radius:
        raise PointOutsideDomain(
            "evaluation point must lie strictly inside the sphere")
    return cauchy_fueter_raw(F, rule, q0)


def cf_kernel_value(q, q0):
    """G(q - q0) as a float quaternion (scalar reference implementation)."""
    d = [float(a) - float(b) for a, b in zip(q, q0)]
    nsq = sum(c * c for c in d)
    return HNumber("H", [d[0], -d[1], -d[2], -d[3]], "float").scale(1.0 / nsq ** 2)
