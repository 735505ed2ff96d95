"""Quadrature on 3-spheres and the quaternionic Cauchy reproducing integral.

The reproducing formula for a function F that is left-regular (annihilated by
the conjugate-Fueter operator) on a closed ball B(c, r) reads

    F(q0) = (2 pi^2)^{-1}  integral_{|q - c| = r}  G(q - q0) nu(q) F(q) dS(q)

for q0 in the open ball, with outward unit normal nu and kernel

    G(q) = conj(q) / |q|^4.

The sphere is parameterized by hyperspherical angles (psi, theta, phi) with
surface measure r^3 sin^2(psi) sin(theta); each angle carries a Gauss-Legendre
rule, so the total weight is exactly the sphere area 2 pi^2 r^3 in the limit
and to rule precision at finite order.  All quaternion arithmetic on nodes is
vectorized through the same multiplication table as the scalar backend, on
component-major (Fortran-order) ``(N, 4)`` arrays whose columns are
contiguous.  Final sums are correctly rounded (the bits of ``math.fsum``)
and so independent of the node order, and results are reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercomplex import MUL_TABLE, HNumber
from .polycalc import HPoly

TWO_PI_SQ = 2.0 * math.pi ** 2


class PointOutsideDomain(ValueError):
    """Evaluation point is not strictly inside the integration sphere."""


def quaternion_batch_mul(a, b):
    """Componentwise quaternion product of (N, 4) arrays: the 16 column
    products of ``MUL_TABLE["H"]`` with their fixed signs, accumulated
    alpha-major (the summation order of the former structure-tensor
    ``einsum``, so results agree bit for bit)."""
    out = np.zeros((a.shape[0], 4), order="F")
    for alpha, row in enumerate(MUL_TABLE["H"]):
        for beta, (gamma, sign) in enumerate(row):
            if sign > 0:
                out[:, gamma] += a[:, alpha] * b[:, beta]
            else:
                out[:, gamma] -= a[:, alpha] * b[:, beta]
    return out


def quaternion_batch_conj(a):
    out = a.copy(order="F")
    out[:, 1:] = -out[:, 1:]
    return out


def batch_evaluate(poly, points):
    """Evaluate a one-variable quaternion polynomial on an (N, 4) array."""
    if poly.algebra != "H" or poly.n != 1:
        raise ValueError("batch evaluation wants a one-variable H polynomial")
    out = np.zeros((points.shape[0], 4), order="F")
    for exp in sorted(poly.terms):
        coef = poly.terms[exp]
        mono = np.ones(points.shape[0])
        for i, e in enumerate(exp):
            if e:
                mono = mono * points[:, i] ** e
        for c, value in enumerate(coef.coeffs):
            out[:, c] += mono * float(value)
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

    P, T, F = np.meshgrid(psi, theta, phi, indexing="ij")
    WP, WT, WF = np.meshgrid(w_psi, w_theta, w_phi, indexing="ij")
    sp, cp = np.sin(P), np.cos(P)
    st, ct = np.sin(T), np.cos(T)
    sf, cf = np.sin(F), np.cos(F)
    # stacked component-first, so the transpose is a Fortran-order (N, 4)
    units = np.stack(
        [cp, sp * ct, sp * st * cf, sp * st * sf]).reshape(4, -1).T
    jac = (radius ** 3) * (sp ** 2) * st
    weights = (jac * WP * WT * WF).reshape(-1)
    nodes = center[None, :] + radius * units
    return SphereRule(center=center, radius=float(radius), order=int(order),
                      nodes=nodes, weights=weights, normals=units)


def _values_on_nodes(F, rule):
    """F on the rule's nodes as an (N, 4) array.  F is an ``HPoly``, a
    callable of a node tuple, or already that array (so a caller that
    integrates one F against many kernels evaluates it once)."""
    if isinstance(F, np.ndarray):
        if F.shape != (rule.size, 4):
            raise ValueError("node values must have shape (rule.size, 4)")
        return F
    if isinstance(F, HPoly):
        return batch_evaluate(F, rule.nodes)
    vals = np.empty((rule.size, 4), order="F")
    for i in range(rule.size):
        v = F(tuple(rule.nodes[i]))
        if isinstance(v, HNumber):
            vals[i] = [float(c) for c in v.coeffs]
        else:
            vals[i] = np.asarray(v, dtype=float)
    return vals


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


def surface_integral(F, rule):
    """Componentwise integral of F over the sphere (correctly rounded)."""
    vals = _values_on_nodes(F, rule)
    weighted = np.multiply(rule.weights[:, None], vals, order="F")
    return HNumber("H", _exact_sums(weighted.T), "float")


def cauchy_fueter_raw(F, rule, q0):
    """The reproducing integral without any location check on q0.

    Returns (2 pi^2)^{-1} sum w_i G(node_i - q0) nu_i F(node_i) as a float
    quaternion; F is taken as in ``_values_on_nodes``.  For q0 strictly
    inside and F left-regular this reproduces F(q0); for q0 strictly outside
    it tends to zero.
    """
    q0 = np.asarray(q0, dtype=float)
    diff = rule.nodes - q0[None, :]
    nsq = np.sum(diff * diff, axis=1)
    if np.any(nsq == 0.0):
        raise ZeroDivisionError("q0 coincides with a quadrature node")
    kernel = quaternion_batch_conj(diff)
    kernel /= (nsq * nsq)[:, None]
    vals = _values_on_nodes(F, rule)
    weighted = quaternion_batch_mul(
        quaternion_batch_mul(kernel, rule.normals), vals)
    weighted *= rule.weights[:, None]
    sums = [s / TWO_PI_SQ for s in _exact_sums(weighted.T)]
    return HNumber("H", sums, "float")


def cauchy_fueter_eval(F, rule, q0):
    """Reproducing integral with a strict interior check on q0."""
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
