"""Timelike minimal surfaces in Minkowski 3-space from two null directions.

The surface splits as psi(u, v) = A(u) + B(v) with

    A'(u) = f(u) * ( (1 + q^2)/2, -(1 - q^2)/2, -q )
    B'(v) = g(v) * ( -(1 + r^2)/2, -(1 - r^2)/2, -r )

in coordinates (x1, x2, x3) of signature (-,+,+).  Both derivative
vectors are null, the induced metric is (1 + q r)^2 f g du dv, and the
surface degenerates exactly where that factor vanishes.  The unit normal
has stereographic image (q(u), r(v)), which is what makes (q, r)
projected Gauss data rather than just integration input.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .algebra import cross3, scalar_product3, METRIC3
from .config import DEFAULT_TOL
from .fields import ScalarField1D, as_field1d
from .geometry import AmbientSpec, SurfaceGrid

_GL7 = leggauss(7)
_GL15 = leggauss(15)


class QuadratureError(RuntimeError):
    pass


@dataclass
class WeierstrassData:
    """Null-direction data: q, f depend on u; r, g depend on v."""

    q: ScalarField1D
    f: ScalarField1D
    r: ScalarField1D
    g: ScalarField1D

    @classmethod
    def build(cls, q, f, r, g):
        return cls(as_field1d(q, var="u"), as_field1d(f, var="u"),
                   as_field1d(r, var="v"), as_field1d(g, var="v"))


def _du_direction(q):
    q = np.asarray(q, dtype=float)
    return np.stack([0.5 * (1.0 + q * q), -0.5 * (1.0 - q * q), -q], axis=-1)


def _dv_direction(r):
    r = np.asarray(r, dtype=float)
    return np.stack([-0.5 * (1.0 + r * r), -0.5 * (1.0 - r * r), -r], axis=-1)


def weierstrass_derivatives(data, u, v):
    """Analytic psi_u and psi_v at broadcastable points (u, v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    psi_u = _du_direction(data.q(u)) * np.asarray(data.f(u), dtype=float)[..., None]
    psi_v = _dv_direction(data.r(v)) * np.asarray(data.g(v), dtype=float)[..., None]
    shape = np.broadcast_shapes(psi_u.shape, psi_v.shape)
    return np.broadcast_to(psi_u, shape).copy(), np.broadcast_to(psi_v, shape).copy()


def minimal_metric_factor(data, u, v):
    """Conformal factor (1 + q r)^2 f g of the induced metric."""
    q = np.asarray(data.q(u), dtype=float)
    r = np.asarray(data.r(v), dtype=float)
    return (1.0 + q * r) ** 2 * np.asarray(data.f(u), dtype=float) * np.asarray(data.g(v), dtype=float)


def _gl(rule, fun, a, b):
    nodes, weights = rule
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = fun(mid + half * nodes)
    return half * np.tensordot(weights, vals, axes=(0, 0))


def adaptive_quadrature(fun, a, b, tol=1e-12, max_depth=40):
    """Adaptive Gauss-Legendre integral of a vector-valued integrand.

    fun maps an array of parameters (n,) to values (n, k).  Failure to
    converge raises QuadratureError naming the worst subinterval.
    """
    total = 0.0
    stack = [(float(a), float(b), 0)]
    worst = (0.0, a, b)
    while stack:
        lo, hi, depth = stack.pop()
        coarse = _gl(_GL7, fun, lo, hi)
        fine = _gl(_GL15, fun, lo, hi)
        # a non-finite estimate (integrand pole at a node) fails the
        # comparison below and keeps subdividing toward the error path
        with np.errstate(invalid="ignore"):
            err = float(np.max(np.abs(fine - coarse)))
        if err <= tol * max(1.0, hi - lo) or hi - lo < 1e-14:
            total = total + fine
            continue
        if depth >= max_depth:
            if err > worst[0]:
                worst = (err, lo, hi)
            raise QuadratureError(
                f"quadrature did not converge; worst subinterval [{worst[1]:.6g}, {worst[2]:.6g}] "
                f"with error estimate {err:.3e}")
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return total


def _cumulative(fun, nodes, tol):
    out = np.zeros((len(nodes), 3))
    for i in range(1, len(nodes)):
        out[i] = out[i - 1] + adaptive_quadrature(fun, nodes[i - 1], nodes[i], tol=tol)
    return out


def integrate_minimal(data, domain, nu, nv, tol=DEFAULT_TOL):
    """Quadrature of the split representation on a rectangle.

    domain is (u0, u1, v0, v1); the surface is normalized so that the
    lower corner maps to the origin.  Grid points where the metric
    factor falls below the degeneracy tolerance are masked.
    """
    u0, u1, v0, v1 = domain
    if nu < 2 or nv < 2:
        raise ValueError("need at least a 2x2 grid")
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)

    def du_leg(t):
        return _du_direction(data.q(t)) * np.asarray(data.f(t), dtype=float)[..., None]

    def dv_leg(t):
        return _dv_direction(data.r(t)) * np.asarray(data.g(t), dtype=float)[..., None]

    a = _cumulative(du_leg, us, tol.quad)
    b = _cumulative(dv_leg, vs, tol.quad)
    points = a[:, None, :] + b[None, :, :]
    factor = minimal_metric_factor(data, us[:, None], vs[None, :])
    mask = np.abs(factor) < tol.degen
    return SurfaceGrid(us=us, vs=vs, points=points, mask=mask,
                       ambient=AmbientSpec.e31(), assembly="minimal")


def minimal_normal(data, u, v, tol=DEFAULT_TOL):
    """Oriented unit normal of the minimal surface, analytically.

    Solves the two orthogonality conditions with a cross product,
    normalizes to unit spacelike length and fixes the sign by requiring
    det[psi_x, psi_y, N] > 0.
    """
    psi_u, psi_v = weierstrass_derivatives(data, u, v)
    n = METRIC3 * cross3(psi_u, psi_v)
    nn = scalar_product3(n, n)
    if np.any(nn <= tol.degen ** 2):
        raise ValueError("normal solve degenerate: metric factor vanishes")
    n = n / np.sqrt(nn)[..., None]
    frame = np.stack([psi_u - psi_v, psi_u + psi_v, n], axis=-2)
    sign = np.sign(np.linalg.det(frame))
    return n * sign[..., None]


def projected_gauss_minimal(data, u, v, tol=DEFAULT_TOL):
    """Stereographic image of the oriented normal; returns (G1, G2).

    The projection is from the pole with 1 - x3 denominators, and the
    result reproduces the null-direction data (q(u), r(v)).
    """
    n = minimal_normal(data, u, v, tol=tol)
    den = 1.0 - n[..., 2]
    if np.any(np.abs(den) <= tol.pole):
        raise ZeroDivisionError("projected Gauss map hit the projection pole")
    return (n[..., 0] + n[..., 1]) / den, (-n[..., 0] + n[..., 1]) / den
