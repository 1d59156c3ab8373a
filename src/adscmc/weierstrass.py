"""Timelike minimal surfaces in Minkowski 3-space from two null directions.

The surface splits as psi(u, v) = A(u) + B(v) with

    A'(u) = f(u) * ( (1 + q^2)/2, -(1 - q^2)/2, -q )
    B'(v) = g(v) * ( -(1 + r^2)/2, -(1 - r^2)/2, -r )

in coordinates (x1, x2, x3) of signature (-,+,+).  Both derivative
vectors are null, the induced metric is (1 + q r)^2 f g du dv, and the
surface degenerates exactly where that factor vanishes.  The unit normal
has stereographic image (q(u), r(v)), which is what makes (q, r)
projected Gauss data rather than just integration input.

integrate_minimal builds each leg as the running sum of its cell
integrals.  adaptive_quadrature takes all cells of a leg at once with
the nested 15-point Gauss-Kronrod rule of QUADPACK (qk15): one integrand
call per refinement level on the nodes of every open panel, only the
panels that fail the test being halved, under a depth limit and a
global evaluation cap (Kronrod 1965; Piessens et al., QUADPACK, 1983).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import cross3, scalar_product3
from .config import DEFAULT_TOL
from .fields import SampledField1D, ScalarField1D, as_field1d
from .geometry import SurfaceGrid


def _mirror(half, sign):
    """A symmetric rule on [-1, 1] from its half listed from 1 down to 0."""
    half = np.asarray(half)
    return np.concatenate([sign * half[:-1], half[::-1]])


# QUADPACK qk15: the 15-point Kronrod nodes and weights, and the weights
# of the 7-point Gauss rule embedded in them (zero on the Kronrod-only
# nodes), so that one set of integrand values gives both estimates
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
K15_NODES = _mirror(_XGK, -1.0)
K15_WEIGHTS = _mirror(_WGK, 1.0)
G7_WEIGHTS = _mirror(_WG, 1.0)
_RULES = np.stack([K15_WEIGHTS, G7_WEIGHTS], axis=-1)

# the halvings of a cell, and the integrand points beyond the 15 per cell
# of its first pass, that one adaptive_quadrature call may spend on refinement
MAX_DEPTH = 40
MAX_EVALUATIONS = 1 << 20


class QuadratureError(RuntimeError):
    """An unconverged quadrature; names its worst panel and the work spent."""

    def __init__(self, cell, lo, hi, err, depth, evaluations):
        super().__init__(
            f"quadrature did not converge; worst panel [{lo!r}, {hi!r}] of cell {cell} "
            f"with error estimate {err:.3e} at depth {depth} after {evaluations} "
            f"integrand points")
        self.cell, self.lo, self.hi, self.err = cell, lo, hi, err
        self.depth, self.evaluations = depth, evaluations


@dataclass
class WeierstrassData:
    """Null-direction data: q, f depend on u; r, g depend on v."""

    q: ScalarField1D | SampledField1D
    f: ScalarField1D | SampledField1D
    r: ScalarField1D | SampledField1D
    g: ScalarField1D | SampledField1D

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


def _u_leg(data, u):
    return _du_direction(data.q(u)) * np.asarray(data.f(u), dtype=float)[..., None]


def _v_leg(data, v):
    return _dv_direction(data.r(v)) * np.asarray(data.g(v), dtype=float)[..., None]


def weierstrass_derivatives(data, u, v):
    """Analytic psi_u and psi_v at broadcastable points (u, v)."""
    psi_u = _u_leg(data, np.asarray(u, dtype=float))
    psi_v = _v_leg(data, np.asarray(v, dtype=float))
    shape = np.broadcast_shapes(psi_u.shape, psi_v.shape)
    return np.broadcast_to(psi_u, shape).copy(), np.broadcast_to(psi_v, shape).copy()


def minimal_metric_factor(data, u, v):
    """Conformal factor (1 + q r)^2 f g of the induced metric."""
    q = np.asarray(data.q(u), dtype=float)
    r = np.asarray(data.r(v), dtype=float)
    return (1.0 + q * r) ** 2 * np.asarray(data.f(u), dtype=float) * np.asarray(data.g(v), dtype=float)


def adaptive_quadrature(fun, a, b, tol=DEFAULT_TOL.quad):
    """Adaptive Gauss-Kronrod integrals of a vector-valued integrand.

    a and b are scalars or equal-shape arrays of cell endpoints; the
    result holds one integral per cell, shape a.shape + value shape.
    fun maps a 1-D array of parameters (n,) to values (n,) or (n, k).
    Every cell is first integrated by one 15-point Kronrod panel, and
    the panels of all cells are evaluated together: one fun call per
    refinement level, on the flattened (panels, 15) node array.  A panel
    is accepted when |K15 - G7| <= tol * max(1, |K15|) (max norm over
    the components), an absolute test for integrals below 1 and a
    relative one above; the others are halved for the next level.

    Raises QuadratureError naming the unconverged panel with the largest
    error estimate when a panel still fails after MAX_DEPTH halvings, or
    when the next level would spend more than MAX_EVALUATIONS integrand
    points beyond the first pass.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    cell = np.arange(lo.size)
    budget = lo.size * K15_NODES.size + MAX_EVALUATIONS
    spent = 0
    total = None
    for depth in range(MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * K15_NODES
        vals = np.asarray(fun(nodes.ravel()), dtype=float)
        spent += nodes.size
        trail = vals.shape[1:]
        vals = vals.reshape(nodes.shape + (-1,))
        # a non-finite value (integrand pole at a node) yields a NaN
        # estimate, which fails the test below and keeps subdividing
        with np.errstate(invalid="ignore", over="ignore"):
            kron, gauss = np.einsum("pnk,nr->rpk", vals, _RULES) * half[:, None]
            err = np.max(np.abs(kron - gauss), axis=-1)
            ok = err <= tol * np.maximum(1.0, np.max(np.abs(kron), axis=-1))
        if total is None:
            total = np.zeros((cell.size, kron.shape[-1]))
        np.add.at(total, cell[ok], kron[ok])
        if ok.all():
            # [()] turns the 0-d result of scalar endpoints into a scalar
            return total.reshape(shape + trail)[()]
        lo, hi, cell, err = lo[~ok], hi[~ok], cell[~ok], err[~ok]
        if depth == MAX_DEPTH or spent + 2 * K15_NODES.size * lo.size > budget:
            worst = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
            raise QuadratureError(int(cell[worst]), float(lo[worst]), float(hi[worst]),
                                  float(err[worst]), depth, spent)
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], axis=-1).ravel(), np.stack([mid, hi], axis=-1).ravel()
        cell = np.repeat(cell, 2)


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
    # each leg is the running sum of its cell integrals, from the lower corner
    a = np.zeros((nu, 3))
    b = np.zeros((nv, 3))
    np.cumsum(adaptive_quadrature(partial(_u_leg, data), us[:-1], us[1:], tol=tol.quad),
              axis=0, out=a[1:])
    np.cumsum(adaptive_quadrature(partial(_v_leg, data), vs[:-1], vs[1:], tol=tol.quad),
              axis=0, out=b[1:])
    points = a[:, None, :] + b[None, :, :]
    factor = minimal_metric_factor(data, us[:, None], vs[None, :])
    mask = np.abs(factor) < tol.degen
    return SurfaceGrid(us=us, vs=vs, points=points, mask=mask, assembly="minimal")


def minimal_normal(data, u, v, tol=DEFAULT_TOL):
    """Oriented unit normal of the minimal surface, analytically.

    Solves the two orthogonality conditions with a cross product and
    normalizes to unit spacelike length.  The orientation
    det[psi_x, psi_y, N] > 0 needs no sign fix: for
    n = METRIC3 cross3(psi_u, psi_v) that determinant is identically
    2 sqrt(<n, n>) > 0, as in geometry.fundamental_data.
    """
    psi_u, psi_v = weierstrass_derivatives(data, u, v)
    n = cross3(np.moveaxis(psi_u, -1, 0), np.moveaxis(psi_v, -1, 0))
    n[0] *= -1.0    # METRIC3 * cross3: the metric's negative plane
    nn = scalar_product3(n, n)
    if np.any(nn <= tol.degen ** 2):
        raise ValueError("normal solve degenerate: metric factor vanishes")
    return np.moveaxis(n / np.sqrt(nn), 0, -1)


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
