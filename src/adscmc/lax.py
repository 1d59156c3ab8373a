"""Frame integration for prescribed conformal cmc data.

Data (omega, H, Q, R) with constant H, Q a function of u alone and R of
v alone is admissible when the single remaining integrability condition

    omega_uv + (H^2 - 1)/2 * e^omega - 2 Q R e^-omega = 0

holds (the mean curvature being constant makes the other two conditions
vanish identically for such split data).  Admissible data feeds two
coupled linear systems per frame,

    dPhi_i = Phi_i (U_i du + V_i dv),

whose zero-curvature condition is exactly the equation above; the
product Phi_1 Phi_2^T then has mean curvature H in the unimodular
quadric, and H flips sign with the normal.  There is no second set of
matrices for an inverse product Phi_1 Psi_2^-1: such a Psi_2 solves
dPsi_2 = -Psi_2 (U_2^T du + V_2^T dv), so Psi_2 = Phi_2^-T for a frame
Phi_2 of these systems (started at the inverse transpose), and
Phi_1 Psi_2^-1 is again the product Phi_1 Phi_2^T.

Derivatives of omega are evaluated in forward mode through the
expression tree, so the compatibility gate tests the equation itself,
not a discretization of it.  Integration marches the bottom edge in u
and then all columns together in v, both frames stacked in one state,
with the Magnus integrator of nullcurves.py.  The coefficients at the
Gauss points of a block of v nodes, and the sl(2,R) exponentials they
give, are computed for the whole column batch in one call each, so each
step of the march is one 2x2 product.  A second path to the far corner
(up the left edge, which is the sweep's first column, then along the
top edge) measures the path-independence defect there, which is the
numerical witness of the zero-curvature condition.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import adjugate, check_unimodular, pack2
from .config import DEFAULT_TOL
from .fields import ScalarField1D, as_field1d, as_field2d, fd_derivative
from .geometry import row_blocks
from .nullcurves import (check_drift, check_leg_pair, magnus_increments, magnus_march,
                         product_surface, stage_times)
from .weierstrass import WeierstrassData


class CompatibilityError(ValueError):
    pass


@dataclass
class GmcData:
    """Split conformal cmc data: omega(u, v), constant H, Q(u), R(v)."""

    omega: object
    H: float
    Q: object
    R: object

    @classmethod
    def build(cls, omega, H, Q, R):
        return cls(as_field2d(omega), float(H), as_field1d(Q, var="u"),
                   as_field1d(R, var="v"))


def gmc_residual(data, us, vs):
    """Signed residual of the integrability condition on the grid of nodes us x vs,

        omega_uv + (H^2 - 1)/2 * e^omega - 2 Q R e^-omega.

    The two mean-curvature flux conditions, H_u = 2 e^-omega Q_v and
    H_v = 2 e^-omega R_u, hold identically for split data with constant
    H, so this is the only residual there is to measure.  The grid is
    evaluated in the row blocks of geometry.fundamental_data, so the
    omega_u and omega_v it does not read never span the whole grid.
    """
    us = np.ravel(np.asarray(us, dtype=float))
    vs = np.ravel(np.asarray(vs, dtype=float))
    q = np.asarray(data.Q(us), dtype=float)[:, None]
    r = np.asarray(data.R(vs), dtype=float)[None, :]
    out = np.empty((len(us), len(vs)))
    for a, b in row_blocks(len(us), len(vs)):
        w, _, _, wuv = data.omega.with_derivatives(us[a:b, None], vs[None, :])
        e = np.exp(w)
        np.subtract(wuv + 0.5 * (data.H ** 2 - 1.0) * e, 2.0 * q[a:b] * r / e, out=out[a:b])
    return out


def lax_terms(data, w, u=None, v=None):
    """e^{w/2}(H+1)/2, e^{w/2}(H-1)/2, e^{-w/2} Q(u), e^{-w/2} R(v) from omega values w.

    The off-diagonal Lax terms, shared with gaussmaps.holomorphicity_check;
    the Q or R term is None, its field unevaluated, when u or v is.
    """
    ep = np.exp(0.5 * w)
    em = np.exp(-0.5 * w)
    q = None if u is None else em * np.asarray(data.Q(u), dtype=float)
    r = None if v is None else em * np.asarray(data.R(v), dtype=float)
    return 0.5 * ep * (data.H + 1.0), 0.5 * ep * (data.H - 1.0), q, r


def _lax_entries(data, u, v, along_u):
    """Trace-free entries (x, y, z) of (U1, U2) if along_u, else (V1, V2).

    A coefficient [[x, y], [z, -x]] is given by its entries (x, y, z),
    evaluated at points (u, v).
    """
    w, wu, wv, _ = data.omega.with_derivatives(u, v)
    if along_u:
        plus, minus, q, _ = lax_terms(data, w, u=u)
        d = wu / 4.0
        return (d, plus, -q), (-d, q, -minus)
    plus, minus, _, r = lax_terms(data, w, v=v)
    d = wv / 4.0
    return (-d, r, -minus), (d, plus, -r)


def lax_matrices(data, u, v, along_u):
    """The coefficient pair (U1, U2) if along_u, else (V1, V2), at points (u, v)."""
    return tuple(pack2(x, y, z, -x) for x, y, z in _lax_entries(data, u, v, along_u))


@dataclass
class LaxFrames:
    """Both integrated frames on a grid, with the sweep defect."""

    us: np.ndarray
    vs: np.ndarray
    phi1: np.ndarray   # (nu, nv, 2, 2)
    phi2: np.ndarray
    path_defect: float
    data: GmcData

    def assemble(self, tol=DEFAULT_TOL):
        """Product surface Phi1 Phi2^T, masked where e^omega < tol.degen."""
        factor = np.exp(self.data.omega(self.us[:, None], self.vs[None, :]))
        return product_surface(self.us, self.vs, self.phi1, self.phi2, factor, "mu", tol)


def _coefs(data, u, v, along_u):
    """Entries of (U1, U2) or (V1, V2) at points (u, v), laid out for Magnus.

    The points carry the stage times' [stage, node] axes first and a
    batch axis last; the entries come out indexed [(x, y, z), stage,
    node, frame, batch], the frame axis going right before the batch
    axis, as in the state.
    """
    f1, f2 = _lax_entries(data, u, v, along_u)
    return np.stack([np.stack(pair, axis=-2) for pair in zip(f1, f2)])


def _planes(m):
    """A view of matrices (..., 2, 2) as component planes (2, 2, ...)."""
    return np.moveaxis(m, (-2, -1), (0, 1))


def _edge(data, y, us, v):
    """Both frames as planes (2, 2, 2, nu) at the nodes us of the grid row at v.

    y holds both frames at us[0] as planes (2, 2, 2, 1); the
    coefficients and increments of the whole row come from one call.
    """
    h = (us[-1] - us[0]) / (len(us) - 1)
    times = stage_times(us[:-1], h)[..., None]
    steps = magnus_increments(_coefs(data, times, v, True), h)
    return np.concatenate(list(magnus_march(y, steps)), axis=-1)


def _sweep(data, us, vs, init):
    """Both frames (2, nu, nv, 2, 2): bottom edge in u, then all columns in v.

    The columns advance together.  One coefficient call and one
    increment call cover both stage times of a block of v nodes from
    row_blocks, a node's two stage times at every u making a row of
    2 nu points, and the march reads the block node by node, writing
    each node straight into the output.
    """
    out = np.empty((2, len(us), len(vs), 2, 2))
    bottom = _edge(data, init, us, vs[0])
    h = (vs[-1] - vs[0]) / (len(vs) - 1)
    times = stage_times(vs[:-1], h)
    blocks = (magnus_increments(_coefs(data, us, times[:, a:b, None], False), h)
              for a, b in row_blocks(len(vs) - 1, 2 * len(us)))
    columns = (node for block in blocks for node in block)
    planes = _planes(out)
    for j, y in enumerate(magnus_march(bottom, columns)):
        planes[..., j] = y
    return out


def integrate_lax(data, domain, nu, nv, init=None, tol=DEFAULT_TOL):
    """Integrate both frames over a rectangle after gating the data.

    One set of matrices moves both frames; an inverse-action set would
    only give second frames Phi2^-T, and Phi1 (Phi2^-T)^-1 = Phi1 Phi2^T.

    The compatibility gate evaluates the integrability residual on the
    grid (exactly for closed-form omega) and rejects incompatible data;
    tol.compat = inf lets every residual but NaN through.
    The sweep is bottom edge then columns, with one coefficient call per
    edge and one per block of column nodes (all their Magnus stage times
    at once).  A single alternate path, up the left edge (the sweep's first
    column) and then along the top edge, reaches the far corner, where
    the path-independence defect is largest; only that corner of it is
    compared.
    """
    if nu < 2 or nv < 2:
        raise ValueError("need at least a 2x2 frame grid")
    u0, u1, v0, v1 = domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    res = float(np.max(np.abs(gmc_residual(data, us, vs))))
    if not res <= tol.compat:
        raise CompatibilityError(
            f"data fails the integrability condition: max residual {res:.3e} > {tol.compat:g}")
    if init is None:
        init = (np.eye(2), np.eye(2))
    for m in init:
        check_unimodular(np.asarray(m, dtype=float), tol, what="initial frame")

    init = _planes(np.stack(init).astype(float)[:, None])
    frames = _sweep(data, us, vs, init)
    corner = _edge(data, _planes(frames[:, :1, -1]), us, vs[-1])[..., -1]
    defect = float(np.max(np.abs(_planes(frames[:, -1, -1]) - corner)))
    if not defect <= tol.path:
        warnings.warn(f"far-corner path defect {defect:.3e} exceeds {tol.path:g}",
                      RuntimeWarning, stacklevel=2)

    check_drift(frames, tol, "in the frame sweep")
    return LaxFrames(us=us, vs=vs, phi1=frames[0], phi2=frames[1],
                     path_defect=defect, data=data)


# bound on max |a^2 + bc| of F^-1 dF read off 4th-order differences, which
# a null leg misses by O(h^4) at its end nodes: 8.0e-9 for q = u, f = 1 at
# 101 nodes on [-0.5, 0.5].  The bound does not scale with h.
LEG_NULLITY_BOUND = 1e-8


def _leg_data(curve, tol):
    """Recover the (s, w) fields from one integrated null frame leg."""
    step = (curve.t1 - curve.t0) / (curve.n - 1)
    dot = fd_derivative(curve.samples, step, axis=0)
    coef = adjugate(curve.samples) @ dot
    a = coef[:, 0, 0]
    b = coef[:, 0, 1]
    c = coef[:, 1, 0]
    nullity = float(np.max(np.abs(a * a + b * c)))
    if not nullity <= LEG_NULLITY_BOUND:
        raise ValueError(f"leg is not null: max |a^2 + bc| = {nullity:.3e}")
    bad = np.min(np.abs(c))
    if not bad >= tol.pole:
        raise ZeroDivisionError(
            "direction entry of the connection vanishes on the range "
            f"(min |.| = {bad:.3e}); data only recoverable locally")
    return (ScalarField1D.from_samples(curve.t0, step, a / c),
            ScalarField1D.from_samples(curve.t0, step, c))


def extract_weierstrass_data(f1, f2, tol=DEFAULT_TOL):
    """Read (q, f, r, g) back off a pair of integrated null frame legs.

    Differentiates the samples (4th order), forms F^-1 dF, and divides
    entries.  The frames must be null within LEG_NULLITY_BOUND and the
    dividing entry must not vanish anywhere on the range.
    """
    check_leg_pair(f1, f2)
    return WeierstrassData.build(*_leg_data(f1, tol), *_leg_data(f2, tol))
