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
quadric, and Psi_1 Psi_2^-1 (with the second set of matrices) has mean
curvature -H against the same orientation rule.

Derivatives of closed-form omega are evaluated in forward mode through
the expression tree, so the compatibility gate tests the equation
itself, not a discretization of it; sampled omega falls back to
4th-order differences.  Integration marches the bottom edge in u and
then all columns together in v, both frames stacked in one state, with
RK4 coefficients evaluated once per v node for the whole column batch.
A second path to the far corner (up the left edge, then along the top
edge) measures the path-independence defect there, which is the
numerical witness of the zero-curvature condition.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import adjugate, check_unimodular, det2, pack2
from .config import DEFAULT_TOL
from .fields import ScalarField1D, as_field1d, as_field2d, fd_derivative
from .geometry import AmbientSpec, SurfaceGrid
from .nullcurves import (KIND_F1, KIND_F2_MU, KIND_F2_NU, IntegrationError,
                         rk4_march, stage_times)
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
    """Signed residual of the integrability condition on a grid,

        omega_uv + (H^2 - 1)/2 * e^omega - 2 Q R e^-omega.

    The two mean-curvature flux conditions, H_u = 2 e^-omega Q_v and
    H_v = 2 e^-omega R_u, hold identically for split data with constant
    H, so this is the only residual there is to measure.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    w, _, _, wuv = data.omega.with_derivatives(us[:, None], vs[None, :])
    q = np.asarray(data.Q(us), dtype=float)[:, None]
    r = np.asarray(data.R(vs), dtype=float)[None, :]
    e = np.exp(w)
    return wuv + 0.5 * (data.H ** 2 - 1.0) * e - 2.0 * q * r / e


def lax_matrices(data, action, u, v):
    """The four coefficient matrices (U1, V1, U2, V2) at points (u, v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w, wu, wv, _ = data.omega.with_derivatives(u, v)
    q = np.asarray(data.Q(u), dtype=float)
    r = np.asarray(data.R(v), dtype=float)
    h = data.H
    ep = np.exp(0.5 * w)
    em = np.exp(-0.5 * w)
    u1 = pack2(wu / 4.0, 0.5 * ep * (h + 1.0), -em * q, -wu / 4.0)
    v1 = pack2(-wv / 4.0, em * r, -0.5 * ep * (h - 1.0), wv / 4.0)
    if action == "mu":
        u2 = pack2(-wu / 4.0, em * q, -0.5 * ep * (h - 1.0), wu / 4.0)
        v2 = pack2(wv / 4.0, 0.5 * ep * (h + 1.0), -em * r, -wv / 4.0)
    elif action == "nu":
        u2 = pack2(wu / 4.0, 0.5 * ep * (h - 1.0), -em * q, -wu / 4.0)
        v2 = pack2(-wv / 4.0, em * r, -0.5 * ep * (h + 1.0), wv / 4.0)
    else:
        raise ValueError("action must be 'mu' or 'nu'")
    return u1, v1, u2, v2


@dataclass
class LaxFrames:
    """Both integrated frames on a grid, with the sweep defect."""

    us: np.ndarray
    vs: np.ndarray
    phi1: np.ndarray   # (nu, nv, 2, 2)
    phi2: np.ndarray
    action: str
    path_defect: float
    data: GmcData

    def assemble(self, tol=DEFAULT_TOL):
        """Product surface Phi1 Phi2^T (mu) or Phi1 Phi2^-1 (nu)."""
        if self.action == "mu":
            points = np.einsum("ijab,ijcb->ijac", self.phi1, self.phi2)
        else:
            points = np.einsum("ijab,ijbc->ijac", self.phi1, adjugate(self.phi2))
        w = self.data.omega(self.us[:, None], self.vs[None, :])
        mask = np.broadcast_to(np.exp(w) < tol.degen, points.shape[:2]).copy()
        return SurfaceGrid(us=self.us, vs=self.vs, points=points, mask=mask,
                           ambient=AmbientSpec.h31(), assembly=self.action)


def _coefs(data, action, u, v, along_u):
    """(U1, U2) or (V1, V2) at points (u, v) batched along their last axis.

    The frame axis goes right before the batch axis, as in the state.
    """
    m = lax_matrices(data, action, u, v)
    k = 0 if along_u else 1
    return np.stack((m[k], m[k + 2]), axis=-4)


def _edge(data, action, y, ts, fixed, substeps, along_u):
    """Both frames (2, 1, 2, 2) at the nodes ts of one grid line.

    The coefficients of the whole line come from one call.
    """
    h = (ts[-1] - ts[0]) / ((len(ts) - 1) * substeps)
    times = stage_times(ts[:-1], h, substeps)[..., None]
    u, v = (times, fixed) if along_u else (fixed, times)
    return list(rk4_march(y, _coefs(data, action, u, v, along_u), h))


def _sweep(data, action, us, vs, init, substeps):
    """Both frames (2, nu, nv, 2, 2): bottom edge in u, then all columns in v.

    The columns advance together, with one coefficient call per v node
    covering every stage time of its substeps.
    """
    out = np.empty((2, len(us), len(vs), 2, 2))
    bottom = _edge(data, action, init, us, vs[0], substeps, True)
    out[:, :, 0] = np.concatenate(bottom, axis=1)
    h = (vs[-1] - vs[0]) / ((len(vs) - 1) * substeps)
    columns = (_coefs(data, action, us, t[..., None], False)
               for t in stage_times(vs[:-1], h, substeps))
    for j, y in enumerate(rk4_march(out[:, :, 0], columns, h)):
        out[:, :, j] = y
    return out


def integrate_lax(data, action, domain, nu, nv, init=None, substeps=1,
                  tol=DEFAULT_TOL, gate=True):
    """Integrate both frames over a rectangle after gating the data.

    The compatibility gate evaluates the integrability residual on the
    grid (exactly for closed-form omega) and rejects incompatible data.
    The sweep is bottom edge then columns, with one coefficient call per
    column node (all its RK4 stage times at once) and one per edge.  A
    single alternate path, up the left edge and then along the top edge,
    reaches the far corner, where the path-independence defect is
    largest; only that corner of it is compared.
    """
    if nu < 2 or nv < 2:
        raise ValueError("need at least a 2x2 frame grid")
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    u0, u1, v0, v1 = domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    if gate:
        res = float(np.max(np.abs(gmc_residual(data, us, vs))))
        if res > tol.compat:
            raise CompatibilityError(
                f"data fails the integrability condition: max residual {res:.3e} "
                f"> {tol.compat:g}")
    if init is None:
        init = (np.eye(2), np.eye(2))
    for m in init:
        check_unimodular(np.asarray(m, dtype=float), tol, what="initial frame")

    init = np.stack(init).astype(float)[:, None]
    frames = _sweep(data, action, us, vs, init, substeps)
    up = _edge(data, action, init, vs, us[0], substeps, False)
    corner = _edge(data, action, up[-1], us, vs[-1], substeps, True)[-1]
    defect = float(np.max(np.abs(frames[:, -1, -1:] - corner)))
    if defect > tol.path:
        warnings.warn(f"far-corner path defect {defect:.3e} exceeds {tol.path:g}",
                      RuntimeWarning, stacklevel=2)

    drift = float(np.max(np.abs(det2(frames) - 1.0)))
    if drift > tol.drift:
        raise IntegrationError(
            f"determinant drift {drift:.3e} exceeds {tol.drift:g} in the frame sweep")
    return LaxFrames(us=us, vs=vs, phi1=frames[0], phi2=frames[1], action=action,
                     path_defect=defect, data=data)


def _leg_data(curve, tol):
    """Recover (s, w) samples from one integrated null frame leg."""
    ts = curve.ts
    dt = float(ts[1] - ts[0])
    dot = fd_derivative(curve.samples, dt, axis=0)
    coef = adjugate(curve.samples) @ dot
    a = coef[:, 0, 0]
    b = coef[:, 0, 1]
    c = coef[:, 1, 0]
    nullity = float(np.max(np.abs(a * a + b * c)))
    if nullity > 1e-8:
        raise ValueError(f"leg is not null: max |a^2 + bc| = {nullity:.3e}")
    if curve.kind == KIND_F2_NU:
        # left-system leg: F^-1 dF = [[-sw, -w], [s^2 w, sw]] dv
        den, s_num, w = b, a, -b
    else:
        den, s_num, w = c, a, c
    bad = np.min(np.abs(den))
    if bad < tol.pole:
        raise ZeroDivisionError(
            "direction entry of the connection vanishes on the range "
            f"(min |.| = {bad:.3e}); data only recoverable locally")
    return s_num / den, w


def extract_weierstrass_data(f1, f2, tol=DEFAULT_TOL):
    """Read (q, f, r, g) back off a pair of integrated null frame legs.

    Differentiates the samples (4th order), forms F^-1 dF, and divides
    entries.  The frames must be null within 1e-8 and the dividing
    entry must not vanish anywhere on the range.
    """
    if f1.kind != KIND_F1:
        raise ValueError(f"first leg must have kind {KIND_F1!r}, got {f1.kind!r}")
    if f2.kind not in (KIND_F2_MU, KIND_F2_NU):
        raise ValueError(f"second leg has kind {f2.kind!r}")
    q, f = _leg_data(f1, tol)
    r, g = _leg_data(f2, tol)
    return WeierstrassData.build(
        q=ScalarField1D.from_samples(f1.t0, (f1.t1 - f1.t0) / (f1.n - 1), q),
        f=ScalarField1D.from_samples(f1.t0, (f1.t1 - f1.t0) / (f1.n - 1), f),
        r=ScalarField1D.from_samples(f2.t0, (f2.t1 - f2.t0) / (f2.n - 1), r),
        g=ScalarField1D.from_samples(f2.t0, (f2.t1 - f2.t0) / (f2.n - 1), g))
