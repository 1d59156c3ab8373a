"""Null curves in SL(2,R) and the product surfaces they span.

A curve F(t) in SL(2,R) is null when det(F^-1 dF) = 0.  The curves used
here solve

    F1^-1 dF1 = [[q, -q^2], [1, -q]] f(u) du        (the u leg)
    F2^-1 dF2 = [[r, -r^2], [1, -r]] g(v) dv        (the v leg, mu)
    (dF2^-1) F2 = [[r, 1], [-r^2, -r]] g(v) dv      (the v leg, nu)

with scalar fields (q, f) or (r, g).  The coefficient matrices are
nilpotent, so the legs stay unimodular and RK4 tracks them to its usual
fourth order.  For the nu leg the inverse G = F2^-1 is integrated
directly as a left-coefficient system; both G and F2 are stored so
assembly never inverts anything.

Products phi = F1 F2^T have mean curvature +1 in the unimodular quadric
(with the orientation fixed downstream); products psi = F1 F2^-1 have
mean curvature -1.  The induced metric coefficient of either product is
-det of the summed leg coefficients, which is evaluated exactly from
the attached fields rather than by differencing the grid.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import adjugate, check_unimodular, det2, pack2, vec_of_mat
from .config import DEFAULT_TOL
from .fields import as_field1d
from .geometry import AmbientSpec, SurfaceGrid

KIND_F1 = "F1-holomorphic"
KIND_F2_MU = "F2-antiholomorphic-mu"
KIND_F2_NU = "F2-antiholomorphic-nu"
_KINDS = (KIND_F1, KIND_F2_MU, KIND_F2_NU)


class IntegrationError(RuntimeError):
    pass


@dataclass
class FrameCurve:
    """Uniform samples of one integrated leg."""

    kind: str
    s_field: object
    w_field: object
    t0: float
    t1: float
    n: int
    samples: np.ndarray               # (n, 2, 2) frame values
    inv_samples: np.ndarray = None    # (n, 2, 2) G = F^-1, nu leg only
    det_drift: float = 0.0

    @property
    def ts(self):
        return np.linspace(self.t0, self.t1, self.n)


def null_coefficient(kind, s, w):
    """Coefficient matrix of one leg at parameter values with fields s, w.

    s and w may be arrays; the result has shape s.shape + (2, 2) and is
    nilpotent (trace and determinant both vanish identically).
    """
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=float)
    if kind in (KIND_F1, KIND_F2_MU):
        c = pack2(s, -s * s, 1.0, -s)
    elif kind == KIND_F2_NU:
        c = pack2(s, 1.0, -s * s, -s)
    else:
        raise ValueError(f"unknown leg kind {kind!r}; expected one of {_KINDS}")
    return c * w[..., None, None]


def stage_times(starts, h, substeps):
    """RK4 stage times after each node start, shape (len(starts), substeps, 3).

    Substep k after node t runs from t + k h; its three stage times are
    its start, midpoint and end.
    """
    t = np.asarray(starts, dtype=float)[:, None] + np.arange(substeps) * h
    return np.stack((t, t + 0.5 * h, t + h), axis=-1)


def _rk4_step(y, c, h, left=False):
    """One RK4 step of dY = Y C (or dY = C Y if left) for batched Y.

    c[0], c[1], c[2] are the coefficients at the start, midpoint and end
    of the step.
    """
    if left:
        k1 = c[0] @ y
        k2 = c[1] @ (y + 0.5 * h * k1)
        k3 = c[1] @ (y + 0.5 * h * k2)
        k4 = c[2] @ (y + h * k3)
    else:
        k1 = y @ c[0]
        k2 = (y + 0.5 * h * k1) @ c[1]
        k3 = (y + 0.5 * h * k2) @ c[1]
        k4 = (y + h * k3) @ c[2]
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_march(y, coefs, h, left=False):
    """Yield the state at every node of an RK4 march, starting with y.

    coefs yields, node after node, the stage coefficients of that node's
    substeps, indexed [substep, stage] as stage_times lays them out.
    """
    yield y
    for node in coefs:
        for c in node:
            y = _rk4_step(y, c, h, left)
        yield y


def integrate_frame(kind, s, w, t_range, n, init=None, substeps=1, tol=DEFAULT_TOL):
    """RK4 integration of one leg, sampled at n uniform nodes.

    s and w may be field objects, expression strings, or constants.
    substeps > 1 refines the integrator without changing the stored
    nodes.  Fails if the determinant drifts by more than the step
    failure tolerance.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown leg kind {kind!r}; expected one of {_KINDS}")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    var = "u" if kind == KIND_F1 else "v"
    s = as_field1d(s, var=var)
    w = as_field1d(w, var=var)
    t0, t1 = float(t_range[0]), float(t_range[1])
    init = np.eye(2) if init is None else np.asarray(init, dtype=float)
    check_unimodular(init, tol, what="initial frame")

    left = kind == KIND_F2_NU
    y = adjugate(init) if left else init
    h = (t1 - t0) / ((n - 1) * substeps)
    ts = stage_times(t0 + np.arange(n - 1) * (t1 - t0) / (n - 1), h, substeps)
    out = np.stack(list(rk4_march(y, null_coefficient(kind, s(ts), w(ts)), h, left)))
    drift = float(np.max(np.abs(det2(out) - 1.0)))
    if drift > tol.drift:
        raise IntegrationError(
            f"determinant drift {drift:.3e} exceeds {tol.drift:g} on the {kind} leg")
    if left:
        return FrameCurve(kind, s, w, t0, t1, n, samples=adjugate(out),
                          inv_samples=out, det_drift=drift)
    return FrameCurve(kind, s, w, t0, t1, n, samples=out, det_drift=drift)


def _leg_coefs(curve):
    ts = curve.ts
    return null_coefficient(curve.kind, curve.s_field(ts), curve.w_field(ts))


def frame_metric_grid(f1, f2, assembly):
    """Exact conformal factor grid of the assembled product surface."""
    c1 = _leg_coefs(f1)
    c2 = _leg_coefs(f2)
    if assembly == "mu":
        c2 = np.swapaxes(c2, -1, -2)
    elif assembly != "nu":
        raise ValueError("assembly must be 'mu' or 'nu'")
    total = c1[:, None] + c2[None, :]
    return -det2(total)


def _check_tags(f1, f2, want_f2, assembly):
    if f1.kind != KIND_F1:
        raise ValueError(f"first factor must be a {KIND_F1} leg, got {f1.kind!r}")
    if f2.kind != want_f2:
        raise ValueError(
            f"assembly '{assembly}' needs a {want_f2} leg, got {f2.kind!r}")


def assemble_mu(f1, f2, tol=DEFAULT_TOL):
    """Grid of products F1(u_i) F2(v_j)^T with the degeneracy mask."""
    _check_tags(f1, f2, KIND_F2_MU, "mu")
    points = vec_of_mat(np.einsum("iab,jcb->ijac", f1.samples, f2.samples))
    coef = frame_metric_grid(f1, f2, "mu")
    return SurfaceGrid(us=f1.ts, vs=f2.ts, points=points, mask=np.abs(coef) < tol.degen,
                       ambient=AmbientSpec.h31(), assembly="mu")


def assemble_nu(f1, f2, tol=DEFAULT_TOL):
    """Grid of products F1(u_i) F2(v_j)^-1 using the stored inverses."""
    _check_tags(f1, f2, KIND_F2_NU, "nu")
    points = vec_of_mat(np.einsum("iab,jbc->ijac", f1.samples, f2.inv_samples))
    coef = frame_metric_grid(f1, f2, "nu")
    return SurfaceGrid(us=f1.ts, vs=f2.ts, points=points, mask=np.abs(coef) < tol.degen,
                       ambient=AmbientSpec.h31(), assembly="nu")
