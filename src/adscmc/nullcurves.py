"""Null curves in SL(2,R) and the product surfaces they span.

A curve F(t) in SL(2,R) is null when det(F^-1 dF) = 0.  The curves used
here solve

    F1^-1 dF1 = [[q, -q^2], [1, -q]] f(u) du        (the u leg)
    F2^-1 dF2 = [[r, -r^2], [1, -r]] g(v) dv        (the v leg)

with scalar fields (q, f) or (r, g).  The coefficient matrices are
nilpotent, so the legs stay unimodular and RK4 tracks them to its usual
fourth order.

Products phi = F1 F2^T have mean curvature +1 in the unimodular quadric
(with the orientation fixed downstream); mean curvature -1 needs the
flipped normal.  The induced metric coefficient of the product is -det
of the summed leg coefficients, which is evaluated exactly from the
attached fields rather than by differencing the grid.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import act, check_unimodular, det2, pack2, vec_of_mat
from .config import DEFAULT_TOL
from .fields import as_field1d
from .geometry import AmbientSpec, SurfaceGrid

KIND_F1 = "F1-holomorphic"
KIND_F2_MU = "F2-antiholomorphic-mu"
_KINDS = (KIND_F1, KIND_F2_MU)


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
    det_drift: float = 0.0

    @property
    def ts(self):
        return np.linspace(self.t0, self.t1, self.n)


def null_coefficient(s, w):
    """Coefficient [[s, -s^2], [1, -s]] w of the leg system dY = Y C.

    s and w may be arrays; the result has shape s.shape + (2, 2) and is
    nilpotent (trace and determinant both vanish identically).
    """
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=float)
    return pack2(s, -s * s, 1.0, -s) * w[..., None, None]


def stage_times(starts, h, substeps):
    """RK4 stage times after each node start, shape (len(starts), substeps, 3).

    Substep k after node t runs from t + k h; its three stage times are
    its start, midpoint and end.
    """
    t = np.asarray(starts, dtype=float)[:, None] + np.arange(substeps) * h
    return np.stack((t, t + 0.5 * h, t + h), axis=-1)


def _rk4_step(y, c, h):
    """One RK4 step of dY = Y C for batched Y.

    c[0], c[1], c[2] are the coefficients at the start, midpoint and end
    of the step.
    """
    k1 = y @ c[0]
    k2 = (y + 0.5 * h * k1) @ c[1]
    k3 = (y + 0.5 * h * k2) @ c[1]
    k4 = (y + h * k3) @ c[2]
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_march(y, coefs, h):
    """Yield the state at every node of an RK4 march, starting with y.

    coefs yields, node after node, the stage coefficients of that node's
    substeps, indexed [substep, stage] as stage_times lays them out.
    """
    yield y
    for node in coefs:
        for c in node:
            y = _rk4_step(y, c, h)
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

    h = (t1 - t0) / ((n - 1) * substeps)
    ts = stage_times(t0 + np.arange(n - 1) * (t1 - t0) / (n - 1), h, substeps)
    out = np.stack(list(rk4_march(init, null_coefficient(s(ts), w(ts)), h)))
    drift = float(np.max(np.abs(det2(out) - 1.0)))
    if not drift <= tol.drift:
        raise IntegrationError(
            f"determinant drift {drift:.3e} exceeds {tol.drift:g} on the {kind} leg")
    return FrameCurve(kind, s, w, t0, t1, n, samples=out, det_drift=drift)


def frame_metric_grid(f1, f2):
    """Exact conformal factor grid of the assembled product surface.

    It is -det(C1 + C2^T) with C1, C2 the two legs' coefficients in the
    common dY = Y C form.
    """
    c1 = null_coefficient(f1.s_field(f1.ts), f1.w_field(f1.ts))
    c2 = null_coefficient(f2.s_field(f2.ts), f2.w_field(f2.ts))
    return -det2(c1[:, None] + np.swapaxes(c2, -1, -2)[None, :])


def _assemble(f1, f2, label, tol):
    if f1.kind != KIND_F1:
        raise ValueError(f"first factor must be a {KIND_F1} leg, got {f1.kind!r}")
    if f2.kind != KIND_F2_MU:
        raise ValueError(f"second factor must be a {KIND_F2_MU} leg, got {f2.kind!r}")
    points = vec_of_mat(act(f1.samples[:, None], f2.samples[None, :]))
    coef = frame_metric_grid(f1, f2)
    return SurfaceGrid(us=f1.ts, vs=f2.ts, points=points, mask=np.abs(coef) < tol.degen,
                       ambient=AmbientSpec.h31(), assembly=label)


def assemble_mu(f1, f2, tol=DEFAULT_TOL):
    """Grid of products F1(u_i) F2(v_j)^T with the degeneracy mask."""
    return _assemble(f1, f2, "mu", tol)


def assemble_nu(f1, f2, tol=DEFAULT_TOL):
    """assemble_mu's grid, labelled "nu".

    The inverse-action product F1 Psi^-1 of a leg Psi = F2^-T is F1 F2^T,
    so it needs no leg system of its own; the label is kept for the
    outputs that name it.
    """
    return _assemble(f1, f2, "nu", tol)
