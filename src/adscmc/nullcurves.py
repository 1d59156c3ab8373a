"""Null curves in SL(2,R) and the product surfaces they span.

A curve F(t) in SL(2,R) is null when det(F^-1 dF) = 0.  The curves used
here solve

    F1^-1 dF1 = [[q, -q^2], [1, -q]] f(u) du        (the u leg)
    F2^-1 dF2 = [[r, -r^2], [1, -r]] g(v) dv        (the v leg)

with scalar fields (q, f) or (r, g).  The coefficient matrices are
nilpotent, so the legs stay unimodular.

Every frame of the package, these legs and the Lax frames of lax.py
alike, solves a system dY = Y A with trace-free A, and one integrator
marches them all: the fourth-order Magnus method (Iserles, Munthe-Kaas,
Norsett & Zanna, Acta Numerica 9 (2000); Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009)).  Each step reads A at its two Gauss points, and
its Omega lies in sl(2,R), whose exponential has a closed form.  The
coefficients and the increments exp(Omega) - I of a whole run of steps
are computed in one vectorised call each, so the march itself makes one
2x2 product per step, y <- y + y (exp(Omega) - I), and the frames keep
det = 1 to rounding with no repair.

Products phi = F1 F2^T have mean curvature +1 in the unimodular quadric
(with the orientation fixed downstream); mean curvature -1 needs the
flipped normal.  The induced metric coefficient of the product is -det
of the summed leg coefficients, identically w1 w2 (1 + s1 s2)^2: the
factor of the minimal cousin whose Weierstrass data (q, f, r, g) are
the legs' (s1, w1, s2, w2).  It is evaluated exactly from the attached
fields by that one formula, weierstrass.minimal_metric_factor, rather
than by differencing the grid.  The Lax frames of lax.py end here too:
product_surface forms and masks every product grid, and check_drift is
the determinant-drift gate of every integrated frame.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import act, check_unimodular, det2, pack2, vec_of_mat
from .config import DEFAULT_TOL
from .fields import as_field1d
from .geometry import SurfaceGrid, row_blocks
from .weierstrass import WeierstrassData, minimal_metric_factor

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
    x, y, z = _null_entries(np.asarray(s, dtype=float), np.asarray(w, dtype=float))
    return pack2(x, y, z, -x)


def _null_entries(s, w):
    """Trace-free entries (x, y, z) of the leg coefficient [[x, y], [z, -x]]."""
    return s * w, -s * s * w, w


# Gauss-Legendre nodes of one step, as fractions of it
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# the commutator weight of the fourth-order Magnus step, over h^2
_MAGNUS_C = math.sqrt(3.0) / 12.0
# Taylor coefficients of cosh(s) - 1 and sinh(s)/s in delta = s^2, through delta^6,
# highest first for Horner
_COSHM1 = tuple(1.0 / math.factorial(2 * k) for k in range(6, 0, -1))
_SINHC = tuple(1.0 / math.factorial(2 * k + 1) for k in range(6, -1, -1))
# |delta| up to which the series replace the closed forms
_SERIES_MAX = 0.1


def stage_times(starts, h):
    """Magnus stage times of the steps from each start, shape (2, len(starts)).

    The step from t runs to t + h; its two stage times are the Gauss
    points t + (1/2 -+ sqrt(3)/6) h.
    """
    t = np.asarray(starts, dtype=float)
    return np.stack([t + c * h for c in _GAUSS])


def _horner(coefs, x):
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def sl2_expm1(x, y, z):
    """exp(W) - I for the trace-free W = [[x, y], [z, -x]], as planes (2, 2, ...).

    With delta = x^2 + y z = -det W, W^2 = delta I, so
    exp(W) - I = (cosh(sqrt delta) - 1) I + sinh(sqrt delta)/sqrt(delta) W.
    Both coefficients come from their series through delta^6 where
    |delta| <= 0.1, and elsewhere from 2 sinh^2(s/2) and sinh(s)/s, or
    -2 sin^2(s/2) and sin(s)/s for delta = -s^2 < 0, which keep the
    small increment free of the cancellation in cosh - 1.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (x, y, z)))
    delta = np.asarray(x * x + y * z)
    a = np.asarray(delta * _horner(_COSHM1, delta))
    b = np.asarray(_horner(_SINHC, delta))
    big = np.abs(delta) > _SERIES_MAX
    if big.any():
        d = delta[big]
        s = np.sqrt(np.abs(d))
        pos = d > 0.0
        a[big] = np.where(pos, 2.0 * np.sinh(0.5 * s) ** 2, -2.0 * np.sin(0.5 * s) ** 2)
        b[big] = np.where(pos, np.sinh(s), np.sin(s)) / s
    return np.stack([np.stack([a + b * x, b * y]), np.stack([b * z, a - b * x])])


def magnus_increments(c, h):
    """exp(Omega) - I of every fourth-order Magnus step of dY = Y A.

    c holds the trace-free coefficients A = [[x, y], [z, -x]] as
    c[(x, y, z), stage, node, ...] at the stage_times of a run of
    nodes.  With A1, A2 at the two Gauss points,

        Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A1, A2],

    the sign of the commutator being the one for right multiplication.
    Returns increments indexed [node, row, column, ...].
    """
    (x1, x2), (y1, y2), (z1, z2) = c
    k = _MAGNUS_C * h * h
    ox = 0.5 * h * (x1 + x2) + k * (y1 * z2 - y2 * z1)
    oy = 0.5 * h * (y1 + y2) + 2.0 * k * (x1 * y2 - y1 * x2)
    oz = 0.5 * h * (z1 + z2) + 2.0 * k * (z1 * x2 - x1 * z2)
    return np.moveaxis(sl2_expm1(ox, oy, oz), 2, 0)


def _step(y, d):
    """y exp(Omega) = y + y d for states and increments d laid out as planes (2, 2, ...)."""
    return y + (y[:, :1] * d[0] + y[:, 1:] * d[1])


def magnus_march(y, steps):
    """An iterator over the state at every node of a Magnus march, from y.

    y is laid out as planes (row, column, ...); steps yields, node after
    node, the increment of the step from that node, as magnus_increments
    lays them out.
    """
    return itertools.accumulate(steps, _step, initial=y)


def check_drift(frames, tol, where):
    """max |det - 1| of frames (..., 2, 2), gated by tol.drift.

    Raises IntegrationError, its message ending in where.  Blocks of
    row_blocks, a frame to a row, hold no full-size determinant, and
    np.max keeps a NaN block maximum, so a NaN frame fails.
    """
    m = frames.reshape(-1, 2, 2)
    drift = float(np.max([np.max(np.abs(det2(m[a:b]) - 1.0)) for a, b in row_blocks(len(m), 1)]))
    if not drift <= tol.drift:
        raise IntegrationError(f"determinant drift {drift:.3e} exceeds {tol.drift:g} {where}")
    return drift


def integrate_frame(kind, s, w, t_range, n, init=None, tol=DEFAULT_TOL):
    """Magnus integration of one leg, one step per cell of n uniform nodes.

    s and w may be field objects, expression strings, or constants.
    Fails if the determinant drifts by more than the step failure
    tolerance.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown leg kind {kind!r}; expected one of {_KINDS}")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    var = "u" if kind == KIND_F1 else "v"
    s = as_field1d(s, var=var)
    w = as_field1d(w, var=var)
    t0, t1 = float(t_range[0]), float(t_range[1])
    init = np.eye(2) if init is None else np.asarray(init, dtype=float)
    check_unimodular(init, tol, what="initial frame")

    h = (t1 - t0) / (n - 1)
    ts = stage_times(t0 + np.arange(n - 1) * (t1 - t0) / (n - 1), h)
    steps = magnus_increments(_null_entries(s(ts), w(ts)), h)
    out = np.stack(list(magnus_march(init, steps)))
    drift = check_drift(out, tol, f"on the {kind} leg")
    return FrameCurve(kind, s, w, t0, t1, n, samples=out, det_drift=drift)


def frame_metric_grid(f1, f2):
    """Exact conformal factor grid of the assembled product surface.

    It is -det(C1 + C2^T) with C1, C2 the two legs' coefficients in the
    common dY = Y C form, which is identically w1 w2 (1 + s1 s2)^2, the
    minimal cousin's metric factor (module docstring).
    """
    cousin = WeierstrassData(f1.s_field, f1.w_field, f2.s_field, f2.w_field)
    return minimal_metric_factor(cousin, f1.ts[:, None], f2.ts[None, :])


def check_leg_pair(f1, f2):
    """Raise unless f1 is a u leg and f2 a v leg, the factors of F1 F2^T."""
    if f1.kind != KIND_F1:
        raise ValueError(f"first leg must have kind {KIND_F1!r}, got {f1.kind!r}")
    if f2.kind != KIND_F2_MU:
        raise ValueError(f"second leg must have kind {KIND_F2_MU!r}, got {f2.kind!r}")


def product_surface(us, vs, phi1, phi2, factor, label, tol):
    """Grid of products phi1 phi2^T of broadcast frames, masked where the
    (nu, nv) conformal factor grid has |factor| < tol.degen."""
    return SurfaceGrid(us=us, vs=vs, points=vec_of_mat(act(phi1, phi2)),
                       mask=np.abs(factor) < tol.degen, assembly=label)


def _assemble(f1, f2, label, tol):
    check_leg_pair(f1, f2)
    return product_surface(f1.ts, f2.ts, f1.samples[:, None], f2.samples[None, :],
                           frame_metric_grid(f1, f2), label, tol)


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
