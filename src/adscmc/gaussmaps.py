"""Null-line Gauss maps of surfaces in the unimodular quadric.

For a surface phi with unit normal N, the lines spanned by phi + N and
phi - N lie on the light cone; each line is recorded by a rank-one
matrix representative and read off in an affine chart.  Writing a
representative m = [[m11, m12], [m21, m22]], the chart used throughout
is

    (G1, G2) = (m12 / m22, m21 / m22),

masked where m22 is too small.  The same pair can be read without any
differentiation straight from frame entries: with frames F1 = [[a1, b1],
[c1, d1]], F2 likewise, the product assembly gives (a1/c1, a2/c2) for
the plus line and (b1/d1, b2/d2) for the minus line.  Integrated Lax
frames and null-leg pairs both assemble that way.  A third route needs
neither the normal nor frames: mat(phi_u) has a common column direction
and mat(phi_v) a common row direction, and the outer product of those
directions represents the plus line (swap the two matrices for the
minus line).

All three routes land on the same chart values, which is the substance
of the consistency checks in the test suite.  Wronskians of the
entries of integrated Lax frames decide whether the map depends on u
alone, on v alone, or on neither (holomorphicity_check); the chart
metric pulled back by the plus map is -K times the surface metric when
H = 1, which gauss_conformality_check verifies coefficientwise.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import det2, mat_of_vec, scalar_product4
from .config import DEFAULT_TOL
from .fields import fd_derivative
from .geometry import _cd1
from .lax import lax_terms
from .nullcurves import check_leg_pair


@dataclass
class GaussMapGrid:
    """Chart coordinates of a null-line map over a parameter grid."""

    us: np.ndarray
    vs: np.ndarray
    rep: np.ndarray    # (nu, nv, 2, 2) rank-<=1 representatives
    g1: np.ndarray
    g2: np.ndarray
    mask: np.ndarray   # True where a chart denominator vanished
    sign: str          # "plus" | "minus"
    chart: str         # which identification produced the coordinates

    def valid(self):
        return ~self.mask

    def spread(self):
        """(max - min) of each coordinate over unmasked points."""
        ok = self.valid()
        if not ok.any():
            return float("nan"), float("nan")
        return (float(np.ptp(self.g1[ok])), float(np.ptp(self.g2[ok])))

    def max_rep_det(self):
        d = det2(self.rep)
        d = d[np.isfinite(d)]
        return float(np.max(np.abs(d))) if d.size else float("nan")


def chart_coordinates(rep, tol=DEFAULT_TOL):
    """Read (G1, G2) = (m12/m22, m21/m22) off representatives."""
    rep = np.asarray(rep, dtype=float)
    den = rep[..., 1, 1]
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(den) > tol.pole)
    safe = np.where(bad, 1.0, den)
    g1 = np.where(bad, np.nan, rep[..., 0, 1] / safe)
    g2 = np.where(bad, np.nan, rep[..., 1, 0] / safe)
    return g1, g2, bad


def _require_h31(surface):
    if surface.ambient.name != "H31":
        raise ValueError("Gauss map charts need a surface in the matrix model")


def _sign_index(sign):
    """0 for the plus line, 1 for the minus line."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    return 0 if sign == "plus" else 1


def hyperbolic_gauss(surface, fd, sign="plus", tol=DEFAULT_TOL):
    """Chart coordinates of [phi +- N] from the measured normal."""
    _require_h31(surface)
    s = (1.0, -1.0)[_sign_index(sign)]
    rep = mat_of_vec(surface.points + s * fd.normal)
    g1, g2, bad = chart_coordinates(rep, tol)
    return GaussMapGrid(us=surface.us, vs=surface.vs, rep=rep, g1=g1, g2=g2,
                        mask=bad | ~np.isfinite(g1) | ~np.isfinite(g2),
                        sign=sign, chart="surface")


def _outer(col, row):
    return col[..., :, None] * row[..., None, :]


def _frame_grids(frames):
    """Parameters and grids of both frames."""
    if hasattr(frames, "phi1"):   # integrated Lax frames
        return frames.us, frames.vs, frames.phi1, frames.phi2
    f1, f2 = frames
    check_leg_pair(f1, f2)
    shape = (f1.n, f2.n, 2, 2)
    return (f1.ts, f2.ts, np.broadcast_to(f1.samples[:, None], shape),
            np.broadcast_to(f2.samples[None, :], shape))


def frame_gauss_coordinates(frames, sign="plus", tol=DEFAULT_TOL):
    """Chart coordinates straight from frame entries, no differentiation.

    frames is either the integrated Lax frames or a pair of null frame
    legs; both assemble the product F1 F2^T.  The plus line reads the
    first columns, the minus line the second.
    """
    us, vs, p1, p2 = _frame_grids(frames)
    k = _sign_index(sign)
    rep = _outer(p1[..., :, k], p2[..., :, k])
    g1, g2, bad = chart_coordinates(rep, tol)
    return GaussMapGrid(us=np.asarray(us), vs=np.asarray(vs), rep=rep,
                        g1=g1, g2=g2, mask=bad, sign=sign,
                        chart="frame-mu")


def _stable_column(m, tol):
    """Common column direction of a near-rank-one matrix grid."""
    pick = np.abs(m[..., 1, 1]) + np.abs(m[..., 0, 1]) \
        > np.abs(m[..., 1, 0]) + np.abs(m[..., 0, 0])
    col = np.where(pick[..., None], m[..., :, 1], m[..., :, 0])
    bad = ~(np.abs(col[..., 1]) > tol.pole)
    return col, bad


def generalized_gauss(surface, fd, tol=DEFAULT_TOL):
    """Both null-line maps from the tangent directions alone.

    mat(phi_u) is rank one with the column direction of the plus line
    and the row direction of the minus line; mat(phi_v) carries the
    other half of each.  Returns the (plus, minus) pair of chart grids.
    """
    _require_h31(surface)
    xu = mat_of_vec(_cd1(surface.points, fd.hu, 0))
    xv = mat_of_vec(_cd1(surface.points, fd.hv, 1))
    out = []
    for sign, cm, rm in (("plus", xu, xv), ("minus", xv, xu)):
        with np.errstate(invalid="ignore"):
            col, bad_c = _stable_column(cm, tol)
            # a common row direction is a common column of the transpose
            row, bad_r = _stable_column(np.swapaxes(rm, -1, -2), tol)
            rep = _outer(col, row)
            g1 = np.where(bad_c, np.nan, col[..., 0] / np.where(bad_c, 1.0, col[..., 1]))
            g2 = np.where(bad_r, np.nan, row[..., 0] / np.where(bad_r, 1.0, row[..., 1]))
        mask = bad_c | bad_r | ~np.isfinite(g1) | ~np.isfinite(g2)
        out.append(GaussMapGrid(us=surface.us, vs=surface.vs, rep=rep,
                                g1=g1, g2=g2, mask=mask, sign=sign,
                                chart="generalized"))
    return tuple(out)


@dataclass
class HolomorphicityReport:
    """Wronskian identity residuals and the dependence classification."""

    us: np.ndarray
    vs: np.ndarray
    residual_u1: np.ndarray   # | W_u(F1 entries) - e^{-w/2} Q |
    residual_u2: np.ndarray   # | W_u(F2 entries) - e^{w/2}(H-1)/2 |
    residual_v1: np.ndarray
    residual_v2: np.ndarray
    wronskian_u: np.ndarray   # larger measured |W_u| of the two frames
    wronskian_v: np.ndarray
    classification: np.ndarray  # per-point labels
    label: str                  # common label, or "mixed"

    def max_residual(self):
        vals = [np.nanmax(r) for r in (self.residual_u1, self.residual_u2,
                                       self.residual_v1, self.residual_v2)]
        return float(max(vals))


def _wronskian(a, c, h, axis):
    return fd_derivative(a, h, axis) * c - a * fd_derivative(c, h, axis)


def holomorphicity_check(frames, sign="plus", tol=DEFAULT_TOL):
    """Test the frame-entry Wronskian identities and classify the map.

    Works on integrated Lax frames, whose linear systems the identities
    are read off (null frame legs answer a different question).  Each
    predicted Wronskian is an off-diagonal entry of the Lax coefficient
    that moves the frame in that direction: minus the (1,0) entry for
    the plus line, which reads e^{-w/2} Q and e^{w/2}(H-1)/2 in u, and
    e^{w/2}(H-1)/2 and e^{-w/2} R in v; the (0,1) entry for the minus
    line, which reads e^{w/2}(H+1)/2 and e^{-w/2} Q in u, and
    e^{-w/2} R and e^{w/2}(H+1)/2 in v.  All of them are lax_terms of
    one plain evaluation of omega, with no Lax matrix built.  The map is
    classified antiholomorphic where both u-Wronskians vanish,
    holomorphic where both v-Wronskians vanish, constant where all four
    do; the report's label is the one every point shares, or "mixed".
    """
    if not hasattr(frames, "phi1"):
        raise ValueError("holomorphicity check needs integrated coordinate frames")
    col = _sign_index(sign)
    us, vs = frames.us, frames.vs
    hu = float(us[1] - us[0])
    hv = float(vs[1] - vs[0])
    u, v = us[:, None], vs[None, :]
    plus, minus, q, r = lax_terms(frames.data, frames.data.omega(u, v), u, v)
    pred = (plus, q, r, plus) if col else (q, minus, minus, r)

    a1, c1 = frames.phi1[..., 0, col], frames.phi1[..., 1, col]
    a2, c2 = frames.phi2[..., 0, col], frames.phi2[..., 1, col]
    wu1 = _wronskian(a1, c1, hu, 0)
    wu2 = _wronskian(a2, c2, hu, 0)
    wv1 = _wronskian(a1, c1, hv, 1)
    wv2 = _wronskian(a2, c2, hv, 1)

    res = [np.abs(wr - p) for wr, p in zip((wu1, wu2, wv1, wv2), pred)]
    mag_u = np.maximum(np.abs(wu1), np.abs(wu2))
    mag_v = np.maximum(np.abs(wv1), np.abs(wv2))
    anti = mag_u <= tol.hol
    holo = mag_v <= tol.hol
    labels = np.full(mag_u.shape, "none", dtype="<U16")
    labels[anti] = "antiholomorphic"
    labels[holo] = "holomorphic"
    labels[anti & holo] = "constant"
    return HolomorphicityReport(
        us=us, vs=vs,
        residual_u1=res[0], residual_u2=res[1],
        residual_v1=res[2], residual_v2=res[3],
        wronskian_u=mag_u, wronskian_v=mag_v,
        classification=labels,
        label=str(labels.flat[0]) if (labels == labels.flat[0]).all() else "mixed")


def gauss_conformality_check(surface, fd, sign="plus", tol=DEFAULT_TOL):
    """Residual of the chart-metric identity for near-unit |H|.

    The du dv coefficient of <d(phi +- N), d(phi +- N)> equals
    -K e^omega when H = 1 (plus) or H = -1 (minus); the returned grid
    is the pointwise gap, NaN on the stencil border.
    """
    _require_h31(surface)
    s = (1.0, -1.0)[_sign_index(sign)]
    m = surface.points + s * fd.normal
    mu = _cd1(m, fd.hu, 0)
    mv = _cd1(m, fd.hv, 1)
    coef = 2.0 * scalar_product4(np.moveaxis(mu, -1, 0), np.moveaxis(mv, -1, 0))
    return np.abs(coef + fd.K * fd.metric)
