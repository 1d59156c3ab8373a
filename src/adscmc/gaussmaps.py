"""Null-line Gauss maps of surfaces in the unimodular quadric.

For a surface phi with unit normal N, the lines spanned by phi + N and
phi - N lie on the light cone; each line is recorded by a rank-one
matrix representative and read off in an affine chart.  Writing a
representative m = [[m11, m12], [m21, m22]], the chart used throughout
is

    (G1, G2) = (m12 / m22, m21 / m22),

masked where m22 is too small.  For integrated Lax frames the same pair
can be read without any differentiation straight from frame entries:
with frames F1 = [[a1, b1], [c1, d1]], F2 likewise, the product assembly
gives (a1/c1, a2/c2) for the plus line and (b1/d1, b2/d2) for the minus
line.  A pair of null legs assembles the same product, but the first
columns of its legs give a/c, the image of infinity under each leg, and
not the surface's plus map (F1 q, F2 r), the Moebius images of the
legs' data q and r; the two differ by order 100 on the workload data.
A third route needs neither the normal nor frames: mat(phi_u) has a
common column direction and mat(phi_v) a common row direction, and the
outer product of those directions represents the plus line (swap the
two matrices for the minus line).  It differences the tangents again
with fd.tangents(), the bits fundamental_data measured with, since a
measurement stores no tangent planes.  The surface routes take a
measurement fd alone and read its grid fd.surface.  Every route builds
the map of one sign per call.

For Lax frames all three routes land on the same chart values, which is
the substance of the consistency checks in the test suite.  Wronskians
of the entries of integrated Lax frames decide whether the map depends
on u alone, on v alone, or on neither (holomorphicity_check); the chart
metric pulled back by the plus map is -K times the surface metric when
H = 1, which gauss_conformality_check verifies coefficientwise.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import det2, mat_of_vec, scalar_product4
from .config import DEFAULT_TOL
from .fields import fd_derivative
from .geometry import central_difference, row_blocks
from .lax import lax_terms
from .nullcurves import check_leg_pair


@dataclass
class GaussMapGrid:
    """Chart coordinates of a null-line map over a parameter grid."""

    rep: np.ndarray    # (nu, nv, 2, 2) rank-<=1 representatives
    g1: np.ndarray
    g2: np.ndarray
    mask: np.ndarray   # True where a chart denominator vanished

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
    if surface.ambient != "H31":
        raise ValueError("Gauss map charts need a surface in the matrix model")


def _sign_index(sign):
    """0 for the plus line, 1 for the minus line."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    return 0 if sign == "plus" else 1


def hyperbolic_gauss(fd, sign="plus", tol=DEFAULT_TOL):
    """Chart coordinates of [phi +- N] from the measured normal."""
    _require_h31(fd.surface)
    s = (1.0, -1.0)[_sign_index(sign)]
    rep = mat_of_vec(fd.surface.points + s * fd.normal)
    g1, g2, bad = chart_coordinates(rep, tol)
    return GaussMapGrid(rep=rep, g1=g1, g2=g2,
                        mask=bad | ~np.isfinite(g1) | ~np.isfinite(g2))


def _outer(col, row):
    return col[..., :, None] * row[..., None, :]


def _frame_grids(frames):
    """Grids of both frames."""
    if hasattr(frames, "phi1"):   # integrated Lax frames
        return frames.phi1, frames.phi2
    f1, f2 = frames
    check_leg_pair(f1, f2)
    shape = (f1.n, f2.n, 2, 2)
    return (np.broadcast_to(f1.samples[:, None], shape),
            np.broadcast_to(f2.samples[None, :], shape))


def frame_gauss_coordinates(frames, sign="plus", tol=DEFAULT_TOL):
    """Chart coordinates straight from frame entries, no differentiation.

    frames is either the integrated Lax frames or a pair of null frame
    legs; both assemble the product F1 F2^T.  The plus line reads the
    first columns, the minus line the second.  For Lax frames these are
    the surface's chart values; for legs they are a/c, the image of
    infinity under each leg, and not the plus map (F1 q, F2 r) of the
    surface the legs assemble.
    """
    p1, p2 = _frame_grids(frames)
    k = _sign_index(sign)
    rep = _outer(p1[..., :, k], p2[..., :, k])
    g1, g2, bad = chart_coordinates(rep, tol)
    return GaussMapGrid(rep=rep, g1=g1, g2=g2, mask=bad)


def _stable_column(m, tol):
    """Common column direction of a near-rank-one matrix grid."""
    pick = np.abs(m[..., 1, 1]) + np.abs(m[..., 0, 1]) \
        > np.abs(m[..., 1, 0]) + np.abs(m[..., 0, 0])
    col = np.where(pick[..., None], m[..., :, 1], m[..., :, 0])
    bad = ~(np.abs(col[..., 1]) > tol.pole)
    return col, bad


def generalized_gauss(fd, sign="plus", tol=DEFAULT_TOL):
    """Chart coordinates of one null-line map from the tangents of fd.

    mat(phi_u) is rank one with the column direction of the plus line
    and the row direction of the minus line; mat(phi_v) carries the
    other half of each.  The tangents come from fd.tangents(), and each
    component grid is dropped once its matrix form is built.
    """
    _require_h31(fd.surface)
    xu, xv = fd.tangents()
    xu = mat_of_vec(xu)
    xv = mat_of_vec(xv)
    cm, rm = (xv, xu) if _sign_index(sign) else (xu, xv)
    with np.errstate(invalid="ignore"):
        col, bad_c = _stable_column(cm, tol)
        # a common row direction is a common column of the transpose
        row, bad_r = _stable_column(np.swapaxes(rm, -1, -2), tol)
        rep = _outer(col, row)
        g1 = np.where(bad_c, np.nan, col[..., 0] / np.where(bad_c, 1.0, col[..., 1]))
        g2 = np.where(bad_r, np.nan, row[..., 0] / np.where(bad_r, 1.0, row[..., 1]))
    return GaussMapGrid(rep=rep, g1=g1, g2=g2,
                        mask=bad_c | bad_r | ~np.isfinite(g1) | ~np.isfinite(g2))


# the classification of a point, indexed by anti + 2 holo
CLASS_LABELS = ("none", "antiholomorphic", "holomorphic", "constant")


@dataclass
class HolomorphicityReport:
    """Wronskian identity residuals and the dependence classification."""

    residual: np.ndarray        # pointwise largest finite gap of the four identities
    codes: np.ndarray           # per-point uint8 index into CLASS_LABELS

    @property
    def classification(self):
        """Per-point labels, spelled out from the codes."""
        return np.array(CLASS_LABELS)[self.codes]

    @property
    def label(self):
        """The label every point shares, or "mixed"."""
        first = self.codes.flat[0]
        return CLASS_LABELS[first] if (self.codes == first).all() else "mixed"

    def max_residual(self):
        return float(np.nanmax(self.residual))


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

    gaps = [np.abs(wr - p) for wr, p in zip((wu1, wu2, wv1, wv2), pred)]
    residual = np.fmax(np.fmax(gaps[0], gaps[1]), np.fmax(gaps[2], gaps[3]))
    mag_u = np.maximum(np.abs(wu1), np.abs(wu2))
    mag_v = np.maximum(np.abs(wv1), np.abs(wv2))
    codes = (mag_u <= tol.hol).astype(np.uint8)
    codes[mag_v <= tol.hol] += 2
    return HolomorphicityReport(residual=residual, codes=codes)


def gauss_conformality_check(fd, sign="plus"):
    """Residual of the chart-metric identity for near-unit |H|.

    The du dv coefficient of <d(phi +- N), d(phi +- N)> equals
    -K e^omega when H = 1 (plus) or H = -1 (minus); the returned grid
    is the pointwise gap, NaN on the stencil border, measured in the
    row blocks of fundamental_data.
    """
    _require_h31(fd.surface)
    s = (1.0, -1.0)[_sign_index(sign)]
    nu, nv = fd.surface.shape
    out = np.empty((nu, nv))
    for a, b in row_blocks(nu, nv):
        # rows [a - 1, b + 1) of phi +- N, the reach of the u difference
        lo, hi = max(a - 1, 0), min(b + 1, nu)
        m = fd.surface.points[lo:hi] + s * fd.normal[lo:hi]
        mu = central_difference(m, fd.hu, 0)[a - lo:b - lo]
        mv = central_difference(m[a - lo:b - lo], fd.hv, 1)
        coef = 2.0 * scalar_product4(np.moveaxis(mu, -1, 0), np.moveaxis(mv, -1, 0))
        np.abs(coef + fd.K[a:b] * fd.metric[a:b], out=out[a:b])
    return out
