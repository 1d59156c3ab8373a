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
line.  A third route needs neither the normal nor frames: mat(phi_u)
has a common column direction and mat(phi_v) a common row direction,
and the outer product of those directions represents the plus line
(swap the two matrices for the minus line).  It differences the
tangents again with fd.tangents(), the bits fundamental_data measured
with, since a measurement stores no tangent planes.  The surface routes
take a measurement fd alone and read its grid fd.surface; the frame
routes take integrated Lax frames only.  Every route builds the map of
one sign per call.

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
from .geometry import central_difference, row_blocks, stat_max
from .lax import LaxFrames, lax_terms


@dataclass
class GaussMapGrid:
    """Chart coordinates of a null-line map over a parameter grid.

    The route's rank-<=1 representatives are not kept: max_rep_det is the
    largest finite |det| among them, their distance from rank one.
    """

    g1: np.ndarray
    g2: np.ndarray
    mask: np.ndarray   # True where a chart denominator vanished
    max_rep_det: float

    def valid(self):
        return ~self.mask

    def spread(self):
        """(max - min) of each coordinate over unmasked points."""
        ok = self.valid()
        if not ok.any():
            return float("nan"), float("nan")
        return (float(np.ptp(self.g1[ok])), float(np.ptp(self.g2[ok])))


def _ratio(pair, tol):
    """pair[..., 0] / pair[..., 1], NaN where |pair[..., 1]| is not above
    tol.pole, and that mask."""
    den = pair[..., 1]
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(den) > tol.pole)
        return np.where(bad, np.nan, pair[..., 0] / np.where(bad, 1.0, den)), bad


def chart_coordinates(rep, tol=DEFAULT_TOL):
    """Read (G1, G2) = (m12/m22, m21/m22) off representatives."""
    rep = np.asarray(rep, dtype=float)
    g1, bad = _ratio(rep[..., :, 1], tol)
    g2, _ = _ratio(rep[..., 1, :], tol)
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
    return GaussMapGrid(g1=g1, g2=g2, mask=bad | ~np.isfinite(g1) | ~np.isfinite(g2),
                        max_rep_det=stat_max(det2(rep), True))


def _outer(col, row):
    return col[..., :, None] * row[..., None, :]


def _require_frames(frames):
    if not isinstance(frames, LaxFrames):
        raise ValueError("Gauss map routes on frames need integrated coordinate frames")


def frame_gauss_coordinates(frames, sign="plus", tol=DEFAULT_TOL):
    """Chart coordinates straight from frame entries, no differentiation.

    frames are integrated Lax frames; anything else, a pair of null legs
    included, raises ValueError.  The representative is the outer
    product of one column of each frame, the first columns for the plus
    line and the second for the minus line, and chart_coordinates reads
    the surface's chart values off its entries (a1 c2 / c1 c2, not
    a1 / c1, which would round differently).
    """
    _require_frames(frames)
    k = _sign_index(sign)
    rep = _outer(frames.phi1[..., :, k], frames.phi2[..., :, k])
    g1, g2, bad = chart_coordinates(rep, tol)
    return GaussMapGrid(g1=g1, g2=g2, mask=bad, max_rep_det=stat_max(det2(rep), True))


def _stable_column(m):
    """Common column direction of a near-rank-one matrix grid."""
    pick = np.abs(m[..., 1, 1]) + np.abs(m[..., 0, 1]) \
        > np.abs(m[..., 1, 0]) + np.abs(m[..., 0, 0])
    return np.where(pick[..., None], m[..., :, 1], m[..., :, 0])


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
        col = _stable_column(cm)
        # a common row direction is a common column of the transpose
        row = _stable_column(np.swapaxes(rm, -1, -2))
        max_rep_det = stat_max(det2(_outer(col, row)), True)
    g1, bad_c = _ratio(col, tol)
    g2, bad_r = _ratio(row, tol)
    return GaussMapGrid(g1=g1, g2=g2, mask=bad_c | bad_r | ~np.isfinite(g1) | ~np.isfinite(g2),
                        max_rep_det=max_rep_det)


# the classification of a point, indexed by anti + 2 holo
CLASS_LABELS = ("none", "antiholomorphic", "holomorphic", "constant")


@dataclass
class HolomorphicityReport:
    """The largest Wronskian identity residual and the dependence classification."""

    max_residual: float         # largest finite gap of the four identities
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


def _wronskian(a, c, h, axis):
    return fd_derivative(a, h, axis) * c - a * fd_derivative(c, h, axis)


def holomorphicity_check(frames, sign="plus", tol=DEFAULT_TOL):
    """Test the frame-entry Wronskian identities and classify the map.

    Works on integrated Lax frames only, whose linear systems the
    identities are read off; anything else raises ValueError.  Each
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
    _require_frames(frames)
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

    # each gap is reduced on its own, so no residual grid is kept
    max_residual = np.fmax.reduce([np.fmax.reduce(np.abs(wr - p), axis=None)
                                   for wr, p in zip((wu1, wu2, wv1, wv2), pred)])
    codes = ((np.abs(wu1) <= tol.hol) & (np.abs(wu2) <= tol.hol)).astype(np.uint8)
    codes[(np.abs(wv1) <= tol.hol) & (np.abs(wv2) <= tol.hol)] += 2
    return HolomorphicityReport(max_residual=float(max_residual), codes=codes)


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
