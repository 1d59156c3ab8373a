"""Null-line Gauss maps of surfaces in the unimodular quadric.

For a surface phi with unit normal N, the lines spanned by phi + N and
phi - N lie on the light cone.  Such a line is a point of the torus
RP^1 x RP^1 at the ideal boundary, the column line and the row line of
a rank-one representative m.  One rule reads every factor: its line is
the line of its own vector (x, y), with chart value x / y, +-inf at the
point at infinity and NaN only where the vector is zero or undefined.
G1 is read from the larger column of m and G2 from its larger row.
Routes are compared by chordal_distance on RP^1, not by chart
differences, which a pole amplifies.

For integrated Lax frames F1 = [[a1, b1], [c1, d1]], F2 likewise, the
product assembly gives the factors straight from the frame columns,
with no differentiation: (a1/c1, a2/c2) for the plus line and
(b1/d1, b2/d2) for the minus line.  A third route needs neither the
normal nor frames: mat(phi_u) has a common column direction and
mat(phi_v) a common row direction, and those are the factors of the
plus line (swap the two matrices for the minus line).  It differences
the points again with central_difference, the bits fundamental_data
measured with, since a measurement stores no tangent planes.  The
surface routes take a measurement fd alone and read its grid
fd.surface; the frame routes take integrated Lax frames only.  Every
route builds the map of one sign per call.  The surface routes and the
Wronskians run in the row blocks of geometry.row_blocks: a block's
representatives, tangents and Wronskians span its rows alone (the
differences read a clipped halo of rows around them), and only the
returned (nu, nv) grids span the whole grid.  Every value is the same
elementwise arithmetic whatever the block size, so the blocks leave no
seam.

For Lax frames all three routes land on the same lines, which is the
substance of the consistency checks in the test suite.  Wronskians of
the entries of integrated Lax frames decide whether the map depends on
u alone, on v alone, or on neither (holomorphicity_check); the chart
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


def chordal_distance(a, b):
    """Chordal distance on RP^1 between the lines of chart values a and b.

    It is |sin| of the angle between the two lines, 0 to 1, that is
    |a - b| / sqrt((1 + a^2)(1 + b^2)), with +-inf the one point at
    infinity; NaN where either value is NaN.  A value beyond +-1 is read
    as the line of (1, 1 / a), so nothing overflows.  It is plain
    arithmetic: numpy's arctan and sin loops map some 250 kB of code.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa, fb = np.abs(a) > 1.0, np.abs(b) > 1.0
    # 1 / a is read only where |a| > 1
    with np.errstate(divide="ignore", over="ignore"):
        sa, sb = np.where(fa, 1.0 / a, a), np.where(fb, 1.0 / b, b)
    cross = np.where(fa ^ fb, sa * sb - 1.0, sa - sb)
    return np.abs(cross) / np.sqrt((1.0 + sa * sa) * (1.0 + sb * sb))


@dataclass
class GaussMapGrid:
    """Chart values of the two factors of a null-line map over a grid.

    g1 and g2 are +-inf at the point at infinity and NaN where the
    factor is undefined, as on the stencil border.  max_rep_det is the
    largest finite |det| among the route's representatives, their
    distance from rank one; a route that reads its factors straight from
    vectors builds none and reports 0.0.
    """

    g1: np.ndarray
    g2: np.ndarray
    max_rep_det: float

    def gap(self, other):
        """Largest chordal distance between the factors of the two maps where
        both are defined, read in row blocks; np.fmax keeps stat_max's NaN rule."""
        return float(np.fmax.reduce([stat_max(chordal_distance(x[a:b], y[a:b]), True)
                                     for a, b in row_blocks(*self.g1.shape)
                                     for x, y in ((self.g1, other.g1), (self.g2, other.g2))]))


def _chart(vec):
    """vec[..., 0] / vec[..., 1]: +-inf for a zero y, NaN for a zero vector."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return vec[..., 0] / vec[..., 1]


def _column_chart(m):
    """Chart value of the common column line of a near-rank-one matrix
    grid, read off its larger column."""
    pick = np.abs(m[..., 1, 1]) + np.abs(m[..., 0, 1]) \
        > np.abs(m[..., 1, 0]) + np.abs(m[..., 0, 0])
    return _chart(np.where(pick[..., None], m[..., :, 1], m[..., :, 0]))


def chart_coordinates(rep):
    """Read (G1, G2) off rank-one representatives: G1 from the larger
    column, G2 from the larger row, the larger column of the transpose."""
    rep = np.asarray(rep, dtype=float)
    return _column_chart(rep), _column_chart(np.swapaxes(rep, -1, -2))


def _require_h31(surface):
    if surface.ambient != "H31":
        raise ValueError("Gauss map charts need a surface in the matrix model")


def _sign_index(sign):
    """0 for the plus line, 1 for the minus line."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    return 0 if sign == "plus" else 1


def _in_row_blocks(nu, nv, block):
    """The GaussMapGrid of block(a, b) -> (g1, g2, max |det|) of rows
    [a, b), run over row_blocks; np.fmax keeps stat_max's NaN rule."""
    g1, g2 = np.empty((nu, nv)), np.empty((nu, nv))
    max_rep_det = np.nan
    for a, b in row_blocks(nu, nv):
        g1[a:b], g2[a:b], rep_det = block(a, b)
        max_rep_det = np.fmax(max_rep_det, rep_det)
    return GaussMapGrid(g1=g1, g2=g2, max_rep_det=float(max_rep_det))


def hyperbolic_gauss(fd, sign="plus"):
    """Chart values of [phi +- N] from the measured normal."""
    _require_h31(fd.surface)
    s = (1.0, -1.0)[_sign_index(sign)]

    def block(a, b):
        rep = mat_of_vec(fd.surface.points[a:b] + s * fd.normal[a:b])
        return *chart_coordinates(rep), stat_max(det2(rep), True)

    return _in_row_blocks(*fd.surface.shape, block)


def _require_frames(frames):
    if not isinstance(frames, LaxFrames):
        raise ValueError("Gauss map routes on frames need integrated coordinate frames")


def frame_gauss_coordinates(frames, sign="plus"):
    """Chart values straight from frame entries, no differentiation.

    frames are integrated Lax frames; anything else, a pair of null legs
    included, raises ValueError.  The factors are the lines of one
    column of each frame, the first columns for the plus line and the
    second for the minus line.
    """
    _require_frames(frames)
    k = _sign_index(sign)
    return GaussMapGrid(g1=_chart(frames.phi1[..., k]), g2=_chart(frames.phi2[..., k]),
                        max_rep_det=0.0)


def generalized_gauss(fd, sign="plus"):
    """Chart values of one null-line map from the tangents of fd.

    mat(phi_u) is rank one with the column direction of the plus line
    and the row direction of the minus line; mat(phi_v) carries the
    other half of each.  Each row block differences its points again
    with central_difference, over a one-row halo in u, to the bits
    fundamental_data measured with.  The factors are those directions,
    so no representative is built.
    """
    _require_h31(fd.surface)
    points = fd.surface.points
    nu, nv = fd.surface.shape
    minus = _sign_index(sign)

    def block(a, b):
        lo, hi = max(a - 1, 0), min(b + 1, nu)
        xu = mat_of_vec(central_difference(points[lo:hi], fd.hu, 0)[a - lo:b - lo])
        xv = mat_of_vec(central_difference(points[a:b], fd.hv, 1))
        cm, rm = (xv, xu) if minus else (xu, xv)
        # a common row direction is a common column of the transpose
        return _column_chart(cm), _column_chart(np.swapaxes(rm, -1, -2)), 0.0

    return _in_row_blocks(nu, nv, block)


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
    nu, nv = len(us), len(vs)
    hu = float(us[1] - us[0])
    hv = float(vs[1] - vs[0])
    v = vs[None, :]
    codes = np.empty((nu, nv), dtype=np.uint8)
    max_residual = np.nan
    for a, b in row_blocks(nu, nv):
        u = us[a:b, None]
        plus, minus, q, r = lax_terms(frames.data, frames.data.omega(u, v), u, v)
        pred = (plus, q, r, plus) if col else (q, minus, minus, r)
        # the u differences of rows [a, b) read rows [a - 2, b + 2), and the
        # one-sided ones at the grid's ends read five rows: a slab of at
        # least five rows, clipped into the grid, gives each row its stencil
        lo, hi = max(min(a - 2, nu - 5), 0), min(max(b + 2, 5), nu)
        a1, c1 = frames.phi1[lo:hi, :, 0, col], frames.phi1[lo:hi, :, 1, col]
        a2, c2 = frames.phi2[lo:hi, :, 0, col], frames.phi2[lo:hi, :, 1, col]
        wu1 = _wronskian(a1, c1, hu, 0)[a - lo:b - lo]
        wu2 = _wronskian(a2, c2, hu, 0)[a - lo:b - lo]
        a1, c1, a2, c2 = (e[a - lo:b - lo] for e in (a1, c1, a2, c2))
        wv1 = _wronskian(a1, c1, hv, 1)
        wv2 = _wronskian(a2, c2, hv, 1)

        # each gap is reduced on its own, so no residual grid is kept
        for wr, p in zip((wu1, wu2, wv1, wv2), pred):
            max_residual = np.fmax(max_residual, np.fmax.reduce(np.abs(wr - p), axis=None))
        block_codes = codes[a:b]
        block_codes[...] = (np.abs(wu1) <= tol.hol) & (np.abs(wu2) <= tol.hol)
        block_codes[(np.abs(wv1) <= tol.hol) & (np.abs(wv2) <= tol.hol)] += 2
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
