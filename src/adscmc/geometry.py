"""Sampled surfaces and their first and second fundamental forms.

A SurfaceGrid is a grid of surface points whose component count names
the ambient (AMBIENTS): four components in R^4_2 for the unimodular
quadric H31 (curvature -1), three for Minkowski 3-space E31 (curvature
0); any other count is an error.  Builders that form matrix products
convert once, so every consumer reads component vectors, and a grid
read back from its JSON file holds exactly the values written.

Given such a grid, this module measures everything
the constructions upstream claim: the null-coordinate conformality
residuals <phi_u, phi_u> and <phi_v, phi_v>, the conformal factor
e^omega = 2 <phi_u, phi_v>, the oriented unit normal, the mean curvature
H = 2 e^-omega <phi_uv, N>, the off-diagonal Hopf coefficients
Q = <phi_uu, N> and R = <phi_vv, N>, and the intrinsic curvature K by
two independent routes:

    K = kbar + H^2 - 4 Q R e^-2omega          (curvature relation)
    K = kbar + det(II I^-1)                   (shape operator route)

with II measured entrywise from finite differences of the normal.  The
agreement of the two routes (the gauss_eq residual) and the entrywise
second-form residual are the module's main outputs.

All stencils are second-order central differences on the uniform grid;
every derived field is reported on the full grid shape with NaN outside
its stencil's reach, so a quantity needing two derivative rings is NaN
on the outer two rings.  The normal is oriented so that the frame
determinant against position and the coordinate tangents is positive,
det[x, x_u - x_v, x_u + x_v, N] > 0 in H31 and
det[x_u - x_v, x_u + x_v, N] > 0 in E31; flipping it is an explicit
argument.  No determinant is computed: for the unit normal
N = raw / sqrt(nn) built from raw = METRIC4 cross4(x, x_u, x_v)
(respectively METRIC3 cross3(x_u, x_v)) with nn = <raw, raw>, the
determinant is identically -2 sqrt(nn) in H31 and +2 sqrt(nn) in E31,
so the positive orientation is -raw / sqrt(nn) and +raw / sqrt(nn).

fundamental_data measures the grid in blocks of consecutive u rows
(row_blocks).  A block of rows [a, b) copies the points of rows
[a - 2, b + 2), component axis first, into planes (c, rows, nv) framed
by NaN where the rows leave the grid and one NaN column on each side, so
every difference is a plain slice expression and is NaN exactly where
its stencil leaves the grid.  Every Lorentz product is then a sum over
whole planes (algebra.scalar_product4/3), with no metric-scaled operand
copy.  The tangents are differenced on rows [a - 1, b + 1) into
buffers of the block, and the normal built from them is written on those
rows straight into (c, nu, nv) planes allocated once, where the normal
difference n_u reads it; the rows two blocks share get the same bits
from either.  The metric signs of raw are applied by negating its
negative planes in place, and the normal is raw divided in place.
fd.normal is the (nu, nv, c) moveaxis view of its planes, not a copy,
and the one stored array with a component axis: no tangent is stored,
and gaussmaps.generalized_gauss differences the points of each of its
row blocks again with central_difference, to the bits the blocks used.
The products sum in a fixed order, component 0 paired with 2, then 1
(and 3), then + 0.0, which is how
np.einsum("...i,...i->...", METRIC * x, y) sums contiguous components
from a +0.0 accumulator.  The pinned field digests, stdout and golden
files hold einsum's values: another order changes the last bit at
roughly a third of random points, and without the + 0.0 a sum of -0.0
terms stays -0.0 where einsum gives +0.0.  The steps hu and hv come
from the whole grid's nodes, once: a block's own nodes differ in the
last bits.  Every field is the same elementwise arithmetic at every
point whatever the block size, so the blocks leave no seam, and the last
operation of each field writes its rows in place.  The only full-size
arrays are the outputs: every intermediate spans one block, so the peak
memory of a measurement is the outputs plus a block's intermediates,
and stays flat as the grid grows.  Every blocked layer of the package
takes its blocks from row_blocks.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import cross3, cross4, scalar_product3, scalar_product4
from .config import DEFAULT_TOL


# the ambient name and its constant curvature kbar, keyed by the
# component count of a point
AMBIENTS = {4: ("H31", -1.0), 3: ("E31", 0.0)}


@dataclass
class SurfaceGrid:
    """Sampled surface over a uniform (u, v) grid, u along axis 0.

    points holds ambient components, shape (nu, nv, 4) or (nu, nv, 3);
    the count names the ambient.  assembly names the construction that
    produced the grid.
    """

    us: np.ndarray
    vs: np.ndarray
    points: np.ndarray
    mask: np.ndarray    # True where the metric factor is below tolerance
    assembly: str

    def __post_init__(self):
        shape = np.shape(self.points)
        if not shape or shape[-1] not in AMBIENTS:
            raise ValueError(f"surface points of shape {shape} need 4 (H31) "
                             "or 3 (E31) components")

    @property
    def ambient(self):
        """"H31" or "E31", named by the component count."""
        return AMBIENTS[self.points.shape[-1]][0]

    @property
    def shape(self):
        return self.points.shape[:2]


def central_difference(a, h, axis):
    """Central first difference; NaN where the stencil leaves the grid."""
    out = np.full_like(a, np.nan)
    sl = [slice(None)] * a.ndim
    hi, lo, mid = list(sl), list(sl), list(sl)
    hi[axis] = slice(2, None)
    lo[axis] = slice(0, -2)
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = (a[tuple(hi)] - a[tuple(lo)]) / (2.0 * h)
    return out


# points per block of every blocked layer, through row_blocks: u rows in
# fundamental_data, lax.gmc_residual and every gaussmaps route, v nodes in
# lax._sweep, frames in nullcurves.check_drift.  Of 1024 to
# 16384, 8192 was the fastest fundamental_data at 4001 x 41 (E31), 201^2
# and 301^2 (H31) on a 2-core x86 container: best of 30 calls 49.8, 12.8,
# 34.6 ms, against 56.5, 14.8, 40.5 at 4096, 52.8, 17.7, 37.9 at 16384 and
# 77.9, 20.8, 53.5 ms for one pass holding full-grid intermediates.
BLOCK_POINTS = 8192


def row_blocks(nu, nv):
    """Consecutive row ranges (a, b) covering range(nu), about BLOCK_POINTS points each."""
    rows = max(1, BLOCK_POINTS // nv)
    return [(a, min(a + rows, nu)) for a in range(0, nu, rows)]


# relative spread of node steps still read as uniform: linspace nodes
# differ by rounding, some 1e-16 of a step, and a real unevenness is far larger
UNIFORM_STEP_RTOL = 1e-9


def _uniform_step(ts, name):
    d = np.diff(ts)
    if d.size == 0 or np.max(np.abs(d - d[0])) > UNIFORM_STEP_RTOL * max(1.0, abs(d[0])):
        raise ValueError(f"{name} nodes must be uniformly spaced")
    return float(d[0])


@dataclass
class FundamentalData:
    """Measured first and second order data of a sampled surface.

    surface is the grid measured, so its nodes and points travel with
    the measurement.  All arrays have the full grid shape; entries are
    NaN wherever the finite-difference stencil or the degeneracy mask
    leaves them undefined.  mask is True at points with no valid
    first-order data.  The normal is the only stored array with a
    component axis; the tangents phi_u and phi_v are not stored (a
    reader differences surface.points with central_difference), and no
    shape operator S is stored: det S = K_shape - kbar.
    """

    surface: SurfaceGrid
    metric: np.ndarray        # e^omega = 2 <phi_u, phi_v>
    omega: np.ndarray
    normal: np.ndarray        # (nu, nv, 4) or (nu, nv, 3), a view of component planes
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    K: np.ndarray             # curvature-relation route
    K_shape: np.ndarray       # shape-operator route (two rings in)
    conf_u: np.ndarray
    conf_v: np.ndarray
    gauss_eq: np.ndarray      # K - K_shape
    sff: np.ndarray           # entrywise second-form residual
    mask: np.ndarray
    hu: float
    hv: float

    @property
    def kbar(self):
        """Ambient curvature, named by the normal's component count."""
        return AMBIENTS[self.normal.shape[-1]][1]

    def valid(self):
        return ~self.mask

    def core(self, tol=DEFAULT_TOL):
        """Valid points whose conformal factor clears the stats floor."""
        with np.errstate(invalid="ignore"):
            return self.valid() & (self.metric >= tol.metric_floor)


# the (nu, nv) fields of FundamentalData, in the order _measure_rows unpacks them
_GRID_FIELDS = ("metric", "omega", "H", "Q", "R", "K", "K_shape", "conf_u", "conf_v",
                "gauss_eq", "sff")


def fundamental_data(surface, flip_normal=False):
    """Measure fundamental forms of a sampled surface grid.

    Degenerate points (2 <phi_u, phi_v> <= 0) and points where the
    normal system is rank-deficient are masked.  flip_normal reverses
    the normal field, which flips the signs of H, Q and R while
    preserving K.  The grid is measured in row blocks (row_blocks), each
    written straight into the outputs.
    """
    nu, nv = surface.shape
    if nu < 5 or nv < 5:
        raise ValueError("fundamental data needs at least a 5x5 grid")
    hu = _uniform_step(surface.us, "u")
    hv = _uniform_step(surface.vs, "v")
    normal = np.empty((surface.points.shape[-1], nu, nv))
    grids = {field: np.empty((nu, nv)) for field in _GRID_FIELDS}
    for a, b in row_blocks(nu, nv):
        _measure_rows(surface, a, b, hu, hv, flip_normal, normal, grids)
    return FundamentalData(surface=surface, normal=np.moveaxis(normal, 0, -1), **grids,
                           mask=~np.isfinite(grids["H"]), hu=hu, hv=hv)


def _measure_rows(surface, a, b, hu, hv, flip_normal, normal_planes, grids):
    """Write rows [a, b) of every measured field into the outputs.

    normal_planes are the (c, nu, nv) normal planes, which this block
    fills on rows [a - 1, b + 1), the reach of n_u on [a, b); a
    neighbouring block writes the same bits to the rows they share.
    """
    nu, nv = surface.shape
    name, kbar = AMBIENTS[surface.points.shape[-1]]
    hyperbolic = name == "H31"
    sp = scalar_product4 if hyperbolic else scalar_product3

    # the points of rows [a - 2, b + 2), component first, framed by one
    # column of NaN on each side and NaN rows wherever the block leaves
    # the grid: a stencil reaching the frame is NaN, as off the grid
    x = np.full((surface.points.shape[-1], b - a + 4, nv + 2), np.nan)
    lo, hi = max(a - 2, 0), min(b + 2, nu)
    x[:, lo - a + 2:hi - a + 2, 1:-1] = np.moveaxis(surface.points[lo:hi], -1, 0)

    # tangents and unit normal on rows [s0, s1), local rows [k0, k1) of x
    s0, s1 = max(a - 1, 0), min(b + 1, nu)
    k0, k1 = s0 - a + 2, s1 - a + 2
    xu = np.subtract(x[:, k0 + 1:k1 + 1, 1:-1], x[:, k0 - 1:k1 - 1, 1:-1])
    xu /= 2.0 * hu
    xv = np.subtract(x[:, k0:k1, 2:], x[:, k0:k1, :-2])
    xv /= 2.0 * hv
    normal = normal_planes[:, s0:s1]
    # raw = METRIC4 cross4 (METRIC3 cross3): negate the metric's negative planes
    if hyperbolic:
        cross4(x[:, k0:k1, 1:-1], xu, xv, out=normal)
    else:
        cross3(xu, xv, out=normal)
    normal[:2 if hyperbolic else 1] *= -1.0
    nn = sp(normal, normal)
    with np.errstate(invalid="ignore", divide="ignore"):
        nn = np.where(nn > 0.0, nn, np.nan)
        normal /= np.sqrt(nn)
    # the frame determinant is -2 sqrt(nn) in H31 and +2 sqrt(nn) in E31
    # (module docstring), so one constant sign gives the positive orientation
    sign = -1.0 if hyperbolic else 1.0
    if flip_normal:
        sign = -sign
    normal *= sign

    # everything else on rows [a, b), local rows [2, b - a + 2) of x
    n_u = central_difference(normal, hu, 1)[:, a - s0:b - s0]
    xu, xv, normal = xu[:, a - s0:b - s0], xv[:, a - s0:b - s0], normal[:, a - s0:b - s0]
    metric, omega, H, Q, R, K, K_shape, conf_u, conf_v, gauss_eq, sff = (
        grids[field][a:b] for field in _GRID_FIELDS)
    np.multiply(2.0, sp(xu, xv), out=metric)
    with np.errstate(invalid="ignore"):
        degenerate = np.isfinite(metric) & (metric <= 0.0)
    metric[degenerate | surface.mask[a:b]] = np.nan
    with np.errstate(invalid="ignore", divide="ignore"):
        np.log(metric, out=omega)

    xm = x[:, 2:-2, 1:-1]
    xuu = (x[:, 3:-1, 1:-1] - 2.0 * xm + x[:, 1:-3, 1:-1]) / hu ** 2
    xvv = (x[:, 2:-2, 2:] - 2.0 * xm + x[:, 2:-2, :-2]) / hv ** 2
    xuv = (x[:, 3:-1, 2:] - x[:, 3:-1, :-2] - x[:, 1:-3, 2:] + x[:, 1:-3, :-2]) / (4.0 * hu * hv)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(2.0 * sp(xuv, normal), metric, out=H)
        sp(xuu, normal, out=Q)
        sp(xvv, normal, out=R)
        np.subtract(kbar + H ** 2, 4.0 * Q * R / metric ** 2, out=K)
    del x, xm, xuu, xvv, xuv

    sp(xu, xu, out=conf_u)
    sp(xv, xv, out=conf_v)

    n_v = central_difference(normal, hv, 2)
    n_x, n_y = n_u - n_v, n_u + n_v
    del n_u, n_v
    phi_x, phi_y = xu - xv, xu + xv
    ii_xx = -sp(phi_x, n_x)
    ii_yy = -sp(phi_y, n_y)
    ii_xy = -0.5 * (sp(phi_x, n_y) + sp(phi_y, n_x))
    del phi_x, phi_y, n_x, n_y

    with np.errstate(invalid="ignore", divide="ignore"):
        model_xx = Q + R - H * metric
        model_yy = Q + R + H * metric
        model_xy = Q - R
        np.fmax(np.abs(ii_xx - model_xx),
                np.fmax(np.abs(ii_yy - model_yy), np.abs(ii_xy - model_xy)), out=sff)
        det_ii = ii_xx * ii_yy - ii_xy ** 2
        np.subtract(kbar, det_ii / metric ** 2, out=K_shape)
        np.subtract(K, K_shape, out=gauss_eq)


def second_form_residual(fd):
    """The entrywise second-form gap fd.sff, kept while perfbench/spans.py times it."""
    return fd.sff


def umbilic_detect(fd, tol=DEFAULT_TOL):
    """True where both Hopf coefficients vanish within tolerance."""
    with np.errstate(invalid="ignore"):
        return np.isfinite(fd.Q) & np.isfinite(fd.R) & \
            (np.abs(fd.Q) <= tol.umbilic) & (np.abs(fd.R) <= tol.umbilic)


def lawson_shift(h, kbar, c):
    """Parallel shift (H, kbar) -> (H + c, kbar - 2cH - c^2).

    The shifted pair satisfies the same curvature relation, which is the
    correspondence taking minimal surfaces in flat Minkowski 3-space
    (0, 0) to mean curvature 1 surfaces in the quadric (1, -1) at c = 1.
    """
    return (h + c, kbar - 2.0 * c * h - c * c)


def lawson_shift_residual(fd, c):
    """Curvature relation residual after the parallel shift by c.

    lawson_shift gives (H + c, ktilde); with det S = K_shape - kbar and
    tr S = 2H, det(S + c I) = det S + c (H + (H + c)).  The result
    |K - ktilde - det(S + c I)| equals |gauss_eq| to rounding for every c;
    the function stays while perfbench/spans.py times it.
    """
    h_shift, ktilde = lawson_shift(fd.H, fd.kbar, c)
    with np.errstate(invalid="ignore"):
        return np.abs(fd.K - ktilde - (fd.K_shape - fd.kbar + c * (fd.H + h_shift)))


def stat_max(a, where):
    """max |a| over the finite entries that where selects; NaN when there are none."""
    sel = np.asarray(where) & np.isfinite(a)
    return float(np.max(np.abs(a[sel]))) if np.any(sel) else float("nan")


@dataclass
class GeometryReport:
    """Summary statistics of a FundamentalData measurement."""

    fd: FundamentalData
    stats: dict
    core: np.ndarray    # the points the statistics range over

    def worst(self, tol=DEFAULT_TOL, h_error=None):
        """The residual gate: (ok, offender name, value, threshold).

        h_error, when given, is the mean curvature error stats_h_error
        measured against the target, gated by tol.cmc.
        """
        checks = [
            ("conf_u", self.stats["max_conf_u"], tol.conf),
            ("conf_v", self.stats["max_conf_v"], tol.conf),
            ("gauss_eq", self.stats["max_gauss_eq"], tol.gauss),
            ("sff", self.stats["max_sff"], tol.sff),
        ]
        if h_error is not None:
            checks.append(("mean_curvature", h_error, tol.cmc))
        worst = None
        for name, value, bound in checks:
            ratio = value / bound if np.isfinite(value) else float("inf")
            if worst is None or ratio > worst[0]:
                worst = (ratio, name, value, bound)
        ratio, name, value, bound = worst
        return ratio <= 1.0, name, value, bound

    def stats_h_error(self, target_h):
        # H is finite on the core, so only the core values are differenced
        return stat_max(self.fd.H[self.core] - target_h, True)


def geometry_report(surface, tol=DEFAULT_TOL, flip_normal=False):
    """Measure a surface and aggregate residual statistics.

    Statistics run over core points: valid interior points whose
    conformal factor clears the floor in the tolerance context, since
    curvature carries no meaning against a collapsing metric.
    """
    fd = fundamental_data(surface, flip_normal=flip_normal)
    core = fd.core(tol)
    # H is finite on the core, so only the core values are differenced; the
    # median may reorder them, which leaves their largest distance from it as is
    h_vals = fd.H[core]
    h_median = float(np.median(h_vals, overwrite_input=True)) if h_vals.size else float("nan")
    h_spread = stat_max(h_vals - h_median, True)
    del h_vals
    umb = umbilic_detect(fd, tol)
    n_valid = int(np.sum(fd.valid()))
    stats = {
        "ambient": surface.ambient,
        "nu": len(surface.us), "nv": len(surface.vs), "hu": fd.hu, "hv": fd.hv,
        "n_valid": n_valid,
        "n_core": int(np.sum(core)),
        "n_degenerate": int(fd.mask[1:-1, 1:-1].sum()),
        "min_metric": float(np.nanmin(fd.metric)) if np.any(np.isfinite(fd.metric)) else float("nan"),
        "max_conf_u": stat_max(fd.conf_u, core),
        "max_conf_v": stat_max(fd.conf_v, core),
        "max_gauss_eq": stat_max(fd.gauss_eq, core),
        "max_sff": stat_max(fd.sff, core),
        "h_median": h_median,
        "h_spread": h_spread,
        "umbilic_fraction": float(np.sum(umb & core) / max(1, np.sum(core))),
    }
    return GeometryReport(fd=fd, stats=stats, core=core)
