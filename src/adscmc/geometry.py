"""Sampled surfaces and their first and second fundamental forms.

A SurfaceGrid is a grid of surface points in one of two flat ambient
spaces, named by its AmbientSpec: the unimodular quadric H31 (curvature
-1), stored as four components in R^4_2, or Minkowski 3-space E31
(curvature 0), stored as three components.  Builders that form matrix
products convert once, so every consumer reads component vectors, and a
grid read back from its JSON file holds exactly the values written.

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

fundamental_data works on one contiguous copy of the points with the
component axis first, planes (c, nu, nv), and differences them along
axes 1 and 2.  Every Lorentz product is then a sum over whole planes
(algebra.scalar_product4/3), with no metric-scaled operand copy.  The
metric signs of raw are applied by negating its negative planes in
place, the normal is raw divided in place, and fd.normal is the
(nu, nv, c) moveaxis view of those planes, not a copy.  The products
sum in a fixed order, component 0 paired with 2, then 1 (and 3), then
+ 0.0, which is how np.einsum("...i,...i->...", METRIC * x, y) sums
contiguous components from a +0.0 accumulator.  The pinned field
digests, stdout and golden files hold einsum's values: another order
changes the last bit at roughly a third of random points, and without
the + 0.0 a sum of -0.0 terms stays -0.0 where einsum gives +0.0.
Each full-size intermediate is dropped once its last product is taken
(the position and second-derivative planes after H, Q and R, the normal
differences after II), which bounds the peak memory of a measurement.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import cross3, cross4, scalar_product3, scalar_product4
from .config import DEFAULT_TOL


@dataclass(frozen=True)
class AmbientSpec:
    """Ambient space: its name and constant sectional curvature."""

    name: str
    kbar: float

    @classmethod
    def h31(cls):
        return cls("H31", -1.0)

    @classmethod
    def e31(cls):
        return cls("E31", 0.0)


@dataclass
class SurfaceGrid:
    """Sampled surface over a uniform (u, v) grid, u along axis 0.

    points holds ambient components: shape (nu, nv, 4) in H31 and
    (nu, nv, 3) in E31.  assembly names the construction that produced
    the grid.
    """

    us: np.ndarray
    vs: np.ndarray
    points: np.ndarray
    mask: np.ndarray    # True where the metric factor is below tolerance
    ambient: AmbientSpec
    assembly: str

    @property
    def shape(self):
        return self.points.shape[:2]


def _cd1(a, h, axis):
    """Central first difference; NaN where the stencil leaves the grid."""
    out = np.full_like(a, np.nan)
    sl = [slice(None)] * a.ndim
    hi, lo, mid = list(sl), list(sl), list(sl)
    hi[axis] = slice(2, None)
    lo[axis] = slice(0, -2)
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = (a[tuple(hi)] - a[tuple(lo)]) / (2.0 * h)
    return out


def _cd2(a, h, axis):
    out = np.full_like(a, np.nan)
    sl = [slice(None)] * a.ndim
    hi, lo, mid = list(sl), list(sl), list(sl)
    hi[axis] = slice(2, None)
    lo[axis] = slice(0, -2)
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = (a[tuple(hi)] - 2.0 * a[tuple(mid)] + a[tuple(lo)]) / h ** 2
    return out


def _cdm(a, hu, hv):
    """Central mixed difference over the last two axes."""
    out = np.full_like(a, np.nan)
    out[..., 1:-1, 1:-1] = (a[..., 2:, 2:] - a[..., 2:, :-2] - a[..., :-2, 2:]
                            + a[..., :-2, :-2]) / (4.0 * hu * hv)
    return out


def _uniform_step(ts, name):
    d = np.diff(ts)
    if d.size == 0 or np.max(np.abs(d - d[0])) > 1e-9 * max(1.0, abs(d[0])):
        raise ValueError(f"{name} nodes must be uniformly spaced")
    return float(d[0])


@dataclass
class FundamentalData:
    """Measured first and second order data of a sampled surface.

    All arrays have the full grid shape; entries are NaN wherever the
    finite-difference stencil or the degeneracy mask leaves them
    undefined.  mask is True at points with no valid first-order data.
    """

    us: np.ndarray
    vs: np.ndarray
    ambient: AmbientSpec
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
    shape_op: np.ndarray      # (nu, nv, 2, 2) in coordinates (x, y)
    mask: np.ndarray
    hu: float
    hv: float

    def valid(self):
        return ~self.mask

    def core(self, tol=DEFAULT_TOL):
        """Valid points whose conformal factor clears the stats floor."""
        with np.errstate(invalid="ignore"):
            return self.valid() & (self.metric >= tol.metric_floor)


def fundamental_data(surface, tol=DEFAULT_TOL, flip_normal=False):
    """Measure fundamental forms of a sampled surface grid.

    Degenerate points (2 <phi_u, phi_v> <= 0) and points where the
    normal system is rank-deficient are masked.  flip_normal reverses
    the normal field, which flips the signs of H, Q and R while
    preserving K.
    """
    ambient = surface.ambient
    nu, nv = surface.shape
    if nu < 5 or nv < 5:
        raise ValueError("fundamental data needs at least a 5x5 grid")
    hu = _uniform_step(surface.us, "u")
    hv = _uniform_step(surface.vs, "v")
    hyperbolic = ambient.name == "H31"
    sp = scalar_product4 if hyperbolic else scalar_product3

    x = np.ascontiguousarray(np.moveaxis(surface.points, -1, 0))
    xu = _cd1(x, hu, 1)
    xv = _cd1(x, hv, 2)
    xuu = _cd2(x, hu, 1)
    xvv = _cd2(x, hv, 2)
    xuv = _cdm(x, hu, hv)

    metric = 2.0 * sp(xu, xv)
    with np.errstate(invalid="ignore"):
        degenerate = np.isfinite(metric) & (metric <= 0.0)
    metric = np.where(degenerate | surface.mask, np.nan, metric)
    with np.errstate(invalid="ignore", divide="ignore"):
        omega = np.log(metric)

    # raw = METRIC4 cross4 (METRIC3 cross3): negate the metric's negative planes
    normal = cross4(x, xu, xv) if hyperbolic else cross3(xu, xv)
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

    with np.errstate(invalid="ignore", divide="ignore"):
        H = 2.0 * sp(xuv, normal) / metric
        Q = sp(xuu, normal)
        R = sp(xvv, normal)
        K = ambient.kbar + H ** 2 - 4.0 * Q * R / metric ** 2
    del x, xuu, xvv, xuv

    conf_u = sp(xu, xu)
    conf_v = sp(xv, xv)

    n_u = _cd1(normal, hu, 1)
    n_v = _cd1(normal, hv, 2)
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
        sff = np.fmax(np.abs(ii_xx - model_xx),
                      np.fmax(np.abs(ii_yy - model_yy), np.abs(ii_xy - model_xy)))
        det_ii = ii_xx * ii_yy - ii_xy ** 2
        K_shape = ambient.kbar - det_ii / metric ** 2
        gauss_eq = K - K_shape
        # filled entry by entry: packing four finished entry grids would
        # hold them all at once, which raised peak memory on long grids
        shape_op = np.empty(ii_xx.shape + (2, 2))
        shape_op[..., 0, 0] = -ii_xx / metric
        shape_op[..., 0, 1] = -ii_xy / metric
        shape_op[..., 1, 0] = ii_xy / metric
        shape_op[..., 1, 1] = ii_yy / metric

    return FundamentalData(
        us=np.asarray(surface.us, dtype=float), vs=np.asarray(surface.vs, dtype=float),
        ambient=ambient, metric=metric, omega=omega, normal=np.moveaxis(normal, 0, -1),
        H=H, Q=Q, R=R, K=K, K_shape=K_shape, conf_u=conf_u, conf_v=conf_v,
        gauss_eq=gauss_eq, sff=sff, shape_op=shape_op, mask=~np.isfinite(H),
        hu=hu, hv=hv)


def second_form_residual(surface, fd):
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
    """Curvature relation residual after shifting the shape operator.

    Shifts S -> S + c I and the ambient curvature to
    ktilde = kbar - c tr S - c^2, then returns |K - ktilde - det(S + cI)|,
    which vanishes wherever the unshifted relation K = kbar + det S holds.
    """
    s = fd.shape_op
    tr = s[..., 0, 0] + s[..., 1, 1]
    with np.errstate(invalid="ignore"):
        ktilde = fd.ambient.kbar - c * tr - c * c
        det_shift = (s[..., 0, 0] + c) * (s[..., 1, 1] + c) - s[..., 0, 1] * s[..., 1, 0]
        return np.abs(fd.K - ktilde - det_shift)


def _stat_max(a, where):
    sel = np.asarray(where) & np.isfinite(a)
    return float(np.max(np.abs(a[sel]))) if np.any(sel) else float("nan")


@dataclass
class GeometryReport:
    """Summary statistics of a FundamentalData measurement."""

    fd: FundamentalData
    stats: dict
    core: np.ndarray    # the points the statistics range over

    def worst(self, tol=DEFAULT_TOL, target_h=None, h_error=None):
        """The residual gate: (ok, offender name, value, threshold).

        h_error, when given, is stats_h_error(target_h) already measured.
        """
        checks = [
            ("conf_u", self.stats["max_conf_u"], tol.conf),
            ("conf_v", self.stats["max_conf_v"], tol.conf),
            ("gauss_eq", self.stats["max_gauss_eq"], tol.gauss),
            ("sff", self.stats["max_sff"], tol.sff),
        ]
        if target_h is not None:
            if h_error is None:
                h_error = self.stats_h_error(target_h)
            checks.append(("mean_curvature", h_error, tol.cmc))
        worst = None
        for name, value, bound in checks:
            ratio = value / bound if np.isfinite(value) else float("inf")
            if worst is None or ratio > worst[0]:
                worst = (ratio, name, value, bound)
        ratio, name, value, bound = worst
        return ratio <= 1.0, name, value, bound

    def stats_h_error(self, target_h):
        sel = self.core & np.isfinite(self.fd.H)
        if not np.any(sel):
            return float("nan")
        return float(np.max(np.abs(self.fd.H[sel] - target_h)))

    def to_dict(self):
        return dict(self.stats)


def geometry_report(surface, tol=DEFAULT_TOL, flip_normal=False):
    """Measure a surface and aggregate residual statistics.

    Statistics run over core points: valid interior points whose
    conformal factor clears the floor in the tolerance context, since
    curvature carries no meaning against a collapsing metric.
    """
    fd = fundamental_data(surface, tol=tol, flip_normal=flip_normal)
    core = fd.core(tol)
    h_vals = fd.H[core & np.isfinite(fd.H)]
    h_median = float(np.median(h_vals)) if h_vals.size else float("nan")
    umb = umbilic_detect(fd, tol)
    n_valid = int(np.sum(fd.valid()))
    stats = {
        "ambient": fd.ambient.name,
        "nu": len(fd.us), "nv": len(fd.vs), "hu": fd.hu, "hv": fd.hv,
        "n_valid": n_valid,
        "n_core": int(np.sum(core)),
        "n_degenerate": int(fd.mask[1:-1, 1:-1].sum()),
        "min_metric": float(np.nanmin(fd.metric)) if np.any(np.isfinite(fd.metric)) else float("nan"),
        "max_conf_u": _stat_max(fd.conf_u, core),
        "max_conf_v": _stat_max(fd.conf_v, core),
        "max_gauss_eq": _stat_max(fd.gauss_eq, core),
        "max_sff": _stat_max(fd.sff, core),
        "h_median": h_median,
        "h_spread": _stat_max(fd.H - h_median, core),
        "umbilic_fraction": float(np.sum(umb & core) / max(1, np.sum(core))),
    }
    return GeometryReport(fd=fd, stats=stats, core=core)
