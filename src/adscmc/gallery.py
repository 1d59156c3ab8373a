"""Closed-form example surfaces used as ground truth by the test suite.

Every entry carries null-direction data (q, f, r, g), exact frame legs
F1(u), F2(v) solving the corresponding linear systems, and where the
product is tractable a closed-form surface.  The four quadric entries
(product assembly F1 F2^t) all have mean curvature 1; the two minimal
entries reuse the same data through the split-integral route and have
mean curvature 0.  Expected Hopf coefficients are recorded with the
signs the measurement pipeline produces under its orientation rule.
oracle_surface masks the points where the entry data's metric factor
f g (1 + q r)^2 (weierstrass.minimal_metric_factor) falls below
tol.degen, the rule every null-data builder applies.

The b-scroll product is stated explicitly because its (1,2) entry is a
convenient regression target:

    phi = [[cosh u, -(u - v) cosh u + sinh u],
           [sinh u, -(u - v) sinh u + cosh u]]

(the sign of the sinh term is forced by det phi = 1).
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import act, pack2, vec_of_mat
from .config import DEFAULT_TOL
from .geometry import SurfaceGrid
from .weierstrass import WeierstrassData, minimal_metric_factor

DEFAULT_DOMAIN = (-1.5, 1.5, -1.5, 1.5)

GALLERY_NAMES = ("enneper-isothermic", "enneper-anti", "b-scroll",
                 "horosphere", "minimal-enneper", "minimal-b-scroll")


def _frame_hyp(t):
    """Leg for direction t with unit density: hyperbolic rotation part."""
    t = np.asarray(t, dtype=float)
    ch, sh = np.cosh(t), np.sinh(t)
    return pack2(ch, sh - t * ch, sh, ch - t * sh)


def _frame_trig(t):
    """Leg for direction -t with unit density."""
    t = np.asarray(t, dtype=float)
    c, s = np.cos(t), np.sin(t)
    return pack2(c, -s + t * c, s, c + t * s)


def _frame_lower(t):
    """Leg for constant zero direction: unipotent lower triangular."""
    t = np.asarray(t, dtype=float)
    one = np.ones_like(t)
    return pack2(one, 0.0 * t, t, one)


def _product_phi(f1, f2):
    def phi(u, v):
        a = f1(np.asarray(u, dtype=float))
        b = f2(np.asarray(v, dtype=float))
        return act(a, b)
    return phi


def _bscroll_phi(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    ch, sh = np.cosh(u), np.sinh(u)
    w = u - v
    return pack2(ch + 0.0 * v, -w * ch + sh, sh + 0.0 * v, -w * sh + ch)


def _minimal_enneper_psi(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x1 = u / 2.0 + u ** 3 / 6.0 - v / 2.0 - v ** 3 / 6.0
    x2 = -u / 2.0 + u ** 3 / 6.0 - v / 2.0 + v ** 3 / 6.0
    x3 = -u ** 2 / 2.0 - v ** 2 / 2.0
    return np.stack(np.broadcast_arrays(x1, x2, x3), axis=-1)


def _minimal_bscroll_psi(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x1 = u / 2.0 + u ** 3 / 6.0 - v / 2.0
    x2 = -u / 2.0 + u ** 3 / 6.0 - v / 2.0
    x3 = -u ** 2 / 2.0 + 0.0 * v
    return np.stack(np.broadcast_arrays(x1, x2, x3), axis=-1)


@dataclass
class GalleryEntry:
    name: str
    ambient: str                 # "h31" | "e31"
    data: WeierstrassData
    frame_f1: object = None      # callable u -> (..., 2, 2)
    frame_f2: object = None
    surface_fn: object = None    # closed-form surface, matrix- or 3-vector-valued
    expected: dict = field(default_factory=dict)
    notes: str = ""


def _entry_table():
    hyp, trig, low = _frame_hyp, _frame_trig, _frame_lower
    table = {}
    table["enneper-isothermic"] = GalleryEntry(
        name="enneper-isothermic", ambient="h31",
        data=WeierstrassData.build("u", "1", "v", "1"),
        frame_f1=hyp, frame_f2=hyp,
        surface_fn=_product_phi(hyp, hyp),
        expected={"H": 1.0, "Q": -1.0, "R": -1.0, "umbilic": False},
        notes="degenerate along u v = -1")
    table["enneper-anti"] = GalleryEntry(
        name="enneper-anti", ambient="h31",
        data=WeierstrassData.build("-u", "1", "v", "1"),
        frame_f1=trig, frame_f2=hyp,
        surface_fn=_product_phi(trig, hyp),
        expected={"H": 1.0, "Q": 1.0, "R": -1.0, "umbilic": False},
        notes="degenerate along u v = 1")
    table["b-scroll"] = GalleryEntry(
        name="b-scroll", ambient="h31",
        data=WeierstrassData.build("u", "1", "0", "1"),
        frame_f1=hyp, frame_f2=low,
        surface_fn=_bscroll_phi,
        expected={"H": 1.0, "Q": -1.0, "R": 0.0, "umbilic": False},
        notes="flat ruled surface; second direction is constant")
    table["horosphere"] = GalleryEntry(
        name="horosphere", ambient="h31",
        data=WeierstrassData.build("0", "1", "0", "1"),
        frame_f1=low, frame_f2=low,
        surface_fn=_product_phi(low, low),
        expected={"H": 1.0, "Q": 0.0, "R": 0.0, "umbilic": True},
        notes="totally umbilic; constant null-line map")
    table["minimal-enneper"] = GalleryEntry(
        name="minimal-enneper", ambient="e31",
        data=table["enneper-isothermic"].data,
        frame_f1=hyp, frame_f2=hyp,
        surface_fn=_minimal_enneper_psi,
        expected={"H": 0.0, "Q": 1.0, "R": 1.0, "umbilic": False},
        notes="split-integral twin of enneper-isothermic")
    table["minimal-b-scroll"] = GalleryEntry(
        name="minimal-b-scroll", ambient="e31",
        data=table["b-scroll"].data,
        frame_f1=hyp, frame_f2=low,
        surface_fn=_minimal_bscroll_psi,
        expected={"H": 0.0, "Q": 1.0, "R": 0.0, "umbilic": False},
        notes="split-integral twin of b-scroll")
    return table


_ENTRIES = _entry_table()


def gallery(name):
    try:
        return _ENTRIES[name]
    except KeyError:
        raise ValueError(f"unknown gallery name {name!r}; valid names: "
                         + ", ".join(GALLERY_NAMES)) from None


def oracle_frame(entry, leg, t):
    """Evaluate a closed-form frame leg exactly."""
    fn = {"F1": entry.frame_f1, "F2": entry.frame_f2}.get(leg)
    if fn is None:
        raise ValueError(f"entry {entry.name!r} has no closed form for leg {leg!r}")
    return fn(t)


def oracle_surface(entry, domain=DEFAULT_DOMAIN, nu=101, nv=101, tol=DEFAULT_TOL):
    """Sample the closed-form surface of an entry over a rectangle."""
    if isinstance(entry, str):
        entry = gallery(entry)
    if entry.surface_fn is None:
        raise ValueError(f"entry {entry.name!r} has no closed-form surface")
    u0, u1, v0, v1 = domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    pts = entry.surface_fn(us[:, None], vs[None, :])
    mask = np.abs(minimal_metric_factor(entry.data, us[:, None], vs[None, :])) < tol.degen
    if entry.ambient == "h31":
        return SurfaceGrid(us, vs, vec_of_mat(pts), mask, "mu")
    return SurfaceGrid(us, vs, pts, mask, "minimal")
