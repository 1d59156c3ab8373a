"""Every builder returns a SurfaceGrid whose point layout names its ambient space:
four components place it in H31 (kbar = -1), three in E31 (kbar = 0)."""

import re

import numpy as np
import pytest

from adscmc.config import DEFAULT_TOL
from adscmc.export import export_json, read_json
from adscmc.gallery import GALLERY_NAMES, gallery, oracle_surface
from adscmc.geometry import SurfaceGrid, fundamental_data, geometry_report
from adscmc.lax import GmcData, integrate_lax
from adscmc.nullcurves import KIND_F1, KIND_F2_MU, assemble_mu, assemble_nu, integrate_frame
from adscmc.weierstrass import WeierstrassData, integrate_minimal

# (name, kbar) of each ambient
H31, E31 = ("H31", -1.0), ("E31", 0.0)
LIOUVILLE = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")


def _leg(kind):
    s, t_range = ("u", (0.0, 0.5)) if kind == KIND_F1 else ("v", (0.0, 0.4))
    return integrate_frame(kind, s, "1", t_range, 9)


def _check(surface, ambient, assembly, shape):
    assert type(surface) is SurfaceGrid
    assert surface.ambient == ambient[0] and surface.assembly == assembly
    assert surface.shape == shape and surface.mask.shape == shape
    k = 4 if ambient == H31 else 3
    assert surface.points.shape == shape + (k,)
    assert fundamental_data(surface).kbar == ambient[1]


@pytest.mark.parametrize("k", [2, 5])
def test_a_layout_that_names_no_ambient_is_rejected(k):
    us = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match=re.escape(f"shape (9, 7, {k})")):
        SurfaceGrid(us, us[:7], np.zeros((9, 7, k)), np.zeros((9, 7), dtype=bool), "mu")


def test_null_curve_assembly_builds_quadric_grids():
    f1 = _leg(KIND_F1)
    _check(assemble_mu(f1, _leg(KIND_F2_MU)), H31, "mu", (9, 9))
    _check(assemble_nu(f1, _leg(KIND_F2_MU)), H31, "nu", (9, 9))


def test_lax_assembly_builds_quadric_grids():
    frames = integrate_lax(LIOUVILLE, (0.1, 0.5, 0.1, 0.4), 9, 7)
    _check(frames.assemble(), H31, "mu", (9, 7))


def test_weierstrass_quadrature_builds_minkowski_grids():
    data = WeierstrassData.build("u", "1", "v", "1")
    _check(integrate_minimal(data, (0.0, 0.5, 0.0, 0.4), 9, 7), E31, "minimal", (9, 7))


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_oracle_surfaces_carry_their_entry_ambient(name):
    surface = oracle_surface(name, (-0.5, 0.5, -0.5, 0.5), 9, 7)
    if gallery(name).ambient == "h31":
        _check(surface, H31, "mu", (9, 7))
    else:
        _check(surface, E31, "minimal", (9, 7))


@pytest.mark.parametrize("name, projection, ambient, assembly", [
    ("horosphere", None, H31, "mu"),
    ("horosphere", "plus", E31, "mu"),
    ("minimal-enneper", None, E31, "minimal"),
])
def test_read_json_rebuilds_the_stored_ambient(tmp_path, name, projection, ambient,
                                               assembly):
    path = tmp_path / "grid.json"
    export_json(oracle_surface(name, (-0.5, 0.5, -0.5, 0.5), 9, 7), projection, str(path))
    surface, meta, _ = read_json(str(path))
    _check(surface, ambient, assembly, (9, 7))
    assert meta["ambient"] == ("e31" if name.startswith("minimal") else "h31")


@pytest.mark.parametrize("tol", [DEFAULT_TOL, DEFAULT_TOL.with_(metric_floor=0.3)])
def test_report_core_is_the_measured_core(tol):
    # the Enneper window crosses its degenerate curve, so the core
    # excludes masked and low-metric points alike
    surface = oracle_surface("enneper-isothermic", (-1.5, -0.5, 0.5, 1.5), 21, 21)
    report = geometry_report(surface, tol=tol)
    want = fundamental_data(surface).core(tol)
    assert report.core.dtype == bool
    assert np.array_equal(report.core, want)
    assert 0 < int(want.sum()) == report.stats["n_core"] < want.size
