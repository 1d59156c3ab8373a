"""Curvature measurement, residual gates, and the parallel-shift identities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adscmc.geometry import (
    DEFAULT_TOL,
    AmbientSpec,
    SurfaceGrid,
    fundamental_data,
    geometry_report,
    lawson_shift,
    lawson_shift_residual,
    second_form_residual,
    umbilic_detect,
)

from conftest import E31_NAMES, H31_NAMES, STD_DOMAIN


def _core(fd):
    return fd.core(DEFAULT_TOL)


def _finite_max(arr, sel):
    # second-difference residuals are NaN on a deeper boundary ring than
    # the core mask removes, so statistics must drop non-finite entries
    keep = sel & np.isfinite(arr)
    assert np.any(keep)
    return float(np.max(np.abs(arr[keep])))


@pytest.mark.parametrize("name", H31_NAMES + E31_NAMES)
def test_gallery_invariants_match_expected_values(name, std_surfaces):
    entry, _, fd = std_surfaces[name]
    core = _core(fd)
    assert np.max(np.abs(fd.H - entry.expected["H"])[core]) < 5e-5
    # Q and R come out of second differences, so they carry an h^2 floor
    # that H does not (measured ~1.5e-3 at h = 0.03 on the cubic-growth
    # entries, exact to rounding on the ruled ones).
    assert np.max(np.abs(fd.Q - entry.expected["Q"])[core]) < 5e-3
    assert np.max(np.abs(fd.R - entry.expected["R"])[core]) < 5e-3


@pytest.mark.parametrize("name", ["b-scroll", "horosphere", "minimal-b-scroll"])
def test_ruled_and_orbit_surfaces_close_the_gauss_equation(name, std_surfaces):
    _, _, fd = std_surfaces[name]
    assert _finite_max(fd.gauss_eq, _core(fd)) < 1e-10


def test_orbit_coordinate_curves_are_null_to_rounding(std_surfaces):
    _, _, fd = std_surfaces["horosphere"]
    core = _core(fd)
    assert _finite_max(fd.conf_u, core) < 1e-12
    assert _finite_max(fd.conf_v, core) < 1e-12


@pytest.mark.parametrize("name", ["b-scroll", "minimal-b-scroll"])
def test_scroll_rulings_are_null_while_the_base_carries_the_floor(name, std_surfaces):
    _, _, fd = std_surfaces[name]
    core = _core(fd)
    # straight rulings along v differentiate exactly; the cubic base
    # curve picks up the h^2/3 <psi_u, psi_uuu> term of the central
    # difference (3.0e-4 at h = 0.03)
    assert _finite_max(fd.conf_v, core) < 1e-12
    assert 1e-5 < _finite_max(fd.conf_u, core) < 5e-4


@pytest.mark.parametrize("name", ["horosphere", "minimal-b-scroll"])
def test_flat_second_form_reconstruction_is_exact(name, std_surfaces):
    _, surface, fd = std_surfaces[name]
    resid = second_form_residual(surface, fd)
    assert np.nanmax(np.abs(resid)) < 1e-11


def test_second_form_residual_carries_the_differencing_floor(std_surfaces):
    _, surface, fd = std_surfaces["b-scroll"]
    resid = second_form_residual(surface, fd)
    assert np.nanmax(np.abs(resid)) < 1e-3


@pytest.mark.parametrize("name", ["b-scroll", "minimal-enneper"])
def test_orientation_flip_negates_curvatures_only(name, std_surfaces):
    _, surface, fd = std_surfaces[name]
    flipped = fundamental_data(surface, flip_normal=True)
    core = _core(fd)
    assert _finite_max(flipped.H + fd.H, core) == 0.0
    assert _finite_max(flipped.Q + fd.Q, core) == 0.0
    assert _finite_max(flipped.R + fd.R, core) == 0.0
    assert _finite_max(flipped.gauss_eq - fd.gauss_eq, core) == 0.0
    assert _finite_max(flipped.conf_u - fd.conf_u, core) == 0.0
    assert _finite_max(flipped.metric - fd.metric, core) == 0.0


def test_residuals_shrink_quadratically_under_grid_halving(gallery_module):
    entry = gallery_module.gallery("enneper-isothermic")
    maxima = {}
    for n in (51, 101):
        surface = gallery_module.oracle_surface(entry, (-0.5, 0.5, -0.5, 0.5), n, n)
        fd = fundamental_data(surface)
        core = _core(fd)
        maxima[n] = (
            _finite_max(fd.gauss_eq, core),
            _finite_max(fd.sff, core),
        )
    gauss_ratio = maxima[51][0] / maxima[101][0]
    sff_ratio = maxima[51][1] / maxima[101][1]
    assert 2.8 < gauss_ratio < 4.6
    assert 2.8 < sff_ratio < 4.6


def test_parallel_shift_corner_values():
    assert lawson_shift(0.0, 0.0, 1.0) == (1.0, -1.0)
    assert lawson_shift(0.0, 1.0, 1.0) == (1.0, 0.0)
    assert lawson_shift(1.0, -1.0, 1.0) == (2.0, -4.0)


@given(
    h=st.floats(-5, 5, allow_nan=False),
    kbar=st.floats(-5, 5, allow_nan=False),
    c=st.floats(-3, 3, allow_nan=False),
)
def test_parallel_shift_closed_form(h, kbar, c):
    hs, ks = lawson_shift(h, kbar, c)
    assert hs == pytest.approx(h + c, abs=1e-12)
    assert ks == pytest.approx(kbar - 2.0 * c * h - c * c, abs=1e-12)


def test_parallel_shift_at_zero_is_identity():
    assert lawson_shift(0.75, -1.0, 0.0) == (0.75, -1.0)


@pytest.mark.parametrize("name", ["horosphere", "b-scroll"])
@pytest.mark.parametrize("c", [1.0, -1.0, 0.5])
def test_shifted_shape_operator_keeps_the_curvature_relation(name, c, std_surfaces):
    _, _, fd = std_surfaces[name]
    resid = lawson_shift_residual(fd, c)
    assert np.nanmax(np.abs(resid)) < 1e-10


def test_umbilic_detection_separates_orbit_from_scroll(std_surfaces):
    _, _, fd_horo = std_surfaces["horosphere"]
    _, _, fd_scroll = std_surfaces["b-scroll"]
    _, _, fd_enneper = std_surfaces["enneper-isothermic"]
    assert np.all(umbilic_detect(fd_horo)[_core(fd_horo)])
    assert not np.any(umbilic_detect(fd_scroll)[_core(fd_scroll)])
    assert not np.any(umbilic_detect(fd_enneper)[_core(fd_enneper)])


def test_report_gate_passes_on_exact_orbit(std_surfaces):
    _, surface, _ = std_surfaces["horosphere"]
    report = geometry_report(surface)
    ok, name, value, bound = report.worst(target_h=1.0)
    assert ok
    assert value <= bound
    assert report.stats["umbilic_fraction"] == 1.0
    assert report.stats["ambient"] == "H31"
    assert report.stats["n_core"] <= report.stats["n_valid"]
    assert report.stats["nu"] == report.stats["nv"] == 51


def test_report_gate_flags_wrong_target_curvature(std_surfaces):
    _, surface, _ = std_surfaces["horosphere"]
    report = geometry_report(surface)
    ok, name, value, bound = report.worst(target_h=2.0)
    assert not ok
    assert name == "mean_curvature"
    assert value == pytest.approx(1.0, abs=1e-10)


def _cousin_leg_a(u):
    return np.stack([u / 2 + u**3 / 6, -u / 2 + u**3 / 6, -(u**2) / 2], axis=-1)


def _cousin_leg_b(v):
    return np.stack([-v / 2 - v**3 / 6, -v / 2 + v**3 / 6, -(v**2) / 2], axis=-1)


def _cousin_grid(shear):
    us = np.linspace(-0.5, 0.5, 41)
    vs = np.linspace(-0.5, 0.5, 41)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    points = _cousin_leg_a(uu + shear * vv**2) + _cousin_leg_b(vv)
    mask = np.zeros_like(uu, dtype=bool)
    return SurfaceGrid(us, vs, points, mask, AmbientSpec.e31(), "control")


def test_report_gate_names_broken_conformality():
    # Sampling the same surface along sheared coordinate lines leaves it
    # smooth but destroys the null-direction property of the v-curves,
    # which is exactly what the conf gate is there to catch.
    report = geometry_report(_cousin_grid(shear=0.2))
    ok, name, value, bound = report.worst()
    assert not ok
    assert name == "conf_v"
    assert np.isfinite(value)
    assert value > bound


def test_unsheared_control_passes_the_same_gate():
    report = geometry_report(_cousin_grid(shear=0.0))
    ok, _, _, _ = report.worst(target_h=0.0)
    assert ok
    assert report.stats["ambient"] == "E31"


def test_report_to_dict_round_trips_stats(std_surfaces):
    _, surface, _ = std_surfaces["b-scroll"]
    report = geometry_report(surface)
    d = report.to_dict()
    assert d == report.stats
    assert d is not report.stats
