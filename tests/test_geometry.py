"""Curvature measurement, residual gates, and the parallel-shift identities."""

import hashlib

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


def _frame_det(surface, normal):
    """det[x, x_u - x_v, x_u + x_v, N] (H31) or det[x_u - x_v, x_u + x_v, N]
    (E31) on the grid interior, from central differences."""
    x = surface.points
    hu = surface.us[1] - surface.us[0]
    hv = surface.vs[1] - surface.vs[0]
    xu = (x[2:, 1:-1] - x[:-2, 1:-1]) / (2.0 * hu)
    xv = (x[1:-1, 2:] - x[1:-1, :-2]) / (2.0 * hv)
    rows = [xu - xv, xu + xv, normal[1:-1, 1:-1]]
    if surface.ambient.name == "H31":
        rows.insert(0, x[1:-1, 1:-1])
    return np.linalg.det(np.stack(rows, axis=-2))


@pytest.mark.parametrize("name", H31_NAMES + E31_NAMES)
def test_normal_has_the_positive_frame_orientation(name, std_surfaces):
    # fundamental_data orients the normal by a closed-form sign, not a
    # determinant; the convention it must meet is checked here directly
    _, surface, fd = std_surfaces[name]
    finite = np.all(np.isfinite(fd.normal[1:-1, 1:-1]), axis=-1)
    assert finite.sum() > 0.9 * finite.size
    assert np.all(_frame_det(surface, fd.normal)[finite] > 0.0)
    flipped = fundamental_data(surface, flip_normal=True)
    assert np.all(_frame_det(surface, flipped.normal)[finite] < 0.0)


# sha256 of each field, NaN made canonical, as measured with the normal
# oriented by a per-point frame determinant: the closed-form sign must
# reproduce every bit.  The stdout digests pin only the maxima.
FD_FIELDS = ("normal", "H", "Q", "R", "K", "K_shape", "gauss_eq", "sff", "shape_op")
FD_DIGESTS = {
    ('enneper-isothermic', False): {
        'normal': '052e3487c6de02abab3ae61d9870ae79b6bc12a9f4fc245e0995156bc29405f5',
        'H': 'fa230c110b6a98021b3a09bcd3b99c3b6503d64bc7ec02f6276bebd44f865f34',
        'Q': 'c1cee9fb993522d76bd2f12401a58cdd994bf4bf7770681091e76b18b5d51a0a',
        'R': '93c8d833f9c25241d937aae5115e9d71db4153a16cc070d1f0a489440b4b2e2f',
        'K': 'f4c105209c9384e20bd3b70afd5e1eeb12e892264f582498ecb7534723faeb6b',
        'K_shape': '5c86c965c27ff152becc37cad4b0e14e347725fff9a1913eb9a06982d697ec37',
        'gauss_eq': 'b0c98452752b73155ee8367e07e89451be9065c70d92f937c4939bc99dbcec85',
        'sff': 'bc67f99ea1c0d6b34a4b61af3fd19fdd96456b11acaa6ff2fa9d1db108d2fe2b',
        'shape_op': 'a942bcbebe173f9d19c91787fea8ee37b4b44e4b127dbd9b9d69a477229c0778',
    },
    ('enneper-isothermic', True): {
        'normal': 'db8ed01650b358c0b23326097f480017c36ed0c6013a7ddda96a377737d9d3e7',
        'H': '8e99cbf2e22f9b4bce446065677b4151dc2c8c4791e3640d50582364f096c825',
        'Q': '9d904c5d8b22774f13efc74167161907b8a3d2b1af1e07e130d120f27770597a',
        'R': '6a24ebe1f7e2dfbf67fe9ecb66b30aaf92cdf08f49453213cbf47e67a7813f62',
        'K': 'f4c105209c9384e20bd3b70afd5e1eeb12e892264f582498ecb7534723faeb6b',
        'K_shape': '5c86c965c27ff152becc37cad4b0e14e347725fff9a1913eb9a06982d697ec37',
        'gauss_eq': 'b0c98452752b73155ee8367e07e89451be9065c70d92f937c4939bc99dbcec85',
        'sff': 'bc67f99ea1c0d6b34a4b61af3fd19fdd96456b11acaa6ff2fa9d1db108d2fe2b',
        'shape_op': '6de6186c92c49dacb36a982e5b0ee9a75ebc99342d384766c2d01598e2d88bf5',
    },
    ('minimal-enneper', False): {
        'normal': 'a70ec4123dd228bd953dcfc735e324eac6ba067713e195785ac9562ce9436c8c',
        'H': '714578e26d3606280972ed100444878b4198299dfb5c3e6e7e99fa70b06b41d7',
        'Q': '75dab1ea5314a37aab4fe2000fd5224b79af1d110dfc79f0cc2550507d189361',
        'R': 'd5ec361f37cc586c01b1c27f3ea45e6c06b3658b775af47c9aadb02c8a9c8f37',
        'K': '410992ec775faf0d363b6b139a2fc1f9a345ea94254392507e81c1006d281926',
        'K_shape': '76dd2430672fb712d0e01b7b56a1e8e03d5c21278798b6a229c04573922ae439',
        'gauss_eq': '22c097c4caa9753178d957fce6a85f28cd5528b37fced3ad26000fcf513294d6',
        'sff': '179a2abe32fa8adad3109552479a92f1ea4277d4dcb1fe9ec7412b466d75cc09',
        'shape_op': 'b3426979aab542dd346ad4b0fe80144d06cf58e8fc5a17fadb2846d0b8a313de',
    },
    ('minimal-enneper', True): {
        'normal': 'e58697f6601b45275f99e9d05b35f0925ea71f3fbc82849352237b9d98d15539',
        'H': 'dccdab48741951498315d4250439e7ec076fc98c034ba483af3261e60bbf3e02',
        'Q': 'bb900e3ccb1f2730bb873ed4ab5a4f7fe24f3f5793282ac44cae96c95d3685b4',
        'R': '4b894b779cfdb1c428b3ae0220876c76ad4bc9ea29e168006c583ef12a2eb911',
        'K': '410992ec775faf0d363b6b139a2fc1f9a345ea94254392507e81c1006d281926',
        'K_shape': '76dd2430672fb712d0e01b7b56a1e8e03d5c21278798b6a229c04573922ae439',
        'gauss_eq': '22c097c4caa9753178d957fce6a85f28cd5528b37fced3ad26000fcf513294d6',
        'sff': '179a2abe32fa8adad3109552479a92f1ea4277d4dcb1fe9ec7412b466d75cc09',
        'shape_op': '8ab0e907088a1fc413ab96f001b811922057950641090d33b4ae39c991d83365',
    },
}


def _digest(a):
    a = np.where(np.isnan(a), np.nan, a)
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name, flip", sorted(FD_DIGESTS))
def test_fundamental_data_is_pinned_point_by_point(name, flip, std_surfaces):
    _, surface, fd = std_surfaces[name]
    if flip:
        fd = fundamental_data(surface, flip_normal=True)
    got = {field: _digest(getattr(fd, field)) for field in FD_FIELDS}
    assert got == FD_DIGESTS[(name, flip)]


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
