"""Closed-form reference surfaces and their self-consistency."""

import numpy as np
import pytest

from adscmc.algebra import det2, mat_of_vec
from adscmc.gallery import GALLERY_NAMES, GalleryEntry, gallery, oracle_frame, oracle_surface
from adscmc.nullcurves import null_coefficient

from conftest import E31_NAMES, H31_NAMES


def test_name_table_is_complete():
    assert set(GALLERY_NAMES) == set(H31_NAMES) | set(E31_NAMES)
    for name in GALLERY_NAMES:
        entry = gallery(name)
        assert entry.name == name
        assert entry.ambient in ("h31", "e31")
        assert set(entry.expected) == {"H", "Q", "R", "umbilic"}


def test_expected_targets_follow_the_ambient():
    for name in H31_NAMES:
        assert gallery(name).expected["H"] == 1.0
    for name in E31_NAMES:
        assert gallery(name).expected["H"] == 0.0
    assert gallery("horosphere").expected["umbilic"] is True
    assert sum(gallery(n).expected["umbilic"] for n in GALLERY_NAMES) == 1


def test_unknown_name_reports_the_valid_ones():
    with pytest.raises(ValueError, match="b-scroll"):
        gallery("does-not-exist")


@pytest.mark.parametrize("name", GALLERY_NAMES)
@pytest.mark.parametrize("leg", ["F1", "F2"])
def test_closed_form_legs_stay_unimodular(name, leg):
    entry = gallery(name)
    fn = entry.frame_f1 if leg == "F1" else entry.frame_f2
    ts = np.linspace(-3.0, 3.0, 121)
    frames = np.stack([fn(t) for t in ts])
    assert np.max(np.abs(det2(frames) - 1.0)) < 1e-12


@pytest.mark.parametrize("name", GALLERY_NAMES)
@pytest.mark.parametrize("leg", ["F1", "F2"])
def test_closed_form_legs_solve_their_linear_systems(name, leg):
    entry = gallery(name)
    data = entry.data
    if leg == "F1":
        fn, s, w = entry.frame_f1, data.q, data.f
    else:
        fn, s, w = entry.frame_f2, data.r, data.g
    h = 1e-4
    for t in np.linspace(-1.2, 1.2, 7):
        diff = (fn(t + h) - fn(t - h)) / (2.0 * h)
        got = np.linalg.inv(fn(t)) @ diff
        want = null_coefficient(float(s(t)), float(w(t)))
        assert np.max(np.abs(got - want)) < 1e-6


def test_oracle_frame_values_are_frozen():
    anti = gallery("enneper-anti")
    assert np.allclose(oracle_frame(anti, "F1", np.pi),
                       [[-1.0, -np.pi], [0.0, -1.0]], atol=1e-12)
    scroll = gallery("b-scroll")
    phi = scroll.surface_fn(1.0, 2.0)
    c1, s1, e1 = np.cosh(1.0), np.sinh(1.0), np.e
    assert np.allclose(phi, [[c1, e1], [s1, e1]], atol=1e-12)


def test_oracle_frame_rejects_unknown_leg():
    with pytest.raises(ValueError, match="leg"):
        oracle_frame(gallery("b-scroll"), "F3", 0.0)


@pytest.mark.parametrize("name", H31_NAMES)
def test_quadric_surfaces_sample_as_matrices(name):
    surface = oracle_surface(name, (-0.4, 0.4, -0.4, 0.4), 9, 7)
    assert surface.points.shape == (9, 7, 4)
    assert surface.assembly == "mu"
    assert np.max(np.abs(det2(mat_of_vec(surface.points)) - 1.0)) < 1e-12
    assert surface.shape == (9, 7)


@pytest.mark.parametrize("name", E31_NAMES)
def test_flat_surfaces_sample_as_vectors(name):
    surface = oracle_surface(name, (-0.4, 0.4, -0.4, 0.4), 9, 7)
    assert surface.points.shape == (9, 7, 3)
    assert surface.assembly == "minimal"


def test_degenerate_locus_is_masked():
    surface = oracle_surface("enneper-isothermic", (-1.5, -0.5, 0.5, 1.5), 11, 11)
    assert surface.mask[5, 5]
    assert surface.mask.sum() == 1


def test_entry_without_surface_raises():
    entry = GalleryEntry(name="bare", ambient="h31",
                         data=gallery("b-scroll").data,
                         frame_f1=None, frame_f2=None)
    with pytest.raises(ValueError, match="closed-form surface"):
        oracle_surface(entry, (-1.0, 1.0, -1.0, 1.0), 5, 5)
    with pytest.raises(ValueError, match="closed form"):
        oracle_frame(entry, "F1", 0.0)


def test_metric_expression_matches_the_measured_factor(std_surfaces):
    entry, _, fd = std_surfaces["enneper-isothermic"]
    us, vs = fd.surface.us, fd.surface.vs
    uu = us[:, None] + 0.0 * vs[None, :]
    vv = 0.0 * uu + vs[None, :]
    want = (1.0 + uu * vv) ** 2
    sel = fd.core() & np.isfinite(fd.metric)
    # differenced tangents put an h^2 floor under the product
    # (1.0e-3 measured at h = 0.03)
    assert np.max(np.abs(fd.metric - want)[sel]) < 2e-3
