"""Null-line chart maps: three construction routes, Wronskian classification."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adscmc.gaussmaps import (
    chart_coordinates,
    frame_gauss_coordinates,
    gauss_conformality_check,
    generalized_gauss,
    holomorphicity_check,
    hyperbolic_gauss,
)
from adscmc.geometry import fundamental_data
from adscmc.lax import GmcData, integrate_lax
from adscmc.nullcurves import KIND_F1, KIND_F2_MU, integrate_frame

from conftest import H31_NAMES

SLANT_INIT = (np.array([[1.0, 0.0], [1.0, 1.0]]),
              np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_scroll_surface_chart_is_tanh(std_surfaces):
    _, surface, fd = std_surfaces["b-scroll"]
    gm = hyperbolic_gauss(fd, "plus")
    uu = surface.us[:, None] + 0.0 * surface.vs[None, :]
    ok = gm.valid()
    assert np.max(np.abs(gm.g1 - np.tanh(uu))[ok]) < 1e-12
    assert np.max(np.abs(gm.g2)[ok]) < 1e-12


def test_scroll_frame_chart_is_coth(gallery_module):
    entry = gallery_module.gallery("b-scroll")
    data = entry.data
    ts = np.linspace(0.1, 0.6, 41)
    f1 = integrate_frame(KIND_F1, data.q, data.f, (0.1, 0.6), 41,
                         init=entry.frame_f1(0.1))
    f2 = integrate_frame(KIND_F2_MU, data.r, data.g, (0.1, 0.6), 41,
                         init=entry.frame_f2(0.1))
    gm = frame_gauss_coordinates((f1, f2), "plus")
    uu = ts[:, None] + 0.0 * ts[None, :]
    vv = 0.0 * uu + ts[None, :]
    ok = gm.valid()
    # the gallery legs sit in a different frame gauge than the
    # coordinate frames of the assembled parametrization, so this chart
    # legitimately differs from the surface chart of the same scroll
    assert np.max(np.abs(gm.g1 - 1.0 / np.tanh(uu))[ok]) < 1e-8
    assert np.max(np.abs(gm.g2 - 1.0 / vv)[ok]) < 1e-8
    assert gm.max_rep_det() < 1e-10


@pytest.mark.parametrize("name", H31_NAMES)
def test_tangent_route_matches_normal_route_on_the_plus_line(name, gallery_module):
    entry = gallery_module.gallery(name)
    surface = gallery_module.oracle_surface(entry, (-0.3, 0.3, -0.3, 0.3), 101, 101)
    fd = fundamental_data(surface)
    gen_plus = generalized_gauss(fd, "plus")
    hyp = hyperbolic_gauss(fd, "plus")
    ok = gen_plus.valid() & hyp.valid()
    assert np.sum(ok) > 0.9 * ok.size
    gap = max(np.max(np.abs(gen_plus.g1 - hyp.g1)[ok]),
              np.max(np.abs(gen_plus.g2 - hyp.g2)[ok]))
    assert gap < 1e-5


def test_tangent_route_matches_normal_route_on_the_minus_line(gallery_module):
    # the minus chart blows up toward u = v = 0 on this example, which
    # amplifies the h^2 rank-one defect of differenced tangents, so the
    # window sits where the chart values stay order one
    entry = gallery_module.gallery("enneper-isothermic")
    surface = gallery_module.oracle_surface(entry, (0.8, 1.2, 0.8, 1.2), 201, 201)
    fd = fundamental_data(surface)
    gen_minus = generalized_gauss(fd, "minus")
    hyp = hyperbolic_gauss(fd, "minus")
    ok = gen_minus.valid() & hyp.valid()
    gap = max(np.max(np.abs(gen_minus.g1 - hyp.g1)[ok]),
              np.max(np.abs(gen_minus.g2 - hyp.g2)[ok]))
    assert gap < 1e-4


def test_orbit_plus_chart_is_constant(gallery_module):
    entry = gallery_module.gallery("horosphere")
    surface = gallery_module.oracle_surface(entry, (-0.3, 0.3, -0.3, 0.3), 101, 101)
    fd = fundamental_data(surface)
    gm = hyperbolic_gauss(fd, "plus")
    s1, s2 = gm.spread()
    assert s1 < 1e-12
    assert s2 < 1e-12
    # the other null line sweeps the orbit, so its chart must move
    other = hyperbolic_gauss(fd, "minus")
    assert max(other.spread()) > 1.0


def test_scroll_chart_moves_only_along_u(std_surfaces):
    _, _, fd = std_surfaces["b-scroll"]
    gm = hyperbolic_gauss(fd, "plus")
    s1, s2 = gm.spread()
    assert s2 < 1e-12
    # the stencil border is masked, so the spread ends one step inside
    assert s1 == pytest.approx(np.tanh(0.72) - np.tanh(-0.72), abs=1e-9)


@pytest.mark.parametrize("name, bound", [
    ("enneper-isothermic", 5e-5),
    ("b-scroll", 1e-9),
    ("horosphere", 1e-9),
])
def test_chart_metric_identity_on_the_plus_line(name, bound, gallery_module):
    entry = gallery_module.gallery(name)
    surface = gallery_module.oracle_surface(entry, (-0.3, 0.3, -0.3, 0.3), 201, 201)
    fd = fundamental_data(surface)
    resid = gauss_conformality_check(fd, sign="plus")
    assert np.nanmax(resid) < bound


def test_chart_metric_identity_needs_the_matching_orientation(gallery_module):
    entry = gallery_module.gallery("enneper-isothermic")
    surface = gallery_module.oracle_surface(entry, (0.8, 1.2, 0.8, 1.2), 101, 101)
    fd = fundamental_data(surface)
    plus = np.nanmax(gauss_conformality_check(fd, sign="plus"))
    minus = np.nanmax(gauss_conformality_check(fd, sign="minus"))
    assert plus < 1e-4
    assert minus > 1.0


def test_wronskian_identities_on_an_integrated_family():
    data = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")
    frames = integrate_lax(data, (0.1, 0.9, 0.1, 0.9), 101, 101)
    report = holomorphicity_check(frames)
    assert report.max_residual() < 1e-6
    assert report.label == "none"


@pytest.mark.parametrize("q, r, want", [
    ("0", "0", "constant"),
    ("1", "0", "holomorphic"),
    ("0", "1", "antiholomorphic"),
])
def test_degenerate_families_classify_exactly(q, r, want):
    data = GmcData.build("0", 1.0, q, r)
    frames = integrate_lax(data, (0.0, 1.0, 0.0, 1.0), 41, 41,
                           init=SLANT_INIT)
    report = holomorphicity_check(frames)
    assert report.label == want
    assert report.max_residual() < 1e-6
    assert np.all(report.classification == want)


def test_points_that_disagree_label_the_map_mixed():
    # Q = u vanishes only on the row u = 0, which reads constant; every
    # other point reads holomorphic
    data = GmcData.build("0", 1.0, "u", "0")
    frames = integrate_lax(data, (-0.5, 0.5, 0.0, 1.0), 41, 41, init=SLANT_INIT)
    report = holomorphicity_check(frames)
    assert report.label == "mixed"
    assert np.all(report.classification[20] == "constant")
    assert np.all(np.delete(report.classification, 20, axis=0) == "holomorphic")


def test_holomorphic_chart_depends_on_u_alone():
    data = GmcData.build("0", 1.0, "1", "0")
    frames = integrate_lax(data, (0.0, 1.0, 0.0, 1.0), 41, 41,
                           init=SLANT_INIT)
    gm = frame_gauss_coordinates(frames, "plus")
    ok = gm.valid()
    assert np.sum(ok) > 0
    g1 = np.where(ok, gm.g1, np.nan)
    assert np.nanmax(np.abs(g1 - g1[:, :1])) < 1e-8


def test_minus_line_identities_hold_with_their_own_predictions():
    # for target curvature +1 the minus-line u-Wronskian prediction
    # e^{w/2}(H+1)/2 never vanishes, so the label stays "none" even
    # though every identity is satisfied
    data = GmcData.build("0", 1.0, "0", "0")
    frames = integrate_lax(data, (0.0, 1.0, 0.0, 1.0), 41, 41)
    report = holomorphicity_check(frames, sign="minus")
    assert report.max_residual() < 1e-10
    assert report.label == "none"


def test_leg_pairs_are_rejected():
    f1 = integrate_frame(KIND_F1, "u", "1", (0.0, 1.0), 21)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (0.0, 1.0), 21)
    with pytest.raises(ValueError, match="integrated coordinate frames"):
        holomorphicity_check((f1, f2))


def test_bad_sign_rejected(std_surfaces):
    _, _, fd = std_surfaces["b-scroll"]
    with pytest.raises(ValueError, match="sign"):
        hyperbolic_gauss(fd, "both")
    with pytest.raises(ValueError, match="sign"):
        generalized_gauss(fd, "both")


@pytest.mark.parametrize("route", [hyperbolic_gauss, generalized_gauss,
                                   gauss_conformality_check])
def test_flat_space_surfaces_have_no_null_line_chart(route, std_surfaces):
    _, _, fd = std_surfaces["minimal-enneper"]
    with pytest.raises(ValueError, match="matrix model"):
        route(fd)


def test_conformality_check_rejects_a_bad_sign(std_surfaces):
    _, _, fd = std_surfaces["b-scroll"]
    with pytest.raises(ValueError, match="sign"):
        gauss_conformality_check(fd, sign="minsu")


@given(
    a=st.floats(-5, 5), c=st.floats(0.5, 5), x=st.floats(-5, 5),
    y=st.floats(0.5, 5), lam=st.floats(0.1, 10),
    flip=st.booleans(),
)
def test_chart_reads_the_line_not_the_representative(a, c, x, y, lam, flip):
    rep = np.array([[a, c], [x, y]])[:, :, None]
    rep = np.array([a, c])[:, None] * np.array([x, y])[None, :]
    scale = -lam if flip else lam
    g1, g2, bad = chart_coordinates(rep)
    h1, h2, bad2 = chart_coordinates(scale * rep)
    assert not bad and not bad2
    assert h1 == pytest.approx(g1, rel=1e-12, abs=1e-15)
    assert h2 == pytest.approx(g2, rel=1e-12, abs=1e-15)
