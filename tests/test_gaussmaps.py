"""Null-line chart maps: three construction routes, Wronskian classification."""

import hashlib

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
LIOUVILLE = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")


def test_scroll_surface_chart_is_tanh(std_surfaces):
    _, surface, fd = std_surfaces["b-scroll"]
    gm = hyperbolic_gauss(fd, "plus")
    uu = surface.us[:, None] + 0.0 * surface.vs[None, :]
    ok = gm.valid()
    assert np.max(np.abs(gm.g1 - np.tanh(uu))[ok]) < 1e-12
    assert np.max(np.abs(gm.g2)[ok]) < 1e-12


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
    frames = integrate_lax(LIOUVILLE, (0.1, 0.9, 0.1, 0.9), 101, 101)
    report = holomorphicity_check(frames)
    assert report.max_residual < 1e-6
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
    assert report.max_residual < 1e-6
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
    assert report.max_residual < 1e-10
    assert report.label == "none"


@pytest.mark.parametrize("route", [frame_gauss_coordinates, holomorphicity_check],
                         ids=lambda route: route.__name__)
def test_leg_pairs_are_rejected(route):
    f1 = integrate_frame(KIND_F1, "u", "1", (0.0, 1.0), 21)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (0.0, 1.0), 21)
    with pytest.raises(ValueError, match="integrated coordinate frames"):
        route((f1, f2))


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
    rep = np.array([a, c])[:, None] * np.array([x, y])[None, :]
    scale = -lam if flip else lam
    g1, g2, bad = chart_coordinates(rep)
    h1, h2, bad2 = chart_coordinates(scale * rep)
    assert not bad and not bad2
    assert h1 == pytest.approx(g1, rel=1e-12, abs=1e-15)
    assert h2 == pytest.approx(g2, rel=1e-12, abs=1e-15)


# sha256 of g1, g2 and mask (NaN made canonical) and repr(max_rep_det) of
# each map, keyed by (route, input, sign): the H31 gallery surfaces of
# std_surfaces through both surface routes, and the Liouville Lax frames
# on a 101 x 61 grid through the frame route; for holomorphicity_check,
# the sha256 of the codes and repr of the largest identity residual.  The
# stdout digests pin only the maxima; these pin every point.
GAUSS_DIGESTS = {
    ("hyperbolic_gauss", "enneper-isothermic", "plus"): (
        "23f79d010a927da4bed27cc66f56750171f8dc50ce22726b93727a74c9324eab",
        "8.881784197001252e-15"),
    ("hyperbolic_gauss", "enneper-isothermic", "minus"): (
        "d79cb352ed0a8c86a494c06da49c59bddacde6759e90f5224aa33883197a2f45",
        "7.105427357601002e-15"),
    ("hyperbolic_gauss", "enneper-anti", "plus"): (
        "4526f87f0e7c1731469e3f323334851b3de6904e0337afbe2fabf7d4831f148a",
        "2.6645352591003757e-15"),
    ("hyperbolic_gauss", "enneper-anti", "minus"): (
        "774cb9d596d3e84f8531e8f64521f92b175bec8fd238aa30b0879f6f478d7e60",
        "4.440892098500626e-15"),
    ("hyperbolic_gauss", "b-scroll", "plus"): (
        "3f9269f5839de0aaa0c47bf734bd1d3e4712f0378576d6fb9f21a94b07b1a4c8",
        "1.4766081441778577e-15"),
    ("hyperbolic_gauss", "b-scroll", "minus"): (
        "3b0e31f572ed8da967cc9f36b0d2d5b3753daff2244b8e1edc1b04ce1bbabe3d",
        "3.552713678800501e-15"),
    ("hyperbolic_gauss", "horosphere", "plus"): (
        "3c272dcce0852297015a2843636996e8b918fa471a1ea8f01b6adcf1a76d5aa1",
        "8.88178419700131e-16"),
    ("hyperbolic_gauss", "horosphere", "minus"): (
        "dd940994cdf14f5579b633cd42a717e792d9de3f4031dd653f43c41d716ae469",
        "8.881784197001252e-16"),
    ("generalized_gauss", "enneper-isothermic", "plus"): (
        "b261278977be71fdc12c6c17865ed99f2a1e9bbfca095e2b7ea9ebec3dae02b7",
        "4.440892098500626e-16"),
    ("generalized_gauss", "enneper-isothermic", "minus"): (
        "618d614a07b924b98d86101a8cf4a4e3768feddef84b7d9e7945960208aba843",
        "8.881784197001252e-16"),
    ("generalized_gauss", "enneper-anti", "plus"): (
        "723e73c5b8edb3635986c63ae83b7457cea017b6e13b5f0d713cc8026ce6d30f",
        "2.220446049250313e-16"),
    ("generalized_gauss", "enneper-anti", "minus"): (
        "e58b76d43e5cdafc33c4e4178e950e319829945965f6385173337f5d236e92d1",
        "2.220446049250313e-16"),
    ("generalized_gauss", "b-scroll", "plus"): (
        "b2c7f77dc13fc62b8521e012b1f8d67a4cf814f32369e5209638eb98cd3632ad",
        "7.888609052210118e-31"),
    ("generalized_gauss", "b-scroll", "minus"): (
        "c4ac9055ab4e3054109a550cf1dc9f19eb318546fa13db2468bdfb2647501c1b",
        "4.440892098500626e-16"),
    ("generalized_gauss", "horosphere", "plus"): (
        "eb75a0449abbbc9d0056c360144fbd52dbbace51205c2c757640f165b9d83f73",
        "2.802596928649634e-45"),
    ("generalized_gauss", "horosphere", "minus"): (
        "93bcd0d74f391a97f8b252d18130b888dc944ea89edbc2533e6bed6cde227f3c",
        "5.551115123125783e-17"),
    ("frame_gauss_coordinates", "liouville", "plus"): (
        "e9880fe773c8071dc8f6d61c21333f1f962c25e9769c4e9453ea5ed1de44970d",
        "2.7755575615628914e-17"),
    ("frame_gauss_coordinates", "liouville", "minus"): (
        "323107ca62446c00d5b2a2ccd7589bbedfd36d339c0bb321b7dfc796d148f98f",
        "2.220446049250313e-16"),
    ("holomorphicity_check", "liouville", "plus"): (
        "71bc4b4157038cbc3969158f555bed006c00ce30a8fd5af12bc02c839bf262fd",
        "5.7576042378215675e-08"),
    ("holomorphicity_check", "liouville", "minus"): (
        "71bc4b4157038cbc3969158f555bed006c00ce30a8fd5af12bc02c839bf262fd",
        "7.674831781212532e-08"),
}

ROUTES = {"hyperbolic_gauss": hyperbolic_gauss, "generalized_gauss": generalized_gauss,
          "frame_gauss_coordinates": frame_gauss_coordinates}


def _sha(*grids):
    h = hashlib.sha256()
    for a in grids:
        if a.dtype.kind == "f":
            a = np.where(np.isnan(a), np.nan, a)
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def liouville_frames():
    return integrate_lax(LIOUVILLE, (0.1, 0.9, 0.05, 0.8), 101, 61)


def _gauss_digest(route, name, sign, std_surfaces, frames):
    if route == "holomorphicity_check":
        report = holomorphicity_check(frames, sign)
        return _sha(report.codes), repr(report.max_residual)
    gm = ROUTES[route](frames if name == "liouville" else std_surfaces[name][2], sign)
    return _sha(gm.g1, gm.g2, gm.mask), repr(gm.max_rep_det)


@pytest.mark.parametrize("key", sorted(GAUSS_DIGESTS), ids="-".join)
def test_gauss_maps_are_pinned_point_by_point(key, std_surfaces, liouville_frames):
    assert _gauss_digest(*key, std_surfaces, liouville_frames) == GAUSS_DIGESTS[key]
