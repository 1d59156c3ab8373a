"""Null-line chart maps: three construction routes, Wronskian classification."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adscmc.gaussmaps import (
    chart_coordinates,
    chordal_distance,
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


def _finite(gm):
    """The points where both chart values of a map are finite."""
    return np.isfinite(gm.g1) & np.isfinite(gm.g2)


def _spread(g):
    """(max - min) of a chart value over its finite points."""
    return float(np.ptp(g[np.isfinite(g)]))


def test_scroll_surface_chart_is_tanh(std_surfaces):
    _, surface, fd = std_surfaces["b-scroll"]
    gm = hyperbolic_gauss(fd, "plus")
    uu = surface.us[:, None] + 0.0 * surface.vs[None, :]
    ok = _finite(gm)
    assert np.max(np.abs(gm.g1 - np.tanh(uu))[ok]) < 1e-12
    assert np.max(np.abs(gm.g2)[ok]) < 1e-12


@pytest.mark.parametrize("name", H31_NAMES)
def test_tangent_route_matches_normal_route_on_the_plus_line(name, gallery_module):
    entry = gallery_module.gallery(name)
    surface = gallery_module.oracle_surface(entry, (-0.3, 0.3, -0.3, 0.3), 101, 101)
    fd = fundamental_data(surface)
    gen_plus = generalized_gauss(fd, "plus")
    hyp = hyperbolic_gauss(fd, "plus")
    ok = _finite(gen_plus) & _finite(hyp)
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
    ok = _finite(gen_minus) & _finite(hyp)
    gap = max(np.max(np.abs(gen_minus.g1 - hyp.g1)[ok]),
              np.max(np.abs(gen_minus.g2 - hyp.g2)[ok]))
    assert gap < 1e-4


def test_orbit_plus_chart_is_constant(gallery_module):
    entry = gallery_module.gallery("horosphere")
    surface = gallery_module.oracle_surface(entry, (-0.3, 0.3, -0.3, 0.3), 101, 101)
    fd = fundamental_data(surface)
    gm = hyperbolic_gauss(fd, "plus")
    assert _spread(gm.g1) < 1e-12
    assert _spread(gm.g2) < 1e-12
    # the other null line sweeps the orbit, so its chart must move
    other = hyperbolic_gauss(fd, "minus")
    assert max(_spread(other.g1), _spread(other.g2)) > 1.0


def test_scroll_chart_moves_only_along_u(std_surfaces):
    _, _, fd = std_surfaces["b-scroll"]
    gm = hyperbolic_gauss(fd, "plus")
    assert _spread(gm.g2) < 1e-12
    # the stencil border is undefined, so the spread ends one step inside
    assert _spread(gm.g1) == pytest.approx(np.tanh(0.72) - np.tanh(-0.72), abs=1e-9)


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
    ok = _finite(gm)
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
    g1, g2 = chart_coordinates(rep)
    h1, h2 = chart_coordinates(scale * rep)
    assert np.isfinite(g1) and np.isfinite(g2)
    assert h1 == pytest.approx(g1, rel=1e-12, abs=1e-15)
    assert h2 == pytest.approx(g2, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("a, b", [(np.inf, 1e300), (np.inf, -1e300), (-np.inf, 1e300),
                                  (-np.inf, -1e300), (np.inf, -np.inf)])
def test_chordal_distance_reads_both_infinities_as_one_point(a, b):
    # the lines of (1, 0) and (1, 1e-300) lie 1e-300 apart
    assert chordal_distance(a, b) == pytest.approx(0.0, abs=1e-300)
    assert chordal_distance(b, a) == pytest.approx(0.0, abs=1e-300)


def test_chordal_distance_from_infinity_to_zero_is_one():
    assert chordal_distance(np.inf, 0.0) == 1.0
    assert chordal_distance(-np.inf, -0.0) == 1.0
    assert np.isnan(chordal_distance(np.nan, 0.0))


@given(a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3))
def test_chordal_distance_is_the_sine_of_the_angle(a, b):
    want = abs(a - b) / np.sqrt((1.0 + a * a) * (1.0 + b * b))
    assert chordal_distance(a, b) == pytest.approx(want, rel=1e-9, abs=1e-15)
    # swapping the two coordinates of both vectors is an isometry of RP^1
    if a != 0.0 and b != 0.0:
        assert chordal_distance(1.0 / a, 1.0 / b) == pytest.approx(want, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("route", [hyperbolic_gauss, generalized_gauss],
                         ids=lambda route: route.__name__)
@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("name", H31_NAMES)
def test_gallery_maps_are_defined_beyond_the_border(name, sign, route, std_surfaces):
    # a chart pole reads +-inf, the point at infinity, not an undefined point
    gm = route(std_surfaces[name][2], sign)
    for g in (gm.g1, gm.g2):
        assert not np.isnan(g[1:-1, 1:-1]).any()


@pytest.fixture(scope="module")
def liouville_gaps():
    """{n: {sign: (frame gap, generalized gap)}} of the chordal route gaps
    to the surface map on Liouville data over [0.1, 0.9]^2 at n x n."""
    out = {}
    for n in (51, 101, 201):
        frames = integrate_lax(LIOUVILLE, (0.1, 0.9, 0.1, 0.9), n, n)
        fd = fundamental_data(frames.assemble())
        out[n] = {}
        for sign in ("plus", "minus"):
            hyp = hyperbolic_gauss(fd, sign)
            out[n][sign] = (hyp.gap(frame_gauss_coordinates(frames, sign)),
                            hyp.gap(generalized_gauss(fd, sign)))
    return out


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_route_gaps_shrink_at_the_stencil_order(sign, liouville_gaps):
    # the plus chart nears its pole at the grid's corner, where its
    # absolute chart gap grows with the grid; on RP^1 the maps converge
    for coarse, fine in ((51, 101), (101, 201)):
        for before, after in zip(liouville_gaps[coarse][sign], liouville_gaps[fine][sign]):
            assert 3.5 <= before / after <= 4.5, (coarse, before, after)
    assert max(liouville_gaps[201][sign]) <= 1e-5


# sha256 of g1 and g2 (NaN made canonical) and repr(max_rep_det) of
# each map, keyed by (route, input, sign): the H31 gallery surfaces of
# std_surfaces through both surface routes, and the Liouville Lax frames
# on a 101 x 61 grid through the frame route; for holomorphicity_check,
# the sha256 of the codes and repr of the largest identity residual.  The
# stdout digests pin only the maxima; these pin every point.
GAUSS_DIGESTS = {
    ("hyperbolic_gauss", "enneper-isothermic", "plus"): (
        "2149ea25c45959406937950b9e3c0654bff805e903ae311af9aaafe718dbd3f9",
        "8.881784197001252e-15"),
    ("hyperbolic_gauss", "enneper-isothermic", "minus"): (
        "e94771f6b525370c99757010c28e86e5a2f25bc863cb1e5e332629ba30b98a6d",
        "7.105427357601002e-15"),
    ("hyperbolic_gauss", "enneper-anti", "plus"): (
        "8ecd1f73ed43d4c2441361ad9cc47bf9fe5121a1eb78c1abf5bf7c98f796ab6b",
        "2.6645352591003757e-15"),
    ("hyperbolic_gauss", "enneper-anti", "minus"): (
        "756b6cfd99c4841f16d042d82b201b1d431382d9a4832da6011d8020bb43f4f4",
        "4.440892098500626e-15"),
    ("hyperbolic_gauss", "b-scroll", "plus"): (
        "5370899299a39d5e48d3065fd28f572cd17f64844297e24115199f2e6ebd8868",
        "1.4766081441778577e-15"),
    ("hyperbolic_gauss", "b-scroll", "minus"): (
        "1cca5b329a1b3a7840a7f0c01efe882f32324900c2ca300963dfddde970738cc",
        "3.552713678800501e-15"),
    ("hyperbolic_gauss", "horosphere", "plus"): (
        "6beb8ba6393f53a1460c2df6f942090c5558572cb93bf09e5f412075452ff210",
        "8.88178419700131e-16"),
    ("hyperbolic_gauss", "horosphere", "minus"): (
        "46c53a680d98323bccba3d3dcdc878b7e93236af6dd6c1a1d473b25d61271c2a",
        "8.881784197001252e-16"),
    ("generalized_gauss", "enneper-isothermic", "plus"): (
        "0866c9ba71b667057bc874971fa08078fdb57e636d5a8481354b99a7f78dfa13",
        "0.0"),
    ("generalized_gauss", "enneper-isothermic", "minus"): (
        "6e0cd0a77ecf005d77ec948176527ca5ec5f58e0514044368373b8e988a54e2b",
        "0.0"),
    ("generalized_gauss", "enneper-anti", "plus"): (
        "2d731fe1d25d085c7c01a93b58e96daf764a61c9b5a70197e296c5b82c912ef1",
        "0.0"),
    ("generalized_gauss", "enneper-anti", "minus"): (
        "9efed7fd8e5569d32a2c388e3bdf1af630924f3297e4cc21f39984c9a013ca80",
        "0.0"),
    ("generalized_gauss", "b-scroll", "plus"): (
        "500e1a7f6d332ec79d72c8db1003c35f1136e4ad810acd2fdbc55f06d5dc9455",
        "0.0"),
    ("generalized_gauss", "b-scroll", "minus"): (
        "d3312990a03f9f4fcf165811f51dedbfa0cb2280a4c7309d493977063f31255f",
        "0.0"),
    ("generalized_gauss", "horosphere", "plus"): (
        "6b79e77bf9fedde6299562d02dc88c09c27dfe47ab96154e8b6cab28a631dadf",
        "0.0"),
    ("generalized_gauss", "horosphere", "minus"): (
        "53f9ef498d4e7ebae9f2d5b699442a7ecf147196cf03ed85cb5d7db69637bfde",
        "0.0"),
    ("frame_gauss_coordinates", "liouville", "plus"): (
        "1a54ee81e9767373e7119b16745a13ade48145b36b5e7a65c8fd2113eae17971",
        "0.0"),
    ("frame_gauss_coordinates", "liouville", "minus"): (
        "770b21c26140ba40ca9ef87f821ae805cb1e3a08c607df6c48fd9e5b97ec14ef",
        "0.0"),
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
    return _sha(gm.g1, gm.g2), repr(gm.max_rep_det)


@pytest.mark.parametrize("key", sorted(GAUSS_DIGESTS), ids="-".join)
def test_gauss_maps_are_pinned_point_by_point(key, std_surfaces, liouville_frames):
    assert _gauss_digest(*key, std_surfaces, liouville_frames) == GAUSS_DIGESTS[key]
