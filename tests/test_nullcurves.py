"""Null frame legs in the unimodular group and their product assembly."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adscmc.algebra import act, adjugate, det2, mat_of_vec, pack2
from adscmc.config import DEFAULT_TOL
from adscmc.lax import extract_weierstrass_data
from adscmc.nullcurves import (KIND_F1, KIND_F2_MU, IntegrationError, assemble_mu,
                               assemble_nu, check_drift, frame_metric_grid, integrate_frame,
                               null_coefficient)
from adscmc.weierstrass import WeierstrassData, integrate_minimal, minimal_metric_factor

from conftest import each_row_block

LEGS = [
    ("enneper-isothermic", 1, KIND_F1),
    ("enneper-isothermic", 2, KIND_F2_MU),
    ("enneper-anti", 1, KIND_F1),
    ("b-scroll", 2, KIND_F2_MU),
    ("horosphere", 1, KIND_F1),
]


def _leg_inputs(gallery_module, name, leg):
    entry = gallery_module.gallery(name)
    data = entry.data
    if leg == 1:
        return entry.frame_f1, data.q, data.f
    return entry.frame_f2, data.r, data.g


@pytest.mark.parametrize("name, leg, kind", LEGS)
def test_integrator_tracks_closed_forms(gallery_module, name, leg, kind):
    oracle, s, w = _leg_inputs(gallery_module, name, leg)
    curve = integrate_frame(kind, s, w, (-1.5, 1.5), 1500, init=oracle(-1.5))
    want = np.stack([oracle(t) for t in curve.ts])
    assert np.max(np.abs(curve.samples - want)) < 1e-8


@pytest.mark.parametrize("kind, s, w, t_range, nodes", [
    (KIND_F1, "u", "1", (0.0, 1.5), (400, 800, 6400)),
    (KIND_F2_MU, "sin(3*v)", "cosh(v)", (-0.5, 1.0), (41, 81, 641)),
], ids=["u-leg", "v-leg"])
def test_halving_shows_fourth_order(kind, s, w, t_range, nodes):
    def end(n):
        curve = integrate_frame(kind, s, w, t_range, n)
        assert np.allclose(curve.samples @ adjugate(curve.samples), np.eye(2), atol=1e-12)
        return curve.samples[-1]

    # compare the endpoints of a grid and its halving against a much finer run
    coarse, fine, ref = map(end, nodes)
    ratio = np.max(np.abs(coarse - ref)) / np.max(np.abs(fine - ref))
    assert 14.0 <= ratio <= 18.0


def test_determinant_drift_stays_tiny():
    curve = integrate_frame(KIND_F1, "u", "1", (-2.0, 2.0), 4000)
    assert curve.det_drift < 1e-10
    assert np.max(np.abs(det2(curve.samples) - 1.0)) < 1e-10


def test_custom_initial_frame():
    init = np.array([[1.0, 0.0], [1.0, 1.0]])
    curve = integrate_frame(KIND_F1, "0", "1", (0.0, 1.0), 21, init=init)
    assert np.allclose(curve.samples[0], init)
    # q = 0, f = 1 integrates the lower-triangular one-parameter group
    want = np.array([[1.0, 0.0], [2.0, 1.0]])
    assert np.allclose(curve.samples[-1], want, atol=1e-12)


def test_frozen_endpoint_value(gallery_module):
    entry = gallery_module.gallery("enneper-anti")
    got = entry.frame_f1(np.pi)
    want = np.array([[-1.0, -np.pi], [0.0, -1.0]])
    assert np.allclose(got, want, atol=1e-12)
    curve = integrate_frame(KIND_F1, entry.data.q, entry.data.f, (0.0, np.pi), 1500)
    assert np.max(np.abs(curve.samples[-1] - want)) < 1e-8


def test_kind_tags_are_enforced():
    f1 = integrate_frame(KIND_F1, "0", "1", (0.0, 1.0), 11)
    f2m = integrate_frame(KIND_F2_MU, "0", "1", (0.0, 1.0), 11)
    with pytest.raises(ValueError, match="leg kind"):
        integrate_frame("F2-antiholomorphic-nu", "0", "1", (0.0, 1.0), 11)
    with pytest.raises(ValueError, match="second"):
        assemble_mu(f1, f1)
    with pytest.raises(ValueError, match="second"):
        assemble_nu(f1, f1)
    with pytest.raises(ValueError, match="first"):
        assemble_mu(f2m, f2m)


@pytest.mark.parametrize("consume", [
    assemble_mu,
    extract_weierstrass_data,
], ids=["assemble_mu", "extract_weierstrass_data"])
def test_swapped_legs_are_rejected(consume):
    f1 = integrate_frame(KIND_F1, "u", "1", (0.0, 1.0), 11)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (0.0, 1.0), 11)
    with pytest.raises(ValueError, match="first leg must have kind 'F1-holomorphic', "
                                         "got 'F2-antiholomorphic-mu'"):
        consume(f2, f1)


def test_assembled_surface_matches_closed_form(gallery_module):
    entry = gallery_module.gallery("b-scroll")
    f1 = integrate_frame(KIND_F1, entry.data.q, entry.data.f, (-1.0, 1.0), 801,
                         init=entry.frame_f1(-1.0))
    f2 = integrate_frame(KIND_F2_MU, entry.data.r, entry.data.g, (-1.0, 1.0), 801,
                         init=entry.frame_f2(-1.0))
    surf = assemble_mu(f1, f2)
    want = entry.surface_fn(surf.us[:, None], surf.vs[None, :])
    assert np.max(np.abs(mat_of_vec(surf.points) - want)) < 1e-8


def test_both_assemblies_agree_from_identity_frames():
    # the inverse-action product F1 Psi^-1 of Psi = F2^-T is F1 F2^T, so
    # both assemblies build the same points and differ only in the label
    f1 = integrate_frame(KIND_F1, "u", "1", (-0.5, 0.5), 101)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (-0.5, 0.5), 101)
    sm = assemble_mu(f1, f2)
    sn = assemble_nu(f1, f2)
    assert np.array_equal(sm.points, sn.points)
    assert np.array_equal(sm.mask, sn.mask)
    assert (sm.assembly, sn.assembly) == ("mu", "nu")


def test_degenerate_data_builds_the_flat_orbit():
    f1 = integrate_frame(KIND_F1, "0", "1", (0.0, 1.0), 11)
    f2 = integrate_frame(KIND_F2_MU, "0", "1", (0.0, 1.0), 11)
    surf = assemble_nu(f1, f2)
    assert surf.assembly == "nu"
    want = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(mat_of_vec(surf.points[-1, -1]), want, atol=1e-12)
    assert not surf.mask.any()
    metric = frame_metric_grid(f1, f2)
    assert np.allclose(metric, 1.0, atol=1e-12)


def test_exact_metric_matches_differenced_metric(gallery_module):
    entry = gallery_module.gallery("enneper-isothermic")
    f1 = integrate_frame(KIND_F1, entry.data.q, entry.data.f, (-0.5, 0.5), 201)
    f2 = integrate_frame(KIND_F2_MU, entry.data.r, entry.data.g, (-0.5, 0.5), 201)
    surf = assemble_mu(f1, f2)
    exact = frame_metric_grid(f1, f2)

    from adscmc.geometry import fundamental_data
    fd = fundamental_data(surf)
    core = ~np.isnan(fd.metric)
    # the grid metric is second-order differenced, h = 5e-3 here
    assert np.max(np.abs(fd.metric - exact)[core]) < 5e-5


def test_null_coefficient_shapes():
    c = null_coefficient(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert c.shape == (2, 2, 2)
    # the coefficient matrix is trace free and nilpotent for a null leg
    assert np.allclose(np.trace(c, axis1=-2, axis2=-1), 0.0, atol=1e-14)
    assert np.allclose(det2(c), 0.0, atol=1e-14)


@given(s1=st.floats(-10, 10), w1=st.floats(-10, 10), s2=st.floats(-10, 10),
       w2=st.floats(-10, 10))
def test_summed_leg_coefficients_give_the_cousin_metric_factor(s1, w1, s2, w2):
    # frame_metric_grid masks by the closed form w1 w2 (1 + s1 s2)^2;
    # it must stay -det(C1 + C2^T) of the leg system's own coefficients
    summed = null_coefficient(s1, w1) + null_coefficient(s2, w2).T
    cousin = WeierstrassData.build(s1, w1, s2, w2)
    scale = (abs(s1 * w1) + abs(s2 * w2)) ** 2 \
        + (abs(w2) + s1 * s1 * abs(w1)) * (abs(w1) + s2 * s2 * abs(w2))
    # rounding is relative to the terms' size, and absolute where the
    # products fall into the subnormal range
    gap = abs(-det2(summed) - minimal_metric_factor(cousin, 0.0, 0.0))
    assert gap <= 1e-14 * scale + 1e-300


def test_nan_initial_frame_is_rejected():
    with pytest.raises(ValueError, match="initial frame is not unimodular.*nan"):
        integrate_frame(KIND_F1, "u", "1", (0.0, 1.0), 11, init=np.full((2, 2), np.nan))


def test_nan_drift_fails_the_drift_gate():
    # w = 1e200 overflows every Magnus step's Omega to inf - inf = nan,
    # so the determinant drift itself is nan and must not pass its gate
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="drift nan"):
            integrate_frame(KIND_F1, "u", "1e200", (0.0, 1.0), 11)


def test_drift_gate_blocks_leave_no_seam(monkeypatch):
    # 25 frames whose determinants miss 1 by growing amounts, so the
    # largest drift sits in the last frame, a part block for 2, 3 and 7
    # frames a block; one NaN frame fails the gate at every block size
    frames = np.sqrt(1.0 + np.linspace(1e-14, 1e-12, 25))[:, None, None] * np.eye(2)
    want = float(np.max(np.abs(det2(frames) - 1.0)))
    bad = frames.copy()
    bad[10, 1, 0] = np.nan
    for rows in each_row_block(monkeypatch, len(frames), 1):
        assert check_drift(frames, DEFAULT_TOL, "here") == want, rows
        with pytest.raises(IntegrationError, match="drift nan"):
            check_drift(bad, DEFAULT_TOL, "here")


FLAT_DOMAIN = (-0.5, 0.5, -0.5, 0.5)


def _flat_quotient(data, eps, n):
    """(F1 F2^T - I) / eps for the legs of data with both densities scaled by eps."""
    q, f, r, g = data
    f1 = integrate_frame(KIND_F1, q, f"({eps!r})*({f})", FLAT_DOMAIN[:2], n)
    f2 = integrate_frame(KIND_F2_MU, r, f"({eps!r})*({g})", FLAT_DOMAIN[2:], n)
    return (act(f1.samples[:, None], f2.samples[None, :]) - np.eye(2)) / eps


@pytest.mark.parametrize("data", [("u", "1", "v", "1"),
                                  ("sin(u)", "1+u^2/4", "v^2", "exp(v/3)")],
                         ids=["enneper", "sin"])
def test_minimal_cousin_is_the_flat_limit_of_the_leg_product(data):
    # With both densities scaled by eps, F1 F2^T = I + eps X + O(eps^2), and
    # X is the minimal surface of the same data under the isometry
    # (x1, x2, x3) -> [[-x3, -(x1 + x2)], [x1 - x2, x3]] of E31 onto the
    # trace-free matrices, which takes -x1^2 + x2^2 + x3^2 to -det.  The
    # product and the quadrature meet here with no finite difference between.
    n = 101
    psi = integrate_minimal(WeierstrassData.build(*data), FLAT_DOMAIN, n, n).points
    x1, x2, x3 = np.moveaxis(psi, -1, 0)
    want = pack2(-x3, -(x1 + x2), x1 - x2, x3)

    def gap(y):
        return float(np.max(np.abs(y - want)))

    # the O(eps) remainder halves with eps (0.950, 0.933, 0.925 times eps
    # measured for the first data, 0.998, 0.989, 0.985 for the second)
    first = [gap(_flat_quotient(data, eps, n)) for eps in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(first, first[1:]):
        assert 0.47 < fine / coarse < 0.53
    # the central average cancels it, leaving c eps^2 with one c from
    # eps = 0.1 down to 1e-3 (0.3278 and 0.1781 measured)
    central = [gap(0.5 * (_flat_quotient(data, eps, n) + _flat_quotient(data, -eps, n)))
               / eps ** 2 for eps in (0.1, 0.01, 0.001)]
    assert 0.1 < min(central) and max(central) < (1.0 + 1e-3) * min(central)


@pytest.mark.parametrize("n", [0, 1])
def test_leg_below_two_nodes_is_rejected(n):
    with pytest.raises(ValueError, match="need at least 2 nodes"):
        integrate_frame(KIND_F1, "1", "0", (0.0, 1.0), n)
