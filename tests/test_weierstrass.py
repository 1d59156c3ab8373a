"""Split representation of timelike minimal surfaces and its quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from adscmc import weierstrass
from adscmc.fields import ScalarField1D
from adscmc.geometry import fundamental_data
from adscmc.weierstrass import (QuadratureError, WeierstrassData,
                                adaptive_quadrature, integrate_minimal,
                                minimal_metric_factor, minimal_normal,
                                projected_gauss_minimal,
                                weierstrass_derivatives)
from adscmc.weierstrass import G7_WEIGHTS, K15_NODES, K15_WEIGHTS, MAX_EVALUATIONS

ENNEPER = WeierstrassData.build("u", "1", "v", "1")

small = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


def test_derivative_directions_at_reference_values():
    # q = 0, f = 1 leaves the bare u-direction (1/2, -1/2, 0)
    data = WeierstrassData.build("0", "1", "0", "1")
    psi_u, psi_v = weierstrass_derivatives(data, 0.7, -0.3)
    assert np.allclose(psi_u, [0.5, -0.5, 0.0], atol=1e-14)
    assert np.allclose(psi_v, [-0.5, -0.5, 0.0], atol=1e-14)


def test_derivative_directions_scale_with_density():
    data = WeierstrassData.build("1", "2", "1", "2")
    psi_u, psi_v = weierstrass_derivatives(data, 0.0, 0.0)
    assert np.allclose(psi_u, [2.0, 0.0, -2.0], atol=1e-14)
    assert np.allclose(psi_v, [-2.0, 0.0, -2.0], atol=1e-14)


@given(small, small)
@settings(max_examples=80)
def test_metric_factor_identity(u, v):
    # the quoted conformal factor equals twice the mixed product of the
    # two null directions, exactly, not merely to truncation error
    psi_u, psi_v = weierstrass_derivatives(ENNEPER, u, v)
    pairing = 2.0 * (-psi_u[0] * psi_v[0] + psi_u[1] * psi_v[1] + psi_u[2] * psi_v[2])
    factor = minimal_metric_factor(ENNEPER, u, v)
    assert abs(pairing - factor) < 1e-10 * (1.0 + abs(factor))


def test_metric_factor_closed_form():
    val = minimal_metric_factor(ENNEPER, 0.4, 0.7)
    assert np.isclose(val, (1 + 0.4 * 0.7) ** 2, atol=1e-13)


def test_surface_matches_hand_antiderivatives():
    dom = (-0.6, 0.6, -0.6, 0.6)
    surf = integrate_minimal(ENNEPER, dom, 41, 41)
    us = surf.us[:, None]
    vs = surf.vs[None, :]

    def a_leg(u):
        return np.stack([u / 2 + u ** 3 / 6, -u / 2 + u ** 3 / 6, -u ** 2 / 2], axis=-1)

    def b_leg(v):
        return np.stack([-v / 2 - v ** 3 / 6, -v / 2 + v ** 3 / 6, -v ** 2 / 2], axis=-1)

    want = a_leg(us) + b_leg(vs) - a_leg(np.array([[dom[0]]])) - b_leg(np.array([[dom[2]]]))
    assert np.max(np.abs(surf.points - want)) < 1e-12


def test_integrated_surface_is_minimal_and_null():
    surf = integrate_minimal(ENNEPER, (-0.6, 0.6, -0.6, 0.6), 81, 81)
    fd = fundamental_data(surf)
    assert np.nanmax(np.abs(fd.H)) < 5e-5
    assert np.nanmax(fd.conf_u) < 1e-3
    assert np.nanmax(fd.conf_v) < 1e-3


def test_projected_gauss_recovers_data():
    us = np.linspace(-0.5, 0.5, 11)
    vs = np.linspace(-0.5, 0.5, 11)
    g1, g2 = projected_gauss_minimal(ENNEPER, us[:, None], vs[None, :])
    assert np.max(np.abs(g1 - us[:, None])) < 1e-12
    assert np.max(np.abs(g2 - vs[None, :])) < 1e-12


def test_measured_normal_matches_exact_normal():
    surf = integrate_minimal(ENNEPER, (-0.5, 0.5, -0.5, 0.5), 101, 101)
    fd = fundamental_data(surf)
    exact = minimal_normal(ENNEPER, surf.us[:, None], surf.vs[None, :])
    core = ~np.isnan(fd.normal[..., 0])
    # agreement is limited by the second-order differencing of the grid
    assert np.max(np.abs(fd.normal - exact)[core]) < 2e-4


def test_exact_normal_has_the_positive_frame_orientation():
    # minimal_normal fixes no sign: det[psi_x, psi_y, N] = 2 sqrt(<n, n>)
    us, vs = np.meshgrid(np.linspace(-0.5, 0.5, 41), np.linspace(-0.5, 0.5, 41),
                         indexing="ij")
    psi_u, psi_v = weierstrass_derivatives(ENNEPER, us, vs)
    n = minimal_normal(ENNEPER, us, vs)
    det = np.linalg.det(np.stack([psi_u - psi_v, psi_u + psi_v, n], axis=-2))
    assert np.all(det > 0.0)


def test_projected_gauss_pole_raises():
    # a huge q r drives the normal onto the chart pole
    data = WeierstrassData.build("200000", "1", "200000", "1")
    with pytest.raises(ZeroDivisionError):
        projected_gauss_minimal(data, 0.0, 0.0)


def test_degenerate_points_are_masked():
    surf = integrate_minimal(ENNEPER, (-1.5, -0.5, 0.5, 1.5), 11, 11)
    # u = -1, v = 1 sits on the grid and annihilates (1 + uv)^2
    assert surf.mask[5, 5]
    assert not surf.mask[0, 0]
    assert surf.mask.sum() < surf.mask.size


def test_quadrature_value():
    val = adaptive_quadrature(np.sin, 0.0, 1.0)
    assert abs(val - (1.0 - np.cos(1.0))) < 1e-13


@given(st.floats(min_value=-2.0, max_value=0.0, allow_nan=False),
       st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
@settings(max_examples=40)
def test_quadrature_is_exact_on_polynomials(a, b):
    val = adaptive_quadrature(lambda t: t ** 6, a, b)
    want = (b ** 7 - a ** 7) / 7.0
    assert abs(val - want) < 1e-11 * (1.0 + abs(want))


def test_quadrature_failure_names_the_interval(monkeypatch):
    def pole(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / t

    monkeypatch.setattr(weierstrass, "MAX_DEPTH", 12)
    with pytest.raises(QuadratureError, match=r"\["):
        adaptive_quadrature(pole, -1.0, 1.0)


def test_build_coerces_strings_and_numbers():
    data = WeierstrassData.build("u^2", 2.0, "0", "1")
    assert np.isclose(data.q(3.0), 9.0)
    assert np.isclose(data.f(123.0), 2.0)


# --- the batched Gauss-Kronrod rule -------------------------------------

def _counted(fun, calls):
    """fun, appending the size of each argument it is called with to calls."""
    def wrapped(t):
        calls.append(np.size(t))
        return fun(t)
    return wrapped


def _monomial_integral(k):
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


@pytest.mark.parametrize("k", range(23))
def test_kronrod_rule_is_exact_through_degree_22(k):
    assert abs(K15_WEIGHTS @ K15_NODES ** k - _monomial_integral(k)) < 1e-15


def test_embedded_gauss_rule_is_gauss_legendre_7():
    nodes, weights = leggauss(7)
    gauss = G7_WEIGHTS != 0.0
    assert gauss.sum() == 7
    assert np.max(np.abs(K15_NODES[gauss] - nodes)) < 1e-15
    assert np.max(np.abs(G7_WEIGHTS[gauss] - weights)) < 1e-15


@pytest.mark.parametrize("k", range(14))
def test_embedded_gauss_rule_is_exact_through_degree_13(k):
    assert abs(G7_WEIGHTS @ K15_NODES ** k - _monomial_integral(k)) < 1e-15


def test_steep_cell_converges_relatively_in_one_panel():
    # |I| ~ 1e11: an absolute 1e-12 cannot be met here, the relative
    # acceptance test takes the first panel
    calls = []
    val = adaptive_quadrature(_counted(lambda t: np.cosh(30.0 * t), calls), 1.0, 1.02)
    want = (np.sinh(30.6) - np.sinh(30.0)) / 30.0
    assert np.ndim(val) == 0
    assert abs(val - want) < 1e-13 * want
    assert calls == [15]


def test_cells_are_integrated_together():
    edges = np.linspace(-1.0, 2.0, 31)
    calls = []
    vals = adaptive_quadrature(_counted(np.sin, calls), edges[:-1], edges[1:])
    assert vals.shape == (30,)
    assert np.max(np.abs(vals - (np.cos(edges[:-1]) - np.cos(edges[1:])))) < 1e-15
    # one integrand call per refinement level over all cells
    assert calls == [30 * 15]


def test_vector_integrands_keep_their_components():
    vals = adaptive_quadrature(lambda t: np.stack([t, t * t], axis=-1),
                               np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    assert vals.shape == (2, 2)
    assert np.allclose(vals, [[0.5, 1.0 / 3.0], [4.0, 26.0 / 3.0]], rtol=1e-15)


def test_singular_cell_is_named():
    edges = np.linspace(0.0, 1.0, 11)
    pole = 0.537

    def fun(t):
        return 1.0 / (t - pole)

    with pytest.raises(QuadratureError) as info:
        adaptive_quadrature(fun, edges[:-1], edges[1:])
    err = info.value
    assert err.cell == 5
    assert err.lo <= pole <= err.hi
    assert f"cell {err.cell}" in str(err) and repr(err.lo) in str(err)


def test_failure_names_the_largest_error_panel():
    # two poles; the strong one is left of the weak one, so a depth-first
    # search working from the right would reach the weak one first
    edges = np.linspace(0.0, 1.0, 11)

    def fun(t):
        return 1.0 / (t - 0.23) + 1e-6 / (t - 0.71)

    with pytest.raises(QuadratureError) as info:
        adaptive_quadrature(fun, edges[:-1], edges[1:])
    assert info.value.cell == 2
    assert info.value.lo <= 0.23 <= info.value.hi
    assert info.value.depth == weierstrass.MAX_DEPTH


def test_evaluations_are_bounded():
    # noise fails every panel, so the panels double at each level until
    # the evaluation cap stops the refinement
    rng = np.random.default_rng(3)
    calls = []
    with pytest.raises(QuadratureError) as info:
        adaptive_quadrature(_counted(lambda t: rng.standard_normal(t.shape), calls),
                            np.zeros(4), np.ones(4))
    assert sum(calls) == info.value.evaluations
    assert 4 * 15 + MAX_EVALUATIONS // 2 < sum(calls) <= 4 * 15 + MAX_EVALUATIONS
    assert info.value.depth < 40


# --- integrate_minimal on the batched rule ------------------------------

def _enneper_legs(us, vs, u0, v0):
    def a_leg(u):
        return np.stack([u / 2 + u ** 3 / 6, -u / 2 + u ** 3 / 6, -u ** 2 / 2], axis=-1)

    def b_leg(v):
        return np.stack([-v / 2 - v ** 3 / 6, -v / 2 + v ** 3 / 6, -v ** 2 / 2], axis=-1)

    return ((a_leg(us) - a_leg(u0))[:, None, :]
            + (b_leg(vs) - b_leg(v0))[None, :, :])


@pytest.mark.parametrize("dom, nu, nv", [((-0.2, 0.2, -0.2, 0.2), 21, 21),
                                         ((0.05, 1.05, 0.05, 1.05), 4001, 41)])
def test_enneper_legs_match_the_closed_form(dom, nu, nv):
    surf = integrate_minimal(ENNEPER, dom, nu, nv)
    want = _enneper_legs(surf.us, surf.vs, dom[0], dom[2])
    assert np.max(np.abs(surf.points - want)) < 1e-14


def test_batched_legs_equal_per_cell_quadrature():
    # a pole just past the u range: the cells nearest it refine deepest
    data = WeierstrassData.build("u", "1/(1.05-u)", "v", "1")
    us = np.linspace(0.0, 1.0, 7)
    surf = integrate_minimal(data, (0.0, 1.0, 0.0, 1.0), 7, 3)

    def leg(t):
        return weierstrass._du_direction(data.q(t)) * data.f(t)[..., None]

    cells, levels = [], []
    for lo, hi in zip(us[:-1], us[1:]):
        calls = []
        cells.append(adaptive_quadrature(_counted(leg, calls), lo, hi))
        levels.append(len(calls))
    assert len(set(levels)) > 1
    want = np.concatenate([np.zeros((1, 3)), np.cumsum(cells, axis=0)])
    assert np.allclose(surf.points[:, 0, :], want, rtol=4e-16, atol=0.0)


def test_field_evaluations_follow_levels_not_grid_size(monkeypatch):
    evaluate = ScalarField1D.__call__
    fields, levels = [], []
    quadrature = weierstrass.adaptive_quadrature

    def counted_field(field, t):
        fields.append(1)
        return evaluate(field, t)

    def counted_quadrature(fun, *args, **kwargs):
        return quadrature(_counted(fun, levels), *args, **kwargs)

    monkeypatch.setattr(ScalarField1D, "__call__", counted_field)
    monkeypatch.setattr(weierstrass, "adaptive_quadrature", counted_quadrature)
    seen = []
    for data in (ENNEPER, WeierstrassData.build("u", "1/(1.05-u)", "v", "1")):
        for nu, nv in ((11, 11), (401, 41), (4001, 41)):
            del fields[:], levels[:]
            integrate_minimal(data, (0.0, 1.0, 0.0, 1.0), nu, nv)
            # two fields per leg and level, four for the metric factor
            assert len(fields) == 2 * len(levels) + 4
            seen.append(len(levels))
    assert seen[:3] == [2, 2, 2]
    assert max(seen[3:]) > 2


@pytest.mark.parametrize("call, message", [
    (lambda: integrate_minimal(ENNEPER, (-0.5, 0.5, -0.5, 0.5), 1, 5), "a 2x2 grid"),
    (lambda: integrate_minimal(ENNEPER, (-0.5, 0.5, -0.5, 0.5), 5, 1), "a 2x2 grid"),
    # f = g = 0 makes both tangents vanish
    (lambda: minimal_normal(WeierstrassData.build("0", "0", "0", "0"), 0.1, 0.2),
     "normal solve degenerate: metric factor vanishes"),
])
def test_degenerate_minimal_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
