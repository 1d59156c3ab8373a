"""The one frame integrator: fourth-order Magnus steps with the closed-form
sl(2,R) exponential, checked against Taylor sums and exact frames."""

import math

import numpy as np
import pytest

from adscmc import nullcurves
from adscmc.algebra import det2
from adscmc.lax import GmcData, gmc_residual, integrate_lax, lax_matrices
from adscmc.nullcurves import KIND_F1, KIND_F2_MU, integrate_frame, sl2_expm1

EPS = np.finfo(float).eps


def _taylor_expm1(w, terms=40):
    """exp(w) - I of 2x2 matrices (..., 2, 2) as a plain 40-term Taylor sum."""
    term = np.broadcast_to(np.eye(2), w.shape)
    out = np.zeros(w.shape)
    for k in range(1, terms):
        term = term @ w / k
        out = out + term
    return out


def _matrix(x, y, z):
    return np.array([[x, y], [z, -x]], dtype=float)


# (x, y, z) of W = [[x, y], [z, -x]], named by delta = x^2 + y z = -det W;
# the series serve |delta| <= 0.1
EXPONENT_CASES = {
    "positive": (0.7, 1.3, 0.9),
    "positive-large": (2.0, 1.5, 1.0),
    "negative": (0.3, 1.5, -1.2),
    "negative-large": (0.5, 2.0, -3.0),
    "nilpotent": (0.5, 0.25, -1.0),
    "nilpotent-upper": (0.0, 1.0, 0.0),
    "tiny": (1e-9, 2e-9, 3e-9),
    "series-side-positive": (0.3, 0.1, 0.09999),
    "closed-side-positive": (0.3, 0.1, 0.10001),
    "series-side-negative": (0.1, 1.0, -0.10999),
    "closed-side-negative": (0.1, 1.0, -0.11001),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_CASES))
def test_exponential_matches_the_taylor_sum(name):
    x, y, z = EXPONENT_CASES[name]
    got = sl2_expm1(x, y, z)
    want = _taylor_expm1(_matrix(x, y, z))
    size = max(1.0, np.max(np.abs(np.eye(2) + want)))
    assert got.shape == (2, 2)
    assert np.max(np.abs(got - want)) <= 8 * EPS * size
    assert abs(det2(np.eye(2) + got) - 1.0) <= 8 * EPS * size ** 2


def test_switch_sides_are_the_ones_named():
    deltas = {name: x * x + y * z for name, (x, y, z) in EXPONENT_CASES.items()}
    assert deltas["nilpotent"] == deltas["nilpotent-upper"] == 0.0
    for sign in ("positive", "negative"):
        assert abs(deltas[f"series-side-{sign}"]) <= nullcurves._SERIES_MAX
        assert abs(deltas[f"closed-side-{sign}"]) > nullcurves._SERIES_MAX


def test_batched_exponential_writes_each_branch_in_place():
    # one call mixes both closed forms and the series; every column must
    # equal its own scalar call
    x, y, z = np.array(list(EXPONENT_CASES.values())).T
    batch = sl2_expm1(x, y, z)
    assert batch.shape == (2, 2, len(x))
    for i in range(len(x)):
        assert np.array_equal(batch[..., i], sl2_expm1(x[i], y[i], z[i]))


# homogeneous data: constant omega, Q, R with (H^2 - 1) e^{2 omega} = 4 Q R,
# whose Lax matrices are constant and commute
HOMOGENEOUS = {
    "H=sqrt2": GmcData.build("ln(2)", math.sqrt(2.0), "1", "1"),
    "H=0": GmcData.build("ln(2)", 0.0, "1", "-1"),
}


@pytest.mark.parametrize("name", sorted(HOMOGENEOUS))
@pytest.mark.parametrize("n", [51, 201])
def test_homogeneous_frames_are_exact_exponentials(name, n):
    # Magnus is exact on constant commuting coefficients, so the frames
    # equal exp((u - u0) U + (v - v0) V) to rounding (RK4 frames missed it
    # by 2.7e-12 at 201^2)
    data = HOMOGENEOUS[name]
    dom = (0.1, 0.9, -0.2, 0.6)
    assert np.max(np.abs(gmc_residual(data, np.zeros(1), np.zeros(1)))) < 1e-15
    frames = integrate_lax(data, dom, n, n)
    du = (frames.us - dom[0])[:, None, None, None]
    dv = (frames.vs - dom[2])[None, :, None, None]
    big_u = lax_matrices(data, 0.0, 0.0, True)
    big_v = lax_matrices(data, 0.0, 0.0, False)
    for phi, u_coef, v_coef in zip((frames.phi1, frames.phi2), big_u, big_v):
        want = np.eye(2) + _taylor_expm1(du * u_coef + dv * v_coef)
        assert np.max(np.abs(phi - want)) < 1e-13
    assert frames.path_defect < 1e-14


def _count_steps(monkeypatch):
    shapes = []
    step = nullcurves._step

    def counted(y, d):
        shapes.append(y.shape)
        return step(y, d)

    monkeypatch.setattr(nullcurves, "_step", counted)
    return shapes


def test_legs_march_through_the_one_step(monkeypatch):
    shapes = _count_steps(monkeypatch)
    integrate_frame(KIND_F1, "u", "1", (0.0, 1.0), 11)
    integrate_frame(KIND_F2_MU, "v", "1", (0.0, 1.0), 7)
    assert shapes == [(2, 2)] * (10 + 6)


def test_lax_edges_columns_and_corner_march_through_the_one_step(monkeypatch):
    # bottom edge and corner path step both frames, (2, 2, 2, 1); the
    # columns step all of them at once, (2, 2, 2, nu)
    shapes = _count_steps(monkeypatch)
    nu, nv = 7, 5
    integrate_lax(GmcData.build("2*ln(1+u*v)", 1.0, "1", "1"),
                  (0.1, 0.5, 0.1, 0.4), nu, nv)
    edge = nu - 1
    assert shapes == ([(2, 2, 2, 1)] * edge + [(2, 2, 2, nu)] * (nv - 1)
                      + [(2, 2, 2, 1)] * edge)


def test_lax_frames_keep_unit_determinant_to_rounding():
    frames = integrate_lax(GmcData.build("2*ln(1+u*v)", 1.0, "1", "1"),
                           (0.0134, 0.9134, 0.0847, 0.9847), 201, 201)
    for phi in (frames.phi1, frames.phi2):
        assert np.max(np.abs(det2(phi) - 1.0)) <= 1e-14


@pytest.mark.parametrize("kind, s, w, t_range", [
    (KIND_F1, "u", "1", (0.0134, 0.9134)),
    (KIND_F2_MU, "sin(3*v)", "cosh(v)", (-0.5, 1.0)),
])
def test_leg_keeps_unit_determinant_to_rounding(kind, s, w, t_range):
    curve = integrate_frame(kind, s, w, t_range, 301)
    assert np.max(np.abs(det2(curve.samples) - 1.0)) <= 1e-14
    assert curve.det_drift <= 1e-14
