"""Split conformal cmc data, its linear systems, and the integrated frames."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from adscmc import geometry
from adscmc.algebra import mat_of_vec
from adscmc.config import DEFAULT_TOL
from adscmc.fields import as_field1d
from adscmc.geometry import fundamental_data, row_blocks
from adscmc.lax import (CompatibilityError, GmcData, extract_weierstrass_data,
                        gmc_residual, integrate_lax, lax_matrices)
from adscmc.nullcurves import (KIND_F1, KIND_F2_MU, FrameCurve, IntegrationError,
                               assemble_mu, integrate_frame)

from conftest import each_row_block

LIOUVILLE = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")
FLAT_UMBILIC = GmcData.build("0", 1.0, "0", "0")
DIGEST_DOMAIN = (0.1, 0.9, 0.05, 0.8)
# one v step of the (5, 2) grid must stay inside the drift tolerance
TINY_DOMAIN = (0.1, 0.3, 0.1, 0.15)
# lets any data but a NaN residual past the compatibility gate
UNGATED = DEFAULT_TOL.with_(compat=math.inf)


def test_matrix_entries_at_reference_point():
    # omega = 2 ln(1 + uv) at (1,1): omega_u = omega_v = 1, e^{omega/2} = 2
    u1, u2 = lax_matrices(LIOUVILLE, 1.0, 1.0, True)
    v1, v2 = lax_matrices(LIOUVILLE, 1.0, 1.0, False)
    assert np.allclose(u1, [[0.25, 2.0], [-0.5, -0.25]], atol=1e-14)
    assert np.allclose(v1, [[-0.25, 0.5], [0.0, 0.25]], atol=1e-14)
    assert np.allclose(u2, [[-0.25, 0.5], [0.0, 0.25]], atol=1e-14)
    assert np.allclose(v2, [[0.25, 2.0], [-0.5, -0.25]], atol=1e-14)


def test_matrices_are_trace_free():
    for m in (*lax_matrices(LIOUVILLE, 0.3, -0.2, True),
              *lax_matrices(LIOUVILLE, 0.3, -0.2, False)):
        assert abs(np.trace(np.asarray(m))) < 1e-14


def test_compatible_data_has_zero_residual():
    us = np.linspace(0.0, 1.0, 21)[:, None]
    vs = np.linspace(0.0, 1.0, 21)[None, :]
    first = gmc_residual(LIOUVILLE, us, vs)
    assert np.max(np.abs(first)) < 1e-12


def test_incompatible_data_residual_value():
    bad = GmcData.build("0", 1.0, "1", "1")
    first = gmc_residual(bad, np.zeros((1, 1)), np.zeros((1, 1)))
    assert np.allclose(first, -2.0, atol=1e-14)
    with pytest.raises(CompatibilityError, match="2.000e\\+00"):
        integrate_lax(bad, (0.0, 1.0, 0.0, 1.0), 11, 11)


def test_nan_residual_fails_the_compatibility_gate():
    # e^800 overflows, so (H^2 - 1)/2 e^omega reads 0 * inf = nan everywhere
    huge = GmcData.build("800", 1.0, "0", "0")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CompatibilityError, match="residual nan"):
            integrate_lax(huge, (0.0, 1.0, 0.0, 1.0), 5, 5)


def test_nan_frames_fail_the_path_and_drift_gates():
    # ungated, H = 3 makes both off-diagonal coefficients about e^400, so
    # their products overflow and the sweep ends in nan frames
    huge = GmcData.build("800", 3.0, "0", "0")
    with np.errstate(all="ignore"):
        with pytest.warns(RuntimeWarning, match="path defect nan"):
            with pytest.raises(IntegrationError, match="drift nan"):
                integrate_lax(huge, (0.0, 1.0, 0.0, 1.0), 5, 5, tol=UNGATED)


def test_nan_initial_frame_is_rejected():
    with pytest.raises(ValueError, match="initial frame is not unimodular.*nan"):
        integrate_lax(LIOUVILLE, (0.1, 0.5, 0.1, 0.5), 5, 5,
                      init=(np.full((2, 2), np.nan), np.eye(2)))


@pytest.mark.parametrize("nu, nv", [(1, 5), (5, 1)])
def test_frame_grid_below_two_nodes_is_rejected(nu, nv):
    with pytest.raises(ValueError, match="need at least a 2x2 frame grid"):
        integrate_lax(LIOUVILLE, (0.1, 0.5, 0.1, 0.5), nu, nv)


def test_gate_can_be_disabled():
    bad = GmcData.build("0", 1.0, "1", "1")
    with pytest.warns(RuntimeWarning, match="path defect"):
        frames = integrate_lax(bad, (0.0, 0.3, 0.0, 0.3), 11, 11, tol=UNGATED)
    assert frames.phi1.shape == (11, 11, 2, 2)


def test_flat_umbilic_frames_are_polynomial():
    frames = integrate_lax(FLAT_UMBILIC, (0.0, 1.0, 0.0, 1.0), 21, 21)
    us = frames.us[:, None]
    vs = frames.vs[None, :]
    want1 = np.zeros((21, 21, 2, 2))
    want1[..., 0, 0] = 1.0
    want1[..., 1, 1] = 1.0
    want1[..., 0, 1] = us + 0 * vs
    assert np.max(np.abs(frames.phi1 - want1)) < 1e-13
    surface = frames.assemble()
    phi = mat_of_vec(surface.points)
    assert np.max(np.abs(phi[..., 0, 0] - (1 + us * vs))) < 1e-13
    assert np.max(np.abs(phi[..., 0, 1] - us + 0 * vs)) < 1e-13
    assert np.max(np.abs(phi[..., 1, 0] - vs + 0 * us)) < 1e-13
    assert np.max(np.abs(phi[..., 1, 1] - 1.0)) < 1e-13


def test_liouville_assembles_to_unit_mean_curvature():
    frames = integrate_lax(LIOUVILLE, (0.0, 1.2, 0.0, 1.2), 81, 81)
    assert frames.path_defect < 1e-6
    surface = frames.assemble()
    fd = fundamental_data(surface)
    assert np.nanmax(np.abs(fd.H - 1.0)) < 5e-5


def test_constant_curvature_two_family():
    # omega = -2 ln(1 + 3uv/4) balances the compatibility equation at H = 2
    data = GmcData.build("-2*ln(1+0.75*u*v)", 2.0, "0", "0")
    us = np.linspace(0.0, 0.8, 9)[:, None]
    vs = np.linspace(0.0, 0.8, 9)[None, :]
    first = gmc_residual(data, us, vs)
    assert np.max(np.abs(first)) < 1e-12
    frames = integrate_lax(data, (0.0, 0.8, 0.0, 0.8), 61, 61)
    fd = fundamental_data(frames.assemble())
    assert np.nanmax(np.abs(fd.H - 2.0)) < 5e-5
    core = ~np.isnan(fd.Q)
    assert np.nanmax(np.abs(fd.Q[core])) < 1e-4
    assert np.nanmax(np.abs(fd.R[core])) < 1e-4


def test_path_defect_grows_with_incompatibility():
    slightly_off = GmcData.build("2*ln(1+u*v) + 0.001*u*v", 1.0, "1", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        frames = integrate_lax(slightly_off, (0.0, 1.0, 0.0, 1.0),
                               41, 41, tol=UNGATED)
    assert frames.path_defect > 1e-5


def test_extracted_data_round_trips():
    f1 = integrate_frame(KIND_F1, "u", "1", (0.1, 0.9), 801)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (0.1, 0.9), 801)
    data = extract_weierstrass_data(f1, f2)
    ts = np.linspace(0.15, 0.85, 101)
    assert np.max(np.abs(data.q(ts) - ts)) < 1e-7
    assert np.max(np.abs(data.f(ts) - 1.0)) < 1e-7
    assert np.max(np.abs(data.r(ts) - ts)) < 1e-7
    assert np.max(np.abs(data.g(ts) - 1.0)) < 1e-7


# sha256 of q, q', f, f', r, r', g, g' read back off the legs (sin u,
# 1 + u^2/4) and (v^2 + 0.3, e^(v/3)) at 401 nodes on [-0.5, 0.5], each
# evaluated at 977 points that are mostly off the nodes.  At 201 nodes
# the v leg misses LEG_NULLITY_BOUND (1.04e-8), so extraction raises.
EXTRACTION_DIGEST = "99b71d2dfab4139550f7aaaacf83efba52606da968cfa6d6cdd433ec60d2ba9e"


def test_extracted_data_keeps_its_bits():
    f1 = integrate_frame(KIND_F1, "sin(u)", "1+u^2/4", (-0.5, 0.5), 401)
    f2 = integrate_frame(KIND_F2_MU, "v^2+0.3", "exp(v/3)", (-0.5, 0.5), 401)
    data = extract_weierstrass_data(f1, f2)
    ts = np.linspace(-0.5, 0.5, 977)
    digest = hashlib.sha256()
    for leg in (data.q, data.f, data.r, data.g):
        digest.update(leg(ts).tobytes())
        digest.update(leg.derivative(ts).tobytes())
    assert digest.hexdigest() == EXTRACTION_DIGEST


def test_both_routes_build_congruent_surfaces():
    # the split data (omega, H, Q, R) = (2 ln(1+uv), 1, 1, 1) and the
    # null-curve data (q, f, r, g) = (u, 1, v, 1) describe the same
    # surface in the same conformal parametrization, up to the
    # orientation sign of the Hopf pair
    dom = (0.1, 0.9, 0.1, 0.9)
    frames = integrate_lax(LIOUVILLE, dom, 101, 101)
    fd_lax = fundamental_data(frames.assemble())
    f1 = integrate_frame(KIND_F1, "u", "1", (0.1, 0.9), 101)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (0.1, 0.9), 101)
    fd_bry = fundamental_data(assemble_mu(f1, f2))

    us = np.linspace(0.1, 0.9, 101)[:, None]
    vs = np.linspace(0.1, 0.9, 101)[None, :]
    core = ~np.isnan(fd_lax.omega) & ~np.isnan(fd_bry.omega)
    want = 2.0 * np.log(1.0 + us * vs)
    assert np.max(np.abs(fd_lax.omega - want)[core]) < 1e-4
    assert np.max(np.abs(fd_bry.omega - want)[core]) < 1e-4
    assert np.max(np.abs(fd_lax.H - fd_bry.H)[core]) < 1e-6
    assert np.max(np.abs(np.abs(fd_lax.Q) - np.abs(fd_bry.Q))[core]) < 1e-4
    assert np.max(np.abs(np.abs(fd_lax.R) - np.abs(fd_bry.R))[core]) < 1e-4
    assert np.max(np.abs(fd_lax.K - fd_bry.K)[core]) < 1e-3


def _conjugator(x, y):
    """The A with y A = A x at every point, scaled to |det A| = 1.

    Row-major, vec(y A - A x) = (y (x) I - I (x) x^T) vec(A), so A is the
    right singular vector of the stacked systems with the least
    singular value.
    """
    eye = np.eye(2)
    m = np.einsum("nik,jl->nijkl", y, eye) - np.einsum("ik,nlj->nijkl", eye, x)
    a = np.linalg.svd(m.reshape(-1, 4), full_matrices=False)[2][-1].reshape(2, 2)
    return a / np.sqrt(abs(np.linalg.det(a)))


# (q, f, r, g) and the Lax data (omega, Q, R) of the same surface, H = 1:
# omega = ln(f g (1 + q r)^2), Q = -f q' and R = -g r'
ONE_SURFACE = {
    "uv": (("u", "1", "v", "1"), ("2*ln(1+u*v)", "-1", "-1")),
    "sin": (("sin(u)", "1+u^2/4", "v^2", "exp(v/3)"),
            ("ln((1+u^2/4)*exp(v/3)*(1+v^2*sin(u))^2)", "-(1+u^2/4)*cos(u)",
             "-2*v*exp(v/3)")),
}


@pytest.mark.parametrize("name", sorted(ONE_SURFACE))
def test_legs_and_lax_frames_build_one_surface_at_order_4(name):
    # both routes start from identity frames, so their surfaces differ by
    # a constant motion y = A x A^-1, fitted here; the remaining gap is
    # the two integrators' error, which falls by 16 per halving of h
    (q, f, r, g), (omega, hopf_q, hopf_r) = ONE_SURFACE[name]
    data = GmcData.build(omega, 1.0, hopf_q, hopf_r)
    gaps = []
    for n in (51, 101, 201):
        f1 = integrate_frame(KIND_F1, q, f, (-0.5, 0.5), n)
        f2 = integrate_frame(KIND_F2_MU, r, g, (-0.5, 0.5), n)
        x = mat_of_vec(assemble_mu(f1, f2).points).reshape(-1, 2, 2)
        frames = integrate_lax(data, (-0.5, 0.5, -0.5, 0.5), n, n)
        y = mat_of_vec(frames.assemble().points).reshape(-1, 2, 2)
        a = _conjugator(x, y)
        assert abs(np.linalg.det(a) + 1.0) < 1e-12
        gaps.append(np.max(np.abs(y - a @ x @ np.linalg.inv(a))))
    # measured 7.38e-9, 4.61e-10, 2.88e-11 on the uv data: ratios 16.0
    assert gaps[0] / gaps[1] >= 14.0
    assert gaps[1] / gaps[2] >= 14.0


def test_extraction_needs_null_frames():
    ts = np.linspace(0.0, 1.0, 101)
    boosts = np.zeros((101, 2, 2))
    boosts[:, 0, 0] = np.cosh(ts)
    boosts[:, 0, 1] = np.sinh(ts)
    boosts[:, 1, 0] = np.sinh(ts)
    boosts[:, 1, 1] = np.cosh(ts)
    fake = FrameCurve(kind=KIND_F1, s_field=None, w_field=None,
                      t0=0.0, t1=1.0, n=101, samples=boosts, det_drift=0.0)
    good = integrate_frame(KIND_F2_MU, "v", "1", (0.0, 1.0), 101)
    with pytest.raises(ValueError, match="null"):
        extract_weierstrass_data(fake, good)


def test_extraction_pole_when_data_vanishes():
    frames = integrate_lax(FLAT_UMBILIC, (0.0, 1.0, 0.0, 1.0), 51, 51)
    f1 = FrameCurve(kind=KIND_F1, s_field=None, w_field=None,
                    t0=0.0, t1=1.0, n=51, samples=frames.phi1[:, 0], det_drift=0.0)
    f2 = FrameCurve(kind=KIND_F2_MU, s_field=None, w_field=None,
                    t0=0.0, t1=1.0, n=51,
                    samples=np.swapaxes(frames.phi2, 0, 1)[:, 0], det_drift=0.0)
    with pytest.raises(ZeroDivisionError):
        extract_weierstrass_data(f1, f2)


def test_data_fields_broadcast():
    data = GmcData.build("u+v", 1.0, "sin(u)", "cos(v)")
    assert np.isclose(data.omega(0.25, 0.5), 0.75)
    assert np.isclose(data.Q(np.pi / 2), 1.0)
    assert np.isclose(data.R(0.0), 1.0)
    assert data.H == 1.0
    same = as_field1d(data.Q, "u")
    assert same is data.Q


def _far_corner(frames):
    return np.stack([frames.phi1[-1, -1], frames.phi2[-1, -1]])


def test_grid_halving_shows_fourth_order():
    dom = (0.0, 1.2, 0.0, 1.2)
    ref = _far_corner(integrate_lax(LIOUVILLE, dom, 321, 321))
    err = [np.max(np.abs(_far_corner(integrate_lax(LIOUVILLE, dom, n, n)) - ref))
           for n in (21, 41, 81)]
    assert 14.0 <= err[0] / err[1] <= 18.0
    assert 14.0 <= err[1] / err[2] <= 18.0


def _count_omega_calls(monkeypatch, data):
    calls = []
    evaluate = data.omega.with_derivatives

    def counted(u, v):
        calls.append(np.broadcast_shapes(np.shape(u), np.shape(v)))
        return evaluate(u, v)

    monkeypatch.setattr(data.omega, "with_derivatives", counted)
    return calls


def _block_calls(nu, nv):
    """Column coefficient calls of one sweep: one per block of v nodes."""
    k = max(1, geometry.BLOCK_POINTS // (2 * nu))
    return math.ceil((nv - 1) / k)


def test_omega_evaluations_are_batched(monkeypatch):
    # one call for the gate, one per edge march, one per block of column nodes
    data = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")
    calls = _count_omega_calls(monkeypatch, data)
    nv = 17
    integrate_lax(data, (0.0, 1.0, 0.0, 1.0), 13, nv)
    assert 0 < len(calls) <= 3 + _block_calls(13, nv)


def test_sweep_evaluates_omega_once_per_block(monkeypatch):
    data = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")
    calls = _count_omega_calls(monkeypatch, data)
    integrate_lax(data, DIGEST_DOMAIN, 201, 201)
    # one call per row block of the gate (6, of 40 rows but the last), one
    # per edge march and ceil(200 / 20) for the columns: 20 nodes of 402
    # points fit a block
    gate = len(row_blocks(201, 201))
    assert len(calls) <= gate + 2 + _block_calls(201, 201) == 18
    # no call covers more than a block of gate rows or of column nodes
    assert max(math.prod(shape) for shape in calls[:gate]) <= geometry.BLOCK_POINTS
    assert max(math.prod(shape) for shape in calls[gate:]) <= geometry.BLOCK_POINTS


# tracemalloc peak of integrate_lax at 401 x 401 over the bytes of both
# frames, as measured by this test with the sweep, the drift gate and the
# compatibility residual all in blocks of geometry.row_blocks (1.160, the
# sweep's own peak; full-grid omega jets in the gate read 1.251) plus a 2%
# margin: a full-size determinant temporary (0.25 of the frame bytes) shows.
LAX_PEAK_RATIO_BOUND = 1.183


def test_sweep_peak_memory_stays_flat():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frames = integrate_lax(LIOUVILLE, DIGEST_DOMAIN, 401, 401)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (2 * frames.phi1.nbytes) <= LAX_PEAK_RATIO_BOUND


# sha256 of phi1.tobytes() + phi2.tobytes() and repr(path_defect) for the
# Liouville frames, keyed by (nu, nv), as computed by the Magnus march
# with one coefficient call per column node.  A block holds 8192 // (2 nu)
# column nodes: 20 at nu = 201, so the 200 nodes of 201 x 201 run as 10
# full blocks and the 50 of (201, 51) as 20 + 20 + 10, ending in a part
# block; every bit must survive the blocks and the reused column.
FRAME_DIGESTS = {
    (201, 201): ("923dc28f238f5f3a1b6696a5e85ed5e5aeee49f704a88398af8ed7e4f06cddfd",
                 "2.2906676555578542e-12"),
    (37, 18): ("3b41e7e379149ed2a1e84fa198792919c29b8e87e357d72192f7b164f596cd06",
               "3.82617548200237e-08"),
    (5, 2): ("ec31d11fe45f6f454028584cf26dd1e2a7c67ec84cfaa4568c364ec1eab9e3c1",
             "7.215081865297179e-10"),
    (201, 51): ("ecd2f60e71e37f77bbd1e896206f6240cd29d29dcc82db863a7f3db8e313fdd0",
                "5.117870571780259e-10"),
}


def _frame_digest(nu, nv):
    dom = TINY_DOMAIN if nv == 2 else DIGEST_DOMAIN
    frames = integrate_lax(LIOUVILLE, dom, nu, nv)
    digest = hashlib.sha256(frames.phi1.tobytes() + frames.phi2.tobytes()).hexdigest()
    return digest, repr(frames.path_defect)


@pytest.mark.parametrize("key", sorted(FRAME_DIGESTS))
def test_frames_keep_their_bits(key):
    assert _frame_digest(*key) == FRAME_DIGESTS[key]


@pytest.mark.parametrize("points", [1, 555, 10 ** 6])
def test_block_size_moves_no_bit(monkeypatch, points):
    # one node per block, blocks of 7 nodes of 2 * 37 points (17 = 2 * 7 + 3),
    # the whole sweep at once; the gate and the drift gate take these blocks too
    monkeypatch.setattr(geometry, "BLOCK_POINTS", points)
    key = (37, 18)
    assert _frame_digest(*key) == FRAME_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(FRAME_DIGESTS))
def test_sweep_blocks_leave_no_seam(monkeypatch, key):
    # a row is one v node's two stage times at every u, so a block holds
    # 1, 2, 3 or 7 column nodes or the whole sweep; the 17 nodes of
    # (37, 18) leave a part block for 2, 3 and 7, the 50 of (201, 51) and
    # the 200 of (201, 201) for 3 and 7
    nu, nv = key
    for rows in each_row_block(monkeypatch, nv - 1, 2 * nu):
        assert _frame_digest(*key) == FRAME_DIGESTS[key], rows

