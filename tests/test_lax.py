"""Split conformal cmc data, its linear systems, and the integrated frames."""

import warnings

import numpy as np
import pytest

from adscmc.config import DEFAULT_TOL
from adscmc.fields import as_field1d
from adscmc.geometry import fundamental_data
from adscmc.lax import (CompatibilityError, GmcData, extract_weierstrass_data,
                        gmc_residual, integrate_lax, lax_matrices)
from adscmc.nullcurves import (KIND_F1, KIND_F2_MU, FrameCurve, assemble_mu,
                               integrate_frame)

LIOUVILLE = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")
FLAT_UMBILIC = GmcData.build("0", 1.0, "0", "0")


def test_matrix_entries_at_reference_point():
    # omega = 2 ln(1 + uv) at (1,1): omega_u = omega_v = 1, e^{omega/2} = 2
    u1, v1, u2, v2 = lax_matrices(LIOUVILLE, "mu", 1.0, 1.0)
    assert np.allclose(u1, [[0.25, 2.0], [-0.5, -0.25]], atol=1e-14)
    assert np.allclose(v1, [[-0.25, 0.5], [0.0, 0.25]], atol=1e-14)
    assert np.allclose(u2, [[-0.25, 0.5], [0.0, 0.25]], atol=1e-14)
    assert np.allclose(v2, [[0.25, 2.0], [-0.5, -0.25]], atol=1e-14)
    nu1, nv1, nu2, nv2 = lax_matrices(LIOUVILLE, "nu", 1.0, 1.0)
    assert np.allclose(nu1, u1, atol=1e-14)
    assert np.allclose(nv1, v1, atol=1e-14)
    assert np.allclose(nu2, [[0.25, 0.0], [-0.5, -0.25]], atol=1e-14)
    assert np.allclose(nv2, [[-0.25, 0.5], [-2.0, 0.25]], atol=1e-14)


def test_matrices_are_trace_free():
    for action in ("mu", "nu"):
        for m in lax_matrices(LIOUVILLE, action, 0.3, -0.2):
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
        integrate_lax(bad, "mu", (0.0, 1.0, 0.0, 1.0), 11, 11)


def test_gate_can_be_disabled():
    bad = GmcData.build("0", 1.0, "1", "1")
    with pytest.warns(RuntimeWarning, match="path defect"):
        frames = integrate_lax(bad, "mu", (0.0, 0.3, 0.0, 0.3), 11, 11, gate=False)
    assert frames.phi1.shape == (11, 11, 2, 2)


def test_flat_umbilic_frames_are_polynomial():
    frames = integrate_lax(FLAT_UMBILIC, "mu", (0.0, 1.0, 0.0, 1.0), 21, 21)
    us = frames.us[:, None]
    vs = frames.vs[None, :]
    want1 = np.zeros((21, 21, 2, 2))
    want1[..., 0, 0] = 1.0
    want1[..., 1, 1] = 1.0
    want1[..., 0, 1] = us + 0 * vs
    assert np.max(np.abs(frames.phi1 - want1)) < 1e-13
    surface = frames.assemble()
    phi = surface.points
    assert np.max(np.abs(phi[..., 0, 0] - (1 + us * vs))) < 1e-13
    assert np.max(np.abs(phi[..., 0, 1] - us + 0 * vs)) < 1e-13
    assert np.max(np.abs(phi[..., 1, 0] - vs + 0 * us)) < 1e-13
    assert np.max(np.abs(phi[..., 1, 1] - 1.0)) < 1e-13


def test_liouville_assembles_to_unit_mean_curvature():
    frames = integrate_lax(LIOUVILLE, "mu", (0.0, 1.2, 0.0, 1.2), 81, 81)
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
    frames = integrate_lax(data, "mu", (0.0, 0.8, 0.0, 0.8), 61, 61)
    fd = fundamental_data(frames.assemble())
    assert np.nanmax(np.abs(fd.H - 2.0)) < 5e-5
    core = ~np.isnan(fd.Q)
    assert np.nanmax(np.abs(fd.Q[core])) < 1e-4
    assert np.nanmax(np.abs(fd.R[core])) < 1e-4


def test_path_defect_grows_with_incompatibility():
    slightly_off = GmcData.build("2*ln(1+u*v) + 0.001*u*v", 1.0, "1", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        frames = integrate_lax(slightly_off, "mu", (0.0, 1.0, 0.0, 1.0),
                               41, 41, gate=False)
    assert frames.path_defect > 1e-5


def test_nu_frames_build_the_same_surface():
    mu_frames = integrate_lax(LIOUVILLE, "mu", (0.0, 1.0, 0.0, 1.0), 41, 41)
    nu_frames = integrate_lax(LIOUVILLE, "nu", (0.0, 1.0, 0.0, 1.0), 41, 41)
    s1 = mu_frames.assemble()
    s2 = nu_frames.assemble()
    fd1 = fundamental_data(s1)
    fd2 = fundamental_data(s2)
    core = ~np.isnan(fd1.H) & ~np.isnan(fd2.H)
    assert np.max(np.abs(fd1.H - fd2.H)[core]) < 1e-6
    assert np.max(np.abs(fd1.omega - fd2.omega)[core]) < 1e-6
    assert np.max(np.abs(np.abs(fd1.Q) - np.abs(fd2.Q))[core]) < 1e-4


def test_extracted_data_round_trips():
    f1 = integrate_frame(KIND_F1, "u", "1", (0.1, 0.9), 801)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (0.1, 0.9), 801)
    data = extract_weierstrass_data(f1, f2)
    ts = np.linspace(0.15, 0.85, 101)
    assert np.max(np.abs(data.q(ts) - ts)) < 1e-7
    assert np.max(np.abs(data.f(ts) - 1.0)) < 1e-7
    assert np.max(np.abs(data.r(ts) - ts)) < 1e-7
    assert np.max(np.abs(data.g(ts) - 1.0)) < 1e-7


def test_both_routes_build_congruent_surfaces():
    # the split data (omega, H, Q, R) = (2 ln(1+uv), 1, 1, 1) and the
    # null-curve data (q, f, r, g) = (u, 1, v, 1) describe the same
    # surface in the same conformal parametrization, up to the
    # orientation sign of the Hopf pair
    dom = (0.1, 0.9, 0.1, 0.9)
    frames = integrate_lax(LIOUVILLE, "mu", dom, 101, 101)
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


def test_extraction_needs_null_frames():
    ts = np.linspace(0.0, 1.0, 101)
    boosts = np.zeros((101, 2, 2))
    boosts[:, 0, 0] = np.cosh(ts)
    boosts[:, 0, 1] = np.sinh(ts)
    boosts[:, 1, 0] = np.sinh(ts)
    boosts[:, 1, 1] = np.cosh(ts)
    fake = FrameCurve(kind=KIND_F1, s_field=None, w_field=None,
                      t0=0.0, t1=1.0, n=101, samples=boosts,
                      inv_samples=None, det_drift=0.0)
    good = integrate_frame(KIND_F2_MU, "v", "1", (0.0, 1.0), 101)
    with pytest.raises(ValueError, match="null"):
        extract_weierstrass_data(fake, good)


def test_extraction_pole_when_data_vanishes():
    frames = integrate_lax(FLAT_UMBILIC, "mu", (0.0, 1.0, 0.0, 1.0), 51, 51)
    f1 = FrameCurve(kind=KIND_F1, s_field=None, w_field=None,
                    t0=0.0, t1=1.0, n=51, samples=frames.phi1[:, 0],
                    inv_samples=None, det_drift=0.0)
    f2 = FrameCurve(kind=KIND_F2_MU, s_field=None, w_field=None,
                    t0=0.0, t1=1.0, n=51,
                    samples=np.swapaxes(frames.phi2, 0, 1)[:, 0],
                    inv_samples=None, det_drift=0.0)
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


@pytest.mark.parametrize("action", ["mu", "nu"])
def test_substep_halving_shows_fourth_order(action):
    dom = (0.0, 1.2, 0.0, 1.2)
    ref = _far_corner(integrate_lax(LIOUVILLE, action, dom, 21, 21, substeps=16))
    err = [np.max(np.abs(_far_corner(integrate_lax(LIOUVILLE, action, dom, 21, 21,
                                                   substeps=k)) - ref))
           for k in (1, 2, 4)]
    assert 14.0 <= err[0] / err[1] <= 18.0
    assert 14.0 <= err[1] / err[2] <= 18.0


@pytest.mark.parametrize("action", ["mu", "nu"])
def test_substeps_keep_shape_and_path_defect(action):
    frames = integrate_lax(LIOUVILLE, action, (0.1, 0.9, 0.05, 0.8), 31, 23,
                           substeps=3)
    assert frames.phi1.shape == (31, 23, 2, 2)
    assert frames.phi2.shape == (31, 23, 2, 2)
    assert frames.path_defect < DEFAULT_TOL.path


@pytest.mark.parametrize("action", ["mu", "nu"])
@pytest.mark.parametrize("substeps", [1, 3])
def test_omega_evaluations_are_batched(monkeypatch, action, substeps):
    # one call per column step, one for the gate, one per edge march
    data = GmcData.build("2*ln(1+u*v)", 1.0, "1", "1")
    calls = []
    evaluate = data.omega.with_derivatives

    def counted(u, v):
        calls.append(1)
        return evaluate(u, v)

    monkeypatch.setattr(data.omega, "with_derivatives", counted)
    nv = 17
    integrate_lax(data, action, (0.0, 1.0, 0.0, 1.0), 13, nv, substeps=substeps)
    assert 0 < len(calls) <= (nv - 1) * substeps + 4


def test_substeps_must_be_positive():
    with pytest.raises(ValueError, match="substeps"):
        integrate_lax(LIOUVILLE, "mu", (0.0, 1.0, 0.0, 1.0), 5, 5, substeps=0)
    with pytest.raises(ValueError, match="substeps"):
        integrate_frame(KIND_F1, "u", "1", (0.0, 1.0), 5, substeps=0)
