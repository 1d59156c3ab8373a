"""Matrix model of the split signature four-space and its group actions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adscmc.algebra import (METRIC3, METRIC4, act, adjugate, check_unimodular,
                            cross3, cross4, det2, mat_of_vec, project_h31,
                            scalar_product3, scalar_product4, vec_of_mat)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
vec4 = st.tuples(finite, finite, finite, finite).map(np.array)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def unimodular(a, b, c):
    """Explicit det-1 matrix from three free entries, a bounded away from 0."""
    return np.array([[a, b], [c, (1.0 + b * c) / a]])


unit = st.tuples(
    st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
    finite, finite,
).map(lambda t: unimodular(*t))


def test_signature():
    basis = np.eye(4)
    signs = [scalar_product4(basis[i], basis[i]) for i in range(4)]
    assert signs == [-1.0, -1.0, 1.0, 1.0]


@given(vec4)
def test_vec_mat_round_trip(x):
    assert np.allclose(vec_of_mat(mat_of_vec(x)), x, atol=1e-12)


@given(vec4, vec4)
def test_scalar_product_matches_matrix_form(x, y):
    mx, my = mat_of_vec(x), mat_of_vec(y)
    matrix_form = 0.5 * (np.trace(mx @ my) - np.trace(mx) * np.trace(my))
    assert np.isclose(matrix_form, scalar_product4(x, y),
                      rtol=1e-10, atol=1e-8)


@given(vec4)
def test_norm_is_minus_det(x):
    m = mat_of_vec(x)
    assert np.isclose(scalar_product4(x, x), -det2(m), rtol=1e-10, atol=1e-8)


def test_identity_is_first_basis_vector():
    assert np.allclose(mat_of_vec(np.array([1.0, 0, 0, 0])), np.eye(2))


@given(vec4, vec4, vec4)
def test_cross4_is_lorentz_orthogonal(a, b, c):
    n = METRIC4 * cross4(a, b, c)
    scale = 1.0 + max(np.max(np.abs(v)) for v in (a, b, c)) ** 3
    for v in (a, b, c):
        assert abs(scalar_product4(n, v)) < 1e-9 * scale


@given(vec3, vec3)
def test_cross3_is_lorentz_orthogonal(a, b):
    n = METRIC3 * cross3(a, b)
    scale = 1.0 + max(np.max(np.abs(a)), np.max(np.abs(b))) ** 2
    assert abs(scalar_product3(n, a)) < 1e-10 * scale
    assert abs(scalar_product3(n, b)) < 1e-10 * scale


# exact and signed zeros among the entries, so the sign of a zero sum is exercised
entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), finite)
batch_shape = st.tuples(st.integers(1, 6), st.integers(1, 6))
PRODUCTS = [(scalar_product4, METRIC4), (scalar_product3, METRIC3)]


@pytest.mark.parametrize("product, metric", PRODUCTS)
@given(data=st.data())
def test_component_first_product_is_bitwise_einsum(product, metric, data):
    shape = data.draw(batch_shape) + (metric.size,)
    x = data.draw(arrays(float, shape, elements=entry))
    y = data.draw(arrays(float, shape, elements=entry))
    ref = np.einsum("...i,...i->...", x * metric, y)
    views = product(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0))
    planes = product(np.ascontiguousarray(np.moveaxis(x, -1, 0)),
                     np.ascontiguousarray(np.moveaxis(y, -1, 0)))
    assert views.tobytes() == ref.tobytes()
    assert planes.tobytes() == ref.tobytes()


@pytest.mark.parametrize("product, metric", PRODUCTS)
def test_negative_zero_sum_reads_positive_zero(product, metric):
    # every term is -0.0, so the sum is -0.0 until the +0.0 accumulator
    x = np.where(metric < 0, 0.0, -0.0)
    y = np.ones_like(metric)
    ref = np.einsum("...i,...i->...", x * metric, y)
    assert not np.signbit(ref)
    assert not np.signbit(product(x, y))


# the einsum formulas act replaced; its products must keep their bits
ACT_REFERENCE = {
    "mu": lambda g1, g2: np.einsum("...ab,...cb->...ac", g1, g2),
}


@pytest.mark.parametrize("action", sorted(ACT_REFERENCE))
@given(data=st.data())
def test_act_is_bitwise_einsum(action, data):
    n, m = data.draw(batch_shape)
    g1 = data.draw(arrays(float, (n, 1, 2, 2), elements=entry))
    g2 = data.draw(arrays(float, (1, m, 2, 2), elements=entry))
    ref = ACT_REFERENCE[action](g1, g2)
    out = act(g1, g2)
    assert out.shape == ref.shape == (n, m, 2, 2)
    assert np.array_equal(np.signbit(out), np.signbit(ref))
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("action", sorted(ACT_REFERENCE))
def test_act_negative_zero_sum_reads_positive_zero(action):
    # both terms of every entry are -0.0, so the sum is -0.0 until the +0.0 accumulator
    g1 = np.full((2, 2), -0.0)
    g2 = np.ones((2, 2))
    assert not np.any(np.signbit(ACT_REFERENCE[action](g1, g2)))
    assert not np.any(np.signbit(act(g1, g2)))


@given(data=st.data())
def test_batched_cross4_is_pointwise_and_lorentz_orthogonal(data):
    shape = (4,) + data.draw(batch_shape)
    a, b, c = (data.draw(arrays(float, shape, elements=finite)) for _ in range(3))
    n = cross4(a, b, c)
    for i, j in np.ndindex(shape[1:]):
        assert np.array_equal(n[:, i, j], cross4(a[:, i, j], b[:, i, j], c[:, i, j]))
    n *= METRIC4[:, None, None]
    scale = 1.0 + max(np.max(np.abs(v)) for v in (a, b, c)) ** 3
    for v in (a, b, c):
        assert np.all(np.abs(scalar_product4(n, v)) < 1e-9 * scale)


@given(data=st.data())
def test_batched_cross3_is_pointwise_and_lorentz_orthogonal(data):
    shape = (3,) + data.draw(batch_shape)
    a, b = (data.draw(arrays(float, shape, elements=finite)) for _ in range(2))
    n = cross3(a, b)
    for i, j in np.ndindex(shape[1:]):
        assert np.array_equal(n[:, i, j], cross3(a[:, i, j], b[:, i, j]))
    n *= METRIC3[:, None, None]
    scale = 1.0 + max(np.max(np.abs(a)), np.max(np.abs(b))) ** 2
    for v in (a, b):
        assert np.all(np.abs(scalar_product3(n, v)) < 1e-10 * scale)


@given(unit)
def test_inverse_and_adjugate(m):
    assert np.allclose(m @ adjugate(m), det2(m) * np.eye(2), atol=1e-9)


def test_check_unimodular_rejects_scaled_matrices():
    with pytest.raises(ValueError, match="unimodular"):
        check_unimodular(2.0 * np.eye(2))
    assert check_unimodular(np.eye(2)) == 0.0


def test_check_unimodular_rejects_nan():
    with pytest.raises(ValueError, match="nan"):
        check_unimodular(np.full((2, 2), np.nan))


def test_projection_center_maps_to_origin():
    assert np.allclose(project_h31(np.array([1.0, 0.0, 0.0, 0.0]), "plus"), np.zeros(3))


def test_projection_known_point():
    x = np.array([np.cosh(1.0), 0.0, np.sinh(1.0), 0.0])
    got = project_h31(x, "plus")
    assert np.allclose(got, [0.0, np.tanh(0.5), 0.0], atol=1e-12)


def test_projection_lenient_mode_masks_poles():
    pts = np.array([[1.0, 0.0, 0.0, 0.0], [np.cosh(1.0), 0.0, np.sinh(1.0), 0.0]])
    out = project_h31(pts, "minus")
    assert np.all(np.isnan(out[0]))
    assert np.all(np.isfinite(out[1]))


def test_projection_names_the_poles_it_takes():
    with pytest.raises(ValueError, match="pole must be 'plus' or 'minus'"):
        project_h31(np.array([1.0, 0.0, 0.0, 0.0]), "north")
