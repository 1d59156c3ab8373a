"""Expression parsing, evaluation with derivatives, and sampled fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscmc.fields import (EvalError, ExprError, ScalarField1D,
                           as_field1d, as_field2d, eval_expression,
                           eval_with_derivatives, fd_derivative,
                           parse_expression, print_expression)

ROUND_TRIP = [
    "u",
    "-u",
    "u + v",
    "2*ln(1 + u*v)",
    "sin(u)*cos(v) - tanh(u/2)",
    "exp(-(u^2 + v^2))",
    "sqrt(1 + u^2)",
    "1/(1 + u*v)",
    "abs(u) + 3.5e-2",
]


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_print_parse_fixed_point(src):
    ast = parse_expression(src)
    text = print_expression(ast)
    again = parse_expression(text)
    assert print_expression(again) == text
    env = {"u": 0.3, "v": -0.2, "t": 0.0}
    assert np.isclose(eval_expression(ast, env), eval_expression(again, env),
                      rtol=0, atol=1e-15)


def test_bare_identifier_parses():
    # regression: end-of-input once matched the operator sets and the
    # parser consumed phantom tokens after a lone variable
    ast = parse_expression("u")
    assert eval_expression(ast, {"u": 2.5, "v": 0.0, "t": 0.0}) == 2.5


@pytest.mark.parametrize("src, offset", [
    ("sin(", 4),
    ("", 0),
    ("2 +", 3),
    ("(1 + u", 6),
])
def test_error_carries_byte_offset(src, offset):
    with pytest.raises(ExprError) as err:
        parse_expression(src)
    assert f"offset {offset}" in str(err.value)


def test_overflowing_literal_rejected_at_its_offset():
    # float("1e400") is inf, which would print as 'inf' and not re-parse
    with pytest.raises(ExprError, match="overflows") as err:
        parse_expression("u + 1e400*v")
    assert err.value.offset == 4
    assert print_expression(parse_expression("1e300*u")) == "1e+300*u"


def test_unknown_function_rejected():
    with pytest.raises(ExprError):
        parse_expression("sinc(u)")


def test_unknown_variable_rejected():
    with pytest.raises((ExprError, EvalError)):
        ast = parse_expression("w + 1")
        eval_expression(ast, {"u": 0.0, "v": 0.0, "t": 0.0})


CASES = [
    ("u*v", lambda u, v: u * v, lambda u, v: v, lambda u, v: u),
    ("sin(u) + cos(v)", lambda u, v: np.sin(u) + np.cos(v),
     lambda u, v: np.cos(u), lambda u, v: -np.sin(v)),
    ("2*ln(1 + u*v)", lambda u, v: 2 * np.log(1 + u * v),
     lambda u, v: 2 * v / (1 + u * v), lambda u, v: 2 * u / (1 + u * v)),
    ("exp(u^2 - v)", lambda u, v: np.exp(u ** 2 - v),
     lambda u, v: 2 * u * np.exp(u ** 2 - v),
     lambda u, v: -np.exp(u ** 2 - v)),
    ("tanh(u)/(1 + v^2)", lambda u, v: np.tanh(u) / (1 + v ** 2),
     lambda u, v: (1 - np.tanh(u) ** 2) / (1 + v ** 2),
     lambda u, v: -2 * v * np.tanh(u) / (1 + v ** 2) ** 2),
]


@pytest.mark.parametrize("src, f, fu, fv", CASES)
def test_derivatives_match_closed_forms(src, f, fu, fv):
    ast = parse_expression(src)
    u, v = 0.37, 0.81
    val, du, dv, _ = eval_with_derivatives(ast, {"u": u, "v": v, "t": 0.0}, "u", "v")
    assert np.isclose(val, f(u, v), rtol=1e-12, atol=1e-12)
    assert np.isclose(du, fu(u, v), rtol=1e-10, atol=1e-12)
    assert np.isclose(dv, fv(u, v), rtol=1e-10, atol=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=50)
def test_grid_evaluation_broadcasts(u, v):
    field = as_field2d("sin(u)*v")
    grid_u = np.linspace(-1, 1, 7)[:, None]
    grid_v = np.linspace(-1, 1, 5)[None, :]
    out = field(grid_u, grid_v)
    assert out.shape == (7, 5)
    assert np.isclose(field(u, v), np.sin(u) * v, atol=1e-14)


def test_domain_error_reports_evaluation():
    field = as_field2d("ln(u)")
    with pytest.raises(EvalError):
        field(-1.0, 0.0)


def test_fd_derivative_is_fourth_order():
    ts = np.linspace(0.0, np.pi, 201)
    h = ts[1] - ts[0]
    err1 = np.max(np.abs(fd_derivative(np.sin(ts), h) - np.cos(ts)))
    ts2 = np.linspace(0.0, np.pi, 401)
    h2 = ts2[1] - ts2[0]
    err2 = np.max(np.abs(fd_derivative(np.sin(ts2), h2) - np.cos(ts2)))
    assert err1 / err2 == pytest.approx(16.0, rel=0.35)


def test_fd_derivative_needs_five_samples():
    with pytest.raises(ValueError):
        fd_derivative(np.zeros(4), 0.1)


def test_sampled_field_interpolation():
    ts = np.linspace(-2.0, 2.0, 4001)
    field = ScalarField1D.from_samples(-2.0, ts[1] - ts[0], np.sinh(ts))
    probes = np.linspace(-1.9, 1.9, 313)
    assert np.max(np.abs(field(probes) - np.sinh(probes))) < 1e-9
    assert np.max(np.abs(field.derivative(probes) - np.cosh(probes))) < 1e-6


def test_field2d_partial_derivatives():
    field = as_field2d("u^2*v + v^3")
    us = np.linspace(-1, 1, 9)[:, None]
    vs = np.linspace(-1, 1, 9)[None, :]
    f, fu, fv, fuv = field.with_derivatives(us, vs)
    assert np.allclose(f, us ** 2 * vs + vs ** 3, atol=1e-12)
    assert np.allclose(fu, 2 * us * vs, atol=1e-10)
    assert np.allclose(fv, us ** 2 + 3 * vs ** 2, atol=1e-10)
    assert np.allclose(fuv, 2 * us + 0 * vs, atol=1e-10)


def test_coercion_accepts_numbers_and_fields():
    c = as_field1d(3.0, "u")
    assert c(np.array([0.0, 1.0])).tolist() == [3.0, 3.0]
    same = as_field1d(c, "u")
    assert same is c
    two_d = as_field2d(1.5)
    assert two_d(0.2, 0.4) == 1.5
