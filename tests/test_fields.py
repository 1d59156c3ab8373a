"""Expression parsing, evaluation with derivatives, and sampled fields."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adscmc import fields
from adscmc.fields import (FUNCTIONS, Bin, EvalError, ExprError, Fn, Neg, Num,
                           ScalarField1D, ScalarField2D, Var, as_field1d,
                           as_field2d, eval_expression, eval_with_derivatives,
                           fd_derivative, parse_expression, print_expression)

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


# random trees over + - * / ^, unary minus and every function; integer
# literals put negative bases under integer exponents
TREES = st.recursive(
    st.one_of(st.sampled_from([Var("u"), Var("v")]),
              st.integers(-3, 3).map(lambda n: Num(float(n))),
              st.floats(-3.0, 3.0, allow_nan=False).map(Num)),
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(Fn, st.sampled_from(FUNCTIONS), kids),
        st.builds(Bin, st.sampled_from("+-*/^"), kids, kids)),
    max_leaves=8)
POINTS = st.floats(-2.0, 2.0, allow_nan=False)


def _plain(ast, u, v):
    """The plain value at (u, v), or None where it is not finite."""
    try:
        return eval_expression(ast, {"u": u, "v": v})
    except EvalError:
        return None


def _subtrees(ast):
    yield ast
    for child in (getattr(ast, "arg", None), getattr(ast, "left", None),
                  getattr(ast, "right", None)):
        if child is not None:
            yield from _subtrees(child)


@given(TREES, POINTS, POINTS)
@settings(max_examples=300, deadline=None)
def test_value_slot_is_the_plain_value_bit_for_bit(ast, u, v):
    val = _plain(ast, u, v)
    assume(val is not None)
    for node in _subtrees(ast):
        if isinstance(node, Bin) and node.op in "/^":
            a, b, out = (_plain(x, u, v) for x in (node.left, node.right, node))
            if None not in (a, b, out):
                ref = np.divide(a, b) if node.op == "/" else np.power(a, b)
                assert np.float64(out).tobytes() == np.float64(ref).tobytes()
    try:
        slots = eval_with_derivatives(ast, {"u": u, "v": v}, "u", "v")
    except EvalError:
        return  # a derivative slot is not finite here; the value has no slot to compare
    assert np.float64(slots[0]).tobytes() == np.float64(val).tobytes()


def _check_slot(slot, fd_h, fd_2h, tol):
    """The centre of a slot sampled on a 5x5 stencil against a central
    difference.  Only where the slot is resolved: it moves little across
    the stencil (no pole or kink inside), and the differences at steps h
    and 2h agree, which puts the one at h within a third of their gap of
    the derivative."""
    mid = slot[2, 2]
    assume(np.max(np.abs(slot - mid)) < 0.1 * (1.0 + abs(mid)))
    assume(abs(fd_h - fd_2h) < tol / 2)
    assert abs(mid - fd_h) < tol


@given(TREES, POINTS, POINTS)
@settings(max_examples=300, deadline=None)
def test_derivative_slots_match_central_differences(ast, u, v):
    h = 1e-4
    step = np.arange(-2, 3) * h
    try:
        f, fu, fv, fuv = eval_with_derivatives(
            ast, {"u": u + step[:, None], "v": v + step[None, :]}, "u", "v")
    except EvalError:
        assume(False)
    noise = 1e-10 * np.max(np.abs(f))
    _check_slot(fu, (f[3, 2] - f[1, 2]) / (2 * h), (f[4, 2] - f[0, 2]) / (4 * h),
                1e-6 * (1.0 + abs(fu[2, 2])) + noise / h)
    _check_slot(fv, (f[2, 3] - f[2, 1]) / (2 * h), (f[2, 4] - f[2, 0]) / (4 * h),
                1e-6 * (1.0 + abs(fv[2, 2])) + noise / h)
    _check_slot(fuv, (f[3, 3] - f[3, 1] - f[1, 3] + f[1, 1]) / (2 * h) ** 2,
                (f[4, 4] - f[4, 0] - f[0, 4] + f[0, 0]) / (4 * h) ** 2,
                1e-4 * (1.0 + abs(fuv[2, 2])) + noise / h ** 2)


def _jet_of(src, u):
    """(f, f', f', f'') of a one-variable source at u."""
    return [float(x) for x in eval_with_derivatives(parse_expression(src), {"u": u}, "u", "u")]


@pytest.mark.parametrize("u", [-0.5, -1.7])
def test_negative_powers_hold_at_negative_bases(u):
    assert _jet_of("u^-1", u) == pytest.approx([1 / u, -u ** -2, -u ** -2, 2 * u ** -3], rel=1e-15)
    assert _jet_of("u^-2", u) == pytest.approx([u ** -2, -2 * u ** -3, -2 * u ** -3, 6 * u ** -4],
                                               rel=1e-15)
    assert ScalarField1D.parse("u^-1", var="u").derivative(u) == pytest.approx(-u ** -2, rel=1e-15)


def test_power_of_a_negative_base_under_a_computed_exponent():
    assert _jet_of("(u-1)^(1+1)", 0.5) == [0.25, -1.0, -1.0, 2.0]


@pytest.mark.parametrize("src, jet", [("u^0", [1.0, 0.0, 0.0, 0.0]),
                                      ("u^1", [0.0, 1.0, 1.0, 0.0]),
                                      ("u^2", [0.0, 0.0, 0.0, 2.0])])
def test_small_integer_powers_at_zero(src, jet):
    assert _jet_of(src, 0.0) == jet


def test_plain_and_derivative_calls_give_one_value():
    w = ScalarField2D.parse("u^3 + v/(1+u)")
    rng = np.random.default_rng(7)
    u, v = rng.uniform(-0.9, 2.0, 10_000), rng.uniform(-2.0, 2.0, 10_000)
    assert w(u, v).tobytes() == w.with_derivatives(u, v)[0].tobytes()


ALL_FUNCTIONS = "+".join(f"{name}(2+{var})" for name, var in
                         zip(FUNCTIONS, "uvuvuvuvu"))


def test_plain_calls_never_reach_a_derivative_rule(monkeypatch):
    class Reached(Exception):
        pass

    def rule(x):
        raise Reached

    for name in FUNCTIONS:
        monkeypatch.setitem(fields._FN_D, name, (rule, rule))
    grid = np.linspace(0.1, 0.9, 5)
    two = ScalarField2D.parse(ALL_FUNCTIONS)
    one = ScalarField1D.parse(ALL_FUNCTIONS.replace("v", "u"), var="u")
    assert np.all(np.isfinite(two(grid[:, None], grid[None, :])))
    assert np.all(np.isfinite(one(grid)))
    with pytest.raises(Reached):
        two.with_derivatives(grid[:, None], grid[None, :])
    with pytest.raises(Reached):
        one.derivative(grid)
