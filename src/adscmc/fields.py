"""Closed-form scalar fields, and sampled fields of one variable.

Closed forms are written in a tiny expression language over named
variables, e.g. "2*ln(1+u*v)" or "u^2 - 1".  The grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          right associative
    atom   := number | name '(' expr ')' | name | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and
'/'.  Functions: sin cos sinh cosh tanh exp ln sqrt abs.  Parsing is a
handwritten recursive descent; errors carry the byte offset.

Evaluation is vectorized over numpy arrays and walks the syntax tree
once, carrying jets: a subtree that reads neither requested variable
du, dv gives (f,), any other (f, f_u, f_v, f_uv).  A plain evaluation
requests none, so it does no derivative work.  Every node computes its
value with the numpy operation of a plain evaluation (np.divide,
np.power, np.log, ...), so a jet's value is the plain value to the bit.
Derivative slots are formed where an operand is a full jet, the other
lifted to (f, 0, 0, 0).  A variable-free exponent takes the power rule,
which holds at negative bases (u^-1 at u < 0); a zero coefficient gives
a zero slot (u^0, u^1 at u = 0).  A variable exponent takes
f^g = exp(g ln f).  No closed-form derivative is found by finite
differences.

A field of one variable is either closed form (ScalarField1D, which
every command evaluates) or sampled on a uniform grid (SampledField1D,
the legs read back off integrated frames).  Both are called at points
and have a derivative; a sampled one interpolates its samples and their
4th-order differences with the 4-point cubic Lagrange rule.
"""

from dataclasses import dataclass

import numpy as np

# each function with its first and second derivatives, as functions of
# the argument value
_FN = {
    "sin": (np.sin, np.cos, lambda x: -np.sin(x)),
    "cos": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
    "sinh": (np.sinh, np.cosh, np.sinh),
    "cosh": (np.cosh, np.sinh, np.cosh),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2,
             lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2)),
    "exp": (np.exp, np.exp, np.exp),
    "ln": (np.log, lambda x: 1.0 / x, lambda x: -1.0 / x ** 2),
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x), lambda x: -0.25 * x ** -1.5),
    "abs": (np.abs, np.sign, lambda x: np.zeros_like(np.asarray(x, dtype=float))),
}
FUNCTIONS = tuple(_FN)
_BIN = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


class ExprError(ValueError):
    """Parse error; .offset is the byte offset into the source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Fn:
    name: str
    arg: object


class _Parser:
    def __init__(self, src, variables):
        self.src = src
        self.pos = 0
        self.variables = tuple(variables)

    def error(self, message, offset=None):
        raise ExprError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self):
        ast = self.expr()
        if self.peek():
            self.error(f"unexpected character {self.src[self.pos]!r}")
        return ast

    def expr(self):
        node = self.term()
        while True:
            c = self.peek()
            if c and c in "+-":
                self.pos += 1
                node = Bin(c, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            c = self.peek()
            if c and c in "*/":
                self.pos += 1
                node = Bin(c, node, self.factor())
            else:
                return node

    def factor(self):
        if self.take("-"):
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.take("^"):
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        c = self.peek()
        start = self.pos
        if c == "(":
            self.pos += 1
            node = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return node
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha() or c == "_":
            while self.pos < len(self.src) and (self.src[self.pos].isalnum() or self.src[self.pos] == "_"):
                self.pos += 1
            name = self.src[start:self.pos]
            if self.peek() == "(":
                if name not in FUNCTIONS:
                    self.error(f"unknown identifier '{name}'", start)
                self.pos += 1
                arg = self.expr()
                if not self.take(")"):
                    self.error("expected ')'")
                return Fn(name, arg)
            if name in self.variables:
                return Var(name)
            self.error(f"unknown identifier '{name}'", start)
        if c == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {c!r}")

    def number(self):
        start = self.pos
        src = self.src
        n = len(src)
        while self.pos < n and src[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and src[self.pos] == ".":
            self.pos += 1
            while self.pos < n and src[self.pos].isdigit():
                self.pos += 1
        if self.pos < n and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and src[self.pos].isdigit():
                while self.pos < n and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        text = src[start:self.pos]
        try:
            value = float(text)
        except ValueError:
            self.error(f"bad number {text!r}", start)
        if not np.isfinite(value):
            self.error(f"number {text!r} overflows a double", start)
        return Num(value)


def parse_expression(src, variables=("u", "v", "t")):
    """Parse source text into a syntax tree; ExprError on bad input."""
    return _Parser(src, variables).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def print_expression(ast):
    """Render a tree back to source; parsing the result reproduces it."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Fn):
        return f"{ast.name}({print_expression(ast.arg)})"
    if isinstance(ast, Neg):
        inner = print_expression(ast.arg)
        if _prec(ast.arg) < 3 or isinstance(ast.arg, Neg):
            inner = f"({inner})"
        return "-" + inner
    if isinstance(ast, Bin):
        op = ast.op
        lhs = print_expression(ast.left)
        rhs = print_expression(ast.right)
        if op == "^":
            if _prec(ast.left) <= _PREC["^"]:
                lhs = f"({lhs})"
            if _prec(ast.right) < 3:
                rhs = f"({rhs})"
        else:
            if _prec(ast.left) < _PREC[op]:
                lhs = f"({lhs})"
            if _prec(ast.right) <= _PREC[op]:
                rhs = f"({rhs})"
        return f"{lhs}{op}{rhs}"
    raise TypeError(f"not an expression node: {ast!r}")


def eval_expression(ast, env):
    """Evaluate over an environment of scalars or numpy arrays."""
    with np.errstate(all="ignore"):
        out = _jet(ast, env, None, None)[0]
    if not np.all(np.isfinite(out)):
        raise EvalError(f"non-finite value evaluating '{print_expression(ast)}'")
    return out


def _full(jet):
    """A jet with its derivative slots, zero for a variable-free one."""
    return jet if len(jet) == 4 else (jet[0], 0.0, 0.0, 0.0)


def _scaled_power(c, f, e):
    """c f^e, taken as 0 where c is 0 (the slots of u^0 and u^1 at u = 0)."""
    return np.where(c == 0, 0.0, c * np.power(f, e))


def _jet(ast, env, du, dv):
    """(f,) where ast reads neither du nor dv, else (f, f_u, f_v, f_uv)."""
    # numpy leaves: 1/0 and 0^u give inf and nan, never ZeroDivisionError
    if isinstance(ast, Num):
        return (np.float64(ast.value),)
    if isinstance(ast, Var):
        try:
            val = np.asarray(env[ast.name], dtype=float)
        except KeyError:
            raise EvalError(f"variable '{ast.name}' not bound") from None
        if ast.name in (du, dv):
            return (val, float(ast.name == du), float(ast.name == dv), 0.0)
        return (val,)
    if isinstance(ast, Neg):
        return tuple(-x for x in _jet(ast.arg, env, du, dv))
    if isinstance(ast, Fn):
        fn, p1, p2 = _FN[ast.name]
        a = _jet(ast.arg, env, du, dv)
        val = fn(a[0])
        if len(a) == 1:
            return (val,)
        d1 = p1(a[0])
        return (val, d1 * a[1], d1 * a[2], p2(a[0]) * a[1] * a[2] + d1 * a[3])
    a, b = _jet(ast.left, env, du, dv), _jet(ast.right, env, du, dv)
    f, g, op = a[0], b[0], ast.op
    val = _BIN[op](f, g)
    if len(a) == len(b) == 1:
        return (val,)
    (_, fu, fv, fw), (_, gu, gv, gw) = _full(a), _full(b)
    if op in "+-":
        return (val, *map(_BIN[op], (fu, fv, fw), (gu, gv, gw)))
    if op == "*":
        return (val, fu * g + f * gu, fv * g + f * gv, fw * g + fu * gv + fv * gu + f * gw)
    if op == "/":
        qu, qv = (fu - val * gu) / g, (fv - val * gv) / g
        return (val, qu, qv, (fw - qu * gv - qv * gu - val * gw) / g)
    if len(b) == 1:
        # power rule: holds at negative bases, where ln(f) does not
        d1 = _scaled_power(g, f, g - 1.0)
        d2 = _scaled_power(g * (g - 1.0), f, g - 2.0)
        return (val, d1 * fu, d1 * fv, d2 * fu * fv + d1 * fw)
    # variable exponent: f^g = exp(g ln f)
    ln_f = np.log(f)
    lu, lv = fu / f, fv / f
    hu, hv = gu * ln_f + g * lu, gv * ln_f + g * lv
    hw = gw * ln_f + gu * lv + gv * lu + g * (fw / f - lu * lv)
    return (val, val * hu, val * hv, val * (hu * hv + hw))


def eval_with_derivatives(ast, env, du, dv):
    """Value, d/d(du), d/d(dv) and the mixed second derivative."""
    with np.errstate(all="ignore"):
        parts = _full(_jet(ast, env, du, dv))
    shape = np.broadcast_shapes(*map(np.shape, (*parts, *env.values())))
    shaped = tuple(np.broadcast_to(np.asarray(x, dtype=float), shape) for x in parts)
    if not all(np.all(np.isfinite(x)) for x in shaped):
        raise EvalError(f"non-finite derivative evaluating '{print_expression(ast)}'")
    return shaped


# ---------------------------------------------------------------------------
# differences of uniform samples

def fd_derivative(values, h, axis=0):
    """4th-order first derivative of uniform samples along an axis."""
    f = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = f.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples for 4th-order differences")
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# one-variable fields

class ScalarField1D:
    """A closed-form scalar function of one variable."""

    def __init__(self, expr, var="t"):
        self.expr = expr
        self.var = var

    @classmethod
    def parse(cls, src, var="t"):
        return cls(parse_expression(src, variables=(var,)), var)

    @classmethod
    def const(cls, value, var="t"):
        return cls(Num(float(value)), var)

    def __call__(self, t):
        val = eval_expression(self.expr, {self.var: np.asarray(t, dtype=float)})
        return np.broadcast_to(np.asarray(val, dtype=float), np.shape(t)) if np.shape(t) else float(val)

    def derivative(self, t):
        _, d, _, _ = eval_with_derivatives(self.expr, {self.var: np.asarray(t, dtype=float)}, self.var, None)
        return d if np.shape(t) else float(d)


# how far past the sampled ends an evaluation point may lie, the rounding
# of t0 + k dt and of (t - t0) / dt: below t0 a fraction of the range,
# above the last node a fraction of the range plus a fraction of a step
RANGE_SLACK_BELOW = 1e-9
RANGE_SLACK_ABOVE = 1e-12
STEP_SLACK_ABOVE = 1e-9


class SampledField1D:
    """A scalar function of one variable sampled at t0 + k dt, k = 0, 1, ...

    Values interpolate the samples, and the derivative interpolates
    their 4th-order differences, both with the 4-point cubic rule.
    """

    def __init__(self, t0, dt, samples):
        self.samples = np.asarray(samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 5:
            raise ValueError("sampled fields need at least 5 values")
        self.t0 = float(t0)
        self.dt = float(dt)
        self.dsamples = fd_derivative(self.samples, self.dt)

    def _cubic(self, s, t):
        """The cubic through the 4 samples of s around t, at t."""
        x = (np.asarray(t, dtype=float) - self.t0) / self.dt
        n = s.size
        if (np.any(x < -RANGE_SLACK_BELOW * (n - 1))
                or np.any(x > (n - 1) * (1.0 + RANGE_SLACK_ABOVE) + STEP_SLACK_ABOVE)):
            raise ValueError("evaluation outside the sampled range")
        i = np.clip(np.floor(x).astype(int), 1, n - 3)
        x = x - i
        # Lagrange weights on the nodes i - 1, i, i + 1, i + 2
        return (-x * (x - 1.0) * (x - 2.0) / 6.0 * s[i - 1]
                + (x * x - 1.0) * (x - 2.0) / 2.0 * s[i]
                - x * (x + 1.0) * (x - 2.0) / 2.0 * s[i + 1]
                + x * (x * x - 1.0) / 6.0 * s[i + 2])

    def __call__(self, t):
        return self._cubic(self.samples, t)

    def derivative(self, t):
        return self._cubic(self.dsamples, t)


def as_field1d(src, var="t"):
    """Coerce an expression string, a number, or a field to a field."""
    if isinstance(src, (ScalarField1D, SampledField1D)):
        return src
    if isinstance(src, str):
        return ScalarField1D.parse(src, var=var)
    return ScalarField1D.const(float(src), var=var)


# ---------------------------------------------------------------------------
# two-variable fields

class ScalarField2D:
    """A closed-form scalar function of (u, v)."""

    def __init__(self, expr):
        self.expr = expr

    @classmethod
    def parse(cls, src):
        return cls(expr=parse_expression(src, variables=("u", "v")))

    @classmethod
    def const(cls, value):
        return cls(expr=Num(float(value)))

    def __call__(self, u, v):
        """Value at broadcastable points (u, v), without the derivative slots."""
        val = eval_expression(self.expr, {"u": u, "v": v})
        return np.broadcast_to(val, np.broadcast_shapes(np.shape(u), np.shape(v)))

    def with_derivatives(self, u, v):
        """Value, f_u, f_v, f_uv at broadcastable points (u, v)."""
        return eval_with_derivatives(self.expr, {"u": u, "v": v}, "u", "v")


def as_field2d(src):
    if isinstance(src, ScalarField2D):
        return src
    if isinstance(src, str):
        return ScalarField2D.parse(src)
    return ScalarField2D.const(float(src))
