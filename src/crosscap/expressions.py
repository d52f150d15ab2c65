"""Closed-form map definitions: parsing, printing, and Taylor-mode evaluation.

The grammar is deliberately small.  Precedence from loosest to tightest:
``+ -``, then ``* /``, then unary ``-``, then ``^``.  The binary operators
``+ - * /`` associate to the left.  Exponents of ``^`` must be integer
constants of magnitude at most 100 (optionally negated or parenthesized),
so chained powers are rejected at parse time.  Parentheses, calls and unary
minus signs nest at most ``MAX_NESTING`` deep, and the tree is at most
``MAX_DEPTH`` operators deep, so that neither the parser nor a walk of the
tree outgrows Python's recursion limit.  The names ``u`` and ``v``
are the surface parameters; any other identifier is a free parameter,
except a known function name (sin, cos, exp, log, sqrt) directly followed
by ``(``.  Implicit multiplication is not accepted: ``c*u^2``, never
``cu^2``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from math import isfinite

import numpy as np

from .errors import (
    ContractViolationError,
    JetDomainError,
    ParseError,
    UnboundParameterError,
)
from .jets import _BEYOND_RANGE, Jet2, MapJet3, _JetBatch, _univariate_series

__all__ = [
    "Binary",
    "Constant",
    "Expr",
    "MapDefinition",
    "Parameter",
    "Unary",
    "Var",
    "eval_expr_point",
    "eval_map_jet",
    "eval_map_jets",
    "eval_map_point",
    "eval_map_points",
    "expr_to_text",
    "parse_expr",
    "parse_map_definition",
    "stage_map_jet1",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
_VARIABLES = ("u", "v")
# a power of m costs m jet products, so m is bounded at parse time
MAX_EXPONENT = 100
# the parser recurses five frames deep per parenthesis or call, and every
# walk of the tree one frame per operator; at these bounds analyze, selfint
# and mesh all run within Python's default recursion limit of 1000
MAX_NESTING = 150
MAX_DEPTH = 800


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Parameter:
    name: str


@dataclass(frozen=True)
class Var:
    name: str  # "u" or "v"


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | exp | log | sqrt
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: "Expr"
    right: "Expr"


Expr = Constant | Parameter | Var | Unary | Binary


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        while pos < n and source[pos].isspace():
            pos += 1
        if pos >= n:
            break
        match = _TOKEN_RE.match(source, pos)
        if match is None or match.lastgroup is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    """Recursive descent; ``parse_sum`` down to ``parse_atom`` return a
    tree and its height in operators."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0  # open parentheses, calls and unary minus signs

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        raise ParseError(message, self.peek().offset)

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"expected {text!r}")
        self.advance()

    def enter(self, tok: _Token) -> None:
        """Open one more level of parentheses, calls or minus signs at ``tok``."""
        if self.nesting >= MAX_NESTING:
            raise ParseError(
                f"parentheses, calls and minus signs nest deeper than {MAX_NESTING}",
                tok.offset,
            )
        self.nesting += 1

    def leave(self) -> None:
        self.nesting -= 1

    def deeper(self, height: int, tok: _Token) -> int:
        """The height of the operator at ``tok`` over a child of ``height``."""
        if height >= MAX_DEPTH:
            raise ParseError(
                f"expression is more than {MAX_DEPTH} operators deep", tok.offset
            )
        return height + 1

    def number(self) -> float:
        tok = self.advance()
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(f"number {tok.text} is beyond float range", tok.offset)
        return value

    def parse(self) -> Expr:
        expr, _ = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(
                f"unexpected {tok.text!r}; expected an operator or end of input"
            )
        return expr

    def parse_sum(self) -> tuple[Expr, int]:
        left, height = self.parse_product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            op = "add" if tok.text == "+" else "sub"
            right, right_height = self.parse_product()
            left = Binary(op, left, right)
            height = self.deeper(max(height, right_height), tok)
        return left, height

    def parse_product(self) -> tuple[Expr, int]:
        left, height = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            op = "mul" if tok.text == "*" else "div"
            right, right_height = self.parse_unary()
            left = Binary(op, left, right)
            height = self.deeper(max(height, right_height), tok)
        return left, height

    def parse_unary(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.enter(tok)
            self.advance()
            child, height = self.parse_unary()
            self.leave()
            return Unary("neg", child), self.deeper(height, tok)
        return self.parse_power()

    def parse_power(self) -> tuple[Expr, int]:
        base, height = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            offset = self.peek().offset
            exponent = self.parse_exponent()
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds {MAX_EXPONENT} in magnitude", offset
                )
            power = Binary("pow", base, Constant(float(exponent)))
            return power, self.deeper(height, tok)
        return base, height

    def parse_exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "-(":
            self.enter(tok)
            self.advance()
            if tok.text == "-":
                value = -self.parse_exponent()
            else:
                value = self.parse_exponent()
                self.expect_op(")")
            self.leave()
            return value
        if tok.kind == "number":
            value = self.number()
            if value != int(value):
                raise ParseError("exponent must be an integer constant", tok.offset)
            return int(value)
        self.fail("expected an integer exponent")
        raise AssertionError("unreachable")

    def parse_atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            return Constant(self.number()), 0
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _VARIABLES:
                return Var(name), 0
            follows_paren = (
                self.peek().kind == "op" and self.peek().text == "("
            )
            if name in _FUNCTIONS and follows_paren:
                self.enter(tok)
                self.advance()
                child, height = self.parse_sum()
                self.expect_op(")")
                self.leave()
                return Unary(name, child), self.deeper(height, tok)
            return Parameter(name), 0
        if tok.kind == "op" and tok.text == "(":
            self.enter(tok)
            self.advance()
            expr, height = self.parse_sum()
            self.expect_op(")")
            self.leave()
            return expr, height
        self.fail("expected a number, a name, or a parenthesized expression")
        raise AssertionError("unreachable")


def parse_expr(source: str) -> Expr:
    """Parse one expression in the variables u, v and free parameters."""
    return _Parser(source).parse()


# -- printer -----------------------------------------------------------------

_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _precedence(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Unary) and expr.op == "neg":
        return _PRECEDENCE["neg"]
    return 5


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def expr_to_text(expr: Expr) -> str:
    """Render an expression so that parsing the text recovers the same tree."""
    if isinstance(expr, Constant):
        return _format_number(expr.value)
    if isinstance(expr, (Parameter, Var)):
        return expr.name
    if isinstance(expr, Unary):
        if expr.op == "neg":
            inner = expr_to_text(expr.child)
            if _precedence(expr.child) < _PRECEDENCE["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{expr.op}({expr_to_text(expr.child)})"
    if isinstance(expr, Binary):
        if expr.op == "pow":
            base = expr_to_text(expr.left)
            if _precedence(expr.left) < 5:
                base = f"({base})"
            assert isinstance(expr.right, Constant)
            return f"{base}^{_format_number(expr.right.value)}"
        symbol = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[expr.op]
        prec = _PRECEDENCE[expr.op]
        left = expr_to_text(expr.left)
        if _precedence(expr.left) < prec:
            left = f"({left})"
        right = expr_to_text(expr.right)
        if _precedence(expr.right) <= prec:
            right = f"({right})"
        return f"{left}{symbol}{right}"
    raise TypeError(f"not an expression node: {expr!r}")


# -- evaluation --------------------------------------------------------------

_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}
_POINT_FUNCTIONS = {name: getattr(math, name) for name in _FUNCTIONS}


# for ``_JetBatch`` and ``_Staged``, whose ``series`` methods expand the functions
_METHOD_FUNCTIONS = {name: operator.methodcaller("series", name) for name in _FUNCTIONS}


def _guarded(fn):
    """``fn`` on one element, giving None for what it raises."""

    def call(*args):
        try:
            return fn(*args)
        except (ArithmeticError, ValueError):
            return None

    return call


_ELEMENTWISE_POW = np.frompyfunc(_guarded(operator.pow), 2, 1)
_ELEMENTWISE = {
    name: np.frompyfunc(_guarded(fn), 1, 1) for name, fn in _POINT_FUNCTIONS.items()
}


def _parts(x) -> tuple:
    return (x.values, x.failed) if isinstance(x, _Samples) else (x, False)


def _combine(op, left, right) -> "_Samples":
    """``left op right`` for ``+ - * /`` with at least one side ``_Samples``."""
    (a, a_failed), (b, b_failed) = _parts(left), _parts(right)
    failed = a_failed | b_failed
    if op is operator.truediv:
        failed = failed | (b == 0.0)
    return _Samples(op(a, b), failed)


def _operator_pair(op):
    """The method for ``op`` and its reflected method, which takes a float
    on the left."""
    return (
        lambda self, other: _combine(op, self, other),
        lambda self, other: _combine(op, other, self),
    )


class _Samples:
    """Point values at many points at once, for ``mesh``.

    ``values`` holds float64s and ``failed`` marks the points where
    ``eval_expr_point`` raises on the way to this value.  Both broadcast
    against the grid of points, so a value that varies along fewer axes of
    the grid is held, and computed, only along those.  ``+ - * /`` and
    unary ``-`` are numpy's, which round as Python's float operations do.
    Integer powers and the functions run through Python element by
    element, since numpy's ``**`` can differ in the last bit.  As with
    Python floats, an inf or nan on the way fails no point; a zero divisor
    fails it, and so does an error from ``pow`` or ``math``.  Constants
    stay Python floats.  Callers silence numpy's warnings.
    """

    __slots__ = ("values", "failed")

    def __init__(self, values: np.ndarray, failed: np.ndarray):
        self.values = values
        self.failed = failed

    __add__, __radd__ = _operator_pair(operator.add)
    __sub__, __rsub__ = _operator_pair(operator.sub)
    __mul__, __rmul__ = _operator_pair(operator.mul)
    __truediv__, __rtruediv__ = _operator_pair(operator.truediv)

    def __neg__(self) -> "_Samples":
        return _Samples(-self.values, self.failed)

    def __pow__(self, m: int) -> "_Samples":
        return self.per_element(_ELEMENTWISE_POW, m)

    def per_element(self, ufunc, *args) -> "_Samples":
        out = ufunc(self.values, *args)
        error = out == None  # noqa: E711 -- elementwise on an object array
        out[error] = math.nan
        return _Samples(out.astype(float), self.failed | error)


def _sample_function(name: str, x):
    if isinstance(x, _Samples):
        return x.per_element(_ELEMENTWISE[name])
    return _POINT_FUNCTIONS[name](x)


_SAMPLE_FUNCTIONS = {name: partial(_sample_function, name) for name in _FUNCTIONS}


def _lookup(name: str, params: dict[str, float]) -> float:
    try:
        return params[name]
    except KeyError:
        raise UnboundParameterError(f"parameter {name!r} is not bound") from None


def _evaluate(expr: Expr, leaves: tuple, number, functions: dict, params: dict):
    """The one walk of an expression tree, over floats, batches of jets,
    arrays of points, or staging order-1 jets.

    ``leaves`` are the values of u and v, ``number`` makes a value from a
    float and ``functions`` maps each function name to its action on values.
    Values need only ``+ - * /``, unary ``-`` and integer ``**``, so each
    value type keeps its own rules for domains and powers.  Whatever
    ``ArithmeticError`` or ``ValueError`` Python raises on the way (a math
    domain error, a division by zero, an overflow) leaves as JetDomainError.
    """
    # exact node types, most frequent first: mesh sampling makes this hot
    kind = type(expr)
    try:
        if kind is Binary:
            left = _evaluate(expr.left, leaves, number, functions, params)
            if expr.op == "pow":
                return left ** int(expr.right.value)
            right = _evaluate(expr.right, leaves, number, functions, params)
            return _BINARY[expr.op](left, right)
        if kind is Var:
            return leaves[0] if expr.name == "u" else leaves[1]
        if kind is Constant:
            return number(expr.value)
        if kind is Unary:
            x = _evaluate(expr.child, leaves, number, functions, params)
            return -x if expr.op == "neg" else functions[expr.op](x)
        if kind is Parameter:
            return number(_lookup(expr.name, params))
    except (ArithmeticError, ValueError) as exc:
        raise JetDomainError(str(exc)) from None
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expr_point(expr: Expr, u: float, v: float, params: dict[str, float]) -> float:
    """Plain numeric evaluation, used for meshes and finite-difference checks."""
    value = _evaluate(expr, (float(u), float(v)), float, _POINT_FUNCTIONS, params)
    if not math.isfinite(value):
        raise JetDomainError(f"value {value} is beyond float range")
    return value


# -- map definitions ----------------------------------------------------------


@dataclass(frozen=True)
class MapDefinition:
    """Three component expressions plus default parameter values."""

    components: tuple[Expr, Expr, Expr]
    parameters: dict[str, float]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != 3:
            raise ValueError("a map definition has exactly three components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(
            self, "parameters", {k: float(x) for k, x in self.parameters.items()}
        )

    def bound_parameters(self, overrides: dict[str, float] | None) -> dict[str, float]:
        merged = dict(self.parameters)
        if overrides:
            merged.update({k: float(x) for k, x in overrides.items()})
        return merged


def parse_map_definition(
    component_sources: list[str] | tuple[str, str, str],
    parameters: dict[str, float] | None = None,
) -> MapDefinition:
    """Parse the three component texts of a map into a definition."""
    sources = list(component_sources)
    if len(sources) != 3:
        raise ValueError("a map definition has exactly three components")
    components = []
    for index, text in enumerate(sources):
        try:
            components.append(parse_expr(text))
        except ParseError as exc:
            raise ParseError(
                f"component {index + 1}: {exc.reason}", exc.offset
            ) from None
    return MapDefinition(tuple(components), parameters or {})


def _in_component(index: int, exc: JetDomainError) -> JetDomainError:
    return JetDomainError(f"component {index + 1}: {exc}")


def _by_component(components, evaluate) -> list:
    out = []
    for index, comp in enumerate(components):
        try:
            out.append(evaluate(comp))
        except JetDomainError as exc:
            raise _in_component(index, exc) from None
    return out


def eval_map_jet(
    defn: MapDefinition,
    base: tuple[float, float],
    order: int,
    parameters: dict[str, float] | None = None,
) -> MapJet3:
    """Taylor-mode evaluation of all three components about ``base``: the
    batch of ``eval_map_jets`` at one base point.

    Any order >= 0 is accepted here; the normal-form pipeline separately
    requires order >= 3 for the data it reads.  Undefined values and values
    beyond float range raise ``JetDomainError`` naming the component; a base
    point beyond float range raises it before any component.
    """
    if order < 0:
        raise ContractViolationError("order must be non-negative")
    with np.errstate(all="ignore"):
        u, v = _JetBatch.variables(np.array([base], float), order, np.zeros(1, bool))
        params = defn.bound_parameters(parameters)
        values = _by_component(
            defn.components,
            lambda comp: _evaluate(comp, (u, v), u.constant, _METHOD_FUNCTIONS, params),
        )
    return MapJet3.from_uncentered([Jet2(order, x.square()[0]) for x in values], base)


def eval_map_jets(
    defn: MapDefinition,
    bases: np.ndarray,
    order: int,
    parameters: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``eval_map_jet`` at many base points at once.

    ``bases`` has shape ``(points, 2)``.  Returns the uncentred coefficients,
    shape ``(points, 3, order+1, order+1)``, and a mask of the points where
    ``eval_map_jet`` raises JetDomainError.  At every other point the
    coefficients are bit for bit those of ``eval_map_jet``.  An unbound
    parameter raises as soon as a point that has not failed reaches it.
    """
    params = defn.bound_parameters(parameters)
    count = len(bases)
    out = np.zeros((count, 3, order + 1, order + 1))
    # a base point beyond float range fails whatever the map, as in
    # eval_map_jet; a point that fails in one component stays failed in the
    # next; once every point has failed, _JetBatch raises and the walk stops
    failed = ~np.isfinite(bases).all(axis=1)
    try:
        u, v = _JetBatch.variables(bases, order, failed)
        number = u.constant  # fails only where the base point does
        with np.errstate(all="ignore"):
            for index, comp in enumerate(defn.components):
                leaves = (_JetBatch(u.coeffs, failed), _JetBatch(v.coeffs, failed))
                value = _evaluate(comp, leaves, number, _METHOD_FUNCTIONS, params)
                failed = failed | value.failed
                out[:, index] = value.square()
    except JetDomainError:
        failed = np.ones(count, bool)
    return out, failed


def eval_map_point(
    defn: MapDefinition,
    u: float,
    v: float,
    parameters: dict[str, float] | None = None,
) -> np.ndarray:
    """Pointwise image of the map, one 3-vector; errors as in ``eval_map_jet``."""
    params = defn.bound_parameters(parameters)
    return np.array(
        _by_component(defn.components, lambda comp: eval_expr_point(comp, u, v, params))
    )


def eval_map_points(
    defn: MapDefinition,
    us: np.ndarray,
    vs: np.ndarray,
    parameters: dict[str, float] | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """``eval_map_point`` at the points ``(us, vs)``, two arrays that
    broadcast together.

    Each part of a component is evaluated in the shape of the variables in
    it, so on a grid of ``us`` of shape (n, 1) and ``vs`` of shape (1, m) a
    part in u alone takes n evaluations, not n*m.  Returns the three
    components, each in its own shape: that of ``us``, of ``vs``, of their
    broadcast, or 0-d when it holds neither; and a mask, in the broadcast
    shape, of the points where ``eval_map_point`` raises.  At every other
    point the image is bit for bit that of ``eval_map_point``.  A part of a
    component with no u or v in it that raises, and an unbound parameter,
    fail every point, as they make ``eval_map_point`` raise at every point;
    the components are then 0-d nan.
    """
    params = defn.bound_parameters(parameters)
    us, vs = np.asarray(us, float), np.asarray(vs, float)
    failed = np.zeros(np.broadcast_shapes(us.shape, vs.shape), bool)
    leaves = (
        _Samples(us, np.zeros(us.shape, bool)),
        _Samples(vs, np.zeros(vs.shape, bool)),
    )
    components = []
    try:
        with np.errstate(all="ignore"):
            for comp in defn.components:
                values, bad = _parts(
                    _evaluate(comp, leaves, float, _SAMPLE_FUNCTIONS, params)
                )
                values = np.asarray(values, float)
                components.append(values)
                failed = failed | bad | ~np.isfinite(values)
    except (JetDomainError, UnboundParameterError):
        return (np.array(math.nan),) * 3, np.ones(failed.shape, bool)
    return tuple(components), failed


# -- order-1 jets staged for the tracer ----------------------------------------
# A jet is (value, du, dv).  Staging walks the tree once and writes the map as
# one straight-line Python function of a base point.  Each operation becomes
# lines that make the float operations of ``_JetBatch`` at order 1 in the
# same order, each followed by its finiteness check, so every entry has the
# bits of the coefficient from ``eval_map_jet``, signed zeros included, and
# JetDomainError is raised, with the same message, wherever it raises it.
# An entry is a name the function reads (a local, or a constant of its
# namespace), or a float known while staging (the 1.0 and 0.0 partials of u
# and v); an operation whose operands are all known floats is made while
# staging.


def _checked(value: float, du: float, dv: float) -> tuple[float, float, float]:
    if isfinite(value) and isfinite(du) and isfinite(dv):
        return value, du, dv
    raise JetDomainError(_BEYOND_RANGE)


def _series(center: float, du: float, dv: float, tag: str, exponent: int | None):
    """``_JetBatch.series`` at order 1, for the jet ``(center, du, dv)``."""
    try:
        s0, s1 = _univariate_series(tag, center, 1, exponent)
    except (ArithmeticError, ValueError) as exc:
        raise JetDomainError(str(exc)) from None
    if s1 == 0.0:
        return _checked(s0, 0.0, 0.0)
    # constant(1.0) * rest is (0.0, 0.0 + du, 0.0 + dv), then scaled by s1
    term = _checked(0.0 * s1, (0.0 + du) * s1, (0.0 + dv) * s1)
    return _checked(s0 + term[0], 0.0 + term[1], 0.0 + term[2])


def _text(entry) -> str:
    return repr(entry) if isinstance(entry, float) else entry


class _Code:
    """The function being staged: its lines, and the namespace it runs in,
    which holds every constant and parameter value of the tree, so that no
    number of the map enters the source."""

    def __init__(self):
        self.lines: list[str] = []
        self.namespace = {
            "JetDomainError": JetDomainError,
            "_BEYOND_RANGE": _BEYOND_RANGE,
            "_in_component": _in_component,
            "_lookup": _lookup,
            "_series": _series,
            "isfinite": isfinite,
        }
        self.names = 0

    def name(self) -> str:
        self.names += 1
        return f"t{self.names}"

    def bind(self, value) -> str:
        """A name of the namespace that holds ``value``."""
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def assign(self, expression: str) -> str:
        name = self.name()
        self.lines.append(f"{name} = {expression}")
        return name

    def check(self, entries) -> None:
        """The lines that raise as ``_checked`` does unless each entry is finite."""
        if not all(isfinite(e) for e in entries if isinstance(e, float)):
            self.lines.append("raise JetDomainError(_BEYOND_RANGE)")
            return
        names = [e for e in entries if isinstance(e, str)]
        if names:
            self.lines.append(f"if not ({' and '.join(f'isfinite({n})' for n in names)}):")
            self.lines.append("    raise JetDomainError(_BEYOND_RANGE)")

    def term(self, acc, coef, b):
        """``acc + coef * b`` if ``coef != 0.0``, else ``acc``: one step of
        ``_shift_add``'s loop."""
        if not isinstance(coef, str):
            if coef == 0.0:
                return acc
            if isinstance(acc, float) and isinstance(b, float):
                return acc + coef * b
            return self.assign(f"{_text(acc)} + {coef!r} * {_text(b)}")
        acc = _text(acc)
        return self.assign(f"{acc} + {coef} * {_text(b)} if {coef} != 0.0 else {acc}")

    def constant(self, value) -> "_Staged":
        if isinstance(value, _Staged):  # an unbound parameter
            return value
        if not isfinite(value):
            self.lines.append("raise JetDomainError(_BEYOND_RANGE)")
        return _Staged(self, (self.bind(value), 0.0, 0.0))


class _Staged:
    """An order-1 jet of the function being staged; each operation writes
    the lines that compute its entries."""

    __slots__ = ("code", "entries")

    def __init__(self, code: _Code, entries: tuple):
        self.code = code
        self.entries = entries

    def _entrywise(self, other: "_Staged", op, sign: str) -> "_Staged":
        out = [
            op(a, b)
            if isinstance(a, float) and isinstance(b, float)
            else self.code.assign(f"{_text(a)} {sign} {_text(b)}")
            for a, b in zip(self.entries, other.entries)
        ]
        self.code.check(out)
        return _Staged(self.code, tuple(out))

    def __add__(self, other: "_Staged") -> "_Staged":
        return self._entrywise(other, operator.add, "+")

    def __sub__(self, other: "_Staged") -> "_Staged":
        return self._entrywise(other, operator.sub, "-")

    def __neg__(self) -> "_Staged":  # finite, as self is
        entries = [-e if isinstance(e, float) else self.code.assign(f"-{e}") for e in self.entries]
        return _Staged(self.code, tuple(entries))

    def __mul__(self, other: "_Staged") -> "_Staged":
        """In ``_shift_add``'s loop order, from 0.0: the terms of a0, a2, then a1."""
        (a0, a1, a2), (b0, b1, b2) = self.entries, other.entries
        term = self.code.term
        value, du, dv = term(0.0, a0, b0), term(0.0, a0, b1), term(0.0, a0, b2)
        dv = term(dv, a2, b0)
        du = term(du, a1, b0)
        self.code.check([value, du, dv])
        return _Staged(self.code, (value, du, dv))

    def __truediv__(self, other: "_Staged") -> "_Staged":
        return self * other.series("pow_int", -1)

    def __pow__(self, m: int) -> "_Staged":
        """``constant(1.0)`` times ``self``, m times over; all but the
        first product are one emitted loop."""
        if m < 0:
            return self.series("pow_int", m)
        code = self.code
        acc = _Staged(code, (1.0, 0.0, 0.0))
        if m == 0:
            return acc
        acc = acc * self
        if m == 1:
            return acc
        names = [code.assign(_text(entry)) for entry in acc.entries]
        code.lines.append(f"for _ in range({code.bind(m - 1)}):")
        start = len(code.lines)
        step = _Staged(code, tuple(names)) * self
        code.lines.append(f"{', '.join(names)} = {', '.join(map(_text, step.entries))}")
        code.lines[start:] = [f"    {line}" for line in code.lines[start:]]
        return _Staged(code, tuple(names))

    def series(self, tag: str, exponent: int | None = None) -> "_Staged":
        code = self.code
        out = [code.name() for _ in range(3)]
        args = [*map(_text, self.entries), code.bind(tag), code.bind(exponent)]
        code.lines.append(f"{', '.join(out)} = _series({', '.join(args)})")
        return _Staged(code, tuple(out))


class _StagedParameters(dict):
    """A missing name stages a line that raises UnboundParameterError."""

    def __init__(self, code: _Code, params: dict[str, float]):
        super().__init__(params)
        self.code = code

    def __missing__(self, name: str) -> _Staged:
        self.code.lines.append(f"_lookup({self.code.bind(name)}, {{}})")
        return _Staged(self.code, (0.0, 0.0, 0.0))  # never reached


def stage_map_jet1(defn: MapDefinition, parameters: dict[str, float] | None = None):
    """The map staged once for the tracer's many order-1 evaluations: a
    function of a base point that gives each component's (value, du, dv)
    there, bit for bit the coefficients of 1, u and v of
    ``eval_map_jet(defn, base, 1, parameters)``, with the same errors."""
    code = _Code()
    params = _StagedParameters(code, defn.bound_parameters(parameters))
    leaves = (_Staged(code, ("u", 1.0, 0.0)), _Staged(code, ("v", 0.0, 1.0)))
    # each variable plus its constant, so a base of -0.0 gives +0.0
    code.lines = ["u = float(base[0])", "v = float(base[1])"]
    code.check(["u", "v"])
    body = [*code.lines, "u = 0.0 + u", "v = 0.0 + v"]
    results = []
    for index, comp in enumerate(defn.components):
        code.lines = []
        jet = _evaluate(comp, leaves, code.constant, _METHOD_FUNCTIONS, params)
        if code.lines:
            body += ["try:", *(f"    {line}" for line in code.lines)]
            body += ["except JetDomainError as exc:", f"    raise _in_component({index}, exc) from None"]
        results.append(f"({', '.join(map(_text, jet.entries))})")
    body.append(f"return [{', '.join(results)}]")
    source = "def jets(base):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, "<staged map>", "exec"), code.namespace)
    return code.namespace["jets"]
