"""Closed-form map definitions: parsing, printing, and Taylor-mode evaluation.

The grammar is deliberately small.  Precedence from loosest to tightest:
``+ -``, then ``* /``, then unary ``-``, then ``^``.  The binary operators
``+ - * /`` associate to the left.  Exponents of ``^`` must be integer
constants of magnitude at most 100 (optionally negated or parenthesized),
so chained powers are rejected at parse time.  The names ``u`` and ``v``
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

import numpy as np

from .errors import JetDomainError, ParseError, UnboundParameterError
from .jets import Jet2, MapJet3, _JetBatch, elementary

__all__ = [
    "Binary",
    "Constant",
    "Expr",
    "MapDefinition",
    "Parameter",
    "Unary",
    "Var",
    "eval_expr_jet",
    "eval_expr_point",
    "eval_map_jet",
    "eval_map_jets",
    "eval_map_point",
    "expr_to_text",
    "parse_expr",
    "parse_map_definition",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
_VARIABLES = ("u", "v")
# a power of m costs m jet products, so m is bounded at parse time
MAX_EXPONENT = 100


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
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

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

    def number(self) -> float:
        tok = self.advance()
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(f"number {tok.text} is beyond float range", tok.offset)
        return value

    def parse(self) -> Expr:
        expr = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(
                f"unexpected {tok.text!r}; expected an operator or end of input"
            )
        return expr

    def parse_sum(self) -> Expr:
        left = self.parse_product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = "add" if self.advance().text == "+" else "sub"
            left = Binary(op, left, self.parse_product())
        return left

    def parse_product(self) -> Expr:
        left = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = "mul" if self.advance().text == "*" else "div"
            left = Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            offset = self.peek().offset
            exponent = self.parse_exponent()
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds {MAX_EXPONENT} in magnitude", offset
                )
            return Binary("pow", base, Constant(float(exponent)))
        return base

    def parse_exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.parse_exponent()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.parse_exponent()
            self.expect_op(")")
            return value
        if tok.kind == "number":
            value = self.number()
            if value != int(value):
                raise ParseError("exponent must be an integer constant", tok.offset)
            return int(value)
        self.fail("expected an integer exponent")
        raise AssertionError("unreachable")

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            return Constant(self.number())
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _VARIABLES:
                return Var(name)
            follows_paren = (
                self.peek().kind == "op" and self.peek().text == "("
            )
            if name in _FUNCTIONS and follows_paren:
                self.advance()
                child = self.parse_sum()
                self.expect_op(")")
                return Unary(name, child)
            return Parameter(name)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            expr = self.parse_sum()
            self.expect_op(")")
            return expr
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


def _jet_function(name: str, jet: Jet2) -> Jet2:
    value, rest = jet.split_constant()
    return elementary(name, rest, value)


_JET_FUNCTIONS = {name: partial(_jet_function, name) for name in _FUNCTIONS}


def _batch_function(name: str, batch: _JetBatch) -> _JetBatch:
    value, rest = batch.split_constant()
    return rest.elementary(name, value)


_BATCH_FUNCTIONS = {name: partial(_batch_function, name) for name in _FUNCTIONS}


def _lookup(name: str, params: dict[str, float]) -> float:
    try:
        return params[name]
    except KeyError:
        raise UnboundParameterError(f"parameter {name!r} is not bound") from None


def _evaluate(expr: Expr, leaves: tuple, number, functions: dict, params: dict):
    """The one walk of an expression tree, over floats, ``Jet2`` values or
    batches of them.

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


def _jet_leaves(base: tuple[float, float], order: int) -> tuple[Jet2, Jet2]:
    if order >= 1:
        du, dv = Jet2.var_u(order), Jet2.var_v(order)
    else:
        du = dv = Jet2.zeros(order)
    return du + Jet2.constant(base[0], order), dv + Jet2.constant(base[1], order)


def _expand(expr: Expr, leaves: tuple[Jet2, Jet2], params: dict[str, float]) -> Jet2:
    number = partial(Jet2.constant, order=leaves[0].order)
    # the product kernel may overflow in the discarded entries above the
    # anti-diagonal; a kept entry that is not finite fails in Jet2 itself
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(expr, leaves, number, _JET_FUNCTIONS, params)


def eval_expr_jet(
    expr: Expr,
    base: tuple[float, float],
    order: int,
    params: dict[str, float],
) -> Jet2:
    """Taylor expansion of the expression about ``base``, constant term kept."""
    return _expand(expr, _jet_leaves(base, order), params)


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


def _by_component(defn: MapDefinition, evaluate) -> list:
    out = []
    for index, comp in enumerate(defn.components):
        try:
            out.append(evaluate(comp))
        except JetDomainError as exc:
            raise JetDomainError(f"component {index + 1}: {exc}") from None
    return out


def eval_map_jet(
    defn: MapDefinition,
    base: tuple[float, float],
    order: int,
    parameters: dict[str, float] | None = None,
) -> MapJet3:
    """Taylor-mode evaluation of all three components about ``base``.

    Any order >= 0 is accepted here; the normal-form pipeline separately
    requires order >= 3 for the data it reads.  Undefined values and values
    beyond float range raise ``JetDomainError`` naming the component.
    """
    leaves = _jet_leaves(base, order)
    params = defn.bound_parameters(parameters)
    jets = _by_component(defn, lambda comp: _expand(comp, leaves, params))
    return MapJet3.from_uncentered(jets, base)


def eval_map_jets(
    defn: MapDefinition,
    bases: np.ndarray,
    order: int,
    parameters: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``eval_map_jet`` at many base points at once, for order >= 1.

    ``bases`` has shape ``(points, 2)``.  Returns the uncentred coefficients,
    shape ``(points, 3, order+1, order+1)``, and a mask of the points where
    ``eval_map_jet`` raises JetDomainError.  At every other point the
    coefficients are bit for bit those of ``eval_map_jet``.  An unbound
    parameter raises as soon as a point that has not failed reaches it.
    """
    params = defn.bound_parameters(parameters)
    count = len(bases)
    shape = (count, order + 1, order + 1)
    base_u, base_v = np.zeros(shape), np.zeros(shape)
    # as in _jet_leaves: the variable plus the constant, so a base of -0.0
    # gives +0.0
    base_u[:, 0, 0] += bases[:, 0]
    base_v[:, 0, 0] += bases[:, 1]
    base_u[:, 1, 0] += 1.0
    base_v[:, 0, 1] += 1.0
    out = np.zeros((count, 3) + shape[1:])
    failed = np.zeros(count, bool)
    # a point that fails in one component stays failed in the next; once
    # every point has failed, _JetBatch raises and the walk stops
    try:
        number = _JetBatch(np.zeros(shape), failed).constant
        with np.errstate(all="ignore"):
            for index, comp in enumerate(defn.components):
                leaves = (_JetBatch(base_u, failed), _JetBatch(base_v, failed))
                value = _evaluate(comp, leaves, number, _BATCH_FUNCTIONS, params)
                failed = failed | value.failed
                out[:, index] = value.coeffs
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
        _by_component(defn, lambda comp: eval_expr_point(comp, u, v, params))
    )
