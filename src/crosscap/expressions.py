"""Closed-form map definitions: parsing, printing, and Taylor-mode evaluation.

The grammar is deliberately small.  Precedence from loosest to tightest:
``+ -``, then ``* /``, then unary ``-``, then ``^``.  The binary operators
``+ - * /`` associate to the left.  Exponents of ``^`` must be integer
constants (optionally negated or parenthesized), so chained powers are
rejected at parse time.  The names ``u`` and ``v`` are the surface
parameters; any other identifier is a free parameter, except a known
function name (sin, cos, exp, log, sqrt) directly followed by ``(``.
Implicit multiplication is not accepted: ``c*u^2``, never ``cu^2``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import JetDomainError, ParseError, UnboundParameterError
from .jets import Jet2, MapJet3, elementary

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
    "eval_map_point",
    "expr_to_text",
    "parse_expr",
    "parse_map_definition",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
_VARIABLES = ("u", "v")


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
            exponent = self.parse_exponent()
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
            value = float(tok.text)
            if value != int(value):
                raise ParseError("exponent must be an integer constant", tok.offset)
            self.advance()
            return int(value)
        self.fail("expected an integer exponent")
        raise AssertionError("unreachable")

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Constant(float(tok.text))
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


def _lookup(name: str, params: dict[str, float]) -> float:
    try:
        return params[name]
    except KeyError:
        raise UnboundParameterError(f"parameter {name!r} is not bound") from None


def eval_expr_point(expr: Expr, u: float, v: float, params: dict[str, float]) -> float:
    """Plain numeric evaluation, used for meshes and finite-difference checks."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Var):
        return u if expr.name == "u" else v
    if isinstance(expr, Parameter):
        return _lookup(expr.name, params)
    if isinstance(expr, Unary):
        x = eval_expr_point(expr.child, u, v, params)
        if expr.op == "neg":
            return -x
        if expr.op == "log":
            if x <= 0.0:
                raise JetDomainError(f"log of a non-positive value {x}")
            return math.log(x)
        if expr.op == "sqrt":
            if x < 0.0:
                raise JetDomainError(f"sqrt of a negative value {x}")
            return math.sqrt(x)
        return getattr(math, expr.op)(x)
    if isinstance(expr, Binary):
        a = eval_expr_point(expr.left, u, v, params)
        if expr.op == "pow":
            assert isinstance(expr.right, Constant)
            m = int(expr.right.value)
            if m < 0 and a == 0.0:
                raise JetDomainError("negative power of zero")
            return a ** m
        b = eval_expr_point(expr.right, u, v, params)
        if expr.op == "add":
            return a + b
        if expr.op == "sub":
            return a - b
        if expr.op == "mul":
            return a * b
        if b == 0.0:
            raise JetDomainError("division by zero")
        return a / b
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expr_jet(
    expr: Expr,
    base: tuple[float, float],
    order: int,
    params: dict[str, float],
) -> Jet2:
    """Taylor expansion of the expression about ``base``, constant term kept."""
    if isinstance(expr, Constant):
        return Jet2.constant(expr.value, order)
    if isinstance(expr, Var):
        if expr.name == "u":
            jet = Jet2.var_u(order) if order >= 1 else Jet2.zeros(order)
            return jet + Jet2.constant(base[0], order)
        jet = Jet2.var_v(order) if order >= 1 else Jet2.zeros(order)
        return jet + Jet2.constant(base[1], order)
    if isinstance(expr, Parameter):
        return Jet2.constant(_lookup(expr.name, params), order)
    if isinstance(expr, Unary):
        child = eval_expr_jet(expr.child, base, order, params)
        if expr.op == "neg":
            return -child
        value, rest = child.split_constant()
        return elementary(expr.op, rest, value)
    if isinstance(expr, Binary):
        left = eval_expr_jet(expr.left, base, order, params)
        if expr.op == "pow":
            assert isinstance(expr.right, Constant)
            m = int(expr.right.value)
            if m >= 0:
                acc = Jet2.constant(1.0, order)
                for _ in range(m):
                    acc = acc * left
                return acc
            value, rest = left.split_constant()
            if value == 0.0:
                raise JetDomainError(
                    "negative power of an expression vanishing at the base point"
                )
            return elementary("pow_int", rest, value, exponent=m)
        right = eval_expr_jet(expr.right, base, order, params)
        if expr.op == "add":
            return left + right
        if expr.op == "sub":
            return left - right
        if expr.op == "mul":
            return left * right
        value, rest = right.split_constant()
        if value == 0.0:
            raise JetDomainError(
                "division by an expression vanishing at the base point"
            )
        return left * elementary("pow_int", rest, value, exponent=-1)
    raise TypeError(f"not an expression node: {expr!r}")


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
    params = defn.bound_parameters(parameters)
    jets = []
    for index, comp in enumerate(defn.components):
        try:
            jets.append(eval_expr_jet(comp, base, order, params))
        except (JetDomainError, OverflowError) as exc:
            raise JetDomainError(f"component {index + 1}: {exc}") from None
    return MapJet3.from_uncentered(jets, base)


def eval_map_point(
    defn: MapDefinition,
    u: float,
    v: float,
    parameters: dict[str, float] | None = None,
) -> np.ndarray:
    """Pointwise image of the map, one 3-vector; errors as in ``eval_map_jet``."""
    params = defn.bound_parameters(parameters)
    out = []
    for index, comp in enumerate(defn.components):
        try:
            out.append(eval_expr_point(comp, u, v, params))
        except (JetDomainError, OverflowError) as exc:
            raise JetDomainError(f"component {index + 1}: {exc}") from None
    return np.array(out)
