"""Parser, printer, and Taylor-mode evaluation of map expressions."""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscap.errors import (
    ContractViolationError,
    JetDomainError,
    ParseError,
    UnboundParameterError,
)
from crosscap.jets import Jet2
from crosscap.expressions import (
    Binary,
    Constant,
    MapDefinition,
    Parameter,
    Unary,
    Var,
    eval_expr_point,
    MAX_DEPTH,
    MAX_NESTING,
    eval_map_jet,
    eval_map_jets,
    eval_map_point,
    eval_map_points,
    expr_to_text,
    parse_expr,
    parse_map_definition,
    stage_map_jet1,
)

RNG_SEED = 20260814


# -- parse trees -----------------------------------------------------------------


def test_parse_variable_and_parameter():
    assert parse_expr("u") == Var("u")
    assert parse_expr("v") == Var("v")
    assert parse_expr("c") == Parameter("c")


def test_parse_precedence_and_associativity():
    assert parse_expr("1 + 2*3") == Binary(
        "add", Constant(1.0), Binary("mul", Constant(2.0), Constant(3.0))
    )
    assert parse_expr("1 - 2 - 3") == Binary(
        "sub", Binary("sub", Constant(1.0), Constant(2.0)), Constant(3.0)
    )
    assert parse_expr("6/2/3") == Binary(
        "div", Binary("div", Constant(6.0), Constant(2.0)), Constant(3.0)
    )


def test_parse_unary_minus_binds_tighter_than_mul():
    assert parse_expr("-u*v") == Binary("mul", Unary("neg", Var("u")), Var("v"))
    assert parse_expr("-(u*v)") == Unary("neg", Binary("mul", Var("u"), Var("v")))


def test_parse_power_binds_tightest():
    assert parse_expr("-u^2") == Unary(
        "neg", Binary("pow", Var("u"), Constant(2.0))
    )
    assert parse_expr("c*u^2") == Binary(
        "mul", Parameter("c"), Binary("pow", Var("u"), Constant(2.0))
    )


def test_parse_exponent_forms():
    assert parse_expr("v^-2") == Binary("pow", Var("v"), Constant(-2.0))
    assert parse_expr("v^(3)") == Binary("pow", Var("v"), Constant(3.0))
    assert parse_expr("v^(-(2))") == Binary("pow", Var("v"), Constant(-2.0))


def test_parse_known_functions_need_parenthesis():
    assert parse_expr("sin(v)") == Unary("sin", Var("v"))
    # a function name without '(' is an ordinary parameter
    assert parse_expr("sin + 1") == Binary("add", Parameter("sin"), Constant(1.0))


def test_parse_scientific_notation():
    assert parse_expr("1.5e-3") == Constant(1.5e-3)
    assert parse_expr(".5") == Constant(0.5)


def test_parse_whitespace_tolerated():
    assert parse_expr(" u 	+ v ") == Binary("add", Var("u"), Var("v"))
    assert parse_expr("u ") == Var("u")


# -- parse errors ------------------------------------------------------------------


def test_parse_error_trailing_operator():
    with pytest.raises(ParseError) as info:
        parse_expr("u*")
    assert info.value.offset == 2


def test_parse_error_unknown_function_call():
    # 'foo' parses as a parameter; the '(' after it cannot continue the
    # expression, so the error points there
    with pytest.raises(ParseError) as info:
        parse_expr("foo(u)")
    assert info.value.offset == 3


def test_parse_error_fractional_exponent():
    with pytest.raises(ParseError) as info:
        parse_expr("u^2.5")
    assert info.value.offset == 2


def test_exponent_magnitude_is_bounded_by_100():
    assert parse_expr("u^100") == Binary("pow", Var("u"), Constant(100.0))
    assert parse_expr("u^-100") == Binary("pow", Var("u"), Constant(-100.0))
    with pytest.raises(ParseError) as info:
        parse_expr("u + v^-(101)")
    assert info.value.offset == 6


def test_parse_error_chained_power():
    with pytest.raises(ParseError):
        parse_expr("u^v")
    with pytest.raises(ParseError):
        parse_expr("u^2^3")


def test_parse_error_unexpected_character():
    with pytest.raises(ParseError) as info:
        parse_expr("u + $")
    assert info.value.offset == 4


def test_parse_error_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse_expr("(u + v")
    with pytest.raises(ParseError):
        parse_expr("sin(u")


def test_parse_error_empty_input():
    with pytest.raises(ParseError):
        parse_expr("")


def test_no_implicit_multiplication():
    # 'cu' is a single parameter name, not c*u
    assert parse_expr("cu") == Parameter("cu")
    with pytest.raises(ParseError):
        parse_expr("2u")


def test_tree_depth_is_bounded_at_parse_time():
    # a left-deep sum of n terms is n - 1 operators deep
    at_bound = "u" + " + u" * MAX_DEPTH
    assert isinstance(parse_expr(at_bound), Binary)
    with pytest.raises(ParseError) as info:
        parse_expr(at_bound + " - u")
    assert info.value.offset == len(at_bound) + 1
    assert info.value.reason == f"expression is more than {MAX_DEPTH} operators deep"
    with pytest.raises(ParseError):
        parse_expr(" + ".join(["u"] * 5000))
    deep_base = "(u" + "*u" * MAX_DEPTH + ")"
    assert isinstance(parse_expr(deep_base), Binary)
    with pytest.raises(ParseError) as info:
        parse_expr(deep_base + "^2")
    assert info.value.offset == len(deep_base)


@pytest.mark.parametrize(
    "nested, first_excess",
    [
        (lambda n: "(" * n + "v" + ")" * n, lambda n: n),
        (lambda n: "sin(" * n + "v" + ")" * n, lambda n: 4 * n),
        (lambda n: "-" * n + "v", lambda n: n),
        (lambda n: "u^" + "(" * n + "2" + ")" * n, lambda n: 2 + n),
    ],
    ids=["parentheses", "calls", "minus-signs", "exponent"],
)
def test_nesting_is_bounded_at_parse_time(nested, first_excess):
    parse_expr(nested(MAX_NESTING))
    with pytest.raises(ParseError) as info:
        parse_expr(nested(MAX_NESTING + 1))
    assert info.value.offset == first_excess(MAX_NESTING)
    assert info.value.reason == (
        f"parentheses, calls and minus signs nest deeper than {MAX_NESTING}"
    )
    with pytest.raises(ParseError):
        parse_expr(nested(3000))


# -- printing ----------------------------------------------------------------------


def test_print_minimal_parentheses():
    assert expr_to_text(parse_expr("u + v*u")) == "u + v*u"
    assert expr_to_text(parse_expr("(u + v)*u")) == "(u + v)*u"
    assert expr_to_text(parse_expr("u - (v - u)")) == "u - (v - u)"
    assert expr_to_text(parse_expr("-(u + v)")) == "-(u + v)"
    assert expr_to_text(parse_expr("(u + v)^2")) == "(u + v)^2"
    assert expr_to_text(parse_expr("c*u^2 + v^2")) == "c*u^2 + v^2"


def _random_expr(rng: np.random.Generator, depth: int):
    # negative constants stay out of general positions: the grammar has no
    # signed literals there, so the parser renders them as unary negation
    if depth == 0 or rng.uniform() < 0.25:
        choice = rng.integers(0, 4)
        if choice == 0:
            return Constant(round(float(rng.uniform(0.0, 3.0)), 3))
        if choice == 1:
            return Var("u")
        if choice == 2:
            return Var("v")
        return Parameter(str(rng.choice(["c", "alpha", "k2"])))
    pick = rng.integers(0, 8)
    if pick < 4:
        op = ["add", "sub", "mul", "div"][int(pick)]
        return Binary(
            op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
        )
    if pick == 4:
        return Unary("neg", _random_expr(rng, depth - 1))
    if pick == 5:
        return Binary(
            "pow", _random_expr(rng, depth - 1), Constant(float(rng.integers(-3, 4)))
        )
    op = str(rng.choice(["sin", "cos", "exp"]))
    return Unary(op, _random_expr(rng, depth - 1))


def test_print_parse_round_trip_randomized():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        expr = _random_expr(rng, int(rng.integers(1, 7)))
        assert parse_expr(expr_to_text(expr)) == expr


def test_print_stabilizes_for_negative_constants():
    expr = Binary("mul", Constant(-2.0), Var("u"))
    text = expr_to_text(expr)
    reparsed = parse_expr(text)
    assert reparsed == Binary("mul", Unary("neg", Constant(2.0)), Var("u"))
    assert expr_to_text(reparsed) == text
    assert eval_expr_point(reparsed, 3.0, 0.0, {}) == eval_expr_point(
        expr, 3.0, 0.0, {}
    )


# -- pointwise evaluation ------------------------------------------------------------


def test_eval_point_basic():
    expr = parse_expr("c*u^2 + v^2")
    assert eval_expr_point(expr, 2.0, 3.0, {"c": -1.0}) == pytest.approx(5.0)


def test_eval_point_functions():
    expr = parse_expr("exp(u) + sin(v) - sqrt(4)")
    got = eval_expr_point(expr, 0.5, 0.25, {})
    assert got == pytest.approx(math.exp(0.5) + math.sin(0.25) - 2.0)


def test_eval_point_domain_errors():
    assert eval_expr_point(parse_expr("log(u)"), 1.0, 0.0, {}) == 0.0
    with pytest.raises(JetDomainError):
        eval_expr_point(parse_expr("log(u)"), -1.0, 0.0, {})
    with pytest.raises(JetDomainError):
        eval_expr_point(parse_expr("sqrt(u)"), -1.0, 0.0, {})
    with pytest.raises(JetDomainError):
        eval_expr_point(parse_expr("1/u"), 0.0, 1.0, {})
    with pytest.raises(JetDomainError):
        eval_expr_point(parse_expr("u^-1"), 0.0, 1.0, {})


def test_eval_point_unbound_parameter():
    with pytest.raises(UnboundParameterError):
        eval_expr_point(parse_expr("c*u"), 1.0, 1.0, {})


# -- jet evaluation -------------------------------------------------------------------


def _expr_jet(expr, base, order, params) -> Jet2:
    """Taylor expansion of one expression about ``base``, constant term kept."""
    jet = eval_map_jet(MapDefinition((expr, Var("u"), Var("v")), params), base, order)
    coeffs = jet.components[0].coeffs.copy()
    coeffs[0, 0] = jet.base_value[0]
    return Jet2(order, coeffs)


def test_eval_jet_polynomial_exact():
    expr = parse_expr("u*v + v^3")
    jet = _expr_jet(expr, (0.0, 0.0), 4, {})
    assert jet.terms() == {(1, 1): 1.0, (0, 3): 1.0}


def test_eval_jet_recentering():
    # (u)^2 about u=3: 9 + 6 du + du^2
    jet = _expr_jet(parse_expr("u^2"), (3.0, 0.0), 2, {})
    assert jet.terms() == {(0, 0): 9.0, (1, 0): 6.0, (2, 0): 1.0}


def test_eval_jet_negative_power_series():
    # 1/(1+v) about v=0: alternating geometric series
    jet = _expr_jet(parse_expr("(1 + v)^-1"), (0.0, 0.0), 4, {})
    for k in range(5):
        assert jet[0, k] == pytest.approx((-1.0) ** k)


def test_eval_jet_division_matches_power():
    a = _expr_jet(parse_expr("u/(1 + v)"), (0.0, 0.0), 5, {})
    b = _expr_jet(parse_expr("u*(1 + v)^-1"), (0.0, 0.0), 5, {})
    assert float(np.max(np.abs(a.coeffs - b.coeffs))) <= 1e-15


def test_eval_jet_division_by_vanishing_denominator():
    with pytest.raises(JetDomainError):
        _expr_jet(parse_expr("1/v"), (0.0, 0.0), 3, {})
    with pytest.raises(JetDomainError):
        _expr_jet(parse_expr("v^-2"), (0.0, 0.0), 3, {})


def test_eval_jet_matches_finite_differences_randomized():
    # first and second partials vs central differences of the pointwise
    # evaluator; the second-difference stencil uses the larger step (its
    # round-off is ~eps/step^2)
    rng = np.random.default_rng(RNG_SEED + 1)
    sources = [
        "exp(u*v) + c*v^2",
        "sin(u + 2*v)*cos(v)",
        "sqrt(4 + u + v)",
        "log(2 + u*v)",
        "(1 + u^2)/(2 + v)",
        "u^3 - 2*u*v + v^2 - c*u",
    ]
    step1 = 1e-5
    step2 = 1e-4
    params = {"c": 0.7}
    for text in sources:
        expr = parse_expr(text)
        for _ in range(5):
            u0, v0 = rng.uniform(-0.4, 0.4, 2)
            jet = _expr_jet(expr, (u0, v0), 3, params)

            def point(x, y):
                return eval_expr_point(expr, u0 + x, v0 + y, params)

            d_u = (point(step1, 0.0) - point(-step1, 0.0)) / (2.0 * step1)
            d_v = (point(0.0, step1) - point(0.0, -step1)) / (2.0 * step1)
            d_uv = (
                point(step2, step2)
                - point(step2, -step2)
                - point(-step2, step2)
                + point(-step2, -step2)
            ) / (4.0 * step2**2)
            d_vv = (
                point(0.0, step2) - 2.0 * point(0.0, 0.0) + point(0.0, -step2)
            ) / step2**2
            assert jet[1, 0] == pytest.approx(d_u, rel=1e-6, abs=1e-6)
            assert jet[0, 1] == pytest.approx(d_v, rel=1e-6, abs=1e-6)
            assert jet[1, 1] == pytest.approx(d_uv, rel=1e-6, abs=1e-6)
            assert 2.0 * jet[0, 2] == pytest.approx(d_vv, rel=1e-6, abs=1e-6)


def test_eval_jet_truncation_consistency():
    expr = parse_expr("exp(u + v^2)*sin(u - v)")
    high = _expr_jet(expr, (0.1, -0.2), 8, {})
    low = _expr_jet(expr, (0.1, -0.2), 4, {})
    assert float(np.max(np.abs(high.truncate(4).coeffs - low.coeffs))) <= 1e-13


def test_eval_jet_evaluation_approximates_function():
    expr = parse_expr("exp(u)*cos(v)")
    jet = _expr_jet(expr, (0.0, 0.0), 10, {})
    got = jet.eval(0.1, 0.2)
    want = math.exp(0.1) * math.cos(0.2)
    assert got == pytest.approx(want, abs=1e-12)


# -- map definitions -----------------------------------------------------------------


def test_map_definition_requires_three_components():
    with pytest.raises(ValueError):
        parse_map_definition(["u", "v"])


def test_map_definition_component_error_is_indexed():
    with pytest.raises(ParseError) as info:
        parse_map_definition(["u", "u*", "v^2"])
    assert "component 2" in str(info.value)
    assert info.value.offset == 2


def test_map_evaluation_and_parameter_binding():
    defn = parse_map_definition(
        ["u", "u*v + v^3", "c*u^2 + v^2"], parameters={"c": 2.0}
    )
    image = eval_map_point(defn, 1.0, 1.0)
    assert image.tolist() == [1.0, 2.0, 3.0]
    overridden = eval_map_point(defn, 1.0, 1.0, parameters={"c": -1.0})
    assert overridden.tolist() == [1.0, 2.0, 0.0]


def test_map_jet_reads_standard_cross_cap():
    defn = parse_map_definition(["u", "u*v", "v^2"])
    jet = eval_map_jet(defn, (0.0, 0.0), 3)
    assert jet.f_u().tolist() == [1.0, 0.0, 0.0]
    assert jet.f_v().tolist() == [0.0, 0.0, 0.0]
    assert jet.f_uv().tolist() == [0.0, 1.0, 0.0]
    assert jet.f_vv().tolist() == [0.0, 0.0, 2.0]


def test_map_jet_domain_error_is_indexed():
    defn = parse_map_definition(["u", "v", "log(u)"])
    with pytest.raises(JetDomainError) as info:
        eval_map_jet(defn, (-1.0, 0.0), 3)
    assert "component 3" in str(info.value)


def test_map_jet_unbound_parameter():
    defn = parse_map_definition(["u", "v", "c*u^2"])
    with pytest.raises(UnboundParameterError):
        eval_map_jet(defn, (0.0, 0.0), 3)


@pytest.mark.parametrize("order", [-1, -2, -5])
def test_map_jet_rejects_a_negative_order(order):
    with pytest.raises(ContractViolationError, match="order must be non-negative"):
        eval_map_jet(parse_map_definition(["u", "v", "u*v"]), (0.0, 0.0), order)


# -- the expansion pinned on a fixed corpus ---------------------------------------------

_FIXTURES = Path(__file__).parent / "fixtures"
_PIN_BASES = [
    (0.0, 0.0), (-0.0, 0.0), (0.5, -0.25), (-1.0, 1.0), (1.5, 0.25), (1e-160, -1e-100), (2.0, -3.0),
]
_ERROR_MAPS = [
    ("log(u)", "sqrt(v)", "u*v"),
    ("1/u", "v^-2", "(u - v)^-1"),
    ("exp(1000*u)", "(1e200*u)^2", "u*(1e300*v)"),
    ("sin(u)", "cos(v)", "c*u"),
    ("log(1 + u)", "sqrt(2 + v)", "(1 + u*v)^-3"),
    ("sqrt(u)", "log(-v)", "(u*v)^-1"),
]
_ERROR_BASES = [
    (0.0, 0.0), (-0.0, -0.0), (math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0),
    (1e300, 1.0), (1.0, 1e300), (-1e300, -1.0), (1e-300, 1e-300),
]


def _random_tree_text(rng, depth: int) -> str:
    """A map component in the parser's grammar, drawn from ``rng``."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["u", "v", "c", repr(round(rng.uniform(-2.0, 2.0), 3))])
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "neg", "sin", "cos", "exp", "log", "sqrt"])
    a = _random_tree_text(rng, depth - 1)
    if kind in ("add", "sub", "mul", "div"):
        b = _random_tree_text(rng, depth - 1)
        return f"({a}){'+-*/'[('add', 'sub', 'mul', 'div').index(kind)]}({b})"
    if kind == "pow":
        return f"({a})^{rng.choice([-3, -2, -1, 0, 1, 2, 3, 5])}"
    if kind == "neg":
        return f"-({a})"
    if kind in ("log", "sqrt"):
        return f"{kind}(1.5 + ({a})^2)"
    return f"{kind}({a})"


def _germ_texts(rng) -> list[str]:
    """A cross cap germ moved by a rigid motion and a source change with a
    sine, cosine or exponential term, as text about a random base point."""
    u0, v0 = (round(rng.uniform(-1.0, 1.0), 3) for _ in range(2))
    du, dv = f"(u - {u0!r})", f"(v - {v0!r})"
    c = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(8)]
    x = f"({c[0] + 1.0!r}*{du} + {c[1]!r}*{dv} + {c[2]!r}*{du}*{dv} + {c[3]!r}*(sin({dv}) - {dv}))"
    y = f"({c[4]!r}*{du} + {c[5] + 1.0!r}*{dv} + {c[6]!r}*(1 - cos({du})) + {c[7]!r}*(exp({dv}) - 1 - {dv}))"
    g = [x, f"{x}*{y} + 0.7*{y}^3 + 0.2*{y}^5", f"{y}^2 + 0.3*{x}^2 - 0.4*{x}*{y}^2 + 0.1*{y}^4"]
    r = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(9)]
    return [f"{r[3 * i]!r} + {r[3 * i + 1]!r}*{g[i]} - {r[3 * i + 2]!r}*{g[(i + 1) % 3]}" for i in range(3)]


def _pin_corpus():
    """(components, parameters, base, order) for every expansion pinned by
    ``test_eval_map_jet_matches_its_pinned_digest``."""
    for path in sorted(_FIXTURES.glob("*.json")):
        request = json.loads(path.read_text())
        if path.name == "bad_parse.json":
            continue
        params = {k: x for k, x in request.get("parameters", {}).items() if not isinstance(x, list)}
        for base in _PIN_BASES:
            for order in range(13):
                yield request["components"], params, base, order
    rng = random.Random(20260814)
    for _ in range(60):
        texts = [_random_tree_text(rng, 4) for _ in range(3)]
        for base in _PIN_BASES[::2]:
            for order in (-1, 0, 1, 3, 6):
                yield texts, {"c": 0.75}, base, order
    for _ in range(12):
        texts = _germ_texts(rng)
        for order in (6, 9, 12):
            yield texts, {}, (0.125, -0.375), order
    for texts in _ERROR_MAPS:
        for base in _ERROR_BASES:
            for order in range(4):
                yield texts, {}, base, order
    for value in (math.inf, -math.inf, math.nan, 1e300):
        yield ["u", "v", "c*u^2"], {"c": value}, (0.5, 0.5), 3


PINNED_CASES, PINNED_ERRORS = 2275, 636
PINNED_DIGEST = "c313006ab8fd0539016f187938d9a61edfeccc9d3b9378b7055550c8892c5440"


def test_eval_map_jet_matches_its_pinned_digest():
    # sha256 over the coefficients, base values, and error types and
    # messages of every expansion of the corpus, as computed by the
    # Jet2 expression walk that eval_map_jet used before it ran as a batch
    # of one base point; a digest is bit for bit or not at all
    digest = hashlib.sha256()
    cases = errors = 0
    for texts, params, base, order in _pin_corpus():
        defn = parse_map_definition(texts, params)
        digest.update(repr((texts, sorted(params.items()), [float(x).hex() for x in base], order)).encode())
        try:
            jet = eval_map_jet(defn, base, order)
        except Exception as exc:  # noqa: BLE001 -- the type is part of the digest
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            errors += 1
        else:
            digest.update(np.array(jet.base_value).tobytes())
            for comp in jet.components:
                digest.update(comp.coeffs.tobytes())
        cases += 1
    assert (cases, errors) == (PINNED_CASES, PINNED_ERRORS)
    assert digest.hexdigest() == PINNED_DIGEST


# -- properties over generated trees ---------------------------------------------------

# Trees the parser can produce: non-negative literals, integer exponents, and
# parameter names that include a function name not followed by "(".
_LEAVES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Constant),
    st.sampled_from(["u", "v"]).map(Var),
    st.sampled_from(["a", "c", "sin", "uv"]).map(Parameter),
)


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"]), children),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
        st.builds(
            lambda base, m: Binary("pow", base, Constant(float(m))),
            children,
            st.integers(-3, 5),
        ),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=10)
_COORDINATES = st.floats(-1e3, 1e3, allow_nan=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TREES)
def test_print_parse_round_trip_property(expr):
    assert parse_expr(expr_to_text(expr)) == expr


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    _TREES,
    _COORDINATES,
    _COORDINATES,
    st.dictionaries(st.sampled_from(["a", "c", "sin"]), _COORDINATES),
)
def test_evaluation_is_finite_or_a_domain_error_property(expr, u, v, params):
    defn = MapDefinition((Var("u"), Var("v"), expr), params)
    try:
        assert np.isfinite(eval_map_point(defn, u, v)).all()
    except (JetDomainError, UnboundParameterError):
        pass
    for order in range(4):
        try:
            jet = eval_map_jet(defn, (u, v), order)
        except (JetDomainError, UnboundParameterError):
            continue
        assert np.isfinite(jet.base_value).all()
        assert all(np.isfinite(c.coeffs).all() for c in jet.components)


def _assert_batch_matches_each_point(defn, bases, order):
    outcomes = []
    for u, v in bases:
        try:
            outcomes.append(eval_map_jet(defn, (u, v), order))
        except JetDomainError:
            outcomes.append(None)
        except UnboundParameterError:
            outcomes.append(UnboundParameterError)
    if UnboundParameterError in outcomes:
        with pytest.raises(UnboundParameterError):
            eval_map_jets(defn, bases, order)
        return
    coeffs, failed = eval_map_jets(defn, bases, order)
    assert failed.tolist() == [jet is None for jet in outcomes]
    for jet, got in zip(outcomes, coeffs):
        if jet is not None:
            want = np.stack([c.coeffs for c in jet.components])
            want[:, 0, 0] = jet.base_value
            assert got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.tuples(_TREES, _TREES, _TREES),
    st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=5),
    st.integers(1, 3),
    st.dictionaries(st.sampled_from(["a", "c", "sin"]), _COORDINATES),
)
def test_batched_jets_match_each_point_bit_for_bit_property(trees, points, order, params):
    defn = MapDefinition(trees, params)
    _assert_batch_matches_each_point(defn, np.array(points + [(-0.0, 0.0)]), order)


@pytest.mark.parametrize(
    "component",
    [
        "log(u)^0",  # a failure survives a zeroth power
        "sin(log(u))",  # and a function of the failed value
        "-log(u) + v",
        "sin(-u) + cos(-v)",
        "(u - 1)^-2 + sqrt(v + 1)",
        "exp(700*u)",  # math.exp overflows at u = 1.5 alone
    ],
)
def test_batched_jets_match_at_failures_and_signed_zeros(component):
    defn = parse_map_definition(["u", "v", component])
    bases = np.array([[-1.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [1.0, -1.0], [1.5, 0.25]])
    for order in (1, 2, 3):
        _assert_batch_matches_each_point(defn, bases, order)


def test_batched_jets_reach_a_parameter_only_from_a_point_that_holds():
    # every point fails in the first component, so the unbound c is never read
    defn = parse_map_definition(["sqrt(u - 5)", "v", "c"])
    coeffs, failed = eval_map_jets(defn, np.array([[0.0, 0.0], [1.0, 2.0]]), 2)
    assert failed.tolist() == [True, True]
    defn = parse_map_definition(["sqrt(u)", "v", "c"])
    with pytest.raises(UnboundParameterError):
        eval_map_jets(defn, np.array([[-1.0, 0.0], [1.0, 2.0]]), 2)


_EDGE_COORDINATES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-160, -1e-100, 1e-60, 1e150, -1e150, 1e-310]


def _edge_bases(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` base points, half drawn from values at the edges of the
    jet arithmetic (signed zeros, subnormals, magnitudes whose products
    overflow) and half uniform in [-2, 2]."""
    bases = rng.choice(_EDGE_COORDINATES, (count, 2))
    uniform = rng.random(count) < 0.5
    bases[uniform] = rng.uniform(-2.0, 2.0, (int(uniform.sum()), 2))
    return bases


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.tuples(_TREES, _TREES, _TREES),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
    st.dictionaries(st.sampled_from(["a", "c", "sin"]), _COORDINATES),
)
def test_large_batches_match_each_point_at_orders_0_to_4_property(trees, order, seed, params):
    bases = _edge_bases(np.random.default_rng(seed), 200)
    _assert_batch_matches_each_point(MapDefinition(trees, params), bases, order)


@pytest.mark.parametrize(
    "components",
    [
        ("(1e200*u)^2", "u*(1e300*v)", "v"),  # products overflow at some points
        ("u/2", "v/(1 + u)", "(u - v)/(1 + u)^2"),  # constant and varying divisors
        ("u^0 + v^1", "u^2 - v^3", "(u + v)^4 - u^5"),
        ("(-(0*u))^1", "-(0*v)^1", "(-u)^1"),  # a first power clears -0.0
        ("sin(-u - v)", "cos(-(u*v))", "exp(u - v)"),  # centres of both signs of zero
        ("sin(-u) - sin(v)", "cos(u) + exp(-v)", "-0.0"),
        ("sqrt(u)", "log(v)", "(u*v)^-1"),  # domain failures at some points
    ],
)
def test_large_batches_match_each_point_at_the_edges(components):
    defn = parse_map_definition(list(components))
    bases = _edge_bases(np.random.default_rng(RNG_SEED), 240)
    for order in range(5):
        _assert_batch_matches_each_point(defn, bases, order)


def test_batched_jets_match_each_point_at_zero_centres_of_both_signs():
    # -u - v is +0.0 at (1, -1) and -0.0 at (0, 0): one batch expands each
    # function about both zeros
    defn = parse_map_definition(["sin(-u - v)", "cos(-u - v)", "exp(-u - v)"])
    bases = np.array([[1.0, -1.0], [0.0, 0.0], [-0.0, 0.0], [0.5, 0.25]])
    for order in range(4):
        _assert_batch_matches_each_point(defn, bases, order)


@pytest.mark.parametrize("components", [("2", "3", "v"), ("2", "-u", "3")])
def test_batched_jets_fail_a_base_point_beyond_float_range(components):
    # eval_map_jet raises at such a point even when no component reads it
    defn = parse_map_definition(list(components))
    bases = np.array([[math.inf, 0.0], [0.0, 1.0], [math.nan, 1.0], [1.0, -math.inf]])
    for order in range(3):
        _assert_batch_matches_each_point(defn, bases, order)


# -- point arrays and order-1 jets ---------------------------------------------------

_SPECIAL_COORDINATES = st.one_of(
    _COORDINATES,
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e-310, 1e308, -1e308]),
)


def _images(components, failed):
    """The components broadcast to the shape of ``failed``, stacked on a
    last axis of three."""
    return np.stack([np.broadcast_to(c, failed.shape) for c in components], axis=-1)


def _assert_points_match_each_point(defn, points):
    us = np.array([u for u, _ in points])
    vs = np.array([v for _, v in points])
    components, failed = eval_map_points(defn, us, vs)
    images = _images(components, failed)
    assert images.shape == (len(points), 3)
    for (u, v), image, bad in zip(points, images, failed):
        try:
            want = eval_map_point(defn, u, v)
        except (JetDomainError, UnboundParameterError):
            assert bad
            continue
        assert not bad
        assert image.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.tuples(_TREES, _TREES, _TREES),
    st.lists(st.tuples(_SPECIAL_COORDINATES, _SPECIAL_COORDINATES), min_size=1, max_size=8),
    st.dictionaries(st.sampled_from(["a", "c", "sin"]), _COORDINATES),
)
def test_point_arrays_match_each_point_bit_for_bit_property(trees, points, params):
    defn = MapDefinition(trees, params)
    _assert_points_match_each_point(defn, points + [(-0.0, 0.0), (0.0, -0.0)])


@pytest.mark.parametrize(
    "component",
    [
        "1/(1e308*10*u)",  # inf on the way is not a failure; nan at the end is
        "1/(1/u)",
        "(2*u)^-1",
        "exp(-exp(1000*u))",
        "sqrt(u - 0.5)",
        "u^0*(1e308*10*u - 1e308*10*u)^0",  # nan^0 is 1
        "1/exp(1e308*10*u) + 1/(1e308*10*v)^2",  # exp(inf) and inf^2 raise nothing
        "log(0 - 1)*u",  # fails every point without u or v
        "u^7 - v^-2 + sin(u)/cos(v)",
        "-u*v - -0.0",
    ],
)
def test_point_arrays_match_each_point_at_failures_and_signed_zeros(component):
    defn = parse_map_definition(["u", "v", component])
    grid = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 1e-310]
    _assert_points_match_each_point(defn, [(u, v) for u in grid for v in grid])


def _assert_grid_matches_each_point(defn, us, vs):
    """On the grid ``us`` x ``vs``, evaluated as a column and a row."""
    components, failed = eval_map_points(
        defn, np.array(us)[:, None], np.array(vs)[None, :]
    )
    assert failed.shape == (len(us), len(vs))
    # each component keeps only the axes of the variables in it, unless a
    # part raised for every point
    if not failed.all():
        for comp, values in zip(defn.components, components):
            names = _variables(comp)
            shape = (len(us) if "u" in names else 1, len(vs) if "v" in names else 1)
            assert values.shape == (shape if names else ())
    images = _images(components, failed)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            try:
                want = eval_map_point(defn, u, v)
            except (JetDomainError, UnboundParameterError):
                assert failed[i, j]
                continue
            assert not failed[i, j]
            assert images[i, j].tobytes() == want.tobytes()


def _variables(expr) -> set:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Unary):
        return _variables(expr.child)
    if isinstance(expr, Binary):
        return _variables(expr.left) | _variables(expr.right)
    return set()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.tuples(_TREES, _TREES, _TREES),
    st.lists(_SPECIAL_COORDINATES, min_size=1, max_size=4),
    st.lists(_SPECIAL_COORDINATES, min_size=1, max_size=4),
    st.dictionaries(st.sampled_from(["a", "c", "sin"]), _COORDINATES),
)
def test_grid_points_match_each_point_bit_for_bit_property(trees, us, vs, params):
    defn = MapDefinition(trees, params)
    _assert_grid_matches_each_point(defn, us + [-0.0, 0.0], vs + [0.0, -0.0])


@pytest.mark.parametrize(
    "components",
    [
        ("sqrt(u - 0.5)", "v", "u*v"),  # a part in u alone fails whole grid lines
        ("u", "1/v", "v^-2 + u"),  # a part in v alone
        ("u", "v", "log(0 - 1)*u"),  # a part with neither fails every point
        ("2", "-0.0", "u*v"),  # components with no variable
        ("2", "sqrt(v - 0.5)", "-0.0"),
        ("-(0*u)", "-v*0", "-0.0*u*v"),  # signed zeros in one axis or both
        ("1e308*10", "u", "v"),  # a component with no variable beyond range
        ("(u + v)^2", "sin(u - v)", "u*v"),
    ],
)
def test_grid_points_match_each_point_at_failures_and_signed_zeros(components):
    defn = parse_map_definition(list(components))
    grid = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 1e-310]
    _assert_grid_matches_each_point(defn, grid, grid[::-1])


def test_point_arrays_fail_everywhere_on_an_unbound_parameter():
    defn = parse_map_definition(["1/u", "c*v", "u"])
    _, failed = eval_map_points(defn, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert failed.tolist() == [True, True]


def _assert_order1_matches_jet(defn, base):
    try:
        jet = eval_map_jet(defn, base, 1)
    except (JetDomainError, UnboundParameterError) as exc:
        with pytest.raises(type(exc)) as info:
            stage_map_jet1(defn)(base)
        assert str(info.value) == str(exc)
        return
    jets = stage_map_jet1(defn)(base)
    assert np.array([j[0] for j in jets]).tobytes() == np.array(jet.base_value).tobytes()
    assert np.array([j[1:] for j in jets]).tobytes() == jet.jacobian().tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.tuples(_TREES, _TREES, _TREES),
    st.tuples(_SPECIAL_COORDINATES, _SPECIAL_COORDINATES),
    st.dictionaries(st.sampled_from(["a", "c", "sin"]), _COORDINATES),
)
def test_order1_jets_match_the_jet_bit_for_bit_property(trees, base, params):
    _assert_order1_matches_jet(MapDefinition(trees, params), base)


@pytest.mark.parametrize(
    "component",
    [
        "sin(-u) + cos(-v)",
        "-u*v + exp(u) - log(1 + v^2)",
        "sqrt(2 + u)/(3 - v)",
        "(u - 1)^-2 + v^-2",
        "u^7 - 0*v",
        "-(0*u) - -0.0",
        "-u*v",  # -0.5 * +0.0 is -0.0; the product's entry starts at +0.0
        "-1*v + 0*u",
        "log(u)^0",
        "(1e-300 + u)^-1",
        "1e308*10*u",
    ],
)
def test_order1_jets_match_the_jet_at_failures_and_signed_zeros(component):
    defn = parse_map_definition(["u", "v", component])
    for base in [(0.0, 0.0), (-0.0, -0.0), (-1.0, 0.0), (1.0, -1.0), (1.5, 0.25), (0.5, -0.0)]:
        _assert_order1_matches_jet(defn, base)


@pytest.mark.parametrize(
    "components, kinds",
    [
        # log(u) leaves its domain at u <= 0, the power of v overflows at
        # large |v|, and the quotient meets a negative power of zero at v = 0.5
        (("log(u) + v", "1e300*v^4*u + u*v", "sqrt(1 + u^2)/(v - 0.5)"),
         {"ok", "domain", "range"}),
        # exp overflows at large u, log(v) fails at v <= 0, and every other
        # base reaches the unbound parameter c
        (("exp(u)", "log(v)", "u*v + c"), {"domain", "range", "unbound"}),
    ],
)
def test_a_staged_map_gives_each_base_what_a_fresh_jet_gives(components, kinds):
    defn = parse_map_definition(list(components))
    jets = stage_map_jet1(defn)
    rng = np.random.default_rng(RNG_SEED)
    special = [0.0, -0.0, 0.5, -1.0, 2.0, 1e3, -1e3, 1e80, 800.0, 1e-310]
    bases = [tuple(rng.choice(special, 2)) for _ in range(100)]
    bases += [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(100)]
    seen = set()
    for base in bases:
        try:
            jet = eval_map_jet(defn, base, 1)
        except (JetDomainError, UnboundParameterError) as exc:
            with pytest.raises(type(exc)) as info:
                jets(base)
            assert str(info.value) == str(exc)
            if isinstance(exc, UnboundParameterError):
                seen.add("unbound")
            else:
                seen.add("range" if "range" in str(exc) else "domain")
            continue
        value, du, dv = np.array(jets(base)).T
        assert value.tobytes() == np.array(jet.base_value).tobytes()
        assert np.column_stack([du, dv]).tobytes() == jet.jacobian().tobytes()
        seen.add("ok")
    assert seen == kinds
