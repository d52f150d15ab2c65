"""Jet arithmetic against independent oracles.

The multiplication oracle is a naive quadruple loop over coefficient pairs;
symbolic cross-checks use sympy expansions.  Randomized property runs use a
fixed seed so failures are reproducible.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy

from crosscap.errors import (
    ContractViolationError,
    JetDomainError,
    NotInvertibleError,
)
from crosscap.expressions import eval_map_jet, parse_map_definition
from crosscap.jets import (
    Jet1,
    Jet2,
    MapJet3,
    _univariate_series,
    diffeo_invert,
    mul_coeffs,
)

RNG_SEED = 20260814
N_PROPERTY_TRIALS = 200
RING_TOL = 1e-13
COMPOSE_TOL = 1e-12


def _naive_mul(a: Jet2, b: Jet2) -> Jet2:
    n = a.order
    out = np.zeros((n + 1, n + 1))
    for j1 in range(n + 1):
        for k1 in range(n + 1 - j1):
            for j2 in range(n + 1):
                for k2 in range(n + 1 - j2):
                    if j1 + j2 + k1 + k2 <= n:
                        out[j1 + j2, k1 + k2] += a[j1, k1] * b[j2, k2]
    return Jet2(n, out)


def _sympy_jet(expr: sympy.Expr, order: int) -> Jet2:
    u, v = sympy.symbols("u v")
    expanded = sympy.expand(expr)
    arr = np.zeros((order + 1, order + 1))
    poly = sympy.Poly(expanded, u, v)
    for (j, k), coeff in poly.terms():
        if j + k <= order:
            arr[j, k] = float(coeff)
    return Jet2(order, arr)


def _random_jet(rng: np.random.Generator, order: int, centred: bool = False) -> Jet2:
    arr = rng.uniform(-1.0, 1.0, (order + 1, order + 1))
    if centred:
        arr[0, 0] = 0.0
    return Jet2(order, arr)


def _assert_close(x: Jet2, y: Jet2, tol: float) -> None:
    scale = max(1.0, x.max_abs(), y.max_abs())
    diff = float(np.max(np.abs(x.coeffs - y.coeffs)))
    assert diff <= tol * scale, f"coefficient difference {diff:.3e} > {tol:.1e}"


def _partial_u(jet: Jet2) -> Jet2:
    """The u-derivative by coefficient shift; its order is one lower."""
    n = jet.order
    return Jet2(n - 1, np.arange(1, n + 1)[:, None] * jet.coeffs[1:, :-1])


def _partial_v(jet: Jet2) -> Jet2:
    """The v-derivative by coefficient shift; its order is one lower."""
    n = jet.order
    return Jet2(n - 1, np.arange(1, n + 1)[None, :] * jet.coeffs[:-1, 1:])


# -- Jet1 ---------------------------------------------------------------------


def test_jet1_eval_is_polynomial_evaluation():
    jet = Jet1([1.0, -2.0, 0.5])
    for t in (-1.0, 0.0, 0.3, 2.0):
        assert jet.eval(t) == pytest.approx(1.0 - 2.0 * t + 0.5 * t * t, abs=1e-15)


def test_jet1_truncate_pads_and_drops():
    jet = Jet1([1.0, 2.0, 3.0])
    up = jet.truncate(4)
    assert up.coeffs.tolist() == [1.0, 2.0, 3.0, 0.0, 0.0]
    down = jet.truncate(1)
    assert down.coeffs.tolist() == [1.0, 2.0]


def test_jet1_rejects_empty_and_nonfinite():
    with pytest.raises(ContractViolationError):
        Jet1([])
    with pytest.raises(ContractViolationError):
        Jet1([1.0, math.nan])


def test_jet1_is_immutable():
    jet = Jet1([1.0, 2.0])
    with pytest.raises(AttributeError):
        jet.order = 5
    with pytest.raises(ValueError):
        jet.coeffs[0] = 9.0


# -- Jet2 construction ----------------------------------------------------------


def test_jet2_zeroes_outside_triangle():
    arr = np.ones((3, 3))
    jet = Jet2(2, arr)
    assert jet[2, 2] == 0.0
    assert jet[1, 2] == 0.0
    assert jet[2, 1] == 0.0
    assert jet[1, 1] == 1.0


def test_jet2_from_terms_rejects_overflow():
    with pytest.raises(ContractViolationError):
        Jet2.from_terms(2, {(2, 1): 1.0})


def test_jet2_is_immutable():
    jet = Jet2.var_u(3)
    with pytest.raises(AttributeError):
        jet.order = 1
    with pytest.raises(ValueError):
        jet.coeffs[0, 0] = 1.0


def test_jet2_shape_mismatch_rejected():
    with pytest.raises(ContractViolationError):
        Jet2(3, np.zeros((3, 3)))


# -- multiplication fixed cases --------------------------------------------------


def test_mul_monomials():
    u = Jet2.var_u(2)
    v = Jet2.var_v(2)
    assert (u * v).terms() == {(1, 1): 1.0}


def test_mul_difference_of_squares():
    one = Jet2.constant(1.0, 2)
    u = Jet2.var_u(2)
    prod = (one + u) * (one - u)
    assert prod.terms() == {(0, 0): 1.0, (2, 0): -1.0}


def test_mul_square_of_u_plus_v2():
    base = Jet2.from_terms(4, {(1, 0): 1.0, (0, 2): 1.0})
    assert (base * base).terms() == {(2, 0): 1.0, (1, 2): 2.0, (0, 4): 1.0}


def test_mul_matches_naive_oracle_randomized():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(N_PROPERTY_TRIALS):
        order = int(rng.integers(0, 9))
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        _assert_close(a * b, _naive_mul(a, b), RING_TOL)


def test_mul_coeffs_keeps_the_longdouble_dtype():
    # the normal-form solve multiplies through this kernel in extended
    # precision; rounding a product to float64 would cost that accuracy
    rng = np.random.default_rng(RNG_SEED + 2)
    for order in (0, 3, 8):
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        product = mul_coeffs(
            a.coeffs.astype(np.longdouble), b.coeffs.astype(np.longdouble)
        )
        assert product.dtype == np.longdouble
        idx = np.arange(order + 1)
        assert not product[idx[:, None] + idx[None, :] > order].any()
        _assert_close(Jet2(order, product.astype(float)), _naive_mul(a, b), RING_TOL)
    x = np.longdouble(1.0) + np.longdouble(2.0) ** -30
    square = mul_coeffs(np.full((1, 1), x), np.full((1, 1), x))
    assert square[0, 0] == x * x


def test_mul_matches_sympy_oracle():
    u, v = sympy.symbols("u v")
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(5):
        order = 5
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        ea = sum(
            sympy.Rational(1) * a[j, k] * u**j * v**k
            for j in range(order + 1)
            for k in range(order + 1 - j)
        )
        eb = sum(
            sympy.Rational(1) * b[j, k] * u**j * v**k
            for j in range(order + 1)
            for k in range(order + 1 - j)
        )
        _assert_close(a * b, _sympy_jet(ea * eb, order), RING_TOL)


# -- ring axioms ------------------------------------------------------------------


def test_ring_axioms_randomized():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(N_PROPERTY_TRIALS):
        order = int(rng.integers(0, 9))
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        c = _random_jet(rng, order)
        _assert_close(a + b, b + a, RING_TOL)
        _assert_close((a + b) + c, a + (b + c), RING_TOL)
        _assert_close(a * b, b * a, RING_TOL)
        _assert_close((a * b) * c, a * (b * c), RING_TOL)
        _assert_close(a * (b + c), a * b + a * c, RING_TOL)


def test_leibniz_rule_randomized():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(N_PROPERTY_TRIALS):
        order = int(rng.integers(1, 9))
        a = _random_jet(rng, order)
        b = _random_jet(rng, order)
        lower = order - 1
        for d in (_partial_u, _partial_v):
            lhs = d(a * b)
            rhs = d(a) * b.truncate(lower) + a.truncate(lower) * d(b)
            _assert_close(lhs, rhs, RING_TOL)


# -- composition -----------------------------------------------------------------


def test_compose_sign_flip():
    outer = Jet2.from_terms(2, {(1, 1): 1.0})
    inner_u = Jet2.var_u(2)
    inner_v = -Jet2.var_v(2)
    assert outer.compose(inner_u, inner_v).terms() == {(1, 1): -1.0}


def test_compose_binomial():
    outer = Jet2.from_terms(2, {(0, 2): 1.0})
    inner_u = Jet2.var_u(2)
    inner_v = Jet2.var_u(2) + Jet2.var_v(2)
    assert outer.compose(inner_u, inner_v).terms() == {
        (2, 0): 1.0,
        (1, 1): 2.0,
        (0, 2): 1.0,
    }


def test_compose_matches_sympy_oracle():
    u, v = sympy.symbols("u v")
    order = 4
    outer = Jet2.from_terms(order, {(1, 0): 1.0, (0, 3): 1.0})
    inner_u = Jet2.from_terms(order, {(1, 0): 1.0, (0, 2): 1.0})
    inner_v = Jet2.from_terms(order, {(0, 1): 1.0, (2, 0): 1.0})
    got = outer.compose(inner_u, inner_v)
    symbolic = (u + v**2) + (v + u**2) ** 3
    _assert_close(got, _sympy_jet(symbolic, order), RING_TOL)


def test_compose_identity_randomized():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(N_PROPERTY_TRIALS):
        order = int(rng.integers(1, 9))
        outer = _random_jet(rng, order)
        got = outer.compose(Jet2.var_u(order), Jet2.var_v(order))
        _assert_close(got, outer, RING_TOL)


def test_compose_associativity_randomized():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(N_PROPERTY_TRIALS):
        order = int(rng.integers(1, 9))
        outer = _random_jet(rng, order)
        g_u = _random_jet(rng, order, centred=True)
        g_v = _random_jet(rng, order, centred=True)
        h_u = _random_jet(rng, order, centred=True)
        h_v = _random_jet(rng, order, centred=True)
        via_outer = outer.compose(g_u, g_v).compose(h_u, h_v)
        via_inner = outer.compose(g_u.compose(h_u, h_v), g_v.compose(h_u, h_v))
        _assert_close(via_outer, via_inner, COMPOSE_TOL)


def test_compose_rejects_uncentred_inner():
    outer = Jet2.var_u(2)
    shifted = Jet2.var_u(2) + Jet2.constant(1.0, 2)
    with pytest.raises(JetDomainError):
        outer.compose(shifted, Jet2.var_v(2))


# -- inversion -------------------------------------------------------------------


def test_invert_identity():
    psi_u, psi_v = diffeo_invert(Jet2.var_u(4), Jet2.var_v(4))
    assert psi_u == Jet2.var_u(4)
    assert psi_v == Jet2.var_v(4)


def test_invert_diagonal_scaling():
    psi_u, psi_v = diffeo_invert(2.0 * Jet2.var_u(3), 3.0 * Jet2.var_v(3))
    assert psi_u.terms() == {(1, 0): 0.5}
    assert psi_v.terms() == {(0, 1): pytest.approx(1.0 / 3.0)}


def test_invert_shear():
    phi_u = Jet2.from_terms(3, {(1, 0): 1.0, (0, 2): 1.0})
    phi_v = Jet2.var_v(3)
    psi_u, psi_v = diffeo_invert(phi_u, phi_v)
    assert psi_u.terms() == {(1, 0): 1.0, (0, 2): -1.0}
    assert psi_v.terms() == {(0, 1): 1.0}


def _rotation2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_invert_round_trip_randomized():
    # round-off in the composition scales with the inverse's coefficients
    # (which grow with the order), so the comparison is relative to them
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(N_PROPERTY_TRIALS):
        order = int(rng.integers(1, 9))
        arr_u = rng.uniform(-0.5, 0.5, (order + 1, order + 1))
        arr_v = rng.uniform(-0.5, 0.5, (order + 1, order + 1))
        arr_u[0, 0] = arr_v[0, 0] = 0.0
        linear = (
            _rotation2(rng.uniform(0.0, 2.0 * math.pi))
            @ np.diag(rng.uniform(0.5, 1.5, 2))
            @ _rotation2(rng.uniform(0.0, 2.0 * math.pi))
        )
        arr_u[1, 0], arr_u[0, 1] = linear[0]
        arr_v[1, 0], arr_v[0, 1] = linear[1]
        phi_u, phi_v = Jet2(order, arr_u), Jet2(order, arr_v)
        psi_u, psi_v = diffeo_invert(phi_u, phi_v)
        scale = max(1.0, psi_u.max_abs(), psi_v.max_abs())
        ident_u, ident_v = Jet2.var_u(order), Jet2.var_v(order)
        for got, want in (
            (phi_u.compose(psi_u, psi_v), ident_u),
            (phi_v.compose(psi_u, psi_v), ident_v),
            (psi_u.compose(phi_u, phi_v), ident_u),
            (psi_v.compose(phi_u, phi_v), ident_v),
        ):
            diff = float(np.max(np.abs(got.coeffs - want.coeffs)))
            assert diff <= COMPOSE_TOL * scale


def test_invert_rejects_singular_linear_part():
    with pytest.raises(NotInvertibleError):
        diffeo_invert(Jet2.var_u(3), 2.0 * Jet2.var_u(3))


def test_invert_rejects_order_zero():
    # an order-0 jet has no linear part to invert
    with pytest.raises(ContractViolationError, match="order >= 1"):
        diffeo_invert(Jet2.constant(0.0, 0), Jet2.constant(0.0, 0))


# -- elementary functions, through the map evaluator ----------------------------


def _function_jet(text: str, order: int, base=(0.0, 0.0)) -> Jet2:
    """The expansion of one expression about ``base``, constant term kept."""
    jet = eval_map_jet(parse_map_definition([text, "u", "v"]), base, order)
    coeffs = jet.components[0].coeffs.copy()
    coeffs[0, 0] = jet.base_value[0]
    return Jet2(order, coeffs)


def test_elementary_exp_series():
    got = _function_jet("exp(u)", 2)
    assert got.terms() == {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.5}


def test_elementary_sin_series():
    got = _function_jet("sin(v)", 3)
    assert got[0, 1] == pytest.approx(1.0)
    assert got[0, 3] == pytest.approx(-1.0 / 6.0)
    assert got[0, 0] == 0.0
    # sin(pi)/2 in binary64, not an exact zero
    assert abs(got[0, 2]) <= 1e-15


def test_elementary_log_at_one_of_uv():
    got = _function_jet("log(1 + u*v)", 4)
    assert got[1, 1] == pytest.approx(1.0)
    assert got[2, 2] == pytest.approx(-0.5)
    assert got[0, 0] == 0.0


def test_elementary_against_sympy_series():
    t = sympy.symbols("t")
    rng = np.random.default_rng(RNG_SEED + 7)
    cases = [
        ("sin", sympy.sin, 0.7),
        ("cos", sympy.cos, -0.3),
        ("exp", sympy.exp, 0.2),
        ("log", sympy.log, 1.5),
        ("sqrt", sympy.sqrt, 2.0),
    ]
    order = 6
    for tag, func, center in cases:
        series = sympy.series(func(center + t), t, 0, order + 1).removeO()
        expected = [float(series.coeff(t, k)) for k in range(order + 1)]
        lam = rng.uniform(0.5, 1.0)
        # the centre as the base point of v, and as a constant beside u
        for text, base in [
            (f"{tag}({lam!r}*v)", (0.0, center / lam)),
            (f"{tag}(({center!r}) + {lam!r}*v)", (0.5, 0.0)),
        ]:
            got = _function_jet(text, order, base)
            for k in range(order + 1):
                assert got[0, k] == pytest.approx(expected[k] * lam**k, abs=1e-12)


def test_elementary_matches_finite_differences():
    # first and second partials of func(center + p(u, v)) at the origin;
    # the second-difference stencil needs the larger step or its round-off
    # (~eps/step^2) swamps the 1e-6 tolerance
    step1 = 1e-5
    step2 = 1e-4
    rng = np.random.default_rng(RNG_SEED + 8)
    cases = [
        ("sin", math.sin, 0.4),
        ("cos", math.cos, 0.4),
        ("exp", math.exp, -0.2),
        ("log", math.log, 2.0),
        ("sqrt", math.sqrt, 1.5),
    ]
    for tag, func, center in cases:
        cu, cv, cuu = rng.uniform(-0.8, 0.8, 3).tolist()
        text = f"{tag}(({center!r}) + ({cu!r})*u + ({cv!r})*v + ({cuu!r})*u^2)"
        jet = _function_jet(text, 4)

        def point(x, y):
            return func(center + cu * x + cv * y + cuu * x * x)

        d_u = (point(step1, 0.0) - point(-step1, 0.0)) / (2.0 * step1)
        d_v = (point(0.0, step1) - point(0.0, -step1)) / (2.0 * step1)
        d_uu = (
            point(step2, 0.0) - 2.0 * point(0.0, 0.0) + point(-step2, 0.0)
        ) / step2**2
        assert jet[1, 0] == pytest.approx(d_u, rel=1e-6, abs=1e-6)
        assert jet[0, 1] == pytest.approx(d_v, rel=1e-6, abs=1e-6)
        assert 2.0 * jet[2, 0] == pytest.approx(d_uu, rel=1e-6, abs=1e-6)


def test_elementary_domain_errors():
    for text, base, message in [
        ("log(u)", (0.0, 0.0), "log requires a positive base value, got 0.0"),
        ("sqrt(u - 1)", (0.0, 0.0), "sqrt requires a positive base value, got -1.0"),
        ("u^-1", (0.0, 0.0), "negative power of a value vanishing at the base point"),
        ("1/(u - v)", (0.5, 0.5), "negative power of a value vanishing at the base point"),
        ("exp(u)", (800.0, 0.0), "math range error"),
        ("log(u)", (1e-300, 0.0), "log series about the base value 1e-300 is beyond float range"),
        ("sqrt(u)", (1e-300, 0.0), "jet coefficients beyond float range"),
    ]:
        with pytest.raises(JetDomainError) as info:
            _function_jet(text, 3, base)
        assert str(info.value) == f"component 1: {message}"


def test_pow_int_at_zero_center_is_monomial_power():
    # a non-negative power is a product of jets, not a series
    got = _function_jet("v^3", 6)
    assert got.terms() == {(0, 3): 1.0}
    assert _function_jet("(-v)^3", 6).terms() == {(0, 3): -1.0}


def test_pow_int_series_needs_an_exponent():
    with pytest.raises(ContractViolationError, match="integer exponent"):
        _univariate_series("pow_int", 1.0, 3, None)


# -- evaluation --------------------------------------------------------------------


def test_eval_matches_term_sum():
    rng = np.random.default_rng(RNG_SEED + 9)
    jet = _random_jet(rng, 5)
    du, dv = 0.3, -0.2
    expected = sum(
        coeff * du**j * dv**k for (j, k), coeff in jet.terms().items()
    )
    assert jet.eval(du, dv) == pytest.approx(expected, rel=1e-13)


# -- MapJet3 -----------------------------------------------------------------------


def test_mapjet_from_uncentered_splits_constants():
    raw = [
        Jet2.constant(1.0, 3) + Jet2.var_u(3),
        Jet2.constant(-2.0, 3),
        Jet2.var_v(3),
    ]
    jet = MapJet3.from_uncentered(raw, (0.5, 0.5))
    assert jet.base_value == (1.0, -2.0, 0.0)
    assert all(c[0, 0] == 0.0 for c in jet.components)


def test_mapjet_derivative_reads_use_taylor_convention():
    comps = [
        Jet2.from_terms(3, {(1, 0): 1.0}),
        Jet2.from_terms(3, {(1, 1): 1.0}),
        Jet2.from_terms(3, {(0, 2): 1.0}),
    ]
    jet = MapJet3(comps, (0.0, 0.0), (0.0, 0.0, 0.0))
    assert jet.f_u().tolist() == [1.0, 0.0, 0.0]
    assert jet.f_v().tolist() == [0.0, 0.0, 0.0]
    assert jet.f_uv().tolist() == [0.0, 1.0, 0.0]
    assert jet.f_vv().tolist() == [0.0, 0.0, 2.0]
    assert jet.jacobian().shape == (3, 2)


def test_mapjet_requires_centred_components():
    with pytest.raises(ContractViolationError):
        MapJet3(
            [Jet2.constant(1.0, 2), Jet2.constant(0.0, 2), Jet2.constant(0.0, 2)],
            (0.0, 0.0),
            (0.0, 0.0, 0.0),
        )
