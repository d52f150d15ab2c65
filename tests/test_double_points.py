"""Tests for the self-intersection tracer and the unit normal.

The standard cross cap has the v-axis pair (0, v), (0, -v) as its double
locus and a closed-form unit normal, so both the tracer and the normal can
be checked against exact expressions; the cubic example adds a curved
locus u = -v^2.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from crosscap.double_points import (
    DoublePointCurve,
    DoublePointSample,
    _correct,
    _DoubledSystem,
    _normal,
    curve_to_csv,
    format_float,
    trace_double_points,
    transversality_check,
)
from crosscap.errors import (
    ContractViolationError,
    SeedFailureError,
    SingularPointError,
    StepCollapseError,
)
from crosscap.expressions import eval_map_jet, parse_map_definition, stage_map_jet1
from crosscap.locate import DEFAULT_TOL_SINGULAR, align_kernel, certify_jet

RNG_SEED = 20260814

F0 = ("u", "u*v", "v^2")
CUBIC = ("u", "u*v + v^3", "u^2 + v^2")
JAC = np.zeros((3, 4))
FIXTURES = Path(__file__).parent / "fixtures"


def _certified(components, order=4):
    defn = parse_map_definition(components)
    jet = eval_map_jet(defn, (0.0, 0.0), order)
    return defn, certify_jet(jet)


def _trace(components, arc_span, step, order=4):
    defn, cert = _certified(components, order)
    return defn, trace_double_points(defn, cert, arc_span, step)


# ---------------------------------------------------------------------------
# tracing the standard cross cap


def test_standard_locus_is_the_v_axis_pairing():
    _, curve = _trace(F0, 1.0, 0.01)
    assert len(curve.samples) >= 150
    for sample in curve.samples:
        assert abs(sample.q[0]) <= 1e-8
        assert abs(sample.q_prime[0]) <= 1e-8
        assert sample.q_prime[1] == pytest.approx(-sample.q[1], abs=1e-8)
        assert sample.residual <= 1e-8
        # the common image lies on the z-axis branch (0, 0, v^2)
        assert abs(sample.image[0]) <= 1e-8
        assert abs(sample.image[1]) <= 1e-8
        assert sample.image[2] >= -1e-12
        assert sample.image[2] == pytest.approx(sample.q[1] ** 2, abs=1e-8)


def test_samples_are_ordered_and_cover_the_requested_span():
    _, curve = _trace(F0, 1.0, 0.01)
    s = [sample.s for sample in curve.samples]
    assert all(b > a for a, b in zip(s, s[1:]))
    assert all(abs(value) <= 1.0 for value in s)
    assert s[0] <= -0.9
    assert s[-1] >= 0.9
    gaps = [b - a for a, b in zip(s, s[1:])]
    assert max(gaps) <= 0.04


def test_cubic_example_locus_is_the_parabola():
    _, curve = _trace(CUBIC, 0.5, 0.01, order=6)
    assert len(curve.samples) >= 50
    for sample in curve.samples:
        for point in (sample.q, sample.q_prime):
            assert abs(point[0] + point[1] ** 2) <= 1e-8
        assert sample.residual <= 1e-8


def test_trace_rejects_nonpositive_budgets():
    defn, cert = _certified(F0)
    with pytest.raises(ContractViolationError, match="must be positive"):
        trace_double_points(defn, cert, 0.0, 0.01)
    with pytest.raises(ContractViolationError, match="must be positive"):
        trace_double_points(defn, cert, 1.0, -0.01)


# ---------------------------------------------------------------------------
# failure modes


def test_seed_failure_when_the_seed_leaves_the_domain():
    # the guarded log erases itself from the values but restricts the domain
    # to |v| < sqrt(3e-4), which excludes the seed offset
    components = ("u", "u*v", "v^2 + 0*log(0.0003 - v^2)")
    defn, cert = _certified(components)
    with pytest.raises(SeedFailureError, match="seed"):
        trace_double_points(defn, cert, 1.0, 0.01)


def test_failed_corrector_reports_the_smallest_residual_it_saw():
    # f(q) - f(q') = (u^9 - u'^9, 0, 0): every least-norm step scales u and
    # u' by 8/9, too slowly to reach the corrector tolerance in 25 steps,
    # and the residual 2 u^9 is smallest at the last of the 25 evaluations
    system = _DoubledSystem(parse_map_definition(("u^9", "0", "0")), None)
    corrected, best = _correct(system, np.array([2.0, 0.0, -2.0, 0.0]), None)
    assert corrected is None
    assert best == pytest.approx(2.0 * (2.0 * (8.0 / 9.0) ** 24) ** 9, rel=1e-9)


def test_step_collapse_when_no_progress_is_possible():
    # the domain boundary sits exactly at the seed offset, so the first
    # continuation step in either direction leaves the domain
    components = ("u", "u*v", "v^2 + 0*log(1 - 1000000000000*(v^2 - 0.0004))")
    defn, cert = _certified(components)
    with pytest.raises(StepCollapseError, match="collapsed"):
        trace_double_points(defn, cert, 1.0, 0.005)


def test_domain_exit_after_progress_returns_a_partial_curve():
    components = ("u", "u*v", "v^2 + 0*log(0.01 - v^2)")
    defn, cert = _certified(components)
    curve = trace_double_points(defn, cert, 1.0, 0.005)
    assert len(curve.samples) >= 5
    s = [sample.s for sample in curve.samples]
    assert all(b > a for a, b in zip(s, s[1:]))
    # the window |v| < 0.1 cuts the curve well short of the requested span
    assert max(abs(value) for value in s) < 0.5
    assert all(sample.residual <= 1e-8 for sample in curve.samples)


# ---------------------------------------------------------------------------
# the unit normal and the sheet angles


def _unit_normal(defn, q):
    """(f_u x f_v)/|f_u x f_v| at q, from the staged order-1 jets."""
    jets = stage_map_jet1(defn)(q)
    f_u, f_v = np.array([j[1] for j in jets]), np.array([j[2] for j in jets])
    return _normal(np.cross(f_u, f_v), f_u, f_v, q)


def test_unit_normal_matches_the_closed_form():
    defn = parse_map_definition(F0)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        u, v = rng.uniform(0.1, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
        expected = np.array([2.0 * v * v, -2.0 * v, u])
        expected /= math.sqrt(u * u + 4.0 * v * v + 4.0 * v**4)
        got = _unit_normal(defn, (u, v))
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_unit_normal_on_the_u_axis_is_vertical_with_the_sign_of_u():
    defn = parse_map_definition(F0)
    for u in (0.4, 1.0):
        assert np.allclose(_unit_normal(defn, (u, 0.0)), [0.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(_unit_normal(defn, (-u, 0.0)), [0.0, 0.0, -1.0], atol=1e-15)


def test_unit_normal_rejects_the_singular_point():
    with pytest.raises(SingularPointError, match="singular"):
        _unit_normal(parse_map_definition(F0), (0.0, 0.0))


@pytest.mark.parametrize(
    "components, arc_span, step",
    [(F0, 1.0, 0.01), (CUBIC, 0.5, 0.01), (F0, 0.2, 0.05)],
    ids=["crossed", "cubic", "mirrored"],
)
def test_samples_keep_the_jacobian_of_their_pair(components, arc_span, step):
    # the third trace stops at the diagonal guard, so half of its samples
    # are mirror images whose Jacobian halves are swapped and negated
    defn, curve = _trace(components, arc_span, step)
    for sample in curve.samples:
        at_q = eval_map_jet(defn, sample.q, 1).jacobian()
        at_q_prime = eval_map_jet(defn, sample.q_prime, 1).jacobian()
        assert np.array_equal(sample.jacobian, np.hstack([at_q, -at_q_prime]))


def test_transversality_angles_match_the_sheet_formula():
    defn, curve = _trace(F0, 1.0, 0.01)
    angles = transversality_check(curve)
    assert len(angles) == len(curve.samples)
    for sample, angle in zip(curve.samples, angles):
        v = sample.q[1]
        expected = math.acos((v * v - 1.0) / (v * v + 1.0))
        assert angle == pytest.approx(expected, abs=1e-12)


def _fixture_curve(name, arc_span, step):
    request = json.loads((FIXTURES / name).read_text())
    defn = parse_map_definition(request["components"])
    params = request.get("parameters", {})
    point = tuple(request.get("point", (0.0, 0.0)))
    cert = align_kernel(defn, point, request["order"], DEFAULT_TOL_SINGULAR, params)
    return trace_double_points(defn, cert, arc_span, step, params)


def _angles_one_sample_at_a_time(curve):
    """The per-sample loop the angles were first computed with."""

    def normal(f_u, f_v):
        c = np.cross(f_u, f_v)
        return c / float(np.linalg.norm(c))

    angles = []
    for sample in curve.samples:
        jac = sample.jacobian
        nu = normal(jac[:, 0], jac[:, 1])
        nu_p = normal(-jac[:, 2], -jac[:, 3])
        angles.append(math.acos(float(np.clip(nu @ nu_p, -1.0, 1.0))))
    return angles


def _hex_digest(angles):
    text = " ".join(map(float.hex, angles))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the angles' float.hex strings from the per-sample loop, traced
# with span 1 and step 0.002 (about 1,000 samples each)
_PINNED_ANGLES = {
    "example_cubic.json": "960cf9338bdc2238849e459108c0ba42e8a85602ba705d2cd590161914d94b40",
    "example_quartic.json": "e10f00aff369b9f5273a7117a9f401175e9c8fa13e4b026fff16837c04098fa7",
    "functions.json": "ac96e84aa6acc78a5dbf9724e15f8f8ad8da4a80b2aaf941760d1ce7b28af94c",
    "standard.json": "d2582a9a663fc937a65aa326243eda0db9e1c3823d60b80253448f9d3f9bedd2",
}


@pytest.mark.parametrize("name", sorted(_PINNED_ANGLES))
def test_transversality_angles_keep_their_pinned_bits(name):
    curve = _fixture_curve(name, 1.0, 0.002)
    angles = transversality_check(curve).tolist()
    assert list(map(float.hex, angles)) == list(
        map(float.hex, _angles_one_sample_at_a_time(curve))
    )
    assert _hex_digest(angles) == _PINNED_ANGLES[name]


@pytest.mark.parametrize(
    "components, arc_span, step",
    [(F0, 1.0, 0.01), (CUBIC, 0.5, 0.01), (F0, 0.2, 0.05)],
    ids=["crossed", "cubic", "mirrored"],
)
def test_transversality_angles_match_the_per_sample_loop(components, arc_span, step):
    _, curve = _trace(components, arc_span, step)
    angles = transversality_check(curve).tolist()
    assert list(map(float.hex, angles)) == list(
        map(float.hex, _angles_one_sample_at_a_time(curve))
    )


def _sample(u, jacobian):
    return DoublePointSample(
        s=u,
        q=(u, 1.0),
        q_prime=(u, -1.0),
        image=np.zeros(3),
        residual=0.0,
        jacobian=jacobian,
    )


def test_transversality_names_the_first_singular_sheet():
    regular = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    at_q_prime = regular.copy()
    at_q_prime[:, 3] = 0.0  # f_v(q') = 0
    at_both = np.zeros((3, 4))
    # q is checked before q', and the first sample in order is the one named
    for samples, point in [
        ((regular, at_q_prime, at_both), (0.1, -1.0)),
        ((regular, at_both, at_q_prime), (0.1, 1.0)),
    ]:
        curve = DoublePointCurve(
            samples=tuple(_sample(0.1 * k, jac) for k, jac in enumerate(samples))
        )
        with pytest.raises(SingularPointError) as info:
            transversality_check(curve)
        assert str(info.value) == (
            f"point {point} is singular; the normal direction is undefined"
        )


def test_transversality_of_an_empty_curve_is_empty():
    angles = transversality_check(DoublePointCurve(samples=()))
    assert angles.shape == (0,)


# ---------------------------------------------------------------------------
# containers and export


def test_curve_validation_rejects_bad_samples():
    good = DoublePointSample(
        s=0.1, q=(0.0, 0.1), q_prime=(0.0, -0.1), image=(0.0, 0.0, 0.01),
        residual=0.0, jacobian=JAC,
    )
    DoublePointCurve(samples=(good,))
    diagonal = DoublePointSample(
        s=0.0, q=(0.0, 0.1), q_prime=(0.0, 0.1), image=(0.0, 0.0, 0.01),
        residual=0.0, jacobian=JAC,
    )
    with pytest.raises(ContractViolationError, match="diagonal"):
        DoublePointCurve(samples=(diagonal, good))
    sloppy = DoublePointSample(
        s=0.1, q=(0.0, 0.1), q_prime=(0.0, -0.1), image=(0.0, 0.0, 0.01),
        residual=1e-6, jacobian=JAC,
    )
    with pytest.raises(ContractViolationError, match="residual"):
        DoublePointCurve(samples=(sloppy,))


def test_sample_image_is_read_only():
    sample = DoublePointSample(
        s=0.1, q=(0.0, 0.1), q_prime=(0.0, -0.1), image=(0.0, 0.0, 0.01),
        residual=0.0, jacobian=JAC,
    )
    with pytest.raises(ValueError):
        sample.image[0] = 1.0
    with pytest.raises(ValueError):
        sample.jacobian[0, 0] = 1.0


def test_csv_export_round_trips_every_field():
    _, curve = _trace(F0, 0.2, 0.05)
    text = curve_to_csv(curve)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "s,u,v,u',v',x,y,z,residual"
    assert len(lines) == len(curve.samples) + 1
    for sample, line in zip(curve.samples, lines[1:]):
        fields = [float(part) for part in line.split(",")]
        expected = [
            sample.s,
            sample.q[0],
            sample.q[1],
            sample.q_prime[0],
            sample.q_prime[1],
            sample.image[0],
            sample.image[1],
            sample.image[2],
            sample.residual,
        ]
        # .17g output reparses to the exact binary64 values
        assert fields == expected
        assert "-0," not in line and not line.startswith("-0,")


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "0"),
        (0.0, "0"),
        (5e-324, "4.9406564584124654e-324"),
        (-5e-324, "-4.9406564584124654e-324"),
        (2.2250738585072009e-308, "2.2250738585072009e-308"),  # largest subnormal
        (9999999999999998.0, "9999999999999998"),
        (1e16, "10000000000000000"),
        (1e16 + 2.0, "10000000000000002"),
        (0.1, "0.10000000000000001"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (-1.7976931348623157e308, "-1.7976931348623157e+308"),
        (np.float64(-0.0), "0"),
    ],
)
def test_format_float_writes_17_significant_digits(value, text):
    assert format_float(value) == text


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_format_float_refuses_non_finite_values(value):
    with pytest.raises(ContractViolationError):
        format_float(value)
