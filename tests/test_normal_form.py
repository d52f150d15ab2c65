"""Normal form reduction, its invariance, and congruence transport.

The rigidity oracle builds a congruent copy of a germ explicitly (random
target rotation and translation, random positive source jet) and checks that
reduction recovers the same characteristic coefficients.  The transport
oracle reduces the explicitly transformed map and compares against the sign
table.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from crosscap.errors import (
    ContractViolationError,
    DegenerateFrameError,
    SolveInconsistentError,
    WhitneyFailError,
)
from crosscap.expressions import eval_map_jet, parse_map_definition
from crosscap.jets import Jet1, Jet2, MapJet3
from crosscap.locate import align_kernel, certify_jet
from crosscap.normal_form import (
    CongruenceMotion,
    CrossCapFrame,
    NormalForm,
    characteristic_invariants,
    reduce_to_normal_form,
    transport_normal_form,
)

RNG_SEED = 20260814
ORDER = 6

F0 = parse_map_definition(["u", "u*v", "v^2"])
EXAMPLE_CUBIC = parse_map_definition(["u", "u*v + v^3", "c*u^2 + v^2"])
EXAMPLE_QUARTIC = parse_map_definition(["u", "u*v + v^4", "c*u^2 + v^2"])
EXAMPLE_FLAT = parse_map_definition(["u", "u*v", "c*u^2 + v^2"])
FAMILIES = (EXAMPLE_CUBIC, EXAMPLE_QUARTIC, EXAMPLE_FLAT)
C_VALUES = (-1.0, 0.0, 1.0, 2.0)


def _reduce(defn, c=None, order=ORDER):
    params = None if c is None else {"c": float(c)}
    cert = align_kernel(defn, (0.0, 0.0), order, parameters=params)
    return reduce_to_normal_form(cert, order)


def _random_so3(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _move_target(jet: MapJet3, matrix, offset=(0.0, 0.0, 0.0)) -> MapJet3:
    """The jet of ``matrix @ f + offset``, the target half of a congruence."""
    m = np.asarray(matrix, dtype=float)
    comps = [
        m[i, 0] * jet.components[0]
        + m[i, 1] * jet.components[1]
        + m[i, 2] * jet.components[2]
        for i in range(3)
    ]
    return MapJet3(comps, jet.base_point, m @ np.array(jet.base_value) + offset)


def _random_positive_source(rng: np.random.Generator, order: int) -> tuple[Jet2, Jet2]:
    """Random source jet with coefficients in [-0.5, 0.5] and det > 0.1."""
    while True:
        arr_u = rng.uniform(-0.5, 0.5, (order + 1, order + 1))
        arr_v = rng.uniform(-0.5, 0.5, (order + 1, order + 1))
        arr_u[0, 0] = arr_v[0, 0] = 0.0
        det = arr_u[1, 0] * arr_v[0, 1] - arr_u[0, 1] * arr_v[1, 0]
        if det > 0.1:
            return Jet2(order, arr_u), Jet2(order, arr_v)


def _congruent_copy(
    jet: MapJet3, rng: np.random.Generator
) -> MapJet3:
    """Apply a random rotation, translation, and positive source change."""
    phi_u, phi_v = _random_positive_source(rng, jet.order)
    moved = jet.precompose(phi_u, phi_v)
    rotation = _random_so3(rng)
    return _move_target(moved, rotation, rng.uniform(-1.0, 1.0, 3))


# -- frames ------------------------------------------------------------------------


def test_frame_of_standard_cross_cap_is_standard():
    frame = _reduce(F0).frame
    assert np.allclose(frame.origin, 0.0)
    assert np.allclose(frame.e1, [1.0, 0.0, 0.0])
    assert np.allclose(frame.e2, [0.0, 1.0, 0.0])
    assert np.allclose(frame.e3, [0.0, 0.0, 1.0])


def test_frame_flip_keeps_right_handedness():
    # reversing both source directions flips f_u and f_uv; the frame rule
    # flips e1 and e2 back so the second adapted component keeps +uv
    defn = parse_map_definition(["-u", "u*v", "v^2"])
    cert = align_kernel(defn, (0.0, 0.0), ORDER)
    frame = reduce_to_normal_form(cert, ORDER).frame
    rows = frame.rotation_rows()
    assert np.linalg.det(rows) == pytest.approx(1.0, abs=1e-12)
    uv = rows[1] @ cert.aligned_jet.f_uv()
    assert uv > 0.0


def test_frame_rejects_degenerate_second_order_data():
    # f_vv parallel to f_u: no principal plane
    comps = [
        Jet2.from_terms(3, {(1, 0): 1.0, (0, 2): 1.0}),
        Jet2.from_terms(3, {(1, 1): 1.0}),
        Jet2.from_terms(3, {}),
    ]
    jet = MapJet3(comps, (0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises((DegenerateFrameError, WhitneyFailError)):
        reduce_to_normal_form(certify_jet(jet), 3)


def test_frame_validation():
    with pytest.raises(ContractViolationError):
        CrossCapFrame(
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)
        )
    with pytest.raises(ContractViolationError):
        # left-handed triple
        CrossCapFrame(
            (0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)
        )


# -- reduction of the example families ------------------------------------------------


def test_standard_cross_cap_reduces_to_itself():
    nf = _reduce(F0)
    assert nf.a.terms() == {(0, 2): 1.0}
    assert nf.b.max_abs() == 0.0
    assert nf.reconstruction_residual == 0.0
    ut, vt = nf.source_change
    assert ut == Jet2.var_u(ORDER)
    assert vt == Jet2.var_v(ORDER)


@pytest.mark.parametrize("c", C_VALUES)
def test_cubic_family_coefficients(c):
    nf = _reduce(EXAMPLE_CUBIC, c)
    inv = characteristic_invariants(nf)
    assert inv["a_2_0"] == pytest.approx(c, abs=1e-10)
    assert inv["a_0_2"] == pytest.approx(1.0, abs=1e-10)
    assert inv["b_3"] == pytest.approx(1.0, abs=1e-10)
    others = {
        key: val
        for key, val in inv.items()
        if key not in ("a_2_0", "a_0_2", "b_3")
    }
    assert max(abs(val) for val in others.values()) <= 1e-10


@pytest.mark.parametrize("c", C_VALUES)
def test_quartic_family_coefficients(c):
    nf = _reduce(EXAMPLE_QUARTIC, c)
    inv = characteristic_invariants(nf)
    assert inv["a_2_0"] == pytest.approx(c, abs=1e-10)
    assert inv["a_0_2"] == pytest.approx(1.0, abs=1e-10)
    assert inv["b_4"] == pytest.approx(1.0, abs=1e-10)
    others = {
        key: val
        for key, val in inv.items()
        if key not in ("a_2_0", "a_0_2", "b_4")
    }
    assert max(abs(val) for val in others.values()) <= 1e-10


@pytest.mark.parametrize("c", C_VALUES)
def test_flat_family_coefficients(c):
    nf = _reduce(EXAMPLE_FLAT, c)
    inv = characteristic_invariants(nf)
    assert inv["a_2_0"] == pytest.approx(c, abs=1e-10)
    assert inv["a_0_2"] == pytest.approx(1.0, abs=1e-10)
    assert nf.b.max_abs() <= 1e-10
    others = {
        key: val for key, val in inv.items() if key not in ("a_2_0", "a_0_2")
    }
    assert max(abs(val) for val in others.values()) <= 1e-10


def test_reduction_validates_order():
    cert = align_kernel(F0, (0.0, 0.0), ORDER)
    with pytest.raises(ContractViolationError):
        reduce_to_normal_form(cert, 2)
    with pytest.raises(ContractViolationError):
        reduce_to_normal_form(cert, 13)
    with pytest.raises(ContractViolationError):
        reduce_to_normal_form(cert, ORDER + 1)


# -- rigidity ---------------------------------------------------------------------


def test_invariants_are_rigid_under_congruence():
    # 50 random congruent copies per family: rotation from a normalized
    # quaternion, translation in [-1,1]^3, positive source change
    rng = np.random.default_rng(RNG_SEED)
    for defn in FAMILIES:
        base = _reduce(defn, 1.0)
        base_inv = characteristic_invariants(base)
        jet = eval_map_jet(defn, (0.0, 0.0), ORDER, {"c": 1.0})
        for _ in range(50):
            moved = _congruent_copy(jet, rng)
            nf = reduce_to_normal_form(certify_jet(moved), ORDER)
            inv = characteristic_invariants(nf)
            worst = max(abs(inv[key] - base_inv[key]) for key in base_inv)
            assert worst <= 1e-7


def test_reduction_commutes_with_scaling_family():
    # the same germ viewed at two orders agrees on the shared coefficients
    cert = align_kernel(EXAMPLE_CUBIC, (0.0, 0.0), 8, parameters={"c": 2.0})
    nf_high = reduce_to_normal_form(cert, 8)
    nf_low = reduce_to_normal_form(cert, 6)
    assert float(
        np.max(np.abs(nf_high.a.truncate(6).coeffs - nf_low.a.coeffs))
    ) <= 1e-12
    assert float(
        np.max(np.abs(nf_high.b.truncate(6).coeffs - nf_low.b.coeffs))
    ) <= 1e-12


# -- transport ---------------------------------------------------------------------


def test_motion_table():
    t0 = CongruenceMotion.from_tag("T0")
    assert t0.epsilons == (1, 1)
    assert t0.source_signs == (1, 1)
    t1 = CongruenceMotion.from_tag("T1")
    assert t1.epsilons == (1, -1)
    assert t1.source_signs == (1, -1)
    t2 = CongruenceMotion.from_tag("T2")
    assert t2.epsilons == (-1, 1)
    assert t2.source_signs == (-1, -1)
    t3 = CongruenceMotion.from_tag("T3")
    assert t3.epsilons == (-1, -1)
    assert t3.source_signs == (-1, 1)
    with pytest.raises(ContractViolationError):
        CongruenceMotion.from_tag("T4")


def test_transport_identity_is_identity():
    nf = _reduce(EXAMPLE_CUBIC, 2.0)
    same = transport_normal_form(nf, CongruenceMotion.from_tag("T0"))
    assert same.a == nf.a
    assert same.b == nf.b
    assert np.allclose(same.frame.rotation_rows(), nf.frame.rotation_rows())


def test_transport_signs_on_cubic_example():
    nf = _reduce(EXAMPLE_CUBIC, 2.0)
    t1 = transport_normal_form(nf, CongruenceMotion.from_tag("T1"))
    assert t1.b[3] == pytest.approx(1.0, abs=1e-12)
    assert t1.a[2, 0] == pytest.approx(2.0, abs=1e-12)
    t3 = transport_normal_form(nf, CongruenceMotion.from_tag("T3"))
    assert t3.b[3] == pytest.approx(-1.0, abs=1e-12)


def test_transport_is_involutive():
    nf = _reduce(EXAMPLE_CUBIC, -1.0)
    for tag in ("T1", "T2", "T3"):
        motion = CongruenceMotion.from_tag(tag)
        back = transport_normal_form(transport_normal_form(nf, motion), motion)
        assert back.a == nf.a
        assert back.b == nf.b
        assert np.allclose(
            back.frame.rotation_rows(), nf.frame.rotation_rows(), atol=1e-15
        )


def _explicit_transform(defn, c, motion: CongruenceMotion) -> MapJet3:
    """T o f o phi by direct jet composition (the transport oracle)."""
    jet = eval_map_jet(defn, (0.0, 0.0), ORDER, {"c": float(c)})
    s1, s2 = motion.source_signs
    phi_u = Jet2.var_u(ORDER).scale(float(s1))
    phi_v = Jet2.var_v(ORDER).scale(float(s2))
    return _move_target(jet.precompose(phi_u, phi_v), motion.matrix)


@pytest.mark.parametrize("tag", ["T0", "T1", "T2", "T3"])
@pytest.mark.parametrize("family", [0, 1, 2])
def test_transport_matches_explicit_composition(tag, family):
    defn = FAMILIES[family]
    motion = CongruenceMotion.from_tag(tag)
    nf = _reduce(defn, 1.0)
    transported = transport_normal_form(nf, motion)
    explicit = reduce_to_normal_form(
        certify_jet(_explicit_transform(defn, 1.0, motion)), ORDER
    )
    assert float(np.max(np.abs(transported.a.coeffs - explicit.a.coeffs))) <= 1e-8
    assert float(np.max(np.abs(transported.b.coeffs - explicit.b.coeffs))) <= 1e-8
    assert np.allclose(
        transported.frame.rotation_rows(),
        explicit.frame.rotation_rows(),
        atol=1e-8,
    )


# -- invariant table ---------------------------------------------------------------


def test_invariant_labels_and_order():
    nf = _reduce(F0, order=4)
    keys = list(characteristic_invariants(nf).keys())
    assert keys[:6] == ["a_0_0", "a_1_0", "a_0_1", "a_2_0", "a_1_1", "a_0_2"]
    assert keys[-2:] == ["b_3", "b_4"]
    assert len(keys) == 15 + 2


def test_normal_form_validation():
    frame = CrossCapFrame(np.zeros(3), *np.eye(3))
    ident = (Jet2.var_u(4), Jet2.var_v(4))
    good_a = Jet2.from_terms(4, {(0, 2): 1.0})
    good_b = Jet1(np.zeros(5))
    NormalForm(good_a, good_b, frame, ident, 4)
    with pytest.raises(ContractViolationError):
        NormalForm(Jet2.from_terms(4, {(0, 2): -1.0}), good_b, frame, ident, 4)
    with pytest.raises(ContractViolationError):
        NormalForm(
            Jet2.from_terms(4, {(0, 1): 1.0, (0, 2): 1.0}), good_b, frame, ident, 4
        )
    with pytest.raises(ContractViolationError):
        NormalForm(good_a, Jet1([0.0, 0.0, 1.0, 0.0, 0.0]), frame, ident, 4)
    with pytest.raises(ContractViolationError):
        NormalForm(
            good_a, good_b, frame, (Jet2.var_u(4).scale(-1.0), Jet2.var_v(4)), 4
        )
