"""Tests for the intrinsic symmetry classifier and its witnesses.

The parity conditions are checked against hand-picked germs whose symmetry
sets are known, against the transport fixed-point characterization on random
normal forms, and against explicit composition of the witness involutions.
"""

import numpy as np
import pytest

from crosscap.errors import SymmetryAbsentError
from crosscap.expressions import eval_map_jet, parse_map_definition
from crosscap.jets import Jet1, Jet2
from crosscap.locate import certify_jet
from crosscap.normal_form import (
    CongruenceMotion,
    CrossCapFrame,
    NormalForm,
    characteristic_invariants,
    reduce_to_normal_form,
    transport_normal_form,
)
from crosscap.symmetry import (
    classify_symmetries,
    symmetry_witness,
)

RNG_SEED = 20260814
ORDER = 6

CUBIC = ("u", "u*v + v^3", "c*u^2 + v^2")
QUARTIC = ("u", "u*v + v^4", "c*u^2 + v^2")
FLAT = ("u", "u*v", "c*u^2 + v^2")
STANDARD = ("u", "u*v", "v^2")


def _reduce(components, parameters=None, order=ORDER):
    defn = parse_map_definition(components, parameters=parameters)
    jet = eval_map_jet(defn, (0.0, 0.0), order)
    return reduce_to_normal_form(certify_jet(jet), order)


def _symmetry_set(nf, tol=None):
    report = classify_symmetries(nf) if tol is None else classify_symmetries(nf, tol)
    return {j for j, verdict in report.verdicts.items() if verdict.holds}


def _random_normal_form(rng, order=4, symmetrize=None):
    n = order
    a_arr = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(n + 1 - j):
            if j + k >= 2:
                a_arr[j, k] = rng.uniform(-1.0, 1.0)
    a_arr[0, 2] = rng.uniform(0.5, 1.5)
    b_arr = np.zeros(n + 1)
    for k in range(3, n + 1):
        b_arr[k] = rng.uniform(-1.0, 1.0)
    if symmetrize == 1:
        a_arr[:, 1::2] = 0.0
        b_arr[4::2] = 0.0
    elif symmetrize == 2:
        for j in range(n + 1):
            for k in range(n + 1 - j):
                if (j + k) % 2 == 1:
                    a_arr[j, k] = 0.0
        b_arr[3::2] = 0.0
    elif symmetrize == 3:
        a_arr[1::2, :] = 0.0
        b_arr[:] = 0.0
    return NormalForm(
        a=Jet2(n, a_arr),
        b=Jet1(b_arr),
        frame=CrossCapFrame(np.zeros(3), *np.eye(3)),
        source_change=(Jet2.var_u(n), Jet2.var_v(n)),
        working_order=n,
    )


# ---------------------------------------------------------------------------
# fixture germs with known symmetry sets


def test_cubic_germ_has_exactly_the_first_symmetry():
    nf = _reduce(CUBIC, parameters={"c": 1.0})
    assert _symmetry_set(nf) == {1}
    report = classify_symmetries(nf)
    assert report.verdicts[1].residual == 0.0
    # b_3 = 1 breaks the even-b condition, b != 0 breaks the third
    assert report.verdicts[2].residual == pytest.approx(1.0)
    assert report.verdicts[3].residual == pytest.approx(1.0)


def test_quartic_germ_has_exactly_the_second_symmetry():
    nf = _reduce(QUARTIC, parameters={"c": 1.0})
    assert _symmetry_set(nf) == {2}
    assert classify_symmetries(nf).verdicts[2].residual == 0.0


def test_flat_and_standard_germs_have_all_three_symmetries():
    assert _symmetry_set(_reduce(FLAT, parameters={"c": 1.0})) == {1, 2, 3}
    assert _symmetry_set(_reduce(STANDARD)) == {1, 2, 3}


def test_report_metadata_and_condition_texts():
    report = classify_symmetries(_reduce(CUBIC, parameters={"c": 1.0}))
    assert report.order == ORDER
    assert report.residual_tolerance == 1e-8
    assert report.verdicts[1].condition_text == "a(u,-v) = a(u,v) and b(-v) = -b(v)"
    assert report.verdicts[2].condition_text == "a(-u,-v) = a(u,v) and b(-v) = b(v)"
    assert report.verdicts[3].condition_text == "a(-u,v) = a(u,v) and b = 0"


def test_residual_is_the_largest_violating_coefficient():
    n = 6
    a_arr = np.zeros((n + 1, n + 1))
    a_arr[0, 2] = 1.0
    a_arr[2, 0] = 1.0
    b_arr = np.zeros(n + 1)
    b_arr[3] = 1.0
    b_arr[4] = 1e-10
    nf = NormalForm(
        a=Jet2(n, a_arr),
        b=Jet1(b_arr),
        frame=CrossCapFrame(np.zeros(3), *np.eye(3)),
        source_change=(Jet2.var_u(n), Jet2.var_v(n)),
        working_order=n,
    )
    report = classify_symmetries(nf)
    assert report.verdicts[1].residual == 1e-10
    assert report.verdicts[1].holds
    strict = classify_symmetries(nf, 1e-12)
    assert not strict.verdicts[1].holds
    assert strict.verdicts[1].residual == 1e-10


# ---------------------------------------------------------------------------
# equivalence with the transport fixed-point characterization


def test_classification_matches_transport_on_fixtures():
    cases = [
        (CUBIC, {"c": 1.0}),
        (QUARTIC, {"c": 1.0}),
        (FLAT, {"c": 1.0}),
        (STANDARD, None),
    ]
    for components, parameters in cases:
        nf = _reduce(components, parameters=parameters)
        base = characteristic_invariants(nf)
        report = classify_symmetries(nf)
        for j in (1, 2, 3):
            moved = transport_normal_form(nf, CongruenceMotion.from_tag(f"T{j}"))
            got = characteristic_invariants(moved)
            diff = max(abs(got[key] - base[key]) for key in base)
            # these germs reduce exactly, so fixed points are exact
            assert report.verdicts[j].holds == (diff == 0.0)


def test_classification_matches_transport_on_random_jets():
    rng = np.random.default_rng(RNG_SEED)
    patterns = [None, 1, 2, 3]
    for trial in range(50):
        nf = _random_normal_form(rng, symmetrize=patterns[trial % 4])
        base = characteristic_invariants(nf)
        report = classify_symmetries(nf)
        for j in (1, 2, 3):
            moved = transport_normal_form(nf, CongruenceMotion.from_tag(f"T{j}"))
            got = characteristic_invariants(moved)
            diff = max(abs(got[key] - base[key]) for key in base)
            assert report.verdicts[j].holds == (diff == 0.0)


def test_two_symmetries_force_the_third():
    # violations of the third condition are violations of one of the first
    # two, so its residual can never exceed their maximum
    rng = np.random.default_rng(RNG_SEED + 1)
    for trial in range(50):
        nf = _random_normal_form(rng, symmetrize=[None, 1, 2, 3][trial % 4])
        report = classify_symmetries(nf)
        r1 = report.verdicts[1].residual
        r2 = report.verdicts[2].residual
        r3 = report.verdicts[3].residual
        assert r3 <= max(r1, r2) + 1e-15
        if report.verdicts[1].holds and report.verdicts[2].holds:
            assert report.verdicts[3].holds


# ---------------------------------------------------------------------------
# witnesses


def test_witness_motion_and_orientation_parity():
    nf = _reduce(FLAT, parameters={"c": 1.0})
    expected = {
        1: ("(u, -v)", (1, -1), False),
        2: ("(-u, -v)", (-1, -1), True),
        3: ("(-u, v)", (-1, 1), False),
    }
    for j, (text, signs, preserves) in expected.items():
        witness = symmetry_witness(nf, j)
        assert witness.motion.tag == f"T{j}"
        assert witness.involution_text == text
        assert witness.source_signs == signs
        assert witness.orientation_preserving == preserves


def test_witness_realizes_the_symmetry_on_the_normal_form():
    n = ORDER
    cases = [(CUBIC, 1), (QUARTIC, 2), (FLAT, 3)]
    for components, j in cases:
        nf = _reduce(components, parameters={"c": 1.0})
        witness = symmetry_witness(nf, j)
        s1, s2 = witness.source_signs
        u = Jet2.var_u(n)
        v = Jet2.var_v(n)
        second = u * v
        power = v * v
        for k in range(3, n + 1):
            power = power * v
            if nf.b[k] != 0.0:
                second = second + nf.b[k] * power
        eps1, eps2 = witness.motion.epsilons
        su = float(s1) * u
        sv = float(s2) * v
        for component, eps in ((u, eps1), (second, eps2), (nf.a, 1)):
            reflected = float(eps) * component.compose(su, sv)
            assert (reflected - component).max_abs() == 0.0


def test_witness_involution_is_conjugated_through_the_source_change():
    # precomposing with a skew source change leaves the symmetry intact but
    # makes the witness involution a genuine curve of fixed points
    n = ORDER
    base = parse_map_definition(CUBIC, parameters={"c": 1.0})
    jet = eval_map_jet(base, (0.0, 0.0), n)
    pu_arr = np.zeros((n + 1, n + 1))
    pv_arr = np.zeros((n + 1, n + 1))
    pu_arr[1, 0], pu_arr[0, 1], pu_arr[2, 0], pu_arr[0, 2] = 1.0, 0.3, 0.2, -0.1
    pv_arr[1, 0], pv_arr[0, 1], pv_arr[1, 1] = -0.2, 0.8, 0.15
    moved = jet.precompose(Jet2(n, pu_arr), Jet2(n, pv_arr))
    nf = reduce_to_normal_form(certify_jet(moved), n)
    witness = symmetry_witness(nf, 1)
    phi_u, phi_v = witness.involution_jet

    # an involution composes with itself to the identity
    round_u = phi_u.compose(phi_u, phi_v)
    round_v = phi_v.compose(phi_u, phi_v)
    assert (round_u - Jet2.var_u(n)).max_abs() <= 1e-9
    assert (round_v - Jet2.var_v(n)).max_abs() <= 1e-9
    # and it is not the plain sign flip once conjugated
    assert (phi_u - Jet2.var_u(n)).max_abs() > 1e-3

    # conjugation identity: the source change intertwines the involution
    # with the sign flip of the normal-form coordinates
    s1, s2 = witness.source_signs
    ut, vt = nf.source_change
    assert (ut.compose(phi_u, phi_v) - float(s1) * ut).max_abs() <= 1e-9
    assert (vt.compose(phi_u, phi_v) - float(s2) * vt).max_abs() <= 1e-9


def test_witness_refuses_absent_symmetries_and_bad_indices():
    nf = _reduce(QUARTIC, parameters={"c": 1.0})
    with pytest.raises(SymmetryAbsentError, match="symmetry 1 does not hold"):
        symmetry_witness(nf, 1)
    with pytest.raises(SymmetryAbsentError, match="index must be 1, 2 or 3"):
        symmetry_witness(nf, 0)
    with pytest.raises(SymmetryAbsentError, match="index must be 1, 2 or 3"):
        symmetry_witness(nf, 4)
