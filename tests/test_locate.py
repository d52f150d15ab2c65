"""Singular point location and cross cap certification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crosscap.errors import (
    ContractViolationError,
    NotSingularPointError,
    RankZeroError,
    WhitneyFailError,
)
from crosscap.expressions import eval_map_jet, parse_map_definition
from crosscap.jets import Jet2, MapJet3
from crosscap.locate import align_kernel, certify_jet, find_singular_points

F0 = parse_map_definition(["u", "u*v", "v^2"])
BOX = (-1.0, 1.0, -1.0, 1.0)


def _rotation2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


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


# -- find_singular_points ----------------------------------------------------------


def test_standard_cross_cap_found_at_origin():
    found = find_singular_points(F0, BOX, 20)
    assert len(found) == 1
    cand = found[0]
    assert abs(cand.point[0]) <= 1e-10
    assert abs(cand.point[1]) <= 1e-10
    assert cand.residual <= 1e-10


def test_immersion_yields_empty_list():
    defn = parse_map_definition(["u", "v", "u^2 + v^2"])
    assert find_singular_points(defn, BOX, 20) == []


def test_translated_cross_cap_found():
    defn = parse_map_definition(
        ["u - 0.3", "(u - 0.3)*(v + 0.1)", "(v + 0.1)^2"]
    )
    found = find_singular_points(defn, BOX, 20)
    assert len(found) == 1
    assert found[0].point[0] == pytest.approx(0.3, abs=1e-9)
    assert found[0].point[1] == pytest.approx(-0.1, abs=1e-9)


def test_rotation_equivariance_of_candidates():
    # precomposing with a source rotation moves the singular set by the
    # inverse rotation
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    defn = parse_map_definition(
        [
            f"{c}*u - {s}*v + 0.2",
            f"({c}*u - {s}*v + 0.2)*({s}*u + {c}*v - 0.1)",
            f"({s}*u + {c}*v - 0.1)^2",
        ]
    )
    found = find_singular_points(defn, BOX, 20)
    assert len(found) == 1
    # original singular point of the inner cross cap is (-0.2, 0.1) in
    # rotated coordinates; map it back
    expected = _rotation2(theta).T @ np.array([-0.2, 0.1])
    assert found[0].point[0] == pytest.approx(expected[0], abs=1e-8)
    assert found[0].point[1] == pytest.approx(expected[1], abs=1e-8)


def test_search_box_validation():
    with pytest.raises(ContractViolationError):
        find_singular_points(F0, (1.0, -1.0, -1.0, 1.0), 10)
    with pytest.raises(ContractViolationError):
        find_singular_points(F0, BOX, 1)


def test_candidates_sorted_and_merged():
    # two disjoint cross caps in one map: (u^2 - 0.25) vanishes at u = +-0.5
    defn = parse_map_definition(
        ["u", "(u^2 - 0.25)*v", "v^2"]
    )
    found = find_singular_points(defn, BOX, 25)
    points = sorted(p.point[0] for p in found)
    assert len(found) == 2
    assert points[0] == pytest.approx(-0.5, abs=1e-9)
    assert points[1] == pytest.approx(0.5, abs=1e-9)


def test_domain_errors_skip_seeds():
    # log restricts the domain to u > -0.5; the cross cap at the origin is
    # still found from seeds inside the domain
    defn = parse_map_definition(
        ["u + 0*log(u + 0.5)", "u*v", "v^2"]
    )
    found = find_singular_points(defn, BOX, 20)
    assert len(found) == 1
    assert abs(found[0].point[0]) <= 1e-9


# -- certification -----------------------------------------------------------------


def test_certificate_for_standard_cross_cap():
    cert = align_kernel(F0, (0.0, 0.0), order=6)
    assert cert.whitney_det == pytest.approx(2.0, abs=1e-12)
    assert cert.residual == 0.0
    assert cert.kernel_angle == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert np.allclose(cert.kernel_rotation, np.eye(2), atol=1e-12)
    # aligned jet still is the standard cross cap
    assert cert.aligned_jet.f_u().tolist() == [1.0, 0.0, 0.0]
    assert cert.aligned_jet.f_v().tolist() == [0.0, 0.0, 0.0]
    assert cert.aligned_jet.f_uv().tolist() == [0.0, 1.0, 0.0]
    assert cert.aligned_jet.f_vv().tolist() == [0.0, 0.0, 2.0]


def test_kernel_rotation_sends_v_axis_to_kernel():
    # source rotated by +30 degrees: the kernel direction of the rotated map
    # is R(-30)(0,1); the certificate must align it back to the v-axis
    theta = math.pi / 6.0
    c, s = math.cos(theta), math.sin(theta)
    defn = parse_map_definition(
        [
            f"{c}*u - {s}*v",
            f"({c}*u - {s}*v)*({s}*u + {c}*v)",
            f"({s}*u + {c}*v)^2",
        ]
    )
    cert = align_kernel(defn, (0.0, 0.0), order=6)
    kernel = _rotation2(-theta) @ np.array([0.0, 1.0])
    mapped = cert.kernel_rotation @ np.array([0.0, 1.0])
    assert np.allclose(mapped, kernel, atol=1e-12) or np.allclose(
        mapped, -kernel, atol=1e-12
    )
    # aligned first-order v-coefficients vanish exactly after the snap
    assert cert.aligned_jet.f_v().tolist() == [0.0, 0.0, 0.0]
    assert abs(cert.whitney_det) == pytest.approx(2.0, abs=1e-10)


def test_whitney_det_sign_under_orientation_preserving_changes():
    rng = np.random.default_rng(20260814)
    base = align_kernel(F0, (0.0, 0.0), order=4)
    for _ in range(10):
        rot = _random_so3(rng)
        jet = eval_map_jet(F0, (0.0, 0.0), 4).rotate_target(rot)
        jet = jet.translate_target(rng.uniform(-1.0, 1.0, 3))
        cert = certify_jet(jet)
        assert math.copysign(1.0, cert.whitney_det) == math.copysign(
            1.0, base.whitney_det
        )
        assert abs(cert.whitney_det) == pytest.approx(2.0, abs=1e-10)


def test_certify_regular_point_rejected():
    jet = eval_map_jet(F0, (0.5, 0.5), 4)
    with pytest.raises(NotSingularPointError):
        certify_jet(jet)


def test_certify_rank_zero_rejected():
    comps = [Jet2.from_terms(3, {(2, 0): 1.0}), Jet2.zeros(3), Jet2.zeros(3)]
    jet = MapJet3(comps, (0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(RankZeroError):
        certify_jet(jet)


def test_certify_degenerate_germ_fails_whitney():
    defn = parse_map_definition(["u", "v^2", "v^3"])
    with pytest.raises(WhitneyFailError) as info:
        align_kernel(defn, (0.0, 0.0), order=4)
    assert info.value.determinant == pytest.approx(0.0, abs=1e-12)


def test_certify_requires_order_two():
    jet = eval_map_jet(F0, (0.0, 0.0), 1)
    with pytest.raises(ContractViolationError):
        certify_jet(jet)


def test_whitney_tolerance_scales_with_jet():
    # scaling the target by 1e-3 scales the determinant by 1e-9 but the
    # scale-cubed tolerance keeps the certificate valid
    defn = parse_map_definition(["0.001*u", "0.001*u*v", "0.001*v^2"])
    cert = align_kernel(defn, (0.0, 0.0), order=4)
    assert cert.whitney_det == pytest.approx(2e-9, rel=1e-12)
