"""Singular point location and cross cap certification."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crosscap.errors import (
    ContractViolationError,
    JetDomainError,
    NotSingularPointError,
    RankZeroError,
    WhitneyFailError,
)
from crosscap import locate
from crosscap.expressions import eval_map_jet, eval_map_jets, parse_map_definition
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


# The candidates of three searches as the seed-by-seed Gauss-Newton gave them,
# point and residual as float.hex: the joint iteration over all seeds must
# take the same steps at every seed.
_PINNED = {
    "translated": (
        ["u - 0.3", "(u - 0.3)*(v + 0.1)", "(v + 0.1)^2"],
        (-1.0, 1.0, -1.0, 1.0),
        20,
        None,
        [("0x1.3333333333333p-2", "-0x1.999999999999ap-4", "0x0.0p+0")],
    ),
    "two_caps": (
        ["u", "v*(u^2 - s^2)/2 + v^3", "v^2"],
        (-1.0, 1.0, -0.6, 0.6),
        16,
        {"s": 0.55},
        [
            ("-0x1.199999999999ap-1", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.199999999999ap-1", "0x0.0p+0", "0x0.0p+0"),
        ],
    ),
    "domain": (
        ["u + 0.1*u^2*log(u + 0.6)", "u*v/(1 + sqrt(v + 0.7))", "v^2"],
        (-1.0, 1.0, -1.0, 1.0),
        20,
        None,
        [("0x0.0p+0", "-0x1.0000000000000p-111", "0x1.0000000000000p-110")],
    ),
}
# the "domain" map at grid 40 (1,600 seeds)
_PINNED_GRID_40 = [("-0x1.0000000000000p-101", "0x0.0p+0", "0x1.16c452c6700c6p-102")]


def _hex(found):
    return [(c.point[0].hex(), c.point[1].hex(), c.residual.hex()) for c in found]


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_candidates_keep_the_bits_of_the_seed_by_seed_search(name):
    components, box, grid, parameters, expected = _PINNED[name]
    defn = parse_map_definition(components)
    assert _hex(find_singular_points(defn, box, grid, parameters=parameters)) == expected


def test_the_domain_search_loses_some_seeds_and_keeps_others():
    components, box, grid, _, _ = _PINNED["domain"]
    seeds = np.array(
        [(u, v) for u in np.linspace(*box[:2], grid) for v in np.linspace(*box[2:], grid)]
    )
    _, failed = eval_map_jets(parse_map_definition(components), seeds, 2)
    assert 0 < failed.sum() < len(seeds)


@pytest.mark.parametrize(
    "box",
    [(-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -1e308, 1e308), (1e308, 1.7e308, -1.0, 1.0)],
)
def test_a_box_whose_width_or_midpoint_overflows_is_refused(box):
    with pytest.raises(ContractViolationError, match="within float range"):
        find_singular_points(parse_map_definition(["v", "v^2", "v^3"]), box, 3)


@pytest.mark.parametrize("block", [7, locate.SEED_BLOCK])
def test_seed_blocks_do_not_change_the_candidates(monkeypatch, block):
    monkeypatch.setattr(locate, "SEED_BLOCK", block)
    components, box, _, _, _ = _PINNED["domain"]
    found = find_singular_points(parse_map_definition(components), box, 40)
    assert _hex(found) == _PINNED_GRID_40


def _refine_one_seed(defn, seed, bounds):
    """The damped Gauss-Newton from one seed, written as a plain loop: the
    reference that ``locate._gauss_newton`` must follow at every seed."""

    def evaluate(q):
        try:
            return eval_map_jet(defn, (q[0], q[1]), 2)
        except JetDomainError:
            return None

    def residual_and_jacobian(jet):
        f_u, f_v, f_uv = jet.f_u(), jet.f_v(), jet.f_uv()
        d_u = np.cross(jet.f_uu(), f_v) + np.cross(f_u, f_uv)
        d_v = np.cross(f_uv, f_v) + np.cross(f_u, jet.f_vv())
        return np.cross(f_u, f_v), np.column_stack([d_u, d_v])

    umin, umax, vmin, vmax = bounds
    q, lam = seed.astype(float), 0.0
    jet = evaluate(q)
    if jet is None:
        return None
    r, jac = residual_and_jacobian(jet)
    rn = float(np.linalg.norm(r))
    for _ in range(60):
        if rn <= 1e-15:
            break
        gram, grad = jac.T @ jac, jac.T @ r
        accepted = False
        for _ in range(10):
            try:
                delta = np.linalg.solve(gram + lam * np.eye(2), -grad)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-12)
                continue
            q_new = q + delta
            jet_new = None
            if umin <= q_new[0] <= umax and vmin <= q_new[1] <= vmax:
                jet_new = evaluate(q_new)
            if jet_new is not None:
                r_new, jac_new = residual_and_jacobian(jet_new)
                rn_new = float(np.linalg.norm(r_new))
                if np.isfinite(rn_new) and rn_new < rn:
                    q, r, jac, rn = q_new, r_new, jac_new, rn_new
                    lam = 0.0 if lam < 1e-10 else lam / 10.0
                    accepted = True
                    break
            lam = max(10.0 * lam, 1e-12)
        if not accepted:
            break
        if float(np.linalg.norm(delta)) <= 1e-15 * (1.0 + float(np.linalg.norm(q))):
            break
    return q, rn


@pytest.mark.parametrize(
    "components, box",
    [
        # every step starts with a singular system and seeds run all 60 steps
        (["u", "v^4", "v^5"], (-1.0, 1.0, -1.0, 1.0)),
        # the singular line u = 3 lies beyond the box: steps that leave it
        # are rejected and damped, and seeds stop short of the line
        (["u - 3", "(u - 3)*v^2", "v^3"], (-1.0, 1.0, -1.0, 1.0)),
        # some seeds and some steps leave the domain of log and sqrt
        (_PINNED["domain"][0], (-1.0, 1.0, -1.0, 1.0)),
    ],
)
def test_every_seed_takes_the_steps_of_its_own_loop(components, box):
    defn = parse_map_definition(components)
    mu, mv = 0.5 * (box[1] - box[0]), 0.5 * (box[3] - box[2])
    bounds = (box[0] - mu, box[1] + mu, box[2] - mv, box[3] + mv)
    seeds = np.array(
        [(u, v) for u in np.linspace(*box[:2], 6) for v in np.linspace(*box[2:], 6)]
    )
    q, rn, evaluated = locate._gauss_newton(defn, seeds, bounds, None)
    for i, seed in enumerate(seeds):
        expected = _refine_one_seed(defn, seed, bounds)
        assert evaluated[i] == (expected is not None)
        if expected is not None:
            assert q[i].tobytes() == expected[0].tobytes()
            assert rn[i].hex() == expected[1].hex()


def test_a_singular_damped_system_fails_only_its_seed():
    # the middle matrix is singular
    gram = np.array(
        [[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, 0.5], [0.5, 1.0]]]
    )
    grad = np.array([[1.0, -2.0], [1.0, 1.0], [0.25, 3.0]])
    delta, solved = locate._damped_steps(gram, grad, np.zeros(3))
    assert solved.tolist() == [True, False, True]
    for i in (0, 2):
        assert delta[i].tobytes() == np.linalg.solve(gram[i], -grad[i]).tobytes()
    delta, solved = locate._damped_steps(gram, grad, np.full(3, 1e-12))
    assert solved.all()


_RSS_SCRIPT = """
import resource, sys
from crosscap.expressions import parse_map_definition
from crosscap.locate import find_singular_points
defn = parse_map_definition(["u", "u*v", "v^2"])
found = find_singular_points(defn, (-1.0, 1.0, -1.0, 1.0), int(sys.argv[1]))
assert len(found) == 1
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kib(grid: int) -> int:
    env = dict(os.environ)
    src = str(Path(locate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, str(grid)],
        capture_output=True, text=True, env=env, check=True,
    )
    return int(done.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_large_grid_searches_in_bounded_memory():
    # 40,000 seeds against 576: the seeds run in blocks and each distinct
    # converged point is kept once, so the peak grows by far less than 5 MB
    assert _peak_rss_kib(200) - _peak_rss_kib(24) < 5 * 1024


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
        jet = _move_target(eval_map_jet(F0, (0.0, 0.0), 4), rot, rng.uniform(-1.0, 1.0, 3))
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
    comps = [Jet2.from_terms(3, {(2, 0): 1.0}), Jet2.from_terms(3, {}), Jet2.from_terms(3, {})]
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
