"""Acceptance gate: the eight end-to-end guarantees of the toolkit.

Each test is one criterion and prints one PASS line with its timing when it
succeeds; tolerances and budgets are stated inline.  The criteria cover the
worked invariant tables, rigidity of the invariants under congruence,
symmetry classification, the congruence transport table, the closed-form
normal field, the self-intersection tracer, the jet algebra, and rejection
of non-cross-cap germs.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from crosscap.cli import main as cli_main
from crosscap.double_points import (
    _normal,
    trace_double_points,
    transversality_check,
)
from crosscap.errors import WhitneyFailError
from crosscap.expressions import eval_map_jet, parse_map_definition, stage_map_jet1
from crosscap.jets import Jet1, Jet2, MapJet3, diffeo_invert
from crosscap.locate import align_kernel, certify_jet
from crosscap.normal_form import (
    CongruenceMotion,
    CrossCapFrame,
    NormalForm,
    characteristic_invariants,
    reduce_to_normal_form,
    transport_normal_form,
)
from crosscap.symmetry import classify_symmetries

RNG_SEED = 20260814
ORDER = 6

CUBIC = ("u", "u*v + v^3", "c*u^2 + v^2")
QUARTIC = ("u", "u*v + v^4", "c*u^2 + v^2")
FLAT = ("u", "u*v", "c*u^2 + v^2")
STANDARD = ("u", "u*v", "v^2")
FAMILIES = {"cubic": CUBIC, "quartic": QUARTIC, "flat": FLAT}


def _reduce(components, parameters=None, order=ORDER):
    defn = parse_map_definition(components, parameters=parameters)
    jet = eval_map_jet(defn, (0.0, 0.0), order)
    return reduce_to_normal_form(certify_jet(jet), order)


def _random_so3(rng):
    quaternion = rng.normal(size=4)
    quaternion /= np.linalg.norm(quaternion)
    w, x, y, z = quaternion
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


def _unit_normal(defn, q):
    """(f_u x f_v)/|f_u x f_v| at q, from the staged order-1 jets."""
    jets = stage_map_jet1(defn)(q)
    f_u, f_v = np.array([j[1] for j in jets]), np.array([j[2] for j in jets])
    return _normal(np.cross(f_u, f_v), f_u, f_v, q)


def _random_positive_source(rng, order):
    while True:
        au = rng.uniform(-0.5, 0.5, (order + 1, order + 1))
        av = rng.uniform(-0.5, 0.5, (order + 1, order + 1))
        au[0, 0] = av[0, 0] = 0.0
        det = au[1, 0] * av[0, 1] - au[0, 1] * av[1, 0]
        if det > 0.1:
            idx = np.arange(order + 1)
            mask = (idx[:, None] + idx[None, :]) <= order
            return Jet2(order, np.where(mask, au, 0.0)), Jet2(
                order, np.where(mask, av, 0.0)
            )


def _partial_u(jet):
    """The u-derivative by coefficient shift; its order is one lower."""
    n = jet.order
    return Jet2(n - 1, np.arange(1, n + 1)[:, None] * jet.coeffs[1:, :-1])


def _random_jet(rng, order, min_degree=0):
    arr = np.zeros((order + 1, order + 1))
    for j in range(order + 1):
        for k in range(order + 1 - j):
            if j + k >= min_degree:
                arr[j, k] = rng.uniform(-1.0, 1.0)
    return Jet2(order, arr)


def test_criterion_1_worked_invariant_tables():
    """Three germ families at c in {-1, 0, 1, 2}: exact invariant tables."""
    start = time.perf_counter()
    expected_b = {"cubic": "b_3", "quartic": "b_4", "flat": None}
    for c in (-1.0, 0.0, 1.0, 2.0):
        for name, components in FAMILIES.items():
            nf = _reduce(components, parameters={"c": c})
            invariants = characteristic_invariants(nf)
            exact = {"a_0_2": 1.0, "a_2_0": c}
            if expected_b[name] is not None:
                exact[expected_b[name]] = 1.0
            for key, value in exact.items():
                assert invariants[key] == value, (name, c, key, invariants[key])
            for key, value in invariants.items():
                if key not in exact:
                    assert abs(value) <= 1e-10, (name, c, key, value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: worked invariant tables exact ({elapsed:.2f}s)")


def test_criterion_2_invariants_rigid_under_congruence():
    """150 random congruent presentations agree with the base invariants
    to 1e-7."""
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for components in FAMILIES.values():
        defn = parse_map_definition(components, parameters={"c": 1.0})
        jet = eval_map_jet(defn, (0.0, 0.0), ORDER)
        base = characteristic_invariants(
            reduce_to_normal_form(certify_jet(jet), ORDER)
        )
        for _ in range(50):
            pu, pv = _random_positive_source(rng, ORDER)
            rotation = _random_so3(rng)
            translation = rng.uniform(-1.0, 1.0, 3)
            moved = _move_target(jet.precompose(pu, pv), rotation, translation)
            got = characteristic_invariants(
                reduce_to_normal_form(certify_jet(moved), ORDER)
            )
            worst = max(worst, max(abs(got[key] - base[key]) for key in base))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-7, f"worst invariant drift {worst:.3e}"
    assert elapsed < 10.0
    print(
        f"PASS criterion 2: invariants rigid under congruence, worst drift "
        f"{worst:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_3_symmetry_classification():
    """Fixture symmetry sets plus the transport fixed-point equivalence on
    fixtures and 50 random jets."""
    start = time.perf_counter()
    expected = {CUBIC: {1}, QUARTIC: {2}, FLAT: {1, 2, 3}}
    fixtures = []
    for components, want in expected.items():
        nf = _reduce(components, parameters={"c": 1.0})
        report = classify_symmetries(nf)
        got = {j for j, verdict in report.verdicts.items() if verdict.holds}
        assert got == want, (components, got)
        fixtures.append(nf)

    rng = np.random.default_rng(RNG_SEED)
    randoms = []
    for trial in range(50):
        order = 4
        a_arr = np.zeros((order + 1, order + 1))
        for j in range(order + 1):
            for k in range(order + 1 - j):
                if j + k >= 2:
                    a_arr[j, k] = rng.uniform(-1.0, 1.0)
        a_arr[0, 2] = rng.uniform(0.5, 1.5)
        b_arr = np.zeros(order + 1)
        b_arr[3:] = rng.uniform(-1.0, 1.0, order - 2)
        pattern = trial % 4
        if pattern == 1:
            a_arr[:, 1::2] = 0.0
            b_arr[4::2] = 0.0
        elif pattern == 2:
            for j in range(order + 1):
                for k in range(order + 1 - j):
                    if (j + k) % 2 == 1:
                        a_arr[j, k] = 0.0
            b_arr[3::2] = 0.0
        elif pattern == 3:
            a_arr[1::2, :] = 0.0
            b_arr[:] = 0.0
        randoms.append(
            NormalForm(
                a=Jet2(order, a_arr),
                b=Jet1(b_arr),
                frame=CrossCapFrame(np.zeros(3), *np.eye(3)),
                source_change=(Jet2.var_u(order), Jet2.var_v(order)),
                working_order=order,
            )
        )

    for nf in fixtures + randoms:
        base = characteristic_invariants(nf)
        report = classify_symmetries(nf)
        for j in (1, 2, 3):
            moved = transport_normal_form(nf, CongruenceMotion.from_tag(f"T{j}"))
            got = characteristic_invariants(moved)
            diff = max(abs(got[key] - base[key]) for key in base)
            assert report.verdicts[j].holds == (diff == 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"PASS criterion 3: symmetry sets and transport equivalence "
        f"({elapsed:.2f}s)"
    )


def test_criterion_4_transport_table_matches_explicit_composition():
    """Transported normal forms agree with reducing T_j o f o phi_j
    within 1e-8 for every family and motion."""
    start = time.perf_counter()
    for components in FAMILIES.values():
        defn = parse_map_definition(components, parameters={"c": 1.0})
        jet = eval_map_jet(defn, (0.0, 0.0), ORDER)
        nf = reduce_to_normal_form(certify_jet(jet), ORDER)
        for tag in ("T0", "T1", "T2", "T3"):
            motion = CongruenceMotion.from_tag(tag)
            table = transport_normal_form(nf, motion)
            s1, s2 = motion.source_signs
            flip_u = float(s1) * Jet2.var_u(ORDER)
            flip_v = float(s2) * Jet2.var_v(ORDER)
            moved = _move_target(jet.precompose(flip_u, flip_v), motion.matrix)
            explicit = reduce_to_normal_form(certify_jet(moved), ORDER)
            table_inv = characteristic_invariants(table)
            explicit_inv = characteristic_invariants(explicit)
            worst = max(
                abs(table_inv[key] - explicit_inv[key]) for key in table_inv
            )
            assert worst <= 1e-8, (components, tag, worst)
            frame_diff = np.max(
                np.abs(
                    table.frame.rotation_rows() - explicit.frame.rotation_rows()
                )
            )
            assert frame_diff <= 1e-8, (components, tag, frame_diff)
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 4: transport table matches explicit motions "
        f"({elapsed:.2f}s)"
    )


def test_criterion_5_normal_field_closed_form():
    """The unit normal of the standard cross cap matches its closed form
    at 100 random points to 1e-12, up to the global sign."""
    start = time.perf_counter()
    defn = parse_map_definition(STANDARD)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        u, v = rng.uniform(0.05, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
        expected = np.array([2.0 * v * v, -2.0 * v, u])
        expected /= math.sqrt(u * u + 4.0 * v * v + 4.0 * v**4)
        got = _unit_normal(defn, (u, v))
        deviation = min(
            float(np.max(np.abs(got - expected))),
            float(np.max(np.abs(got + expected))),
        )
        assert deviation <= 1e-12, (u, v, deviation)
    for u in (0.25, 0.8):
        assert np.allclose(_unit_normal(defn, (u, 0.0)), [0, 0, 1], atol=1e-15)
        assert np.allclose(_unit_normal(defn, (-u, 0.0)), [0, 0, -1], atol=1e-15)
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: normal field matches closed form ({elapsed:.2f}s)")


def test_criterion_6_self_intersection_tracer():
    """Standard cross cap: the traced locus stays on the v-axis pairing with
    residuals below 1e-8; the cubic example stays on u = -v^2."""
    start = time.perf_counter()
    defn = parse_map_definition(STANDARD)
    jet = eval_map_jet(defn, (0.0, 0.0), 4)
    curve = trace_double_points(defn, certify_jet(jet), 1.0, 0.01)
    assert len(curve.samples) >= 150
    for sample in curve.samples:
        assert abs(sample.q[0]) <= 1e-8
        assert abs(sample.q_prime[0]) <= 1e-8
        assert sample.residual <= 1e-8
    angles = transversality_check(curve)
    assert np.all(angles > 0.0)

    cubic = parse_map_definition(CUBIC, parameters={"c": 1.0})
    jet = eval_map_jet(cubic, (0.0, 0.0), ORDER)
    curve = trace_double_points(cubic, certify_jet(jet), 0.5, 0.01)
    for sample in curve.samples:
        assert sample.residual <= 1e-8
        for point in (sample.q, sample.q_prime):
            assert abs(point[0] + point[1] ** 2) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"PASS criterion 6: self-intersection tracer on both examples "
          f"({elapsed:.2f}s)")


def test_criterion_7_jet_algebra_properties():
    """Ring axioms, Leibniz, compose associativity and inversion round
    trips, 200 instances each at the module tolerances."""
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)

    def close(x, y, tol):
        scale = max(1.0, x.max_abs(), y.max_abs())
        assert (x - y).max_abs() <= tol * scale

    for _ in range(200):
        order = int(rng.integers(2, 9))
        f = _random_jet(rng, order)
        g = _random_jet(rng, order)
        h = _random_jet(rng, order)
        close((f + g) + h, f + (g + h), 1e-13)
        close(f + g, g + f, 0.0)
        close(f * g, g * f, 1e-13)
        close((f * g) * h, f * (g * h), 1e-13)
        close(f * (g + h), f * g + f * h, 1e-13)

    for _ in range(200):
        order = int(rng.integers(2, 9))
        f = _random_jet(rng, order)
        g = _random_jet(rng, order)
        leibniz = _partial_u(f) * g.truncate(order - 1) + f.truncate(
            order - 1
        ) * _partial_u(g)
        close(_partial_u(f * g), leibniz, 1e-13)

    for _ in range(200):
        order = int(rng.integers(2, 9))
        f = _random_jet(rng, order)
        gu = _random_jet(rng, order, min_degree=1)
        gv = _random_jet(rng, order, min_degree=1)
        hu = _random_jet(rng, order, min_degree=1)
        hv = _random_jet(rng, order, min_degree=1)
        left = f.compose(gu, gv).compose(hu, hv)
        right = f.compose(gu.compose(hu, hv), gv.compose(hu, hv))
        close(left, right, 1e-12)

    def rotation2(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]])

    for _ in range(200):
        order = int(rng.integers(2, 9))
        lin = (
            rotation2(rng.uniform(0.0, 2.0 * math.pi))
            @ np.diag(rng.uniform(0.5, 1.5, 2))
            @ rotation2(rng.uniform(0.0, 2.0 * math.pi))
        )
        pu = _random_jet(rng, order, min_degree=2)
        pv = _random_jet(rng, order, min_degree=2)
        pu = pu + lin[0, 0] * Jet2.var_u(order) + lin[0, 1] * Jet2.var_v(order)
        pv = pv + lin[1, 0] * Jet2.var_u(order) + lin[1, 1] * Jet2.var_v(order)
        su, sv = diffeo_invert(pu, pv)
        scale = max(1.0, su.max_abs(), sv.max_abs())
        round_u = su.compose(pu, pv) - Jet2.var_u(order)
        round_v = sv.compose(pu, pv) - Jet2.var_v(order)
        assert max(round_u.max_abs(), round_v.max_abs()) <= 1e-12 * scale
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 7: jet algebra properties, 200 draws each "
          f"({elapsed:.2f}s)")


def test_criterion_8_non_cross_caps_are_rejected(capsys):
    """(u, v^2, v^3) fails the wedge test with code E_WHITNEY; the standard
    cross cap certifies with determinant 2."""
    start = time.perf_counter()
    defn = parse_map_definition(("u", "v^2", "v^3"))
    with pytest.raises(WhitneyFailError):
        align_kernel(defn, (0.0, 0.0), 4, 1e-9)
    fixture = Path(__file__).parent / "fixtures" / "whitney_fail.json"
    rc = cli_main(["analyze", "--map", str(fixture)])
    out = capsys.readouterr().out
    assert rc == 2
    assert '"code": "E_WHITNEY"' in out

    jet = eval_map_jet(parse_map_definition(STANDARD), (0.0, 0.0), 4)
    cert = certify_jet(jet)
    assert abs(cert.whitney_det - 2.0) <= 1e-12
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 8: degenerate germs rejected, standard germ "
          f"certified ({elapsed:.2f}s)")
