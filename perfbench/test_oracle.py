"""Tests of the benchmark's oracle, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from crosscap import errors, expressions, locate, normal_form  # noqa: E402


def _written(cls: str, seed: int) -> oracle.Surface:
    """The normal form of a random table, written as is at the origin."""
    table = oracle.random_table(random.Random(seed), cls)
    return oracle.Surface(kind="crosscap", table=table, point=("0", "0"))


@pytest.mark.parametrize("cls", workloads.GERM_CLASSES)
@pytest.mark.parametrize("order", [6, 12])
def test_written_normal_forms_reduce_to_themselves_exactly(cls, order):
    surface = _written(cls, seed=order)
    outcome = workloads._run_germ(surface, order)
    assert outcome["invariants"] == surface.table.expected(order)
    assert oracle.check_germ(surface, order, outcome).problems == []


def test_moved_germ_matches_its_evaluator_and_reduces_to_its_table():
    rng = random.Random(5)
    table = oracle.random_table(rng, "T1")
    surface = oracle.moved_surface(rng, "crosscap", table, oracle.DET_BINS[3])
    defn = expressions.parse_map_definition(list(surface.components))
    for _ in range(20):
        u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        got = expressions.eval_map_point(defn, u, v)
        want = surface.evaluate(u, v)
        assert max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)) <= 1e-12
    outcome = workloads._run_germ(surface, 6)
    assert oracle.check_germ(surface, 6, outcome).problems == []


def test_whitney_copy_must_raise():
    rng = random.Random(2)
    surface = oracle.moved_surface(rng, "whitney", None, oracle.DET_BINS[2])
    defn = expressions.parse_map_definition(list(surface.components))
    jet = expressions.eval_map_jet(defn, surface.point_value, 6)
    with pytest.raises(errors.WhitneyFailError):
        locate.certify_jet(jet)
    outcome = workloads._run_germ(surface, 6)
    assert oracle.check_germ(surface, 6, outcome).problems == []
    assert oracle.check_germ(surface, 6, {"invariants": {}}).problems[0][0] == "hard"


def test_checker_catches_a_perturbed_invariant_and_a_flipped_verdict():
    surface = _written("T1", seed=3)
    outcome = workloads._run_germ(surface, 6)

    perturbed = dict(outcome, invariants=dict(outcome["invariants"]))
    perturbed["invariants"]["a_0_2"] += 1e-6
    assert [k for k, _ in oracle.check_germ(surface, 6, perturbed).problems] == ["value"]

    flipped = dict(outcome, holds=[1, 2], witnesses=dict(outcome["witnesses"]))
    kinds = [k for k, _ in oracle.check_germ(surface, 6, flipped).problems]
    assert "value" in kinds

    # above the suite's order the same errors count as precision drift
    assert workloads._check_germ(surface, 6, perturbed).problems[0][0] == "hard"
    assert workloads._check_germ(surface, 9, perturbed).problems[0][0] == "drift"


def test_transport_table_flips_signs():
    table = oracle.Table(a={(0, 2): "1", (1, 2): "0.5"}, b={3: "0.25"}, cls="none")
    moved = table.transported(3, 2)  # T2: source signs (-1, -1), e2 = 1
    assert moved["a_1_2"] == -0.5 and moved["a_0_2"] == 1.0 and moved["b_3"] == -0.25


def test_checker_catches_a_moved_csv_point(tmp_path):
    files = workloads.RequestFiles(tmp_path / "requests")
    request = next(workloads.plot_stream(random.Random(1), files))
    outcome = request.execute()
    assert request.check(outcome).problems == []

    (code, csv, err), mesh = outcome
    lines = csv.splitlines()
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    lines[5] = ",".join(fields)
    moved = ((code, "\n".join(lines) + "\n", err), mesh)
    assert request.check(moved).problems
    assert {k for k, _ in request.check(moved).problems} == {"hard"}

    code, text, err = mesh
    rows = text.splitlines()
    fields = rows[7].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-9))
    rows[7] = ",".join(fields)
    assert request.check((outcome[0], (code, "\n".join(rows) + "\n", err))).problems
    files.remove()


def test_search_requests_match_the_known_points(tmp_path):
    files = workloads.RequestFiles(tmp_path / "requests")
    try:
        stream = workloads.search_stream(random.Random(4), files)
        for _ in range(3):
            request = next(stream)
            assert request.check(request.execute()).problems == []
    finally:
        files.remove()


def test_tracer_reports_a_missing_entry_point_as_absent(monkeypatch):
    targets = tracing.TARGETS + (
        ("locate", "locate.renamed", "crosscap.locate", "no_such_function", (), False),
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    original = normal_form.reduce_to_normal_form
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert normal_form.reduce_to_normal_form is not original
        surface = _written("T2", seed=1)
        tracer.request_span(0, lambda: workloads._run_germ(surface, 6))
    finally:
        tracer.uninstall()
    assert normal_form.reduce_to_normal_form is original
    assert tracer.absent == ["locate.renamed"]
    metrics = tracer.metrics(1, [])
    assert metrics["normal_form.reduce.ms_per_call.o6"] > 0.0
    assert metrics["jets.mul.calls"] > 0
    covered = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS + ("other",))
    total = sum(end - start for _, name, start, end, *_ in tracer.spans if name == "request")
    assert covered == pytest.approx(total, rel=1e-9)
