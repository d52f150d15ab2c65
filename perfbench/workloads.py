"""The three seeded workloads: request streams, the calls they make, checks.

A workload is an endless stream of requests drawn from one random.Random.
Consecutive requests walk through a fixed list of strata (order and
symmetry class, surface family, span and step), so any stretch of the
stream has nearly the same mix and the medians stay steady from seed to
seed.  Each request knows how to run itself (timed) and how to check its
outcome against the oracle (not timed).

The calls look up every function through its module at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from crosscap import cli, errors, expressions, locate, normal_form, symmetry

import oracle

# the order the test suite checks invariants at; wrong numbers above it are
# the known precision drift of the reduction (ROADMAP item 4)
SUITE_ORDER = 6

GERM_ORDERS = tuple(range(6, 13))
# witnesses are built for every symmetry of the written class, at a tolerance
# that admits the reduction's precision drift: the work of a request then
# depends on its input only, not on whether drift flipped a verdict, and a
# fix of the drift does not add work.  The verdicts themselves are checked
# at the package's default tolerance.
WITNESS_TOL = 1e-2
GERM_CLASSES = ("none", "T1", "T2", "T123")
# the last request of every 15 is a Whitney copy: 2 in each 30-request cycle
WHITNEY_EVERY = 15

SEARCH_ORDER = 6
# (surface family, grid); cubic sweeps c over two values
SEARCH_STRATA = (
    ("standard", 12),
    ("cubic_sweep", 12),
    ("two_caps", 12),
    ("immersion", 12),
    ("copy", 12),
    ("two_caps", 16),
    ("standard", 24),
)

PLOT_ORDER = 6
# (arc span, step, mesh grid)
PLOT_STRATA = ((0.4, 0.01, 120), (1.0, 0.01, 150), (0.3, 0.002, 120), (0.6, 0.005, 200))

# requests per cycle of strata; a run times whole cycles
CYCLES = {"germs": 2 * WHITNEY_EVERY, "search": len(SEARCH_STRATA), "plot": len(PLOT_STRATA)}


@dataclass
class Request:
    stratum: str
    order: int
    execute: Callable[[], object]
    check: Callable[[object], oracle.Verdict]


class RequestFiles:
    """Request JSON files for the CLI, in one directory of the checkout."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, payload: dict) -> str:
        self.count += 1
        path = self.directory / f"req{self.count}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def remove(self) -> None:
        for path in self.directory.glob("req*.json"):
            path.unlink()
        self.directory.rmdir()


def _as_hard(verdict: oracle.Verdict) -> oracle.Verdict:
    verdict.problems = [("hard", message) for _, message in verdict.problems]
    return verdict


# -- germs ----------------------------------------------------------------------------


def _germ_cell(i: int) -> tuple[int, str, tuple[float, float]]:
    """Cell i of the 28-cell cycle: every 7 in a row cover all orders, each
    order meets every class and every determinant bin once per cycle."""
    q, r = divmod(i % 28, 7)
    return GERM_ORDERS[r], GERM_CLASSES[(q + r) % 4], oracle.DET_BINS[i % 4]


def _run_germ(surface: oracle.Surface, order: int) -> dict:
    expected = oracle.VERDICTS[surface.table.cls] if surface.table else ()
    try:
        defn = expressions.parse_map_definition(list(surface.components))
        jet = expressions.eval_map_jet(defn, surface.point_value, order)
        cert = locate.certify_jet(jet)
        nf = normal_form.reduce_to_normal_form(cert, order)
        report = symmetry.classify_symmetries(nf)
        holds = [j for j in (1, 2, 3) if report.verdicts[j].holds]
        witnesses = {}
        for j in expected:
            try:
                w = symmetry.symmetry_witness(nf, j, WITNESS_TOL)
            except errors.SymmetryAbsentError:
                continue
            pu, pv = w.involution_jet
            lin = ((pu[1, 0], pu[0, 1]), (pv[1, 0], pv[0, 1]))
            witnesses[j] = (w.motion.tag, w.source_signs, lin)
        transports = {}
        for j in (1, 2, 3):
            motion = normal_form.CongruenceMotion.from_tag(f"T{j}")
            moved = normal_form.transport_normal_form(nf, motion)
            transports[j] = normal_form.characteristic_invariants(moved)
        invariants = normal_form.characteristic_invariants(nf)
    except errors.CrossCapError as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}
    return {
        "invariants": invariants,
        "holds": holds,
        "witnesses": witnesses,
        "transports": transports,
    }


def _check_germ(surface: oracle.Surface, order: int, outcome: dict) -> oracle.Verdict:
    """Wrong numbers or verdicts above the suite's order are "drift"; so is
    the reduction's own residual check tripping on a cross cap there."""
    verdict = oracle.check_germ(surface, order, outcome)
    if order <= SUITE_ORDER:
        return _as_hard(verdict)
    tripped = surface.kind == "crosscap" and outcome.get("raised") == "SolveInconsistentError"
    verdict.problems = [
        ("drift" if kind == "value" or tripped else "hard", message)
        for kind, message in verdict.problems
    ]
    return verdict


def germs_stream(rng: random.Random, files: RequestFiles) -> Iterator[Request]:
    """Dense germs through the public API at orders 6..12; one in 15 is a
    congruent copy of (u, v^2, v^3), which must fail the Whitney test."""
    k = i = 0
    while True:
        if k % WHITNEY_EVERY == WHITNEY_EVERY - 1:
            n = k // WHITNEY_EVERY
            order = GERM_ORDERS[n % len(GERM_ORDERS)]
            surface = oracle.moved_surface(rng, "whitney", None, oracle.DET_BINS[n % 4])
            stratum = f"o{order}-whitney"
        else:
            order, cls, det_bin = _germ_cell(i)
            i += 1
            table = oracle.random_table(rng, cls)
            surface = oracle.moved_surface(rng, "crosscap", table, det_bin)
            stratum = f"o{order}-{cls}"
        k += 1
        yield Request(
            stratum,
            order,
            partial(_run_germ, surface, order),
            partial(_check_germ, surface, order),
        )


# -- CLI requests ---------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _box_around(rng: random.Random, u: float, v: float) -> list[float]:
    """An asymmetric box that contains (u, v) with margins in [0.4, 0.8]."""
    return [
        round(u - float(oracle.dec(rng, 0.4, 0.8)), 2),
        round(u + float(oracle.dec(rng, 0.4, 0.8)), 2),
        round(v - float(oracle.dec(rng, 0.4, 0.8)), 2),
        round(v + float(oracle.dec(rng, 0.4, 0.8)), 2),
    ]


def _distinct_decimals(rng: random.Random, lo: float, hi: float, count: int) -> list[str]:
    values: list[str] = []
    while len(values) < count:
        value = oracle.dec(rng, lo, hi)
        if value not in values:
            values.append(value)
    return values


def _search_case(rng: random.Random, family: str, grid: int) -> tuple[dict, dict]:
    """(request payload, expected entries) for one search request."""
    params: dict = {}
    if family == "standard":
        comps = ["u", "u*v", "v^2"]
        box = _box_around(rng, 0.0, 0.0)
        entries = [{"points": [(0.0, 0.0)], "tables": [oracle.Table({(0, 2): "1"}, {}, "T123")]}]
    elif family == "cubic_sweep":
        # (u, u*v + v^3, c*u^2 + v^2) is already in normal form
        comps = ["u", "u*v + v^3", "c*u^2 + v^2"]
        box = _box_around(rng, 0.0, 0.0)
        values = _distinct_decimals(rng, -1.5, 2.0, 2)
        params = {"c": [float(x) for x in values]}
        entries = [
            {"points": [(0.0, 0.0)], "tables": [oracle.Table({(2, 0): c, (0, 2): "1"}, {3: "1"}, "T1")]}
            for c in values
        ]
    elif family == "two_caps":
        # singular exactly at (+-s, 0), both cross caps (Whitney det = +-2s)
        comps = ["u", "v*(u^2 - s^2)/2 + v^3", "v^2"]
        box = [-1.0, 1.0, -0.6, 0.6]
        s = oracle.dec(rng, 0.3, 0.8)
        params = {"s": float(s)}
        entries = [{"points": [(-float(s), 0.0), (float(s), 0.0)], "tables": [None, None]}]
    elif family == "immersion":
        comps = ["u", "v", f"{oracle.dec(rng, 0.2, 0.8)}*u^2 + {oracle.dec(rng, 0.2, 0.8)}*v^2"]
        box = _box_around(rng, 0.0, 0.0)
        entries = [{"points": [], "tables": []}]
    else:
        # (u, uv + b3 v^3, a02 v^2 + a20 u^2 + a30 u^3) turned about the z
        # axis and moved: a_v = 2 a02 v vanishes only on v = 0, so the point
        # is the copy's only singular point
        table = oracle.Table(
            a={
                (0, 2): oracle.dec(rng, 0.5, 1.5),
                (2, 0): oracle.nonzero_dec(rng, 0.1, 0.9),
                (3, 0): oracle.nonzero_dec(rng, 0.1, 0.9),
            },
            b={3: oracle.nonzero_dec(rng, 0.1, 0.9)},
            cls="T1",
        )
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        surface = oracle.Surface(
            kind="crosscap",
            table=table,
            point=(oracle.dec(rng, -0.5, 0.5), oracle.dec(rng, -0.5, 0.5)),
            rotation=((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)),
            translation=tuple(oracle.dec(rng, -2.0, 2.0) for _ in range(3)),
        )
        comps = list(surface.components)
        box = _box_around(rng, *surface.point_value)
        entries = [{"points": [surface.point_value], "tables": [table]}]
    payload = {
        "components": comps,
        "parameters": params,
        "order": SEARCH_ORDER,
        "box": box,
        "grid": grid,
    }
    return payload, {"order": SEARCH_ORDER, "entries": entries}


def _check_analyze(expect: dict, outcome: tuple[int, str, str]) -> oracle.Verdict:
    code, out, err = outcome
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        report = None
    verdict = oracle.check_analyze(expect, code, report, err)
    verdict.stats["bytes_out"] = len(out) + len(err)
    return _as_hard(verdict)


def search_stream(rng: random.Random, files: RequestFiles) -> Iterator[Request]:
    """``crosscap analyze`` without a point: grid search, then reduction."""
    k = 0
    while True:
        family, grid = SEARCH_STRATA[k % len(SEARCH_STRATA)]
        payload, expect = _search_case(rng, family, grid)
        path = files.write(payload)
        k += 1
        yield Request(
            f"{family}-g{grid}",
            SEARCH_ORDER,
            partial(_run_cli, ["analyze", "--map", path]),
            partial(_check_analyze, expect),
        )


# -- plot -----------------------------------------------------------------------------


def _run_plot(path: str, span: float, step: float, grid: int) -> tuple:
    selfint = _run_cli(["selfint", "--map", path, "--span", repr(span), "--step", repr(step)])
    mesh = _run_cli(["mesh", "--map", path, "--grid", str(grid)])
    return selfint, mesh


def _check_plot(surface, box, step, grid, outcome) -> oracle.Verdict:
    (code1, csv1, err1), (code2, csv2, err2) = outcome
    verdict = oracle.Verdict()
    oracle.check_selfint(verdict, surface, step, code1, csv1, err1)
    oracle.check_mesh(verdict, surface, box, grid, code2, csv2, err2)
    verdict.stats["bytes_out"] = sum(len(x) for x in (csv1, err1, csv2, err2))
    return _as_hard(verdict)


def plot_stream(rng: random.Random, files: RequestFiles) -> Iterator[Request]:
    """``crosscap selfint`` then ``crosscap mesh`` on a certified surface:
    a small normal-form table moved by a translation and a source shift."""
    k = 0
    while True:
        span, step, grid = PLOT_STRATA[k % len(PLOT_STRATA)]
        table = oracle.random_table(rng, GERM_CLASSES[k % 4], degrees=(3,))
        surface = oracle.Surface(
            kind="crosscap",
            table=table,
            point=(oracle.dec(rng, -0.5, 0.5), oracle.dec(rng, -0.5, 0.5)),
            translation=tuple(oracle.dec(rng, -2.0, 2.0) for _ in range(3)),
        )
        box = _box_around(rng, *surface.point_value)
        path = files.write(
            {
                "components": list(surface.components),
                "order": PLOT_ORDER,
                "point": list(surface.point_value),
                "box": box,
            }
        )
        k += 1
        yield Request(
            f"span{span}-step{step}-grid{grid}",
            PLOT_ORDER,
            partial(_run_plot, path, span, step, grid),
            partial(_check_plot, surface, box, step, grid),
        )


WORKLOADS = {"germs": germs_stream, "search": search_stream, "plot": plot_stream}
