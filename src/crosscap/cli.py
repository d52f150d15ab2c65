"""Command line front end.

Subcommands: analyze (full pipeline to a JSON report), selfint (trace the
self-intersection curve to CSV), mesh (sample the surface to CSV),
transport (apply a congruence motion to the computed normal form), and
classify (symmetry verdicts only).

Requests live in a JSON file (--map); command line flags override its
fields.  Reports are byte-stable: fixed field order and fixed float
formatting with 17 significant digits.  Exit codes: 0 success, 1 for an
E_PARSE error, 2 for every other failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .double_points import (
    curve_to_csv,
    format_float,
    format_rows,
    trace_double_points,
    transversality_check,
)
from .errors import (
    ContractViolationError,
    CrossCapError,
    DegenerateFrameError,
    JetDomainError,
    NotCrossCapError,
    NotInvertibleError,
    NotSingularPointError,
    ParseError,
    RankZeroError,
    SeedFailureError,
    SingularPointError,
    SolveInconsistentError,
    StepCollapseError,
    SymmetryAbsentError,
    UnboundParameterError,
    WhitneyFailError,
)
from .expressions import eval_map_point, eval_map_points, parse_map_definition
from .locate import DEFAULT_TOL_SINGULAR, align_kernel, find_singular_points
from .normal_form import (
    DEFAULT_ORDER,
    MAX_ORDER,
    CongruenceMotion,
    characteristic_invariants,
    reduce_to_normal_form,
    transport_normal_form,
)
from .symmetry import DEFAULT_TOL_SYMMETRY, classify_symmetries

TANGENCY_ANGLE = 1e-3
# work budgets: the search and mesh take time growing with grid squared,
# the tracer with span / step, and a report with its parameter combinations
MAX_GRID = 1000
MAX_ARC_STEPS = 10_000
MAX_SWEEP = 1000

_DEFAULTS = {
    "order": DEFAULT_ORDER,
    "grid": 20,
    "box": [-1.0, 1.0, -1.0, 1.0],
    "tol_singular": DEFAULT_TOL_SINGULAR,
    "tol_symmetry": DEFAULT_TOL_SYMMETRY,
    "span": 1.0,
    "step": 0.01,
}


class _InputError(Exception):
    """Invalid request or flags."""


# Keyed by exact type with no fallback: a new error class needs its own
# entry.  E_PARSE exits 1 and every other code exits 2.
_ERROR_CODES = {
    _InputError: "E_PARSE",
    ContractViolationError: "E_PARSE",
    JetDomainError: "E_PARSE",
    ParseError: "E_PARSE",
    UnboundParameterError: "E_PARSE",
    NotCrossCapError: "E_NOT_CROSSCAP",
    NotSingularPointError: "E_NOT_CROSSCAP",
    RankZeroError: "E_NOT_CROSSCAP",
    WhitneyFailError: "E_WHITNEY",
    DegenerateFrameError: "E_SOLVE",
    NotInvertibleError: "E_SOLVE",
    SolveInconsistentError: "E_SOLVE",
    SymmetryAbsentError: "E_SOLVE",
    SeedFailureError: "E_SEED",
    SingularPointError: "E_SEED",
    StepCollapseError: "E_SEED",
}


# -- stable serialization ------------------------------------------------------


def _serialize(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(key))}: {_serialize(item, indent + 1)}'
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (int, float, np.integer, np.floating)) for x in items):
            return "[" + ", ".join(_serialize(x) for x in items) + "]"
        rows = [f"{pad}  {_serialize(item, indent + 1)}" for item in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_error(code: str, message: str) -> None:
    payload = _serialize({"error": {"code": code, "message": message}}) + "\n"
    _emit(payload, None)
    print(f"error [{code}]: {message}", file=sys.stderr)


# -- request handling ----------------------------------------------------------


def _parse_number_list(text: str, what: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise _InputError(f"{what} has a non-numeric entry: {text!r}") from None


def _parse_param_flag(text: str) -> tuple[str, float | list[float]]:
    if "=" not in text:
        raise _InputError(f"--param expects name=value, got {text!r}")
    name, _, raw = text.partition("=")
    name = name.strip()
    if not name:
        raise _InputError(f"--param expects name=value, got {text!r}")
    values = _parse_number_list(raw, f"--param {name}")
    return name, values[0] if len(values) == 1 else values


def _finite_numbers(values, what: str) -> list[float]:
    """A request list as floats; every entry must be a finite number."""
    if not isinstance(values, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in values
    ):
        raise _InputError(f"{what} must be numeric")
    if not all(math.isfinite(x) for x in values):
        raise _InputError(f"{what} must be finite")
    return [float(x) for x in values]


def _positive_number(value, what: str) -> float:
    (number,) = _finite_numbers([value], what)
    if number <= 0.0:
        raise _InputError(f"{what} must be positive")
    return number


def _load_request(args: argparse.Namespace) -> dict:
    raw: dict = {}
    if args.map:
        path = Path(args.map)
        if not path.exists():
            raise _InputError(f"map file not found: {args.map}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise _InputError(f"map file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise _InputError("map file must contain a JSON object")
    else:
        raise _InputError("--map FILE is required")

    components = raw.get("components")
    if (
        not isinstance(components, list)
        or len(components) != 3
        or not all(isinstance(c, str) for c in components)
    ):
        raise _InputError('request "components" must be a list of three strings')

    parameters = dict(raw.get("parameters") or {})
    for name, value in getattr(args, "param", None) or []:
        parameters[name] = value
    for name, value in parameters.items():
        _finite_numbers(value if isinstance(value, list) else [value], f"parameter {name!r}")

    tolerances = dict(raw.get("tolerances") or {})
    request = {
        "components": components,
        "parameters": parameters,
        "order": args.order if args.order is not None else raw.get("order", _DEFAULTS["order"]),
        "point": raw.get("point"),
        "box": raw.get("box"),
        "grid": args.grid if args.grid is not None else raw.get("grid", _DEFAULTS["grid"]),
        "tolerances": {
            "singular": tolerances.get("singular", _DEFAULTS["tol_singular"]),
            "symmetry": tolerances.get("symmetry", _DEFAULTS["tol_symmetry"]),
        },
        "span": raw.get("span", _DEFAULTS["span"]),
        "step": raw.get("step", _DEFAULTS["step"]),
    }
    if args.point is not None:
        request["point"] = _parse_number_list(args.point, "--point")
    if args.box is not None:
        request["box"] = _parse_number_list(args.box, "--box")
    if request["box"] is None:
        request["box"] = list(_DEFAULTS["box"])
    if args.tol_singular is not None:
        request["tolerances"]["singular"] = args.tol_singular
    if args.tol_symmetry is not None:
        request["tolerances"]["symmetry"] = args.tol_symmetry
    if getattr(args, "span", None) is not None:
        request["span"] = args.span
    if getattr(args, "step", None) is not None:
        request["step"] = args.step

    order = request["order"]
    if not isinstance(order, int) or not (3 <= order <= MAX_ORDER):
        raise _InputError(f"order must be an integer in [3, {MAX_ORDER}], got {order!r}")
    grid = request["grid"]
    if not isinstance(grid, int) or not (2 <= grid <= MAX_GRID):
        raise _InputError(f"grid must be an integer in [2, {MAX_GRID}], got {grid!r}")
    box = request["box"] = _finite_numbers(request["box"], "box")
    if len(box) != 4:
        raise _InputError("box must be four numbers [umin, umax, vmin, vmax]")
    if not (box[0] < box[1] and box[2] < box[3]):
        raise _InputError("box must satisfy umin < umax and vmin < vmax")
    if request["point"] is not None:
        request["point"] = _finite_numbers(request["point"], "point")
        if len(request["point"]) != 2:
            raise _InputError("point must be two numbers [u, v]")
    for key, tol in request["tolerances"].items():
        request["tolerances"][key] = _positive_number(tol, f"tolerance {key!r}")
    for key in ("span", "step"):
        request[key] = _positive_number(request[key], key)
    if _sweep_size(parameters) > MAX_SWEEP:
        raise _InputError(f"a parameter sweep must have at most {MAX_SWEEP} combinations")
    return request


def _sweep_size(parameters: dict) -> int:
    """The number of combinations ``_sweep_combinations`` would make."""
    return math.prod(len(x) if isinstance(x, list) else 1 for x in parameters.values())


def _sweep_combinations(parameters: dict) -> list[dict[str, float]]:
    """Cartesian product over list-valued parameters, ordered by name."""
    names = sorted(parameters)
    pools = []
    for name in names:
        value = parameters[name]
        pools.append([float(x) for x in value] if isinstance(value, list) else [float(value)])
    return [dict(zip(names, combo)) for combo in itertools.product(*pools)]


def _require_scalar_parameters(request: dict, command: str) -> dict[str, float]:
    if _sweep_size(request["parameters"]) != 1:
        raise _InputError(f"{command} does not support parameter sweeps")
    (combo,) = _sweep_combinations(request["parameters"])
    return combo


# -- report assembly -----------------------------------------------------------


def _vector(arr) -> list[float]:
    return [float(x) for x in np.asarray(arr).reshape(-1)]


def _symmetry_payload(report) -> dict:
    verdicts = {}
    for j in (1, 2, 3):
        verdict = report.verdicts[j]
        verdicts[f"T{j}"] = {
            "holds": verdict.holds,
            "residual": verdict.residual,
            "condition": verdict.condition_text,
        }
    return {
        "order": report.order,
        "tolerance": report.residual_tolerance,
        "verdicts": verdicts,
    }


def _analyze_payload(cert, nf, tol_symmetry) -> dict:
    a_list = []
    n = nf.working_order
    for degree in range(n + 1):
        for j in range(degree, -1, -1):
            a_list.append({"j": j, "k": degree - j, "value": nf.a[j, degree - j]})
    b_list = [{"k": k, "value": nf.b[k]} for k in range(3, n + 1)]
    return {
        "point": [cert.point[0], cert.point[1]],
        "residual": cert.residual,
        "kernel_angle": cert.kernel_angle,
        "whitney_det": cert.whitney_det,
        "frame": {
            "origin": _vector(nf.frame.origin),
            "e1": _vector(nf.frame.e1),
            "e2": _vector(nf.frame.e2),
            "e3": _vector(nf.frame.e3),
        },
        "a_coefficients": a_list,
        "b_coefficients": b_list,
        "invariants": characteristic_invariants(nf),
        "reconstruction_residual": nf.reconstruction_residual,
        "symmetry": _symmetry_payload(classify_symmetries(nf, tol_symmetry)),
    }


def _classify_payload(cert, nf, tol_symmetry) -> dict:
    return {
        "point": [cert.point[0], cert.point[1]],
        "whitney_det": cert.whitney_det,
        "symmetry": _symmetry_payload(classify_symmetries(nf, tol_symmetry)),
    }


def _transport_payload(motion, cert, nf, tol_symmetry) -> dict:
    base_inv = characteristic_invariants(nf)
    moved_inv = characteristic_invariants(transport_normal_form(nf, motion))
    diff = max(abs(base_inv[key] - moved_inv[key]) for key in base_inv) / max(
        1.0, max(abs(x) for x in base_inv.values())
    )
    return {
        "point": [cert.point[0], cert.point[1]],
        "whitney_det": cert.whitney_det,
        "invariants": base_inv,
        "transported": {
            "motion": motion.tag,
            "invariants": moved_inv,
            "fixed_point": diff <= tol_symmetry,
            "difference": diff,
        },
    }


def _candidate_points(defn, request, combo) -> list[tuple[float, float]]:
    """The explicit point, or the grid search results."""
    if request["point"] is not None:
        return [tuple(request["point"])]
    candidates = find_singular_points(
        defn,
        tuple(request["box"]),
        request["grid"],
        request["tolerances"]["singular"],
        combo,
    )
    return [c.point for c in candidates]


_NO_POINTS = "no singular points found in the search box"


def _analyze_entry(defn, request, combo, payload) -> dict:
    """Run locate + certify + reduce for one parameter binding; ``payload``
    turns each certified cross cap into its report entry, given the symmetry
    tolerance."""
    warnings: list[dict] = []
    cross_caps: list[dict] = []
    points = _candidate_points(defn, request, combo)
    if not points:
        warnings.append({"code": "E_SEED", "message": _NO_POINTS})
    for point in points:
        try:
            cert = align_kernel(
                defn,
                point,
                request["order"],
                request["tolerances"]["singular"],
                combo,
            )
            nf = reduce_to_normal_form(cert, request["order"])
        except CrossCapError as exc:
            warnings.append(
                {
                    "code": _ERROR_CODES[type(exc)],
                    "message": f"point ({point[0]:.6g}, {point[1]:.6g}): {exc}",
                }
            )
            continue
        cross_caps.append(payload(cert, nf, request["tolerances"]["symmetry"]))
    return {
        "parameters": combo,
        "status": "ok" if cross_caps else "no_cross_cap",
        "cross_caps": cross_caps,
        "warnings": warnings,
    }


def _run_report_command(args, payload) -> int:
    request = _load_request(args)
    defn = parse_map_definition(request["components"])
    entries = []
    certified = 0
    for combo in _sweep_combinations(request["parameters"]):
        entry = _analyze_entry(defn, request, combo, payload)
        certified += len(entry["cross_caps"])
        entries.append(entry)
    report = {
        "version": __version__,
        "request": request,
        "entries": entries,
    }
    _emit(_serialize(report) + "\n", args.out)
    return 0 if certified > 0 else 2


def cmd_analyze(args) -> int:
    return _run_report_command(args, _analyze_payload)


def cmd_classify(args) -> int:
    return _run_report_command(args, _classify_payload)


def cmd_transport(args) -> int:
    motion = CongruenceMotion.from_tag(args.motion)
    return _run_report_command(args, partial(_transport_payload, motion))


def cmd_selfint(args) -> int:
    request = _load_request(args)
    if request["span"] / request["step"] > MAX_ARC_STEPS:
        raise _InputError(f"span / step must be at most {MAX_ARC_STEPS}")
    defn = parse_map_definition(request["components"])
    combo = _require_scalar_parameters(request, "selfint")
    points = _candidate_points(defn, request, combo)
    if not points:
        _emit_error("E_SEED", _NO_POINTS)
        return 2
    cert = align_kernel(
        defn,
        points[0],
        request["order"],
        request["tolerances"]["singular"],
        combo,
    )
    curve = trace_double_points(defn, cert, request["span"], request["step"], combo)
    angles = transversality_check(curve)
    if angles.size and float(angles.min()) < TANGENCY_ANGLE:
        print(
            f"warning: near-tangential sheets (min angle {angles.min():.3e} rad)",
            file=sys.stderr,
        )
    _emit(curve_to_csv(curve), args.out)
    return 0


def cmd_mesh(args) -> int:
    request = _load_request(args)
    defn = parse_map_definition(request["components"])
    combo = _require_scalar_parameters(request, "mesh")
    umin, umax, vmin, vmax = request["box"]
    grid = request["grid"]
    # the grid as a column of u and a row of v; rows run u outer, v inner; a
    # box too wide for linspace gives nan coordinates, which fail below
    with np.errstate(all="ignore"):
        us = np.linspace(umin, umax, grid)[:, None]
        vs = np.linspace(vmin, vmax, grid)[None, :]
    images, failed = eval_map_points(defn, us, vs, combo)
    failed |= ~np.isfinite(us) | ~np.isfinite(vs)
    if failed.any():
        # the first failing row fails as it does on its own: in the map, or
        # in a coordinate that is not finite
        i, j = divmod(int(np.argmax(failed)), grid)
        eval_map_point(defn, float(us[i, 0]), float(vs[0, j]), combo)
        raise ContractViolationError("report fields must be finite")
    rows = format_rows([us, vs, *images])
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("u,v,x,y,z\n")
        fh.writelines(rows)
    return 0


# -- argument parsing ----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _InputError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--map", metavar="FILE", help="request JSON file")
    parser.add_argument("--order", type=int, default=None, metavar="N")
    parser.add_argument("--point", default=None, metavar="U,V")
    parser.add_argument("--box", default=None, metavar="UMIN,UMAX,VMIN,VMAX")
    parser.add_argument("--grid", type=int, default=None, metavar="N")
    parser.add_argument("--tol-singular", type=float, default=None, metavar="X")
    parser.add_argument("--tol-symmetry", type=float, default=None, metavar="X")
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument(
        "--param",
        action="append",
        type=_parse_param_flag,
        default=None,
        metavar="NAME=VALUE",
        help="bind a parameter; comma lists sweep (repeatable)",
    )


# built once per process: each build leaves reference cycles that only the
# cyclic collector frees, and parsing keeps no state in the parser
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="crosscap",
        description="cross cap normal forms, invariants, symmetries and "
        "self-intersection curves",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, extra in (
        ("analyze", cmd_analyze, ()),
        ("selfint", cmd_selfint, ("span", "step")),
        ("mesh", cmd_mesh, ()),
        ("transport", cmd_transport, ("motion",)),
        ("classify", cmd_classify, ()),
    ):
        p = sub.add_parser(name)
        _add_common_flags(p)
        if "span" in extra:
            p.add_argument("--span", type=float, default=None, metavar="X")
            p.add_argument("--step", type=float, default=None, metavar="X")
        if "motion" in extra:
            p.add_argument(
                "--motion",
                required=True,
                choices=["T0", "T1", "T2", "T3"],
                help="congruence motion to apply",
            )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_InputError, CrossCapError) as exc:
        code = _ERROR_CODES[type(exc)]
        _emit_error(code, str(exc))
        return 1 if code == "E_PARSE" else 2


if __name__ == "__main__":
    sys.exit(main())
