"""End-to-end tests of the command line front end.

Each test drives ``main`` in process with a request fixture.  Reports are
checked both semantically (parsed JSON fields) and byte-for-byte against
frozen golden files, which pins the stable field order and float formatting.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import crosscap
from crosscap import cli
from crosscap.cli import MAX_ARC_STEPS, MAX_GRID, MAX_SWEEP, main
from crosscap.expressions import MAX_DEPTH, MAX_NESTING

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, argv):
    rc, out, err = _run(capsys, argv)
    return rc, json.loads(out), err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reports_the_cubic_example(capsys):
    rc, report, _ = _run_json(
        capsys, ["analyze", "--map", _fixture("example_cubic.json")]
    )
    assert rc == 0
    assert report["request"]["order"] == 6
    assert report["request"]["components"][1] == "u*v + v^3"
    (entry,) = report["entries"]
    assert entry["status"] == "ok"
    assert entry["parameters"] == {"c": 1}
    assert entry["warnings"] == []
    (cap,) = entry["cross_caps"]
    assert cap["point"] == [0, 0]
    assert cap["whitney_det"] == pytest.approx(2.0, abs=1e-12)
    assert cap["residual"] <= 1e-9
    invariants = cap["invariants"]
    assert invariants["a_0_2"] == 1
    assert invariants["a_2_0"] == 1
    assert invariants["b_3"] == 1
    others = {
        key: value
        for key, value in invariants.items()
        if key not in ("a_0_2", "a_2_0", "b_3") and value != 0
    }
    assert others == {}
    assert cap["reconstruction_residual"] == 0
    verdicts = cap["symmetry"]["verdicts"]
    assert verdicts["T1"]["holds"] is True
    assert verdicts["T2"]["holds"] is False
    assert verdicts["T3"]["holds"] is False
    assert verdicts["T1"]["condition"] == "a(u,-v) = a(u,v) and b(-v) = -b(v)"
    # coefficient list runs degree by degree, u-power descending
    heads = [(item["j"], item["k"]) for item in cap["a_coefficients"][:6]]
    assert heads == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_analyze_output_is_byte_stable_and_matches_the_golden(capsys, tmp_path):
    golden = (GOLDEN / "analyze_cubic.json").read_text()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["analyze", "--map", _fixture("example_cubic.json")]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_text() == golden
    assert second.read_text() == golden


def test_analyze_grid_search_finds_the_standard_cross_cap(capsys):
    rc, report, _ = _run_json(capsys, ["analyze", "--map", _fixture("standard.json")])
    assert rc == 0
    (entry,) = report["entries"]
    (cap,) = entry["cross_caps"]
    assert abs(cap["point"][0]) <= 1e-9
    assert abs(cap["point"][1]) <= 1e-9
    assert {j for j, v in cap["symmetry"]["verdicts"].items() if v["holds"]} == {
        "T1",
        "T2",
        "T3",
    }


def test_analyze_sweeps_parameters_in_request_order(capsys):
    rc, report, _ = _run_json(capsys, ["analyze", "--map", _fixture("sweep.json")])
    assert rc == 0
    values = [entry["parameters"]["c"] for entry in report["entries"]]
    assert values == [-1, 0, 1, 2]
    for entry, c in zip(report["entries"], values):
        (cap,) = entry["cross_caps"]
        assert cap["invariants"]["a_2_0"] == c
        assert cap["invariants"]["a_0_2"] == 1


def test_param_flag_binds_and_sweeps(capsys):
    rc, report, _ = _run_json(
        capsys,
        ["analyze", "--map", _fixture("example_cubic.json"), "--param", "c=2"],
    )
    assert rc == 0
    (entry,) = report["entries"]
    assert entry["cross_caps"][0]["invariants"]["a_2_0"] == 2
    rc, report, _ = _run_json(
        capsys,
        ["analyze", "--map", _fixture("example_cubic.json"), "--param", "c=1,2"],
    )
    assert rc == 0
    assert [e["parameters"]["c"] for e in report["entries"]] == [1, 2]


def test_flag_overrides_echo_into_the_request(capsys):
    rc, report, _ = _run_json(
        capsys,
        [
            "analyze",
            "--map",
            _fixture("example_cubic.json"),
            "--order",
            "4",
            "--tol-symmetry",
            "1e-6",
        ],
    )
    assert rc == 0
    assert report["request"]["order"] == 4
    assert report["request"]["tolerances"]["symmetry"] == 1e-6
    (cap,) = report["entries"][0]["cross_caps"]
    assert cap["symmetry"]["order"] == 4
    assert cap["symmetry"]["tolerance"] == 1e-6


# ---------------------------------------------------------------------------
# exit codes and error payloads


def test_parse_failure_exits_one_with_an_error_payload(capsys):
    rc, payload, err = _run_json(
        capsys, ["analyze", "--map", _fixture("bad_parse.json")]
    )
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "error [E_PARSE]" in err


def test_missing_map_file_exits_one(capsys):
    rc, payload, _ = _run_json(capsys, ["analyze", "--map", "no_such_file.json"])
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "not found" in payload["error"]["message"]


def test_invalid_order_exits_one(capsys):
    rc, payload, _ = _run_json(
        capsys, ["analyze", "--map", _fixture("example_cubic.json"), "--order", "2"]
    )
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "order" in payload["error"]["message"]


def _request_file(tmp_path, payload: dict) -> str:
    path = tmp_path / "request.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _run_json_without_warnings(capsys, argv):
    # a numpy RuntimeWarning becomes an exception here, so none can pass
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, payload, err = _run_json(capsys, argv)
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    return rc, payload


@pytest.mark.parametrize(
    "component, named",
    [
        ("v^2 + exp(1000 + u)", None),
        # the log series overflows past its first coefficient
        ("log(1e-200 + u) + v^2", "log"),
        # the power series overflows past its first coefficient
        ("(1e-300 + u)^-1 + v^2", None),
    ],
    ids=["exp", "log-series", "power-series"],
)
def test_overflow_at_the_given_point_is_an_entry_warning(
    capsys, tmp_path, component, named
):
    request = _request_file(
        tmp_path, {"components": ["u", "u*v", component], "point": [0, 0]}
    )
    rc, report = _run_json_without_warnings(capsys, ["analyze", "--map", request])
    assert rc == 2
    (entry,) = report["entries"]
    assert entry["status"] == "no_cross_cap"
    assert [w["code"] for w in entry["warnings"]] == ["E_PARSE"]
    assert "component 3" in entry["warnings"][0]["message"]
    if named is not None:
        assert named in entry["warnings"][0]["message"]


@pytest.mark.parametrize(
    "component",
    ["exp(1000*u)", "sin(1e308*10*u)", "1e308*10*u"],
    ids=["exp", "sin-of-inf", "product"],
)
def test_overflow_in_a_mesh_sample_exits_one(capsys, tmp_path, component):
    request = _request_file(tmp_path, {"components": ["u", "u*v", component]})
    rc, payload = _run_json_without_warnings(
        capsys, ["mesh", "--map", request, "--grid", "3"]
    )
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "component 3" in payload["error"]["message"]


@pytest.mark.parametrize("component", ["1e999*u", "v^1e999"])
def test_non_finite_literal_is_a_parse_error(capsys, tmp_path, component):
    request = _request_file(
        tmp_path, {"components": ["u", "u*v", component], "point": [0, 0]}
    )
    rc, payload, err = _run_json(capsys, ["analyze", "--map", request])
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "1e999 is beyond float range" in payload["error"]["message"]
    assert f"offset {component.index('1e999')}" in payload["error"]["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize("exponent", ["100000000000000000000", "-101", "(101)"])
def test_an_exponent_beyond_100_is_a_parse_error_at_once(capsys, tmp_path, exponent):
    # a power of m costs m jet products; the first case ran unbounded
    component = f"u^2 + v^{exponent}"
    request = _request_file(
        tmp_path, {"components": ["u", "u*v", component], "point": [0, 0]}
    )
    start = time.perf_counter()
    rc, payload, err = _run_json(capsys, ["analyze", "--map", request])
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "exceeds 100 in magnitude" in payload["error"]["message"]
    assert f"offset {component.rindex('^') + 1}" in payload["error"]["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "fields, flags, named",
    [
        ({"tolerances": {"singular": math.nan}}, [], "tolerance 'singular'"),
        ({"parameters": {"c": math.inf}}, [], "parameter 'c'"),
        ({"parameters": {"c": [1.0, -math.inf]}}, [], "parameter 'c'"),
        ({"box": [-1, math.inf, -1, 1]}, [], "box"),
        ({}, ["--param", "c=nan"], "parameter 'c'"),
        ({}, ["--param", "c=0,inf"], "parameter 'c'"),
        ({}, ["--point", "nan,0"], "point"),
        ({}, ["--box=-1,1,-inf,1"], "box"),
        ({}, ["--tol-symmetry", "inf"], "tolerance 'symmetry'"),
    ],
    ids=[
        "json-tolerance",
        "json-parameter",
        "json-sweep",
        "json-box",
        "flag-parameter",
        "flag-sweep",
        "flag-point",
        "flag-box",
        "flag-tolerance",
    ],
)
def test_non_finite_request_numbers_are_rejected(capsys, tmp_path, fields, flags, named):
    base = {"components": ["u", "u*v + v^3", "c*u^2 + v^2"], "parameters": {"c": 1.0}}
    request = _request_file(tmp_path, {**base, **fields})
    rc, payload, _ = _run_json(capsys, ["analyze", "--map", request, *flags])
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert f"{named} must be finite" in payload["error"]["message"]


@pytest.mark.parametrize("flags", [["--span", "inf"], ["--step", "nan"]])
def test_selfint_rejects_a_non_finite_span_or_step_at_once(capsys, flags):
    rc, payload, _ = _run_json(
        capsys, ["selfint", "--map", _fixture("example_cubic.json"), *flags]
    )
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert f"{flags[0][2:]} must be finite" in payload["error"]["message"]


def test_every_library_error_has_a_documented_code():
    # the table has no fallback, so a new error class must be given a code
    import inspect

    from crosscap import errors
    from crosscap.cli import _ERROR_CODES

    classes = [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.CrossCapError) and cls is not errors.CrossCapError
    ]
    assert len(classes) >= 15
    codes = {"E_PARSE", "E_NOT_CROSSCAP", "E_WHITNEY", "E_SOLVE", "E_SEED"}
    for cls in classes:
        assert _ERROR_CODES[cls] in codes, cls.__name__


def test_immersion_reports_no_cross_cap_and_exits_two(capsys):
    rc, report, _ = _run_json(capsys, ["analyze", "--map", _fixture("immersion.json")])
    assert rc == 2
    (entry,) = report["entries"]
    assert entry["status"] == "no_cross_cap"
    assert entry["cross_caps"] == []
    assert entry["warnings"][0]["code"] == "E_SEED"


def test_whitney_failure_is_reported_and_exits_two(capsys):
    rc, report, _ = _run_json(
        capsys, ["analyze", "--map", _fixture("whitney_fail.json")]
    )
    assert rc == 2
    (entry,) = report["entries"]
    assert entry["status"] == "no_cross_cap"
    codes = [w["code"] for w in entry["warnings"]]
    assert "E_WHITNEY" in codes


# ---------------------------------------------------------------------------
# classify and transport


def test_classify_trims_the_payload(capsys):
    rc, report, _ = _run_json(
        capsys, ["classify", "--map", _fixture("example_quartic.json")]
    )
    assert rc == 0
    (cap,) = report["entries"][0]["cross_caps"]
    assert sorted(cap) == ["point", "symmetry", "whitney_det"]
    verdicts = cap["symmetry"]["verdicts"]
    assert {j for j, v in verdicts.items() if v["holds"]} == {"T2"}


def test_transport_reports_fixed_points_per_motion(capsys):
    argv = ["transport", "--map", _fixture("example_cubic.json")]
    rc, report, _ = _run_json(capsys, argv + ["--motion", "T1"])
    assert rc == 0
    (cap,) = report["entries"][0]["cross_caps"]
    assert cap["transported"]["motion"] == "T1"
    assert cap["transported"]["fixed_point"] is True
    assert cap["transported"]["difference"] == 0
    rc, report, _ = _run_json(capsys, argv + ["--motion", "T3"])
    assert rc == 0
    (cap,) = report["entries"][0]["cross_caps"]
    assert cap["transported"]["fixed_point"] is False
    assert cap["transported"]["invariants"]["b_3"] == -1


def test_transport_does_not_classify(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("transport reports no verdict")

    argv = ["transport", "--map", _fixture("example_cubic.json"), "--motion", "T1"]
    expected = _run(capsys, argv)
    monkeypatch.setattr(cli, "classify_symmetries", refuse)
    assert _run(capsys, argv) == expected
    with pytest.raises(AssertionError):
        main(["classify", "--map", _fixture("example_cubic.json")])


def test_transport_requires_the_motion_flag(capsys):
    rc, payload, _ = _run_json(
        capsys, ["transport", "--map", _fixture("example_cubic.json")]
    )
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "--motion" in payload["error"]["message"]


# ---------------------------------------------------------------------------
# selfint and mesh


def test_selfint_writes_the_golden_csv(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(
        [
            "selfint",
            "--map",
            _fixture("standard.json"),
            "--span",
            "0.3",
            "--step",
            "0.02",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    text = out.read_text()
    assert text == (GOLDEN / "selfint_standard.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "s,u,v,u',v',x,y,z,residual"
    assert len(lines) >= 25
    for line in lines[1:]:
        fields = [float(x) for x in line.split(",")]
        assert abs(fields[1]) <= 1e-8
        assert fields[8] <= 1e-8


def test_selfint_rejects_parameter_sweeps(capsys):
    rc, payload, _ = _run_json(capsys, ["selfint", "--map", _fixture("sweep.json")])
    assert rc == 1
    assert "sweep" in payload["error"]["message"]


@pytest.mark.parametrize(
    "component, step, message",
    [
        # the guarded log keeps |v| < sqrt(3e-4), which excludes the seed
        ("v^2 + 0*log(0.0003 - v^2)", "0.01", "failed to converge on the double-point seed"),
        # the domain ends at the seed offset, so no continuation step succeeds
        ("v^2 + 0*log(1 - 1000000000000*(v^2 - 0.0004))", "0.005", "step collapsed"),
    ],
)
def test_selfint_reports_tracer_failures_as_e_seed(capsys, tmp_path, component, step, message):
    request = _request_file(
        tmp_path, {"components": ["u", "u*v", component], "order": 4, "point": [0, 0]}
    )
    rc, out, err = _run(capsys, ["selfint", "--map", request, "--span", "1", "--step", step])
    payload = json.loads(out)
    assert rc == 2
    assert payload["error"]["code"] == "E_SEED"
    assert message in payload["error"]["message"]
    assert err == f"error [E_SEED]: {payload['error']['message']}\n"


def test_mesh_samples_the_grid_with_exact_corners(capsys, tmp_path):
    out = tmp_path / "mesh.csv"
    rc = main(
        [
            "mesh",
            "--map",
            _fixture("standard.json"),
            "--grid",
            "5",
            "--box=-1,1,-1,1",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    text = out.read_text()
    assert text == (GOLDEN / "mesh_standard.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "u,v,x,y,z"
    assert len(lines) == 26
    assert lines[1] == "-1,-1,-1,1,1"
    assert lines[-1] == "1,1,1,1,1"


# sha256 of outputs written by the per-point mesh loop and the Jet2-valued
# tracer, before either evaluated through arrays or order-1 jets; the mesh
# has 3,601 lines, the curves about 1,000
_PINNED = {
    ("mesh", "example_cubic.json"): "8f060ba4798910a2c82fde27d326d6f06fa3ab54d8a9eb9a7d25bb0da81e23d8",
    ("mesh", "example_quartic.json"): "a848cdde367e5f63b3a5c1dc817c8d6132a54f8a30821b2f640f9421f2366317",
    ("mesh", "functions.json"): "25f7b3803459ea9149b5145827c970526bd8b5c049219e76e40c45884d2bd14c",
    ("mesh", "powers.json"): "de207c6201170fb925779b65c1cf1830f82d84df00607199dee514f932d1e535",
    ("selfint", "example_cubic.json"): "d37d76859d8526ac3a8ab621fb599f69e643d6d91f3e261e769428db1d429a2f",
    ("selfint", "example_quartic.json"): "fa6506748a4b43b7d85eebc8424cfdfea69f2ef34f1342b602df29ce41de61f8",
    ("selfint", "functions.json"): "739de512fbb7cbd4ae00dc8e66b7225fae0de998e5643be96f789f1cd12b02f2",
}
_PINNED_FLAGS = {"mesh": ["--grid", "60"], "selfint": ["--step", "0.002"]}


@pytest.mark.parametrize("command, fixture", sorted(_PINNED))
def test_mesh_and_curve_keep_their_pinned_bytes(capsys, command, fixture):
    rc, out, err = _run(
        capsys, [command, "--map", _fixture(fixture), *_PINNED_FLAGS[command]]
    )
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[command, fixture]


# sha256 of grid-1000 meshes written by the flat evaluation, which
# evaluated and formatted every value at every one of the 10^6 rows: one
# map separable in u and v, and one that is not
_PINNED_GRID_1000 = {
    "example_cubic.json": "65e3695529495884265f293289a738e48c28b8539ef16346768749e2cd508cde",
    "non_separable": "55d96a0bb0c6cea95f22a09277f645372e19c0980d9aedcfb19368215009c1ab",
}


@pytest.mark.parametrize("name", sorted(_PINNED_GRID_1000))
def test_grid_1000_mesh_keeps_its_pinned_bytes(capsys, tmp_path, name):
    if name == "non_separable":
        request = _request_file(tmp_path, {"components": ["u + v", "u*v", "sin(u - v)"]})
    else:
        request = _fixture(name)
    out = tmp_path / "mesh.csv"
    rc, _, err = _run(capsys, ["mesh", "--map", request, "--grid", "1000", "--out", str(out)])
    assert (rc, err) == (0, "")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _PINNED_GRID_1000[name]


def test_mesh_writes_the_same_bytes_to_a_file_and_to_stdout(capsys, tmp_path):
    out = tmp_path / "mesh.csv"
    argv = ["mesh", "--map", _fixture("functions.json"), "--grid", "70"]
    rc, text, _ = _run(capsys, argv)
    assert rc == 0
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == text.encode()
    # more rows than one written block
    assert len(text.splitlines()) == 70 * 70 + 1


@pytest.mark.parametrize(
    "components, box, grid, message",
    [
        # 1e308*10*u is inf without an error; 1/inf is 0, 1/nan is not finite
        (["u", "v", "1/(1e308*10*u)"], "0,0.5,0,1", 2,
         "component 3: value nan is beyond float range"),
        (["u", "v", "1/(1/u)"], "-1,1,-1,1", 3, "component 3: float division by zero"),
        (["u", "v", "(2*u)^-1"], "-1,1,-1,1", 3,
         "component 3: 0.0 cannot be raised to a negative power"),
        (["u", "exp(-exp(1000*u))", "v"], "0,1,0,1", 2, "component 2: math range error"),
        (["sqrt(u - 0.5)", "v", "u"], "0,1,0,1", 3, "component 1: math domain error"),
        # the first failing row names the first component that fails in it
        (["u", "u*v^-1", "log(v)"], "-1,1,-1,1", 3, "component 3: math domain error"),
        # a part with no u or v in it fails every row
        (["u", "v", "1e200^2*u"], "0,1,0,1", 2,
         "component 3: (34, 'Numerical result out of range')"),
        (["1/v", "c*v", "u"], "-1,1,-1,1", 3, "parameter 'c' is not bound"),
        (["1/v", "c*v", "u"], "-1,1,0,1", 2, "component 1: float division by zero"),
        # a box too wide for linspace: the first row's u is nan
        (["0", "v", "0"], "-1e308,1e308,-1,1", 3, "report fields must be finite"),
        (["u", "v", "0"], "-1e308,1e308,-1,1", 3,
         "component 1: value nan is beyond float range"),
        # on the compact grid: a part in u alone, in v alone, with neither,
        # and a component with no variable, next to one that fails
        (["u", "1/v", "v"], "-1,1,-1,1", 3, "component 2: float division by zero"),
        (["u", "v", "log(0 - 1)*u"], "-1,1,-1,1", 3, "component 3: math domain error"),
        (["2", "sqrt(v - 0.5)", "-0.0"], "0,1,0,1", 3, "component 2: math domain error"),
        (["-0.0", "u", "1/v"], "-1,1,-1,1", 3, "component 3: float division by zero"),
        (["2", "-0.0", "sqrt(u - 0.5)"], "0,1,0,1", 3, "component 3: math domain error"),
        (["sqrt(u - 0.5)*v", "v", "u"], "0,1,-1,1", 3, "component 1: math domain error"),
        (["u", "v", "1e308*10"], "-1,1,-1,1", 3,
         "component 3: value inf is beyond float range"),
        (["u", "v", "0^-1"], "0,1,0,1", 3,
         "component 3: 0.0 cannot be raised to a negative power"),
        (["u", "v", "c"], "0,1,0,1", 3, "parameter 'c' is not bound"),
        # rows run u outer: v = 0.5 at u = 0 fails before u = 1 at v = 0
        (["1/(v - 0.5)", "sqrt(0.75 - u)", "v"], "0,1,0,1", 3,
         "component 1: float division by zero"),
        (["sqrt(0.75 - u)", "1/(v - 0.5)", "v"], "0,1,0,1", 3,
         "component 2: float division by zero"),
    ],
)
def test_a_failing_mesh_row_gives_its_own_message(capsys, tmp_path, components, box, grid, message):
    request = _request_file(tmp_path, {"components": components})
    rc, payload = _run_json_without_warnings(
        capsys, ["mesh", "--map", request, f"--box={box}", "--grid", str(grid)]
    )
    assert rc == 1
    assert payload["error"] == {"code": "E_PARSE", "message": message}


_BOX_REFUSAL = "search box must have a width and a midpoint within float range"


@pytest.mark.parametrize(
    "command, box, code, message",
    [
        # the width overflows: no seed grid
        ("analyze", "-1e308,1e308,-1,1", "E_PARSE", _BOX_REFUSAL),
        ("selfint", "-1,1,-1e308,1e308", "E_PARSE", _BOX_REFUSAL),
        # the midpoint overflows
        ("analyze", "1e308,1.7e308,-1,1", "E_PARSE", _BOX_REFUSAL),
        ("mesh", "-1e308,1e308,-1,1", "E_PARSE", "report fields must be finite"),
    ],
)
def test_a_box_beyond_float_range_is_refused_without_a_warning(capsys, tmp_path, command, box, code, message):
    request = _request_file(tmp_path, {"components": ["v", "v^2", "v^3"]})
    rc, payload = _run_json_without_warnings(
        capsys, [command, "--map", request, f"--box={box}", "--grid", "3"]
    )
    assert rc == 1
    assert payload["error"] == {"code": code, "message": message}


def test_candidates_farther_apart_than_a_float_square_are_not_merged(capsys, tmp_path):
    # f_u vanishes everywhere, so every seed converges where it starts; the
    # squared distances between them overflow
    request = _request_file(tmp_path, {"components": ["v", "v^2", "v^3"]})
    rc, report = _run_json_without_warnings(
        capsys, ["analyze", "--map", request, "--box=1e154,1e155,-1,1", "--grid", "3"]
    )
    assert rc == 2
    (entry,) = report["entries"]
    assert [w["code"] for w in entry["warnings"]] == ["E_WHITNEY"] * 9


@pytest.mark.parametrize(
    "components, box, rows",
    [
        (["u", "v", "1/(1e308*10*u)"], "0.5,1,0,1",
         ["0.5,0,0.5,0,0", "0.5,1,0.5,1,0", "1,0,1,0,0", "1,1,1,1,0"]),
        (["u", "exp(-exp(1000*u))", "v"], "-1,0,0,1",
         ["-1,0,-1,1,0", "-1,1,-1,1,1", "0,0,0,0.36787944117144233,0",
          "0,1,0,0.36787944117144233,1"]),
        (["u", "1/exp(1e308*10*u)", "1/(1e308*10*v)^2"], "0.5,1,0.5,1",
         ["0.5,0.5,0.5,0,0", "0.5,1,0.5,0,0", "1,0.5,1,0,0", "1,1,1,0,0"]),
        # nan^0 is 1 in Python, so a nan on the way need not fail a row
        (["u", "v", "0^0 + u^0*(1e308*10*u - 1e308*10*u)^0"], "0,1,0,1",
         ["0,0,0,0,2", "0,1,0,1,2", "1,0,1,0,2", "1,1,1,1,2"]),
        (["u", "v", "u*v"], "-0.0,1,-0.0,1",
         ["0,0,0,0,0", "0,1,0,1,0", "1,0,1,0,0", "1,1,1,1,1"]),
        # components with no variable, -0.0 among them, on every row
        (["2", "u*v", "-0.0"], "-1,1,-1,1",
         ["-1,-1,2,1,0", "-1,1,2,-1,0", "1,-1,2,-1,0", "1,1,2,1,0"]),
        (["2", "-0.0", "-(0*u)"], "-1,1,-1,1",
         ["-1,-1,2,0,0", "-1,1,2,0,0", "1,-1,2,0,0", "1,1,2,0,0"]),
    ],
)
def test_an_inf_on_the_way_fails_no_mesh_row(capsys, tmp_path, components, box, rows):
    request = _request_file(tmp_path, {"components": components})
    rc, out, err = _run(capsys, ["mesh", "--map", request, f"--box={box}", "--grid", "2"])
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["u,v,x,y,z", *rows]


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("analyze", ["--grid", str(MAX_GRID + 1)], f"grid must be an integer in [2, {MAX_GRID}]"),
        ("mesh", ["--grid", str(MAX_GRID + 1)], f"grid must be an integer in [2, {MAX_GRID}]"),
        ("selfint", ["--span", "1e6", "--step", "1e-7"], f"span / step must be at most {MAX_ARC_STEPS}"),
        ("selfint", ["--span", "1", "--step", str(0.99 / MAX_ARC_STEPS)],
         f"span / step must be at most {MAX_ARC_STEPS}"),
    ],
)
def test_work_beyond_the_budget_is_refused_at_once(capsys, command, flags, message):
    start = time.perf_counter()
    rc, payload, _ = _run_json(
        capsys, [command, "--map", _fixture("example_cubic.json"), *flags]
    )
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert message in payload["error"]["message"]


@pytest.mark.parametrize("command", ["analyze", "selfint", "mesh"])
def test_a_sweep_beyond_the_budget_is_refused_at_once(capsys, tmp_path, command):
    # ten parameters of ten values each make 10^10 combinations
    parameters = {f"p{i}": [float(x) for x in range(10)] for i in range(10)}
    request = _request_file(
        tmp_path, {"components": ["u", "u*v + v^3", "p0*u^2 + v^2"], "parameters": parameters}
    )
    start = time.perf_counter()
    rc, payload, _ = _run_json(capsys, [command, "--map", request])
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert f"at most {MAX_SWEEP} combinations" in payload["error"]["message"]


def test_a_sweep_at_the_budget_runs_and_one_more_combination_is_refused(capsys, monkeypatch):
    # sweep.json sweeps c over four values
    monkeypatch.setattr(cli, "MAX_SWEEP", 4)
    rc, report, _ = _run_json(capsys, ["analyze", "--map", _fixture("sweep.json")])
    assert rc == 0
    assert len(report["entries"]) == 4
    monkeypatch.setattr(cli, "MAX_SWEEP", 3)
    rc, payload, _ = _run_json(capsys, ["analyze", "--map", _fixture("sweep.json")])
    assert rc == 1
    assert "at most 3 combinations" in payload["error"]["message"]


@pytest.mark.parametrize("command", ["selfint", "mesh"])
def test_single_surface_commands_refuse_a_sweep_from_its_count(capsys, monkeypatch, command):
    # the combinations are never made: calling None would raise TypeError
    monkeypatch.setattr(cli, "_sweep_combinations", None)
    rc, payload, _ = _run_json(capsys, [command, "--map", _fixture("sweep.json")])
    assert rc == 1
    assert payload["error"]["message"] == f"{command} does not support parameter sweeps"


def _deep_request(tmp_path, depth: int) -> str:
    # a left-deep sum: the head is 6 operators deep, each added term one more
    head = "sqrt(1 + v^2)^-2*exp(v)*v^2"
    component = head + " + 0*u" * (depth - 6)
    return _request_file(
        tmp_path, {"components": ["u", "u*v + v^3", component], "point": [0, 0]}
    )


def _nested_request(tmp_path, nesting: int) -> str:
    # calls and parentheses nested inside each other, exp(u) at the bottom
    calls = (nesting - 1) // 2
    parens = nesting - 1 - calls
    inner = "(" * parens + "exp(u)" + ")" * parens
    component = "v^2 + " + "sin(" * calls + inner + ")" * calls
    return _request_file(
        tmp_path, {"components": ["u", "u*v + v^3", component], "point": [0, 0]}
    )


_DEEP_COMMANDS = [
    ["analyze"],
    ["analyze", "--grid", "2"],
    ["selfint", "--span", "0.2", "--step", "0.05"],
    ["mesh", "--grid", "3"],
]


@pytest.mark.parametrize("command", _DEEP_COMMANDS, ids=lambda c: " ".join(c))
@pytest.mark.parametrize("request_for", [_deep_request, _nested_request], ids=["deep", "nested"])
def test_expressions_at_the_depth_bounds_run_and_deeper_ones_are_refused(
    capsys, tmp_path, command, request_for
):
    bound = MAX_DEPTH if request_for is _deep_request else MAX_NESTING
    request = request_for(tmp_path, bound)
    if command == ["analyze", "--grid", "2"]:
        # without the point the search runs over the batched jets
        payload = json.loads(Path(request).read_text())
        del payload["point"]
        request = _request_file(tmp_path, payload)
    rc, out, err = _run(capsys, [command[0], "--map", request, *command[1:]])
    assert (rc, err) == (0, "")
    if command[0] == "analyze":
        assert json.loads(out)["entries"]
    rc, payload, err = _run_json(
        capsys, [command[0], "--map", request_for(tmp_path, bound + 1), *command[1:]]
    )
    assert rc == 1
    assert payload["error"]["code"] == "E_PARSE"
    assert "component 3" in payload["error"]["message"]


def test_mesh_rejects_parameter_sweeps(capsys):
    rc, payload, _ = _run_json(capsys, ["mesh", "--map", _fixture("sweep.json")])
    assert rc == 1
    assert "sweep" in payload["error"]["message"]


def test_version_flag_prints_the_package_version(capsys):
    import crosscap

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == crosscap.__version__


# ---------------------------------------------------------------------------
# one process, many requests


_REQUESTS = (
    ["analyze", "--map", _fixture("example_cubic.json")],
    ["selfint", "--map", _fixture("standard.json"), "--span", "0.2", "--step", "0.05"],
    ["mesh", "--map", _fixture("standard.json"), "--grid", "4"],
    ["analyze", "--map", _fixture("bad_parse.json")],
    ["--version"],
)


def _fresh_process(argv):
    env = dict(os.environ)
    src = str(Path(crosscap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "crosscap.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return done.returncode, done.stdout, done.stderr


def _same_process(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse ends --version with exit(0)
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_repeated_requests_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process and shared by every request
    assert cli._build_parser() is cli._build_parser()
    expected = [_fresh_process(argv) for argv in _REQUESTS]
    assert [rc for rc, _, _ in expected] == [0, 0, 0, 1, 0]
    for _ in range(2):
        for argv, want in zip(_REQUESTS, expected):
            assert _same_process(capsys, argv) == want
