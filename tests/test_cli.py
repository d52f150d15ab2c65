"""End-to-end tests of the command line front end.

Each test drives ``main`` in process with a request fixture.  Reports are
checked both semantically (parsed JSON fields) and byte-for-byte against
frozen golden files, which pins the stable field order and float formatting.
"""

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
from crosscap.cli import main

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
