"""The package root: the README's Python quick start and the exported names."""

import re
from pathlib import Path

import crosscap

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = {
    # the functions of the README's Python quick start
    "certify_jet",
    "classify_symmetries",
    "curve_to_csv",
    "eval_map_jet",
    "find_singular_points",
    "parse_map_definition",
    "reduce_to_normal_form",
    "symmetry_witness",
    "trace_double_points",
    # the base class and the errors of the README's code table
    "CrossCapError",
    "ContractViolationError",
    "DegenerateFrameError",
    "JetDomainError",
    "NotCrossCapError",
    "NotInvertibleError",
    "NotSingularPointError",
    "ParseError",
    "RankZeroError",
    "SeedFailureError",
    "SingularPointError",
    "SolveInconsistentError",
    "StepCollapseError",
    "SymmetryAbsentError",
    "UnboundParameterError",
    "WhitneyFailError",
}


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start (Python)"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_quick_start_runs_and_gives_its_commented_values(capsys):
    namespace: dict = {}
    exec(_quick_start(), namespace)
    assert capsys.readouterr().out.startswith("s,u,v,u',v',x,y,z,residual\n")
    nf, report, w = namespace["nf"], namespace["report"], namespace["w"]
    assert nf.a.coeffs[0, 2] == 1.0
    assert nf.b.coeffs[3] == 1.0
    assert {j: v.holds for j, v in report.verdicts.items()} == {
        1: True,
        2: False,
        3: False,
    }
    assert (w.motion.tag, w.involution_text) == ("T1", "(u, -v)")


def test_the_root_exports_the_documented_names():
    assert set(crosscap.__all__) == DOCUMENTED
    assert len(crosscap.__all__) == len(DOCUMENTED)
    for name in crosscap.__all__:
        assert getattr(crosscap, name) is not None
