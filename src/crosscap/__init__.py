"""Cross cap analysis: normal forms, invariants, symmetries, intersections.

The package reduces parametric surface germs with a cross cap singularity
to the normal form (u, u*v + b(v), a(u, v)), extracts the characteristic
jets a and b as geometric invariants, classifies the intrinsic symmetries
they encode, and traces the self-intersection curve through the singular
point.  Maps are given by closed-form expressions in u and v with free
parameters; all computation happens on truncated Taylor expansions.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .double_points import curve_to_csv, trace_double_points
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
from .expressions import eval_map_jet, parse_map_definition
from .locate import certify_jet, find_singular_points
from .normal_form import reduce_to_normal_form
from .symmetry import classify_symmetries, symmetry_witness

# the functions of the README's Python quick start and every error class;
# every other public name is imported from its module
__all__ = [
    "ContractViolationError",
    "CrossCapError",
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
    "certify_jet",
    "classify_symmetries",
    "curve_to_csv",
    "eval_map_jet",
    "find_singular_points",
    "parse_map_definition",
    "reduce_to_normal_form",
    "symmetry_witness",
    "trace_double_points",
]
