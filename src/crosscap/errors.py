"""Exception types shared across the package.

The CLI maps these onto stable error codes (see ``crosscap.cli``); library
users can catch ``CrossCapError`` to handle every failure mode of the
pipeline in one place.
"""

from __future__ import annotations


class CrossCapError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolationError(CrossCapError):
    """An operation was called with arguments violating its preconditions
    (e.g. mixing jets of different truncation orders)."""


class JetDomainError(CrossCapError):
    """A map was evaluated or expanded outside its domain (log/sqrt of a
    non-positive base value, division by a quantity that vanishes at the
    expansion point, a value beyond float range, ...)."""


class NotInvertibleError(CrossCapError):
    """The linear part of a plane jet is singular, so no inverse jet exists."""


class ParseError(CrossCapError):
    """Syntax error in an expression string.

    Carries the byte offset of the offending position and a short
    description of what was expected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.reason = message


class UnboundParameterError(CrossCapError):
    """An expression references a parameter missing from the parameter table."""


class NotCrossCapError(CrossCapError):
    """The point under inspection is not a cross cap singularity."""


class RankZeroError(NotCrossCapError):
    """Both first partials vanish: the differential has rank zero."""


class NotSingularPointError(NotCrossCapError):
    """The differential has full rank two: the map is an immersion there."""


class WhitneyFailError(NotCrossCapError):
    """The singular point fails the independence test of the first partial
    with the two second partials, so the germ is degenerate."""

    def __init__(self, message: str, determinant: float):
        super().__init__(message)
        self.determinant = determinant


class DegenerateFrameError(CrossCapError):
    """The second v-derivative is parallel to the tangent direction; no
    adapted frame exists (implies the independence test fails too)."""


class SolveInconsistentError(CrossCapError):
    """The degree-by-degree normal form solve left a residual above
    tolerance, signalling numerical breakdown or an invalid certificate."""


class SymmetryAbsentError(CrossCapError):
    """A witness was requested for a symmetry the classifier rejects."""


class SingularPointError(CrossCapError):
    """The unit normal is undefined: the first partials are dependent."""


class SeedFailureError(CrossCapError):
    """The double-point curve corrector failed to converge at the seed."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class StepCollapseError(CrossCapError):
    """Continuation step size collapsed below the configured floor."""
