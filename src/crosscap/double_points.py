"""Unit normals away from the singular point and the self-intersection curve.

Near a cross cap the set of points whose image is hit twice forms, together
with the singular point itself, a regular curve through it.  The tracer
works in the doubled source space: the system f(q) - f(q') = 0 has three
equations in four unknowns, and its solution set off the diagonal is the
one-dimensional object being traced.  Seeding uses the normal-form relation
u (v - v') = b(v') - b(v) with v' = -v, pushed back through the source
change; continuation is predictor-corrector with the tangent taken from the
null space of the 3x4 Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    JetDomainError,
    SeedFailureError,
    SingularPointError,
    StepCollapseError,
)
from .expressions import MapDefinition, stage_map_jet1
from .jets import diffeo_invert
from .locate import CrossCapCertificate
from .normal_form import reduce_to_normal_form

__all__ = [
    "DoublePointCurve",
    "DoublePointSample",
    "curve_to_csv",
    "trace_double_points",
    "transversality_check",
]

RESIDUAL_BOUND = 1e-8
_CORRECTOR_TOL = 1e-11
_ROW_BLOCK = 4096


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a 1-D array, computed as numpy's ``linalg.norm`` does."""
    return math.sqrt(x.dot(x))


def _normal(
    c: np.ndarray, f_u: np.ndarray, f_v: np.ndarray, q: tuple[float, float]
) -> np.ndarray:
    """c/|c| for c = f_u x f_v; a singular point has no normal direction."""
    cn = _norm(c)
    bound = 1e-12 * _norm(f_u) * _norm(f_v)
    if cn <= bound:
        raise SingularPointError(
            f"point {q} is singular; the normal direction is undefined"
        )
    return c / cn


@dataclass(frozen=True)
class DoublePointSample:
    """One matched pair on the self-intersection curve.

    ``s`` is the signed arc parameter in the doubled source space with 0 at
    the crossing through the singular point; ``image`` is the common image
    (midpoint of the two evaluations); ``residual`` is |f(q) - f(q')|;
    ``jacobian`` is the 3x4 matrix [f_u(q), f_v(q), -f_u(q'), -f_v(q')] of
    f(q) - f(q') that the corrector accepted the sample with.
    """

    s: float
    q: tuple[float, float]
    q_prime: tuple[float, float]
    image: np.ndarray
    residual: float
    jacobian: np.ndarray

    def __post_init__(self):
        for name in ("image", "jacobian"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def mirrored(self) -> "DoublePointSample":
        """The same double point with q and q' exchanged, at arc parameter -s."""
        jac = self.jacobian
        return DoublePointSample(
            s=-self.s,
            q=self.q_prime,
            q_prime=self.q,
            image=self.image,
            residual=self.residual,
            jacobian=np.hstack([-jac[:, 2:], -jac[:, :2]]),
        )


@dataclass(frozen=True)
class DoublePointCurve:
    samples: tuple[DoublePointSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        for sample in self.samples:
            if sample.q == sample.q_prime:
                raise ContractViolationError(
                    "double point samples must stay off the diagonal"
                )
            if sample.residual > RESIDUAL_BOUND:
                raise ContractViolationError(
                    f"sample residual {sample.residual:.3e} exceeds "
                    f"{RESIDUAL_BOUND:.1e}"
                )


class _DoubledSystem:
    """f(q) - f(q') and its 3x4 Jacobian over the doubled source space."""

    def __init__(self, defn: MapDefinition, parameters: dict[str, float] | None):
        self.jets = stage_map_jet1(defn, parameters)

    def residual(self, x) -> tuple[tuple, tuple, tuple]:
        """At the state ``x``, four floats: f(q) - f(q'), the rows of the
        Jacobian, and the image 0.5 (f(q) + f(q')), all in floats."""
        (a, a_u, a_v), (b, b_u, b_v), (c, c_u, c_v) = self.jets((x[0], x[1]))
        (p, p_u, p_v), (q, q_u, q_v), (r, r_u, r_v) = self.jets((x[2], x[3]))
        return (
            (a - p, b - q, c - r),
            ((a_u, a_v, -p_u, -p_v), (b_u, b_v, -q_u, -q_v), (c_u, c_v, -r_u, -r_v)),
            (0.5 * (a + p), 0.5 * (b + q), 0.5 * (c + r)),
        )


def _tangent(jac: np.ndarray, reference: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(jac)
    t = vt[-1]
    if float(t @ reference) < 0.0:
        t = -t
    return t


def _correct(
    system: _DoubledSystem, x, tangent: np.ndarray | None
) -> tuple[tuple[tuple, np.ndarray, tuple, float] | None, float]:
    """Newton iterations driving |f(q) - f(q')| below the corrector tol.

    With a tangent the step solves the square bordered system (moves in the
    hyperplane normal to the tangent); without one it takes the least-norm
    step.  The state is four floats, and each step adds numpy's solution to
    them in floats, as numpy would add the arrays.  Returns (state,
    jacobian, image, |f(q) - f(q')|) or None, and the smallest max-norm
    residual seen (inf when none was finite).
    """
    best = math.inf
    border = None if tangent is None else tuple(tangent.tolist())
    for _ in range(25):
        try:
            r, jac, image = system.residual(x)
        except JetDomainError:
            return None, best
        # the jets are finite, so a difference is finite or +-inf, never nan
        if not all(map(math.isfinite, r)):
            return None, best
        rn = max(map(abs, r))
        best = min(best, rn)
        if rn <= _CORRECTOR_TOL:
            return (tuple(x), np.array(jac), image, _norm(np.array(r))), best
        rhs = [-t for t in r]
        try:
            if border is None:
                delta, *_ = np.linalg.lstsq(np.array(jac), np.array(rhs), rcond=None)
            else:
                delta = np.linalg.solve(np.array([*jac, border]), np.array([*rhs, 0.0]))
        except np.linalg.LinAlgError:
            return None, best
        delta = delta.tolist()
        if not all(map(math.isfinite, delta)):
            return None, best
        x = [a + b for a, b in zip(x, delta)]
    return None, best


def _seed_state(
    cert: CrossCapCertificate, arc_span: float, step: float
) -> np.ndarray:
    """Initial doubled-space guess from the normal-form double-point model."""
    nf = reduce_to_normal_form(cert, cert.aligned_jet.order)
    v0 = min(max(4.0 * step, 0.02), 0.5 * arc_span)
    x0 = -(nf.b.eval(v0) - nf.b.eval(-v0)) / (2.0 * v0)
    psi_u, psi_v = diffeo_invert(*nf.source_change)
    rot = cert.kernel_rotation
    p = np.array(cert.point)
    out = []
    for y in (v0, -v0):
        w = np.array([psi_u.eval(x0, y), psi_v.eval(x0, y)])
        out.append(p + rot @ w)
    return np.concatenate(out)


def _trace_direction(
    system: _DoubledSystem,
    start: np.ndarray,
    start_jac: np.ndarray,
    direction: np.ndarray,
    budget: float,
    step: float,
) -> list[tuple[np.ndarray, np.ndarray, tuple, float]]:
    """Continuation from ``start`` along ``direction`` until the arc budget,
    the diagonal guard, or a domain exit.  Returns the corrector's
    (state, jacobian, image, residual) at every accepted state, the
    residual being |f(q) - f(q')|.

    The guard only fires when a corrected point lands closer to the
    diagonal than step/4; a healthy crossing jumps over that zone, so the
    trace normally passes straight through the singular point.
    """
    samples: list[tuple[np.ndarray, np.ndarray, tuple, float]] = []
    x = start
    tangent = _tangent(start_jac, direction)
    h = step
    arc = 0.0
    min_gap = step / 4.0
    while arc < budget:
        advanced = False
        here, t = x.tolist(), tangent.tolist()
        while h >= step / 64.0:
            # x + h * tangent in floats, as numpy forms it
            predicted = [a + h * b for a, b in zip(here, t)]
            corrected, _ = _correct(system, predicted, tangent)
            if corrected is not None:
                state, jac_new, image_new, residual_new = corrected
                x_new = np.array(state)
                moved = _norm(x_new - x)
                gap = _gap(x_new)
                if gap < min_gap:
                    return samples
                if moved > 3.0 * h or moved == 0.0:
                    h *= 0.5
                    continue
                arc += moved
                x = x_new
                tangent = _tangent(jac_new, tangent)
                samples.append((x, jac_new, image_new, residual_new))
                h = min(step, 2.0 * h)
                advanced = True
                break
            h *= 0.5
        if not advanced:
            if not samples:
                raise StepCollapseError(
                    f"continuation step collapsed below {step / 64.0:.3e} "
                    "before any progress"
                )
            return samples
    return samples


def _gap(state: np.ndarray) -> float:
    return _norm(state[:2] - state[2:])


def trace_double_points(
    defn: MapDefinition,
    cert: CrossCapCertificate,
    arc_span: float,
    step: float,
    parameters: dict[str, float] | None = None,
) -> DoublePointCurve:
    """Trace the self-intersection curve through the certified cross cap.

    The curve is sampled as matched pairs (q, q') with f(q) = f(q'); the
    samples run from arc parameter -arc_span to +arc_span with the crossing
    through the singular point at 0.  One continuation direction passes
    through the crossing onto the branch with q and q' exchanged, the other
    runs outward; either direction stops early on domain exit or when a
    corrected point violates the diagonal guard |q - q'| >= step/4.
    """
    if step <= 0.0 or arc_span <= 0.0:
        raise ContractViolationError("arc_span and step must be positive")
    system = _DoubledSystem(defn, parameters)
    guess = _seed_state(cert, arc_span, step)
    seeded, best = _correct(system, guess.tolist(), None)
    if seeded is None:
        raise SeedFailureError(
            "corrector failed to converge on the double-point seed",
            best_residual=best,
        )
    state0, jac0, image0, residual0 = seeded
    x0 = np.array(state0)
    offset0 = _gap(x0) / math.sqrt(2.0)
    if _gap(x0) < step / 4.0:
        raise SeedFailureError(
            "double-point seed collapsed onto the diagonal", best_residual=best
        )

    away = np.concatenate([x0[:2] - x0[2:], x0[2:] - x0[:2]])
    away /= _norm(away)
    inward = _trace_direction(
        system, x0, jac0, -away, offset0 + arc_span + 2.0 * step, step
    )
    outward = _trace_direction(
        system, x0, jac0, away, max(arc_span - offset0, 0.0) + 2.0 * step, step
    )

    chain = list(reversed(inward))
    chain.append((x0, jac0, image0, residual0))
    chain.extend(outward)

    positions = [0.0]
    for (xa, *_), (xb, *_) in zip(chain, chain[1:]):
        positions.append(positions[-1] + _norm(xb - xa))

    # locate the diagonal crossing: the reference separation is the one at
    # the outward end; entries on the far side have it reversed
    reference = chain[-1][0][:2] - chain[-1][0][2:]
    sides = [float((state[:2] - state[2:]) @ reference) for state, *_ in chain]
    flip = next((i for i, side in enumerate(sides) if side > 0.0), 0)
    crossed = flip > 0
    if crossed:
        before = positions[flip - 1] + _gap(chain[flip - 1][0]) / math.sqrt(2.0)
        after = positions[flip] - _gap(chain[flip][0]) / math.sqrt(2.0)
        crossing = 0.5 * (before + after)
    else:
        crossing = positions[0] - _gap(chain[0][0]) / math.sqrt(2.0)

    samples: list[DoublePointSample] = []
    for (state, jac, image, residual), pos in zip(chain, positions):
        s = pos - crossing
        if abs(s) > arc_span:
            continue
        samples.append(
            DoublePointSample(
                s=s,
                q=(float(state[0]), float(state[1])),
                q_prime=(float(state[2]), float(state[3])),
                image=image,
                residual=residual,
                jacobian=jac,
            )
        )
    if not crossed:
        # the trace stopped at the diagonal guard instead of jumping the
        # crossing; complete the other branch by the exact swap symmetry
        samples = [sample.mirrored() for sample in reversed(samples)] + samples
    return DoublePointCurve(samples=tuple(samples))


def transversality_check(curve: DoublePointCurve) -> np.ndarray:
    """Angle between the two sheets' tangent planes at every sample.

    Measured between the unit normals at q and q', in [0, pi], which are
    read off each sample's Jacobian; the value is independent of the
    orientation of the normals.  Angles near 0 indicate a tangency; near
    the singular point the angle approaches pi, which is the expected
    behavior, not a degeneracy.
    """
    # one np.cross over all samples computes each row by the formula it
    # uses on one row; the norms stay per row, as a norm over an axis can
    # round differently from the 1-D one
    jac = np.array([sample.jacobian for sample in curve.samples]).reshape(-1, 3, 4)
    f_u, f_v, g_u, g_v = jac[:, :, 0], jac[:, :, 1], -jac[:, :, 2], -jac[:, :, 3]
    c, c_p = np.cross(f_u, f_v), np.cross(g_u, g_v)
    angles = np.empty(len(jac))
    for i, sample in enumerate(curve.samples):
        nu = _normal(c[i], f_u[i], f_v[i], sample.q)
        nu_p = _normal(c_p[i], g_u[i], g_v[i], sample.q_prime)
        angles[i] = math.acos(float(np.clip(nu @ nu_p, -1.0, 1.0)))
    return angles


def curve_to_csv(curve: DoublePointCurve) -> str:
    """CSV export with columns s, u, v, u', v', x, y, z, residual."""
    table = np.array(
        [
            (sample.s, *sample.q, *sample.q_prime, *sample.image, sample.residual)
            for sample in curve.samples
        ],
        dtype=float,
    ).reshape(-1, 9)
    return "s,u,v,u',v',x,y,z,residual\n" + "".join(format_rows(np.hsplit(table, 9)))


def format_float(x: float) -> str:
    """The one number format of every report and CSV: 17 significant
    digits, -0.0 written as 0, and non-finite values refused."""
    x = float(x)
    if not math.isfinite(x):
        raise ContractViolationError("report fields must be finite")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def format_rows(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """The CSV text of a table given by its columns, each value as
    ``format_float`` writes it.

    The columns broadcast together to the table's 2-D shape, whose entries
    in C order are the rows: for ``mesh`` the grid, u outer and v inner.  A
    column with fewer entries than the table, one that varies along a
    single axis of the grid or along none, is formatted once per entry; a
    full column is formatted as its rows are made.  The text comes in
    blocks of whole grid lines, at most ``_ROW_BLOCK`` rows or else one
    line each, so a large table is never held as text.  A value that is not
    finite is refused at the call, before any text is made.
    """
    columns = [np.atleast_2d(np.asarray(column, float)) for column in columns]
    if not all(np.isfinite(column).all() for column in columns):
        raise ContractViolationError("report fields must be finite")
    lines, width = np.broadcast_shapes(*(column.shape for column in columns))
    cells = []
    for column in columns:
        if column.size < lines * width:
            text = map(format_float, column.ravel().tolist())
            column = np.array(list(text), object).reshape(column.shape)
        cells.append(column)
    # the formatted columns enter the rows as text, the full ones as floats
    row = ",".join("%s" if c.dtype == object else "%.17g" for c in cells) + "\n"
    return _blocks(cells, row, lines, width)


def _blocks(
    cells: list[np.ndarray], row: str, lines: int, width: int
) -> Iterator[str]:
    """The rows of ``cells``, each made by the template ``row``, joined a
    block of whole lines at a time."""
    step = max(1, _ROW_BLOCK // max(width, 1))
    for start in range(0, lines, step):
        stop = min(lines, start + step)
        fields = []
        for column in cells:
            if column.dtype != object:
                column = column[start:stop] + 0.0  # -0.0 written as 0
            elif len(column) > 1:
                column = column[start:stop]
            block = np.broadcast_to(column, (stop - start, width))
            fields.append(block.ravel().tolist())
        yield "".join(map(row.__mod__, zip(*fields)))
