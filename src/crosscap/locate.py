"""Locating rank-one singular points and certifying the cross cap criterion.

A point is singular when the two partial derivative vectors are parallel,
i.e. the cross product f_u x f_v vanishes.  Candidates come from damped
Gauss-Newton refinement of that 3-vector residual over a seed grid.  A
certificate then rotates the source so the kernel of the differential is the
v-direction and checks Whitney's condition: f_u, f_uv, f_vv linearly
independent at the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    NotSingularPointError,
    RankZeroError,
    WhitneyFailError,
)
from .expressions import MapDefinition, eval_map_jet, eval_map_jets
from .jets import Jet2, MapJet3

__all__ = [
    "CrossCapCertificate",
    "SingularCandidate",
    "align_kernel",
    "certify_jet",
    "find_singular_points",
]

DEFAULT_TOL_SINGULAR = 1e-9
MERGE_RADIUS = 1e-6
# seeds refined together; bounds the memory of a search at any grid
SEED_BLOCK = 1024


@dataclass(frozen=True)
class SingularCandidate:
    """A refined rank-one point: location and |f_u x f_v| there."""

    point: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class CrossCapCertificate:
    """Evidence that a singular point is a cross cap.

    ``aligned_jet`` is the jet after rotating the source so the kernel is
    the v-direction (its first-order v-coefficients are exactly zero);
    ``whitney_det`` is det[f_u, f_uv, f_vv] of the aligned jet;
    ``kernel_rotation`` is the 2x2 source rotation that was applied.
    """

    point: tuple[float, float]
    aligned_jet: MapJet3
    whitney_det: float
    kernel_rotation: np.ndarray
    kernel_angle: float
    residual: float

    def __post_init__(self):
        rot = np.array(self.kernel_rotation, dtype=float)
        rot.setflags(write=False)
        object.__setattr__(self, "kernel_rotation", rot)


def _kernel_direction(jacobian: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Smallest-singular-direction of a 3x2 Jacobian.

    Returns (unit kernel vector with sin(theta) >= 0, sigma_max, sigma_min).
    """
    _, sigma, vt = np.linalg.svd(jacobian)
    k = vt[-1]
    if k[1] < 0.0 or (k[1] == 0.0 and k[0] < 0.0):
        k = -k
    return k, float(sigma[0]), float(sigma[-1])


def _kernel_angle(k: np.ndarray) -> float:
    angle = float(np.arctan2(k[1], k[0]))
    if angle < 0.0:
        angle += np.pi
    if angle >= np.pi:
        angle -= np.pi
    return angle


def _cross_residual(jet: MapJet3) -> np.ndarray:
    return np.cross(jet.f_u(), jet.f_v())


def _cross(a: tuple, b: tuple) -> tuple:
    """``np.cross`` of stacks of 3-vectors given by their components: its
    products and differences in its order, so its bits."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _residuals(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f_u x f_v and its 3x2 derivative in the base point, at every point
    of a batch of order-2 map coefficients (as from ``eval_map_jets``)."""
    f_u, f_v, f_uv = coeffs[:, :, 1, 0].T, coeffs[:, :, 0, 1].T, coeffs[:, :, 1, 1].T
    f_uu, f_vv = 2.0 * coeffs[:, :, 2, 0].T, 2.0 * coeffs[:, :, 0, 2].T
    d_u = [x + y for x, y in zip(_cross(f_uu, f_v), _cross(f_u, f_uv))]
    d_v = [x + y for x, y in zip(_cross(f_uv, f_v), _cross(f_u, f_vv))]
    jac = np.stack([np.column_stack(d_u), np.column_stack(d_v)], axis=-1)
    return np.column_stack(_cross(f_u, f_v)), jac


def _norms(x: np.ndarray) -> np.ndarray:
    # a stacked dot product gives np.linalg.norm's bits on each vector;
    # norm(axis=-1) and sqrt(sum(x*x)) do not
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _normal_equations(jac: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    jac_t = jac.transpose(0, 2, 1)
    return jac_t @ jac, (jac_t @ r[:, :, None])[:, :, 0]


def _damped_steps(
    gram: np.ndarray, grad: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (gram + lam I) delta = -grad at every seed; also a mask of the
    seeds whose matrix is singular, which have no step."""
    mats = gram + lam[:, None, None] * np.eye(2)
    rhs = -grad
    solved = np.ones(len(lam), bool)
    try:
        return np.linalg.solve(mats, rhs[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: solve seed by seed
        delta = np.zeros_like(rhs)
        for i in range(len(lam)):
            try:
                delta[i] = np.linalg.solve(mats[i], rhs[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return delta, solved


def _gauss_newton(
    defn: MapDefinition,
    seeds: np.ndarray,
    bounds: tuple[float, float, float, float],
    parameters: dict[str, float] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton on |f_u x f_v|^2 from every seed at once.

    Each seed runs its own iteration: at most 60 steps of at most 10 tries,
    a try being rejected when the damped system is singular, the point
    leaves the expanded box or the domain of the map, or the residual norm
    does not drop; lambda grows tenfold (to at least 1e-12) on a rejection
    and shrinks tenfold (to 0 below 1e-10) on an acceptance.  A seed stops
    when its residual norm or its accepted step falls to 1e-15 (the step
    relative to 1 + |q|), after 60 steps or after 10 rejected tries.  Every
    round gives each running seed one try, with one batched evaluation.

    Returns the last points, their residual norms and a mask of the seeds
    at which the map could be evaluated at all.
    """
    umin, umax, vmin, vmax = bounds
    count = len(seeds)
    q = seeds.copy()
    coeffs, failed = eval_map_jets(defn, q, 2, parameters)
    r, jac = _residuals(coeffs)
    rn = _norms(r)
    gram, grad = _normal_equations(jac, r)
    lam = np.zeros(count)
    tries = np.zeros(count, int)
    steps = np.zeros(count, int)
    running = ~failed & ~(rn <= 1e-15)
    while running.any():
        idx = np.flatnonzero(running)
        delta, solved = _damped_steps(gram[idx], grad[idx], lam[idx])
        q_new = q[idx] + delta
        tried = solved & (
            (umin <= q_new[:, 0])
            & (q_new[:, 0] <= umax)
            & (vmin <= q_new[:, 1])
            & (q_new[:, 1] <= vmax)
        )
        coeffs, failed_new = eval_map_jets(defn, q_new[tried], 2, parameters)
        r_new, jac_new = _residuals(coeffs)
        rn_new = _norms(r_new)
        better = ~failed_new & np.isfinite(rn_new) & (rn_new < rn[idx[tried]])
        accepted = np.zeros(len(idx), bool)
        accepted[tried] = better

        rejected = idx[~accepted]
        lam[rejected] = np.maximum(10.0 * lam[rejected], 1e-12)
        tries[rejected] += 1
        running[rejected[tries[rejected] == 10]] = False

        moved = idx[accepted]
        q[moved], rn[moved] = q_new[accepted], rn_new[better]
        lam[moved] = np.where(lam[moved] < 1e-10, 0.0, lam[moved] / 10.0)
        tries[moved] = 0
        steps[moved] += 1
        gram[moved], grad[moved] = _normal_equations(jac_new[better], r_new[better])
        stop = (
            (_norms(delta[accepted]) <= 1e-15 * (1.0 + _norms(q[moved])))
            | (steps[moved] == 60)
            | (rn[moved] <= 1e-15)
        )
        running[moved[stop]] = False
    return q, rn, ~failed


def _first_copies(rows: np.ndarray) -> np.ndarray:
    """The rows with no bit-identical row before them, in their order.

    A later copy of a row sorts after it and lies at distance 0 from it, so
    the merge never keeps the copy; dropping it early keeps a search's
    memory in proportion to its distinct converged points, not its seeds.
    """
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * 3)))
    _, first = np.unique(keys[:, 0], return_index=True)
    return rows[np.sort(first)]


def _within_merge_radius(du: float, dv: float) -> bool:
    try:
        return du**2 + dv**2 <= MERGE_RADIUS**2
    except OverflowError:  # a square beyond float range is far outside it
        return False


def find_singular_points(
    defn: MapDefinition,
    search_box: tuple[float, float, float, float],
    grid: int,
    tol_singular: float = DEFAULT_TOL_SINGULAR,
    parameters: dict[str, float] | None = None,
) -> list[SingularCandidate]:
    """Deduplicated rank-one points inside (a slightly expanded) search box.

    ``search_box`` is (umin, umax, vmin, vmax); ``grid`` x ``grid`` seeds are
    refined and converged points with residual <= tol_singular are merged
    within radius 1e-6 and sorted by residual.  The seeds are refined
    together, ``SEED_BLOCK`` at a time.  A box whose width or midpoint is
    beyond float range has no seed grid and is refused.
    """
    umin, umax, vmin, vmax = (float(x) for x in search_box)
    if not (umin < umax and vmin < vmax):
        raise ContractViolationError("search box must be nondegenerate")
    if grid < 2:
        raise ContractViolationError("grid must be at least 2")
    # in Python floats, which overflow to inf with no warning
    spans = (umax - umin, vmax - vmin, 0.5 * (umin + umax), 0.5 * (vmin + vmax))
    if not all(math.isfinite(x) for x in spans):
        raise ContractViolationError(
            "search box must have a width and a midpoint within float range"
        )
    mu = 0.5 * (umax - umin)
    mv = 0.5 * (vmax - vmin)
    bounds = (umin - mu, umax + mu, vmin - mv, vmax + mv)
    seeds_u = np.linspace(umin, umax, grid)
    seeds_v = np.linspace(vmin, vmax, grid)

    found = []
    with np.errstate(all="ignore"):
        for start in range(0, grid * grid, SEED_BLOCK):
            index = np.arange(start, min(start + SEED_BLOCK, grid * grid))
            block = np.column_stack([seeds_u[index // grid], seeds_v[index % grid]])
            q, rn, evaluated = _gauss_newton(defn, block, bounds, parameters)
            keep = evaluated & (rn <= tol_singular)
            found.append(_first_copies(np.column_stack([rn[keep], q[keep]])))
    # rows (residual, u, v) in seed order, sorted stably as tuples sort:
    # by residual, then u, then v
    accepted = _first_copies(np.concatenate(found))
    accepted = accepted[np.lexsort(accepted.T[::-1])]
    merged: list[tuple[float, float, float]] = []
    for row in accepted:
        rn, qu, qv = row.tolist()
        if any(_within_merge_radius(qu - pu, qv - pv) for _, pu, pv in merged):
            continue
        merged.append((rn, qu, qv))
    return [SingularCandidate(point=(qu, qv), residual=rn) for rn, qu, qv in merged]


def certify_jet(
    jet: MapJet3, tol_singular: float = DEFAULT_TOL_SINGULAR
) -> CrossCapCertificate:
    """Certify a map jet at its base point as a cross cap.

    Rotates the source so the kernel of the differential is the v-direction,
    zeroes the (certified tiny) first-order v-coefficients, and checks the
    Whitney determinant det[f_u, f_uv, f_vv] against a scale-cubed tolerance.
    """
    if jet.order < 2:
        raise ContractViolationError("certification needs a jet of order >= 2")
    residual = float(np.linalg.norm(_cross_residual(jet)))
    if residual > tol_singular:
        raise NotSingularPointError(
            f"|f_u x f_v| = {residual:.3e} exceeds tol_singular = {tol_singular:.3e}"
        )
    k, sigma_max, _ = _kernel_direction(jet.jacobian())
    coeff_scale = max(c.max_abs() for c in jet.components)
    if sigma_max <= 1e-9 * max(1.0, coeff_scale):
        raise RankZeroError(
            "the differential vanishes at the point; no kernel direction"
        )
    rotation = np.array([[k[1], k[0]], [-k[0], k[1]]])
    n = jet.order
    phi_u = Jet2.from_terms(n, {(1, 0): rotation[0, 0], (0, 1): rotation[0, 1]})
    phi_v = Jet2.from_terms(n, {(1, 0): rotation[1, 0], (0, 1): rotation[1, 1]})
    aligned = jet.precompose(phi_u, phi_v)

    # the rotation sends (0,1) to the numerical kernel, so the remaining
    # first-order v-coefficients are bounded by the certified residual;
    # snap them to honor f_v = 0 exactly
    comps = []
    for c in aligned.components:
        arr = c.coeffs.copy()
        arr[0, 1] = 0.0
        comps.append(Jet2(c.order, arr))
    aligned = MapJet3(comps, aligned.base_point, aligned.base_value)

    f_u = aligned.f_u()
    f_uv = aligned.f_uv()
    f_vv = aligned.f_vv()
    det = float(np.linalg.det(np.column_stack([f_u, f_uv, f_vv])))
    scale = max(
        float(np.linalg.norm(f_u)),
        float(np.linalg.norm(f_uv)),
        float(np.linalg.norm(f_vv)),
    )
    tol_whitney = 1e-8 * scale**3
    if abs(det) <= tol_whitney:
        raise WhitneyFailError(
            f"|det[f_u, f_uv, f_vv]| = {abs(det):.3e} is below the cross cap "
            f"threshold {tol_whitney:.3e}",
            determinant=det,
        )
    return CrossCapCertificate(
        point=jet.base_point,
        aligned_jet=aligned,
        whitney_det=det,
        kernel_rotation=rotation,
        kernel_angle=_kernel_angle(k),
        residual=residual,
    )


def align_kernel(
    defn: MapDefinition,
    p: tuple[float, float],
    order: int,
    tol_singular: float = DEFAULT_TOL_SINGULAR,
    parameters: dict[str, float] | None = None,
) -> CrossCapCertificate:
    """Evaluate the map jet at ``p`` and certify it as a cross cap."""
    jet = eval_map_jet(defn, p, order, parameters)
    return certify_jet(jet, tol_singular)
