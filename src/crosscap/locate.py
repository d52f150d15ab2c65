"""Locating rank-one singular points and certifying the cross cap criterion.

A point is singular when the two partial derivative vectors are parallel,
i.e. the cross product f_u x f_v vanishes.  Candidates come from damped
Gauss-Newton refinement of that 3-vector residual over a seed grid.  A
certificate then rotates the source so the kernel of the differential is the
v-direction and checks Whitney's condition: f_u, f_uv, f_vv linearly
independent at the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    JetDomainError,
    NotSingularPointError,
    RankZeroError,
    WhitneyFailError,
)
from .expressions import MapDefinition, eval_map_jet
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


def _residual_jacobian(jet: MapJet3) -> np.ndarray:
    """Derivative of f_u x f_v with respect to the base point (3x2)."""
    f_u, f_v = jet.f_u(), jet.f_v()
    f_uu, f_uv, f_vv = jet.f_uu(), jet.f_uv(), jet.f_vv()
    d_u = np.cross(f_uu, f_v) + np.cross(f_u, f_uv)
    d_v = np.cross(f_uv, f_v) + np.cross(f_u, f_vv)
    return np.column_stack([d_u, d_v])


def _refine_seed(
    defn: MapDefinition,
    seed: np.ndarray,
    bounds: tuple[float, float, float, float],
    parameters: dict[str, float] | None,
) -> tuple[np.ndarray, float] | None:
    """Damped Gauss-Newton on |f_u x f_v|^2 from one seed.

    Returns the converged point and its residual norm, or None when the
    iteration stalls, diverges out of the expanded box, or leaves the
    domain of the map.
    """

    def evaluate(q: np.ndarray) -> MapJet3 | None:
        try:
            return eval_map_jet(defn, (q[0], q[1]), 2, parameters)
        except JetDomainError:
            return None

    umin, umax, vmin, vmax = bounds
    q = seed.astype(float)
    lam = 0.0
    jet = evaluate(q)
    if jet is None:
        return None
    r = _cross_residual(jet)
    rn = float(np.linalg.norm(r))
    for _ in range(60):
        if rn <= 1e-15:
            break
        jac = _residual_jacobian(jet)
        gram = jac.T @ jac
        grad = jac.T @ r
        accepted = False
        for _ in range(10):
            try:
                delta = np.linalg.solve(gram + lam * np.eye(2), -grad)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-12)
                continue
            q_new = q + delta
            if not (
                umin <= q_new[0] <= umax and vmin <= q_new[1] <= vmax
            ):
                lam = max(10.0 * lam, 1e-12)
                continue
            jet_new = evaluate(q_new)
            if jet_new is None:
                lam = max(10.0 * lam, 1e-12)
                continue
            r_new = _cross_residual(jet_new)
            rn_new = float(np.linalg.norm(r_new))
            if np.isfinite(rn_new) and rn_new < rn:
                q, jet, r, rn = q_new, jet_new, r_new, rn_new
                lam = 0.0 if lam < 1e-10 else lam / 10.0
                accepted = True
                break
            lam = max(10.0 * lam, 1e-12)
        if not accepted:
            break
        if float(np.linalg.norm(delta)) <= 1e-15 * (1.0 + float(np.linalg.norm(q))):
            break
    return q, rn


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
    within radius 1e-6 and sorted by residual.
    """
    umin, umax, vmin, vmax = (float(x) for x in search_box)
    if not (umin < umax and vmin < vmax):
        raise ContractViolationError("search box must be nondegenerate")
    if grid < 2:
        raise ContractViolationError("grid must be at least 2")
    mu = 0.5 * (umax - umin)
    mv = 0.5 * (vmax - vmin)
    bounds = (umin - mu, umax + mu, vmin - mv, vmax + mv)

    accepted: list[tuple[float, float, float]] = []
    for su in np.linspace(umin, umax, grid):
        for sv in np.linspace(vmin, vmax, grid):
            result = _refine_seed(defn, np.array([su, sv]), bounds, parameters)
            if result is None:
                continue
            q, rn = result
            if rn <= tol_singular:
                accepted.append((rn, float(q[0]), float(q[1])))

    accepted.sort()
    merged: list[tuple[float, float, float]] = []
    for rn, qu, qv in accepted:
        if any(
            (qu - pu) ** 2 + (qv - pv) ** 2 <= MERGE_RADIUS**2
            for _, pu, pv in merged
        ):
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
