"""Reduction of certified cross cap jets to normal form.

Every cross cap germ can be written, after a rotation and translation of the
target and a positive change of source coordinates, as

    (u, v) -> (u, u*v + b(v), a(u, v))

with b vanishing to second order and a vanishing to first order with a
positive v^2 coefficient.  The pair (a, b) is unique, so its truncated
coefficients are geometric invariants of the germ.  This module computes the
adapted target frame, solves for the source change degree by degree, and
extracts (a, b); it also transports normal forms across the four sign
motions diag(e1, e2, 1), which is how intrinsic symmetries are detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateFrameError,
    SolveInconsistentError,
)
from .jets import Jet1, Jet2, mul_coeffs
from .locate import CrossCapCertificate

__all__ = [
    "CongruenceMotion",
    "CrossCapFrame",
    "NormalForm",
    "characteristic_invariants",
    "reduce_to_normal_form",
    "transport_normal_form",
]

DEFAULT_ORDER = 6
MAX_ORDER = 12
REDUCTION_TOL = 1e-9

_FRAME_TOL = 1e-12


def _read_only(vec) -> np.ndarray:
    arr = np.array(vec, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CrossCapFrame:
    """Adapted orthonormal frame at the image of a cross cap.

    e1 spans the tangent line, e1 and e3 span the principal plane (the
    plane of f_u and f_vv), e2 and e3 span the normal plane, and e3 spans
    the normal line, their intersection.
    """

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _read_only(self.origin))
        object.__setattr__(self, "e1", _read_only(self.e1))
        object.__setattr__(self, "e2", _read_only(self.e2))
        object.__setattr__(self, "e3", _read_only(self.e3))
        rows = self.rotation_rows()
        if not np.allclose(rows @ rows.T, np.eye(3), atol=_FRAME_TOL, rtol=0.0):
            raise ContractViolationError("frame vectors are not orthonormal")
        if abs(np.linalg.det(rows) - 1.0) > 1e-10:
            raise ContractViolationError("frame is not right-handed")

    def rotation_rows(self) -> np.ndarray:
        """The orthogonal matrix with rows e1, e2, e3 (target -> adapted)."""
        return np.vstack([self.e1, self.e2, self.e3])


@dataclass(frozen=True)
class CongruenceMotion:
    """One of the four target sign motions diag(e1, e2, 1), together with
    the source reflection it is paired with in the transport rules."""

    tag: str
    matrix: np.ndarray
    source_signs: tuple[int, int]

    _TABLE = {
        "T0": ((1, 1), (1, 1)),
        "T1": ((1, -1), (1, -1)),
        "T2": ((-1, 1), (-1, -1)),
        "T3": ((-1, -1), (-1, 1)),
    }

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(self.matrix))

    @classmethod
    def from_tag(cls, tag: str) -> "CongruenceMotion":
        if tag not in cls._TABLE:
            raise ContractViolationError(
                f"unknown motion tag {tag!r}; expected T0, T1, T2 or T3"
            )
        (eps1, eps2), source = cls._TABLE[tag]
        return cls(tag, np.diag([float(eps1), float(eps2), 1.0]), source)

    @property
    def epsilons(self) -> tuple[int, int]:
        return int(round(self.matrix[0, 0])), int(round(self.matrix[1, 1]))


@dataclass(frozen=True)
class NormalForm:
    """Truncated normal form data of a cross cap germ.

    ``a`` and ``b`` are the characteristic jets; ``source_change`` is the
    positive coordinate change (u, v) -> (u~, v~) on the certificate's
    aligned coordinates; the frame holds the target rotation and origin.
    The reconstruction residual records how well the normal form composed
    with the source change reproduces the input jet.
    """

    a: Jet2
    b: Jet1
    frame: CrossCapFrame
    source_change: tuple[Jet2, Jet2]
    working_order: int
    reconstruction_residual: float = 0.0

    def __post_init__(self):
        n = self.working_order
        if not (3 <= n <= MAX_ORDER):
            raise ContractViolationError(
                f"working order must lie in [3, {MAX_ORDER}], got {n}"
            )
        if self.a.order != n or self.b.order != n:
            raise ContractViolationError("a and b must have the working order")
        if self.a[0, 0] != 0.0 or self.a[1, 0] != 0.0 or self.a[0, 1] != 0.0:
            raise ContractViolationError(
                "a must vanish to first order at the origin"
            )
        if self.a[0, 2] <= 0.0:
            raise ContractViolationError("a requires a positive v^2 coefficient")
        if any(self.b[k] != 0.0 for k in range(min(3, n + 1))):
            raise ContractViolationError("b must vanish to second order")
        ut, vt = self.source_change
        if ut.order != n or vt.order != n:
            raise ContractViolationError("source change must have the working order")
        det = ut[1, 0] * vt[0, 1] - ut[0, 1] * vt[1, 0]
        if det <= 0.0:
            raise ContractViolationError(
                "source change must be a positive coordinate change"
            )
        object.__setattr__(self, "source_change", (ut, vt))


def _adapted_axes(f_u, f_uv, f_vv):
    """Frame vectors from second-order data, in the dtype of the inputs.

    The provisional tangent direction is f_u normalized, e3 is the part of
    f_vv orthogonal to it, and e2 completes a right-handed triple.  When
    f_uv points against e2 both e1 and e2 are flipped, which keeps the
    triple right-handed and makes the uv-coefficient of the second adapted
    component positive.
    """
    nu = np.sqrt(f_u @ f_u)
    if nu <= 1e-300:
        raise DegenerateFrameError("f_u vanishes; no tangent direction")
    e1 = f_u / nu
    w = f_vv - (f_vv @ e1) * e1
    wn = np.sqrt(w @ w)
    if wn <= 1e-12 * max(1.0, float(np.sqrt(f_vv @ f_vv))):
        raise DegenerateFrameError(
            "f_vv is parallel to f_u; the principal plane is undefined"
        )
    e3 = w / wn
    e2 = np.cross(e3, e1)
    side = f_uv @ e2
    if side == 0.0:
        raise DegenerateFrameError(
            "f_uv lies in the principal plane; frame orientation undefined"
        )
    if side < 0.0:
        e1 = -e1
        e2 = -e2
    return e1, e2, e3


def _second_component(
    u_arr: np.ndarray, v_arr: np.ndarray, b_coeffs: np.ndarray, up_to: int
) -> np.ndarray:
    """Coefficients of u~ * v~ + sum_m b_m v~^m with m < up_to, in the
    dtype of ``u_arr``."""
    acc = mul_coeffs(u_arr, v_arr)
    power = mul_coeffs(v_arr, v_arr)
    for m in range(3, up_to):
        power = mul_coeffs(power, v_arr)
        if b_coeffs[m] != 0.0:
            acc = acc + b_coeffs[m] * power
    return acc


def _solve_characteristics(
    arrays: list[np.ndarray], order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the triangular systems for v~, b and a on the adapted jet.

    Both recurrences divide by powers of the v~ slope q, and the a system
    consumes the v~ solution through a second such cascade, so float64
    round-off can grow like 1/q^(2 order) for skewed source changes.  The
    solve therefore runs on extended-precision copies and rounds the
    results back to float64.
    """
    n = order
    g1a, g2a, g3a = (np.asarray(arr, dtype=np.longdouble) for arr in arrays)
    uu = g1a[1, 0]
    p = g2a[2, 0] / uu
    q = g2a[1, 1] / uu
    v_arr = np.zeros_like(g1a)
    v_arr[1, 0] = p
    v_arr[0, 1] = q
    b_arr = np.zeros(n + 1, dtype=g1a.dtype)
    for k in range(3, n + 1):
        acc = _second_component(g1a, v_arr, b_arr, k)
        b_arr[k] = (g2a[0, k] - acc[0, k]) / q**k
        for j in range(1, k + 1):
            rhs = (
                g2a[j, k - j]
                - acc[j, k - j]
                - b_arr[k] * comb(k, j) * p**j * q ** (k - j)
            )
            v_arr[j - 1, k - j] = rhs / uu

    u_pows = [np.zeros_like(g1a) for _ in range(n + 1)]
    v_pows = [np.zeros_like(g1a) for _ in range(n + 1)]
    u_pows[0][0, 0] = 1.0
    v_pows[0][0, 0] = 1.0
    for m in range(1, n + 1):
        u_pows[m] = mul_coeffs(u_pows[m - 1], g1a)
        v_pows[m] = mul_coeffs(v_pows[m - 1], v_arr)
    a_arr = np.zeros_like(g1a)
    low = np.zeros_like(g1a)
    for d in range(2, n + 1):
        # the degree-d unknowns only meet the linear part (uu*u, p*u + q*v)
        # of the source change, which is triangular in the v power t
        for t in range(d, -1, -1):
            rhs = g3a[d - t, t] - low[d - t, t]
            for k in range(t + 1, d + 1):
                rhs -= (
                    a_arr[d - k, k] * uu ** (d - k) * comb(k, t) * p ** (k - t) * q**t
                )
            a_arr[d - t, t] = rhs / (uu ** (d - t) * q**t)
        if d < n:
            for t in range(d + 1):
                if a_arr[d - t, t] != 0.0:
                    low = low + a_arr[d - t, t] * mul_coeffs(u_pows[d - t], v_pows[t])
    return (
        np.asarray(v_arr, dtype=float),
        np.asarray(b_arr, dtype=float),
        np.asarray(a_arr, dtype=float),
    )


def reduce_to_normal_form(cert: CrossCapCertificate, order: int) -> NormalForm:
    """Compute the truncated normal form of a certified cross cap jet.

    The adapted components g = E (f - f(p)) satisfy g1 = u~ and
    g2 = u~ v~ + b(v~) for the unknown source change (u~, v~) and the
    univariate b.  At each degree k the v^k coefficient pins b_k and the k
    monomials containing u pin the degree-(k-1) part of v~, so the solve is
    triangular.  a satisfies the matching triangular system a o (u~, v~) = g3
    and is solved the same way rather than composed with an explicit inverse,
    whose large coefficients would cancel badly.
    """
    if order < 3:
        raise ContractViolationError("reduction needs order >= 3")
    if order > MAX_ORDER:
        raise ContractViolationError(f"working order is capped at {MAX_ORDER}")
    jet = cert.aligned_jet
    if jet.order < order:
        raise ContractViolationError(
            f"certificate jet has order {jet.order}, below the requested {order}"
        )
    # the adapted components are assembled in extended precision as well:
    # round-off in the frame or the rotation enters the solve's rhs and is
    # amplified by the same power-of-q cascade as the solve's own errors
    comps = [
        np.asarray(c.coeffs, dtype=np.longdouble)
        for c in jet.truncate(order).components
    ]
    f_u = np.array([c[1, 0] for c in comps])
    f_uv = np.array([c[1, 1] for c in comps])
    f_vv = 2.0 * np.array([c[0, 2] for c in comps])
    e1, e2, e3 = _adapted_axes(f_u, f_uv, f_vv)
    frame = CrossCapFrame(
        np.array(jet.base_value),
        *(np.asarray(e, dtype=float) for e in (e1, e2, e3)),
    )
    arrays = [e[0] * comps[0] + e[1] * comps[1] + e[2] * comps[2] for e in (e1, e2, e3)]
    scale = max(1.0, max(float(np.max(np.abs(arr))) for arr in arrays))

    # frame-forced coefficients: e.f_v terms are zero by alignment, the
    # e3 row kills the linear part of g3, and e2 is orthogonal to f_vv;
    # verify they are consistent, then snap them exactly
    forced = [(0, (0, 1)), (1, (0, 1)), (2, (0, 1)), (2, (1, 0)), (1, (0, 2))]
    worst = max(abs(float(arrays[i][jk])) for i, jk in forced)
    if worst > REDUCTION_TOL * scale:
        raise SolveInconsistentError(
            f"adapted jet violates its frame constraints by {worst:.3e}"
        )
    for i, jk in forced:
        arrays[i][jk] = 0.0
    g1, g2, g3 = (Jet2(order, np.asarray(arr, dtype=float)) for arr in arrays)

    u_tilde = g1
    v_arr, b_coeffs, a_arr = _solve_characteristics(arrays, order)
    v_tilde = Jet2(order, v_arr)
    b = Jet1(b_coeffs)
    a = Jet2(order, a_arr)
    if a[0, 2] <= 0.0:
        raise SolveInconsistentError(
            "first characteristic function lost its positive v^2 coefficient"
        )

    rebuilt_2 = Jet2(
        order, _second_component(u_tilde.coeffs, v_tilde.coeffs, b_coeffs, order + 1)
    )
    rebuilt_3 = a.compose(u_tilde, v_tilde)
    residual = max(
        (rebuilt_2 - g2).max_abs(),
        (rebuilt_3 - g3).max_abs(),
    ) / scale
    if residual > REDUCTION_TOL:
        raise SolveInconsistentError(
            f"normal form reconstruction residual {residual:.3e} exceeds "
            f"{REDUCTION_TOL:.1e}"
        )
    return NormalForm(
        a=a,
        b=b,
        frame=frame,
        source_change=(u_tilde, v_tilde),
        working_order=order,
        reconstruction_residual=residual,
    )


def characteristic_invariants(nf: NormalForm) -> dict[str, float]:
    """Flat labeled table of the invariant coefficients.

    Keys are ``a_<j>_<k>`` for j+k <= order (degree-ascending, u-power
    descending) and ``b_<k>`` for 3 <= k <= order.
    """
    out: dict[str, float] = {}
    n = nf.working_order
    for degree in range(n + 1):
        for j in range(degree, -1, -1):
            out[f"a_{j}_{degree - j}"] = nf.a[j, degree - j]
    for k in range(3, n + 1):
        out[f"b_{k}"] = nf.b[k]
    return out


def _signed(jet: Jet2, sign_u: int, sign_v: int, prefactor: float = 1.0) -> Jet2:
    n = jet.order
    ju = np.array([float(sign_u) ** j for j in range(n + 1)])
    jv = np.array([float(sign_v) ** k for k in range(n + 1)])
    return Jet2(n, prefactor * (ju[:, None] * jv[None, :]) * jet.coeffs)


def transport_normal_form(nf: NormalForm, motion: CongruenceMotion) -> NormalForm:
    """Normal form of the motion applied to the germ.

    Composing the target motion diag(e1, e2, 1) with the paired source
    reflection lands back on a normal form whose data transforms by signs
    only: a picks up the source reflection, b additionally flips with e2,
    and the frame conjugates through the motion.
    """
    s1, s2 = motion.source_signs
    eps1, eps2 = motion.epsilons
    n = nf.working_order

    a = _signed(nf.a, s1, s2)
    b_signs = np.array([eps2 * float(s2) ** k for k in range(n + 1)])
    b = Jet1(b_signs * nf.b.coeffs)

    t = motion.matrix
    frame = CrossCapFrame(
        t @ nf.frame.origin,
        eps1 * (t @ nf.frame.e1),
        eps2 * (t @ nf.frame.e2),
        t @ nf.frame.e3,
    )
    ut, vt = nf.source_change
    source_change = (
        _signed(ut, s1, s2, prefactor=float(s1)),
        _signed(vt, s1, s2, prefactor=float(s2)),
    )
    return NormalForm(
        a=a,
        b=b,
        frame=frame,
        source_change=source_change,
        working_order=n,
        reconstruction_residual=nf.reconstruction_residual,
    )
