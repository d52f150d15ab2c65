"""Truncated Taylor expansions (jets) in one and two variables.

Coefficient convention
----------------------
All jets store *Taylor coefficients*, not derivative values: the univariate
jet with coefficients ``c`` represents ``sum_k c[k] * t**k`` and the
bivariate jet represents ``sum_{j+k<=order} c[j,k] * u**j * v**k``.  The
second v-derivative at the centre is therefore ``2*c[0,2]``, and so on.

Bivariate coefficients live in a square ``(order+1, order+1)`` array whose
entries above the anti-diagonal (``j+k > order``) are identically zero; only
the triangular part carries information.  Every operation truncates eagerly
back to the common working order.

All jet values are immutable (their arrays are marked read-only), so they can
be shared freely between threads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    ContractViolationError,
    JetDomainError,
    NotInvertibleError,
)

__all__ = [
    "Jet1",
    "Jet2",
    "MapJet3",
    "diffeo_invert",
]


_BEYOND_RANGE = "jet coefficients beyond float range"


@lru_cache(maxsize=None)
def _triangle_mask(order: int) -> np.ndarray:
    idx = np.arange(order + 1)
    mask = (idx[:, None] + idx[None, :]) <= order
    mask.setflags(write=False)
    return mask


def _shift_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated triangle product of two coefficient arrays, in a's dtype.

    Entries above the anti-diagonal come back unmasked: only triangle
    entries of both factors ever reach a triangle entry of the result, and
    every caller masks once (the ``Jet2`` constructor, or ``mul_coeffs``).
    """
    n = len(a)
    out = np.zeros((n, n), a.dtype)
    for j in range(n):
        for k in range(n - j):
            c = a[j, k]
            if c != 0.0:
                out[j:, k:] += c * b[: n - j, : n - k]
    return out


def mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet product on raw coefficient arrays; keeps the dtype of ``a``, so
    ``numpy.longdouble`` inputs give a ``numpy.longdouble`` product."""
    return np.where(_triangle_mask(len(a) - 1), _shift_add(a, b), 0.0)


def _check_same_order(a, b) -> None:
    if a.order != b.order:
        raise ContractViolationError(
            f"jet order mismatch: {a.order} vs {b.order}"
        )


class Jet1:
    """Univariate truncated Taylor expansion: ``sum_k coeffs[k] * t**k``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[float]):
        arr = np.array(coeffs, dtype=float).reshape(-1)
        if arr.size == 0:
            raise ContractViolationError("Jet1 needs at least the constant term")
        if not np.isfinite(arr).all():
            raise ContractViolationError("jet coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "order", arr.size - 1)

    def __setattr__(self, name, value):
        raise AttributeError("Jet1 is immutable")

    def __getitem__(self, k: int) -> float:
        return float(self.coeffs[k])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet1)
            and self.order == other.order
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.order, self.coeffs.tobytes()))

    def eval(self, t: float) -> float:
        """Evaluate the truncated polynomial at ``t``."""
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * t + c
        return acc

    def truncate(self, order: int) -> "Jet1":
        """Return the jet at a new order (drops or zero-pads coefficients)."""
        if order < 0:
            raise ContractViolationError("order must be non-negative")
        out = np.zeros(order + 1)
        m = min(order, self.order)
        out[: m + 1] = self.coeffs[: m + 1]
        return Jet1(out)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        return f"Jet1(order={self.order}, coeffs={self.coeffs.tolist()})"


class Jet2:
    """Bivariate truncated Taylor expansion on the triangle ``j+k <= order``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: np.ndarray):
        if order < 0:
            raise ContractViolationError("order must be non-negative")
        arr = np.array(coeffs, dtype=float)
        if arr.shape != (order + 1, order + 1):
            raise ContractViolationError(
                f"coefficient array must be ({order + 1}, {order + 1}), got {arr.shape}"
            )
        arr = np.where(_triangle_mask(order), arr, 0.0)
        if not np.isfinite(arr).all():
            # the one check for values beyond float range in jet arithmetic;
            # the discarded entries above the anti-diagonal may overflow
            raise JetDomainError(_BEYOND_RANGE)
        arr.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Jet2 is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet2":
        arr = np.zeros((order + 1, order + 1))
        arr[0, 0] = value
        return cls(order, arr)

    @classmethod
    def var_u(cls, order: int) -> "Jet2":
        if order < 1:
            raise ContractViolationError("variable jet needs order >= 1")
        arr = np.zeros((order + 1, order + 1))
        arr[1, 0] = 1.0
        return cls(order, arr)

    @classmethod
    def var_v(cls, order: int) -> "Jet2":
        if order < 1:
            raise ContractViolationError("variable jet needs order >= 1")
        arr = np.zeros((order + 1, order + 1))
        arr[0, 1] = 1.0
        return cls(order, arr)

    @classmethod
    def from_terms(cls, order: int, terms: dict[tuple[int, int], float]) -> "Jet2":
        """Build a jet from ``{(j, k): coefficient}``; omitted terms are zero."""
        arr = np.zeros((order + 1, order + 1))
        for (j, k), value in terms.items():
            if j + k > order:
                raise ContractViolationError(
                    f"term u^{j} v^{k} exceeds order {order}"
                )
            arr[j, k] = value
        return cls(order, arr)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Jet2") -> "Jet2":
        if not isinstance(other, Jet2):
            return NotImplemented
        _check_same_order(self, other)
        return Jet2(self.order, self.coeffs + other.coeffs)

    def __sub__(self, other: "Jet2") -> "Jet2":
        if not isinstance(other, Jet2):
            return NotImplemented
        _check_same_order(self, other)
        return Jet2(self.order, self.coeffs - other.coeffs)

    def __neg__(self) -> "Jet2":
        return Jet2(self.order, -self.coeffs)

    def scale(self, factor: float) -> "Jet2":
        return Jet2(self.order, self.coeffs * float(factor))

    def __mul__(self, other):
        if isinstance(other, Jet2):
            _check_same_order(self, other)
            return Jet2(self.order, _shift_add(self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def __getitem__(self, jk: tuple[int, int]) -> float:
        j, k = jk
        return float(self.coeffs[j, k])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet2)
            and self.order == other.order
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.order, self.coeffs.tobytes()))

    # -- calculus ----------------------------------------------------------

    def truncate(self, order: int) -> "Jet2":
        """Return the jet at a new order (drops or zero-pads coefficients)."""
        if order < 0:
            raise ContractViolationError("order must be non-negative")
        out = np.zeros((order + 1, order + 1))
        m = min(order, self.order) + 1
        out[:m, :m] = self.coeffs[:m, :m]
        return Jet2(order, out)

    def compose(self, inner_u: "Jet2", inner_v: "Jet2") -> "Jet2":
        """Taylor expansion of ``self(inner_u, inner_v)``, truncated.

        Both inner jets must be centred (zero constant term); composing with
        an offset would require re-expanding around a new point.
        """
        _check_same_order(self, inner_u)
        _check_same_order(self, inner_v)
        if inner_u.coeffs[0, 0] != 0.0 or inner_v.coeffs[0, 0] != 0.0:
            raise JetDomainError(
                "inner jets of a composition must have zero constant term"
            )
        n = self.order
        u_pows = [Jet2.constant(1.0, n)]
        v_pows = [Jet2.constant(1.0, n)]
        for _ in range(n):
            u_pows.append(u_pows[-1] * inner_u)
            v_pows.append(v_pows[-1] * inner_v)
        acc = np.zeros((n + 1, n + 1))
        for j in range(n + 1):
            for k in range(n + 1 - j):
                c = self.coeffs[j, k]
                if c != 0.0:
                    acc += c * (u_pows[j] * v_pows[k]).coeffs
        return Jet2(n, acc)

    # -- views and evaluation -----------------------------------------------

    def split_constant(self) -> tuple[float, "Jet2"]:
        """The constant term and the centred rest of the jet."""
        arr = self.coeffs.copy()
        arr[0, 0] = 0.0
        return self[0, 0], Jet2(self.order, arr)

    def eval(self, du: float, dv: float) -> float:
        """Evaluate the truncated polynomial at offsets ``(du, dv)``."""
        acc = 0.0
        for j in range(self.order, -1, -1):
            row = 0.0
            for k in range(self.order - j, -1, -1):
                row = row * dv + self.coeffs[j, k]
            acc = acc * du + row
        return acc

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def terms(self) -> dict[tuple[int, int], float]:
        """Nonzero coefficients as ``{(j, k): value}`` (mostly for tests)."""
        out = {}
        for j in range(self.order + 1):
            for k in range(self.order + 1 - j):
                if self.coeffs[j, k] != 0.0:
                    out[(j, k)] = float(self.coeffs[j, k])
        return out

    def __repr__(self):
        return f"Jet2(order={self.order}, terms={self.terms()})"


def diffeo_invert(phi_u: Jet2, phi_v: Jet2) -> tuple[Jet2, Jet2]:
    """Invert the plane jet ``phi = (phi_u, phi_v)`` about the origin.

    Requires order >= 1, zero constant terms and an invertible linear part.
    The result ``psi`` satisfies ``phi(psi) = identity`` up to the working
    order; the fixed-point iteration ``psi <- L^-1 (id - N(psi))`` (with
    ``phi = L + N``, N of degree >= 2) gains one correct degree per step.
    """
    _check_same_order(phi_u, phi_v)
    n = phi_u.order
    if n < 1:
        raise ContractViolationError("diffeo inversion needs order >= 1")
    if phi_u.coeffs[0, 0] != 0.0 or phi_v.coeffs[0, 0] != 0.0:
        raise ContractViolationError("diffeo jets must have zero constant term")
    a, b = phi_u[1, 0], phi_u[0, 1]
    c, d = phi_v[1, 0], phi_v[0, 1]
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(det) <= 1e-12 * max(1.0, scale * scale):
        raise NotInvertibleError(
            f"linear part is singular (determinant {det:.3e})"
        )
    ia, ib = d / det, -b / det
    ic, id_ = -c / det, a / det

    lin_u = Jet2.from_terms(n, {(1, 0): a, (0, 1): b})
    lin_v = Jet2.from_terms(n, {(1, 0): c, (0, 1): d})
    nonlin_u = phi_u - lin_u
    nonlin_v = phi_v - lin_v

    ident_u = Jet2.var_u(n)
    ident_v = Jet2.var_v(n)
    psi_u = Jet2.from_terms(n, {(1, 0): ia, (0, 1): ib})
    psi_v = Jet2.from_terms(n, {(1, 0): ic, (0, 1): id_})
    for _ in range(n - 1):
        ru = ident_u - nonlin_u.compose(psi_u, psi_v)
        rv = ident_v - nonlin_v.compose(psi_u, psi_v)
        psi_u = ia * ru + ib * rv
        psi_v = ic * ru + id_ * rv
    return psi_u, psi_v


_SERIES_FUNCS = ("sin", "cos", "exp", "log", "sqrt", "pow_int")


def _univariate_series(tag: str, center: float, order: int, exponent: int | None):
    """Taylor coefficients of the named function about ``center``."""
    if tag == "exp":
        e = math.exp(center)
        return [e / math.factorial(k) for k in range(order + 1)]
    if tag == "sin":
        return [
            math.sin(center + k * math.pi / 2.0) / math.factorial(k)
            for k in range(order + 1)
        ]
    if tag == "cos":
        return [
            math.cos(center + k * math.pi / 2.0) / math.factorial(k)
            for k in range(order + 1)
        ]
    if tag == "log":
        if center <= 0.0:
            raise JetDomainError(f"log requires a positive base value, got {center}")
        out = [math.log(center)]
        try:
            for k in range(1, order + 1):
                out.append((-1.0) ** (k + 1) / (k * center**k))
        except (ZeroDivisionError, OverflowError):  # center**k beyond float range
            out.append(math.inf)
        if not all(math.isfinite(c) for c in out):
            raise JetDomainError(
                f"log series about the base value {center} is beyond float range"
            )
        return out
    if tag == "sqrt":
        if center <= 0.0:
            raise JetDomainError(f"sqrt requires a positive base value, got {center}")
        out = [math.sqrt(center)]
        for k in range(1, order + 1):
            out.append(out[-1] * (0.5 - (k - 1)) / (k * center))
        return out
    if tag == "pow_int":
        if exponent is None:
            raise ContractViolationError("pow_int requires an integer exponent")
        # every caller's exponent is negative; a non-negative power is a
        # product of jets
        m = int(exponent)
        if center == 0.0:
            raise JetDomainError("negative power of a value vanishing at the base point")
        out = [center**m]
        for k in range(1, order + 1):
            out.append(out[-1] * (m - (k - 1)) / (k * center))
        return out
    raise ContractViolationError(
        f"unknown function tag {tag!r}; expected one of {_SERIES_FUNCS}"
    )


@lru_cache(maxsize=None)
def _packed_plan(entries: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The triangle of ``entries`` packed entries, and ``_shift_add``'s
    products on it.

    Entry ``t`` holds ``(rows[t], cols[t])``, in the order of the loop of
    ``_shift_add``: j outer, k inner.  Each term of that loop after the
    first is ``(t, targets, sources)``: the packed index of its ``(j, k)``,
    the entries ``(j + p, k + q)`` it reaches and the entries ``(p, q)``
    of the other factor that reach them, as slices where they are runs.
    """
    order = (math.isqrt(8 * entries + 1) - 3) // 2
    pairs = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    index = {jk: t for t, jk in enumerate(pairs)}

    def runs(ix: list[int]):
        run = list(range(ix[0], ix[-1] + 1))
        return slice(ix[0], ix[-1] + 1) if ix == run else np.array(ix)

    terms = []
    for t, (j, k) in enumerate(pairs[1:], 1):
        reached = [(p, q) for p, q in pairs if p + q <= order - j - k]
        targets = [index[j + p, k + q] for p, q in reached]
        terms.append((t, runs(targets), runs([index[pq] for pq in reached])))
    rows, cols = (np.array(axis) for axis in zip(*pairs))
    return rows, cols, tuple(terms)


class _JetBatch:
    """Jets at many base points at once: the grid search's seeds, or the
    one base point of ``eval_map_jet``.

    ``coeffs`` holds the triangle packed in the entry order of
    ``_packed_plan``, with the seeds last: shape ``(entries, seeds)``.
    ``failed`` marks the seeds whose evaluation has left the domain of the
    map or float range.  Each operation runs seed by seed and term by term
    in one fixed order, so a seed that does not fail gets the same bits
    whatever its batch-mates.  Once every seed has failed, JetDomainError
    with ``reason`` ends the walk; with one seed, that is where and why its
    evaluation fails.  Callers silence numpy's warnings: failed seeds carry
    on with whatever values they hold.
    """

    __slots__ = ("coeffs", "failed")

    def __init__(self, coeffs: np.ndarray, failed: np.ndarray, reason: str = _BEYOND_RANGE):
        failed = failed | ~np.isfinite(coeffs).all(axis=0)
        if failed.all():
            raise JetDomainError(reason)
        self.coeffs = coeffs
        self.failed = failed

    @classmethod
    def variables(
        cls, bases: np.ndarray, order: int, failed: np.ndarray
    ) -> tuple["_JetBatch", "_JetBatch"]:
        """u and v about each of ``bases``, shape ``(seeds, 2)``: each the
        variable plus the constant, so a base of -0.0 gives +0.0."""
        leaves = np.zeros((2, (order + 1) * (order + 2) // 2, len(bases)))
        leaves[:, 0] += bases.T
        if order >= 1:
            leaves[0, order + 1] += 1.0
            leaves[1, 1] += 1.0
        return cls(leaves[0], failed), cls(leaves[1], failed)

    def square(self) -> np.ndarray:
        """The coefficients as ``Jet2`` holds them, one square per seed:
        shape ``(seeds, order+1, order+1)``, zero above the anti-diagonal."""
        rows, cols, _ = _packed_plan(len(self.coeffs))
        out = np.zeros((self.coeffs.shape[1], rows[-1] + 1, rows[-1] + 1))
        out[:, rows, cols] = self.coeffs.T
        return out

    def constant(self, value: float) -> "_JetBatch":
        """A constant of the same shape, failing wherever this value has
        failed."""
        arr = np.zeros_like(self.coeffs)
        arr[0] = value
        return _JetBatch(arr, self.failed)

    def __add__(self, other: "_JetBatch") -> "_JetBatch":
        return _JetBatch(self.coeffs + other.coeffs, self.failed | other.failed)

    def __sub__(self, other: "_JetBatch") -> "_JetBatch":
        return _JetBatch(self.coeffs - other.coeffs, self.failed | other.failed)

    def __neg__(self) -> "_JetBatch":
        return _JetBatch(-self.coeffs, self.failed)

    def __mul__(self, other: "_JetBatch") -> "_JetBatch":
        # the terms of _shift_add, each entry in its order.  Its zero test
        # applies to a whole row: a term whose coefficient is zero at every
        # seed is skipped, and one that is zero at some seeds adds +-0 there
        # to entries that start at +0.0, which changes no bit while the
        # factors are finite (a seed with a non-finite one has failed).  The
        # first term reaches every entry.
        a, b = self.coeffs, other.coeffs
        nonzero = a.any(axis=1).tolist()
        out = a[0] * b
        out += 0.0
        for t, targets, sources in _packed_plan(len(a))[2]:
            if nonzero[t]:
                out[targets] += a[t] * b[sources]
        return _JetBatch(out, self.failed | other.failed)

    def __pow__(self, m: int) -> "_JetBatch":
        if m < 0:
            return self.series("pow_int", m)
        # constant(1.0) * self is self + 0.0 at every seed that has not
        # failed: its first term is 0.0 + 1.0 * x, never -0.0, and the
        # later ones add 0.0 * x, which is +-0.0
        acc = _JetBatch(self.coeffs + 0.0, self.failed) if m else self.constant(1.0)
        for _ in range(m - 1):
            acc = acc * self
        return acc

    def __truediv__(self, other: "_JetBatch") -> "_JetBatch":
        return self * other**-1

    def series(self, tag: str, exponent: int | None = None) -> "_JetBatch":
        """The function ``tag`` of ``_univariate_series`` (with
        ``exponent`` for pow_int) of ``self = value + rest`` at every seed:
        the sum over k of ``series[k] * rest**k``, skipping the terms whose
        coefficient is zero.  The series comes from ``math`` once per
        distinct value, told apart by its bits, so that -0.0 and +0.0, which
        ``==`` would merge, each get their own; the seeds whose series fails
        fail alone, and its message is the reason when none is left."""
        arr = self.coeffs.copy()
        arr[0] = 0.0
        rest = _JetBatch(arr, self.failed)
        n = _packed_plan(len(arr))[0][-1]
        failed = self.failed.copy()
        live = np.flatnonzero(~failed)
        centres = self.coeffs[0, live]
        _, first, inverse = np.unique(
            centres.view(np.int64), return_index=True, return_inverse=True
        )
        table = np.zeros((len(first), n + 1))
        bad = np.zeros(len(first), bool)
        reason = _BEYOND_RANGE
        for i, at in enumerate(first):
            try:
                table[i] = _univariate_series(tag, float(centres[at]), n, exponent)
            except (JetDomainError, ArithmeticError, ValueError) as exc:
                bad[i] = True
                reason = str(exc)
        series = np.zeros((n + 1, len(failed)))
        series[:, live] = table[inverse].T
        failed[live] = bad[inverse]
        start = np.zeros_like(arr)
        start[0] = series[0]
        acc = _JetBatch(start, failed, reason)
        for k in range(1, n + 1):
            # the first power is constant(1.0) * rest, as in __pow__
            power = _JetBatch(rest.coeffs + 0.0, acc.failed) if k == 1 else power * rest
            term = _JetBatch(power.coeffs * series[k], power.failed)
            used = series[k] != 0.0
            summed = np.where(used, acc.coeffs + term.coeffs, acc.coeffs)
            acc = _JetBatch(summed, term.failed)
        return acc


class MapJet3:
    """Jet of a plane-to-space map: three centred bivariate jets plus the
    base point and its image.

    The first and second partials at the base point are plain coefficient
    reads (times factorials), exposed as 3-vectors for frame work.
    """

    __slots__ = ("components", "base_point", "base_value")

    def __init__(
        self,
        components: Iterable[Jet2],
        base_point: tuple[float, float],
        base_value: tuple[float, float, float],
    ):
        comps = tuple(components)
        if len(comps) != 3:
            raise ContractViolationError("a map jet has exactly three components")
        order = comps[0].order
        for c in comps:
            if c.order != order:
                raise ContractViolationError("map jet components must share one order")
            if c.coeffs[0, 0] != 0.0:
                raise ContractViolationError(
                    "map jet components must be centred; keep the image in base_value"
                )
        bp = (float(base_point[0]), float(base_point[1]))
        bv = tuple(float(x) for x in base_value)
        if len(bv) != 3:
            raise ContractViolationError("base_value must have three entries")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "base_point", bp)
        object.__setattr__(self, "base_value", bv)

    def __setattr__(self, name, value):
        raise AttributeError("MapJet3 is immutable")

    @classmethod
    def from_uncentered(
        cls, components: Iterable[Jet2], base_point: tuple[float, float]
    ) -> "MapJet3":
        """Split off the constant terms of raw jets into ``base_value``."""
        split = [c.split_constant() for c in components]
        return cls([c for _, c in split], base_point, [value for value, _ in split])

    @property
    def order(self) -> int:
        return self.components[0].order

    def coefficient(self, j: int, k: int) -> np.ndarray:
        """The (j, k) Taylor coefficient of all three components."""
        return np.array([c[j, k] for c in self.components])

    # true derivative vectors at the base point
    def f_u(self) -> np.ndarray:
        return self.coefficient(1, 0)

    def f_v(self) -> np.ndarray:
        return self.coefficient(0, 1)

    def f_uu(self) -> np.ndarray:
        return 2.0 * self.coefficient(2, 0)

    def f_uv(self) -> np.ndarray:
        return self.coefficient(1, 1)

    def f_vv(self) -> np.ndarray:
        return 2.0 * self.coefficient(0, 2)

    def jacobian(self) -> np.ndarray:
        """3x2 differential at the base point."""
        return np.column_stack([self.f_u(), self.f_v()])

    def truncate(self, order: int) -> "MapJet3":
        return MapJet3(
            [c.truncate(order) for c in self.components],
            self.base_point,
            self.base_value,
        )

    def precompose(self, phi_u: Jet2, phi_v: Jet2) -> "MapJet3":
        """Compose with a centred source jet: the jet of ``f(phi(.))``."""
        comps = [c.compose(phi_u, phi_v) for c in self.components]
        return MapJet3(comps, self.base_point, self.base_value)

    def __repr__(self):
        return (
            f"MapJet3(order={self.order}, base_point={self.base_point}, "
            f"base_value={self.base_value})"
        )
