"""Surfaces built from exact normal-form tables, and the checks on outputs.

Every cross cap the benchmark sends is written as

    F(u, v) = t + R g(phi(u - u0, v - v0)),   g = (x, x*y + b(y), a(x, y))

where (a, b) is a table of decimal coefficients, R a proper rotation, t a
translation and phi an orientation-preserving source change with phi(0) = 0.
The same numbers produce the expression text the program parses and the
plain-``math`` evaluator the checks use, so no check depends on the program
under test.  The pair (a, b) is unique up to the normalization, so the
program must reduce F at (u0, v0) back to exactly the written table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# the suite's own bound for invariants of congruent copies
INV_TOL = 1e-7
# the package's documented residual bound for double points
DOUBLE_POINT_TOL = 1e-8
MESH_RTOL = 1e-12
POINT_TOL = 1e-6

# symmetry classes of the tables and the verdicts each must get
VERDICTS = {"none": (), "T1": (1,), "T2": (2,), "T123": (1, 2, 3)}
# (e1, e2) signs of the target motion and the paired source signs, from the
# transport rules: a picks up the source reflection, b also flips with e2
MOTIONS = {1: ((1, -1), (1, -1)), 2: ((-1, 1), (-1, -1)), 3: ((-1, -1), (-1, 1))}


def dec(rng: random.Random, lo: float, hi: float, digits: int = 2) -> str:
    """A decimal string drawn uniformly from [lo, hi] on a 10^-digits grid."""
    scale = 10**digits
    n = rng.randint(round(lo * scale), round(hi * scale))
    return f"{n / scale:.{digits}f}"


def nonzero_dec(rng: random.Random, lo: float, hi: float) -> str:
    """Decimal with magnitude in [lo, hi] and a random sign."""
    text = dec(rng, lo, hi)
    return text if rng.random() < 0.5 else f"-{text}"


# -- normal-form tables ----------------------------------------------------------


@dataclass(frozen=True)
class Table:
    """Decimal coefficients of a(x, y) = sum a[j,k] x^j y^k and b(y) = sum b[k] y^k."""

    a: dict
    b: dict
    cls: str

    def expected(self, order: int) -> dict[str, float]:
        """The invariant table the program must report at ``order``.

        Keys follow the documented report layout: ``a_<j>_<k>`` for
        j + k <= order and ``b_<k>`` for 3 <= k <= order.
        """
        out = {}
        for degree in range(order + 1):
            for j in range(degree, -1, -1):
                out[f"a_{j}_{degree - j}"] = float(self.a.get((j, degree - j), "0"))
        for k in range(3, order + 1):
            out[f"b_{k}"] = float(self.b.get(k, "0"))
        return out

    def transported(self, order: int, j: int) -> dict[str, float]:
        """The table after transport through motion Tj: signs only."""
        (_, eps2), (s1, s2) = MOTIONS[j]
        out = {}
        for key, value in self.expected(order).items():
            parts = key.split("_")
            if parts[0] == "a":
                sign = s1 ** int(parts[1]) * s2 ** int(parts[2])
            else:
                sign = eps2 * s2 ** int(parts[1])
            out[key] = sign * value
        return out


def _allowed_a(cls: str, j: int, k: int) -> bool:
    if cls == "T1":
        return k % 2 == 0
    if cls == "T2":
        return (j + k) % 2 == 0
    if cls == "T123":
        return j % 2 == 0 and k % 2 == 0
    return True


def _allowed_b(cls: str, k: int) -> bool:
    if cls == "T1":
        return k % 2 == 1
    if cls == "T2":
        return k % 2 == 0
    if cls == "T123":
        return False
    return True


def random_table(rng: random.Random, cls: str, degrees: tuple[int, ...] = (3, 4, 5)) -> Table:
    """A few nonzero coefficients obeying the parity rules of ``cls``.

    a_0_2 is always set, plus one a term of each degree in ``degrees`` (the
    next degree up where the class allows none) and one b term.  Each class
    also carries the coefficients that break the symmetries it must not
    have: b_3 for T1 (breaks T2, T3), b_4 for T2 (breaks T1, T3), and b_3
    plus b_4 for none.  Keeping the number and degrees of the terms fixed
    keeps the cost of a request steady.
    """
    a = {(0, 2): dec(rng, 0.5, 1.5)}
    b: dict[int, str] = {}
    forced_b = {"none": (3, 4), "T1": (3,), "T2": (4,)}.get(cls, ())
    for k in forced_b:
        b[k] = nonzero_dec(rng, 0.1, 0.9)
    for d in degrees:
        slots = []
        while not slots:
            slots = [(j, d - j) for j in range(d + 1) if (j, d - j) not in a and _allowed_a(cls, j, d - j)]
            d += 1
        a[rng.choice(slots)] = nonzero_dec(rng, 0.1, 0.9)
    b_slots = [k for k in range(5, 8) if _allowed_b(cls, k)]
    if b_slots:
        b[rng.choice(b_slots)] = nonzero_dec(rng, 0.1, 0.9)
    return Table(a=a, b=b, cls=cls)


# -- source changes ----------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One summand of a source-change component: coef * shape(du, dv).

    Shapes: ``("mono", j, k)`` is du^j dv^k; ``("sin", var)`` is
    sin(var) - var; ``("cos", var)`` is 1 - cos(var); ``("exp", var)`` is
    exp(var) - 1 - var.  The transcendental shapes vanish to second order,
    so the linear part of the source change is exactly its monomials of
    degree one.
    """

    coef: str
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "_c", float(self.coef))

    def text(self, du: str, dv: str) -> str:
        kind = self.shape[0]
        if kind == "mono":
            return f"{self.coef}*{_power(du, self.shape[1], dv, self.shape[2])}"
        var = du if self.shape[1] == "u" else dv
        if kind == "sin":
            return f"{self.coef}*(sin({var}) - {var})"
        if kind == "cos":
            return f"{self.coef}*(1 - cos({var}))"
        return f"{self.coef}*(exp({var}) - 1 - {var})"

    def value(self, du: float, dv: float) -> float:
        c = self._c
        kind = self.shape[0]
        if kind == "mono":
            return c * du ** self.shape[1] * dv ** self.shape[2]
        x = du if self.shape[1] == "u" else dv
        if kind == "sin":
            return c * (math.sin(x) - x)
        if kind == "cos":
            return c * (1 - math.cos(x))
        return c * (math.exp(x) - 1 - x)


def _power(x: str, j: int, y: str, k: int) -> str:
    factors = []
    for base, m in ((x, j), (y, k)):
        if m == 1:
            factors.append(base)
        elif m > 1:
            factors.append(f"{base}^{m}")
    return "*".join(factors)


# quartiles of det(linear part) under the suite's congruence distribution
# (entries uniform in [-0.5, 0.5], determinant above 0.1); drawing one bin
# per request in turn samples the same distribution with less variance
DET_BINS = ((0.1, 0.1248), (0.1248, 0.1559), (0.1559, 0.2004), (0.2004, 0.5))


def random_source_change(
    rng: random.Random, det_bin: tuple[float, float]
) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """An orientation-preserving source change phi = (x, y) with phi(0) = 0.

    The linear part follows the suite's congruence tests, entries uniform
    in [-0.5, 0.5], with its determinant inside ``det_bin``.  Each
    component gets two nonlinear terms of size at most 0.5: a monomial of
    degree 2 and a sin, cos or exp shape.
    """
    lo, hi = det_bin
    while True:
        lin = [dec(rng, -0.5, 0.5) for _ in range(4)]
        a11, a12, a21, a22 = (float(x) for x in lin)
        if lo < a11 * a22 - a12 * a21 <= hi:
            break
    comps = []
    for c1, c2 in ((lin[0], lin[1]), (lin[2], lin[3])):
        terms = [Term(c1, ("mono", 1, 0)), Term(c2, ("mono", 0, 1))]
        monos = [("mono", 2, 0), ("mono", 1, 1), ("mono", 0, 2)]
        shapes = [rng.choice(monos), (rng.choice(("sin", "cos", "exp")), rng.choice("uv"))]
        for shape in shapes:
            terms.append(Term(nonzero_dec(rng, 0.05, 0.5), shape))
        comps.append(tuple(terms))
    return comps[0], comps[1]


def random_rotation(rng: random.Random) -> tuple[tuple[float, ...], ...]:
    """A proper rotation from a normalized Gaussian quaternion."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


# -- surfaces -------------------------------------------------------------------------


@dataclass(frozen=True)
class Surface:
    """A closed-form surface together with its own evaluator.

    ``kind`` is ``"crosscap"`` (g is the normal form of ``table``) or
    ``"whitney"`` (g = (x, y^2, y^3), singular but not a cross cap).
    """

    kind: str
    table: Table | None
    point: tuple[str, str]
    rotation: tuple | None = None
    translation: tuple[str, str, str] = ("0", "0", "0")
    phi: tuple | None = None
    components: tuple[str, str, str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "components", self._texts())
        object.__setattr__(self, "point_value", (float(self.point[0]), float(self.point[1])))
        object.__setattr__(self, "_translation", tuple(float(s) for s in self.translation))
        if self.table is not None:
            object.__setattr__(self, "_a", [(float(c), j, k) for (j, k), c in self.table.a.items()])
            object.__setattr__(self, "_b", [(float(c), k) for k, c in self.table.b.items()])

    def _offsets(self) -> tuple[str, str]:
        out = []
        for name, p in zip("uv", self.point):
            value = float(p)
            if value == 0.0:
                out.append(name)
            elif value > 0.0:
                out.append(f"({name} - {p})")
            else:
                out.append(f"({name} + {p.lstrip('-')})")
        return out[0], out[1]

    def _g_texts(self, x: str, y: str) -> tuple[str, str, str]:
        if self.kind == "whitney":
            return x, f"{y}^2", f"{y}^3"
        t = self.table
        g2 = [f"{x}*{y}"] + [f"{c}*{y}^{k}" for k, c in sorted(t.b.items())]
        g3 = [f"{c}*{_power(x, j, y, k)}" for (j, k), c in sorted(t.a.items())]
        return x, " + ".join(g2), " + ".join(g3)

    def _texts(self) -> tuple[str, str, str]:
        du, dv = self._offsets()
        if self.phi is None:
            x, y = du, dv
        else:
            x, y = (
                "(" + " + ".join(term.text(du, dv) for term in comp) + ")"
                for comp in self.phi
            )
        g = self._g_texts(x, y)
        if self.rotation is None:
            return tuple(
                g[i] if self.translation[i] == "0" else f"{self.translation[i]} + {g[i]}"
                for i in range(3)
            )
        rows = []
        for i in range(3):
            parts = [self.translation[i]]
            parts += [f"{r!r}*({gm})" for r, gm in zip(self.rotation[i], g) if r != 0.0]
            rows.append(" + ".join(parts))
        return tuple(rows)

    def _g_value(self, x: float, y: float) -> tuple[float, float, float]:
        if self.kind == "whitney":
            return x, y**2, y**3
        g2 = x * y + sum(c * y**k for c, k in self._b)
        g3 = sum(c * x**j * y**k for c, j, k in self._a)
        return x, g2, g3

    def evaluate(self, u: float, v: float) -> tuple[float, float, float]:
        u0, v0 = self.point_value
        du, dv = u - u0, v - v0
        if self.phi is None:
            x, y = du, dv
        else:
            x, y = (sum(term.value(du, dv) for term in comp) for comp in self.phi)
        g = self._g_value(x, y)
        t = self._translation
        if self.rotation is None:
            return t[0] + g[0], t[1] + g[1], t[2] + g[2]
        r = self.rotation
        return tuple(t[i] + r[i][0] * g[0] + r[i][1] * g[1] + r[i][2] * g[2] for i in range(3))


def moved_surface(
    rng: random.Random, kind: str, table: Table | None, det_bin: tuple[float, float]
) -> Surface:
    """``g`` moved by a random rotation, translation and source change."""
    return Surface(
        kind=kind,
        table=table,
        point=(dec(rng, -0.5, 0.5), dec(rng, -0.5, 0.5)),
        rotation=random_rotation(rng),
        translation=tuple(dec(rng, -2.0, 2.0) for _ in range(3)),
        phi=random_source_change(rng, det_bin),
    )


# -- checks ---------------------------------------------------------------------------
#
# Each check returns a Verdict.  A problem of kind "value" is a wrong number
# or symmetry verdict in an output that was otherwise produced; every other
# problem (an exception, a wrong exit code, a missing or malformed output, a
# wrong point or count) has kind "hard".


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def add(self, kind: str, message: str) -> None:
        self.problems.append((kind, message))


def max_abs_diff(got: dict[str, float], want: dict[str, float]) -> float:
    """Largest coefficient difference; a missing or extra key is infinite."""
    if set(got) != set(want):
        return math.inf
    return max((abs(got[k] - want[k]) for k in want), default=0.0)


def _check_table(verdict: Verdict, got: dict, want: dict, what: str) -> float:
    err = max_abs_diff(got, want)
    if not err <= INV_TOL:
        verdict.add("value", f"{what}: invariants differ from the written table by {err:.3e}")
    return err


def check_germ(surface: Surface, order: int, outcome: dict) -> Verdict:
    """The germ request's outcome against the written table.

    ``outcome`` has ``invariants``, ``holds`` (sorted symmetry indices),
    ``witnesses`` ({j: (tag, source signs, 2x2 linear part of the
    involution)} for each symmetry of the class) and ``transports``
    ({j: invariants}); when the request raised a package error it has
    ``raised`` (the class name) instead.
    """
    verdict = Verdict()
    if surface.kind == "whitney":
        if outcome.get("raised") != "WhitneyFailError":
            verdict.add("hard", f"Whitney copy: expected WhitneyFailError, got {outcome}")
        return verdict
    if "raised" in outcome:
        verdict.add("hard", f"cross cap raised {outcome['raised']}: {outcome.get('message')}")
        return verdict
    table = surface.table
    verdict.stats["inv_err"] = _check_table(
        verdict, outcome["invariants"], table.expected(order), "reduce"
    )
    want = VERDICTS[table.cls]
    verdict.stats["verdict_mismatch"] = tuple(outcome["holds"]) != want
    if verdict.stats["verdict_mismatch"]:
        verdict.add("value", f"verdicts {outcome['holds']} != class {table.cls} {want}")
    if tuple(sorted(outcome["witnesses"])) != want:
        verdict.add("value", f"witnesses {sorted(outcome['witnesses'])} != class {want}")
    for j, (tag, signs, lin) in outcome["witnesses"].items():
        _, (s1, s2) = MOTIONS[j]
        if tag != f"T{j}" or tuple(signs) != (s1, s2):
            verdict.add("hard", f"witness {j}: motion {tag} {signs}")
            continue
        # the involution's linear part is conjugate to diag(s1, s2)
        (p, q), (r, s) = lin
        squared = (p * p + q * r - 1, p * q + q * s, r * p + s * r, r * q + s * s - 1)
        if (
            abs(p + s - (s1 + s2)) > 1e-9
            or abs(p * s - q * r - s1 * s2) > 1e-9
            or max(abs(x) for x in squared) > 1e-9
        ):
            verdict.add("hard", f"witness {j}: linear part {lin} is not conjugate to {signs}")
    for j in (1, 2, 3):
        _check_table(
            verdict, outcome["transports"][j], table.transported(order, j), f"transport T{j}"
        )
    return verdict


def check_analyze(expect: dict, code: int, report: dict | None, stderr: str) -> Verdict:
    """An ``analyze`` report against the entries known by construction.

    ``expect["entries"]`` lists, per parameter binding, the cross cap
    points and, where the surface was built from a table, the table.
    """
    verdict = Verdict()
    if "Traceback" in stderr:
        verdict.add("hard", "traceback on stderr")
    certified = sum(len(e["points"]) for e in expect["entries"])
    want_code = 0 if certified else 2
    if code != want_code:
        verdict.add("hard", f"exit code {code} != {want_code}")
    if report is None:
        verdict.add("hard", "no JSON report")
        return verdict
    entries = report.get("entries", [])
    if len(entries) != len(expect["entries"]):
        verdict.add("hard", f"{len(entries)} entries != {len(expect['entries'])}")
        return verdict
    errors = []
    for index, (got, want) in enumerate(zip(entries, expect["entries"])):
        caps = got["cross_caps"]
        status = "ok" if want["points"] else "no_cross_cap"
        if got["status"] != status:
            verdict.add("hard", f"entry {index}: status {got['status']} != {status}")
        if len(caps) != len(want["points"]):
            verdict.add("hard", f"entry {index}: {len(caps)} cross caps != {len(want['points'])}")
            continue
        unmatched = list(range(len(caps)))
        for point, table in zip(want["points"], want["tables"]):
            hit = next(
                (i for i in unmatched if math.dist(caps[i]["point"], point) <= POINT_TOL),
                None,
            )
            if hit is None:
                verdict.add("hard", f"entry {index}: no cross cap at {point}")
                continue
            unmatched.remove(hit)
            if table is not None:
                errors.append(
                    _check_table(
                        verdict,
                        caps[hit]["invariants"],
                        table.expected(expect["order"]),
                        f"entry {index} cap {point}",
                    )
                )
    if errors:
        verdict.stats["inv_err"] = max(errors)
    return verdict


def _parse_csv(text: str, header: str, width: int) -> list[list[float]] | None:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            return None
        rows.append([float(x) for x in fields])
    return rows


def check_selfint(
    verdict: Verdict, surface: Surface, step: float, code: int, text: str, stderr: str
) -> None:
    """Every double-point row re-evaluated with the surface's own evaluator."""
    if code != 0:
        verdict.add("hard", f"selfint exit code {code}")
    if "Traceback" in stderr:
        verdict.add("hard", "selfint traceback on stderr")
    rows = _parse_csv(text, "s,u,v,u',v',x,y,z,residual", 9)
    if not rows:
        verdict.add("hard", "selfint CSV missing or malformed")
        return
    p = surface.point_value
    nearest = math.inf
    worst = 0.0
    for row in rows:
        q, qp, image = row[1:3], row[3:5], row[5:8]
        fq = surface.evaluate(*q)
        residual = math.dist(fq, surface.evaluate(*qp))
        worst = max(worst, residual)
        if residual > DOUBLE_POINT_TOL:
            verdict.add("value", f"s={row[0]}: |f(q) - f(q')| = {residual:.3e}")
        if math.dist(q, qp) < step / 4.0:
            verdict.add("hard", f"s={row[0]}: |q - q'| = {math.dist(q, qp):.3e} < step/4")
        if math.dist(image, fq) > DOUBLE_POINT_TOL:
            verdict.add("value", f"s={row[0]}: image is {math.dist(image, fq):.3e} from f(q)")
        nearest = min(nearest, math.dist(q, p), math.dist(qp, p))
    if nearest > step:
        verdict.add("hard", f"curve stays {nearest:.3e} > step from the cross cap")
    verdict.stats["residual_max"] = worst
    verdict.stats["samples"] = len(rows)


def check_mesh(
    verdict: Verdict,
    surface: Surface,
    box: list[float],
    grid: int,
    code: int,
    text: str,
    stderr: str,
) -> None:
    """Every mesh row against the surface's own evaluation."""
    if code != 0:
        verdict.add("hard", f"mesh exit code {code}")
    if "Traceback" in stderr:
        verdict.add("hard", "mesh traceback on stderr")
    rows = _parse_csv(text, "u,v,x,y,z", 5)
    if rows is None or len(rows) != grid * grid:
        verdict.add("hard", "mesh CSV missing, malformed or of the wrong size")
        return
    umin, umax, vmin, vmax = box
    worst = 0.0
    for index, row in enumerate(rows):
        u = umin + (umax - umin) * (index // grid) / (grid - 1)
        v = vmin + (vmax - vmin) * (index % grid) / (grid - 1)
        want = (u, v) + tuple(surface.evaluate(row[0], row[1]))
        for got_x, want_x in zip(row, want):
            worst = max(worst, abs(got_x - want_x) / max(1.0, abs(want_x)))
    if worst > MESH_RTOL:
        verdict.add("value", f"mesh rows differ from the surface by {worst:.3e} (relative)")
