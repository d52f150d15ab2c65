"""Spans around each layer's public entry points, recorded from outside.

``install`` rebinds each entry point, in its own module and wherever a
caller imported it, to a wrapper that records a span: name, start, end,
parent span and request id.  Spans stay in memory and are written out when
the run ends.  Self time is a span's duration minus the time its child
spans cover.

``Jet2.__mul__`` and ``eval_map_point`` run millions of times per run and
never call another wrapped entry point, so they are kept as leaves: their
calls and time are summed per request instead of stored one by one, and
their time still counts as covered by the enclosing span.

An entry point that no longer exists is reported as absent; its metrics
are left out instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("expressions", "jets", "locate", "normal_form", "symmetry", "double_points", "cli")

# (layer, span name, owner, attribute, modules that imported the name, leaf)
# Owner "crosscap.jets:Jet2" means the attribute of class Jet2 in crosscap.jets.
TARGETS = (
    ("expressions", "expressions.parse", "crosscap.expressions", "parse_map_definition",
     ("crosscap.cli",), False),
    ("expressions", "expressions.jet", "crosscap.expressions", "eval_map_jet",
     ("crosscap.locate", "crosscap.double_points"), False),
    ("expressions", "expressions.point", "crosscap.expressions", "eval_map_point",
     ("crosscap.cli",), True),
    ("jets", "jets.mul", "crosscap.jets:Jet2", "__mul__", (), True),
    ("jets", "jets.compose", "crosscap.jets:Jet2", "compose", (), False),
    ("jets", "jets.invert", "crosscap.jets", "diffeo_invert",
     ("crosscap.symmetry", "crosscap.double_points"), False),
    ("locate", "locate.search", "crosscap.locate", "find_singular_points",
     ("crosscap.cli",), False),
    ("locate", "locate.align", "crosscap.locate", "align_kernel", ("crosscap.cli",), False),
    ("locate", "locate.certify", "crosscap.locate", "certify_jet", (), False),
    ("normal_form", "normal_form.reduce", "crosscap.normal_form", "reduce_to_normal_form",
     ("crosscap.cli", "crosscap.double_points"), False),
    ("normal_form", "normal_form.transport", "crosscap.normal_form", "transport_normal_form",
     ("crosscap.cli",), False),
    ("symmetry", "symmetry.classify", "crosscap.symmetry", "classify_symmetries",
     ("crosscap.cli",), False),
    ("symmetry", "symmetry.witness", "crosscap.symmetry", "symmetry_witness", (), False),
    ("double_points", "double_points.trace", "crosscap.double_points", "trace_double_points",
     ("crosscap.cli",), False),
    ("double_points", "double_points.transversality", "crosscap.double_points",
     "transversality_check", ("crosscap.cli",), False),
    ("double_points", "double_points.csv", "crosscap.double_points", "curve_to_csv",
     ("crosscap.cli",), False),
    ("cli", "cli.main", "crosscap.cli", "main", (), False),
)

LAYER_OF = {name: layer for layer, name, *_ in TARGETS}

# metrics derived from more than the span their name starts with
NEEDS = {
    "locate.seeds": ("locate.search",),
    "locate.evals_per_seed": ("locate.search", "expressions.jet"),
    "locate.yield": ("locate.search", "locate.align"),
    "double_points.samples": ("double_points.trace",),
    "double_points.evals_per_sample": ("double_points.trace", "expressions.jet"),
    "double_points.seed.ms_per_call": ("double_points.trace",),
    "cli.self_s": ("cli.main",),
}


def _order_suffix(name: str, args: tuple, kwargs: dict) -> str:
    """Spans of the order-dependent entry points carry the order."""
    if name == "expressions.jet":
        order = kwargs.get("order", args[2] if len(args) > 2 else None)
        return "expressions.jet_low" if order is not None and order <= 2 else "expressions.jet_high"
    if name == "normal_form.reduce":
        order = kwargs.get("order", args[1] if len(args) > 1 else None)
        return f"normal_form.reduce.o{order}"
    return name


def _annotation(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    if name == "locate.search":
        grid = kwargs.get("grid", args[2] if len(args) > 2 else 0)
        return {"seeds": int(grid) ** 2}
    if name == "double_points.trace":
        return {"samples": len(result.samples)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, ok, self, note)
        self.stack: list[list] = []  # open spans: [id, covered seconds]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (request, name) -> [calls, seconds]
        self.request = -1
        self.next_id = 0
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool):
        tracer = self
        clock = time.perf_counter

        if leaf:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    if tracer.stack:
                        tracer.stack[-1][1] += elapsed
                    entry = tracer.leaves[(tracer.request, name)]
                    entry[0] += 1
                    entry[1] += elapsed
        else:
            def wrapper(*args, **kwargs):
                span_name = _order_suffix(name, args, kwargs)
                span_id = tracer.next_id
                tracer.next_id += 1
                parent = tracer.stack[-1][0] if tracer.stack else None
                frame = [span_id, 0.0]
                tracer.stack.append(frame)
                ok = False
                result = None
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    end = clock()
                    tracer.stack.pop()
                    elapsed = end - start
                    if tracer.stack:
                        tracer.stack[-1][1] += elapsed
                    note = _annotation(name, args, kwargs, result) if ok else None
                    tracer.spans.append(
                        (span_id, span_name, start, end, parent, tracer.request, ok,
                         elapsed - frame[1], note)
                    )

        wrapper.__wrapped__ = fn
        return wrapper

    def request_span(self, request_id: int, fn):
        """Run one request as the root span ``request``; its self time is
        the request time no layer span covers."""
        self.request = request_id
        return self._wrap("request", fn, leaf=False)()

    # -- installing ---------------------------------------------------------------

    def install(self) -> None:
        for _, name, owner, attr, importers, leaf in TARGETS:
            module_name, _, class_name = owner.partition(":")
            try:
                holder = importlib.import_module(module_name)
                if class_name:
                    holder = getattr(holder, class_name)
                original = holder.__dict__[attr] if class_name else getattr(holder, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, leaf)
            self._rebind(holder, attr, original, wrapper)
            for importer in importers:
                try:
                    module = importlib.import_module(importer)
                except ImportError:
                    continue
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, original, wrapper)

    def _rebind(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        """Write every span, one JSON array per line, plus the leaf sums."""
        with path.open("w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "request", "ok",
                                 "self", "note"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (request, name), (calls, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps(["leaf", name, request, calls, seconds]) + "\n")

    # -- per-layer metrics ----------------------------------------------------------

    def metrics(self, requests: int, verdict_stats: list[dict]) -> dict[str, float]:
        """The per-layer metrics; counts and self times are per request."""
        per_req = 1.0 / max(requests, 1)
        by_name = defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
        layer_self = defaultdict(float)
        parent_of = {}
        name_of = {}
        for span_id, name, start, end, parent, _, _, self_s, _ in self.spans:
            entry = by_name[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
            parent_of[span_id] = parent
            name_of[span_id] = name
            layer = "other" if name == "request" else LAYER_OF.get(_base(name), "other")
            layer_self[layer] += self_s
        for (_, name), (calls, seconds) in self.leaves.items():
            by_name[name][0] += calls
            by_name[name][1] += seconds
            by_name[name][2] += seconds
            layer_self[LAYER_OF[name]] += seconds

        def ancestors(span_id):
            parent = parent_of.get(span_id)
            while parent is not None:
                yield name_of[parent]
                parent = parent_of.get(parent)

        def mean(name, scale):
            calls, seconds, _ = by_name.get(name, (0, 0.0, 0.0))
            return scale * seconds / calls if calls else 0.0

        m: dict[str, float] = {}
        m["expressions.parse.us_per_call"] = mean("expressions.parse", 1e6)
        m["expressions.jet_low.calls"] = by_name["expressions.jet_low"][0] * per_req
        m["expressions.jet_low.us_per_call"] = mean("expressions.jet_low", 1e6)
        m["expressions.jet_high.calls"] = by_name["expressions.jet_high"][0] * per_req
        m["expressions.jet_high.ms_per_call"] = mean("expressions.jet_high", 1e3)
        m["expressions.point.calls"] = by_name["expressions.point"][0] * per_req
        m["expressions.point.us_per_call"] = mean("expressions.point", 1e6)
        m["jets.mul.calls"] = by_name["jets.mul"][0] * per_req
        m["jets.mul.us_per_call"] = mean("jets.mul", 1e6)
        m["jets.compose.calls"] = by_name["jets.compose"][0] * per_req
        m["jets.compose.ms_per_call"] = mean("jets.compose", 1e3)
        m["jets.invert.calls"] = by_name["jets.invert"][0] * per_req
        m["jets.invert.ms_per_call"] = mean("jets.invert", 1e3)

        seeds = searched_evals = 0
        search_requests = set()
        trace_evals = samples = 0
        seed_time = 0.0
        for span_id, name, start, end, parent, request, ok, _, note in self.spans:
            if name == "locate.search" and note:
                seeds += note["seeds"]
                search_requests.add(request)
            elif name == "double_points.trace" and note:
                samples += note["samples"]
            elif name.startswith("expressions.jet"):
                above = set(ancestors(span_id))
                if "locate.search" in above:
                    searched_evals += 1
                if "double_points.trace" in above:
                    trace_evals += 1
            elif parent is not None and name_of.get(parent) == "double_points.trace" and (
                name.startswith("normal_form.reduce") or name == "jets.invert"
            ):
                seed_time += end - start
        certified = sum(
            1
            for _, name, _, _, _, request, ok, _, _ in self.spans
            if name == "locate.align" and ok and request in search_requests
        )
        traces = by_name["double_points.trace"][0]
        m["locate.search.self_s"] = by_name["locate.search"][2] * per_req
        m["locate.seeds"] = seeds * per_req
        m["locate.evals_per_seed"] = searched_evals / seeds if seeds else 0.0
        m["locate.yield"] = certified / seeds if seeds else 0.0
        m["locate.certify.ms_per_call"] = mean("locate.certify", 1e3)

        for order in (6, 9, 12):
            m[f"normal_form.reduce.ms_per_call.o{order}"] = mean(f"normal_form.reduce.o{order}", 1e3)
        m["normal_form.transport.us_per_call"] = mean("normal_form.transport", 1e6)
        for order in (6, 9, 12):
            errs = [s["inv_err"] for s in verdict_stats if s.get("order") == order and "inv_err" in s]
            m[f"normal_form.inv_err_max.o{order}"] = max(errs, default=0.0)

        m["symmetry.classify.us_per_call"] = mean("symmetry.classify", 1e6)
        m["symmetry.witness.calls"] = by_name["symmetry.witness"][0] * per_req
        m["symmetry.witness.ms_per_call"] = mean("symmetry.witness", 1e3)
        m["symmetry.verdict_mismatch"] = sum(
            1 for s in verdict_stats if s.get("verdict_mismatch")
        ) * per_req

        m["double_points.trace.self_s"] = by_name["double_points.trace"][2] * per_req
        m["double_points.samples"] = samples * per_req
        m["double_points.evals_per_sample"] = trace_evals / samples if samples else 0.0
        m["double_points.seed.ms_per_call"] = 1e3 * seed_time / traces if traces else 0.0
        m["double_points.transversality.ms_per_call"] = mean("double_points.transversality", 1e3)
        m["double_points.csv.ms_per_call"] = mean("double_points.csv", 1e3)
        m["double_points.residual_max"] = max(
            (s["residual_max"] for s in verdict_stats if "residual_max" in s), default=0.0
        )
        m["cli.self_s"] = by_name["cli.main"][2] * per_req
        m["cli.bytes_out"] = sum(s.get("bytes_out", 0) for s in verdict_stats) * per_req

        for layer in LAYERS + ("other",):
            m[f"{layer}.self_s"] = layer_self[layer] * per_req
        for key in list(m):
            needs = NEEDS.get(key, ())
            if any(
                name in needs or key.startswith(name + ".") or key.startswith(name + "_")
                for name in self.absent
            ):
                del m[key]
        return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(".us_per_call"):
        return "us"
    if ".ms_per_call" in name:
        return "ms"
    if name.endswith("self_s"):
        return "s/req"
    if name.endswith(".bytes_out"):
        return "bytes/req"
    if name.startswith("normal_form.inv_err_max") or name == "double_points.residual_max":
        return "abs"
    if name in ("locate.evals_per_seed", "locate.yield", "double_points.evals_per_sample",
                "trace.overhead"):
        return "ratio"
    return "count/req"


def _base(name: str) -> str:
    """Span name without the order suffix."""
    if name.startswith("expressions.jet"):
        return "expressions.jet"
    if name.startswith("normal_form.reduce"):
        return "normal_form.reduce"
    return name
