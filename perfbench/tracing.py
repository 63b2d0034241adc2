"""Outside-in tracing: spans around the public entry points of each
cyclespec module, recorded in memory by wrappers that the benchmark
installs on the module objects (the package itself is not modified).

Only the entry points the CLI pipeline crosses are wrapped, so each span's
self time is the whole cost of its layer below that entry point; for
example ``finite_field.find_primitive`` includes the order computations it
calls.  ``cli.main`` is the only cli span, so its self time is argument
parsing, dispatch and rendering.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

SPANS = {
    "cli": ("main",),
    "finite_field": ("find_irreducible", "extend", "find_primitive"),
    "singer": ("singer_difference_set", "verify_perfect_difference_set"),
    "cycleset": ("derive_cycle_set_trace",),
    "graphs": ("build_graph", "predicted_spectrum", "export_graph", "import_graph"),
    "oracle": ("enumerate_cycles", "bound_report", "verification_report"),
    "search": ("exact_g",),
}
# Spans whose self time is also split by the kind of field tower: "tower"
# when q = p^m with m > 1 (GF(p) -> GF(q) -> GF(q^3)), else "prime".
FIELD_SPLIT = ("finite_field.find_irreducible", "finite_field.extend",
               "finite_field.find_primitive", "singer.singer_difference_set")
SEARCH_N = (12, 13, 14, 15, 16, 17)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the calling span, None for a root
    op: int              # the invocation this span belongs to
    tag: str | None      # "tower"/"prime" under a Singer build, "n<N>" for exact_g
    work: int            # walk products, cycles returned or search nodes


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))


class Tracer:
    """Records spans while installed; ``op`` names the current invocation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, names in SPANS.items():
            module = importlib.import_module(f"cyclespec.{layer}")
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                setattr(module, name, self._wrap(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(span_name, 0.0, 0.0, parent, self.op,
                        spans[parent].tag if parent is not None else None, 0)
            if span_name == "singer.singer_difference_set":
                q = args[0] if args else kwargs["q"]
                span.tag = "prime" if _is_prime(q) else "tower"
                span.work = q ** 3 - 1
            elif span_name == "search.exact_g":
                span.tag = f"n{args[0] if args else kwargs['n']}"
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if span_name == "oracle.enumerate_cycles":
                span.work = len(result)
            elif span_name == "search.exact_g":
                span.work = result.nodes_explored
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def per_op_accounting(spans: list[Span], walls: dict[int, float]) -> dict[int, float]:
    """Wall time minus the summed self times of each traced op's spans.

    The self times of an op's span tree add up to its root span, so what
    remains is the cost of the wrappers and of the benchmark's own call.
    """
    total: dict[int, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        total[span.op] += own
    return {op: wall - total[op] for op, wall in walls.items()}


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    specs = {}
    for layer, names in SPANS.items():
        for name in names:
            span = f"{layer}.{name}"
            specs[f"{span}.self_s"] = ("s/op", "lower")
            if span in FIELD_SPLIT:
                specs[f"{span}.self_s.tower"] = ("s/op", "lower")
                specs[f"{span}.self_s.prime"] = ("s/op", "lower")
            specs[f"{span}.calls"] = ("1/op", "lower")
    specs["singer.walk_products"] = ("1/op", "lower")
    specs["singer.walk_products_per_s"] = ("1/s", "higher")
    specs["oracle.cycles"] = ("1/op", "lower")
    specs["oracle.cycles_per_s"] = ("1/s", "higher")
    specs["search.nodes"] = ("count", "lower")
    specs["search.nodes_per_s"] = ("1/s", "higher")
    for n in SEARCH_N:
        specs[f"search.exact_g.self_s.n{n}"] = ("s/call", "lower")
        specs[f"search.nodes.n{n}"] = ("count", "lower")
        specs[f"search.nodes_per_s.n{n}"] = ("1/s", "higher")
    specs["trace.overhead"] = ("ratio", "lower")
    return specs


def layer_metrics(spans: list[Span], ops: int, overhead: float) -> dict[str, float]:
    """Per-layer values over ``ops`` traced invocations.

    ``.self_s`` and ``.calls`` are per invocation, so the self times of all
    spans add up to the mean traced op time.  ``search.nodes`` is the sum
    over n of the nodes one exact_g call at n explores, an exact count;
    ``search.nodes.n<N>`` and ``search.exact_g.self_s.n<N>`` are per call.
    """
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    for span, seconds in zip(spans, self_times(spans)):
        for key in (span.name, f"{span.name}.{span.tag}"):
            own[key] += seconds
            calls[key] += 1
            work[key] += span.work
    values = {}
    for name in metric_specs():
        if name.endswith(".calls"):
            values[name] = calls[name[:-len(".calls")]] / ops
        elif ".self_s" in name and not name.startswith("search.exact_g.self_s.n"):
            values[name] = own[name.replace(".self_s", "")] / ops

    def rate(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    walk, enum, search = ("singer.singer_difference_set", "oracle.enumerate_cycles",
                          "search.exact_g")
    values["singer.walk_products"] = work[walk] / ops
    values["singer.walk_products_per_s"] = rate(work[walk], own[walk])
    values["oracle.cycles"] = work[enum] / ops
    values["oracle.cycles_per_s"] = rate(work[enum], own[enum])
    values["search.nodes"] = 0
    for n in SEARCH_N:
        key = f"{search}.n{n}"
        per_call = work[key] / calls[key] if calls[key] else 0
        values[f"search.exact_g.self_s.n{n}"] = own[key] / calls[key] if calls[key] else 0.0
        values[f"search.nodes.n{n}"] = per_call
        values[f"search.nodes_per_s.n{n}"] = rate(work[key], own[key])
        values["search.nodes"] += per_call
    values["search.nodes_per_s"] = rate(work[search], own[search])
    values["trace.overhead"] = overhead
    return values
