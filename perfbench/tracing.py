"""Spans around the public hfmap functions, recorded from outside the package.

A traced pass replaces each function in LAYERS, in every loaded module that
holds a reference to it, with a wrapper that records one span: name, start,
end, the index of its parent span, and the counts LAYERS derives from the
result.  Spans stay in memory; the caller writes them out when the run ends.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable

ROOT_SPAN = "bench.op"


def _graph_counts(graph: Any) -> tuple[int, ...]:
    v = len(graph.nodes)
    return v, len(graph.edges), v * (v - 1) // 2


def _svg_bytes(text: str) -> tuple[int]:
    return (len(text.encode("utf-8")),)


Counter = Callable[[Any], tuple]

# (module, attribute path, count names, counts derived from the result).
# The span name is "<module>.<attribute path>".
LAYERS: list[tuple[str, str, tuple[str, ...], Counter | None]] = [
    ("cli", "main", (), None),
    ("group", "enumerate_group", ("elements", "products"),
     lambda g: (g.order, 2 * g.order)),
    ("maps", "build_algebraic_map", (), None),
    ("maps", "MapStructure.invariants", ("vertices", "edges", "faces"),
     lambda inv: (inv.vertices, inv.edges, inv.faces)),
    ("maps", "build_coordinate_graph", ("nodes", "edges", "pairs_tested"),
     _graph_counts),
    ("maps", "correspondence_check", ("failed",), lambda rep: (int(not rep.ok),)),
    ("polygon", "coset_domain_check", ("tiles", "boundary_sides"),
     lambda dom: (dom.tiles, dom.boundary_sides)),
    ("verify", "run_checks", ("checks_failed",),
     lambda results: (sum(1 for r in results if not r.ok),)),
    ("polygon", "search_circuits", ("circuits",), lambda found: (len(found),)),
    ("polygon", "format_circuit_text", (), None),
    ("render", "render_universal", ("bytes",), _svg_bytes),
    ("render", "render_polygon", ("bytes",), _svg_bytes),
]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, counts]."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], args: tuple = (),
             kwargs: dict | None = None, count_names: tuple[str, ...] = (),
             counter: Counter | None = None) -> Any:
        parent = self._stack[-1] if self._stack else -1
        rec: list[Any] = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if counter is not None:
            rec[4] = dict(zip(count_names, counter(result)))
        return result

    def wrap(self, name: str, fn: Callable[..., Any], count_names: tuple[str, ...],
             counter: Counter | None) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, count_names, counter)
        return traced


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every layer wherever it is bound; return what uninstall restores.

    Functions imported by name (``from .maps import build_algebraic_map``)
    are separate module attributes, so every loaded hfmap module is
    searched for them.  The benchmark calls hfmap through its modules.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "hfmap" or name.startswith("hfmap."))]
    patched: list[tuple[Any, str, Any]] = []
    for mod_name, path, count_names, counter in LAYERS:
        holder = sys.modules[f"hfmap.{mod_name}"]
        *owners, attr = path.split(".")
        for owner in owners:
            holder = getattr(holder, owner)
        original = getattr(holder, attr)
        wrapper = tracer.wrap(f"{mod_name}.{path}", original, count_names, counter)
        if owners:
            # A method: patching the class covers every caller.
            patched.append((holder, attr, original))
            setattr(holder, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patched


def uninstall(patched: list[tuple[Any, str, Any]]) -> None:
    for holder, attr, original in reversed(patched):
        setattr(holder, attr, original)


def per_layer(spans: list[list[Any]]) -> dict[str, float]:
    """Inclusive time, self time, calls and counts per span name.

    Inclusive time counts only the outermost span of a name, so a layer
    that calls itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    layers = [(f"{mod}.{path}", names) for mod, path, names, _ in LAYERS]
    for name, count_names in [*layers, (ROOT_SPAN, ())]:
        for key in ("s", "self_s", "calls", *count_names):
            out[f"{name}.{key}"] = 0.0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - child_time[i]
        out[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            out[f"{name}.{key}"] += value
    pairs = out["maps.build_coordinate_graph.pairs_tested"]
    out["maps.build_coordinate_graph.edge_yield"] = (
        out["maps.build_coordinate_graph.edges"] / pairs if pairs else 0.0
    )
    return out
