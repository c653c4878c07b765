"""Spans around the library's public functions, kept in memory.

``Tracer.install`` replaces each function listed in ``LAYERS`` with a
wrapper under every ``mixedgraphs.*`` module name bound to it (``cli``
binds ``chromatic_number`` with ``from .solver import``, so patching
``solver`` alone would miss the CLI path); ``uninstall`` puts the
originals back.  A span records its layer, function, start, end, parent
span, op, and a few counts taken from the function's arguments or
result.

Two times are derived for each span when it closes:

- ``excl``: its duration minus all of its traced children, which is the
  time spent in that function's own code;
- its layer self time: the duration minus the time of child spans in
  other layers, where a same-layer child passes its own other-layer time
  up.  Summed over the outermost span of each layer run, this is the
  time during which that layer's code was the innermost one running.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "cli": ("run",),
    "fileio": ("loads", "dumps"),
    "core": ("degeneracy_ordering", "common_neighborhood", "special_pairs"),
    "solver": (
        "chromatic_number",
        "special_clique",
        "find_homomorphism",
        "check_homomorphism",
        "check_partition",
    ),
    "decomposition": (
        "nash_williams_density",
        "greedy_forests",
        "acyclic_chromatic_number",
        "digit_graphs",
        "acyclic_from_homomorphisms",
        "check_acyclic_coloring",
        "check_forest_decomposition",
    ),
    "targets": (
        "greedy_homomorphism",
        "sample_complete",
        "check_property_q",
        "search_q_target",
    ),
    "constructions": ("build_hk", "build_special_gadget"),
}


def _counts(name: str, args: tuple, result) -> dict:
    """Counts a span carries, read from arguments and results only."""
    if name == "loads":
        return {"lines": args[0].count("\n")}
    if name in ("chromatic_number", "acyclic_chromatic_number"):
        return {"nodes": result.nodes, "exhausted": int(result.exhausted)}
    if name == "digit_graphs":
        return {"layers": len(result)}
    if name == "greedy_homomorphism":
        return {"steps": len(result.steps)}
    if name == "nash_williams_density":
        return {"arb": result[0]}
    if name == "greedy_forests":
        return {"forests": result.count}
    return {}


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "op", "error",
                 "counts", "child_all", "child_other", "excl", "layer_self")

    def __init__(self, layer: str, name: str, parent: "Span | None", op):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = op
        self.error: str | None = None
        self.counts: dict = {}
        self.child_all = 0.0
        self.child_other = 0.0
        self.start = time.perf_counter()

    def close(self) -> None:
        self.end = time.perf_counter()
        dur = self.end - self.start
        self.excl = dur - self.child_all
        self.layer_self = dur - self.child_other
        parent = self.parent
        if parent is not None:
            parent.child_all += dur
            parent.child_other += dur if parent.layer != self.layer else self.child_other

    @property
    def outermost_in_layer(self) -> bool:
        return self.parent is None or self.parent.layer != self.layer

    def as_dict(self, index: dict[int, int]) -> dict:
        return {
            "layer": self.layer,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": index[id(self.parent)] if self.parent is not None else None,
            "op": self.op,
            "error": self.error,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans while installed; ``op`` labels the spans of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"mixedgraphs.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                for modname, mod in list(sys.modules.items()):
                    if modname != "mixedgraphs" and not modname.startswith("mixedgraphs."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                span.counts = _counts(name, args, result)
                return result
            finally:
                self._stack.pop()
                span.close()
                self.spans.append(span)

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        self._stack.clear()

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.as_dict(index) for s in self.spans]


def layer_metrics(spans: list[Span], ops: set, setups: int) -> dict[str, float]:
    """Per-layer figures over the spans of the ops in ``ops``.

    Times are milliseconds per op; counts are totals over those ops.
    ``constructions.build_ms`` comes from set-up spans (``op`` None) and
    is per set-up.
    """
    per_op = 1000.0 / max(1, len(ops))
    excl: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    build = 0.0
    arb_by_op: dict[object, dict[str, int]] = {}
    for s in spans:
        if s.op is None:
            if s.layer == "constructions":
                build += s.excl
            continue
        if s.op not in ops:
            continue
        excl[s.name] = excl.get(s.name, 0.0) + s.excl
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.outermost_in_layer:
            layer_self[s.layer] = layer_self.get(s.layer, 0.0) + s.layer_self
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
        if s.name in ("nash_williams_density", "greedy_forests") and s.error is None:
            arb_by_op.setdefault(s.op, {}).update(s.counts)
    excess = [d["forests"] - d["arb"] for d in arb_by_op.values() if "arb" in d and "forests" in d]

    def ms(*names: str) -> float:
        return sum(excl.get(n, 0.0) for n in names) * per_op

    chi_s = excl.get("chromatic_number", 0.0)
    chi_nodes = counts.get("chromatic_number.nodes", 0)
    return {
        "cli.self_ms": layer_self.get("cli", 0.0) * per_op,
        "fileio.parse_ms": ms("loads"),
        "fileio.parse_lines": counts.get("loads.lines", 0),
        "fileio.dump_ms": ms("dumps"),
        "core.degeneracy_ms": ms("degeneracy_ordering"),
        "core.common_nbhd_ms": ms("common_neighborhood"),
        "core.common_nbhd_calls": calls.get("common_neighborhood", 0),
        "core.special_pairs_ms": ms("special_pairs"),
        "solver.chi_ms": ms("chromatic_number"),
        "solver.chi_nodes": chi_nodes,
        "solver.nodes_per_s": chi_nodes / chi_s if chi_s > 0 else 0.0,
        "solver.chi_exhausted": counts.get("chromatic_number.exhausted", 0),
        "solver.clique_ms": ms("special_clique"),
        "solver.hom_ms": ms("find_homomorphism"),
        "solver.audit_ms": ms("check_homomorphism", "check_partition"),
        "decomposition.arb_ms": ms("nash_williams_density"),
        "decomposition.forests_ms": ms("greedy_forests"),
        "decomposition.forest_excess": sum(excess) / len(excess) if excess else 0.0,
        "decomposition.acyclic_ms": ms("acyclic_chromatic_number"),
        "decomposition.acyclic_nodes": counts.get("acyclic_chromatic_number.nodes", 0),
        "decomposition.layers": counts.get("digit_graphs.layers", 0),
        "decomposition.pipeline_ms": ms("acyclic_from_homomorphisms", "digit_graphs"),
        "decomposition.audit_ms": ms("check_acyclic_coloring", "check_forest_decomposition"),
        "targets.greedy_ms": ms("greedy_homomorphism"),
        "targets.greedy_steps": counts.get("greedy_homomorphism.steps", 0),
        "targets.sample_ms": ms("sample_complete"),
        "targets.q_ms": ms("check_property_q"),
        "targets.q_attempts": calls.get("check_property_q", 0),
        "constructions.build_ms": build * 1000.0 / max(1, setups),
    }


METRIC_UNITS = {
    name: ("ms" if name.endswith("_ms") else "1/s" if name.endswith("_per_s") else "count")
    for name in layer_metrics([], set(), 1)
}
