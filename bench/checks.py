"""The bench's own checks of every operation's output.

Nothing here calls library code: witnesses are audited against the
bench's copies of the inputs (``workloads.Graph``), and graph files the
program writes are read with the bench's own parser.  Each check returns
None when the output is right, else a message naming what is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import Q_MIN, Q_TUPLES, Graph, Op, kinds, parse


def partition(g: Graph, colors: list[int], k: int) -> str | None:
    """Blocks are independent and each ordered pair of blocks carries one kind."""
    if len(colors) != g.order:
        return f"witness has {len(colors)} entries for {g.order} vertices"
    if len(set(colors)) != k:
        return f"witness uses {len(set(colors))} blocks, answer is {k}"
    joined: dict[tuple[int, int], tuple[str, int]] = {}
    for u, v, rel in g.relations():
        a, b = colors[u], colors[v]
        if a == b:
            return f"related vertices {u} and {v} share block {a}"
        seen = joined.setdefault((a, b), rel)
        if seen != rel:
            return f"blocks {a} and {b} are joined by {seen} and {rel}"
        # the pair seen from b must then carry the dual kind
        joined.setdefault((b, a), g.adj[v][u])
    return None


def homomorphism(source: Graph, target: Graph, mapping: list[int]) -> str | None:
    """Every relation maps onto a relation of the same kind and color."""
    if len(mapping) != source.order:
        return f"map has {len(mapping)} entries for {source.order} vertices"
    if any(not 0 <= x < target.order for x in mapping):
        return "map leaves the target"
    for u, v, rel in source.relations():
        x, y = mapping[u], mapping[v]
        if target.adj[x].get(y) != rel:
            return f"relation {rel} on ({u}, {v}) is not kept on ({x}, {y})"
    return None


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def acyclic(g: Graph, colors: list[int], k: int) -> str | None:
    """Proper, and every two color classes induce a forest."""
    if len(colors) != g.order:
        return f"coloring has {len(colors)} entries for {g.order} vertices"
    if len(set(colors)) != k:
        return f"coloring uses {len(set(colors))} colors, answer is {k}"
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v, _ in g.relations():
        a, b = colors[u], colors[v]
        if a == b:
            return f"related vertices {u} and {v} share color {a}"
        by_pair.setdefault((min(a, b), max(a, b)), []).append((u, v))
    for pair, edges in by_pair.items():
        parent = list(range(g.order))
        for u, v in edges:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return f"colors {pair} induce a cycle through ({u}, {v})"
            parent[ru] = rv
    return None


def density(g: Graph, vertices: list[int]) -> int:
    """ceil(e / (v - 1)) of the subgraph induced by ``vertices``."""
    inside = set(vertices)
    if len(inside) < 2:
        return 0
    e = sum(1 for u in inside for v in g.adj[u] if v in inside and u < v)
    return -(-e // (len(inside) - 1))


def arboricity(g: Graph, arb: int, densest: list[int] | None, forests: int) -> str | None:
    """The densest subset attains the reported arboricity; greedy is not below it."""
    shown = density(g, densest) if densest else 0
    if shown != arb:
        return f"densest subset has density {shown}, reported arboricity {arb}"
    if forests < arb:
        return f"greedy decomposition with {forests} forests beats arboricity {arb}"
    return None


def bounds(lower: int, upper: int, order: int, known: dict[str, int]) -> str | None:
    """Bounds are ordered and consistent with the known values."""
    if not 1 <= lower <= upper <= order:
        return f"bounds [{lower}, {upper}] out of order for order {order}"
    if "chi" in known and not lower <= known["chi"] <= upper:
        return f"bounds [{lower}, {upper}] exclude the known value {known['chi']}"
    if "chi_at_least" in known and lower < known["chi_at_least"]:
        return f"lower bound {lower} is below the known {known['chi_at_least']}"
    return None


def property_q(g: Graph, t: int, minimums: tuple[int, ...]) -> str | None:
    """The target is complete and every j-tuple, j <= t, has enough common neighbors."""
    for v in range(g.order):
        if len(g.adj[v]) != g.order - 1:
            return f"vertex {v} is not adjacent to every other vertex"
    if g.order < minimums[0]:
        return f"order {g.order} is below {minimums[0]}"
    ks = {rel: i for i, rel in enumerate(kinds(g.sig))}
    masks = [[0] * len(ks) for _ in range(g.order)]
    for v in range(g.order):
        for w, rel in g.adj[v].items():
            masks[v][ks[rel]] |= 1 << w

    def extend(chosen: tuple[int, ...], mask: int) -> str | None:
        j = len(chosen) + 1
        for v in range(g.order):
            if v in chosen:
                continue
            for bits in masks[v]:
                both = mask & bits
                if both.bit_count() < minimums[j]:
                    return f"tuple {chosen + (v,)} has {both.bit_count()} common neighbors"
                if j < t:
                    found = extend(chosen + (v,), both)
                    if found:
                        return found
        return None

    return extend((), (1 << g.order) - 1) if t > 0 else None


@dataclass
class Verdict:
    """A checked op: the failure found, if any, and the figures metrics need."""

    failure: str | None = None
    lower: int | None = None
    upper: int | None = None
    palette: int | None = None


def _record(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no output record")


def verify(op: Op, code: int, stdout: str, q_cache: dict[str, str | None]) -> Verdict:
    """Check one op's exit code and output; exit 2 is left to the caller."""
    try:
        return _verify(op, code, stdout, q_cache)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return Verdict(f"unreadable output: {type(exc).__name__}: {exc}")


def _q_of_file(path: str, q_cache: dict[str, str | None]) -> tuple[Graph, str | None]:
    with open(path) as fh:
        text = fh.read()
    g = parse(text)
    if text not in q_cache:
        q_cache[text] = property_q(g, Q_TUPLES, Q_MIN)
    return g, q_cache[text]


def _verify(op: Op, code: int, stdout: str, q_cache) -> Verdict:
    kind, n = op.kind, op.order
    if code not in (0, 1, 3):
        return Verdict(f"exit code {code}")
    if kind == "acyclic-pipeline" and code == 3:
        return Verdict()  # a layer search ran out of budget; nothing is printed
    rec = _record(stdout)
    if kind in ("chi", "acyclic"):
        if code == 3:
            return Verdict(bounds(rec["lower"], rec["upper"], n, op.known),
                           rec["lower"], rec["upper"])
        if code != 0:
            return Verdict(f"exit code {code}")
        k = rec["k"]
        audit = partition if kind == "chi" else acyclic
        failure = audit(op.graphs["graph"], rec["witness"], k) or bounds(k, k, n, op.known)
        return Verdict(failure, k, k)
    if kind in ("hom", "greedy-hom"):
        if code == 1 and rec["found"] is False:
            # planted maps, and targets whose property Q rules out a stuck greedy pass
            return Verdict(f"{kind} found no map where one exists")
        return Verdict(homomorphism(op.graphs["source"], op.graphs["target"], rec["mapping"]))
    if kind == "arb":
        g = op.graphs["graph"]
        if code == 3:
            whole = density(g, list(range(n)))
            if rec["upper"] < whole:
                return Verdict(f"upper bound {rec['upper']} is below density {whole}")
            return Verdict()
        return Verdict(arboricity(g, rec["arboricity"], rec["densest"], rec["greedy_forests"]))
    if kind == "acyclic-pipeline":
        return Verdict(acyclic(op.graphs["graph"], rec["witness"], rec["palette"]),
                       palette=rec["palette"])
    if kind == "search-q":
        if code == 1:
            return Verdict()
        g, failure = _q_of_file(op.file, q_cache)
        if g.order != n or g.sig != (op.known["m"], op.known["n"]):
            failure = f"target has order {g.order} and signature {g.sig}"
        with open(op.file) as fh:
            if f"# seed {rec['seed']}\n" not in fh.read():
                failure = failure or f"target file does not record seed {rec['seed']}"
        return Verdict(failure)
    if kind == "check-q":
        _, failure = _q_of_file(op.file, q_cache)
        if rec["holds"] != (failure is None):
            return Verdict(f"check-q says holds={rec['holds']}, bench finds {failure}")
        return Verdict()
    raise ValueError(f"no check for op kind {kind}")
