"""Data model for colored mixed graphs.

A colored mixed graph over a signature (m, n) is a simple graph whose
arcs carry one of m arc colors and whose edges carry one of n edge
colors.  Every adjacency, seen from one of its endpoints, is one of
p = 2m + n relation kinds: an outgoing arc, an incoming arc, or an
edge, each with a color.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

ARC_OUT = "out"
ARC_IN = "in"
EDGE = "edge"

_DUAL_KIND = {ARC_OUT: ARC_IN, ARC_IN: ARC_OUT, EDGE: EDGE}
_PREFIX = {ARC_OUT: "+a", ARC_IN: "-a", EDGE: "e"}

_interned: dict[tuple[str, int], "RelationKind"] = {}
_intern_lock = threading.Lock()


class RelationKind:
    """One adjacency kind as seen from a vertex.

    ``kind`` is ``"out"`` (arc leaving the viewpoint vertex), ``"in"``
    (arc entering it) or ``"edge"``; ``color`` is 1-based.

    Kinds are interned: the constructor returns the one shared instance
    for each (kind, color), so equality and hashing are by identity, and
    copies and unpickled kinds are that same instance.  Attributes are
    read-only.  Each instance holds its dual, the same relation seen
    from the other endpoint, so ``dual()`` allocates nothing.
    """

    __slots__ = ("kind", "color", "_dual")

    kind: str
    color: int

    def __new__(cls, kind: str, color: int) -> "RelationKind":
        found = _interned.get((kind, color))
        if found is not None:
            return found
        if kind not in _DUAL_KIND:
            raise ValueError(f"unknown relation kind {kind!r}")
        if color < 1:
            raise ValueError(f"color must be >= 1, got {color}")
        with _intern_lock:
            found = _interned.get((kind, color))
            if found is None:
                found = cls._make(kind, color)
                other = _DUAL_KIND[kind]
                dual = found if other == kind else cls._make(other, color)
                object.__setattr__(found, "_dual", dual)
                object.__setattr__(dual, "_dual", found)
                _interned[(other, color)] = dual
                _interned[(kind, color)] = found
            return found

    @classmethod
    def _make(cls, kind: str, color: int) -> "RelationKind":
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "color", color)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[str, int]]:
        return (RelationKind, (self.kind, self.color))

    @property
    def is_arc(self) -> bool:
        return self.kind != EDGE

    def dual(self) -> "RelationKind":
        """The same relation seen from the other endpoint."""
        return self._dual

    def __repr__(self) -> str:
        return f"RelationKind(kind={self.kind!r}, color={self.color!r})"

    def __str__(self) -> str:
        return f"{_PREFIX[self.kind]}{self.color}"


def arc_out(color: int = 1) -> RelationKind:
    return RelationKind(ARC_OUT, color)


def arc_in(color: int = 1) -> RelationKind:
    return RelationKind(ARC_IN, color)


def edge(color: int = 1) -> RelationKind:
    return RelationKind(EDGE, color)


@lru_cache(maxsize=None)
def _canonical_kinds(m: int, n: int) -> tuple[RelationKind, ...]:
    outs = [RelationKind(ARC_OUT, c) for c in range(1, m + 1)]
    ins = [RelationKind(ARC_IN, c) for c in range(1, m + 1)]
    edges = [RelationKind(EDGE, c) for c in range(1, n + 1)]
    return tuple(outs + ins + edges)


@dataclass(frozen=True)
class ColorSignature:
    """Counts of arc colors (m) and edge colors (n); p = 2m + n."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("color counts must be non-negative")
        if self.p < 1:
            raise ValueError("signature needs at least one relation kind")

    @property
    def p(self) -> int:
        return 2 * self.m + self.n

    def kinds(self) -> tuple[RelationKind, ...]:
        """All p relation kinds in canonical order.

        The canonical order is all outgoing arc kinds by color, then all
        incoming arc kinds, then all edge kinds; its positions are the
        digit values used by the layered relabeling pipeline.
        """
        return _canonical_kinds(self.m, self.n)

    def kind_at(self, index: int) -> RelationKind:
        """The kind at canonical position ``index``; IndexError outside
        0..p-1.  Makes only that kind, whatever m and n are."""
        m = self.m
        if not 0 <= index < self.p:
            raise IndexError(f"kind index {index} out of range 0..{self.p - 1}")
        if index < m:
            return RelationKind(ARC_OUT, index + 1)
        if index < 2 * m:
            return RelationKind(ARC_IN, index - m + 1)
        return RelationKind(EDGE, index - 2 * m + 1)

    def contains(self, rel: RelationKind) -> bool:
        """Whether ``rel`` is a kind of this signature: its color is at
        most m for an arc, at most n for an edge.  Builds no table, so it
        costs the same for any m and n."""
        return rel.color <= (self.n if rel.kind == EDGE else self.m)

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


def require_rich_signature(signature: ColorSignature) -> None:
    """Reject signatures with p < 2 (plain proper coloring territory)."""
    if signature.p < 2:
        raise ValueError(
            f"signature {signature} has p = {signature.p}; "
            "this operation needs p >= 2"
        )


def _require_same_signature(source: MixedGraph, target: MixedGraph) -> None:
    """Reject a map between graphs of different signatures."""
    if source.signature != target.signature:
        raise ValueError(f"signature mismatch: {source.signature} vs {target.signature}")


def _require_per_vertex(assignment: Mapping[int, int], order: int, noun: str) -> None:
    """Reject a witness that misses a vertex 0..order-1 or names another."""
    for v in range(order):
        if v not in assignment:
            raise ValueError(f"{noun} misses vertex {v}")
    if len(assignment) > order:
        extra = min(v for v in assignment if not 0 <= v < order)
        raise ValueError(f"{noun} names vertex {extra} out of range")


class MixedGraph:
    """A colored mixed graph on vertices 0..order-1.

    At most one relation per vertex pair; no loops.  Adjacency is kept
    from both viewpoints so ``relation_from`` is O(1).  Instances are
    meant to be frozen once built: library code never mutates a graph it
    did not create, and a fully built graph may be shared across threads.
    """

    __slots__ = ("signature", "order", "_adj", "_e")

    def __init__(self, signature: ColorSignature, order: int):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.signature = signature
        self.order = order
        self._adj: list[dict[int, RelationKind]] = [dict() for _ in range(order)]
        self._e = 0

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise ValueError(f"vertex {v} out of range 0..{self.order - 1}")

    def _check_free_pair(self, u: int, v: int) -> None:
        """Raise ValueError unless u and v are distinct unrelated vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if v in self._adj[u]:
            raise ValueError(f"pair ({u}, {v}) already has a relation")

    def add_relation(self, u: int, v: int, rel: RelationKind) -> None:
        """Install ``rel`` on the pair {u, v}, viewed from u; ValueError
        unless u and v are distinct unrelated vertices and ``rel`` is a
        kind of the signature."""
        self._check_free_pair(u, v)
        if not self.signature.contains(rel):
            raise ValueError(f"{rel} out of range for signature {self.signature}")
        self._adj[u][v] = rel
        self._adj[v][u] = rel._dual
        self._e += 1

    def add_relation_block(
        self, us: Sequence[int], vs: Sequence[int], rels: Sequence[RelationKind]
    ) -> bool:
        """Install ``rels[i]`` on each pair {us[i], vs[i]}, viewed from
        us[i], in list order, as ``add_relation`` would one at a time; or,
        if any of them would fail its checks, install none and return False.

        The checks run in bulk: vertex ranges and each distinct kind
        against the signature before anything is written, loops and
        repeated pairs after.  A pair that is new adds two row entries, a
        loop one and a repeated pair none, so the row sizes add up to
        twice the count exactly when there are neither.  Only a graph
        with no relations takes a block, so undoing one means emptying
        the rows.
        """
        if self._e:
            raise ValueError("a relation block needs a graph with no relations")
        ends = {*us, *vs}
        if ends and (min(ends) < 0 or max(ends) >= self.order):
            return False
        if not all(map(self.signature.contains, set(rels))):
            return False
        adj = self._adj
        for u, v, rel in zip(us, vs, rels):
            adj[u][v] = rel
            adj[v][u] = rel._dual
        if sum(map(len, adj)) != 2 * len(us):
            self._adj = [dict() for _ in range(self.order)]
            return False
        self._e = len(us)
        return True

    def add_arc(self, tail: int, head: int, color: int = 1) -> None:
        self.add_relation(tail, head, RelationKind(ARC_OUT, color))

    def add_edge(self, u: int, v: int, color: int = 1) -> None:
        self.add_relation(u, v, RelationKind(EDGE, color))

    def relation_from(self, u: int, v: int) -> RelationKind | None:
        """The relation on {u, v} viewed from u; None if non-adjacent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"relation_from needs distinct vertices, got {u} twice")
        return self._adj[u].get(v)

    def neighbors(self, v: int) -> Mapping[int, RelationKind]:
        """Neighbors of v mapped to the relation kind seen from v (read-only)."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    @property
    def e_count(self) -> int:
        return self._e

    def relations(self) -> Iterator[tuple[int, int, RelationKind]]:
        """All relations as (u, v, kind-from-u) with u < v, sorted."""
        for u in range(self.order):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield u, v, self._adj[u][v]

    def underlying_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v, _ in self.relations()]

    def without_pair(self, u: int, v: int) -> "MixedGraph":
        """A copy with the relation on {u, v} removed."""
        self._check_vertex(u)
        self._check_vertex(v)
        g = MixedGraph(self.signature, self.order)
        drop = {u, v}
        for a, b, rel in self.relations():
            if {a, b} != drop:
                g.add_relation(a, b, rel)
        return g

    def validate(self) -> str | None:
        """Re-derive all structural invariants from storage.

        Returns None when the graph is well formed, otherwise a message
        naming the first violated invariant and the offending pair.
        Builders already fail fast; this is the independent audit used
        after parsing or hand assembly.  The same invariants are first
        checked in bulk, in another order (``_well_formed``); only when
        one fails does the ordered scan run, to name the first violation.
        """
        if self._well_formed():
            return None
        adj = self._adj
        order = self.order
        seen = 0
        for u in range(order):
            row = adj[u]
            for v in sorted(row):
                rel = row[v]
                if not 0 <= v < order:
                    return f"neighbor {v} of vertex {u} out of range"
                if u == v:
                    return f"loop at vertex {u}"
                if not self.signature.contains(rel):
                    return f"color out of range: {rel} on pair ({u}, {v})"
                if adj[v].get(u) is not rel._dual:
                    return f"parallel relations on pair ({u}, {v})"
                seen += 1
        if seen != 2 * self._e:
            return f"relation count mismatch: counted {seen // 2}, recorded {self._e}"
        return None

    def _well_formed(self) -> bool:
        """Whether ``validate``'s invariants all hold: the row sizes add
        up to twice the relation count, no row holds its own vertex, no
        neighbor is negative or at least the order (an IndexError), every
        entry's reverse entry is its dual (a KeyError if missing), and
        every kind is in the signature.  The negative check comes before
        any row is indexed by the neighbor, which would wrap around."""
        adj = self._adj
        if sum(map(len, adj)) != 2 * self._e:
            return False
        if any(map(dict.__contains__, adj, range(self.order))):
            return False
        kinds: set[RelationKind] = set()
        try:
            for u, row in enumerate(adj):
                for v, rel in row.items():
                    if v < 0 or adj[v][u] is not rel._dual:
                        return False
                kinds.update(row.values())
        except LookupError:
            return False
        return all(map(self.signature.contains, kinds))

    def __repr__(self) -> str:
        return (
            f"MixedGraph(signature={self.signature}, order={self.order}, "
            f"relations={self._e})"
        )


@dataclass(frozen=True)
class NeighborhoodQuery:
    """A tuple of distinct vertices with one required kind per entry."""

    vertices: tuple[int, ...]
    kinds: tuple[RelationKind, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.kinds):
            raise ValueError("vertices and kinds must have equal length")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("query vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)


def common_neighborhood(graph: MixedGraph, query: NeighborhoodQuery) -> set[int]:
    """Vertices v with relation_from(v_i, v) == kind_i for every entry.

    The empty query returns every vertex (empty conjunction).  A vertex
    listed in the query can never qualify: adjacency is irreflexive, so
    its own coordinate fails.
    """
    for v in query.vertices:
        graph._check_vertex(v)
    if len(query) == 0:
        return set(range(graph.order))
    result: set[int] | None = None
    for v, kind in zip(query.vertices, query.kinds):
        matches = {w for w, rel in graph.neighbors(v).items() if rel == kind}
        result = matches if result is None else result & matches
        if not result:
            return set()
    assert result is not None
    return result


@dataclass(frozen=True)
class PropertySpec:
    """Adjacency-property data: tuple-length bound t and minimums g(0..t).

    A complete target satisfies the property when every j-tuple of
    distinct vertices and every j-vector of kinds (j <= t) has at least
    ``minimums[j]`` common qualified neighbors.
    """

    t: int
    minimums: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("t must be non-negative")
        if len(self.minimums) != self.t + 1:
            raise ValueError(f"need {self.t + 1} minimums, got {len(self.minimums)}")
        if any(x < 0 for x in self.minimums):
            raise ValueError("minimums must be non-negative")

    def required(self, j: int) -> int:
        return self.minimums[j]


def is_special_2path(graph: MixedGraph, u: int, v: int, w: int) -> bool:
    """Whether the 2-path u-v-w forces distinct images for u and w.

    Equivalent to: the two relations at the middle vertex differ when
    both are viewed from v.  (An exhaustive test checks this against the
    five-case definition and against a brute-force homomorphism oracle.)
    """
    if u == w:
        raise ValueError("endpoints of a 2-path must differ")
    ru = graph.relation_from(v, u)
    rw = graph.relation_from(v, w)
    if ru is None or rw is None:
        raise ValueError(f"({u}, {v}, {w}) is not a 2-path: missing adjacency")
    return ru != rw


def special_pairs(graph: MixedGraph) -> set[tuple[int, int]]:
    """All unordered pairs joined by at least one special 2-path.

    Under any homomorphism the two vertices of such a pair must receive
    distinct images.
    """
    pairs: set[tuple[int, int]] = set()
    for v in range(graph.order):
        items = sorted(graph.neighbors(v).items())
        for i in range(len(items)):
            u, ru = items[i]
            for j in range(i + 1, len(items)):
                w, rw = items[j]
                if ru != rw:
                    pairs.add((u, w) if u < w else (w, u))
    return pairs


def degeneracy_ordering(graph: MixedGraph) -> tuple[int, list[int]]:
    """Degeneracy d of the underlying graph and a matching vertex order.

    Repeatedly removes a minimum-degree vertex (ties to the smallest
    index) and reverses the removal sequence, so in the returned order
    every vertex has at most d earlier neighbors.  The minimum comes from
    a binary heap of integer keys degree * n + vertex, which order as the
    pairs (degree, vertex) do because vertex < n: a degree drop pushes a
    new key, which pops before the vertex's outdated ones, and those are
    skipped once it is removed.  The pass costs O((n + m) log n) for n
    vertices and m relations.
    """
    n = graph.order
    adj = graph._adj
    deg = list(map(len, adj))
    heap = [k * n + v for v, k in enumerate(deg)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    alive = [True] * n
    removal: list[int] = []
    d = 0
    while heap:
        k, v = divmod(pop(heap), n)
        if not alive[v]:
            continue
        d = max(d, k)
        alive[v] = False
        removal.append(v)
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                push(heap, deg[w] * n + w)
    return d, removal[::-1]
