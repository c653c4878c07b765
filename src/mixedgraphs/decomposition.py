"""Forest decompositions, arboricity, and acyclic colorings.

The arboricity of the underlying graph is the least number of forests
covering its edges; it equals the maximum over subgraphs of
ceil(e / (v - 1)).  Acyclic colorings are proper colorings whose every
two classes induce a forest.  The two meet in the layered relabeling
pipeline: a forest decomposition turns one graph into a stack of
colored mixed graphs whose exact chromatic numbers multiply into an
acyclic palette.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .bounds import ceil_log
from .core import ColorSignature, MixedGraph, degeneracy_ordering, require_rich_signature
from .solver import (
    BudgetExceededError,
    ChromaticResult,
    Partition,
    _partition_search,
    chromatic_number,
)


class ExactUnavailableError(RuntimeError):
    """Exact arboricity is not attempted above the subset limit."""


@dataclass(frozen=True)
class ForestDecomposition:
    """An assignment of every underlying edge to one of ``count`` forests."""

    count: int
    assignment: Mapping[tuple[int, int], int]

    @classmethod
    def from_assignment(cls, assignment: Mapping[tuple[int, int], int]) -> "ForestDecomposition":
        count = max(assignment.values()) + 1 if assignment else 0
        return cls(count, dict(assignment))


def check_forest_decomposition(graph: MixedGraph, fd: ForestDecomposition) -> str | None:
    """Audit a decomposition; None when every class is a spanning-safe forest.

    Every underlying edge must be assigned exactly once, indices must
    hit 0..count-1, and each class must be acyclic.
    """
    edges = set(graph.underlying_edges())
    for (u, v), i in fd.assignment.items():
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            return f"assigned pair {key} is not an underlying edge"
        if not 0 <= i < fd.count:
            return f"forest index {i} on edge {key} out of range 0..{fd.count - 1}"
    normalized = {((u, v) if u < v else (v, u)) for (u, v) in fd.assignment}
    if len(normalized) != len(fd.assignment):
        return "an edge is assigned twice"
    missing = edges - normalized
    if missing:
        return f"edge {min(missing)} is unassigned"
    used = {i for i in fd.assignment.values()}
    for i in range(fd.count):
        if i not in used:
            return f"forest {i} is empty"
    # acyclicity per class via union-find
    for i in range(fd.count):
        parent = list(range(graph.order))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v), j in sorted(fd.assignment.items()):
            if j != i:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return f"forest {i} contains a cycle through edge ({u}, {v})"
            parent[ru] = rv
    return None


def nash_williams_density(
    graph: MixedGraph, subset_limit: int = 20
) -> tuple[int, tuple[int, ...] | None]:
    """Exact arboricity with a densest witness subset.

    Maximizes ceil(e' / (v' - 1)) over all induced subgraphs by
    enumerating vertex subsets with incremental edge counts, so the cost
    is O(2^order); orders above ``subset_limit`` raise
    ExactUnavailableError (use greedy_forests for an upper bound).
    Returns (arboricity, witness vertices); the witness is None for
    edgeless graphs.
    """
    n = graph.order
    if n > subset_limit:
        raise ExactUnavailableError(
            f"order {n} exceeds subset limit {subset_limit}; "
            "exact arboricity enumerates all vertex subsets"
        )
    if graph.e_count == 0:
        return 0, None
    adj_bits = [0] * n
    for u, v in graph.underlying_edges():
        adj_bits[u] |= 1 << v
        adj_bits[v] |= 1 << u
    edge_count = [0] * (1 << n)
    best = 0
    best_mask = 0
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        low = low_bit.bit_length() - 1
        rest = mask ^ low_bit
        e = edge_count[rest] + (adj_bits[low] & rest).bit_count()
        edge_count[mask] = e
        v = mask.bit_count()
        if v >= 2 and e > 0:
            density = (e + v - 2) // (v - 1)
            if density > best:
                best = density
                best_mask = mask
    witness = tuple(x for x in range(n) if best_mask >> x & 1)
    return best, witness


def greedy_forests(graph: MixedGraph) -> ForestDecomposition:
    """Cover the underlying edges by repeatedly peeling a spanning forest.

    Each round grows a depth-first spanning forest of the remaining
    graph (roots and neighbors in ascending index order) and removes it.
    The number of rounds is an arboricity upper bound, not necessarily
    the optimum.
    """
    n = graph.order
    remaining: list[set[int]] = [set(graph.neighbors(v)) for v in range(n)]
    left = graph.e_count
    assignment: dict[tuple[int, int], int] = {}
    r = 0
    while left > 0:
        visited = [False] * n
        taken: list[tuple[int, int]] = []
        for root in range(n):
            if visited[root]:
                continue
            visited[root] = True
            stack = [(root, iter(sorted(remaining[root])))]
            while stack:
                v, it = stack[-1]
                for w in it:
                    if not visited[w]:
                        visited[w] = True
                        taken.append((v, w) if v < w else (w, v))
                        stack.append((w, iter(sorted(remaining[w]))))
                        break
                else:
                    stack.pop()
        for u, v in taken:
            assignment[(u, v)] = r
            remaining[u].discard(v)
            remaining[v].discard(u)
        left -= len(taken)
        r += 1
    fd = ForestDecomposition(r, assignment)
    audit = check_forest_decomposition(graph, fd)
    assert audit is None, f"greedy peeling produced a bad decomposition: {audit}"
    return fd


def _induced_cycle(
    vertices: set[int], graph: MixedGraph
) -> list[int] | None:
    """A cycle in the underlying subgraph induced by ``vertices``, if any."""
    visited: set[int] = set()
    parent: dict[int, int] = {}
    for root in sorted(vertices):
        if root in visited:
            continue
        parent[root] = -1
        visited.add(root)
        stack = [(root, iter(sorted(w for w in graph.neighbors(root) if w in vertices)))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent[v]:
                    continue
                if w in visited:
                    cycle = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cycle.append(x)
                    return cycle
                parent[w] = v
                visited.add(w)
                stack.append((w, iter(sorted(x for x in graph.neighbors(w) if x in vertices))))
                advanced = True
                break
            if not advanced:
                stack.pop()
    return None


def check_acyclic_coloring(graph: MixedGraph, coloring: Mapping[int, int]) -> str | None:
    """Audit an acyclic coloring; None when proper and forest-inducing.

    A coloring is acyclic when no relation is monochromatic and the
    union of any two color classes induces no underlying cycle.  A
    coloring that misses some vertex or names one outside 0..order-1 is
    an input error, not a violation.
    """
    for v in range(graph.order):
        if v not in coloring:
            raise ValueError(f"coloring misses vertex {v}")
    if len(coloring) > graph.order:
        extra = min(v for v in coloring if not 0 <= v < graph.order)
        raise ValueError(f"coloring names vertex {extra} out of range")
    for u, v, _ in graph.relations():
        if coloring[u] == coloring[v]:
            return f"monochromatic relation on ({u}, {v})"
    classes: dict[int, set[int]] = {}
    for v in range(graph.order):
        classes.setdefault(coloring[v], set()).add(v)
    labels = sorted(classes)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            cycle = _induced_cycle(classes[a] | classes[b], graph)
            if cycle is not None:
                return f"colors {a} and {b} induce a cycle through {cycle}"
    return None


def acyclic_chromatic_number(graph: MixedGraph, budget: int = 5_000_000) -> ChromaticResult:
    """Exact acyclic chromatic number of the underlying graph.

    The partition branch and bound of ``chromatic_number``, in descending
    degree order.  A vertex may not join a block holding a neighbor, nor
    close a cycle in the union of two blocks: a union-find per pair of
    blocks (union by size, no path compression) holds their forest, and
    backtracking undoes its links.  The lower bound is 3 when the graph
    has a cycle, since two colors would make it bichromatic.  Each
    placement attempt costs one node; when the budget runs out, the best
    coloring found (singletons if none) is the witness and attains upper.
    Witness blocks are in color order.
    """
    n = graph.order
    cyclic = _induced_cycle(set(range(n)), graph) is not None
    lower = 3 if cyclic else 2 if graph.e_count > 0 else 1
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    adj = [list(graph.neighbors(v)) for v in range(n)]
    block_of = [-1] * n
    # Vertex x of the forest of blocks a < b is the key (a * n + b) * n + x.
    up: dict[int, int] = {}
    size: dict[int, int] = {}

    def root(key: int) -> int:
        while key in up:
            key = up[key]
        return key

    def try_place(v: int, b: int) -> list[tuple[int, int]] | None:
        links: list[tuple[int, int]] = []
        for w in adj[v]:
            c = block_of[w]
            if c < 0:
                continue
            if c == b:
                break
            pair = (b * n + c if b < c else c * n + b) * n
            rv, rw = root(pair + v), root(pair + w)
            if rv == rw:
                break
            if size.get(rv, 1) > size.get(rw, 1):
                rv, rw = rw, rv
            up[rv] = rw
            size[rw] = size.get(rw, 1) + size.get(rv, 1)
            links.append((rv, rw))
        else:
            block_of[v] = b
            return links
        unplace(v, links)
        return None

    def unplace(v: int, links: list[tuple[int, int]]) -> None:
        block_of[v] = -1
        for child, top in reversed(links):
            del up[child]
            size[top] -= size.get(child, 1)

    best, nodes, out_of_budget = _partition_search(order, try_place, unplace, lower, n, budget)
    if best is not None:
        witness = Partition(tuple(tuple(sorted(block)) for block in best))
        audit = check_acyclic_coloring(graph, witness.block_of())
        assert audit is None, f"search produced a bad coloring: {audit}"
    else:
        witness = Partition(tuple((v,) for v in range(n)))
    return ChromaticResult(
        lower if out_of_budget else witness.k, witness.k, witness, nodes, out_of_budget
    )


def digit_graphs(
    graph: MixedGraph,
    fd: ForestDecomposition,
    vertex_order: Sequence[int] | None = None,
    signature: ColorSignature | None = None,
) -> list[MixedGraph]:
    """Relabel one graph into 1 + ceil_log(p, count) colored layers.

    Layer 0 gives every underlying edge the first canonical kind, viewed
    from the endpoint earlier in ``vertex_order`` (degeneracy order by
    default).  Layer l >= 1 encodes digit l of the edge's forest index
    in base p as a canonical kind, viewed from the same endpoint.  Any
    coloring that is a homomorphic image on every layer is proper and
    acyclic on the original graph, which is what the pipeline exploits.
    """
    sig = signature if signature is not None else graph.signature
    require_rich_signature(sig)
    audit = check_forest_decomposition(graph, fd)
    if audit is not None:
        raise ValueError(f"invalid forest decomposition: {audit}")
    if vertex_order is None:
        vertex_order = degeneracy_ordering(graph)[1]
    if sorted(vertex_order) != list(range(graph.order)):
        raise ValueError("vertex_order must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(vertex_order)}
    kinds = sig.kinds()
    p = sig.p
    assign = {
        ((u, v) if u < v else (v, u)): i for (u, v), i in fd.assignment.items()
    }
    digits = 0 if fd.count <= 1 else ceil_log(p, fd.count)
    layers: list[MixedGraph] = []
    for layer in range(digits + 1):
        g = MixedGraph(sig, graph.order)
        for u, v in graph.underlying_edges():
            x, y = (u, v) if pos[u] < pos[v] else (v, u)
            if layer == 0:
                g.add_relation(x, y, kinds[0])
            else:
                digit = assign[(u, v)] // p ** (layer - 1) % p
                g.add_relation(x, y, kinds[digit])
        layers.append(g)
    return layers


@dataclass(frozen=True)
class ProductColoringResult:
    """An acyclic coloring assembled from per-layer homomorphisms."""

    colors: dict[int, int]
    palette: int
    layer_chromatics: tuple[int, ...]
    forest_count: int
    digit_count: int


def acyclic_from_homomorphisms(
    graph: MixedGraph,
    fd: ForestDecomposition | None = None,
    vertex_order: Sequence[int] | None = None,
    hom_budget: int = 10_000_000,
    signature: ColorSignature | None = None,
) -> ProductColoringResult:
    """Acyclic coloring via exact chromatic numbers of the digit layers.

    Colors are the dense renumbering of the tuples of per-layer block
    indices, so the palette is at most k ** (digit_count + 1) where k is
    the largest layer chromatic number.  Layer searches that exhaust
    ``hom_budget`` raise BudgetExceededError; nothing partial is
    returned.
    """
    if fd is None:
        fd = greedy_forests(graph)
    layers = digit_graphs(graph, fd, vertex_order=vertex_order, signature=signature)
    layer_blocks: list[dict[int, int]] = []
    layer_chromatics: list[int] = []
    for index, layer in enumerate(layers):
        result = chromatic_number(layer, budget=hom_budget)
        if not result.exact:
            raise BudgetExceededError(
                f"layer {index} chromatic search exhausted its budget "
                f"(bounds [{result.lower}, {result.upper}])",
                result.lower,
                result.upper,
            )
        assert result.witness is not None
        layer_blocks.append(result.witness.block_of())
        layer_chromatics.append(result.k)
    tuples = {
        v: tuple(blocks[v] for blocks in layer_blocks) for v in range(graph.order)
    }
    dense: dict[tuple[int, ...], int] = {}
    colors: dict[int, int] = {}
    for v in range(graph.order):
        t = tuples[v]
        if t not in dense:
            dense[t] = len(dense) + 1
        colors[v] = dense[t]
    audit = check_acyclic_coloring(graph, colors)
    assert audit is None, f"product coloring is not acyclic: {audit}"
    return ProductColoringResult(
        colors=colors,
        palette=len(dense),
        layer_chromatics=tuple(layer_chromatics),
        forest_count=fd.count,
        digit_count=len(layers) - 1,
    )
