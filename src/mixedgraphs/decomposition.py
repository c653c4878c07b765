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
from typing import Mapping

from .bounds import ceil_log
from .core import (
    MixedGraph,
    _require_per_vertex,
    degeneracy_ordering,
    require_rich_signature,
)
from .solver import ChromaticResult, Partition, _partition_search, chromatic_number


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
    # acyclicity per class via union-find; vertex v of class i is i * n + v,
    # and only non-roots are keys, so memory stays within the edge count
    n = graph.order
    parent: dict[int, int] = {}
    for (u, v), i in sorted(fd.assignment.items(), key=lambda item: (item[1], item[0])):
        ru, rv = _root(parent, i * n + u), _root(parent, i * n + v)
        if ru == rv:
            return f"forest {i} contains a cycle through edge ({u}, {v})"
        parent[ru] = rv
    return None


def _tree_path(up: list[int], a: int, b: int, skip: dict[int, int]) -> list[int] | None:
    """The a-b path in a forest of parent pointers ``up`` (-1 at a root).

    Returns the lower ends of its edges, or None when a and b lie in
    different trees.  The edges in ``skip`` (lower end -> parent) form
    subtrees that a climb jumps over to their top.  The ends climb in
    turn until one meets the other's trail or both stand at roots, so a
    query never walks a whole tree.
    """
    edges: tuple[list[int], list[int]] = ([], [])
    seen = ({a: 0}, {b: 0})
    at = [a, b]
    side = 0
    while at[side] not in seen[1 - side]:
        x = top = at[side]
        while top in skip:
            nxt = skip[top]
            skip[top] = skip.get(nxt, nxt)
            top = nxt
        if top == x:
            top = up[x]
            if top < 0:
                if up[at[1 - side]] < 0:
                    return None
                side ^= 1
                continue
            edges[side].append(x)
        seen[side][top] = len(edges[side])
        at[side] = top
        side ^= 1
    meet = at[side]
    return edges[0][: seen[0][meet]] + edges[1][: seen[1][meet]]


def _hang(up: list[int], x: int, onto: int) -> None:
    """Re-root x's tree at x, reversing its parent chain, and hang it under ``onto``."""
    prev = onto
    while x >= 0:
        up[x], prev, x = prev, x, up[x]


def _forest_partition(graph: MixedGraph) -> tuple[ForestDecomposition, tuple[int, ...] | None]:
    """A decomposition into the fewest forests, with a densest vertex set.

    Matroid-union augmenting paths (Roskind and Tarjan 1985; Gabow and
    Westermann 1992) insert the underlying edges one at a time.  A
    breadth-first search from the new edge labels, for each edge reached
    and each forest but its own, the path joining its ends there.  The
    first edge whose ends a forest keeps apart goes into it, and each
    edge before it on this shortest chain takes the place its successor
    left, which lies on the cycle it closes.  When the search fails with
    k forests, each holds a spanning tree of the labelled edges, which
    with the new edge number k(|S| - 1) + 1 on the set S of their ends:
    S has density k + 1 (Nash-Williams), and forest k + 1 opens.  The
    last such S attains the final count, which is thus the arboricity;
    both are audited.  S is None without edges.  A forest is parent
    pointers: a link re-roots one tree by reversing a parent chain, and
    a cut clears one pointer.
    """
    n = graph.order
    ups: list[list[int]] = []  # ups[i][v]: the parent of v in forest i, -1 at a root
    forest_of: dict[tuple[int, int], int] = {}
    densest: tuple[int, ...] | None = None
    for edge in graph.underlying_edges():
        label: dict[tuple[int, int], tuple[int, int] | None] = {edge: None}
        queue = [edge]
        # per forest, the labelled edges as lower end -> parent
        skips: list[dict[int, int]] = [{} for _ in ups]
        for f in queue:
            for i, up in enumerate(ups):
                if forest_of.get(f) == i:
                    continue
                path = _tree_path(up, *f, skips[i])
                if path is None:
                    break
                for x in path:
                    y = skips[i][x] = up[x]
                    g = (x, y) if x < y else (y, x)
                    label[g] = f
                    queue.append(g)
            else:
                continue  # every forest joins the ends of f
            out = None
            while f is not None:
                up = ups[i]
                if out is not None:
                    c, d = out
                    up[c if up[c] == d else d] = -1
                _hang(up, *f)
                home = forest_of.get(f)
                forest_of[f] = i
                out, i, f = f, home, label[f]
            break
        else:
            densest = tuple(sorted({x for f in label for x in f}))
            ups.append([-1] * n)
            _hang(ups[-1], *edge)
            forest_of[edge] = len(ups) - 1
    fd = ForestDecomposition(len(ups), forest_of)
    audit = check_forest_decomposition(graph, fd)
    assert audit is None, f"forest partition produced a bad decomposition: {audit}"
    if densest is not None:
        inside = set(densest)
        e = sum(1 for v in densest for w in graph.neighbors(v) if w in inside) // 2
        assert e > (fd.count - 1) * (len(densest) - 1), "densest set is too sparse"
    return fd, densest


def nash_williams_density(graph: MixedGraph) -> tuple[int, tuple[int, ...] | None]:
    """Exact arboricity and a witness subset from ``_forest_partition``.

    The witness induces ceil(e' / (v' - 1)) equal to the arboricity; it
    is None for edgeless graphs.
    """
    fd, densest = _forest_partition(graph)
    return fd.count, densest


def greedy_forests(graph: MixedGraph) -> ForestDecomposition:
    """A decomposition into the fewest forests, from ``_forest_partition``.

    The name is older than the algorithm, a greedy peel that could use
    more forests than the optimum; it stays because callers and tracing
    tools look the function up by name.
    """
    return _forest_partition(graph)[0]


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
    union of any two color classes induces no underlying cycle.  Once no
    relation is monochromatic, classes a and b induce exactly the
    relations colored {a, b}, so the relations are grouped by color pair
    and each group gets one union-find: linear in the graph's size.
    The least cyclic pair is then searched again for a cycle to report.
    A coloring that misses some vertex or names one outside 0..order-1
    is an input error, not a violation.
    """
    _require_per_vertex(coloring, graph.order, "coloring")
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v, _ in graph.relations():
        a, b = coloring[u], coloring[v]
        if a == b:
            return f"monochromatic relation on ({u}, {v})"
        groups.setdefault((a, b) if a < b else (b, a), []).append((u, v))
    cyclic = []
    for pair, edges in groups.items():
        parent: dict[int, int] = {}
        for u, v in edges:
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                cyclic.append(pair)
                break
            parent[ru] = rv
    if not cyclic:
        return None
    a, b = min(cyclic)
    cycle = _induced_cycle({v for v in range(graph.order) if coloring[v] in (a, b)}, graph)
    return f"colors {a} and {b} induce a cycle through {cycle}"


def _root(parent: dict[int, int], x: int) -> int:
    """The root of x in a union-find whose non-roots are keys, halving the path."""
    while x in parent:
        up = parent[x]
        parent[x] = x = parent.get(up, up)
    return x


def _forest_count_bound(graph: MixedGraph) -> int:
    """A lower bound on the acyclic chromatic number from edge counts.

    Any two classes of an acyclic coloring induce a forest, so a subgraph
    with s vertices and e edges colored with k <= s colors has
    e <= sum over pairs of (s_i + s_j - 1) = (k - 1) s - k (k - 1) / 2,
    which grows with k up to s.  The subgraphs tried are the prefixes of
    the degeneracy order, the cores left as minimum-degree vertices are
    peeled off; each prefix adds one vertex and its earlier neighbours,
    so the pass after the order is linear.

    The bound is at least 2 with an edge, since k = 1 allows no edge.  It
    is at least 3 when the graph has a cycle, as two colors would make
    that cycle bichromatic: peeling minimum-degree vertices removes every
    vertex outside the 2-core first, so the 2-core is a prefix of the
    order, and there every degree is at least 2, so e >= s, which
    k = 2 (e <= s - 1) does not allow.
    """
    order = degeneracy_ordering(graph)[1]
    pos = [0] * graph.order
    for i, v in enumerate(order):
        pos[v] = i
    k = e = 0
    for i, v in enumerate(order):
        s = i + 1
        e += sum(1 for w in graph.neighbors(v) if pos[w] < i)
        while k < s and (k - 1) * s - k * (k - 1) // 2 < e:
            k += 1
    return k


def acyclic_chromatic_number(graph: MixedGraph, budget: int = 5_000_000) -> ChromaticResult:
    """Exact acyclic chromatic number of the underlying graph.

    ``_partition_search`` runs the search, in descending degree order,
    and keeps the masks of forbidden blocks; this function supplies the
    rule.  A vertex may not join a block holding a neighbor, nor close a
    cycle in the union of two blocks: a union-find per pair of blocks
    (union by size, no path compression) holds their forest, and
    backtracking undoes its links.  Placing v into block b bans b for
    v's unplaced neighbors, and bans each block a for an unplaced u with
    two placed neighbors in one block c that are now joined in the
    forest of (a, c); that rule is re-checked only for such u and only
    in the forests the placement linked.  The union-find still refuses a
    cycle the masks missed.  The lower bound is ``_forest_count_bound``.
    When the budget runs out, the best coloring found (singletons if
    none) is the witness and attains upper.  Witness blocks are in color
    order.
    """
    n = graph.order
    lower = _forest_count_bound(graph)
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    adj = [list(graph.neighbors(v)) for v in range(n)]
    block_of = [-1] * n
    forbid = [0] * n
    # Vertex x of the forest of blocks a < b is the key (a * n + b) * n + x.
    up: dict[int, int] = {}
    size: dict[int, int] = {}
    # near[u][c]: the placed neighbors of unplaced u in block c, in placement
    # order; crowded[u]: how many of those lists hold two or more.
    near: list[dict[int, list[int]]] = [{} for _ in range(n)]
    crowded: dict[int, int] = {}

    def root(key: int) -> int:
        while key in up:
            key = up[key]
        return key

    def cut(links: list[tuple[int, int]]) -> None:
        for child, top in reversed(links):
            del up[child]
            size[top] -= size.get(child, 1)

    def joined(a: int, c: int, group: list[int]) -> bool:
        """Whether two vertices of ``group`` share a tree in the forest of (a, c)."""
        pair = (a * n + c if a < c else c * n + a) * n
        return len({root(pair + w) for w in group}) < len(group)

    def place(v: int, b: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
        links: list[tuple[int, int]] = []
        linked: set[int] = set()  # the blocks c whose forest (b, c) gains links
        for w in adj[v]:
            c = block_of[w]
            if c < 0:
                continue
            # c != b: a placed neighbor's block is in forbid[v]
            pair = (b * n + c if b < c else c * n + b) * n
            rv, rw = root(pair + v), root(pair + w)
            if rv == rw:
                cut(links)
                return None
            if size.get(rv, 1) > size.get(rw, 1):
                rv, rw = rw, rv
            up[rv] = rw
            size[rw] = size.get(rw, 1) + size.get(rv, 1)
            links.append((rv, rw))
            linked.add(c)
        bit = 1 << b
        bans: list[tuple[int, int]] = []
        for u in adj[v]:
            if block_of[u] >= 0:
                continue
            group = near[u].setdefault(b, [])
            group.append(v)
            if len(group) == 2:
                crowded[u] = crowded.get(u, 0) + 1
            bans.append((u, bit))
        for u in crowded:
            if block_of[u] >= 0:
                continue
            mask = old = forbid[u]
            for c, group in near[u].items():
                if len(group) < 2:
                    continue
                # only a forest (b, c') that just gained links can have
                # joined two of the group
                if c == b:
                    others = linked
                elif c in linked:
                    others = {b}
                else:
                    continue
                for a in others:
                    if not mask >> a & 1 and joined(a, c, group):
                        mask |= 1 << a
            if mask != old:
                bans.append((u, mask))
        return links, bans

    def unplace(v: int, links: list[tuple[int, int]]) -> None:
        b = block_of[v]
        cut(links)
        for u in adj[v]:
            if block_of[u] >= 0:
                continue
            group = near[u][b]
            group.pop()
            if len(group) == 1:
                crowded[u] -= 1
                if not crowded[u]:
                    del crowded[u]
            elif not group:
                del near[u][b]

    best, nodes, out_of_budget = _partition_search(
        order, (), block_of, forbid, [], place, unplace, lower, budget
    )
    witness = Partition(tuple(tuple(sorted(block)) for block in best))
    audit = check_acyclic_coloring(graph, witness.block_of())
    assert audit is None, f"search produced a bad coloring: {audit}"
    return ChromaticResult(
        lower if out_of_budget else witness.k, witness.k, witness, nodes, out_of_budget
    )


def digit_graphs(graph: MixedGraph, fd: ForestDecomposition) -> list[MixedGraph]:
    """Relabel one graph into 1 + ceil_log(p, count) colored layers.

    Layer 0 gives every underlying edge the first canonical kind, viewed
    from the endpoint earlier in the degeneracy order.  Layer l >= 1
    encodes digit l of the edge's forest index in base p as a canonical
    kind, viewed from the same endpoint.  Any coloring that is a
    homomorphic image on every layer is proper and acyclic on the
    original graph, which is what the pipeline exploits.  Each layer is
    installed by one ``MixedGraph.add_relation_block`` call.
    """
    sig = graph.signature
    require_rich_signature(sig)
    audit = check_forest_decomposition(graph, fd)
    if audit is not None:
        raise ValueError(f"invalid forest decomposition: {audit}")
    pos = {v: i for i, v in enumerate(degeneracy_ordering(graph)[1])}
    p = sig.p
    # every digit is below both p and fd.count, so only those kinds are made
    kinds = [sig.kind_at(d) for d in range(min(p, fd.count))]
    assign = {
        ((u, v) if u < v else (v, u)): i for (u, v), i in fd.assignment.items()
    }
    digits = 0 if fd.count <= 1 else ceil_log(p, fd.count)
    pairs = graph.underlying_edges()
    xs = [u if pos[u] < pos[v] else v for u, v in pairs]
    ys = [v if pos[u] < pos[v] else u for u, v in pairs]
    layers: list[MixedGraph] = []
    for layer in range(digits + 1):
        g = MixedGraph(sig, graph.order)
        rels = [kinds[assign[pair] // p ** (layer - 1) % p if layer else 0] for pair in pairs]
        installed = g.add_relation_block(xs, ys, rels)
        assert installed, f"digit layer {layer} failed its relation checks"
        layers.append(g)
    return layers


@dataclass(frozen=True)
class ProductColoringResult:
    """An acyclic coloring assembled from per-layer homomorphisms.

    ``layers`` holds each digit layer's chromatic search; the coloring is
    audited whether or not they all finished, and ``exact`` says whether
    every layer value it rests on is proven.
    """

    colors: dict[int, int]
    palette: int
    layers: tuple[ChromaticResult, ...]
    forest_count: int

    @property
    def exact(self) -> bool:
        return all(layer.exact for layer in self.layers)


def acyclic_from_homomorphisms(
    graph: MixedGraph,
    fd: ForestDecomposition | None = None,
    hom_budget: int = 10_000_000,
) -> ProductColoringResult:
    """Acyclic coloring via chromatic number searches of the digit layers.

    The default decomposition has the fewest forests.  Colors are the
    dense renumbering of the tuples of per-layer block indices, so the
    palette is at most the product of the layers' upper bounds.  Every
    layer's witness is a homomorphic image of that layer, whether its
    search finished or ran out of ``hom_budget`` (at worst the
    singletons), so the product coloring is acyclic either way (see
    ``digit_graphs``); it is audited, and the result is ``exact`` only
    when every layer search finished.
    """
    if fd is None:
        fd = greedy_forests(graph)
    layers = tuple(
        chromatic_number(layer, budget=hom_budget)
        for layer in digit_graphs(graph, fd)
    )
    layer_blocks = [layer.witness.block_of() for layer in layers]
    dense: dict[tuple[int, ...], int] = {}
    colors: dict[int, int] = {}
    for v in range(graph.order):
        t = tuple(blocks[v] for blocks in layer_blocks)
        colors[v] = dense.setdefault(t, len(dense) + 1)
    audit = check_acyclic_coloring(graph, colors)
    assert audit is None, f"product coloring is not acyclic: {audit}"
    return ProductColoringResult(colors, len(dense), layers, fd.count)
