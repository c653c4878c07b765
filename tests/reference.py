"""Slow reference implementations that the fast library paths must match.

These are the original quadratic algorithms, the original eager
graph loader and the original ordered-tuple property audit, kept
verbatim in behaviour: the differential tests require the library's
results, step records and errors to equal theirs exactly.  The
fixed-order chromatic search and the static-order acyclic search are the
exceptions: they explore partitions in another order, so only the
numbers they certify must agree with the library's.  So are the
subset-scan arboricity and the forest
peel: the first is an exact oracle for small orders, the second an upper
bound the optimal decomposition must never exceed.  The pairwise
acyclic-coloring audit and the relation-scan homomorphism audit must
return the library's messages exactly.  The pair-by-pair target sampler
and the relation-by-relation writer must produce the library's graphs
and text exactly.  The power search for the ceiling of a double
logarithm must return the library's closed form's values exactly.
The generator partition search, driven by ``_run_nested`` and picking
by a dict minimum, must return the library engine's blocks, node count
and budget flag exactly, under either rule and at every budget.
"""

from random import Random
from typing import Callable, Generator, Iterable, Mapping, Sequence

from mixedgraphs import (
    ChromaticResult,
    CompleteMixedTarget,
    ForestDecomposition,
    GreedyEmbedding,
    GreedyStep,
    Homomorphism,
    MixedGraph,
    NeighborhoodQuery,
    Partition,
    PropertySpec,
    PropertyViolatedError,
    QViolation,
    RelationKind,
    check_acyclic_coloring,
    check_forest_decomposition,
    check_homomorphism,
    check_partition,
    common_neighborhood,
    is_special_2path,
    special_clique,
)
from mixedgraphs.core import ARC_OUT, EDGE, ColorSignature
from mixedgraphs.decomposition import _forest_count_bound, _induced_cycle
from mixedgraphs.fileio import (
    _SEED_COMMENT,
    FORMAT_VERSION,
    FormatError,
    GraphDocument,
    _int,
)


def min_scan_degeneracy(graph: MixedGraph) -> tuple[int, list[int]]:
    """Degeneracy order by scanning all live vertices for each removal."""
    n = graph.order
    deg = [graph.degree(v) for v in range(n)]
    alive = [True] * n
    removal: list[int] = []
    d = 0
    for _ in range(n):
        v = min((x for x in range(n) if alive[x]), key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        alive[v] = False
        removal.append(v)
        for w in graph.neighbors(v):
            if alive[w]:
                deg[w] -= 1
    return d, removal[::-1]


def quadratic_greedy(graph: MixedGraph, target: CompleteMixedTarget) -> GreedyEmbedding:
    """Greedy embedding that rebuilds the blocked set from every placed
    vertex and audits every unplaced vertex after each step."""
    tg = target.graph
    if graph.signature != tg.signature:
        raise ValueError(
            f"signature mismatch: {graph.signature} vs {tg.signature}"
        )
    degeneracy, order = min_scan_degeneracy(graph)
    image: dict[int, int] = {}
    steps: list[GreedyStep] = []
    for v in order:
        placed_neighbors = [w for w in sorted(graph.neighbors(v)) if w in image]
        images = tuple(image[w] for w in placed_neighbors)
        needed = tuple(graph.relation_from(w, v) for w in placed_neighbors)
        candidates = common_neighborhood(tg, NeighborhoodQuery(images, needed))
        future = {w for w in graph.neighbors(v) if w not in image}
        blocked = {
            image[x]
            for x in image
            if any(y in future for y in graph.neighbors(x))
        }
        admissible = candidates - blocked
        if not admissible:
            raise PropertyViolatedError(
                v, images, needed, frozenset(candidates), frozenset(blocked)
            )
        choice = min(admissible)
        image[v] = choice
        steps.append(
            GreedyStep(v, images, needed, len(candidates), len(blocked), choice)
        )
        for z in range(graph.order):
            if z in image:
                continue
            placed = [image[w] for w in graph.neighbors(z) if w in image]
            if len(set(placed)) != len(placed):
                raise AssertionError(
                    f"invariant broken after placing {v}: unplaced vertex {z} "
                    f"has placed neighbors sharing an image"
                )
    hom = Homomorphism(tuple(image[v] for v in range(graph.order)))
    audit = check_homomorphism(graph, tg, hom.mapping)
    assert audit is None, f"greedy pass produced an invalid homomorphism: {audit}"
    return GreedyEmbedding(hom, degeneracy, tuple(steps))


def ordered_check_property_q(target: CompleteMixedTarget, spec: PropertySpec) -> QViolation | None:
    """``check_property_q`` as it scanned every ordered tuple of distinct
    vertices, so each unordered tuple is audited once per ordering.

    Depth first, vertex indices ascending at each position and kinds
    canonical; the first failure found is returned.  Tuples as long as
    the order are impossible to satisfy, so spec.t >= order is an input
    error.
    """
    g = target.graph
    n = g.order
    if spec.t >= n and spec.t > 0:
        raise ValueError(f"tuple length {spec.t} needs order > {spec.t}, got {n}")
    if n < spec.required(0):
        return QViolation((), (), n, spec.required(0))
    kinds = g.signature.kinds()
    index = {kind: i for i, kind in enumerate(kinds)}
    masks = []
    for v in range(n):
        row = [0] * len(kinds)
        for w, rel in g.neighbors(v).items():
            row[index[rel]] |= 1 << w
        masks.append(row)

    def extend(
        vertices: tuple[int, ...], indices: tuple[int, ...], mask: int
    ) -> QViolation | None:
        j = len(vertices) + 1
        need = spec.required(j)
        deeper = j < spec.t
        for v in range(n):
            if v in vertices:
                continue
            for ki, row in enumerate(masks[v]):
                narrowed = mask & row
                count = narrowed.bit_count()
                if count < need:
                    return QViolation(
                        vertices + (v,),
                        tuple(kinds[i] for i in indices + (ki,)),
                        count,
                        need,
                    )
                if deeper:
                    found = extend(vertices + (v,), indices + (ki,), narrowed)
                    if found is not None:
                        return found
        return None

    if spec.t == 0:
        return None
    return extend((), (), (1 << n) - 1)


def special_pair_partners(graph: MixedGraph) -> list[set[int]]:
    """For each vertex u, the w joined to it by a special 2-path u-v-w,
    found by asking ``is_special_2path`` about every 2-path."""
    partners: list[set[int]] = [set() for _ in range(graph.order)]
    for v in range(graph.order):
        for u in graph.neighbors(v):
            for w in graph.neighbors(v):
                if u != w and is_special_2path(graph, u, v, w):
                    partners[u].add(w)
    return partners


def quadratic_special_clique(graph: MixedGraph) -> set[int]:
    """Greedy special-pair clique with a pass from every seed, each
    walking the whole degree order."""
    adj = special_pair_partners(graph)
    by_degree = sorted(range(graph.order), key=lambda v: (-len(adj[v]), v))
    best: list[int] = []
    for seed in range(graph.order):
        chosen = [seed]
        allowed = set(adj[seed])
        for v in by_degree:
            if v in allowed:
                chosen.append(v)
                allowed &= adj[v]
        if len(chosen) > len(best):
            best = chosen
    return set(best)


def set_domain_homomorphism(source: MixedGraph, target: MixedGraph) -> Homomorphism | None:
    """Exact homomorphism search with set domains, forward checking through
    ``relation_from`` and a scan of every source vertex for the smallest
    domain at each node; plain recursion."""
    if source.signature != target.signature:
        raise ValueError(
            f"signature mismatch: {source.signature} vs {target.signature}"
        )
    ns, nt = source.order, target.order
    if ns == 0:
        return Homomorphism(())
    if nt == 0:
        return None

    domains: list[set[int]] = [set(range(nt)) for _ in range(ns)]
    image = [-1] * ns

    def assign(u: int, x: int) -> list[tuple[int, set[int]]] | None:
        trail: list[tuple[int, set[int]]] = []
        for w, rel in source.neighbors(u).items():
            if image[w] >= 0:
                continue
            keep = {
                y
                for y in domains[w]
                if y != x and target.relation_from(x, y) == rel
            }
            if keep == domains[w]:
                continue
            trail.append((w, domains[w]))
            domains[w] = keep
            if not keep:
                for ww, old in trail:
                    domains[ww] = old
                return None
        return trail

    def search(depth: int) -> bool:
        if depth == ns:
            return True
        u = min(
            (v for v in range(ns) if image[v] < 0),
            key=lambda v: (len(domains[v]), v),
        )
        for x in sorted(domains[u]):
            image[u] = x
            trail = assign(u, x)
            if trail is not None:
                if search(depth + 1):
                    return True
                for w, old in trail:
                    domains[w] = old
            image[u] = -1
        return False

    if not search(0):
        return None
    hom = Homomorphism(tuple(image))
    audit = check_homomorphism(source, target, hom.mapping)
    assert audit is None, f"solver produced an invalid homomorphism: {audit}"
    return hom


def _run_nested(root: Generator) -> None:
    """Run a recursive search written as generators, on an explicit stack.

    A search function yields the generator of each recursive call it
    would make, and resumes when that call has finished; results travel
    through the enclosing function's variables.  This loop runs the
    innermost generator first, exactly as the recursion would, so depth
    is bounded by memory rather than by the interpreter's recursion
    limit.
    """
    stack = [root]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)


def generator_partition_search(
    order: Sequence[int],
    seeds: Sequence[int],
    block_of: list[int],
    forbid: list[int],
    blocks: list[list[int]],
    place: Callable[[int, int], tuple[object, list[tuple[int, int]]]],
    unplace: Callable[[int, object], None],
    lower: int,
    budget: int,
) -> tuple[tuple[tuple[int, ...], ...], int, bool]:
    """Branch and bound over the partitions of ``order``.

    The search owns three pieces of state that the caller reads:
    ``block_of[v]`` is v's block (negative while v is unplaced),
    ``blocks[b]`` lists the vertices of block b in placement order, and
    bit b of ``forbid[u]`` says that unplaced u may not join block b.
    All three start empty (-1, [], 0) and are left so.  The ``seeds`` are placed
    first, in turn, each straight into a new block.  After them the next
    vertex is the unplaced one with the most forbidden blocks, then the
    earliest in ``order`` (Brélaz's DSATUR pick): each unplaced vertex u
    with f > 0 forbidden blocks is keyed (n - f) * n + i, where
    n = len(order) and u = order[i], and the least key wins; with none
    forbidden anywhere, the first unplaced vertex of ``order``.

    A vertex v is tried in the existing blocks first and then in a new
    one; each block considered costs one node, a forbidden one too.  A
    block in ``forbid[v]`` is skipped at once.  Otherwise v goes into
    ``block_of`` and ``blocks`` and the caller's ``place(v, b)`` applies
    its own rule.  The masks are the whole rule, so a placement never
    refuses: it returns what ``unplace(v, ...)`` needs to undo it and a
    list of bans (u, bits) for unplaced vertices u.  The search sets
    those bits in ``forbid`` (forward checking after Haralick and
    Elliott), keeps the bits it newly set on a trail, and after the
    subtree calls ``unplace`` while v is still in its block, then
    clears the trail's bits and takes v out.  Only leaves with fewer
    blocks than the best leaf so far are reached, so the first optimal
    leaf is kept; one with ``lower`` blocks ends the search.  Until the
    first leaf, the best blocks are the singletons of ``sorted(order)``,
    which every rule accepts, so a search cut before any leaf still
    returns a partition.  Returns the best blocks, the node count and
    whether the budget ran out.
    """
    n = len(order)
    rank = [0] * len(block_of)
    for i, v in enumerate(order):
        rank[v] = i
    narrowed: dict[int, int] = {}  # the pick key of each u with forbid[u] != 0
    bound = n + 1  # blocks of the best leaf so far, or n + 1
    best_blocks = tuple((v,) for v in sorted(order))
    nodes = 0
    out_of_budget = False

    def search(idx: int, cursor: int) -> Generator:
        # every vertex of order[:cursor] stays placed in this subtree
        nonlocal bound, best_blocks, nodes, out_of_budget
        if idx == n:
            bound = len(blocks)
            best_blocks = tuple(tuple(b) for b in blocks)
            return
        first = 0
        if idx < len(seeds):
            v = seeds[idx]
            first = len(blocks)
        elif narrowed:
            v = order[min(narrowed.values()) % n]
        else:
            while block_of[order[cursor]] >= 0:
                cursor += 1
            v = order[cursor]
            cursor += 1
        held = narrowed.pop(v, None)
        for bi in range(first, len(blocks) + 1):
            new = bi == len(blocks)
            if new and bi + 1 >= bound:
                break
            nodes += 1
            if nodes > budget:
                out_of_budget = True
                break
            if forbid[v] >> bi & 1:
                continue
            if new:
                blocks.append([])
            block_of[v] = bi
            blocks[bi].append(v)
            undo, bans = place(v, bi)
            trail = []  # (u, the bits of forbid[u] this placement set)
            for u, bits in bans:
                bits &= ~forbid[u]
                if bits:
                    forbid[u] |= bits
                    narrowed[u] = (n - forbid[u].bit_count()) * n + rank[u]
                    trail.append((u, bits))
            yield search(idx + 1, cursor)
            unplace(v, undo)
            for u, bits in trail:
                forbid[u] ^= bits
                if forbid[u]:
                    narrowed[u] = (n - forbid[u].bit_count()) * n + rank[u]
                else:
                    del narrowed[u]
            block_of[v] = -1
            blocks[bi].pop()
            if new:
                blocks.pop()
            if out_of_budget or bound == lower or len(blocks) >= bound:
                break
        if held is not None:
            narrowed[v] = held

    _run_nested(search(0, 0))
    return best_blocks, nodes, out_of_budget


def per_k_acyclic_chromatic_number(graph: MixedGraph, budget: int = 5_000_000) -> ChromaticResult:
    """Exact acyclic chromatic number of the underlying graph.

    Tries palette sizes in increasing order; for each, backtracks over
    vertex colors (descending degree order) and rejects any assignment
    that makes a neighbor monochromatic or closes a bichromatic cycle.
    Every color assignment attempt costs one node from the budget; when
    it runs out, the palette size reached is the lower bound and the
    singleton partition attains n.  Witness blocks are in color order.
    The backtracking runs on an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    n = graph.order
    if n == 0:
        return ChromaticResult(0, 0, Partition(()), 0, False)
    lower = 2 if graph.e_count > 0 else 1
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    adj = [graph.neighbors(v) for v in range(n)]
    colors: dict[int, int] = {}
    nodes = 0

    def closes_bichromatic_cycle(v: int, c: int) -> bool:
        neighbor_colors: dict[int, list[int]] = {}
        for w in adj[v]:
            if w in colors:
                neighbor_colors.setdefault(colors[w], []).append(w)
        for d, anchors in neighbor_colors.items():
            if len(anchors) < 2:
                continue
            # two anchors already linked inside the {c, d} classes close a cycle at v
            pool = {
                w for w in range(n) if w != v and w in colors and colors[w] in (c, d)
            }
            comp: dict[int, int] = {}
            label = 0
            for start in sorted(pool):
                if start in comp:
                    continue
                stack = [start]
                comp[start] = label
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y in pool and y not in comp:
                            comp[y] = label
                            stack.append(y)
                label += 1
            seen: set[int] = set()
            for w in anchors:
                if comp[w] in seen:
                    return True
                seen.add(comp[w])
        return False

    found = out_of_budget = False

    def search(idx: int, k: int, used: int) -> Generator:
        nonlocal nodes, found, out_of_budget
        if idx == n:
            found = True
            return
        v = order[idx]
        forbidden = {colors[w] for w in adj[v] if w in colors}
        for c in range(min(used + 1, k)):
            nodes += 1
            if nodes > budget:
                out_of_budget = True
                return
            if c in forbidden or closes_bichromatic_cycle(v, c):
                continue
            colors[v] = c
            yield search(idx + 1, k, max(used, c + 1))
            if found or out_of_budget:
                return
            del colors[v]

    for k in range(lower, n + 1):
        colors.clear()
        _run_nested(search(0, k, 0))
        if out_of_budget:
            singletons = Partition(tuple((v,) for v in range(n)))
            return ChromaticResult(k, n, singletons, nodes, True)
        if found:
            audit = check_acyclic_coloring(graph, colors)
            assert audit is None, f"search produced a bad coloring: {audit}"
            return ChromaticResult(k, k, Partition.from_coloring(colors), nodes, False)
    raise AssertionError("distinct colors always succeed")  # pragma: no cover


def _fixed_order_partition_search(
    order: Sequence[int],
    try_place: Callable[[int, int], list | None],
    unplace: Callable[[int, list], None],
    lower: int,
    cap: int,
    budget: int,
) -> tuple[tuple[tuple[int, ...], ...] | None, int, bool]:
    """Branch and bound over partitions with at most ``cap`` blocks.

    The partition engine as it was before it took a vertex-choice hook,
    kept with its caller below so the oracle shares no search code with
    the library.  Vertices are placed in ``order``, into the existing
    blocks first and then into a new one.  ``try_place(v, b)`` puts v
    into block b and returns what ``unplace`` needs to undo it, or None
    when the caller's constraint forbids it; each attempt costs one
    node.  Only leaves with fewer blocks than the best so far are
    reached, so the first optimal leaf is kept; one with ``lower`` blocks
    ends the search.  Returns the best blocks (if any), the node count
    and whether the budget ran out.
    """
    n = len(order)
    blocks: list[list[int]] = []
    bound = cap + 1  # blocks of the best leaf so far, or cap + 1
    best_blocks: tuple[tuple[int, ...], ...] | None = None
    nodes = 0
    out_of_budget = False

    def search(idx: int) -> Generator:
        nonlocal bound, best_blocks, nodes, out_of_budget
        if out_of_budget or len(blocks) >= bound:
            return
        if idx == n:
            bound = len(blocks)
            best_blocks = tuple(tuple(b) for b in blocks)
            return
        v = order[idx]
        for bi in range(len(blocks)):
            nodes += 1
            if nodes > budget:
                out_of_budget = True
                return
            added = try_place(v, bi)
            if added is not None:
                blocks[bi].append(v)
                yield search(idx + 1)
                blocks[bi].pop()
                unplace(v, added)
                if out_of_budget or bound == lower or len(blocks) >= bound:
                    return
        if len(blocks) + 1 < bound:
            nodes += 1
            if nodes > budget:
                out_of_budget = True
                return
            bi = len(blocks)
            blocks.append([])
            added = try_place(v, bi)
            if added is not None:
                blocks[bi].append(v)
                yield search(idx + 1)
                blocks[bi].pop()
                unplace(v, added)
            blocks.pop()

    _run_nested(search(0))
    return best_blocks, nodes, out_of_budget


def fixed_order_chromatic_number(
    graph: MixedGraph,
    lower_hint: int = 0,
    upper_hint: int | None = None,
    budget: int = 10_000_000,
) -> ChromaticResult:
    """Exact chromatic number by branch and bound over partitions.

    The library's search before it chose vertices by forbidden blocks.
    Vertices are placed in descending underlying-degree order (ties by
    index), existing blocks before a new one.  ``lower_hint`` and
    ``upper_hint`` must be certified bounds when given; the upper hint
    prunes, the lower hint allows early termination.  Each placement
    attempt costs one node; when the budget runs out the best bounds so
    far are returned with ``exhausted`` set.
    """
    n = graph.order
    if n == 0:
        return ChromaticResult(0, 0, Partition(()), 0, False)
    clique = special_clique(graph)
    lower = max(lower_hint, len(clique), 2 if graph.e_count > 0 else 1)
    cap = n if upper_hint is None else min(upper_hint, n)
    if lower > cap:
        raise ValueError(f"hints conflict: lower {lower} exceeds upper {cap}")

    adj = [
        [(w, rel, rel.dual()) for w, rel in graph.neighbors(v).items()]
        for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    block_of = [-1] * n
    joined: dict[tuple[int, int], RelationKind] = {}

    def try_place(v: int, bi: int) -> list[tuple[int, int]] | None:
        added: list[tuple[int, int]] = []
        for w, rel, dual in adj[v]:
            bj = block_of[w]
            if bj < 0:
                continue
            if bj == bi:
                break
            key = (bi, bj) if bi < bj else (bj, bi)
            need = rel if bi < bj else dual
            have = joined.get(key)
            if have is None:
                joined[key] = need
                added.append(key)
            elif have != need:
                break
        else:
            block_of[v] = bi
            return added
        unplace(v, added)
        return None

    def unplace(v: int, added: list[tuple[int, int]]) -> None:
        block_of[v] = -1
        for key in added:
            del joined[key]

    best_blocks, nodes, out_of_budget = _fixed_order_partition_search(
        order, try_place, unplace, lower, cap, budget
    )
    if best_blocks is not None:
        witness = Partition(best_blocks)
        audit = check_partition(graph, witness)
        assert audit is None, f"search produced an invalid partition: {audit}"
    elif not out_of_budget:
        raise ValueError(
            f"no partition within upper_hint={upper_hint}; the hint was not a valid bound"
        )
    else:
        witness = Partition(tuple((v,) for v in range(n))) if cap == n else None
    upper = witness.k if witness is not None else cap
    return ChromaticResult(
        lower if out_of_budget else upper, upper, witness, nodes, out_of_budget
    )


def pairwise_check_acyclic_coloring(graph: MixedGraph, coloring) -> str | None:
    """The acyclic-coloring audit that searched every pair of color
    classes for an induced cycle: O(k^2 n) for k colors."""
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


def relation_scan_check_homomorphism(
    source: MixedGraph, target: MixedGraph, mapping: Sequence[int]
) -> str | None:
    """The homomorphism audit that looked every image pair up with the
    range-checked ``target.relation_from``, in ``source.relations()``
    order."""
    if source.signature != target.signature:
        raise ValueError(f"signature mismatch: {source.signature} vs {target.signature}")
    if len(mapping) != source.order:
        raise ValueError(f"mapping has {len(mapping)} entries for {source.order} vertices")
    for u, x in enumerate(mapping):
        if not 0 <= x < target.order:
            raise ValueError(f"image {x} of vertex {u} out of range")
    for u, v, rel in source.relations():
        x, y = mapping[u], mapping[v]
        if x == y:
            return f"adjacent pair ({u}, {v}) collapses onto vertex {x}"
        found = target.relation_from(x, y)
        if found != rel:
            have = str(found) if found is not None else "no relation"
            return (
                f"pair ({u}, {v}) carries {rel} but its image ({x}, {y}) "
                f"carries {have}"
            )
    return None


def static_order_acyclic_chromatic_number(
    graph: MixedGraph, budget: int = 5_000_000
) -> ChromaticResult:
    """Exact acyclic chromatic number of the underlying graph.

    The library's search before it kept forbidden-block masks: the
    partition branch and bound in a static descending degree order, on
    the fixed-order engine above.  A vertex may not join a block holding
    a neighbor, nor close a cycle in the union of two blocks: a
    union-find per pair of blocks (union by size, no path compression)
    holds their forest, and backtracking undoes its links.  The lower
    bound is 3 when the graph has a cycle, since two colors would make it
    bichromatic, or the forest-count bound of ``_forest_count_bound``
    when higher.  Each placement attempt costs one node; when the budget
    runs out, the best coloring found (singletons if none) is the witness
    and attains upper.  Witness blocks are in color order.
    """
    n = graph.order
    cyclic = _induced_cycle(set(range(n)), graph) is not None
    static = 3 if cyclic else 2 if graph.e_count > 0 else 1
    lower = max(static, _forest_count_bound(graph))
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

    best, nodes, out_of_budget = _fixed_order_partition_search(
        order, try_place, unplace, lower, n, budget
    )
    if best is not None:
        witness = Partition(tuple(tuple(sorted(block)) for block in best))
        audit = check_acyclic_coloring(graph, witness.block_of())
        assert audit is None, f"search produced a bad coloring: {audit}"
    else:
        witness = Partition(tuple((v,) for v in range(n)))
    return ChromaticResult(
        lower if out_of_budget else witness.k, witness.k, witness, nodes, out_of_budget
    )


def _color_kind(
    by_token: dict[str, RelationKind],
    word: str,
    token: str,
    line_no: int,
    graph: MixedGraph,
    u: int,
    v: int,
) -> RelationKind:
    """The kind of an ``a``/``e`` line whose color token is not canonical.

    Accepts other spellings of a color of the signature (``01``).  For
    any other color, raises the FormatError that building the kind and
    adding it to the graph would raise, checks in the same order, but
    without making the kind.
    """
    c = _int(token, line_no, "color")
    if str(c) in by_token:
        return by_token[str(c)]
    try:
        if c < 1:
            raise ValueError(f"color must be >= 1, got {c}")
        graph._check_free_pair(u, v)
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from None
    prefix = "+a" if word == "a" else "e"
    raise FormatError(line_no, f"{prefix}{c} out of range for signature {graph.signature}")


def reference_loads(text: str) -> GraphDocument:
    """``fileio.loads`` as it was with an eager token table: every color
    of the signature is made into a kind before the first relation line."""
    doc: GraphDocument | None = None
    signature: ColorSignature | None = None
    graph: MixedGraph | None = None
    header_seen = False
    seed: int | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            seed_match = _SEED_COMMENT.search(raw)
            if seed_match and seed is None:
                seed = int(seed_match.group(1))
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        word = tokens[0]

        if not header_seen:
            if word != "mixedgraph":
                raise FormatError(line_no, f"expected 'mixedgraph {FORMAT_VERSION}' header")
            if len(tokens) != 2 or _int(tokens[1], line_no, "version") != FORMAT_VERSION:
                raise FormatError(line_no, f"unsupported format version {tokens[1:]}")
            header_seen = True
            continue

        if signature is None:
            if word != "signature" or len(tokens) != 3:
                raise FormatError(line_no, "expected 'signature m n' after the header")
            m = _int(tokens[1], line_no, "m")
            n = _int(tokens[2], line_no, "n")
            try:
                signature = ColorSignature(m, n)
            except ValueError as exc:
                raise FormatError(line_no, str(exc)) from None
            continue

        if graph is None:
            if word != "vertices" or len(tokens) != 2:
                raise FormatError(line_no, "expected 'vertices N' after the signature")
            order = _int(tokens[1], line_no, "vertex count")
            if order < 0:
                raise FormatError(line_no, "vertex count must be non-negative")
            graph = MixedGraph(signature, order)
            doc = GraphDocument(graph)
            by_token = {
                "a": {str(c): RelationKind(ARC_OUT, c) for c in range(1, signature.m + 1)},
                "e": {str(c): RelationKind(EDGE, c) for c in range(1, signature.n + 1)},
            }
            continue

        assert doc is not None
        if word in ("a", "e"):
            if len(tokens) != 4:
                raise FormatError(line_no, f"expected '{word} u v color'")
            u = _int(tokens[1], line_no, "vertex")
            v = _int(tokens[2], line_no, "vertex")
            rel = by_token[word].get(tokens[3])
            if rel is None:
                rel = _color_kind(by_token[word], word, tokens[3], line_no, graph, u, v)
            try:
                graph.add_relation(u, v, rel)
            except ValueError as exc:
                raise FormatError(line_no, str(exc)) from None
        elif word == "color":
            if len(tokens) != 3:
                raise FormatError(line_no, "expected 'color v c'")
            v = _int(tokens[1], line_no, "vertex")
            c = _int(tokens[2], line_no, "color")
            if not 0 <= v < graph.order:
                raise FormatError(line_no, f"vertex {v} out of range")
            if v in doc.coloring:
                raise FormatError(line_no, f"vertex {v} colored twice")
            doc.coloring[v] = c
        elif word == "forest":
            if len(tokens) != 4:
                raise FormatError(line_no, "expected 'forest u v i'")
            u = _int(tokens[1], line_no, "vertex")
            v = _int(tokens[2], line_no, "vertex")
            i = _int(tokens[3], line_no, "forest index")
            if not (0 <= u < graph.order and 0 <= v < graph.order):
                raise FormatError(line_no, f"pair ({u}, {v}) out of range")
            key = (u, v) if u < v else (v, u)
            if u == v or graph.relation_from(u, v) is None:
                raise FormatError(line_no, f"pair ({u}, {v}) is not an underlying edge")
            if key in doc.forests:
                raise FormatError(line_no, f"edge ({u}, {v}) assigned twice")
            if i < 0:
                raise FormatError(line_no, "forest index must be non-negative")
            doc.forests[key] = i
        else:
            raise FormatError(line_no, f"unknown directive {word!r}")

    if doc is None:
        last = len(text.splitlines()) + 1
        raise FormatError(last, "incomplete file: header, signature and vertices required")
    audit = doc.graph.validate()
    assert audit is None, f"parser produced an invalid graph: {audit}"
    doc.seed = seed
    return doc


def subset_arboricity(graph: MixedGraph) -> tuple[int, tuple[int, ...] | None]:
    """Exact arboricity with a densest witness subset.

    Maximizes ceil(e' / (v' - 1)) over all induced subgraphs by
    enumerating vertex subsets with incremental edge counts, so the cost
    is O(2^order); callers keep the order small.
    Returns (arboricity, witness vertices); the witness is None for
    edgeless graphs.
    """
    n = graph.order
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


def peel_forests(graph: MixedGraph) -> ForestDecomposition:
    """Cover the underlying edges by repeatedly peeling a spanning forest.

    Each round grows a depth-first spanning forest of the remaining
    graph (roots and neighbors in ascending index order) and removes it.
    The number of rounds is an arboricity upper bound, not necessarily
    the optimum; it was the library's decomposition before the
    augmenting-path partition.
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


def pairwise_sample_complete(signature: ColorSignature, order: int, seed: int) -> CompleteMixedTarget:
    """``targets.sample_complete`` as it installed one pair at a time.

    Pairs are visited in lexicographic order, so the result is a pure
    function of (signature, order, seed).  It draws one ``randrange``
    per pair, so it is also the oracle for the bulk draw of
    ``targets._randrange_run``.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    rng = Random(seed)
    kinds = signature.kinds()
    g = MixedGraph(signature, order)
    for u in range(order):
        for v in range(u + 1, order):
            g.add_relation(u, v, kinds[rng.randrange(len(kinds))])
    return CompleteMixedTarget(g, seed)


def relation_scan_dumps(
    graph: MixedGraph,
    *,
    coloring: Mapping[int, int] | None = None,
    forests: Mapping[tuple[int, int], int] | None = None,
    seed: int | None = None,
    comments: Iterable[str] = (),
) -> str:
    """``fileio.dumps`` as it formatted each relation of ``relations()``."""
    lines = [f"mixedgraph {FORMAT_VERSION}"]
    if seed is not None:
        lines.append(f"# seed {seed}")
    for comment in comments:
        lines.append(f"# {comment}")
    lines.append(f"signature {graph.signature.m} {graph.signature.n}")
    lines.append(f"vertices {graph.order}")
    for u, v, rel in graph.relations():
        if rel.kind == ARC_OUT:
            lines.append(f"a {u} {v} {rel.color}")
        elif rel.kind == EDGE:
            lines.append(f"e {u} {v} {rel.color}")
        else:
            lines.append(f"a {v} {u} {rel.color}")
    if coloring:
        for v in sorted(coloring):
            lines.append(f"color {v} {coloring[v]}")
    if forests:
        for (u, v) in sorted(forests):
            lines.append(f"forest {u} {v} {forests[(u, v)]}")
    return "\n".join(lines) + "\n"


def power_search_ceil_log_log(k: int, p: int, outer: int) -> int:
    """The integer ceiling of log_outer(log_p(k)), searching s one step
    at a time, using outer**s >= log_p(k)  <=>  p**(outer**s) >= k, which
    for negative s reads p >= k**(outer**(-s))."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")

    def holds(s: int) -> bool:
        if s >= 0:
            return p ** (outer**s) >= k
        return p >= k ** (outer ** (-s))

    s = 0
    if holds(0):
        while holds(s - 1):
            s -= 1
    else:
        while not holds(s):
            s += 1
    return s
