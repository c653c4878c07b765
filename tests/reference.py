"""Slow reference implementations that the fast library paths must match.

These are the original quadratic algorithms, kept verbatim in behaviour:
the differential tests require the library's results, step records and
errors to equal theirs exactly.
"""

from mixedgraphs import (
    CompleteMixedTarget,
    GreedyEmbedding,
    GreedyStep,
    Homomorphism,
    MixedGraph,
    NeighborhoodQuery,
    PropertyViolatedError,
    check_homomorphism,
    common_neighborhood,
    special_pairs,
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
    hom = Homomorphism(graph.order, tg.order, tuple(image[v] for v in range(graph.order)))
    audit = check_homomorphism(graph, tg, hom.mapping)
    assert audit is None, f"greedy pass produced an invalid homomorphism: {audit}"
    return GreedyEmbedding(hom, tuple(order), degeneracy, tuple(steps))


def quadratic_special_clique(graph: MixedGraph) -> set[int]:
    """Greedy special-pair clique whose pass from each seed walks the
    whole degree order."""
    pairs = special_pairs(graph)
    adj: dict[int, set[int]] = {v: set() for v in range(graph.order)}
    for u, w in pairs:
        adj[u].add(w)
        adj[w].add(u)
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
        return Homomorphism(0, nt, ())
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
    hom = Homomorphism(ns, nt, tuple(image))
    audit = check_homomorphism(source, target, hom.mapping)
    assert audit is None, f"solver produced an invalid homomorphism: {audit}"
    return hom
