"""Exact homomorphism search and chromatic numbers for colored mixed graphs.

The chromatic number of a colored mixed graph is the least order of a
homomorphic image.  Homomorphic images correspond to vertex partitions
whose blocks are independent and pairwise joined by at most one relation
kind, so the search branches over such partitions directly.

Everything here is exact and deterministic; graphs beyond a few hundred
vertices are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Sequence

from .core import MixedGraph, RelationKind, special_pairs


class BudgetExceededError(RuntimeError):
    """An exact search ran out of its node budget."""

    def __init__(self, message: str, lower: int, upper: int):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class Homomorphism:
    """A total vertex map between graphs of the same signature."""

    source_order: int
    target_order: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source_order:
            raise ValueError("mapping must assign every source vertex")

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.mapping))


def check_homomorphism(
    source: MixedGraph, target: MixedGraph, mapping: Sequence[int]
) -> str | None:
    """Audit a vertex map; None when it preserves every relation exactly.

    Each relation must map to a relation of the same kind, direction and
    color.  Mismatched signatures or a non-total map are input errors,
    not violations.
    """
    if source.signature != target.signature:
        raise ValueError(
            f"signature mismatch: {source.signature} vs {target.signature}"
        )
    if len(mapping) != source.order:
        raise ValueError(
            f"mapping has {len(mapping)} entries for {source.order} vertices"
        )
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


def find_homomorphism(source: MixedGraph, target: MixedGraph) -> Homomorphism | None:
    """Exact search for a homomorphism; None proves there is none.

    Backtracking with forward checking: assigning an image filters the
    candidate sets of unassigned neighbors down to exact relation
    matches.  Deterministic: smallest candidate set first, ties and
    values in index order.

    Candidate sets are int bitmasks over the target's vertices.  An index
    built once per call, ``rows[x][i]`` with bit y set exactly when
    ``target.relation_from(x, y)`` is the i-th canonical kind, turns each
    filter into one AND.  Only the unassigned vertices whose candidate
    set has shrunk are scanned for the smallest, so a node costs the
    degree of its vertex plus that frontier rather than a pass over the
    whole source.
    """
    if source.signature != target.signature:
        raise ValueError(
            f"signature mismatch: {source.signature} vs {target.signature}"
        )
    ns, nt = source.order, target.order
    if ns == 0:
        return Homomorphism(0, nt, ())
    if nt == 0:
        return None

    index = source.signature.kind_index
    rows = [[0] * source.signature.p for _ in range(nt)]
    for x in range(nt):
        for y, rel in target.neighbors(x).items():
            rows[x][index(rel)] |= 1 << y
    adj = [
        [(w, index(rel)) for w, rel in source.neighbors(u).items()]
        for u in range(ns)
    ]
    full = (1 << nt) - 1
    domains = [full] * ns
    image = [-1] * ns
    # (size, v) of each unassigned vertex v whose domain is not full.
    # Their domains hold fewer than nt values and every other unassigned
    # domain holds all nt, so the smallest (size, v) over all unassigned
    # vertices lies here whenever this is non-empty; when it is empty,
    # the smallest is the lowest unassigned index.
    narrowed: dict[int, tuple[int, int]] = {}

    def undo(trail: list[tuple[int, int]]) -> None:
        for w, old in trail:
            domains[w] = old
            if old == full:
                del narrowed[w]
            else:
                narrowed[w] = (old.bit_count(), w)

    def assign(u: int, x: int) -> list[tuple[int, int]] | None:
        trail: list[tuple[int, int]] = []
        row = rows[x]
        for w, i in adj[u]:
            if image[w] >= 0:
                continue
            old = domains[w]
            keep = old & row[i]
            if keep == old:
                continue
            trail.append((w, old))
            domains[w] = keep
            narrowed[w] = (keep.bit_count(), w)
            if not keep:
                undo(trail)
                return None
        return trail

    found = refuted = False

    def search(depth: int, first: int) -> Generator:
        # every vertex below ``first`` stays assigned in this subtree
        nonlocal found, refuted
        if depth == ns:
            found = True
            return
        # With nothing narrowed, no unassigned vertex has an assigned
        # neighbour (an image never allows itself), so the unassigned
        # vertices form whole components that no earlier choice
        # constrains: if this subtree fails, every other one fails too.
        fresh = not narrowed
        if narrowed:
            u = min(narrowed.values())[1]
            below = first
        else:
            u = image.index(-1, first)
            below = u + 1
        held = narrowed.pop(u, None)
        values = domains[u]
        while values:
            low = values & -values
            values ^= low
            image[u] = low.bit_length() - 1
            trail = assign(u, image[u])
            if trail is not None:
                yield search(depth + 1, below)
                if found or refuted:
                    return
                undo(trail)
        image[u] = -1
        if held is not None:
            narrowed[u] = held
        refuted = fresh

    _run_nested(search(0, 0))
    if not found:
        return None
    hom = Homomorphism(ns, nt, tuple(image))
    audit = check_homomorphism(source, target, hom.mapping)
    assert audit is None, f"solver produced an invalid homomorphism: {audit}"
    return hom


@dataclass(frozen=True)
class Partition:
    """An ordered partition of the vertices into color classes."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_of(self) -> dict[int, int]:
        return {v: i for i, block in enumerate(self.blocks) for v in block}

    @classmethod
    def from_coloring(cls, coloring: dict[int, int]) -> "Partition":
        by_color: dict[int, list[int]] = {}
        for v in sorted(coloring):
            by_color.setdefault(coloring[v], []).append(v)
        return cls(tuple(tuple(by_color[c]) for c in sorted(by_color)))


def check_partition(graph: MixedGraph, partition: Partition) -> str | None:
    """Audit that a partition induces a homomorphic image; None when it does.

    Blocks must cover every vertex exactly once, be non-empty and
    independent, and every ordered pair of blocks may be joined by at
    most one relation kind.
    """
    seen: set[int] = set()
    block_of: dict[int, int] = {}
    for i, block in enumerate(partition.blocks):
        if not block:
            return f"block {i} is empty"
        for v in block:
            if not 0 <= v < graph.order:
                return f"vertex {v} in block {i} out of range"
            if v in seen:
                return f"vertex {v} appears in two blocks"
            seen.add(v)
            block_of[v] = i
    if len(seen) != graph.order:
        missing = min(set(range(graph.order)) - seen)
        return f"vertex {missing} is in no block"
    joined: dict[tuple[int, int], RelationKind] = {}
    for u, v, rel in graph.relations():
        i, j = block_of[u], block_of[v]
        if i == j:
            return f"block {i} is not independent: relation on ({u}, {v})"
        key = (i, j) if i < j else (j, i)
        need = rel if i < j else rel.dual()
        have = joined.get(key)
        if have is None:
            joined[key] = need
        elif have != need:
            return (
                f"blocks {key[0]} and {key[1]} are joined by two kinds: "
                f"{have} and {need}"
            )
    return None


def quotient(graph: MixedGraph, partition: Partition) -> tuple[MixedGraph, Homomorphism]:
    """The homomorphic image induced by a valid partition, with its map."""
    audit = check_partition(graph, partition)
    if audit is not None:
        raise ValueError(f"invalid partition: {audit}")
    block_of = partition.block_of()
    image = MixedGraph(graph.signature, partition.k)
    for u, v, rel in graph.relations():
        i, j = block_of[u], block_of[v]
        if image.relation_from(i, j) is None:
            image.add_relation(i, j, rel)
    hom = Homomorphism(graph.order, partition.k, tuple(block_of[v] for v in range(graph.order)))
    audit = check_homomorphism(graph, image, hom.mapping)
    assert audit is None, f"quotient construction broke: {audit}"
    return image, hom


def special_clique(graph: MixedGraph) -> set[int]:
    """A greedy clique in the special-pair graph; its size bounds chi below.

    Vertices pairwise joined by special 2-paths need pairwise distinct
    images under any homomorphism.  One greedy pass is seeded from every
    vertex (extending by descending special-pair degree, ties by index)
    and the largest clique found wins; a single degree-ordered pass can
    seed itself on vertices outside the big cliques.  A pass can only
    pick special-pair neighbors of its seed, so it walks those alone,
    in degree order: O(sum of deg log deg) over all seeds.
    """
    pairs = special_pairs(graph)
    adj: dict[int, set[int]] = {v: set() for v in range(graph.order)}
    for u, w in pairs:
        adj[u].add(w)
        adj[w].add(u)
    by_degree = sorted(range(graph.order), key=lambda v: (-len(adj[v]), v))
    rank = [0] * graph.order
    for i, v in enumerate(by_degree):
        rank[v] = i
    best: list[int] = []
    for seed in range(graph.order):
        chosen = [seed]
        allowed = set(adj[seed])
        for v in sorted(adj[seed], key=rank.__getitem__):
            if v in allowed:
                chosen.append(v)
                allowed &= adj[v]
        if len(chosen) > len(best):
            best = chosen
    return set(best)


def _partition_search(
    order: Sequence[int],
    try_place: Callable[[int, int], list | None],
    unplace: Callable[[int, list], None],
    lower: int,
    cap: int,
    budget: int,
) -> tuple[tuple[tuple[int, ...], ...] | None, int, bool]:
    """Branch and bound over partitions with at most ``cap`` blocks.

    Vertices are placed in ``order``, into the existing blocks first and
    then into a new one.  ``try_place(v, b)`` puts v into block b and
    returns what ``unplace`` needs to undo it, or None when the caller's
    constraint forbids it; each attempt costs one node.  Only leaves with
    fewer blocks than the best so far are reached, so the first optimal
    leaf is kept; one with ``lower`` blocks ends the search.  Returns the
    best blocks (if any), the node count and whether the budget ran out.
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


@dataclass(frozen=True)
class ChromaticResult:
    """Outcome of a chromatic or acyclic chromatic number search.

    Both come from one branch and bound over partitions.  When ``exact``,
    lower == upper is the number sought and ``witness`` is an optimal
    partition.  Otherwise the budget ran out and only the bounds are
    certified; ``witness``, if any, is the best partition found.
    """

    lower: int
    upper: int
    witness: Partition | None
    nodes: int
    exhausted: bool

    @property
    def exact(self) -> bool:
        return not self.exhausted and self.lower == self.upper

    @property
    def k(self) -> int:
        if not self.exact:
            raise ValueError(f"not exact: bounds are [{self.lower}, {self.upper}]")
        return self.upper


def chromatic_number(
    graph: MixedGraph,
    lower_hint: int = 0,
    upper_hint: int | None = None,
    budget: int = 10_000_000,
) -> ChromaticResult:
    """Exact chromatic number by branch and bound over partitions.

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

    best_blocks, nodes, out_of_budget = _partition_search(
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
