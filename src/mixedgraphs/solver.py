"""Exact homomorphism search and chromatic numbers for colored mixed graphs.

The chromatic number of a colored mixed graph is the least order of a
homomorphic image.  Homomorphic images correspond to vertex partitions
whose blocks are independent and pairwise joined by at most one relation
kind, so the search branches over such partitions directly.

Everything here is deterministic and exact within a node budget.  No
search recurses: ``find_homomorphism`` and the partition search are
each one loop over per-depth arrays and a flat trail, and the partition
search keeps its waiting vertices in one bitmask per count of forbidden
blocks, so its pick does not scan them.  So memory and the budget, not
the recursion limit, bound the graphs they take: the tests run both on
a 1550-vertex oriented path with the recursion limit 50 frames above
the caller, and ``chromatic_number`` on 20 000 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    MixedGraph, RelationKind, _kind_masks, _partner_sets, _require_same_signature
)


@dataclass(frozen=True)
class Homomorphism:
    """A total vertex map between graphs of the same signature."""

    mapping: tuple[int, ...]

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
    not violations.  One pass over the source's rows, in vertex order,
    tests each relation once, from its lower end, against the row of
    that end's image; a loop is never an image, so a collapsed pair
    fails the same test.  Only a failing row is searched again, for its
    least failing neighbour, so the first violation in
    ``source.relations()`` order is reported.
    """
    _require_same_signature(source, target)
    if len(mapping) != source.order:
        raise ValueError(
            f"mapping has {len(mapping)} entries for {source.order} vertices"
        )
    if mapping and not 0 <= min(mapping) <= max(mapping) < target.order:
        u = next(u for u, x in enumerate(mapping) if not 0 <= x < target.order)
        raise ValueError(f"image {mapping[u]} of vertex {u} out of range")
    image_rows = target.rows
    for u, row in enumerate(source.rows):
        get = image_rows[mapping[u]].get
        for v, rel in row.items():
            if v > u and get(mapping[v]) is not rel:
                break
        else:
            continue
        v = min(v for v, rel in row.items() if v > u and get(mapping[v]) is not rel)
        x, y = mapping[u], mapping[v]
        if x == y:
            return f"adjacent pair ({u}, {v}) collapses onto vertex {x}"
        found = get(y)
        have = str(found) if found is not None else "no relation"
        return f"pair ({u}, {v}) carries {row[v]} but its image ({x}, {y}) carries {have}"
    return None


def find_homomorphism(source: MixedGraph, target: MixedGraph) -> Homomorphism | None:
    """Exact search for a homomorphism; None proves there is none.

    Backtracking with forward checking: assigning an image filters the
    candidate sets of unassigned neighbors down to exact relation
    matches.  Deterministic: smallest candidate set first, ties and
    values in index order.

    Candidate sets are int bitmasks over the target's vertices.  An
    index built once per call, ``rows[x][kind]`` with bit y set exactly
    when ``target.relation_from(x, y)`` is ``kind``, for every kind the
    target uses (``core._kind_masks``, zero-filled), turns each filter
    into one AND; a source kind the target does not use refutes at once.
    Only the unassigned vertices whose candidate set has shrunk are
    scanned for the smallest, each keyed by the int size * ns + v, so a
    node costs the degree of its vertex plus that frontier rather than a
    pass over the whole source.

    The search is one loop over per-depth lists of ints, allocated once:
    the vertex of each depth, its untried values and where its
    narrowings start on the trail.  An assigned vertex keeps its
    candidate set, which gives back its key on backtrack.  The trail is
    one flat list ``[w, old, w, old, ...]`` of narrowed vertices and
    their previous candidate sets, cut back to a depth's start on
    backtrack.  A node leaves no object alive for the collector to
    traverse, and the depth is bounded by memory rather than by the
    interpreter's recursion limit.  An empty source gets the empty map;
    into an empty target, a source kind or an empty domain refutes.
    """
    _require_same_signature(source, target)
    ns, nt = source.order, target.order

    # a mask per kind the target uses, whatever the signature's size
    target_rows = target.rows
    used = dict.fromkeys((rel for row in target_rows for rel in row.values()), 0)
    bits = [1 << y for y in range(nt)]
    rows = [{**used, **_kind_masks(row, bits)} for row in target_rows]
    adj = source.rows
    if not used.keys() >= {rel for row in adj for rel in row.values()}:
        return None  # a source relation whose kind the target has nowhere
    full = (1 << nt) - 1
    domains = [full] * ns
    image = [-1] * ns
    # The key size * ns + v of each unassigned vertex v whose domain is
    # not full; keys order as the pairs (size, v) do.  Those domains hold
    # fewer than nt values and every other unassigned domain holds all
    # nt, so the smallest (size, v) over all unassigned vertices lies
    # here whenever this is non-empty; when it is empty, the smallest is
    # the lowest unassigned index.
    narrowed: dict[int, int] = {}
    trail: list[int] = []
    vertex = [0] * ns
    untried = [0] * ns
    mark = [0] * ns  # the trail's length when the depth's vertex was picked
    first = [0] * (ns + 1)  # every vertex below first[d] stays assigned at depth d

    depth = 0
    while depth < ns:
        if narrowed:
            key = min(narrowed.values())
            u = key % ns
            del narrowed[u]
            first[depth + 1] = first[depth]
        else:
            u = image.index(-1, first[depth])
            first[depth + 1] = u + 1
        vertex[depth] = u
        mark[depth] = len(trail)
        values = domains[u]
        while True:
            if values:
                low = values & -values
                values ^= low
                x = low.bit_length() - 1
                image[u] = x
                row = rows[x]
                for w, rel in adj[u].items():
                    if image[w] < 0:
                        old = domains[w]
                        keep = old & row[rel]
                        if keep != old:
                            trail += (w, old)
                            domains[w] = keep
                            narrowed[w] = keep.bit_count() * ns + w
                            if not keep:
                                break
                else:
                    untried[depth] = values
                    depth += 1
                    break
            else:
                image[u] = -1
                if domains[u] == full:
                    # u was picked with nothing narrowed, so no unassigned
                    # vertex had an assigned neighbour (an image never
                    # allows itself): they form whole components that no
                    # earlier choice constrains, so every other one fails too.
                    return None
                narrowed[u] = domains[u].bit_count() * ns + u
                depth -= 1
                u = vertex[depth]
                values = untried[depth]
            start = mark[depth]
            for i in range(start, len(trail), 2):
                w = trail[i]
                old = domains[w] = trail[i + 1]
                if old == full:
                    del narrowed[w]
                else:
                    narrowed[w] = old.bit_count() * ns + w
            del trail[start:]
    hom = Homomorphism(tuple(image))
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
    hom = Homomorphism(tuple(block_of[v] for v in range(graph.order)))
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
    in degree order: O(sum of deg log deg) over all seeds.  The
    special-pair graph is ``core._partner_sets``, the same sets that
    ``special_pairs`` reads its pairs from.
    """
    return _greedy_clique(_partner_sets(graph))


def _greedy_clique(adj: list[set[int]]) -> set[int]:
    """The largest of the greedy cliques of ``special_clique``, one per seed.

    A seed's clique holds at most its partners and itself, and only a
    strictly larger clique replaces the best, so a seed with fewer
    partners than the best clique has vertices is skipped.
    """
    by_degree = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    rank = [0] * len(adj)
    for i, v in enumerate(by_degree):
        rank[v] = i
    best: list[int] = []
    for seed in range(len(adj)):
        if len(adj[seed]) < len(best):
            continue
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
    earliest in ``order`` (Brélaz's DSATUR pick).  The unplaced vertices
    not yet picked wait in buckets by that count (Dial's bucket queue):
    bit i of the int ``level[f]`` is set when ``order[i]`` waits with f
    forbidden blocks, so the pick is the lowest set bit of the highest
    non-empty level, found without a scan over the waiting vertices.

    A vertex v is tried in the existing blocks first and then in a new
    one; each block considered costs one node, a forbidden one too.  A
    block in ``forbid[v]`` is skipped at once.  Otherwise v goes into
    ``block_of`` and ``blocks`` and the caller's ``place(v, b)`` applies
    its own rule.  The masks are the whole rule, so a placement never
    refuses: it returns what ``unplace(v, ...)`` needs to undo it and a
    list of bans (u, bits) for unplaced vertices u, whose bits name
    existing blocks.  The search sets those bits in ``forbid`` (forward
    checking after Haralick and Elliott), keeps the bits it newly set on
    a trail, and after the subtree calls ``unplace`` while v is still in
    its block, then clears the trail's bits and takes v out.  Only leaves
    with fewer blocks than the best leaf so far are reached, so the
    first optimal leaf is kept; one with ``lower`` blocks ends the
    search.  Until the first leaf, the best blocks are the singletons of
    ``sorted(order)``, which every rule accepts, so a search cut before
    any leaf still returns a partition.  Returns the best blocks, the
    node count and whether the budget ran out.

    The search is one loop over per-depth lists, allocated once: the
    vertex of each depth, its block, where its bans start on the trail
    and what ``unplace`` needs.  The trail is one flat list ``[u, bits,
    u, bits, ...]`` cut back to a depth's start on backtrack, so the
    depth is bounded by memory rather than by the recursion limit.
    """
    n = len(order)
    rank = [0] * len(block_of)
    for i, v in enumerate(order):
        rank[v] = i
    level = [0] * (n + 1)  # f never exceeds len(blocks)
    level[0] = (1 << n) - 1
    trail: list[int] = []
    vertex = [0] * n
    block = [0] * n
    mark = [0] * n
    undo: list[object] = [None] * n
    bound = n + 1  # blocks of the best leaf so far, or n + 1
    best_blocks = tuple((v,) for v in sorted(order))
    nodes = 0
    out_of_budget = False
    depth = 0
    while True:
        if depth == n:
            bound = len(blocks)
            best_blocks = tuple(map(tuple, blocks))
            bi = n + 1  # a leaf tries no block
        elif depth < len(seeds):
            v = vertex[depth] = seeds[depth]
            level[forbid[v].bit_count()] ^= 1 << rank[v]
            bi = len(blocks)
        else:
            f = len(blocks)
            while not level[f]:
                f -= 1
            low = level[f] & -level[f]
            level[f] ^= low
            v = vertex[depth] = order[low.bit_length() - 1]
            bi = 0
        while True:
            if bi < len(blocks) or bi == len(blocks) and bi + 1 < bound:
                nodes += 1
                if nodes <= budget:
                    if forbid[v] >> bi & 1:
                        bi += 1
                        continue
                    if bi == len(blocks):
                        blocks.append([])
                    block_of[v] = bi
                    blocks[bi].append(v)
                    undo[depth], bans = place(v, bi)
                    block[depth] = bi
                    mark[depth] = len(trail)
                    for u, bits in bans:
                        bits &= ~forbid[u]
                        if bits:
                            r = 1 << rank[u]
                            level[forbid[u].bit_count()] ^= r
                            forbid[u] |= bits
                            level[forbid[u].bit_count()] |= r
                            trail += (u, bits)
                    depth += 1
                    break
                out_of_budget = True
            # the node at depth is done: its vertex waits again, and the
            # placement of its parent's vertex is undone
            if depth < n:
                level[forbid[v].bit_count()] |= 1 << rank[v]
            if not depth:
                return best_blocks, nodes, out_of_budget
            depth -= 1
            v = vertex[depth]
            bi = block[depth]
            unplace(v, undo[depth])
            start = mark[depth]
            for i in range(start, len(trail), 2):
                u = trail[i]
                r = 1 << rank[u]
                level[forbid[u].bit_count()] ^= r
                forbid[u] ^= trail[i + 1]
                level[forbid[u].bit_count()] |= r
            del trail[start:]
            block_of[v] = -1
            blocks[bi].pop()
            if not blocks[bi]:
                blocks.pop()
            bi += 1
            if out_of_budget or bound == lower or len(blocks) >= bound:
                bi = n + 1


@dataclass(frozen=True)
class ChromaticResult:
    """Outcome of a chromatic or acyclic chromatic number search.

    Both come from one branch and bound over partitions.  ``witness`` is
    the best partition found, audited, and ``upper`` is its block count.
    When ``exact``, lower == upper is the number sought and the witness
    is optimal.  Otherwise the budget ran out and the bounds are what is
    certified.
    """

    lower: int
    upper: int
    witness: Partition
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


def chromatic_number(graph: MixedGraph, budget: int = 10_000_000) -> ChromaticResult:
    """Exact chromatic number by DSATUR branch and bound over partitions.

    ``_partition_search`` runs the search, in descending underlying
    degree order, and keeps the masks of forbidden blocks; this function
    supplies the rule.  Two vertices that are adjacent or joined by a
    special 2-path never share a block (special-pair partners are
    must-differ constraints), and by the block-pair kind rule a vertex u
    with a placed neighbour w in block a may not join a block c that is
    already joined to a by a kind other than u's relation to w.  Placing
    v into block b bans b for v's neighbours and partners, bans for each
    neighbour every block joined to b by another kind, and checks each
    join it creates against the neighbours of both blocks' members.  So
    the masks are complete and a placement never clashes with a join: a
    clash was banned when its join was made or when the neighbour was
    placed, whichever came later, and two placed neighbours of u in one
    block, with different kinds at u, are special-pair partners, which
    never share a block.  Vertices without neighbours are left out of
    the search and put into block 0 at the end.  The vertices of
    ``special_clique`` are placed first, each straight into a new block,
    and the first leaf is the greedy DSATUR coloring.  When the budget
    runs out the best bounds and partition so far are returned with
    ``exhausted`` set; the partition is at worst the singletons.
    """
    n = graph.order
    rows = graph.rows
    adj = [[(w, rel, rel.dual()) for w, rel in row.items()] for row in rows]
    core = [v for v in range(n) if adj[v]]  # the vertices searched
    lone = [v for v in range(n) if not adj[v]]
    if not core:  # no relations: one block of every vertex, none if n = 0
        k = min(n, 1)
        return ChromaticResult(k, k, Partition((tuple(lone),) * k), 0, False)
    partners = _partner_sets(graph)
    clique = _greedy_clique(partners)
    lower = max(len(clique), 2)
    m = len(core)
    partners_only = [list(others.difference(row)) for others, row in zip(partners, rows)]
    order = sorted(core, key=lambda v: (-len(adj[v]), v))
    # a one-vertex clique forces nothing, and its vertex may have no neighbour
    seeds = [v for v in order if v in clique] if len(clique) > 1 else []
    # Block a is joined to the blocks in the bitmask linked[a]; bit c of
    # by_kind[a][kind] is set when the relations from a to c have that kind.
    linked = [0] * m
    by_kind: list[dict[RelationKind, int]] = [{} for _ in range(m)]
    block_of = [-1] * n
    blocks: list[list[int]] = []

    def toggle(a: int, c: int, kind: RelationKind, dual: RelationKind) -> None:
        """Join blocks a and c by ``kind`` seen from a, or undo that join."""
        linked[a] ^= 1 << c
        linked[c] ^= 1 << a
        by_kind[a][kind] = by_kind[a].get(kind, 0) ^ 1 << c
        by_kind[c][dual] = by_kind[c].get(dual, 0) ^ 1 << a

    def place(v: int, bi: int) -> tuple[list, list[tuple[int, int]]]:
        row = by_kind[bi]
        added: list[tuple[int, RelationKind, RelationKind]] = []  # new joins
        for w, rel, dual in adj[v]:
            bj = block_of[w]
            if bj < 0:
                continue
            # bj != bi: a placed neighbour's block is in forbid[v]
            if linked[bi] >> bj & 1:
                assert row.get(rel, 0) >> bj & 1, "a join clash escaped the masks"
                continue
            toggle(bi, bj, rel, dual)
            added.append((bj, rel, dual))
        bit = 1 << bi
        bans = [(w, bit) for w in partners_only[v] if block_of[w] < 0]
        # the kind rule for v's neighbours, then for each new join (bi, a)
        joins = linked[bi]
        bans += [
            (u, bit | joins & ~row.get(rel, 0)) for u, rel, _ in adj[v] if block_of[u] < 0
        ]
        for a, rel, dual in added:
            abit = 1 << a
            # blocks[bi] ends with v, whose bans here repeat the kind rule's
            for x in blocks[bi][:-1]:
                bans += [(u, abit) for u, r, _ in adj[x] if r is not rel and block_of[u] < 0]
            for y in blocks[a]:
                bans += [(u, bit) for u, r, _ in adj[y] if r is not dual and block_of[u] < 0]
        return added, bans

    def unplace(v: int, added: list) -> None:
        for join in added:
            toggle(block_of[v], *join)

    (first, *rest), nodes, out_of_budget = _partition_search(
        order, seeds, block_of, [0] * n, blocks, place, unplace, lower, budget
    )
    witness = Partition((first + tuple(lone), *rest))
    audit = check_partition(graph, witness)
    assert audit is None, f"search produced an invalid partition: {audit}"
    return ChromaticResult(
        lower if out_of_budget else witness.k, witness.k, witness, nodes, out_of_budget
    )
