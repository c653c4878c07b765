"""Exact homomorphism search and chromatic numbers for colored mixed graphs.

The chromatic number of a colored mixed graph is the least order of a
homomorphic image.  Homomorphic images correspond to vertex partitions
whose blocks are independent and pairwise joined by at most one relation
kind, so the search branches over such partitions directly.

Everything here is deterministic and exact within a node budget.  The
searches run on an explicit stack, so the budget rather than the
recursion limit bounds the graphs they take: the tests run
``find_homomorphism`` and ``chromatic_number`` on a 1500-vertex path,
and ``chromatic_number`` on 20 000 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Sequence

from .core import MixedGraph, RelationKind, _require_same_signature, special_pairs


@dataclass(frozen=True)
class Homomorphism:
    """A total vertex map between graphs of the same signature."""

    target_order: int
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
    not violations.  Relations are checked in ``source.relations()``
    order, so the first violation is reported; each source row and the
    row of its image are fetched once.
    """
    _require_same_signature(source, target)
    if len(mapping) != source.order:
        raise ValueError(
            f"mapping has {len(mapping)} entries for {source.order} vertices"
        )
    for u, x in enumerate(mapping):
        if not 0 <= x < target.order:
            raise ValueError(f"image {x} of vertex {u} out of range")
    for u in range(source.order):
        row = source.neighbors(u)
        x = mapping[u]
        image_row = target.neighbors(x)
        for v in sorted(row):
            if v < u:
                continue
            rel = row[v]
            y = mapping[v]
            if x == y:
                return f"adjacent pair ({u}, {v}) collapses onto vertex {x}"
            found = image_row.get(y)
            if found is not rel:
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
    ``target.relation_from(x, y)`` is the i-th kind the target uses,
    turns each filter into one AND; a source kind the target does not
    use refutes at once.  Only the unassigned vertices whose candidate
    set has shrunk are scanned for the smallest, so a node costs the
    degree of its vertex plus that frontier rather than a pass over the
    whole source.
    """
    _require_same_signature(source, target)
    ns, nt = source.order, target.order
    if ns == 0:
        return Homomorphism(nt, ())
    if nt == 0:
        return None

    # one column per kind the target uses, whatever the signature's size
    used = dict.fromkeys(rel for x in range(nt) for rel in target.neighbors(x).values())
    column = {rel: i for i, rel in enumerate(used)}
    rows = [[0] * len(column) for _ in range(nt)]
    for x in range(nt):
        for y, rel in target.neighbors(x).items():
            rows[x][column[rel]] |= 1 << y
    try:
        adj = [
            [(w, column[rel]) for w, rel in source.neighbors(u).items()]
            for u in range(ns)
        ]
    except KeyError:
        return None  # a source relation whose kind the target has nowhere
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
    hom = Homomorphism(nt, tuple(image))
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
    hom = Homomorphism(partition.k, tuple(block_of[v] for v in range(graph.order)))
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
    return _greedy_clique(_partner_sets(graph))


def _partner_sets(graph: MixedGraph) -> list[set[int]]:
    """For each vertex, the vertices joined to it by a special 2-path."""
    partners: list[set[int]] = [set() for _ in range(graph.order)]
    for u, w in special_pairs(graph):
        partners[u].add(w)
        partners[w].add(u)
    return partners


def _greedy_clique(adj: list[set[int]]) -> set[int]:
    """The largest of the greedy cliques of ``special_clique``, one per seed."""
    by_degree = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    rank = [0] * len(adj)
    for i, v in enumerate(by_degree):
        rank[v] = i
    best: list[int] = []
    for seed in range(len(adj)):
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
    place: Callable[[int, int], tuple[object, list[tuple[int, int]]] | None],
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
    one; each block considered costs one node, a refused one too.  A
    block in ``forbid[v]`` is refused at once.  Otherwise v goes into
    ``block_of`` and ``blocks`` and the caller's ``place(v, b)`` applies
    its own rule: it returns None to refuse, having undone its own
    changes, or a pair of what ``unplace(v, ...)`` needs to undo them and
    a list of bans (u, bits) for unplaced vertices u.  The search sets
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
        if out_of_budget or len(blocks) >= bound:
            return
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
            placed = place(v, bi)
            if placed is not None:
                undo, bans = placed
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
    join it creates against the neighbours of both blocks' members.  The
    join check of a placement stays as the safety net for what the masks
    miss, such as two placed neighbours in one block with different
    kinds.  Vertices without neighbours are left out of the search and
    put into block 0 at the end.  The vertices of ``special_clique`` are
    placed first, each straight into a new block, and the first leaf is
    the greedy DSATUR coloring.  When the budget runs out the best bounds
    and partition so far are returned with ``exhausted`` set; the
    partition is at worst the singletons.
    """
    n = graph.order
    if n == 0:
        return ChromaticResult(0, 0, Partition(()), 0, False)
    partners = _partner_sets(graph)
    clique = _greedy_clique(partners)
    lower = max(len(clique), 2 if graph.e_count > 0 else 1)
    adj = [
        [(w, rel, rel.dual()) for w, rel in graph.neighbors(v).items()]
        for v in range(n)
    ]
    core = [v for v in range(n) if adj[v]]  # the vertices searched
    lone = [v for v in range(n) if not adj[v]]
    if not core:
        return ChromaticResult(1, 1, Partition((tuple(lone),)), 0, False)
    m = len(core)
    partners_only = [list(partners[v].difference(graph.neighbors(v))) for v in range(n)]
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

    def place(v: int, bi: int) -> tuple[list, list[tuple[int, int]]] | None:
        row = by_kind[bi]
        added: list[tuple[int, RelationKind, RelationKind]] = []  # new joins
        for w, rel, dual in adj[v]:
            bj = block_of[w]
            if bj < 0:
                continue
            # bj != bi: a placed neighbour's block is in forbid[v]
            if linked[bi] >> bj & 1:
                if not row.get(rel, 0) >> bj & 1:
                    for join in added:
                        toggle(bi, *join)
                    return None
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
