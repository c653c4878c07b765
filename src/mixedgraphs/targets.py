"""Random complete targets, the adjacency property, and greedy embeddings.

A complete colored mixed graph whose every small tuple of vertices has
many common neighbors of every kind pattern absorbs all sparse graphs:
a greedy pass in degeneracy order never runs out of images.  Sampling
relation kinds uniformly produces such targets with high probability at
the orders the closed-form parameters predict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from operator import add
from random import Random
from typing import NamedTuple, Sequence

from .core import (
    ColorSignature,
    MixedGraph,
    PropertySpec,
    RelationKind,
    _require_same_signature,
    degeneracy_ordering,
)
from .solver import Homomorphism, check_homomorphism


@dataclass(frozen=True)
class CompleteMixedTarget:
    """A complete colored mixed graph, with the seed that produced it.

    The graph is indexed by relation kind, one vertex at a time:
    ``kind_row(v)`` maps each kind to the mask with bit w set exactly
    when ``graph.relation_from(v, w)`` is that kind; a kind with no such
    w has no entry, so a row holds only kinds v uses.  A common
    neighborhood is then an AND of rows.  A row is built on first use,
    from one read of v's adjacency row and the bits 1 << w made once per
    target, and kept in the instance, so a greedy embedding pays only for
    the rows of the images it uses; ``check_property_q`` reads every row
    through it.  The index lives here rather than on ``MixedGraph``
    because a complete graph is never mutated once wrapped and its rows
    take no more memory than its adjacency dicts; the graph must not
    change after it is wrapped.
    """

    graph: MixedGraph
    seed: int | None = None
    _rows: list[dict[RelationKind, int] | None] = field(
        init=False, repr=False, compare=False
    )
    _bits: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.graph.order
        if self.graph.e_count != n * (n - 1) // 2:
            raise ValueError("target graph is not complete")
        object.__setattr__(self, "_rows", [None] * n)
        object.__setattr__(self, "_bits", [1 << w for w in range(n)])

    @property
    def order(self) -> int:
        return self.graph.order

    def kind_row(self, v: int) -> dict[RelationKind, int]:
        """Vertex v's ``{kind: mask}`` row, built on first use and kept."""
        row = self._rows[v]
        if row is None:
            row = self._rows[v] = {}
            get, bits = row.get, self._bits
            for w, rel in self.graph.neighbors(v).items():
                row[rel] = get(rel, 0) | bits[w]
        return row


_WORDS_PER_DRAW = 1 << 16


def _randrange_run(rng: Random, p: int, count: int) -> Sequence[int]:
    """The values of ``[rng.randrange(p) for _ in range(count)]``.

    For p < 256 they are drawn in bulk.  CPython's ``randrange(p)``
    (3.10-3.13) takes one Mersenne Twister word per try, keeps its top
    k = ``p.bit_length()`` bits and tries again when they are >= p, and
    ``getrandbits(32 * W)`` returns the next W words with word i in bits
    32i..32i+31.  So the top byte of each word, shifted right by 8 - k,
    is one try, and ``bytes.translate`` maps and rejects all of them at
    C speed.  Each ``getrandbits`` call asks for at most 2**16 words,
    sized to cover what is still needed, and the words after the last
    value kept are thrown away, so ``rng`` must not be used afterwards.
    For p >= 256 the values are drawn one ``randrange`` at a time.
    """
    if p >= 256:
        randrange = rng.randrange
        return [randrange(p) for _ in range(count)]
    k = p.bit_length()
    table = bytes(b >> (8 - k) for b in range(256))
    reject = bytes(b for b in range(256) if table[b] >= p)
    out = bytearray()
    while len(out) < count:
        need = count - len(out)
        words = min(_WORDS_PER_DRAW, (need << k) // p + need // 16 + 64)
        data = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        out += data[3::4].translate(table, reject)
    del out[count:]
    return out


def sample_complete(signature: ColorSignature, order: int, seed: int) -> CompleteMixedTarget:
    """Sample a complete target, each pair's kind uniform and independent.

    Pairs are visited in lexicographic order and pair i takes the kind at
    canonical position ``randrange(p)`` of the i-th draw of
    ``Random(seed)``, so the result is a pure function of (signature,
    order, seed).  The draws are made in bulk by ``_randrange_run``,
    which returns exactly those values, and only the kinds drawn are
    made, so a signature with a huge p costs no more than its pairs.
    The pairs and their kinds are listed first and installed by one
    ``MixedGraph.add_relation_block`` call, in the same order.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    us: list[int] = []
    vs: list[int] = []
    for u in range(order - 1):
        us += [u] * (order - 1 - u)
        vs += range(u + 1, order)
    p = signature.p
    draws = _randrange_run(Random(seed), p, len(us))
    kinds = {i: signature.kind_at(i) for i in (range(p) if p <= len(draws) else set(draws))}
    rels = [kinds[i] for i in draws]
    g = MixedGraph(signature, order)
    g.add_relation_block(us, vs, rels)
    return CompleteMixedTarget(g, seed)


def lemma_parameters(signature: ColorSignature, t: int) -> tuple[int, PropertySpec]:
    """Order threshold and adjacency property for absorbing degeneracy t-1.

    Returns (c, spec) with c = 2 (t-1)**p p**(t-1) and the property
    demanding 1 + (t-j)(t-2) common neighbors for every j-tuple,
    j <= t-1.  A uniform sample of order >= c satisfies the property
    with probability tending to 1; the guarantee is proved for t >= 5,
    so smaller t warns and stays heuristic.
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    if t < 5:
        warnings.warn(
            f"the high-probability guarantee needs t >= 5, got {t}; "
            "treat the parameters as heuristic",
            stacklevel=2,
        )
    p = signature.p
    c = 2 * (t - 1) ** p * p ** (t - 1)
    spec = PropertySpec(t - 1, tuple(1 + (t - j) * (t - 2) for j in range(t)))
    return c, spec


@dataclass(frozen=True)
class QViolation:
    """A tuple and kind vector whose common neighborhood is too small."""

    vertices: tuple[int, ...]
    kinds: tuple[RelationKind, ...]
    count: int
    required: int

    def __str__(self) -> str:
        kinds = ",".join(str(k) for k in self.kinds)
        return (
            f"tuple {self.vertices} with kinds ({kinds}) has {self.count} "
            f"common neighbors, needs {self.required}"
        )


def check_property_q(target: CompleteMixedTarget, spec: PropertySpec) -> QViolation | None:
    """Audit the adjacency property; None when it holds everywhere.

    Enumerates every increasing tuple of up to spec.t vertices and every
    kind vector, depth first with kinds canonical; the first failure
    found is returned.  Depth j < spec.t costs C(order, j) * p ** j mask
    ANDs.  The deepest level is first counted one kind column at a time,
    for all kinds but the last: the p kind rows of a vertex v split the
    other vertices, the target being complete, so the last kind's count
    is |mask| - [v in mask] - (the other counts).  When every counted
    kind meets the minimum and every sum of counts leaves room for it
    even with v in the mask, the level holds and costs
    C(order, spec.t) * p ** (spec.t - 1) ANDs; otherwise the per-vertex
    loop re-runs the level and names its first failure, or finds none.
    It is also the first failure of a scan over all ordered tuples of
    distinct vertices: sorting a failing tuple, kinds carried along,
    keeps its count and minimum; the sorted tuple, and any failing prefix
    of it, comes strictly earlier in that scan; so that scan's first
    failure is increasing, and it meets the increasing tuples in the
    same order.  Tuples as long as the order are impossible to satisfy,
    so spec.t >= order is an input error.
    """
    g = target.graph
    n = g.order
    if spec.t >= n and spec.t > 0:
        raise ValueError(f"tuple length {spec.t} needs order > {spec.t}, got {n}")
    if n < spec.required(0):
        return QViolation((), (), n, spec.required(0))
    kinds = g.signature.kinds()
    masks = [[row.get(kind, 0) for kind in kinds] for row in map(target.kind_row, range(n))]
    columns = list(zip(*masks))[:-1]

    def last_level_holds(mask: int, first: int, need: int) -> bool:
        """Whether every vertex from ``first`` on meets ``need`` at every
        kind on ``mask``, the last kind bounded from its complement;
        False when a counted kind fails or that bound is too loose."""
        room = mask.bit_count() - 1 - need
        sums = None  # the counted kinds' sums per vertex; none when p = 1
        for column in columns:
            counts = [(mask & row).bit_count() for row in column[first:]]
            if min(counts, default=need) < need:
                return False
            sums = counts if sums is None else list(map(add, sums, counts))
        return max(sums or (0,)) <= room

    def extend(
        vertices: tuple[int, ...], indices: tuple[int, ...], mask: int
    ) -> QViolation | None:
        j = len(vertices) + 1
        need = spec.required(j)
        deeper = j < spec.t
        first = vertices[-1] + 1 if vertices else 0
        if not deeper and last_level_holds(mask, first, need):
            return None
        for v in range(first, n):
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


def search_q_target(
    signature: ColorSignature,
    order: int,
    spec: PropertySpec,
    attempts: int,
    seed: int,
) -> CompleteMixedTarget | None:
    """Sample targets until one satisfies the property; None if all fail.

    Attempt i uses the derived seed seed * 1_000_003 + i, so the outcome
    is a pure function of the arguments and any returned target can be
    regenerated from its own recorded seed alone.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    for i in range(attempts):
        candidate = sample_complete(signature, order, seed * 1_000_003 + i)
        if check_property_q(candidate, spec) is None:
            return candidate
    return None


class PropertyViolatedError(RuntimeError):
    """The greedy pass found a vertex with no admissible image.

    Carries the failing query: the vertex being placed, the images of
    its already-placed neighbors with the required kinds, the admissible
    candidates, and the images blocked by future collisions.
    """

    def __init__(
        self,
        vertex: int,
        images: tuple[int, ...],
        kinds: tuple[RelationKind, ...],
        candidates: frozenset[int],
        blocked: frozenset[int],
    ):
        kind_text = ",".join(str(k) for k in kinds)
        super().__init__(
            f"no image for vertex {vertex}: common ({kind_text})-neighbors "
            f"of {images} are {sorted(candidates)}, all blocked by "
            f"{sorted(blocked)}"
        )
        self.vertex = vertex
        self.images = images
        self.kinds = kinds
        self.candidates = candidates
        self.blocked = blocked


class GreedyStep(NamedTuple):
    """One placement: the query answered and the image chosen."""

    vertex: int
    images: tuple[int, ...]
    kinds: tuple[RelationKind, ...]
    candidates: int
    blocked: int
    image: int


@dataclass(frozen=True)
class GreedyEmbedding:
    homomorphism: Homomorphism
    degeneracy: int
    steps: tuple[GreedyStep, ...]


def greedy_homomorphism(graph: MixedGraph, target: CompleteMixedTarget) -> GreedyEmbedding:
    """Embed ``graph`` into a complete target greedily, degeneracy order.

    Each vertex needs an image adjacent to the images of its placed
    neighbors with exactly the right kinds; among those, images of
    placed vertices sharing an unplaced neighbor with the current vertex
    are blocked, because that neighbor will later need its placed
    neighbors on pairwise distinct images.  The smallest admissible
    image is chosen.  Raises PropertyViolatedError when the candidate
    set is exhausted.

    Each adjacency row of ``graph`` is fetched once, and each step walks
    the current vertex's sorted row once.  A placed neighbor w adds its
    image and the kind it needs, the dual of the row entry for w, and
    ANDs the target's ``kind_row`` mask of that image into the
    candidates until they reach 0, so the target builds rows only for
    the images the pass uses.  An unplaced neighbor z has the images of
    its placed neighbors listed once; their bits OR into the blocked
    set, so a step costs O(deg^2) operations on target-order big ints.
    The same lists, with the chosen image appended, re-audit the
    invariant that the placed neighbors of every unplaced vertex hold
    distinct images, for the only vertices whose placed neighborhoods
    changed; the finished map is audited again by ``check_homomorphism``.
    """
    tg = target.graph
    _require_same_signature(graph, tg)
    degeneracy, order = degeneracy_ordering(graph)
    kind_row = target.kind_row
    everything = (1 << tg.order) - 1
    rows = graph.rows
    image = [-1] * graph.order
    steps: list[GreedyStep] = []
    for v in order:
        around = rows[v]
        images: list[int] = []
        needed: list[RelationKind] = []
        future: list[int] = []
        candidates = everything
        for w in sorted(around):
            x = image[w]
            if x < 0:
                future.append(w)
            else:
                rel = around[w].dual()
                images.append(x)
                needed.append(rel)
                if candidates:
                    candidates &= kind_row(x).get(rel, 0)
        blocked = 0
        seen: list[list[int]] = []
        for z in future:
            placed = [image[x] for x in rows[z] if image[x] >= 0]
            for x in placed:
                blocked |= 1 << x
            seen.append(placed)
        admissible = candidates & ~blocked
        if not admissible:
            raise PropertyViolatedError(
                v, tuple(images), tuple(needed), _bits(candidates), _bits(blocked)
            )
        choice = (admissible & -admissible).bit_length() - 1
        image[v] = choice
        steps.append(
            GreedyStep._make(
                (v, tuple(images), tuple(needed), candidates.bit_count(),
                 blocked.bit_count(), choice)
            )
        )
        for z, placed in zip(future, seen):
            placed.append(choice)
            if len(set(placed)) != len(placed):
                raise AssertionError(
                    f"invariant broken after placing {v}: unplaced vertex {z} "
                    f"has placed neighbors sharing an image"
                )
    hom = Homomorphism(tuple(image))
    audit = check_homomorphism(graph, tg, hom.mapping)
    assert audit is None, f"greedy pass produced an invalid homomorphism: {audit}"
    return GreedyEmbedding(hom, degeneracy, tuple(steps))


def _bits(mask: int) -> frozenset[int]:
    """The positions of the set bits of ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _is_connected(graph: MixedGraph) -> bool:
    rows = graph.rows
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in rows[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.order


def extend_regular(
    graph: MixedGraph, target: CompleteMixedTarget
) -> tuple[CompleteMixedTarget, Homomorphism]:
    """Map a connected regular graph into the target grown by two vertices.

    Removes the lexicographically first edge uv, embeds the rest
    greedily, then appends two fresh target vertices u' and v' that copy
    the relation demands of u and v through the embedding; u'v' copies
    uv and every remaining new pair gets the first canonical kind.  The
    demands never conflict because special 2-paths through u or v keep
    the relevant images distinct.  The target's relations, in
    ``relations()`` order, u'v' and both fresh rows go in as one relation
    block.  Returns the extended target and a verified homomorphism of
    the full graph into it.
    """
    tg = target.graph
    _require_same_signature(graph, tg)
    if graph.order < 2 or graph.e_count == 0:
        raise ValueError("need a graph with at least one relation")
    degrees = set(map(len, graph.rows))
    if len(degrees) != 1:
        raise ValueError(f"graph is not regular: degrees {sorted(degrees)}")
    if not _is_connected(graph):
        raise ValueError("graph is not connected")

    u, v = min(graph.underlying_edges())
    rest = graph.without_pair(u, v)
    embedding = greedy_homomorphism(rest, target)
    f = embedding.homomorphism.mapping

    n = tg.order
    u_new, v_new = n, n + 1
    copied = list(tg.relations())
    us = [a for a, _, _ in copied] + [u_new]
    vs = [b for _, b, _ in copied] + [v_new]
    rels = [rel for _, _, rel in copied] + [graph.relation_from(u, v)]
    first = graph.signature.kind_at(0)
    for fresh, original in ((u_new, u), (v_new, v)):
        demands: dict[int, RelationKind] = {}
        for x, rel in sorted(graph.rows[original].items()):
            if x in (u, v):
                continue
            have = demands.setdefault(f[x], rel)
            if have != rel:
                raise AssertionError(
                    f"conflicting demands on image {f[x]}: {have} vs {rel}; "
                    "the embedding should have kept these apart"
                )
        us += [fresh] * n
        vs += range(n)
        rels += [demands.get(y, first) for y in range(n)]
    extended = MixedGraph(graph.signature, n + 2)
    installed = extended.add_relation_block(us, vs, rels)
    assert installed, "the extension's relations failed their checks"

    mapping = list(f)
    mapping[u] = u_new
    mapping[v] = v_new
    hom = Homomorphism(tuple(mapping))
    audit = check_homomorphism(graph, extended, hom.mapping)
    assert audit is None, f"extension produced an invalid homomorphism: {audit}"
    return CompleteMixedTarget(extended, None), hom


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def paley_tournament(q: int) -> CompleteMixedTarget:
    """The quadratic-residue tournament on a prime q congruent 3 mod 4.

    Arc u -> v exactly when (v - u) mod q is a nonzero square.  These
    are the classic highly regular targets: q = 7 gives every vertex 3
    out- and 3 in-neighbors, q = 11 additionally gives every pair at
    least 2 common neighbors of each kind pattern.
    """
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError(f"q must be a prime congruent to 3 mod 4, got {q}")
    residues = {pow(x, 2, q) for x in range(1, q)}
    g = MixedGraph(ColorSignature(1, 0), q)
    for u in range(q):
        for v in range(u + 1, q):
            if (v - u) % q in residues:
                g.add_arc(u, v, 1)
            else:
                g.add_arc(v, u, 1)
    return CompleteMixedTarget(g, None)
