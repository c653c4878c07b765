"""Shared builders and hypothesis strategies for the test suite."""

from random import Random

from hypothesis import strategies as st

from mixedgraphs import ColorSignature, MixedGraph

SIGNATURES = tuple(
    ColorSignature(m, n) for m, n in ((1, 0), (0, 1), (0, 2), (1, 1), (2, 0))
)


def directed_cycle(length: int, color: int = 1) -> MixedGraph:
    g = MixedGraph(ColorSignature(1, 0), length)
    for i in range(length):
        g.add_arc(i, (i + 1) % length, color)
    return g


def directed_path(vertices: int) -> MixedGraph:
    g = MixedGraph(ColorSignature(1, 0), vertices)
    for i in range(vertices - 1):
        g.add_arc(i, i + 1, 1)
    return g


def complete_graph(order: int, signature: ColorSignature = ColorSignature(0, 1)) -> MixedGraph:
    g = MixedGraph(signature, order)
    for u in range(order):
        for v in range(u + 1, order):
            g.add_edge(u, v, 1)
    return g


def transitive_tournament(order: int) -> MixedGraph:
    g = MixedGraph(ColorSignature(1, 0), order)
    for u in range(order):
        for v in range(u + 1, order):
            g.add_arc(u, v, 1)
    return g


def sparse_graph(
    signature: ColorSignature,
    order: int,
    rng: Random,
    max_degree: int = 3,
    back: int = 2,
    plant: MixedGraph | None = None,
) -> MixedGraph:
    """Vertex v joins up to ``back`` of the 30 vertices before it whose
    degree is below ``max_degree``, with uniform kinds; the degeneracy is
    at most ``back``.  With ``plant`` (a graph of the same signature
    whose vertices are pairwise adjacent) every vertex first gets a
    random image and each relation copies the one between the two
    images, so a homomorphism into ``plant`` exists."""
    g = MixedGraph(signature, order)
    kinds = signature.kinds()
    image = [rng.randrange(plant.order) for _ in range(order)] if plant is not None else None
    for v in range(1, order):
        pool = [
            u
            for u in range(max(0, v - 30), v)
            if g.degree(u) < max_degree and (image is None or image[u] != image[v])
        ]
        for u in rng.sample(pool, min(rng.randint(1, back), len(pool))):
            if g.degree(v) < max_degree:
                if image is None:
                    g.add_relation(u, v, rng.choice(kinds))
                else:
                    g.add_relation(u, v, plant.relation_from(image[u], image[v]))
    return g


def seeded_graph(sig: ColorSignature, n: int, m: int, seed: int) -> MixedGraph:
    """m relations of uniform kinds on uniform random pairs of n vertices."""
    rng = Random(seed)
    g = MixedGraph(sig, n)
    kinds = sig.kinds()
    made = 0
    while made < m:
        u, v = rng.sample(range(n), 2)
        if g.relation_from(u, v) is None:
            g.add_relation(u, v, rng.choice(kinds))
            made += 1
    return g


def same_graph(a: MixedGraph, b: MixedGraph) -> bool:
    return (
        a.signature == b.signature
        and a.order == b.order
        and list(a.relations()) == list(b.relations())
    )


@st.composite
def mixed_graphs(draw, max_order: int = 7, signatures=SIGNATURES) -> MixedGraph:
    sig = draw(st.sampled_from(signatures))
    order = draw(st.integers(1, max_order))
    g = MixedGraph(sig, order)
    kinds = sig.kinds()
    for u in range(order):
        for v in range(u + 1, order):
            rel = draw(st.one_of(st.none(), st.sampled_from(kinds)))
            if rel is not None:
                g.add_relation(u, v, rel)
    return g


@st.composite
def sparse_graphs(
    draw, max_order: int = 40, signatures=SIGNATURES, max_degree: int = 5, back: int = 3
) -> MixedGraph:
    """``sparse_graph`` with a drawn order, maximum degree at most
    ``max_degree`` and ``back`` at most ``back``."""
    sig = draw(st.sampled_from(signatures))
    order = draw(st.integers(1, max_order))
    max_degree = draw(st.integers(1, max_degree))
    back = draw(st.integers(1, back))
    seed = draw(st.integers(0, 2**32 - 1))
    return sparse_graph(sig, order, Random(seed), max_degree, back)
