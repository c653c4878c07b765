import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mixedgraphs import (
    ColorSignature,
    ForestDecomposition,
    MixedGraph,
    Partition,
    acyclic_chromatic_number,
    acyclic_from_homomorphisms,
    build_hk,
    build_special_gadget,
    ceil_log,
    check_acyclic_coloring,
    check_forest_decomposition,
    chromatic_number,
    digit_graphs,
    greedy_forests,
    loads,
    nash_williams_density,
)
from mixedgraphs.decomposition import _forest_count_bound, _forest_partition, _induced_cycle
from reference import (
    pairwise_check_acyclic_coloring,
    peel_forests,
    per_k_acyclic_chromatic_number,
    static_order_acyclic_chromatic_number,
    subset_arboricity,
)
from strategies import (
    SIGNATURES,
    complete_graph,
    directed_cycle,
    directed_path,
    mixed_graphs,
    seeded_graph,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _random_digraph(rng: random.Random, n: int, prob: float) -> MixedGraph:
    g = MixedGraph(ColorSignature(1, 0), n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                if rng.random() < 0.5:
                    g.add_arc(u, v, 1)
                else:
                    g.add_arc(v, u, 1)
    return g


# --- arboricity ---------------------------------------------------------------


def test_known_arboricities():
    assert nash_williams_density(complete_graph(4))[0] == 2
    assert nash_williams_density(complete_graph(5))[0] == 3
    assert nash_williams_density(directed_cycle(5))[0] == 2
    assert nash_williams_density(directed_path(6))[0] == 1
    assert nash_williams_density(MixedGraph(ColorSignature(1, 0), 4)) == (0, None)


def test_density_witness_attains_the_maximum():
    arb, witness = nash_williams_density(complete_graph(5))
    inside = set(witness)
    e = sum(
        1 for u, v in complete_graph(5).underlying_edges() if u in inside and v in inside
    )
    assert math.ceil(e / (len(inside) - 1)) == arb


def test_arboricity_matches_subset_oracle():
    rng = random.Random(2026)
    for _ in range(25):
        g = _random_digraph(rng, rng.randint(2, 7), rng.choice((0.3, 0.6, 0.9)))
        assert nash_williams_density(g)[0] == subset_arboricity(g)[0]


def test_one_arc_among_25_vertices():
    g = MixedGraph(ColorSignature(1, 0), 25)
    g.add_arc(0, 1, 1)
    assert nash_williams_density(g) == (1, (0, 1))


def test_greedy_forests_cover_and_bound():
    rng = random.Random(31337)
    for _ in range(20):
        g = _random_digraph(rng, rng.randint(2, 8), 0.6)
        fd = greedy_forests(g)
        assert check_forest_decomposition(g, fd) is None
        assert fd.count == nash_williams_density(g)[0]
    assert greedy_forests(complete_graph(4)).count == 2


def _assert_certified(g: MixedGraph) -> int:
    """The decomposition is valid and the witness's density equals its
    count, which together prove the count optimal; returns the count."""
    fd, densest = _forest_partition(g)
    assert check_forest_decomposition(g, fd) is None
    if fd.count == 0:
        assert densest is None
        return 0
    inside = set(densest)
    e = sum(1 for u, v in g.underlying_edges() if u in inside and v in inside)
    assert math.ceil(e / (len(inside) - 1)) == fd.count
    return fd.count


@given(mixed_graphs(max_order=12))
@settings(max_examples=150, deadline=None)
def test_forest_partition_matches_subset_oracle_and_peel(g):
    count = _assert_certified(g)
    assert count == subset_arboricity(g)[0]
    assert count <= peel_forests(g).count


def test_forest_partition_matches_subset_oracle_on_seeded_graphs():
    rng = random.Random(1985)
    for _ in range(120):
        n = rng.randint(1, 14)
        m = rng.randint(0, n * (n - 1) // 2)
        g = seeded_graph(rng.choice(SIGNATURES), n, m, rng.randrange(2**32))
        count = _assert_certified(g)
        assert count == subset_arboricity(g)[0]
        assert count <= peel_forests(g).count


def test_forest_partition_certifies_up_to_order_64():
    rng = random.Random(1992)
    for _ in range(60):
        n = rng.randint(15, 64)
        m = rng.randint(n, min(n * (n - 1) // 2, 4 * n))
        g = seeded_graph(rng.choice(SIGNATURES), n, m, rng.randrange(2**32))
        assert _assert_certified(g) <= peel_forests(g).count
    for n in (1, 2, 9, 16, 33):
        assert _assert_certified(complete_graph(n)) == ((n + 1) // 2 if n > 1 else 0)
    assert _assert_certified(build_special_gadget(ColorSignature(1, 0), 5)) == 2
    h3 = build_hk(ColorSignature(1, 0), 3).graph
    assert _assert_certified(h3) == 2
    assert peel_forests(h3).count == 3


def test_forest_partition_certifies_a_sparse_graph_of_thousands():
    g = seeded_graph(ColorSignature(1, 0), 3000, 5250, 3)
    assert _assert_certified(g) == 2


def test_forest_checker_catches_violations():
    g = complete_graph(3)
    edges = g.underlying_edges()
    cyclic = ForestDecomposition.from_assignment({e: 0 for e in edges})
    assert "cycle" in check_forest_decomposition(g, cyclic)
    missing = ForestDecomposition.from_assignment({edges[0]: 0})
    assert check_forest_decomposition(g, missing) is not None
    phantom = ForestDecomposition.from_assignment(
        {**{e: 0 for e in edges[:2]}, (0, 1): 0, (1, 0): 1}
    )
    assert check_forest_decomposition(g, phantom) is not None
    not_an_edge = ForestDecomposition.from_assignment({(0, 4): 0})
    assert check_forest_decomposition(g, not_an_edge) is not None


def test_forest_checker_names_an_index_past_the_count():
    fd = ForestDecomposition(1, {(0, 1): 0, (1, 2): 1})
    assert check_forest_decomposition(directed_path(3), fd) == (
        "forest index 1 on edge (1, 2) out of range 0..0"
    )


def test_forest_checker_takes_one_forest_per_edge():
    # the audit's cost follows the edges, not forests times vertices
    g = directed_path(2000)
    fd = ForestDecomposition.from_assignment({e: i for i, e in enumerate(g.underlying_edges())})
    assert fd.count == 1999 and check_forest_decomposition(g, fd) is None
    g.add_arc(0, 2, 1)
    edges = g.underlying_edges()  # (0, 1), (0, 2), (1, 2), (2, 3), ...
    fd = ForestDecomposition.from_assignment({e: max(i - 2, 0) for i, e in enumerate(edges)})
    assert check_forest_decomposition(g, fd) == "forest 0 contains a cycle through edge (1, 2)"


# --- acyclic colorings ----------------------------------------------------------


def test_acyclic_checker_accepts_and_rejects():
    c4 = MixedGraph(ColorSignature(0, 1), 4)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        c4.add_edge(u, v, 1)
    assert check_acyclic_coloring(c4, {0: 1, 1: 2, 2: 1, 3: 2}) is not None
    assert check_acyclic_coloring(c4, {0: 1, 1: 2, 2: 3, 3: 2}) is None
    assert check_acyclic_coloring(c4, {0: 1, 1: 1, 2: 2, 3: 3}) is not None
    with pytest.raises(ValueError):
        check_acyclic_coloring(c4, {0: 1, 1: 2, 2: 3})


def test_acyclic_checker_rejects_vertices_out_of_range():
    c5 = loads((GOLDEN / "c5.mg").read_text()).graph
    good = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3}
    assert check_acyclic_coloring(c5, good) is None
    with pytest.raises(ValueError, match="coloring names vertex 5 out of range"):
        check_acyclic_coloring(c5, {**good, 5: 1, 6: 1})
    with pytest.raises(ValueError, match="coloring names vertex -1 out of range"):
        check_acyclic_coloring(c5, {**good, -1: 2})


def test_acyclic_checker_matches_the_pairwise_audit_on_seeded_colorings():
    # Random colorings of seeded graphs: proper ones from a greedy pass
    # over a shuffled order with a small random palette (often cyclic),
    # and a few with one relation made monochromatic.
    rng = random.Random(3131)
    outcomes = {"acyclic": 0, "cycle": 0, "monochromatic": 0}
    for trial in range(300):
        n = rng.randint(1, 40)
        m = rng.randint(0, min(n * (n - 1) // 2, 2 * n))
        g = seeded_graph(SIGNATURES[trial % len(SIGNATURES)], n, m, rng.randrange(2**32))
        palette = rng.randint(2, 6)
        coloring: dict[int, int] = {}
        for v in rng.sample(range(n), n):
            taken = {coloring[w] for w in g.neighbors(v) if w in coloring}
            free = [c for c in range(palette) if c not in taken] or [max(taken) + 1]
            coloring[v] = rng.choice(free)
        if m and trial % 10 == 0:
            u, v, _ = rng.choice(list(g.relations()))
            coloring[u] = coloring[v]
        audit = check_acyclic_coloring(g, coloring)
        assert audit == pairwise_check_acyclic_coloring(g, coloring)
        kind = "acyclic" if audit is None else audit.split()[0]
        outcomes["cycle" if kind == "colors" else kind] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_acyclic_chromatic_known_values():
    assert acyclic_chromatic_number(complete_graph(4)).k == 4
    assert acyclic_chromatic_number(directed_cycle(5)).k == 3
    assert acyclic_chromatic_number(directed_path(5)).k == 2
    c4 = MixedGraph(ColorSignature(0, 1), 4)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        c4.add_edge(u, v, 1)
    assert acyclic_chromatic_number(c4).k == 3
    assert acyclic_chromatic_number(MixedGraph(ColorSignature(1, 0), 1)).k == 1
    assert acyclic_chromatic_number(MixedGraph(ColorSignature(1, 0), 0)).k == 0


@given(mixed_graphs(max_order=6))
@settings(max_examples=30, deadline=None)
def test_acyclic_witness_always_verifies(g):
    result = acyclic_chromatic_number(g)
    assert result.exact
    assert check_acyclic_coloring(g, result.witness.block_of()) is None
    assert result.witness.k == result.k


def test_acyclic_budget_exhaustion():
    result = acyclic_chromatic_number(complete_graph(6), budget=5)
    assert result.exhausted and not result.exact
    assert result.lower <= 6 <= result.upper


def test_acyclic_search_nodes_and_witness_are_pinned():
    a = seeded_graph(ColorSignature(1, 0), 14, 35, 7)
    result = acyclic_chromatic_number(a)
    assert (result.k, result.nodes) == (5, 67)
    assert result.witness == Partition(
        ((0, 1, 2, 4), (5, 7, 8), (6, 10, 12, 13), (9,), (3, 11))
    )
    cut = acyclic_chromatic_number(a, budget=30)
    assert (cut.lower, cut.upper, cut.nodes, cut.exhausted) == (4, 14, 31, True)
    assert cut.witness == Partition(tuple((v,) for v in range(14)))
    cut = acyclic_chromatic_number(a, budget=60)
    assert (cut.lower, cut.upper, cut.nodes, cut.exhausted) == (4, 5, 61, True)
    assert cut.witness == result.witness

    b = seeded_graph(ColorSignature(1, 0), 20, 50, 9)
    result = acyclic_chromatic_number(b)
    assert (result.k, result.nodes) == (5, 344)
    assert result.witness == Partition(
        ((2, 6, 10, 11, 13, 15), (3, 7, 8, 19), (1, 12, 16), (0, 5, 17, 18), (4, 9, 14))
    )
    cut = acyclic_chromatic_number(b, budget=172)
    assert (cut.lower, cut.upper, cut.nodes, cut.exhausted) == (4, 5, 173, True)
    assert cut.witness == result.witness


@pytest.mark.parametrize("sig", [ColorSignature(1, 0), ColorSignature(0, 2)])
def test_acyclic_search_certifies_hk3(sig):
    # H_3 has the acyclic 3-coloring of hk_acyclic_coloring; without forward
    # checking, static_order_acyclic_chromatic_number stops at bounds [3, 8]
    # after 200 000 nodes
    result = acyclic_chromatic_number(build_hk(sig, 3).graph, budget=20_000)
    assert result.exact and result.k == 3


def test_forest_count_bound_values():
    # an exhausted search certifies 4 here where the static bound gave 3;
    # the true value is 5 (pinned above)
    assert _forest_count_bound(seeded_graph(ColorSignature(1, 0), 14, 35, 7)) == 4
    for n in range(8):
        assert _forest_count_bound(complete_graph(n)) == n
    assert _forest_count_bound(directed_cycle(6)) == 3
    assert _forest_count_bound(directed_path(6)) == 2
    assert _forest_count_bound(MixedGraph(ColorSignature(1, 0), 4)) == 1
    # K4 plus a pendant path: the bound comes from the core, not the whole
    # graph, whose 9 edges on 7 vertices allow 3 colors
    g = MixedGraph(ColorSignature(0, 1), 7)
    for u, v in itertools.combinations(range(4), 2):
        g.add_edge(u, v, 1)
    for u in range(3, 6):
        g.add_edge(u, u + 1, 1)
    assert _forest_count_bound(g) == 4
    # it subsumes the static bounds: 3 with a cycle, 2 with an edge
    rng = random.Random(1616)
    for _ in range(300):
        n = rng.randint(1, 40)
        m = rng.randint(0, min(n * (n - 1) // 2, 2 * n))
        g = seeded_graph(rng.choice(SIGNATURES), n, m, rng.randrange(10**6))
        static = 3 if _induced_cycle(set(range(n)), g) is not None else 2 if m else 1
        assert _forest_count_bound(g) >= static


@given(mixed_graphs(max_order=8))
@settings(max_examples=150, deadline=None)
def test_forest_count_bound_never_exceeds_the_acyclic_number(g):
    assert _forest_count_bound(g) <= acyclic_chromatic_number(g).k


# --- the partition branch and bound against the per-palette reference -------------


def _assert_acyclic_matches_reference(g: MixedGraph, budget: int | None = None) -> None:
    """Equal k and an audited witness with k blocks when both finish; on a
    cut, bounds that bracket the reference's k and a witness that attains
    the upper bound."""
    expected = per_k_acyclic_chromatic_number(g)
    assert expected.exact
    if budget is None:
        result = acyclic_chromatic_number(g)
        assert result.k == expected.k and result.witness.k == result.k
        assert check_acyclic_coloring(g, result.witness.block_of()) is None
        return
    cut = acyclic_chromatic_number(g, budget=budget)
    assert cut.exhausted and cut.nodes == budget + 1
    assert cut.lower <= expected.k <= cut.upper
    assert cut.witness.k == cut.upper
    assert check_acyclic_coloring(g, cut.witness.block_of()) is None


@given(mixed_graphs(max_order=8), st.one_of(st.none(), st.integers(1, 40)))
@settings(max_examples=150, deadline=None)
def test_acyclic_search_matches_reference(g, budget):
    if budget is not None and acyclic_chromatic_number(g).nodes <= budget:
        budget = None
    _assert_acyclic_matches_reference(g, budget)


def test_acyclic_search_matches_reference_on_seeded_graphs():
    rng = random.Random(6060)
    for _ in range(300):
        n = rng.randint(1, 14)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
        g = seeded_graph(rng.choice(SIGNATURES), n, m, rng.randrange(2**32))
        _assert_acyclic_matches_reference(g)
    cuts = 0
    for _ in range(60):
        n = rng.randint(16, 40)
        m = rng.randint(n, 3 * n // 2)
        g = seeded_graph(rng.choice(SIGNATURES), n, m, rng.randrange(2**32))
        _assert_acyclic_matches_reference(g)
        nodes = acyclic_chromatic_number(g).nodes
        # one draw per graph whatever the node count, so the graphs drawn
        # do not move when the search's node counts do
        share = rng.random()
        if nodes > 1:
            _assert_acyclic_matches_reference(g, 1 + int(share * (nodes - 1)))
            cuts += 1
    assert cuts >= 50


def test_acyclic_search_matches_static_order_search():
    rng = random.Random(7070)
    both = 0
    for _ in range(60):
        n = rng.randint(16, 40)
        m = rng.randint(n, 3 * n // 2)
        g = seeded_graph(rng.choice(SIGNATURES), n, m, rng.randrange(2**32))
        expected = static_order_acyclic_chromatic_number(g, budget=20_000)
        result = acyclic_chromatic_number(g, budget=20_000)
        assert check_acyclic_coloring(g, result.witness.block_of()) is None
        if expected.exact and result.exact:
            assert result.k == expected.k
            both += 1
        elif expected.exact:
            assert result.lower <= expected.k <= result.upper
        elif result.exact:
            assert expected.lower <= result.k <= expected.upper
    assert both >= 50


def test_acyclic_at_most_chromatic_on_small_graphs():
    rng = random.Random(555)
    for _ in range(15):
        g = _random_digraph(rng, rng.randint(1, 6), 0.5)
        # any minimal homomorphic image coloring is proper, so chi_a <= n always;
        # against chi the inequality can go either way, so just sanity-check ranges
        result = acyclic_chromatic_number(g)
        assert 0 < result.k <= g.order or g.order == 0


# --- digit layers and the product pipeline ---------------------------------------


def test_digit_layer_shape():
    g = directed_cycle(5)
    fd = greedy_forests(g)
    layers = digit_graphs(g, fd)
    assert len(layers) == 1 + (0 if fd.count <= 1 else ceil_log(2, fd.count))
    for layer in layers:
        assert sorted(layer.underlying_edges()) == sorted(g.underlying_edges())
    base = layers[0]
    kinds = {rel for _, _, rel in base.relations()}
    kinds |= {rel.dual() for rel in kinds}
    assert len(kinds) <= 2


def test_digit_layers_reject_bad_input():
    g = directed_cycle(4)
    bad = ForestDecomposition.from_assignment({(0, 1): 0})
    with pytest.raises(ValueError):
        digit_graphs(g, bad)
    one_color = MixedGraph(ColorSignature(0, 1), 3)
    one_color.add_edge(0, 1, 1)
    with pytest.raises(ValueError):
        digit_graphs(one_color, greedy_forests(one_color))


def test_pipeline_on_named_graphs():
    g = directed_cycle(5)
    result = acyclic_from_homomorphisms(g)
    assert check_acyclic_coloring(g, result.colors) is None
    assert result.exact
    k = max(layer.k for layer in result.layers)
    assert result.palette <= k ** len(result.layers)
    tree = directed_path(6)
    result = acyclic_from_homomorphisms(tree)
    assert result.forest_count == 1
    assert result.palette <= result.layers[0].k


def test_pipeline_accepts_an_explicit_decomposition():
    g = directed_cycle(6)
    edges = g.underlying_edges()
    fd = ForestDecomposition.from_assignment(
        {e: (0 if i < len(edges) - 1 else 1) for i, e in enumerate(edges)}
    )
    result = acyclic_from_homomorphisms(g, fd)
    assert check_acyclic_coloring(g, result.colors) is None
    assert result.forest_count == 2


def test_pipeline_random_corpus():
    rng = random.Random(424242)
    for _ in range(25):
        g = _random_digraph(rng, rng.randint(2, 8), rng.choice((0.3, 0.6, 0.9)))
        result = acyclic_from_homomorphisms(g)
        assert check_acyclic_coloring(g, result.colors) is None
        k = max(layer.k for layer in result.layers)
        r = result.forest_count
        assert result.palette <= k ** ((max(r, 1) - 1).bit_length() + 1)


def test_pipeline_budget_propagates():
    # A layer search that runs out of budget still hands over its best
    # partition, so the pipeline returns an audited coloring, marked
    # inexact, with each layer's certified bounds.
    rng = random.Random(8)
    g = MixedGraph(ColorSignature(0, 2), 7)
    for u in range(7):
        for v in range(u + 1, 7):
            g.add_edge(u, v, rng.randint(1, 2))
    result = acyclic_from_homomorphisms(g, hom_budget=2)
    assert not result.exact
    assert any(layer.exhausted for layer in result.layers)
    assert check_acyclic_coloring(g, result.colors) is None
    assert result.palette == len(set(result.colors.values()))
    assert result.palette <= math.prod(layer.upper for layer in result.layers)
    for layer in result.layers:
        assert layer.lower <= layer.upper == layer.witness.k


def test_pipeline_colors_every_vertex_once():
    g = directed_cycle(7)
    result = acyclic_from_homomorphisms(g)
    assert sorted(result.colors) == list(range(7))
    assert min(result.colors.values()) == 1
    assert max(result.colors.values()) <= result.palette
