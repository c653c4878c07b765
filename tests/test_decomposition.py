import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mixedgraphs import (
    BudgetExceededError,
    ColorSignature,
    ExactUnavailableError,
    ForestDecomposition,
    MixedGraph,
    Partition,
    acyclic_chromatic_number,
    acyclic_from_homomorphisms,
    ceil_log,
    check_acyclic_coloring,
    check_forest_decomposition,
    chromatic_number,
    digit_graphs,
    greedy_forests,
    loads,
    nash_williams_density,
)
from reference import per_k_acyclic_chromatic_number
from strategies import (
    SIGNATURES,
    complete_graph,
    directed_cycle,
    directed_path,
    mixed_graphs,
    seeded_graph,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _oracle_arboricity(g: MixedGraph) -> int:
    """Direct subset scan of ceil(e' / (v' - 1)); independent of the DP."""
    edges = g.underlying_edges()
    best = 0
    for size in range(2, g.order + 1):
        for subset in itertools.combinations(range(g.order), size):
            inside = set(subset)
            e = sum(1 for u, v in edges if u in inside and v in inside)
            best = max(best, math.ceil(e / (size - 1)))
    return best


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
        assert nash_williams_density(g)[0] == _oracle_arboricity(g)


def test_subset_limit_guard():
    g = MixedGraph(ColorSignature(1, 0), 25)
    g.add_arc(0, 1, 1)
    with pytest.raises(ExactUnavailableError):
        nash_williams_density(g)
    nash_williams_density(g, subset_limit=25)


def test_greedy_forests_cover_and_bound():
    rng = random.Random(31337)
    for _ in range(20):
        g = _random_digraph(rng, rng.randint(2, 8), 0.6)
        fd = greedy_forests(g)
        assert check_forest_decomposition(g, fd) is None
        assert fd.count >= nash_williams_density(g)[0]
    assert greedy_forests(complete_graph(4)).count == 2


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
    assert (result.k, result.nodes) == (5, 619)
    assert result.witness == Partition.from_coloring({
        0: 1, 1: 1, 2: 1, 3: 5, 4: 1, 5: 2, 6: 4,
        7: 2, 8: 2, 9: 3, 10: 4, 11: 5, 12: 4, 13: 4,
    })
    cut = acyclic_chromatic_number(a, budget=350)
    assert (cut.lower, cut.upper, cut.nodes, cut.exhausted) == (3, 6, 351, True)
    assert cut.witness == Partition(
        ((1, 7), (2, 8, 9), (0, 3, 5), (4, 12), (6, 10, 11), (13,))
    )

    b = seeded_graph(ColorSignature(1, 0), 20, 50, 9)
    result = acyclic_chromatic_number(b)
    assert (result.k, result.nodes) == (5, 5647)
    assert result.witness == Partition.from_coloring({
        0: 2, 1: 1, 2: 1, 3: 2, 4: 4, 5: 2, 6: 3, 7: 4, 8: 3, 9: 4,
        10: 1, 11: 3, 12: 4, 13: 3, 14: 1, 15: 1, 16: 4, 17: 2, 18: 5, 19: 5,
    })
    cut = acyclic_chromatic_number(b, budget=2979)
    assert (cut.lower, cut.upper, cut.nodes, cut.exhausted) == (3, 5, 2980, True)
    assert cut.witness == result.witness


# --- the partition branch and bound against the per-palette reference -------------


def _assert_acyclic_matches_reference(g: MixedGraph, budget: int | None = None) -> None:
    """Equal k and witness when both finish; on a cut, bounds that bracket
    the reference's k and a witness that attains the upper bound."""
    expected = per_k_acyclic_chromatic_number(g)
    assert expected.exact
    if budget is None:
        result = acyclic_chromatic_number(g)
        assert (result.k, result.witness) == (expected.k, expected.witness)
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
        if nodes > 1:
            _assert_acyclic_matches_reference(g, rng.randrange(1, nodes))
            cuts += 1
    assert cuts >= 50


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
    fd = greedy_forests(g)
    with pytest.raises(ValueError):
        digit_graphs(g, fd, vertex_order=[0, 1, 2, 2])
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
    k = max(result.layer_chromatics)
    assert result.palette <= k ** (result.digit_count + 1)
    tree = directed_path(6)
    result = acyclic_from_homomorphisms(tree)
    assert result.forest_count == 1
    assert result.palette <= result.layer_chromatics[0]


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
        k = max(result.layer_chromatics)
        r = result.forest_count
        assert result.palette <= k ** ((max(r, 1) - 1).bit_length() + 1)


def test_pipeline_budget_propagates():
    rng = random.Random(8)
    g = MixedGraph(ColorSignature(0, 2), 7)
    for u in range(7):
        for v in range(u + 1, 7):
            g.add_edge(u, v, rng.randint(1, 2))
    with pytest.raises(BudgetExceededError):
        acyclic_from_homomorphisms(g, hom_budget=2)


def test_pipeline_colors_every_vertex_once():
    g = directed_cycle(7)
    result = acyclic_from_homomorphisms(g)
    assert sorted(result.colors) == list(range(7))
    assert min(result.colors.values()) == 1
    assert max(result.colors.values()) <= result.palette
