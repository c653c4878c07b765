import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from mixedgraphs import (
    ARC_IN,
    ARC_OUT,
    EDGE,
    ColorSignature,
    MixedGraph,
    NeighborhoodQuery,
    PropertySpec,
    RelationKind,
    arc_in,
    arc_out,
    common_neighborhood,
    degeneracy_ordering,
    edge,
    is_special_2path,
    require_rich_signature,
    special_pairs,
)
from mixedgraphs import core
from reference import min_scan_degeneracy
from strategies import SIGNATURES, mixed_graphs, sparse_graphs


# --- relation kinds and signatures -----------------------------------------


def test_kind_constructors_and_str():
    assert str(arc_out(2)) == "+a2"
    assert str(arc_in(1)) == "-a1"
    assert str(edge(3)) == "e3"
    assert arc_out(1).is_arc and arc_in(1).is_arc and not edge(1).is_arc


def test_kind_validation():
    with pytest.raises(ValueError):
        RelationKind("x", 1)
    with pytest.raises(ValueError):
        RelationKind(ARC_OUT, 0)


def test_dual_is_an_involution():
    for kind in (arc_out(2), arc_in(5), edge(1)):
        assert kind.dual().dual() == kind
    assert arc_out(3).dual() == arc_in(3)
    assert edge(2).dual() == edge(2)


def test_kinds_are_interned():
    assert RelationKind(ARC_OUT, 2) is arc_out(2)
    assert RelationKind(EDGE, 3) is edge(3)
    assert arc_out(2).dual() is arc_in(2)
    assert arc_in(2).dual() is arc_out(2)
    assert edge(4).dual() is edge(4)
    assert hash(arc_out(2)) == hash(RelationKind(ARC_OUT, 2))
    assert arc_out(2) != arc_in(2) and arc_out(1) != arc_out(2)
    assert repr(arc_in(7)) == "RelationKind(kind='in', color=7)"


def test_kinds_are_read_only():
    kind = arc_out(1)
    for name in ("kind", "color", "_dual", "other"):
        with pytest.raises(AttributeError):
            setattr(kind, name, edge(1))
    with pytest.raises(AttributeError):
        del kind.color
    assert (kind.kind, kind.color) == (ARC_OUT, 1)


def test_copies_and_pickles_are_the_interned_kind():
    for kind in (arc_out(3), arc_in(1), edge(2)):
        assert copy.copy(kind) is kind
        assert copy.deepcopy(kind) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
    pair = copy.deepcopy((arc_out(5), [arc_in(5)]))
    assert pair[0] is arc_out(5) and pair[1][0] is arc_in(5)


def test_signature_kind_order():
    sig = ColorSignature(2, 1)
    assert sig.p == 5
    kinds = sig.kinds()
    assert kinds == (arc_out(1), arc_out(2), arc_in(1), arc_in(2), edge(1))
    for i, kind in enumerate(kinds):
        assert sig.kind_at(i) == kind


@pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (0, 3), (1, 1), (2, 0), (3, 2)])
def test_kind_positions_are_arithmetic(m, n):
    sig = ColorSignature(m, n)
    for i, kind in enumerate(sig.kinds()):
        assert sig.kind_at(i) is kind
    for i in (-1, sig.p):
        with pytest.raises(IndexError, match="out of range"):
            sig.kind_at(i)


def test_huge_signature_positions_make_only_the_kinds_asked_for():
    sig = ColorSignature(10**9, 10**9)
    before = len(core._interned)
    assert sig.kind_at(2 * 10**9 + 4) is edge(5)
    assert sig.kind_at(10**9 + 999_999_936) is arc_in(999_999_937)
    assert len(core._interned) - before <= 3


def test_signature_rejects_foreign_kinds():
    sig = ColorSignature(1, 0)
    assert not sig.contains(edge(1))
    assert not sig.contains(arc_out(2))
    assert not sig.contains(arc_in(2))
    assert sig.contains(arc_in(1))
    with pytest.raises(ValueError):
        ColorSignature(-1, 2)
    with pytest.raises(ValueError):
        ColorSignature(0, 0)


def test_require_rich_signature():
    require_rich_signature(ColorSignature(1, 0))
    with pytest.raises(ValueError):
        require_rich_signature(ColorSignature(0, 1))


# --- graph mutation and queries ---------------------------------------------


def test_add_relation_stores_both_views():
    g = MixedGraph(ColorSignature(1, 1), 3)
    g.add_arc(0, 1, 1)
    g.add_edge(1, 2, 1)
    assert g.relation_from(0, 1) == arc_out(1)
    assert g.relation_from(1, 0) == arc_in(1)
    assert g.relation_from(1, 2) == edge(1)
    assert g.relation_from(0, 2) is None
    assert g.e_count == 2


def test_add_relation_rejects_bad_input():
    g = MixedGraph(ColorSignature(1, 0), 2)
    with pytest.raises(ValueError):
        g.add_arc(0, 0, 1)
    with pytest.raises(ValueError):
        g.add_arc(0, 2, 1)
    with pytest.raises(ValueError):
        g.add_arc(0, 1, 2)
    with pytest.raises(ValueError):
        g.add_edge(0, 1, 1)
    g.add_arc(0, 1, 1)
    with pytest.raises(ValueError):
        g.add_arc(1, 0, 1)


def test_relation_from_rejects_loops():
    g = MixedGraph(ColorSignature(1, 0), 2)
    with pytest.raises(ValueError):
        g.relation_from(1, 1)


def test_without_pair_drops_exactly_one_pair():
    g = MixedGraph(ColorSignature(1, 0), 3)
    g.add_arc(0, 1, 1)
    g.add_arc(1, 2, 1)
    h = g.without_pair(0, 1)
    assert h.relation_from(0, 1) is None
    assert h.relation_from(1, 2) == arc_out(1)
    assert g.relation_from(0, 1) == arc_out(1)


@given(mixed_graphs())
def test_generated_graphs_validate(g):
    assert g.validate() is None


def _valid_graph():
    """A 3-vertex (1,1) graph with the arc 0 -> 1 and the edge {1, 2}."""
    g = MixedGraph(ColorSignature(1, 1), 3)
    g.add_arc(0, 1, 1)
    g.add_edge(1, 2, 1)
    assert g.validate() is None
    return g


@pytest.mark.parametrize(
    "writes,message",
    [
        ({(0, 5): edge(1)}, "neighbor 5 of vertex 0 out of range"),
        ({(2, 2): edge(1)}, "loop at vertex 2"),
        ({(0, 1): arc_out(2), (1, 0): arc_in(2)}, "color out of range: +a2 on pair (0, 1)"),
        ({(1, 2): edge(2), (2, 1): edge(2)}, "color out of range: e2 on pair (1, 2)"),
        ({(1, 0): None}, "parallel relations on pair (0, 1)"),
        ({(1, 0): arc_out(1)}, "parallel relations on pair (0, 1)"),
        ({(2, 1): arc_in(1)}, "parallel relations on pair (1, 2)"),
    ],
)
def test_validate_names_each_corrupted_adjacency(writes, message):
    g = _valid_graph()
    for (u, v), rel in writes.items():
        if rel is None:
            del g._adj[u][v]
        else:
            g._adj[u][v] = rel
    assert g.validate() == message


@pytest.mark.parametrize(
    "writes,relations,message",
    [
        # a negative neighbor would index a row from the end; here each
        # such entry has its dual there and the count adds up
        (
            {(0, -1): edge(1), (2, 0): edge(1), (0, 2): edge(1), (1, -3): arc_in(1)},
            4,
            "neighbor -1 of vertex 0 out of range",
        ),
        ({(0, 5): edge(1), (1, 7): edge(1)}, 3, "neighbor 5 of vertex 0 out of range"),
    ],
)
def test_validate_names_an_out_of_range_neighbor_the_count_misses(writes, relations, message):
    g = _valid_graph()
    for (u, v), rel in writes.items():
        g._adj[u][v] = rel
    g._e = relations
    assert g.validate() == message


def test_validate_names_a_relation_count_mismatch():
    g = _valid_graph()
    g._e += 1
    assert g.validate() == "relation count mismatch: counted 2, recorded 3"


@given(mixed_graphs())
def test_relations_are_dual_pairs(g):
    for u, v, rel in g.relations():
        assert u < v
        assert g.relation_from(u, v) == rel
        assert g.relation_from(v, u) == rel.dual()


@given(mixed_graphs())
def test_degree_sum_counts_every_edge_twice(g):
    assert sum(g.degree(v) for v in range(g.order)) == 2 * g.e_count
    assert len(g.underlying_edges()) == g.e_count


@given(mixed_graphs())
def test_degeneracy_ordering_bounds_back_degree(g):
    d, order = degeneracy_ordering(g)
    assert sorted(order) == list(range(g.order))
    position = {v: i for i, v in enumerate(order)}
    worst = 0
    for v in range(g.order):
        back = sum(1 for w in g.neighbors(v) if position[w] < position[v])
        worst = max(worst, back)
    assert worst <= d
    if g.order:
        assert d <= max(g.degree(v) for v in range(g.order))


@given(st.one_of(mixed_graphs(max_order=9), sparse_graphs(max_order=60)))
def test_heap_degeneracy_matches_min_scan(g):
    assert degeneracy_ordering(g) == min_scan_degeneracy(g)


@pytest.mark.parametrize("order", [0, 1, 2, 7])
def test_heap_degeneracy_matches_min_scan_without_relations(order):
    # order 0 (an empty heap), order 1, and isolated vertices, where every
    # key is its vertex and the order is the vertices in reverse
    g = MixedGraph(ColorSignature(1, 0), order)
    assert degeneracy_ordering(g) == min_scan_degeneracy(g) == (0, list(range(order))[::-1])


def test_degeneracy_ties_go_to_the_smallest_index():
    g = MixedGraph(ColorSignature(1, 0), 6)
    for i in range(5):
        g.add_arc(i, i + 1, 1)
    assert degeneracy_ordering(g) == (1, [5, 4, 3, 2, 1, 0])
    assert degeneracy_ordering(MixedGraph(ColorSignature(1, 0), 0)) == (0, [])


# --- relation blocks ---------------------------------------------------------


def _one_at_a_time(order, triples):
    g = MixedGraph(ColorSignature(1, 0), order)
    try:
        for u, v, rel in triples:
            g.add_relation(u, v, rel)
    except ValueError:
        return None
    return g


@given(
    st.integers(0, 5),
    st.lists(
        st.tuples(
            st.integers(-1, 6),
            st.integers(-1, 6),
            st.sampled_from([arc_out(1), arc_in(1), edge(1), arc_out(2)]),
        ),
        max_size=6,
    ),
)
def test_relation_block_matches_one_at_a_time(order, triples):
    g = MixedGraph(ColorSignature(1, 0), order)
    us, vs, rels = map(list, zip(*triples)) if triples else ([], [], [])
    expected = _one_at_a_time(order, triples)
    assert g.add_relation_block(us, vs, rels) == (expected is not None)
    if expected is None:
        assert g.e_count == 0
        assert all(g.degree(v) == 0 for v in range(order))
    else:
        assert list(g.relations()) == list(expected.relations())
        assert g.e_count == expected.e_count


@pytest.mark.parametrize(
    "us, vs, rels",
    [
        ([], [], []),  # the empty block
        ([-1], [1], [arc_out(1)]),
        ([0], [-1], [arc_out(1)]),
        ([3], [1], [arc_out(1)]),
        ([0], [3], [arc_out(1)]),
        ([0], [1], [edge(1)]),  # no edge colors in (1, 0)
        ([1], [1], [arc_out(1)]),  # a loop
        ([0, 1], [1, 0], [arc_out(1), arc_in(1)]),  # a repeated pair
    ],
)
def test_relation_block_refusals_install_nothing(us, vs, rels):
    g = MixedGraph(ColorSignature(1, 0), 3)
    assert g.add_relation_block(us, vs, rels) == (not us)
    assert g.e_count == 0
    assert all(g.degree(v) == 0 for v in range(3))


def test_relation_block_needs_a_graph_without_relations():
    g = MixedGraph(ColorSignature(1, 0), 3)
    g.add_arc(0, 1, 1)
    with pytest.raises(ValueError, match="no relations"):
        g.add_relation_block([], [], [])


# --- common neighborhoods ----------------------------------------------------


@given(mixed_graphs(max_order=6))
def test_common_neighborhood_matches_brute_force(g):
    kinds = g.signature.kinds()
    vertices = list(range(min(g.order, 3)))
    if len(vertices) < 2:
        return
    query = NeighborhoodQuery(tuple(vertices[:2]), (kinds[0], kinds[-1]))
    expected = {
        w
        for w in range(g.order)
        if all(
            w != v and g.relation_from(v, w) == kind
            for v, kind in zip(query.vertices, query.kinds)
        )
    }
    assert common_neighborhood(g, query) == expected


def test_empty_query_returns_all_vertices():
    g = MixedGraph(ColorSignature(1, 0), 4)
    assert common_neighborhood(g, NeighborhoodQuery((), ())) == {0, 1, 2, 3}


def test_query_validation():
    with pytest.raises(ValueError):
        NeighborhoodQuery((0, 0), (arc_out(1), arc_out(1)))
    with pytest.raises(ValueError):
        NeighborhoodQuery((0, 1), (arc_out(1),))


def test_property_spec_validation():
    spec = PropertySpec(2, (1, 2, 3))
    assert spec.required(2) == 3
    with pytest.raises(ValueError):
        PropertySpec(1, (1,))
    with pytest.raises(ValueError):
        PropertySpec(-1, ())


# --- special 2-paths ----------------------------------------------------------


def _five_case_special(rel_vu: RelationKind, rel_vw: RelationKind) -> bool:
    """Case-by-case restatement of the special-2-path definition.

    Both relations are viewed from the middle vertex v.  The path is
    special when it is a directed 2-path through v, two equally oriented
    arcs of different colors, two edges of different colors, or an arc
    paired with an edge.
    """
    if rel_vu.is_arc and rel_vw.is_arc:
        if (rel_vu.kind == ARC_OUT) != (rel_vw.kind == ARC_OUT):
            return True
        return rel_vu.color != rel_vw.color
    if rel_vu.kind == EDGE and rel_vw.kind == EDGE:
        return rel_vu.color != rel_vw.color
    return True


def test_special_classifier_matches_five_case_definition():
    for sig in SIGNATURES + (ColorSignature(2, 2),):
        for rel_u, rel_w in itertools.product(sig.kinds(), repeat=2):
            g = MixedGraph(sig, 3)
            g.add_relation(1, 0, rel_u)
            g.add_relation(1, 2, rel_w)
            assert is_special_2path(g, 0, 1, 2) == _five_case_special(rel_u, rel_w)


def test_special_2path_input_errors():
    g = MixedGraph(ColorSignature(1, 0), 3)
    g.add_arc(0, 1, 1)
    with pytest.raises(ValueError):
        is_special_2path(g, 0, 1, 0)
    with pytest.raises(ValueError):
        is_special_2path(g, 0, 1, 2)


def test_special_pairs_on_directed_path():
    g = MixedGraph(ColorSignature(1, 0), 3)
    g.add_arc(0, 1, 1)
    g.add_arc(1, 2, 1)
    assert special_pairs(g) == {(0, 2)}


def test_special_pairs_out_star_is_empty():
    g = MixedGraph(ColorSignature(1, 0), 4)
    for leaf in (1, 2, 3):
        g.add_arc(0, leaf, 1)
    assert special_pairs(g) == set()


@given(mixed_graphs(max_order=6))
def test_special_pairs_agree_with_classifier(g):
    expected = set()
    for v in range(g.order):
        for u, w in itertools.combinations(sorted(g.neighbors(v)), 2):
            if is_special_2path(g, u, v, w):
                expected.add((u, w))
    assert special_pairs(g) == expected
