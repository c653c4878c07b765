import pytest
from hypothesis import given

from mixedgraphs import core
from mixedgraphs import (
    ColorSignature,
    FormatError,
    MixedGraph,
    dumps,
    dumps_mapping,
    load,
    loads,
    loads_mapping,
)
from strategies import mixed_graphs, same_graph


HEADER = "mixedgraph 1\nsignature 1 1\nvertices 4\n"


@given(mixed_graphs())
def test_round_trip_preserves_the_graph(g):
    assert same_graph(loads(dumps(g)).graph, g)


@given(mixed_graphs())
def test_round_trip_with_sidecars(g):
    coloring = {v: v % 3 + 1 for v in range(g.order)}
    forests = {pair: i % 2 for i, pair in enumerate(g.underlying_edges())}
    doc = loads(dumps(g, coloring=coloring, forests=forests, seed=99))
    assert doc.coloring == coloring
    assert doc.forests == forests
    assert doc.seed == 99


def test_load_from_disk(tmp_path):
    path = tmp_path / "g.mg"
    path.write_text(HEADER + "a 0 1 1\ne 2 3 1\n")
    doc = load(path)
    assert doc.graph.order == 4
    assert doc.graph.e_count == 2


def test_comments_and_blank_lines_are_ignored():
    doc = loads("mixedgraph 1\n\n# hello\nsignature 1 0\nvertices 2  # inline\na 0 1 1\n")
    assert doc.graph.e_count == 1
    assert doc.seed is None


def test_first_seed_comment_wins():
    doc = loads("mixedgraph 1\n# seed 7\nsignature 1 0\nvertices 1\n# seed 8\n")
    assert doc.seed == 7


def test_arc_lines_survive_direction():
    doc = loads(HEADER + "a 3 0 1\n")
    text = dumps(doc.graph)
    assert "a 3 0 1" in text
    assert same_graph(loads(text).graph, doc.graph)


@pytest.mark.parametrize(
    "text,line_no,needle",
    [
        ("vertices 3\n", 1, "header"),
        ("mixedgraph 2\n", 1, "version"),
        ("mixedgraph 1\nvertices 3\n", 2, "signature"),
        ("mixedgraph 1\nsignature 0 0\n", 2, "at least one"),
        ("mixedgraph 1\nsignature 1 0\na 0 1 1\n", 3, "vertices"),
        ("mixedgraph 1\nsignature 1 0\nvertices -1\n", 3, "non-negative"),
        (HEADER + "a 0 1\n", 4, "expected 'a u v color'"),
        (HEADER + "a 0 x 1\n", 4, "vertex"),
        (HEADER + "a 0 0 1\n", 4, "loop"),
        (HEADER + "a 0 9 1\n", 4, "out of range"),
        (HEADER + "a 0 1 2\n", 4, "out of range"),
        (HEADER + "e 0 1 0\n", 4, "color"),
        (HEADER + "e 0 0 7\n", 4, "loop at vertex 0"),
        (HEADER + "a 0 1 1\na 1 0 1\n", 5, "already has a relation"),
        (HEADER + "color 9 1\n", 4, "out of range"),
        (HEADER + "color 1 1\ncolor 1 2\n", 5, "twice"),
        (HEADER + "forest 0 1 0\n", 4, "not an underlying edge"),
        (HEADER + "forest 1 1 0\n", 4, "pair (1, 1) is not an underlying edge"),
        (HEADER + "a 0 1 1\nforest 0 1 0\nforest 1 0 1\n", 6, "twice"),
        (HEADER + "a 0 1 1\nforest 0 1 -1\n", 5, "non-negative"),
        (HEADER + "banana 1\n", 4, "unknown directive"),
        ("", 1, "incomplete"),
        ("mixedgraph 1\nsignature 1 0\n", 3, "incomplete"),
    ],
)
def test_format_errors_carry_line_numbers(text, line_no, needle):
    with pytest.raises(FormatError) as exc_info:
        loads(text)
    assert f"line {line_no}:" in str(exc_info.value)
    assert needle in str(exc_info.value)


def test_color_tokens_are_read_as_integers():
    canonical = loads(HEADER + "a 0 1 1\ne 1 2 1\n").graph
    for text in ("a 0 1 01\ne 1 2 1\n", "a 0 1 1\ne 1 2 +1\n", "a 0 1 001\ne 1 2 01\n"):
        assert same_graph(loads(HEADER + text).graph, canonical)


def test_rejected_color_makes_no_kind():
    with pytest.raises(FormatError, match=r"line 4: \+a987654 out of range for signature \(1,1\)"):
        loads(HEADER + "a 0 1 987654\n")
    assert ("out", 987654) not in core._interned


def test_duplicate_relation_message_names_the_pair():
    with pytest.raises(FormatError, match=r"line 5"):
        loads(HEADER + "e 2 3 1\ne 3 2 1\n")


def test_mapping_round_trip():
    mapping = {0: 4, 1: 2, 2: 2}
    assert loads_mapping(dumps_mapping(mapping)) == mapping


def test_mapping_rejects_garbage():
    with pytest.raises(FormatError, match="line 2"):
        loads_mapping("map 0 1\nmap 0 2\n")
    with pytest.raises(FormatError, match="line 1"):
        loads_mapping("pam 0 1\n")


def test_dumps_orders_relations_and_sidecars():
    g = MixedGraph(ColorSignature(1, 1), 3)
    g.add_edge(1, 2, 1)
    g.add_arc(2, 0, 1)
    text = dumps(g, coloring={2: 1, 0: 2, 1: 1}, forests={(1, 2): 1, (0, 2): 0})
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == [
        "mixedgraph 1",
        "signature 1 1",
        "vertices 3",
        "a 2 0 1",
        "e 1 2 1",
        "color 0 2",
        "color 1 1",
        "color 2 1",
        "forest 0 2 0",
        "forest 1 2 1",
    ]
