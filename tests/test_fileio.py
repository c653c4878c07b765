from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from mixedgraphs import core, fileio
from mixedgraphs import (
    ColorSignature,
    FormatError,
    MixedGraph,
    dumps,
    dumps_mapping,
    load,
    loads,
    loads_mapping,
    sample_complete,
)
from reference import reference_loads, relation_scan_dumps
from strategies import SIGNATURES, mixed_graphs, same_graph, seeded_graph, sparse_graph


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
        (HEADER + "a 0 1 1\ne 2 3 1\na 3 0 1\ne 3 2 1\n", 7, "already has a relation"),
        (HEADER + "a 0 1 1\ne 2 3 1\ne 1 1 1\na 3 0 1\n", 6, "loop"),
        (HEADER + "a 0 1 1\ne 2 3 1\ne 1 4 1\na 3 0 1\n", 6, "out of range"),
        (HEADER + "a 0 1 1\ne 2 3 1\na 3 0 1\ne 1 2 2\n", 7, "e2 out of range"),
        (HEADER + "a 0 1 1\na 2 " + "1" * 5000 + " 1\n", 5, "vertex must be an integer"),
        (HEADER + "a 0 1 1\na 2 3 " + "1" * 5000 + "\n", 5, "color must be an integer"),
        ("mixedgraph 1\n# seed " + "1" * 5000 + "\nsignature 1 0\nvertices 1\n", 2, "seed must be an integer"),
        (HEADER + "a 0 1 1  # seed " + "1" * 5000 + "\n", 4, "seed must be an integer"),
        (HEADER + "color 9 1\n", 4, "out of range"),
        (HEADER + "color 1 1\ncolor 1 2\n", 5, "twice"),
        (HEADER + "forest 0 1 0\n", 4, "not an underlying edge"),
        (HEADER + "forest 1 1 0\n", 4, "pair (1, 1) is not an underlying edge"),
        (HEADER + "a 0 1 1\nforest 0 1 0\nforest 1 0 1\n", 6, "twice"),
        (HEADER + "a 0 1 1\nforest 0 1 -1\n", 5, "non-negative"),
        (HEADER + "banana 1\n", 4, "unknown directive"),
        ("", 1, "incomplete"),
        ("mixedgraph 1\nsignature 1 0\n", 3, "incomplete"),
        ("mixedgraph 1\r\nsignature 1 0\r\n", 3, "incomplete"),
        ("mixedgraph 1\rsignature 1 0\r", 3, "incomplete"),
        ("mixedgraph 1\nsignature 1 0", 3, "incomplete"),
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


@given(
    st.sampled_from(SIGNATURES + (ColorSignature(3, 12), ColorSignature(2, 1))),
    st.integers(1, 12),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
    st.none() | st.integers(-(10**6), 10**6),
    st.lists(st.text(max_size=8), max_size=2),
    st.booleans(),
)
def test_dumps_matches_the_relation_scan_writer(sig, order, relations, seed, doc_seed, comments, sidecars):
    """Byte for byte, including in-arcs, several colors, rows whose pairs
    were added out of order, seeds, comments and sidecars."""
    g = seeded_graph(sig, order, min(relations, order * (order - 1) // 2), seed)
    kwargs = dict(seed=doc_seed, comments=comments)
    if sidecars:
        kwargs["coloring"] = {v: v % 3 + 1 for v in range(order) if v % 2}
        kwargs["forests"] = {pair: i % 2 for i, pair in enumerate(g.underlying_edges())}
    assert dumps(g, **kwargs) == relation_scan_dumps(g, **kwargs)


def test_dumps_matches_the_relation_scan_writer_on_a_sampled_target():
    g = sample_complete(ColorSignature(2, 3), 40, 9).graph
    assert dumps(g, seed=9) == relation_scan_dumps(g, seed=9)


# --- the loader against the eager reference loader ---------------------------


def _outcome(loader, text):
    """What a loader makes of ``text``: the parsed document, or the text
    of the FormatError it raises."""
    try:
        doc = loader(text)
    except FormatError as exc:
        return "error", str(exc)
    g = doc.graph
    return (
        "ok",
        g.signature,
        g.order,
        list(g.relations()),
        [list(g.neighbors(v)) for v in range(g.order)],
        doc.coloring,
        doc.forests,
        doc.seed,
    )


def _respell(line, spelling):
    """An ``a``/``e`` line with its color written as ``01`` or ``+1``."""
    word, u, v, c = line.split()
    return f"{word} {u} {v} {spelling}{c}"


# Line ends that str.splitlines() breaks at besides "\n".  The bulk block
# ends at the first of them, so the line loop reads the rest.
_OTHER_LINE_ENDS = ("\r\n", "\r", "\x0c", "\x85", "\u2028")


def _join(draw, lines):
    """``lines`` joined by "\\n"; for one text in five, every break is
    another line end instead, and for one in five, a single break is."""
    breaks = ["\n"] * (len(lines) - 1)
    how = draw(st.integers(0, 4))
    if how == 0 and breaks:
        breaks = [draw(st.sampled_from(_OTHER_LINE_ENDS))] * len(breaks)
    elif how == 1 and breaks:
        breaks[draw(st.integers(0, len(breaks) - 1))] = draw(st.sampled_from(_OTHER_LINE_ENDS))
    return "".join(map(str.__add__, lines, breaks + [""]))


@st.composite
def graph_texts(draw):
    """Valid files: dumps of a graph with sidecars; for two texts in three,
    decorated with blank lines, comments, seed comments and other color
    spellings; then joined by ``_join``.  An undecorated text joined by
    "\\n" keeps all its relation lines in the bulk block, so mutations
    land inside a long block."""
    g = draw(mixed_graphs())
    coloring = draw(st.dictionaries(st.integers(0, g.order - 1), st.integers(-2, 5)))
    forests = {
        pair: draw(st.integers(0, 3)) for pair in g.underlying_edges() if draw(st.booleans())
    }
    seed = draw(st.none() | st.integers(-(10**6), 10**6))
    decorate = draw(st.integers(0, 2)) > 0
    lines = []
    for line in dumps(g, coloring=coloring, forests=forests, seed=seed).splitlines():
        how = "keep"
        if decorate:
            how = draw(st.sampled_from(("keep", "blank", "comment", "seed", "01", "+1")))
        if how == "blank":
            lines.append("   ")
        elif how == "seed":
            lines.append(f"# seed {draw(st.integers(0, 99))}")
        elif how == "comment":
            line += "  # note # more"
        elif how in ("01", "+1") and line[0] in "ae":
            line = _respell(line, "0" if how == "01" else "+")
        lines.append(line)
    return _join(draw, lines) + draw(st.sampled_from(("", "\n", "\n\n")))


@given(graph_texts())
def test_loader_matches_reference_on_valid_files(text):
    outcome = _outcome(loads, text)
    assert outcome[0] == "ok"
    assert outcome == _outcome(reference_loads, text)


@st.composite
def mutated_texts(draw):
    """A valid file with one line dropped, duplicated, swapped with
    another, one token replaced, or a token added, joined again by
    ``_join``.  Half the mutations hit a relation or sidecar line."""
    lines = draw(graph_texts()).splitlines()
    rng = draw(st.randoms(use_true_random=False))
    body = [i for i, line in enumerate(lines) if line[:1] in ("a", "e", "c", "f")]
    i = rng.choice(body) if body and rng.random() < 0.5 else rng.randrange(len(lines))
    how = rng.choice(("drop", "duplicate", "swap", "token", "token", "token", "extra"))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split("#")[0].split() or ["#"]
        if how == "extra":
            tokens.append(rng.choice(("1", "x")))
        else:
            tokens[rng.randrange(len(tokens))] = rng.choice(("x", "-1", "0", "01", "9", "99"))
        lines[i] = " ".join(tokens)
    return _join(draw, lines) + "\n"


@settings(max_examples=300)
@given(mutated_texts())
def test_loader_matches_reference_on_mutated_files(text):
    assert _outcome(loads, text) == _outcome(reference_loads, text)


# --- the bulk relation block --------------------------------------------------


def _dense_lines():
    """A dumped complete (1,1) graph of order 64: 2 016 relation lines,
    both words, after the three header lines."""
    return dumps(sample_complete(ColorSignature(1, 1), 64, 3).graph).splitlines()


def _reversed_pair(line):
    word, u, v, c = line.split()
    return f"{word} {v} {u} {c}"


# Each edit rewrites relation line i of _dense_lines(); the first
# relation line repeats the pair of the line after it, the others the
# pair of the line before.
_BLOCK_EDITS = {
    "reversed-pair": lambda lines, i: _reversed_pair(lines[i + 1 if i == 3 else i - 1]),
    "loop": lambda lines, i: "{0} {1} {1} {3}".format(*lines[i].split()),
    "vertex-equal-to-order": lambda lines, i: "{0} {1} 64 {3}".format(*lines[i].split()),
    "color-above-signature": lambda lines, i: "{0} {1} {2} 2".format(*lines[i].split()),
    "color-01": lambda lines, i: _respell(lines[i], "0"),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("edit", sorted(_BLOCK_EDITS))
def test_bulk_block_errors_match_the_reference(where, edit):
    lines = _dense_lines()
    i = {"first": 3, "middle": 3 + 1008, "last": len(lines) - 1}[where]
    lines[i] = _BLOCK_EDITS[edit](lines, i)
    text = "\n".join(lines) + "\n"
    outcome = _outcome(loads, text)
    assert outcome == _outcome(reference_loads, text)
    if edit == "color-01":
        assert outcome[0] == "ok"
    else:
        # a pair is refused where it repeats, one line late on the first line
        line_no = i + 2 if (where, edit) == ("first", "reversed-pair") else i + 1
        assert outcome[0] == "error"
        assert outcome[1].startswith(f"line {line_no}: ")


@given(
    mixed_graphs(max_order=12, signatures=SIGNATURES + (ColorSignature(3, 12),)),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_dumped_relations_form_one_bulk_block(g, seed, comments, sidecars):
    """Every relation line ``dumps`` writes is in the bulk format, so the
    bulk block holds all of them; a change to ``dumps``'s spacing would
    silently send every file down the line loop."""
    text = dumps(
        g,
        seed=7 if seed else None,
        comments=("a comment",) if comments else (),
        coloring={v: 1 for v in range(g.order)} if sidecars else None,
        forests={pair: 0 for pair in g.underlying_edges()} if sidecars else None,
    )
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("vertices")) + 1
    graph = MixedGraph(g.signature, g.order)
    assert fileio._load_block(text, lines, start, graph) == g.e_count
    assert same_graph(graph, g)


def test_sparse_round_trip_at_order_100000():
    g = sparse_graph(ColorSignature(1, 1), 100_000, Random(5))
    assert same_graph(loads(dumps(g)).graph, g)


@pytest.mark.parametrize("signature,word", [("1000000000 0", "a"), ("0 1000000000", "e")])
def test_huge_signature_makes_only_the_kinds_it_reads(signature, word):
    before = len(core._interned)
    doc = loads(f"mixedgraph 1\nsignature {signature}\nvertices 2\n{word} 0 1 999999937\n")
    assert doc.graph.e_count == 1
    assert doc.graph.validate() is None
    assert len(core._interned) - before <= 2


def test_huge_signature_still_rejects_a_color_above_it():
    text = "mixedgraph 1\nsignature 1000000000 0\nvertices 2\na 0 1 1000000001\n"
    with pytest.raises(
        FormatError,
        match=r"line 4: \+a1000000001 out of range for signature \(1000000000,0\)",
    ):
        loads(text)
