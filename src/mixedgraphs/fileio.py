"""Line-oriented text format for colored mixed graphs.

A graph file looks like::

    mixedgraph 1
    signature 1 0
    vertices 3
    a 0 1 1     # arc 0 -> 1 with arc color 1
    e 1 2 1     # edge {1, 2} with edge color 1

Everything after ``#`` on a line is a comment.  Vertices are 0-indexed.
Optional sidecar lines may follow the relations: ``color v c`` records a
vertex coloring and ``forest u v i`` assigns an underlying edge to
forest i.  A comment of the form ``# seed S`` is recognized and kept, so
sampled targets stay reproducible from their files alone.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .core import ColorSignature, MixedGraph, RelationKind, ARC_IN, ARC_OUT, EDGE

FORMAT_VERSION = 1

_SEED_COMMENT = re.compile(r"#\s*seed\s+(-?\d+)\s*$")
# A run of relation lines exactly as ``dumps`` writes them.  A digit run
# is always followed by a space or a newline, never by a digit, so giving
# nothing back (possessive quantifiers) matches the same text without
# keeping backtrack points, in about a third less time on an order-120
# target.  Python 3.10's ``re`` rejects possessive quantifiers ("multiple
# repeat") and pyproject.toml allows 3.10, so there the plain pattern is
# compiled.
_PLAIN_BULK_BLOCK = r"(?:[ae] [0-9]+ [0-9]+ [0-9]+\n)*"
try:
    _BULK_BLOCK = re.compile(r"(?:[ae] [0-9]++ [0-9]++ [0-9]++\n)*+")
except re.error:
    _BULK_BLOCK = re.compile(_PLAIN_BULK_BLOCK)


class FormatError(ValueError):
    """Malformed graph text; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class GraphDocument:
    """A parsed graph file: the graph plus optional sidecar data."""

    graph: MixedGraph
    coloring: dict[int, int] = field(default_factory=dict)
    forests: dict[tuple[int, int], int] = field(default_factory=dict)
    seed: int | None = None


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(line_no, f"{what} must be an integer, got {token!r}") from None


def _load_block(text: str, lines: list[str], start: int, graph: MixedGraph) -> int:
    """Install the relation lines that open the body at ``lines[start]``
    in bulk, and return how many were installed.

    The block is the longest run of lines in ``dumps``'s exact relation
    format.  It is split into tokens at once; each distinct color token
    is checked against the signature before its kind is made, and colors
    are keyed by their word only when both ``a`` and ``e`` lines occur.
    Vertex tokens are looked up in one dict of the canonical spellings
    ``str(i)`` of the graph's vertices, so a leading zero, a vertex out
    of range or a token too long for ``int`` is no key; an empty block
    returns 0 before that dict is built.  The rest is checked by
    ``MixedGraph.add_relation_block``.  If any check fails, nothing is
    installed and 0 is returned; the line loop then reads the block and
    raises the error with its line number, or reads ``007`` as 7.
    """
    head = "\n".join(lines[:start]) + "\n"
    if not text.startswith(head):
        return 0
    tokens = _BULK_BLOCK.match(text, len(head)).group().split()
    if not tokens:
        return 0
    words, us, vs, colors = tokens[0::4], tokens[1::4], tokens[2::4], tokens[3::4]
    keys: list = colors if len(set(words)) == 1 else list(zip(words, colors))
    kinds: dict = {}
    sig = graph.signature
    try:  # int() refuses a token of more digits than sys.get_int_max_str_digits()
        for key in set(keys):
            word, token = (words[0], key) if keys is colors else key
            c = int(token)
            if not 1 <= c <= (sig.m if word == "a" else sig.n):
                return 0
            kinds[key] = RelationKind(ARC_OUT if word == "a" else EDGE, c)
    except ValueError:
        return 0
    number = {str(i): i for i in range(graph.order)}.__getitem__
    try:
        ends_u, ends_v = list(map(number, us)), list(map(number, vs))
    except KeyError:
        return 0
    rels = list(map(kinds.__getitem__, keys))
    if not graph.add_relation_block(ends_u, ends_v, rels):
        return 0
    return len(rels)


def loads(text: str) -> GraphDocument:
    """Parse graph text, auditing every structural invariant.

    One loop reads the lines in order.  Right after the ``vertices``
    line, the relation lines that follow in ``dumps``'s exact format are
    installed in bulk (``_load_block``) when all of them are valid, and
    the loop skips them; otherwise it reads them itself, so every
    FormatError, with its line number, comes from the loop.  A relation
    line's color is checked against the signature before its kind is
    made, so a signature with 10^9 colors costs no more than one with 1,
    and a color the file gets wrong makes no kind.  Relations go through
    ``MixedGraph.add_relation``, whose errors become FormatErrors naming
    the line.  The finished graph is re-audited by ``MixedGraph.validate``.
    """
    lines = text.splitlines()
    doc: GraphDocument | None = None
    signature: ColorSignature | None = None
    header_seen = False
    seed: int | None = None
    line_no = 0  # lines read so far; the number of the line being read
    while line_no < len(lines):
        raw = lines[line_no]
        line_no += 1
        if "#" in raw:
            seed_match = _SEED_COMMENT.search(raw)
            if seed_match and seed is None:
                seed = _int(seed_match.group(1), line_no, "seed")
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        word = tokens[0]

        if not header_seen:
            if word != "mixedgraph":
                raise FormatError(line_no, f"expected 'mixedgraph {FORMAT_VERSION}' header")
            if len(tokens) != 2 or _int(tokens[1], line_no, "version") != FORMAT_VERSION:
                raise FormatError(line_no, f"unsupported format version {tokens[1:]}")
            header_seen = True
        elif signature is None:
            if word != "signature" or len(tokens) != 3:
                raise FormatError(line_no, "expected 'signature m n' after the header")
            m = _int(tokens[1], line_no, "m")
            n = _int(tokens[2], line_no, "n")
            try:
                signature = ColorSignature(m, n)
            except ValueError as exc:
                raise FormatError(line_no, str(exc)) from None
        elif doc is None:
            if word != "vertices" or len(tokens) != 2:
                raise FormatError(line_no, "expected 'vertices N' after the signature")
            order = _int(tokens[1], line_no, "vertex count")
            if order < 0:
                raise FormatError(line_no, "vertex count must be non-negative")
            graph = MixedGraph(signature, order)
            doc = GraphDocument(graph)
            line_no += _load_block(text, lines, line_no, graph)
        elif word == "a" or word == "e":
            if len(tokens) != 4:
                raise FormatError(line_no, f"expected '{word} u v color'")
            u = _int(tokens[1], line_no, "vertex")
            v = _int(tokens[2], line_no, "vertex")
            c = _int(tokens[3], line_no, "color")
            try:
                if 1 <= c <= (signature.m if word == "a" else signature.n):
                    graph.add_relation(u, v, RelationKind(ARC_OUT if word == "a" else EDGE, c))
                    continue
                # the errors building the kind and adding it would raise, in order
                if c < 1:
                    raise ValueError(f"color must be >= 1, got {c}")
                graph._check_free_pair(u, v)
                prefix = "+a" if word == "a" else "e"
                raise ValueError(f"{prefix}{c} out of range for signature {signature}")
            except ValueError as exc:
                raise FormatError(line_no, str(exc)) from None
        elif word == "color":
            if len(tokens) != 3:
                raise FormatError(line_no, "expected 'color v c'")
            v = _int(tokens[1], line_no, "vertex")
            c = _int(tokens[2], line_no, "color")
            if not 0 <= v < graph.order:
                raise FormatError(line_no, f"vertex {v} out of range")
            if v in doc.coloring:
                raise FormatError(line_no, f"vertex {v} colored twice")
            doc.coloring[v] = c
        elif word == "forest":
            if len(tokens) != 4:
                raise FormatError(line_no, "expected 'forest u v i'")
            u = _int(tokens[1], line_no, "vertex")
            v = _int(tokens[2], line_no, "vertex")
            i = _int(tokens[3], line_no, "forest index")
            if not (0 <= u < graph.order and 0 <= v < graph.order):
                raise FormatError(line_no, f"pair ({u}, {v}) out of range")
            key = (u, v) if u < v else (v, u)
            if u == v or graph.relation_from(u, v) is None:
                raise FormatError(line_no, f"pair ({u}, {v}) is not an underlying edge")
            if key in doc.forests:
                raise FormatError(line_no, f"edge ({u}, {v}) assigned twice")
            if i < 0:
                raise FormatError(line_no, "forest index must be non-negative")
            doc.forests[key] = i
        else:
            raise FormatError(line_no, f"unknown directive {word!r}")

    if doc is None:  # the missing line was due after the last one
        last = len(lines) + 1
        raise FormatError(last, "incomplete file: header, signature and vertices required")
    audit = graph.validate()
    assert audit is None, f"parser produced an invalid graph: {audit}"
    doc.seed = seed
    return doc


def load(path: str | Path) -> GraphDocument:
    return loads(Path(path).read_text())


def dumps(
    graph: MixedGraph,
    *,
    coloring: Mapping[int, int] | None = None,
    forests: Mapping[tuple[int, int], int] | None = None,
    seed: int | None = None,
    comments: Iterable[str] = (),
) -> str:
    """Serialize a graph (plus optional sidecar data) to format text.

    Relations come one line per pair {u, v}, u < v, sorted; an incoming
    arc is written from its tail.  Each adjacency row is fetched once,
    each vertex number is made into text once, and each kind's letter,
    direction and color text are looked up once, on first sight.
    """
    lines = [f"mixedgraph {FORMAT_VERSION}"]
    if seed is not None:
        lines.append(f"# seed {seed}")
    for comment in comments:
        lines.append(f"# {comment}")
    lines.append(f"signature {graph.signature.m} {graph.signature.n}")
    lines.append(f"vertices {graph.order}")
    names = list(map(str, range(graph.order)))
    spelling: dict[RelationKind, tuple[str, bool, str]] = {}
    for u, (name, row) in enumerate(zip(names, graph.rows)):
        later = sorted(row)
        for v in later[bisect_right(later, u):]:
            rel = row[v]
            entry = spelling.get(rel)
            if entry is None:
                letter = "e" if rel.kind == EDGE else "a"
                entry = spelling[rel] = (letter, rel.kind == ARC_IN, str(rel.color))
            letter, swapped, color = entry
            if swapped:
                lines.append(f"a {names[v]} {name} {color}")
            else:
                lines.append(f"{letter} {name} {names[v]} {color}")
    if coloring:
        for v in sorted(coloring):
            lines.append(f"color {v} {coloring[v]}")
    if forests:
        for (u, v) in sorted(forests):
            lines.append(f"forest {u} {v} {forests[(u, v)]}")
    return "\n".join(lines) + "\n"


def dump(
    path: str | Path,
    graph: MixedGraph,
    *,
    coloring: Mapping[int, int] | None = None,
    forests: Mapping[tuple[int, int], int] | None = None,
    seed: int | None = None,
    comments: Iterable[str] = (),
) -> None:
    Path(path).write_text(
        dumps(graph, coloring=coloring, forests=forests, seed=seed, comments=comments)
    )


def loads_mapping(text: str) -> dict[int, int]:
    """Parse a bare vertex map: ``map u x`` lines, comments allowed."""
    mapping: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] != "map" or len(tokens) != 3:
            raise FormatError(line_no, "expected 'map u x'")
        u = _int(tokens[1], line_no, "source vertex")
        x = _int(tokens[2], line_no, "image vertex")
        if u in mapping:
            raise FormatError(line_no, f"vertex {u} mapped twice")
        mapping[u] = x
    return mapping


def dumps_mapping(mapping: Mapping[int, int]) -> str:
    return "".join(f"map {u} {mapping[u]}\n" for u in sorted(mapping))
