"""Seeded inputs for the benchmark.

The bench keeps its own model of a colored mixed graph, its own
generators and its own reader and writer for the graph file format, so
the library's parser is exercised by the operations and the output
checks in ``checks.py`` never depend on library code.

A relation is ``(kind, color)`` seen from the first endpoint, with kind
``"out"`` (arc leaving it), ``"in"`` (arc entering it) or ``"edge"``.

Each workload builder returns a list of ``Op``: one ``cli.run`` argument
vector plus what the checker needs to know about its inputs.  Every
random choice comes from the ``Random`` the caller seeds, so a seed
fixes the whole corpus.  Orders and average degrees follow fixed grids,
so two seeds give corpora of the same shape and differ in structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from random import Random

OUT, IN, EDGE = "out", "in", "edge"
_DUAL = {OUT: IN, IN: OUT, EDGE: EDGE}

# Node budget of the chi searches of exact-chi.
SEARCH_BUDGET = 100_000
# Node budget of the acyclic and pipeline searches of acyclic-decomp.  An
# acyclic search node re-checks two-colored cycles over the whole graph,
# so at 10^5 nodes a rare exhausted search costs 0.6 s and the handful per
# corpus swung the run's time by a third between seeds; at 10^4 the
# searches still run out from order ~30 up, at a tenth of the cost.
DECOMP_BUDGET = 10_000
# Property Q for the complete targets: tuples of up to 2 vertices need
# 7, 5 and 3 common neighbors.  A source of maximum degree 3 and
# degeneracy 2 has at most 2 * (3 - j) blocked images when j neighbors
# are placed, so greedy embedding into such a target cannot get stuck.
Q_TUPLES = 2
Q_MIN = (7, 5, 3)


class Graph:
    """Signature (m, n), order, and adjacency seen from both endpoints."""

    __slots__ = ("sig", "order", "adj")

    def __init__(self, sig: tuple[int, int], order: int):
        self.sig = sig
        self.order = order
        self.adj: list[dict[int, tuple[str, int]]] = [{} for _ in range(order)]

    def add(self, u: int, v: int, rel: tuple[str, int]) -> None:
        if u == v or v in self.adj[u]:
            raise ValueError(f"pair ({u}, {v}) is a loop or already related")
        self.adj[u][v] = rel
        self.adj[v][u] = (_DUAL[rel[0]], rel[1])

    def relations(self):
        for u in range(self.order):
            for v, rel in self.adj[u].items():
                if u < v:
                    yield u, v, rel

    def text(self) -> str:
        lines = [
            "mixedgraph 1",
            f"signature {self.sig[0]} {self.sig[1]}",
            f"vertices {self.order}",
        ]
        for u, v, (kind, color) in self.relations():
            if kind == OUT:
                lines.append(f"a {u} {v} {color}")
            elif kind == IN:
                lines.append(f"a {v} {u} {color}")
            else:
                lines.append(f"e {u} {v} {color}")
        return "\n".join(lines) + "\n"


def parse(text: str) -> Graph:
    """Read the relations of a graph file; sidecar lines are skipped."""
    graph: Graph | None = None
    sig: tuple[int, int] | None = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        word = tokens[0]
        if word == "signature":
            sig = (int(tokens[1]), int(tokens[2]))
        elif word == "vertices":
            assert sig is not None, "vertices before signature"
            graph = Graph(sig, int(tokens[1]))
        elif word in ("a", "e"):
            assert graph is not None, "relation before vertices"
            u, v, c = int(tokens[1]), int(tokens[2]), int(tokens[3])
            graph.add(u, v, (OUT if word == "a" else EDGE, c))
    if graph is None:
        raise ValueError("no vertices line")
    return graph


def kinds(sig: tuple[int, int]) -> list[tuple[str, int]]:
    m, n = sig
    return (
        [(OUT, c) for c in range(1, m + 1)]
        + [(IN, c) for c in range(1, m + 1)]
        + [(EDGE, c) for c in range(1, n + 1)]
    )


def random_mixed(sig, order: int, avg_degree: float, rng: Random) -> Graph:
    """Uniform random pairs, round(avg_degree * order / 2) of them, random kinds."""
    g = Graph(sig, order)
    ks = kinds(sig)
    target = min(round(avg_degree * order / 2), order * (order - 1) // 2)
    made = 0
    while made < target:
        u, v = rng.sample(range(order), 2)
        if v not in g.adj[u]:
            g.add(u, v, ks[rng.randrange(len(ks))])
            made += 1
    return g


def sparse_source(sig, order: int, rng: Random, plant: Graph | None = None) -> Graph:
    """Maximum degree 3, degeneracy at most 2.

    Vertex v joins one or two of the 30 vertices before it that still
    have degree below 3.  With ``plant`` (a target graph), each vertex
    gets a random image first and every relation copies the relation
    between the two images, so a homomorphism into ``plant`` exists.
    """
    g = Graph(sig, order)
    ks = kinds(sig)
    image = [rng.randrange(plant.order) for _ in range(order)] if plant else None
    for v in range(1, order):
        pool = [
            u
            for u in range(max(0, v - 30), v)
            if len(g.adj[u]) < 3 and (image is None or image[u] != image[v])
        ]
        for u in rng.sample(pool, min(rng.choice((1, 2, 2)), len(pool))):
            if plant is not None:
                g.add(u, v, plant.adj[image[u]][image[v]])
            else:
                g.add(u, v, ks[rng.randrange(len(ks))])
    return g


def oriented_path(order: int, rng: Random) -> Graph:
    """A path 0-1-...-(order-1) with each arc's direction drawn at random."""
    g = Graph((1, 0), order)
    for v in range(1, order):
        g.add(v - 1, v, (OUT, 1) if rng.random() < 0.5 else (IN, 1))
    return g


def qr_tournament(q: int) -> Graph:
    """Arc u -> v exactly when v - u is a nonzero square mod the prime q."""
    squares = {x * x % q for x in range(1, q)}
    g = Graph((1, 0), q)
    for u in range(q):
        for v in range(u + 1, q):
            g.add(u, v, (OUT, 1) if (v - u) % q in squares else (IN, 1))
    return g


@dataclass
class Op:
    """One ``cli.run`` call and the facts its output is checked against.

    ``graphs`` holds the bench's own copies of the inputs (``graph``,
    ``source``, ``target``); ``known`` holds exact facts such as
    ``{"chi": 12}`` or ``{"chi_at_least": 5}``; ``file`` names the graph
    file the op writes (search-q) or audits (check-q).
    """

    kind: str
    argv: list[str]
    order: int
    graphs: dict[str, Graph] = field(default_factory=dict)
    known: dict[str, int] = field(default_factory=dict)
    file: str | None = None


def _grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` orders spread evenly over [lo, hi], both ends included."""
    return [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]


def _centered_grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` orders over [lo, hi], both ends included, three times as dense in the middle."""
    xs = [2 * i / max(1, count - 1) - 1 for i in range(count)]
    return [round((lo + hi) / 2 + (hi - lo) / 2 * (0.3 * x + 0.7 * x**3)) for x in xs]


def _degree(i: int) -> float:
    """Average degrees 2.5, 2.75, ..., 3.5 in turn."""
    return 2.5 + (i % 5) / 4


def _sig_args(sig) -> list[str]:
    return ["--sig", str(sig[0]), str(sig[1])]


def _q_args() -> list[str]:
    return ["--tuples", str(Q_TUPLES), "--min", ",".join(map(str, Q_MIN))]


class Workspace:
    """Writes input files under one directory and runs set-up commands."""

    def __init__(self, directory: str, run_cli):
        self.directory = directory
        self.run_cli = run_cli
        os.makedirs(directory, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def write(self, name: str, graph: Graph) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(graph.text())
        return path

    def cli_graph(self, name: str, argv: list[str]) -> tuple[str, Graph]:
        """Run a set-up command that writes ``name`` and read the result."""
        path = self.path(name)
        code = self.run_cli(argv + ["-o", path])
        if code != 0:
            raise RuntimeError(f"set-up command {argv} exited {code}")
        with open(path) as fh:
            return path, parse(fh.read())


def embed_sparse(ws: Workspace, rng: Random, tiny: bool) -> list[Op]:
    """greedy-hom of sparse sources into one searched target per signature."""
    per_sig, lo, hi = (2, 60, 90) if tiny else (24, 400, 600)
    ops = []
    for sig in ((1, 0), (0, 2)):
        tname = f"target-{sig[0]}{sig[1]}.mg"
        tpath, target = ws.cli_graph(
            tname,
            ["search-q", *_sig_args(sig), "--order", "120", *_q_args(),
             "--attempts", "20", "--seed", str(rng.randrange(10**9))],
        )
        for i, order in enumerate(_grid(lo, hi, per_sig)):
            src = sparse_source(sig, order, rng)
            spath = ws.write(f"src-{sig[0]}{sig[1]}-{i}.mg", src)
            ops.append(Op("greedy-hom", ["greedy-hom", spath, tpath, "--format", "records"],
                          order, {"source": src, "target": target}))
    rng.shuffle(ops)
    return ops


def exact_chi(ws: Workspace, rng: Random, tiny: bool) -> list[Op]:
    """chi on random graphs, gadgets and H_3; hom into QR7 and QR11; two huge ops."""
    budget = ["--budget", str(SEARCH_BUDGET), "--format", "records"]
    ops = []
    # About a third of these searches run out of budget, and which ones is
    # down to the graph: it takes this many for that share, and with it
    # bound_gap, to hold steady across seeds.
    per_sig = 2 if tiny else 28
    for sig in ((1, 0), (0, 2), (1, 1)):
        for i, order in enumerate(_grid(14, 40, per_sig)):
            g = random_mixed(sig, order, _degree(i), rng)
            path = ws.write(f"rand-{sig[0]}{sig[1]}-{i}.mg", g)
            ops.append(Op("chi", ["chi", path, *budget], order, {"graph": g}))
    for sig in ((1, 0), (0, 2)):
        for t in (5,) if tiny else (5, 6, 7):
            path, g = ws.cli_graph(f"gadget-{t}-{sig[0]}{sig[1]}.mg",
                                   ["gen", "gadget", str(t), *_sig_args(sig)])
            ops.append(Op("chi", ["chi", path, *budget], g.order, {"graph": g},
                          {"chi_at_least": t}))
        path, g = ws.cli_graph(f"h3-{sig[0]}{sig[1]}.mg", ["gen", "hk", "3", *_sig_args(sig)])
        ops.append(Op("chi", ["chi", path, *budget], g.order, {"graph": g}, {"chi": 12}))
    # hom times grow steadily with the source order, and the median op
    # falls among them, between the quick and the exhausted chi searches.
    # How many chi searches are quick varies by a few from seed to seed;
    # source orders packed around the middle of the range keep the median
    # from moving with that count.
    per_q, lo, hi = (1, 60, 90) if tiny else (36, 200, 800)
    qr = {q: qr_tournament(q) for q in (7, 11)}
    qr_path = {q: ws.write(f"qr{q}.mg", qr[q]) for q in qr}
    for q in qr:
        for i, order in enumerate(_centered_grid(lo, hi, per_q)):
            src = sparse_source((1, 0), order, rng, plant=qr[q])
            spath = ws.write(f"hom-{q}-{i}.mg", src)
            ops.append(Op("hom", ["hom", spath, qr_path[q], "--format", "records"], order,
                          {"source": src, "target": qr[q]}, {"hom_exists": 1}))
    # Two ~1500-vertex paths stay in the corpus: the recursive searches
    # fail on them, and that failure is part of what the bench reports.
    big = oriented_path(1450 + rng.randrange(101), rng)
    path = ws.write("big-chi.mg", big)
    ops.append(Op("chi", ["chi", path, *budget], big.order, {"graph": big}))
    big = oriented_path(1450 + rng.randrange(101), rng)
    path = ws.write("big-hom.mg", big)
    ops.append(Op("hom", ["hom", path, qr_path[7], "--format", "records"], big.order,
                  {"source": big, "target": qr[7]}, {"hom_exists": 1}))
    rng.shuffle(ops)
    return ops


def acyclic_decomp(ws: Workspace, rng: Random, tiny: bool) -> list[Op]:
    """acyclic and acyclic-pipeline on each of a set of sparse graphs, arb on every eighth.

    Whether an acyclic search of order 30-64 runs out of budget is down
    to the graph; it takes a few hundred graphs for that share, and with
    it bound_gap, to hold steady across seeds.  arb exits 3 in a few
    milliseconds above order 20; on every graph, those exits would make
    up a third of the ops and put the median op at the edge of them.
    """
    budget = ["--budget", str(DECOMP_BUDGET), "--format", "records"]
    count = 3 if tiny else 250
    ops = []
    for i, order in enumerate(_grid(16, 24 if tiny else 64, count)):
        sig = ((1, 0), (0, 2), (1, 1))[i % 3]
        g = random_mixed(sig, order, _degree(i), rng)
        path = ws.write(f"sparse-{i}.mg", g)
        ops += [
            Op("acyclic", ["acyclic", path, *budget], order, {"graph": g}),
            Op("acyclic-pipeline", ["acyclic-pipeline", path, *budget], order, {"graph": g}),
        ]
        if i % 8 == 0:
            ops.append(Op("arb", ["arb", path, "--format", "records"], order, {"graph": g}))
    rng.shuffle(ops)
    return ops


def target_q(ws: Workspace, rng: Random, tiny: bool) -> list[Op]:
    """search-q writes a dense target, then check-q re-reads and audits it."""
    count, lo, hi = (2, 40, 50) if tiny else (40, 120, 160)
    # One warm-up search per signature, so the first timed op pays no
    # first-call costs and set-up time rests on library work.
    for sig in ((1, 0), (0, 2)):
        ws.cli_graph(f"warm-{sig[0]}{sig[1]}.mg",
                     ["search-q", *_sig_args(sig), "--order", str(lo), *_q_args(),
                      "--attempts", "20", "--seed", str(rng.randrange(10**9))])
    pairs = []
    for i, order in enumerate(_grid(lo, hi, count)):
        sig = ((1, 0), (0, 2))[i % 2]
        path = ws.path(f"found-{i}.mg")
        search = ["search-q", *_sig_args(sig), "--order", str(order), *_q_args(),
                  "--attempts", "20", "--seed", str(rng.randrange(10**9)), "-o", path]
        pairs.append([
            Op("search-q", search + ["--format", "records"], order,
               known={"m": sig[0], "n": sig[1]}, file=path),
            Op("check-q", ["check-q", path, *_q_args(), "--format", "records"], order,
               file=path),
        ])
    rng.shuffle(pairs)
    return [op for pair in pairs for op in pair]


WORKLOADS = {
    "embed-sparse": embed_sparse,
    "exact-chi": exact_chi,
    "acyclic-decomp": acyclic_decomp,
    "target-q": target_q,
}
