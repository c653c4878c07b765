"""The acceptance suite: every headline claim checked at desk scale.

Each criterion pits library output against an independently coded
oracle (exhaustive enumeration, brute-force search, or integer power
comparisons), or certifies a construction from both sides.  The
functions here are shared by the test suite and the ``verify-paper``
CLI subcommand, and every criterion reports one line: its number, a
slug, PASS or FAIL, and the measured runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from random import Random
from typing import Callable

from .bounds import (
    acyclic_upper_from_arb,
    acyclic_upper_from_chi,
    arb_upper_from_chi,
    ceil_log,
    degree_bounds,
    nr_upper,
    planar_upper,
)
from .constructions import build_hk, build_special_gadget, hk_acyclic_coloring
from .core import ColorSignature, MixedGraph, RelationKind, is_special_2path
from .decomposition import (
    acyclic_chromatic_number,
    acyclic_from_homomorphisms,
    check_acyclic_coloring,
    nash_williams_density,
)
from .solver import check_homomorphism, chromatic_number, special_clique
from .targets import (
    PropertySpec,
    PropertyViolatedError,
    extend_regular,
    greedy_homomorphism,
    paley_tournament,
    search_q_target,
)

# frozen so the stochastic criterion is reproducible: with this base seed the
# order-7 search hits a regular tournament at attempt 13
Q_SEARCH_SEED = 16


@dataclass(frozen=True)
class CriterionOutcome:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float
    limit: float | None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        timing = f"{self.seconds:.2f}s"
        if self.limit is not None:
            timing += f" (limit {self.limit:.0f}s)"
        return f"criterion {self.number} {self.name}: {verdict} [{timing}] {self.details}"


# ---------------------------------------------------------------------------
# criterion 1: special 2-path classifier vs brute-force homomorphism oracle


def _oracle_endpoints_identifiable(
    signature: ColorSignature, r1: RelationKind, r2: RelationKind
) -> bool:
    """Brute force: can some homomorphism merge the endpoints of the 2-path?

    The image of {u, v, w} with u, w merged has at most two vertices, so
    enumerating every target on one or two vertices (with every possible
    pair relation, or none) and every map with f(u) == f(w) decides it.
    Relation preservation is checked inline, not via the library.
    """
    # (a, b, kind seen from a); r1 and r2 are seen from the middle vertex 1
    path = ((0, 1, r1.dual()), (1, 2, r2))

    def valid(target: MixedGraph, f: tuple[int, int, int]) -> bool:
        for a, b, rel in path:
            x, y = f[a], f[b]
            if x == y:
                return False
            if target.relation_from(x, y) != rel:
                return False
        return True

    targets = [MixedGraph(signature, 1)]
    blank = MixedGraph(signature, 2)
    targets.append(blank)
    for rel in signature.kinds():
        t = MixedGraph(signature, 2)
        t.add_relation(0, 1, rel)
        targets.append(t)
    for target in targets:
        n = target.order
        for f in product(range(n), repeat=3):
            if f[0] == f[2] and valid(target, f):
                return True
    return False


def criterion_1() -> tuple[bool, str]:
    checked = 0
    for m, n in ((1, 0), (0, 2), (1, 1), (2, 0)):
        sig = ColorSignature(m, n)
        for r1, r2 in product(sig.kinds(), repeat=2):
            g = MixedGraph(sig, 3)
            g.add_relation(1, 0, r1)
            g.add_relation(1, 2, r2)
            verdict = is_special_2path(g, 0, 1, 2)
            oracle = not _oracle_endpoints_identifiable(sig, r1, r2)
            if verdict != oracle:
                return False, (
                    f"disagreement at signature ({m},{n}), kinds {r1}/{r2}: "
                    f"classifier {verdict}, oracle {oracle}"
                )
            checked += 1
    return True, f"{checked} labelings agree with the brute-force oracle"


# ---------------------------------------------------------------------------
# criterion 2: chromatic sanity against exhaustive partition enumeration


def _oracle_partition_valid(graph: MixedGraph, assign: list[int]) -> bool:
    joined: dict[tuple[int, int], RelationKind] = {}
    for u, v, rel in graph.relations():
        a, b = assign[u], assign[v]
        if a == b:
            return False
        if joined.setdefault((a, b), rel) != rel:
            return False
        if joined.setdefault((b, a), rel.dual()) != rel.dual():
            return False
    return True


def _oracle_chromatic(graph: MixedGraph) -> int:
    """Minimum blocks over ALL set partitions; only sane for order <= 6."""
    n = graph.order
    if n == 0:
        return 0
    best = n
    assign = [0] * n

    def rec(i: int, top: int) -> None:
        nonlocal best
        if i == n:
            if top + 1 < best and _oracle_partition_valid(graph, assign):
                best = top + 1
            return
        for b in range(top + 2):
            assign[i] = b
            rec(i + 1, max(top, b))

    rec(0, -1)
    return best


def criterion_2() -> tuple[bool, str]:
    cases: list[tuple[str, MixedGraph, int]] = []
    for n in range(1, 6):
        g = MixedGraph(ColorSignature(0, 1), n)
        for u in range(n):
            for v in range(u + 1, n):
                g.add_edge(u, v)
        cases.append((f"K_{n} at (0,1)", g, n))
    sig = ColorSignature(1, 0)
    p3 = MixedGraph(sig, 3)
    p3.add_arc(0, 1)
    p3.add_arc(1, 2)
    cases.append(("directed 2-path", p3, 3))
    c5 = MixedGraph(sig, 5)
    for i in range(5):
        c5.add_arc(i, (i + 1) % 5)
    cases.append(("directed C_5", c5, 5))
    for name, g, expected in cases:
        solved = chromatic_number(g)
        if not solved.exact:
            return False, f"{name}: solver did not finish"
        oracle = _oracle_chromatic(g)
        if not solved.k == oracle == expected:
            return False, (
                f"{name}: solver {solved.k}, oracle {oracle}, expected {expected}"
            )
    return True, f"{len(cases)} chromatic numbers match the partition oracle"


# ---------------------------------------------------------------------------
# criterion 3: the tightness instance certified from both sides


def criterion_3() -> tuple[bool, str]:
    sig = ColorSignature(1, 0)
    h = build_hk(sig, 3)
    if h.graph.order != 66:
        return False, f"order {h.graph.order} != 66"
    audit = h.graph.validate()
    if audit is not None:
        return False, f"construction invalid: {audit}"
    clique = special_clique(h.graph)
    bound = nr_upper(3, 2)
    if bound != 12:
        return False, f"nr_upper(3,2) = {bound} != 12"
    if len(clique) < 12:
        return False, f"special clique has {len(clique)} < 12 vertices"
    coloring = hk_acyclic_coloring(h)
    palette = set(coloring.values())
    if len(palette) != 3:
        return False, f"acyclic coloring uses {len(palette)} colors, wanted 3"
    failure = check_acyclic_coloring(h.graph, coloring)
    if failure is not None:
        return False, f"coloring rejected: {failure}"
    # the exact searches must reach the same numbers on their own
    result = chromatic_number(h.graph)
    if not result.exact or result.k != 12:
        return False, f"exact search gives bounds [{result.lower}, {result.upper}], not 12"
    acyclic = acyclic_chromatic_number(h.graph)
    if not acyclic.exact or acyclic.k != len(palette):
        return False, (
            f"acyclic search gives bounds [{acyclic.lower}, {acyclic.upper}], "
            f"not {len(palette)}"
        )
    return True, (
        "order 66; chromatic number certified 12 from both sides "
        "(clique 12, acyclic 3-coloring gives 3*2^2 = 12); "
        f"the exact search agrees in {result.nodes} nodes, "
        f"the acyclic search finds 3 in {acyclic.nodes} nodes"
    )


# ---------------------------------------------------------------------------
# criterion 4: exact arboricity vs forest-partition backtracking oracle


def _oracle_forest_partition_min(graph: MixedGraph) -> int:
    """Least r such that the edges split into r forests, by backtracking."""
    edges = graph.underlying_edges()
    n = graph.order
    e = len(edges)
    if e == 0:
        return 0

    def feasible(r: int) -> bool:
        if r * (n - 1) < e:
            return False
        parents = [list(range(n)) for _ in range(r)]

        def find(p: list[int], x: int) -> int:
            while p[x] != x:
                x = p[x]
            return x

        def rec(i: int, used: int) -> bool:
            if i == e:
                return True
            u, v = edges[i]
            for f in range(min(used + 1, r)):
                p = parents[f]
                ru, rv = find(p, u), find(p, v)
                if ru == rv:
                    continue
                p[ru] = rv
                if rec(i + 1, max(used, f + 1)):
                    return True
                p[ru] = ru
            return False

        return rec(0, 0)

    r = max(1, -(-e // (n - 1)))
    while not feasible(r):
        r += 1
    return r


def _arboricity_corpus() -> list[MixedGraph]:
    rng = Random(4750)
    sig = ColorSignature(0, 1)
    corpus: list[MixedGraph] = []
    while len(corpus) < 100:
        n = rng.randrange(2, 9)
        prob = rng.choice((0.2, 0.35, 0.5, 0.7, 0.9))
        g = MixedGraph(sig, n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < prob:
                    g.add_edge(u, v)
        corpus.append(g)
    return corpus


def criterion_4() -> tuple[bool, str]:
    for index, g in enumerate(_arboricity_corpus()):
        exact, _ = nash_williams_density(g)
        oracle = _oracle_forest_partition_min(g)
        if exact != oracle:
            return False, (
                f"corpus graph {index} (order {g.order}, {g.e_count} edges): "
                f"density max {exact}, forest-partition minimum {oracle}"
            )
    gadget = build_special_gadget(ColorSignature(1, 0), 5)
    arb, _ = nash_williams_density(gadget)
    if arb != 2:
        return False, f"subdivided K_5 gadget has arboricity {arb}, wanted 2"
    if _oracle_forest_partition_min(gadget) != 2:
        return False, "oracle disagrees on the subdivided K_5 gadget"
    return True, "100 corpus graphs plus the K_5 gadget match the oracle"


# ---------------------------------------------------------------------------
# criteria 5 and 6: the relabeling pipeline and the bound audit


@lru_cache(maxsize=1)
def _pipeline_corpus() -> tuple[MixedGraph, ...]:
    rng = Random(90125)
    sig = ColorSignature(1, 0)
    corpus: list[MixedGraph] = []
    while len(corpus) < 50:
        n = rng.randrange(2, 9)
        prob = rng.choice((0.25, 0.45, 0.65, 0.85))
        g = MixedGraph(sig, n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < prob:
                    if rng.random() < 0.5:
                        g.add_arc(u, v)
                    else:
                        g.add_arc(v, u)
        corpus.append(g)
    return tuple(corpus)


def criterion_5() -> tuple[bool, str]:
    for index, g in enumerate(_pipeline_corpus()):
        result = acyclic_from_homomorphisms(g)
        failure = check_acyclic_coloring(g, result.colors)
        if failure is not None:
            return False, f"corpus graph {index}: coloring rejected: {failure}"
        for i, layer in enumerate(result.layers):
            if not layer.exact:
                return False, (
                    f"corpus graph {index}: layer {i} search ran out of budget "
                    f"with bounds [{layer.lower}, {layer.upper}]"
                )
        arb, _ = nash_williams_density(g)
        if result.forest_count != arb:
            return False, (
                f"corpus graph {index}: pipeline used {result.forest_count} "
                f"forests, arboricity {arb}"
            )
        k = max(layer.k for layer in result.layers)
        r = max(arb, 1)
        allowed = k ** ((r - 1).bit_length() + 1)
        if result.palette > allowed:
            return False, (
                f"corpus graph {index}: palette {result.palette} exceeds "
                f"{k}^(ceil(log2 {r}) + 1) = {allowed}"
            )
    return True, "50 pipeline colorings on optimal decompositions within the palette bound"


def criterion_6() -> tuple[bool, str]:
    checked = 0
    for index, g in enumerate(_pipeline_corpus()):
        chi = chromatic_number(g).k
        arb, _ = nash_williams_density(g)
        chi_a = acyclic_chromatic_number(g).k
        arb_cap = arb_upper_from_chi(chi, 2)
        if arb > arb_cap:
            return False, (
                f"corpus graph {index}: arboricity {arb} exceeds "
                f"ceil(log2 {chi} + {chi}/2) = {arb_cap}"
            )
        k = max(chi, 4)
        acyclic_cap = acyclic_upper_from_chi(k, 2)
        if chi_a > acyclic_cap:
            return False, (
                f"corpus graph {index}: acyclic number {chi_a} exceeds "
                f"bound {acyclic_cap} at k = {k}"
            )
        checked += 2
    h3 = build_hk(ColorSignature(1, 0), 3).graph
    chi = chromatic_number(h3).k
    arb, _ = nash_williams_density(h3)
    if arb > arb_upper_from_chi(chi, 2):
        return False, (
            f"H_3 at (1,0): arboricity {arb} exceeds "
            f"ceil(log2 {chi} + {chi}/2) = {arb_upper_from_chi(chi, 2)}"
        )
    checked += 1
    return True, f"{checked} bound instances hold on the pipeline corpus and H_3"


# ---------------------------------------------------------------------------
# criterion 7: property search plus greedy embedding, no silent failures


def _sparse_test_graph(rng: Random, order: int) -> MixedGraph:
    """Random connected graph with max degree 3 and degeneracy <= 2.

    A random tree attached at vertices of degree < 3, plus up to two
    extra edges, keeps every subgraph at most n+1 edges, hence
    degeneracy <= 2.
    """
    sig = ColorSignature(1, 0)
    g = MixedGraph(sig, order)
    degrees = [0] * order

    def orient(u: int, v: int) -> None:
        if rng.random() < 0.5:
            g.add_arc(u, v)
        else:
            g.add_arc(v, u)
        degrees[u] += 1
        degrees[v] += 1

    for v in range(1, order):
        parent = rng.choice([u for u in range(v) if degrees[u] < 3])
        orient(parent, v)
    extras = rng.randrange(0, 3)
    for _ in range(extras):
        open_pairs = [
            (u, v)
            for u in range(order)
            for v in range(u + 1, order)
            if degrees[u] < 3 and degrees[v] < 3 and g.relation_from(u, v) is None
        ]
        if not open_pairs:
            break
        orient(*rng.choice(open_pairs))
    return g


def criterion_7() -> tuple[bool, str]:
    sig = ColorSignature(1, 0)
    spec = PropertySpec(1, (1, 3))
    target = search_q_target(sig, 7, spec, attempts=100, seed=Q_SEARCH_SEED)
    if target is None:
        return False, "no order-7 target with the adjacency property in 100 attempts"
    rng = Random(777)
    embedded = 0
    violations = 0
    for _ in range(20):
        g = _sparse_test_graph(rng, rng.randrange(4, 13))
        try:
            embedding = greedy_homomorphism(g, target)
        except PropertyViolatedError as exc:
            if not exc.kinds or len(exc.images) != len(exc.kinds):
                return False, "violation report does not pinpoint the failing query"
            violations += 1
            continue
        audit = check_homomorphism(g, target.graph, embedding.homomorphism.mapping)
        if audit is not None:
            return False, f"greedy produced a bad homomorphism: {audit}"
        embedded += 1
    return True, (
        f"target found (seed {target.seed}); {embedded} embeddings verified, "
        f"{violations} pinpointed violations, no silent failures"
    )


# ---------------------------------------------------------------------------
# criterion 8: the two-vertex extension on regular graphs


def criterion_8() -> tuple[bool, str]:
    sig = ColorSignature(1, 0)
    c5 = MixedGraph(sig, 5)
    for i in range(5):
        c5.add_arc(i, (i + 1) % 5)
    k4 = MixedGraph(sig, 4)
    for u in range(4):
        for v in range(u + 1, 4):
            k4.add_arc(u, v)
    cases = (
        ("directed C_5", c5, paley_tournament(7)),
        ("K_4 tournament", k4, paley_tournament(11)),
    )
    reports = []
    for name, g, target in cases:
        extended, hom = extend_regular(g, target)
        if extended.order != target.order + 2:
            return False, (
                f"{name}: extended order {extended.order}, "
                f"wanted {target.order + 2}"
            )
        audit = check_homomorphism(g, extended.graph, hom.mapping)
        if audit is not None:
            return False, f"{name}: extension homomorphism rejected: {audit}"
        reports.append(f"{name} into order {extended.order}")
    return True, "; ".join(reports)


# ---------------------------------------------------------------------------
# criterion 9: closed forms against an integer power-comparison oracle


def criterion_9() -> tuple[bool, str]:
    if nr_upper(5, 2) != 80:
        return False, f"nr_upper(5,2) = {nr_upper(5, 2)} != 80"
    if planar_upper(2) != 80:
        return False, f"planar_upper(2) = {planar_upper(2)} != 80"
    db = degree_bounds(5, 2)
    if db.upper != 514:
        return False, f"degree_bounds(5,2).upper = {db.upper} != 514"

    top = 10**6
    for p in (2, 3, 4, 5):
        powers = [1]
        while powers[-1] < top * top:
            powers.append(powers[-1] * p)
        powers.append(powers[-1] * p)
        powers.append(powers[-1] * p)
        loglog_caps = []  # loglog_caps[e] = p ** (p ** e)
        while len(loglog_caps) < 2 or loglog_caps[-1] < top:
            loglog_caps.append(p ** (p ** len(loglog_caps)))
        s = 0  # running ceil_log(p, k)
        e = 0  # running ceil(log_p log_p k), valid from k = 2
        for k in range(1, top + 1):
            while powers[s] < k:
                s += 1
            if ceil_log(p, k) != s:
                return False, f"ceil_log({p}, {k}) != oracle {s}"
            kk = k * k
            m = arb_upper_from_chi(k, p)
            hi = 2 * m - k
            lo = hi - 2
            if not (0 <= hi < len(powers) and powers[hi] >= kk):
                return False, f"arb_upper_from_chi({k}, {p}) = {m} is too small"
            low_ok = powers[lo] < kk if lo >= 0 else True
            if not low_ok:
                return False, f"arb_upper_from_chi({k}, {p}) = {m} is not tight"
            if k >= 4:
                while loglog_caps[e] < k:
                    e += 1
                expect = kk + k ** (2 + e)
                got = acyclic_upper_from_chi(k, p)
                if got != expect:
                    return False, (
                        f"acyclic_upper_from_chi({k}, {p}) = {got}, oracle {expect}"
                    )
    for p in (2, 3, 4, 5):
        for r in range(1, 1001):
            s = 0
            while p**s < r:
                s += 1
            if acyclic_upper_from_arb(7, r, p) != 7 ** (s + 1):
                return False, f"acyclic_upper_from_arb(7, {r}, {p}) off oracle"
        for delta in range(1, 41):
            db = degree_bounds(delta, p)
            if db.lower * db.lower < p**delta:
                return False, f"degree_bounds({delta}, {p}).lower too small"
            if (db.lower - 1) ** 2 >= p**delta:
                return False, f"degree_bounds({delta}, {p}).lower not a ceiling"
    return True, "spot values and 4M ceiling certificates all hold"


# ---------------------------------------------------------------------------

# number -> (slug, runtime limit in seconds or None, runner)
_CRITERIA: dict[int, tuple[str, float | None, Callable[[], tuple[bool, str]]]] = {
    1: ("special-2path-oracle", 1.0, criterion_1),
    2: ("chi-sanity", 10.0, criterion_2),
    3: ("tightness-instance", 5.0, criterion_3),
    4: ("nash-williams", 30.0, criterion_4),
    5: ("relabeling-pipeline", 60.0, criterion_5),
    6: ("bound-audit", None, criterion_6),
    7: ("property-q-greedy", 30.0, criterion_7),
    8: ("regular-extension", 10.0, criterion_8),
    9: ("closed-forms", None, criterion_9),
}


def run_criterion(number: int) -> CriterionOutcome:
    if number not in _CRITERIA:
        raise ValueError(f"no criterion {number}; choose from 1..9")
    name, limit, runner = _CRITERIA[number]
    start = time.perf_counter()
    passed, details = runner()
    seconds = time.perf_counter() - start
    if passed and limit is not None and seconds >= limit:
        passed = False
        details = f"checks passed but runtime {seconds:.2f}s missed the {limit:.0f}s limit"
    return CriterionOutcome(number, name, passed, details, seconds, limit)


def run_all(numbers: tuple[int, ...] | None = None) -> list[CriterionOutcome]:
    chosen = numbers if numbers is not None else criterion_numbers()
    return [run_criterion(n) for n in chosen]


def criterion_numbers() -> tuple[int, ...]:
    return tuple(sorted(_CRITERIA))
