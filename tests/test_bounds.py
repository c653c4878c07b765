import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mixedgraphs import (
    ColorSignature,
    MixedGraph,
    acyclic_upper_from_arb,
    acyclic_upper_from_chi,
    arb_upper_from_chi,
    ceil_log,
    chromatic_number,
    counting_inequality_check,
    degree_bounds,
    lemma_parameters,
    nr_upper,
    planar_upper,
)
from mixedgraphs.bounds import _ceil_log_search
from mixedgraphs.cli import run
from reference import power_search_ceil_log_log
from strategies import directed_cycle

ROOT = Path(__file__).resolve().parent.parent


# --- ceil_log -------------------------------------------------------------------


@given(st.integers(2, 50), st.integers(1, 10**9))
def test_ceil_log_certificates(base, value):
    s = ceil_log(base, value)
    assert base**s >= value
    if s > 0:
        assert base ** (s - 1) < value


def test_ceil_log_spot_values():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 3) == 2
    assert ceil_log(10, 1000) == 3
    assert ceil_log(10, 1001) == 4


def test_ceil_log_input_validation():
    with pytest.raises(ValueError):
        ceil_log(1, 5)
    with pytest.raises(ValueError):
        ceil_log(2, 0)


@given(
    st.integers(2, 2**300),
    st.integers(0, 2**700) | st.integers(0, 600).map(lambda e: 2**e),
    st.integers(-1, 1),
)
def test_ceil_log_search_matches_the_table_and_certificates(base, value, nudge):
    # values on both sides of the cache's top, powers of two and their
    # neighbours included; the search alone, and ceil_log, which answers
    # from the table below the top
    value = max(1, value + nudge)
    s = _ceil_log_search(base, value)
    assert s == ceil_log(base, value)
    assert base**s >= value
    if s > 0:
        assert base ** (s - 1) < value


def test_ceil_log_of_a_huge_value_keeps_the_power_table_bounded():
    # a fresh process, so the table holds only what this call left
    script = (
        "from mixedgraphs import bounds\n"
        "v = 10**20000\n"
        "assert bounds.ceil_log(2, v) == (v - 1).bit_length()\n"
        "table = bounds._POWER_TABLES[2]\n"
        "assert len(table) <= bounds._TABLE_TOP.bit_length(), len(table)\n"
        "assert table[-2] < bounds._TABLE_TOP <= table[-1]\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


# --- closed forms ------------------------------------------------------------------


def test_chromatic_upper_forms():
    assert nr_upper(5, 2) == 80
    assert nr_upper(3, 2) == 12
    assert nr_upper(1, 7) == 1
    assert planar_upper(2) == 80
    assert planar_upper(1) == 5
    with pytest.raises(ValueError):
        nr_upper(0, 2)
    with pytest.raises(ValueError):
        planar_upper(0)


def test_arb_upper_matches_the_real_valued_formula():
    for p in (2, 3, 5):
        for k in range(1, 400):
            expected = math.ceil(math.log(k, p) + k / 2 - 1e-12)
            assert arb_upper_from_chi(k, p) == expected, (k, p)


def test_acyclic_upper_from_arb_spot_values():
    assert acyclic_upper_from_arb(3, 1, 2) == 3
    assert acyclic_upper_from_arb(3, 2, 2) == 9
    assert acyclic_upper_from_arb(5, 4, 2) == 125
    assert acyclic_upper_from_arb(4, 5, 2) == 4**4


def test_acyclic_upper_from_chi_spot_values():
    assert acyclic_upper_from_chi(4, 2) == 16 + 4**3
    assert acyclic_upper_from_chi(16, 2) == 256 + 16**4
    assert acyclic_upper_from_chi(5, 2) == 25 + 5**4
    with pytest.raises(ValueError):
        acyclic_upper_from_chi(3, 2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: nr_upper(2, 0), "k and p must be >= 1"),
        (lambda: arb_upper_from_chi(0, 2), "k must be >= 1, got 0"),
        (lambda: arb_upper_from_chi(3, 1), "p must be >= 2, got 1"),
        (lambda: acyclic_upper_from_arb(3, 0, 2), "k and r must be >= 1"),
        (lambda: acyclic_upper_from_arb(0, 2, 2), "k and r must be >= 1"),
        (lambda: acyclic_upper_from_arb(3, 2, 1), "p must be >= 2, got 1"),
        (lambda: acyclic_upper_from_chi(4, 1), "p must be >= 2, got 1"),
        (lambda: degree_bounds(5, 1), "p must be >= 2, got 1"),
        (lambda: counting_inequality_check(directed_cycle(3), 0), "k must be >= 1, got 0"),
    ],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_acyclic_upper_outer_log_variants():
    # base p = 3: log_3 log_3 27 = 1, so exponent 2 + 1
    assert acyclic_upper_from_chi(27, 3) == 27**2 + 27**3
    # 4 <= p: log_p 4 lies in (1/p, 1], so the ceiling is 0 and the exponent 2
    assert acyclic_upper_from_chi(4, 1_000_000_000) == 4**2 + 4**2


def test_acyclic_upper_chi_has_no_outer_log2_flag(capsys):
    assert run(["bounds", "acyclic-upper-chi", "100", "3", "--outer-log2"]) == 2
    assert "unrecognized arguments: --outer-log2" in capsys.readouterr().err


def test_ceil_log_log_matches_the_power_search():
    # the exponent's ceiling in acyclic_upper_from_chi, both logarithms base p
    mismatches = [
        (k, p)
        for k in range(2, 300)
        for p in range(2, 300)
        if ceil_log(p, ceil_log(p, k)) != power_search_ceil_log_log(k, p, p)
    ]
    assert mismatches == []


def test_degree_bounds_shape():
    report = degree_bounds(5, 2)
    assert report.lower == 6  # ceil(sqrt(2^5))
    assert not report.lower_exact
    assert report.lower * report.lower >= 2**5
    assert report.upper == 514
    assert report.upper is not None

    small = degree_bounds(4, 2)
    assert small.lower == 4  # sqrt(16), exact
    assert small.lower_exact
    assert small.upper is None

    with pytest.raises(ValueError):
        degree_bounds(0, 2)


@given(st.integers(1, 12), st.integers(2, 5))
def test_degree_lower_bound_certificate(delta, p):
    report = degree_bounds(delta, p)
    assert report.lower**2 >= p**delta
    assert (report.lower - 1) ** 2 < p**delta


def test_degree_upper_matches_the_sparse_recipe():
    # 2(d-1)^p p^(d-1) + 2 at d = 5, p = 2: the lemma's target order plus
    # the two vertices extend_regular adds for a d-regular source
    assert degree_bounds(5, 2).upper == 2 * 4**2 * 2**4 + 2 == 514
    assert degree_bounds(6, 3).upper == 2 * 5**3 * 3**5 + 2
    for sig, delta in ((ColorSignature(1, 0), 5), (ColorSignature(0, 3), 6)):
        assert degree_bounds(delta, sig.p).upper == lemma_parameters(sig, delta)[0] + 2


# --- counting inequality ---------------------------------------------------------------


def _underlying_graphs(max_order, max_edges):
    """Every graph on at most ``max_order`` vertices with 1..max_edges
    edges and no isolated vertex, once per isomorphism class, as
    (order, sorted edge tuple)."""
    seen = set()
    for n in range(2, max_order + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        for e in range(1, max_edges + 1):
            for edges in itertools.combinations(pairs, e):
                if len({v for pair in edges for v in pair}) < n:
                    continue
                key = min(
                    tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
                    for p in perms
                )
                if (n, key) not in seen:
                    seen.add((n, key))
                    yield n, key


def _colorings(signature, order, edges):
    """All p**len(edges) colorings of one underlying graph."""
    for choice in itertools.product(signature.kinds(), repeat=len(edges)):
        g = MixedGraph(signature, order)
        for (u, v), rel in zip(edges, choice):
            g.add_relation(u, v, rel)
        yield g


@pytest.mark.parametrize("m,n", [(1, 0), (0, 2), (1, 1), (0, 3)])
def test_counting_inequality_bounds_the_colorings_with_small_chi(m, n):
    """Of the p**e colorings of an underlying graph, at most
    p**C(k,2) * k**order have chi <= k (chi by exact search); so a failed
    check leaves some coloring with chi > k."""
    signature = ColorSignature(m, n)
    for order, edges in _underlying_graphs(5, 6):
        chis = [chromatic_number(g).k for g in _colorings(signature, order, edges)]
        for k in range(1, order + 1):
            some = next(_colorings(signature, order, edges))
            report = counting_inequality_check(some, k)
            assert report.compared == len(chis)
            assert sum(chi <= k for chi in chis) <= report.value
            if not report.satisfied:
                assert max(chis) > k


def _star(signature):
    """Vertex 0 with six out-arcs of color 1."""
    g = MixedGraph(signature, 7)
    for v in range(1, 7):
        g.add_arc(0, v, 1)
    return g


def test_counting_failure_is_not_about_the_given_coloring():
    signature = ColorSignature(1, 1)
    star = _star(signature)
    report = counting_inequality_check(star, 2)
    assert not report.satisfied
    assert chromatic_number(star).k == 2
    edges = tuple((0, v) for v in range(1, 7))
    assert max(chromatic_number(g).k for g in _colorings(signature, 7, edges)) > 2


def test_counting_report_fields():
    g = directed_cycle(5)
    report = counting_inequality_check(g, 2)
    assert report.value == 2 ** math.comb(2, 2) * 2**5
    assert report.compared == 2**5
    assert report.satisfied == (report.value >= report.compared)
    assert "k=2" in report.detail
