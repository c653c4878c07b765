import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from mixedgraphs import (
    ColorSignature,
    CompleteMixedTarget,
    MixedGraph,
    PropertySpec,
    PropertyViolatedError,
    QViolation,
    arc_in,
    arc_out,
    check_homomorphism,
    check_property_q,
    edge,
    extend_regular,
    find_homomorphism,
    greedy_homomorphism,
    lemma_parameters,
    paley_tournament,
    sample_complete,
    search_q_target,
)
from reference import ordered_check_property_q, pairwise_sample_complete, quadratic_greedy
from strategies import (
    directed_cycle,
    directed_path,
    same_graph,
    sparse_graph,
    sparse_graphs,
    transitive_tournament,
)

SIG = ColorSignature(1, 0)


# --- complete targets ----------------------------------------------------------


def test_sample_complete_is_deterministic_and_complete():
    a = sample_complete(SIG, 6, 42)
    b = sample_complete(SIG, 6, 42)
    c = sample_complete(SIG, 6, 43)
    assert same_graph(a.graph, b.graph)
    assert not same_graph(a.graph, c.graph)
    assert a.seed == 42
    assert a.graph.e_count == 15


def test_kind_rows_index_every_relation():
    target = sample_complete(ColorSignature(1, 1), 9, 5)
    g = target.graph
    kinds = g.signature.kinds()
    assert all(target.kind_row(v) is target.kind_row(v) for v in range(g.order))
    for v in range(g.order):
        for kind in kinds:
            expected = {w for w in range(g.order) if w != v and g.relation_from(v, w) == kind}
            row = target.kind_row(v).get(kind, 0)
            assert {w for w in range(g.order) if row >> w & 1} == expected
            assert (kind in target.kind_row(v)) == bool(expected)


def test_complete_target_rejects_missing_pairs():
    g = MixedGraph(SIG, 3)
    g.add_arc(0, 1, 1)
    with pytest.raises(ValueError):
        CompleteMixedTarget(g)
    g.add_arc(1, 2, 1)
    g.add_arc(0, 2, 1)
    assert CompleteMixedTarget(g).order == 3


# --- the sparse-graph parameter recipe -------------------------------------------


def test_lemma_parameters_at_the_stated_scale():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, spec = lemma_parameters(SIG, 5)
    assert c == 2 * 4**2 * 2**4 == 512
    assert spec.t == 4
    assert spec.minimums == (16, 13, 10, 7, 4)


def test_lemma_parameters_other_signature():
    c, spec = lemma_parameters(ColorSignature(1, 1), 5)
    assert c == 2 * 4**3 * 3**4
    assert spec.minimums == (16, 13, 10, 7, 4)


def test_lemma_parameters_warn_below_theorem_scale():
    with pytest.warns(UserWarning):
        lemma_parameters(SIG, 3)
    with pytest.raises(ValueError):
        lemma_parameters(SIG, 1)


# --- adjacency property Q --------------------------------------------------------


def test_paley_7_satisfies_the_order_7_property():
    target = paley_tournament(7)
    assert check_property_q(target, PropertySpec(1, (1, 3))) is None


def test_paley_11_satisfies_pairs():
    target = paley_tournament(11)
    assert check_property_q(target, PropertySpec(2, (1, 4, 1))) is None


def test_first_violation_is_reported_in_scan_order():
    target = CompleteMixedTarget(transitive_tournament(4))
    violation = check_property_q(target, PropertySpec(1, (1, 1)))
    assert violation is not None
    assert violation.vertices == (0,)
    assert violation.kinds == (arc_in(1),)
    assert violation.count == 0
    assert violation.required == 1
    assert "0" in str(violation)


def test_zero_tuple_minimum_checks_the_order():
    target = CompleteMixedTarget(transitive_tournament(3))
    violation = check_property_q(target, PropertySpec(0, (4,)))
    assert violation is not None
    assert violation.vertices == ()


def test_property_question_must_fit_the_order():
    target = CompleteMixedTarget(transitive_tournament(3))
    with pytest.raises(ValueError):
        check_property_q(target, PropertySpec(3, (1, 1, 1, 1)))


Q_SIGNATURES = tuple(
    ColorSignature(m, n) for m, n in ((1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (0, 3))
)


def _q_case(sig, order, t, seed, offsets):
    """A sampled target and a property whose minimums sit near the mean
    common-neighborhood size (order - j) / p**j, shifted by ``offsets``.
    The tuple length is lowered until the ordered audit's deepest level
    has at most 10**5 nodes, unless it already reaches the order."""
    while 0 < t < order and math.perm(order, t) * sig.p**t > 10**5:
        t -= 1
    minimums = tuple(
        max(0, max(0, order - j) // sig.p**j + offsets[j]) for j in range(t + 1)
    )
    return sample_complete(sig, order, seed), PropertySpec(t, minimums)


def _q_outcome(audit, target, spec):
    try:
        return audit(target, spec)
    except ValueError as exc:
        return str(exc)


def _assert_q_matches_ordered_audit(target, spec):
    """The increasing-tuple audit reports what the ordered one reports:
    the same QViolation, None, or the same error text, which it returns."""
    fast = _q_outcome(check_property_q, target, spec)
    assert fast == _q_outcome(ordered_check_property_q, target, spec)
    if isinstance(fast, QViolation):
        assert all(a < b for a, b in zip(fast.vertices, fast.vertices[1:]))
    return fast


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(Q_SIGNATURES),
    st.integers(1, 14),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-2, 1), min_size=5, max_size=5),
)
def test_property_q_matches_ordered_audit(sig, order, t, seed, offsets):
    _assert_q_matches_ordered_audit(*_q_case(sig, order, t, seed, offsets))


def test_property_q_matches_ordered_audit_on_both_outcomes():
    rng = random.Random(4096)
    outcomes = []  # "holds", "error", or the depth of the violation
    for _ in range(2000):
        sig = rng.choice(Q_SIGNATURES)
        order = rng.randint(1, 14)
        t = rng.randint(0, 4)
        # every depth below a random one gets a low minimum, so that
        # violations also turn up at depths 3 and 4
        low = rng.randint(0, t)
        offsets = [
            -rng.randint(0, order) if j < low else rng.randint(-2, 1) for j in range(5)
        ]
        found = _assert_q_matches_ordered_audit(
            *_q_case(sig, order, t, rng.randrange(2**32), offsets)
        )
        if isinstance(found, QViolation):
            outcomes.append(len(found.vertices))
        else:
            outcomes.append("holds" if found is None else "error")
    assert outcomes.count("holds") >= 300
    assert sum(isinstance(x, int) for x in outcomes) >= 300
    assert all(outcomes.count(j) >= 10 for j in range(5))


@pytest.mark.parametrize("sig", Q_SIGNATURES, ids=str)
@pytest.mark.parametrize("order", [0, 1, 2, 3, 40])
def test_sample_complete_matches_pairwise_reference(sig, order):
    """The bulk sampler draws the same kinds in the same pair order as the
    one that installed each pair on its own, so rows match in content
    and in ``neighbors`` order."""
    for seed in (0, 1, 16, 2**31 + 7, -5):
        fast = sample_complete(sig, order, seed)
        slow = pairwise_sample_complete(sig, order, seed)
        assert fast.seed == slow.seed == seed
        assert fast.graph.e_count == slow.graph.e_count
        for v in range(order):
            assert list(fast.graph.neighbors(v).items()) == list(slow.graph.neighbors(v).items())
        assert fast.graph.validate() is None


def _digit_target(sig, order, digits):
    """The complete target whose pairs, in lexicographic order, take the
    kinds at the canonical positions that ``digits`` spells."""
    kinds = sig.kinds()
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    assert len(digits) == len(pairs)
    g = MixedGraph(sig, order)
    for (u, v), digit in zip(pairs, digits):
        g.add_relation(u, v, kinds[int(digit)])
    return CompleteMixedTarget(g)


def _deepest_counts(target, x, kind, v):
    """The mask of the 1-tuple (x,) with ``kind``, and the counts of each
    kind from v on it, in canonical order."""
    mask = target.kind_row(x).get(kind, 0)
    rows = target.kind_row(v)
    return mask, [(mask & rows.get(k, 0)).bit_count() for k in target.graph.signature.kinds()]


def test_property_q_holds_where_only_the_last_kind_bound_fails():
    # At (0,) with kind in, vertex 1 lies outside the mask, so its last
    # kind count is |mask| - (its other counts), one more than the bound
    # that assumes it inside; that count meets the minimum exactly.
    target = _digit_target(SIG, 7, "001110000111000101101")
    spec = PropertySpec(2, (0, 0, 1))
    mask, counts = _deepest_counts(target, 0, arc_in(1), 1)
    assert not mask >> 1 & 1
    assert counts == [mask.bit_count() - 1, 1]
    assert _assert_q_matches_ordered_audit(target, spec) is None


def test_property_q_first_violation_on_the_last_kind_of_the_last_vertex():
    # Vertex 4 is inside the mask, so its last kind count is one below
    # what the bound without it would allow.
    target = _digit_target(SIG, 5, "0000011011")
    spec = PropertySpec(2, (0, 0, 1))
    mask, counts = _deepest_counts(target, 0, arc_out(1), 4)
    assert mask >> 4 & 1 and counts == [mask.bit_count() - 1, 0]
    assert _assert_q_matches_ordered_audit(target, spec) == QViolation(
        (0, 4), (arc_out(1), arc_in(1)), 0, 1
    )


@pytest.mark.parametrize(
    "sig,order,digits,violation",
    [
        # every vertex after 0 leaves room for the last kind, so only the
        # counted minimum sees this one
        (SIG, 6, "100000111111101", QViolation((0, 2), (arc_out(1), arc_out(1)), 0, 1)),
        (
            ColorSignature(1, 1),
            8,
            "1011000112002100000020010010",
            QViolation((0, 2), (arc_out(1), arc_in(1)), 0, 1),
        ),
    ],
)
def test_property_q_first_violation_on_a_counted_kind(sig, order, digits, violation):
    target = _digit_target(sig, order, digits)
    assert violation.kinds[-1] != sig.kinds()[-1]
    assert _assert_q_matches_ordered_audit(target, PropertySpec(2, (0, 0, 1))) == violation


@pytest.mark.parametrize(
    "target,spec,expected",
    [
        (CompleteMixedTarget(transitive_tournament(4)), PropertySpec(2, (0, 0, 0)), None),
        (paley_tournament(11), PropertySpec(2, (1, 4, 1)), None),
        (_digit_target(ColorSignature(0, 1), 5, "0" * 10), PropertySpec(2, (5, 4, 3)), None),
        (
            _digit_target(ColorSignature(0, 1), 5, "0" * 10),
            PropertySpec(2, (5, 4, 4)),
            QViolation((0, 1), (edge(1), edge(1)), 3, 4),
        ),
    ],
)
def test_property_q_deepest_level_past_the_last_vertex(target, spec, expected):
    """A holding audit reaches the deepest level from a tuple ending at
    the last vertex, with no vertex left to count; p = 1 has no counted
    kind at all."""
    assert _assert_q_matches_ordered_audit(target, spec) == expected


def test_search_q_target_is_reproducible():
    spec = PropertySpec(1, (1, 3))
    a = search_q_target(SIG, 7, spec, 100, 16)
    b = search_q_target(SIG, 7, spec, 100, 16)
    assert a is not None and b is not None
    assert same_graph(a.graph, b.graph)
    assert a.seed == b.seed
    assert check_property_q(a, spec) is None


def test_search_q_target_gives_up_honestly():
    # no order-3 tournament has 3 out-neighbors for anyone
    spec = PropertySpec(1, (1, 3))
    assert search_q_target(SIG, 4, spec, 50, 0) is None


# --- greedy embedding -------------------------------------------------------------


def test_greedy_embedding_into_paley_7():
    target = paley_tournament(7)
    for source in (directed_path(5), directed_cycle(6)):
        embedding = greedy_homomorphism(source, target)
        mapping = embedding.homomorphism.mapping
        assert check_homomorphism(source, target.graph, mapping) is None
        assert len(embedding.steps) == source.order
        for step in embedding.steps:
            assert mapping[step.vertex] == step.image
            assert 0 <= step.image < target.order
            assert step.candidates >= 1
            assert step.blocked >= 0
            assert len(step.images) == len(step.kinds)


def test_greedy_builds_only_the_rows_of_the_images_it_reads():
    spec = PropertySpec(2, (7, 5, 3))
    found = search_q_target(SIG, 120, spec, 20, 0)
    assert found is not None
    source = sparse_graph(SIG, 600, random.Random(1), max_degree=3, back=2)
    target = CompleteMixedTarget(found.graph, found.seed)  # the search built every row of found
    embedding = greedy_homomorphism(source, target)
    read = {x for step in embedding.steps for x in step.images}
    built = {v for v, row in enumerate(target._rows) if row is not None}
    assert built == read
    assert len(built) < target.order


def test_greedy_steps_are_read_only():
    step = greedy_homomorphism(directed_path(3), paley_tournament(7)).steps[0]
    with pytest.raises(AttributeError):
        step.image = 0


def test_greedy_violation_pinpoints_the_query():
    target = CompleteMixedTarget(transitive_tournament(3))
    with pytest.raises(PropertyViolatedError) as exc_info:
        greedy_homomorphism(directed_cycle(3), target)
    exc = exc_info.value
    assert len(exc.images) == len(exc.kinds) >= 1
    assert all(kind in (arc_out(1), arc_in(1)) for kind in exc.kinds)
    assert f"vertex {exc.vertex}" in str(exc)


def _greedy_outcome(embed, source, target):
    try:
        return embed(source, target)
    except PropertyViolatedError as exc:
        return exc


def _assert_greedy_matches_reference(source, target) -> str:
    """Fast and quadratic greedy agree on every step or on the error."""
    fast = _greedy_outcome(greedy_homomorphism, source, target)
    slow = _greedy_outcome(quadratic_greedy, source, target)
    assert type(fast) is type(slow)
    if isinstance(slow, PropertyViolatedError):
        for field in ("vertex", "images", "kinds", "candidates", "blocked"):
            assert getattr(fast, field) == getattr(slow, field), field
        assert str(fast) == str(slow)
        return "violated"
    assert fast.homomorphism == slow.homomorphism
    assert fast.order == slow.order
    assert fast.degeneracy == slow.degeneracy
    assert fast.steps == slow.steps
    return "embedded"


@settings(max_examples=150, deadline=None)
@given(sparse_graphs(max_order=40), st.integers(6, 40), st.integers(0, 2**32 - 1))
def test_greedy_matches_quadratic_reference(source, target_order, seed):
    target = sample_complete(source.signature, target_order, seed)
    _assert_greedy_matches_reference(source, target)


def test_greedy_matches_reference_on_both_outcomes():
    rng = random.Random(1508)
    sigs = (SIG, ColorSignature(0, 2), ColorSignature(1, 1))
    outcomes = []
    for trial in range(60):
        sig = sigs[trial % len(sigs)]
        source = sparse_graph(sig, rng.randint(5, 40), rng, rng.randint(2, 4), rng.randint(1, 3))
        target = sample_complete(sig, rng.randint(6, 40), rng.randrange(10**6))
        outcomes.append(_assert_greedy_matches_reference(source, target))
    assert outcomes.count("violated") >= 10
    assert outcomes.count("embedded") >= 10


def test_greedy_embeds_a_large_sparse_source():
    spec = PropertySpec(2, (7, 5, 3))
    target = search_q_target(SIG, 120, spec, 20, 0)
    assert target is not None
    source = sparse_graph(SIG, 20_000, random.Random(7), max_degree=3, back=2)
    embedding = greedy_homomorphism(source, target)
    mapping = embedding.homomorphism.mapping
    assert check_homomorphism(source, target.graph, mapping) is None
    assert len(embedding.steps) == 20_000


def test_exact_search_maps_a_large_planted_source():
    qr7 = paley_tournament(7).graph
    source = sparse_graph(SIG, 20_000, random.Random(7), max_degree=3, back=2, plant=qr7)
    hom = find_homomorphism(source, qr7)
    assert hom is not None
    assert check_homomorphism(source, qr7, hom.mapping) is None


# --- regular extension --------------------------------------------------------------


def test_extend_regular_adds_exactly_two_vertices():
    target = paley_tournament(7)
    extended, hom = extend_regular(directed_cycle(5), target)
    assert extended.order == 9
    assert check_homomorphism(directed_cycle(5), extended.graph, hom.mapping) is None

    target11 = paley_tournament(11)
    extended11, hom11 = extend_regular(transitive_tournament(4), target11)
    assert extended11.order == 13
    assert (
        check_homomorphism(transitive_tournament(4), extended11.graph, hom11.mapping)
        is None
    )


def test_extended_target_stays_complete():
    target = paley_tournament(7)
    extended, _ = extend_regular(directed_cycle(5), target)
    n = extended.order
    assert extended.graph.e_count == n * (n - 1) // 2


def test_extend_regular_validates_the_source():
    target = paley_tournament(7)
    with pytest.raises(ValueError):
        extend_regular(directed_path(3), target)  # not regular
    disconnected = MixedGraph(SIG, 4)
    disconnected.add_arc(0, 1, 1)
    disconnected.add_arc(2, 3, 1)
    with pytest.raises(ValueError):
        extend_regular(disconnected, target)
    with pytest.raises(ValueError):
        extend_regular(MixedGraph(SIG, 3), target)  # no relations


# --- quadratic residue tournaments ----------------------------------------------------


def test_paley_structure():
    for q in (3, 7, 11, 19):
        g = paley_tournament(q).graph
        assert g.order == q
        assert g.e_count == q * (q - 1) // 2
        out = sum(1 for v in range(1, q) if g.relation_from(0, v) == arc_out(1))
        assert out == (q - 1) // 2


def test_paley_rotation_symmetry():
    g = paley_tournament(7).graph
    for u in range(7):
        for v in range(7):
            if u != v:
                shifted = g.relation_from((u + 1) % 7, (v + 1) % 7)
                assert g.relation_from(u, v) == shifted


def test_paley_rejects_bad_moduli():
    for q in (2, 5, 9, 15, 13):
        with pytest.raises(ValueError):
            paley_tournament(q)
