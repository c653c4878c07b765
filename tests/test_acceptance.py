"""Acceptance gate: one test per verification criterion.

Each criterion re-derives its claim from scratch (oracles, certified
witnesses, closed-form certificates) and carries its own runtime limit.
One PASS/FAIL line per criterion is printed to the terminal even
without -s, so a full run reads as a checklist.
"""

import pytest

from mixedgraphs import verification


@pytest.mark.parametrize("number", verification.criterion_numbers())
def test_criterion(number, capsys):
    outcome = verification.run_criterion(number)
    with capsys.disabled():
        print(outcome.line())
    assert outcome.passed, outcome.line()


def test_criterion_5_refuses_a_pipeline_whose_layer_ran_out(monkeypatch):
    # A cut layer search still yields an audited coloring, but the palette
    # bound needs proven layer values, so the criterion must fail and say
    # which layer ran out.
    pipeline = verification.acyclic_from_homomorphisms
    monkeypatch.setattr(
        verification, "acyclic_from_homomorphisms", lambda g: pipeline(g, hom_budget=1)
    )
    passed, detail = verification.criterion_5()
    assert not passed
    assert "layer 0 search ran out of budget with bounds [" in detail


def test_criterion_1_certifies_the_special_pairs_the_searches_read(monkeypatch):
    # A pair rule that drifts from the stated classifier must fail the
    # criterion, though is_special_2path still agrees with the oracle.
    monkeypatch.setattr(verification, "special_pairs", lambda g: set())
    passed, detail = verification.criterion_1()
    assert not passed
    assert detail.endswith("classifier False, oracle True")
