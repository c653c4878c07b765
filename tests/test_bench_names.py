"""The bench tracer wraps library functions by name; every name must exist.

``bench/spans.py`` lists, per ``mixedgraphs`` module, the functions its
``Tracer`` wraps, and ``Tracer()`` looks each one up with ``getattr``.
A library function renamed or deleted without updating that list makes
every traced bench run crash, so this test runs the list against the
library.  Its ``_counts`` reads attributes of the results of a few of
them, so a renamed result field would crash those runs too; each of
those functions runs here on a tiny graph.  The file is executed from
its source text, so nothing is written under ``bench/``.
"""

import importlib
from pathlib import Path

from mixedgraphs import (
    ColorSignature,
    acyclic_chromatic_number,
    chromatic_number,
    digit_graphs,
    dumps,
    greedy_forests,
    greedy_homomorphism,
    loads,
    nash_williams_density,
    sample_complete,
)
from strategies import directed_cycle

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans() -> dict:
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_traced_name_is_a_library_callable():
    spans = _spans()
    missing = [
        f"mixedgraphs.{layer}.{name}"
        for layer, names in spans["LAYERS"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mixedgraphs.{layer}"), name, None))
    ]
    assert missing == []
    spans["Tracer"]()


def test_span_counts_read_what_the_library_returns():
    counts = _spans()["_counts"]
    g = directed_cycle(5)
    target = sample_complete(ColorSignature(1, 0), 12, 1)
    cases = [
        (loads, (dumps(g),)),
        (chromatic_number, (g,)),
        (acyclic_chromatic_number, (g,)),
        (digit_graphs, (g, greedy_forests(g))),
        (greedy_homomorphism, (g, target)),
        (nash_williams_density, (g,)),
        (greedy_forests, (g,)),
    ]
    for function, args in cases:
        found = counts(function.__name__, args, function(*args))
        assert found and all(type(value) is int for value in found.values()), function
