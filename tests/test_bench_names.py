"""The bench tracer wraps library functions by name; every name must exist.

``bench/spans.py`` lists, per ``mixedgraphs`` module, the functions its
``Tracer`` wraps, and ``Tracer()`` looks each one up with ``getattr``.
A library function renamed or deleted without updating that list makes
every traced bench run crash, so this test runs the list against the
library.  The file is executed from its source text, so nothing is
written under ``bench/``.
"""

import importlib
from pathlib import Path

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
