"""Self-test of the benchmark, in seconds.

Usage, from the root of a checkout:

    python3 bench/selftest.py

1. Each output check in ``checks.py`` accepts a correct witness and
   rejects a corrupted one.
2. Every workload runs end to end at tiny size, untraced and traced.
   Every printed metric name matches ``BENCHMARK.json`` and uses only
   ``[A-Za-z0-9_.-]``, and the count metrics repeat exactly for a seed.

Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import re
import sys

import checks
import run
from workloads import EDGE, OUT, Graph, Op, qr_tournament

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = ("solved_frac", "bound_gap", "palette_mean", "fail_frac")
LAYER_COUNTS = ("solver.chi_nodes", "decomposition.acyclic_nodes", "targets.greedy_steps",
                "core.common_nbhd_calls", "fileio.parse_lines")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def cycle(order: int, sig=(1, 0)) -> Graph:
    g = Graph(sig, order)
    for v in range(order):
        g.add(v, (v + 1) % order, (OUT, 1))
    return g


def check_checks() -> None:
    # On the directed 4-cycle, blocks {0, 2} and {1, 3} would be joined by
    # arcs in both directions, so only the 4-block witness is valid.
    c4 = cycle(4)
    expect(checks.partition(c4, [0, 1, 2, 3], 4) is None, "partition: valid 4-block witness passes")
    expect(checks.partition(c4, [0, 1, 0, 1], 2) is not None,
           "partition: blocks joined by two kinds are rejected")
    expect(checks.partition(c4, [0, 0, 1, 2], 3) is not None,
           "partition: related vertices in one block are rejected")
    expect(checks.partition(c4, [0, 1, 2, 3], 3) is not None,
           "partition: block count differing from the answer is rejected")
    path = Graph((0, 2), 3)
    path.add(0, 1, (EDGE, 1))
    path.add(1, 2, (EDGE, 2))
    expect(checks.partition(path, [0, 1, 0], 2) is not None,
           "partition: a special 2-path folded onto one block is rejected")

    qr7 = qr_tournament(7)
    src = Graph((1, 0), 3)
    src.add(0, 1, qr7.adj[0][1])
    src.add(1, 2, qr7.adj[1][3])
    expect(checks.homomorphism(src, qr7, [0, 1, 3]) is None, "homomorphism: valid map passes")
    expect(checks.homomorphism(src, qr7, [0, 1, 1]) is not None,
           "homomorphism: related vertices on one image are rejected")
    expect(checks.homomorphism(src, qr7, [1, 0, 3]) is not None,
           "homomorphism: a reversed arc is rejected")

    square = Graph((0, 1), 4)
    for v in range(4):
        square.add(v, (v + 1) % 4, (EDGE, 1))
    expect(checks.acyclic(square, [1, 2, 1, 3], 3) is None, "acyclic: valid 3-coloring of C4 passes")
    expect(checks.acyclic(square, [1, 2, 1, 2], 2) is not None,
           "acyclic: a bichromatic cycle is rejected")
    expect(checks.acyclic(square, [1, 1, 2, 3], 3) is not None,
           "acyclic: an improper coloring is rejected")

    k4 = Graph((0, 1), 4)
    for u in range(4):
        for v in range(u + 1, 4):
            k4.add(u, v, (EDGE, 1))
    expect(checks.arboricity(k4, 2, [0, 1, 2, 3], 2) is None, "arb: K4 has arboricity 2")
    expect(checks.arboricity(k4, 3, [0, 1, 2, 3], 3) is not None,
           "arb: a densest subset below the answer is rejected")
    expect(checks.arboricity(k4, 2, [0, 1, 2, 3], 1) is not None,
           "arb: fewer greedy forests than the arboricity are rejected")

    expect(checks.bounds(3, 7, 10, {}) is None, "bounds: ordered bounds pass")
    expect(checks.bounds(7, 3, 10, {}) is not None, "bounds: lower above upper is rejected")
    expect(checks.bounds(12, 66, 66, {"chi": 12}) is None, "bounds: H_3 bounds around 12 pass")
    expect(checks.bounds(13, 66, 66, {"chi": 12}) is not None,
           "bounds: H_3 bounds excluding 12 are rejected")
    expect(checks.bounds(4, 15, 15, {"chi_at_least": 5}) is not None,
           "bounds: a gadget lower bound below t is rejected")

    expect(checks.property_q(qr_tournament(11), 2, (1, 2, 2)) is None,
           "property Q: QR11 has 2 common neighbors of every pattern")
    expect(checks.property_q(qr_tournament(11), 2, (1, 2, 3)) is not None,
           "property Q: QR11 lacks 3 common neighbors")
    broken = qr_tournament(7)
    del broken.adj[0][1], broken.adj[1][0]
    expect(checks.property_q(broken, 1, (1, 1)) is not None, "property Q: a missing pair is rejected")

    # verify() on whole outputs: a corrupted witness inside a record fails
    op = Op("chi", ["chi", "g.mg"], 4, {"graph": c4})
    good = json.dumps({"record": "chi", "exact": True, "k": 4, "witness": [0, 1, 2, 3]})
    bad = json.dumps({"record": "chi", "exact": True, "k": 2, "witness": [0, 1, 0, 1]})
    expect(checks.verify(op, 0, good, {}).failure is None, "verify: a correct chi record passes")
    expect(checks.verify(op, 0, bad, {}).failure is not None, "verify: a corrupted chi record fails")
    expect(checks.verify(op, 0, "garbage", {}).failure is not None, "verify: unreadable output fails")
    hom = Op("hom", ["hom"], 3, {"source": src, "target": qr7}, {"hom_exists": 1})
    none = json.dumps({"record": "hom", "found": False})
    expect(checks.verify(hom, 1, none, {}).failure is not None,
           "verify: 'no homomorphism' for a planted source fails")


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_workloads() -> None:
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for metric in [*e2e, *layers]:
        expect(bool(NAME.match(metric)), f"metric name {metric} uses only [A-Za-z0-9_.-]")
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        first, _ = run.run(workload, 7, 0, trace=False, tiny=True)
        again, report = run.run(workload, 7, 0, trace=False, tiny=True)
        expect(units(first) == e2e, f"{workload}: end-to-end names and units match BENCHMARK.json")
        expect(first["correct"] and again["correct"], f"{workload}: every output passes its check")
        expect(all(first["metrics"][m]["value"] == again["metrics"][m]["value"] for m in COUNT_METRICS),
               f"{workload}: count metrics repeat exactly")
        expect(all(v["value"] > 0 for v in first["metrics"].values()), f"{workload}: no metric reads 0")
        print(f"   failures {report['meta']['failures']}")
        traced, _ = run.run(workload, 7, 0, trace=True, tiny=True)
        traced_again, _ = run.run(workload, 7, 0, trace=True, tiny=True)
        expect(units(traced) == layers, f"{workload}: per-layer names and units match BENCHMARK.json")
        expect(all(traced["metrics"][m]["value"] == traced_again["metrics"][m]["value"]
                   for m in LAYER_COUNTS),
               f"{workload}: per-layer counts repeat exactly")


def main() -> None:
    check_checks()
    check_workloads()
    print("selftest passed")


if __name__ == "__main__":
    main()
