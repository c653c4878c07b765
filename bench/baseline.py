"""Regenerate the rows of ROADMAP.md's Baseline table as a report.

Usage, from the root of a checkout:

    python3 bench/baseline.py

Each row is one single run, timed with ``time.perf_counter``; nothing
here is gated, and the whole report takes a few minutes (the H_3 row
alone searches 10M nodes).  Rows print as a Markdown table.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from workloads import Graph, OUT, qr_tournament, random_mixed

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "out"


def _library():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import mixedgraphs

    return mixedgraphs


def _timed(fn):
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # the report shows the error instead of a value
        value = f"`{type(exc).__name__}`"
    return value, time.perf_counter() - start


def _path_graph(order: int) -> Graph:
    g = Graph((1, 0), order)
    for v in range(order - 1):
        g.add(v, v + 1, (OUT, 1))
    return g


def suite_row() -> tuple[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=2", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    lines = done.stdout.splitlines()
    summary = next((l.strip("= ") for l in reversed(lines) if " in " in l), "no summary")
    slow = [l.split()[0] + " " + l.split("::")[-1] for l in lines if re.match(r"^\d+\.\d+s call", l)]
    return "Tier-1 suite", f"{summary}, {elapsed:.0f} s wall; slowest: {'; '.join(slow)}"


def chi_row(label: str, graph, budget: int) -> tuple[str, str]:
    mg = _library()
    result, seconds = _timed(lambda: mg.chromatic_number(graph, budget=budget))
    if isinstance(result, str):
        return label, f"{result} after {seconds:.1f} s"
    state = f"chi = {result.k}" if result.exact else "**not solved**"
    witness = f"best partition {result.witness.k} blocks" if result.witness else "no partition"
    return label, (f"{state}: {result.nodes:,} nodes, {seconds:.1f} s, "
                   f"bounds [{result.lower}, {result.upper}], {witness}")


def rows():
    mg = _library()
    sig = mg.ColorSignature(1, 0)

    def load(g: Graph):
        return mg.loads(g.text()).graph

    yield suite_row()
    h3 = mg.build_hk(sig, 3).graph
    yield chi_row(f"`chromatic_number(build_hk((1,0), 3))`, order {h3.order}, 10M-node budget",
                  h3, 10_000_000)
    h4 = mg.build_hk(sig, 4).graph
    yield chi_row(f"same, `build_hk((1,0), 4)`, order {h4.order}, 2M-node budget",
                  h4, 2_000_000)
    for n in (30, 40):
        g = load(random_mixed((1, 0), n, 3.0, Random(n)))
        yield chi_row(f"`chromatic_number`, random oriented graph, n = {n}, average degree 3, "
                      f"seed {n}, 3M-node budget", g, 3_000_000)
    for n in (30, 40, 60):
        g = load(random_mixed((1, 0), n, 3.0, Random(n)))
        result, seconds = _timed(lambda: mg.acyclic_from_homomorphisms(g, hom_budget=1_000_000))
        shown = result if isinstance(result, str) else f"palette {result.palette}"
        yield (f"`acyclic_from_homomorphisms`, random n = {n}, seed {n}, 1M-node layer budget",
               f"{shown}, {seconds:.1f} s")
    times = []
    for n in (1000, 2000, 4000):
        g = load(_path_graph(n))
        times.append(_timed(lambda: mg.degeneracy_ordering(g))[1])
    yield ("`degeneracy_ordering`, path with n = 1000 / 2000 / 4000",
           " / ".join(f"{t:.2f}" for t in times) + " s")
    target = mg.sample_complete(sig, 120, 0)
    times = []
    for n in (250, 500, 1000, 2000):
        g = load(_path_graph(n))
        times.append(_timed(lambda: mg.greedy_homomorphism(g, target))[1])
    yield ("`greedy_homomorphism`, path with n = 250 / 500 / 1000 / 2000, into a "
           "120-vertex sampled target (seed 0)", " / ".join(f"{t:.2f}" for t in times) + " s")
    WORK.mkdir(exist_ok=True)
    path, qr7 = WORK / "baseline-path1500.mg", WORK / "baseline-qr7.mg"
    path.write_text(_path_graph(1500).text())
    qr7.write_text(qr_tournament(7).text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    shown = []
    for argv in (["chi", str(path)], ["acyclic", str(path)], ["hom", str(path), str(qr7)]):
        done = subprocess.run([sys.executable, "-m", "mixedgraphs", *argv],
                              env=env, capture_output=True, text=True)
        error = done.stderr.strip().splitlines()[-1].split(":")[0] if done.stderr.strip() else "no error"
        shown.append(f"{argv[0]}: `{error}`, exit {done.returncode}")
    path.unlink()
    qr7.unlink()
    yield "`chi` / `acyclic` / `hom` CLI on a 1500-vertex path (`hom` into QR7)", "; ".join(shown)


def main() -> None:
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs\n")
    print("| workload | result |")
    print("|---|---|")
    for label, result in rows():
        print(f"| {label} | {result} |", flush=True)


if __name__ == "__main__":
    main()
