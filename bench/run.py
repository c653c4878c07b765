"""Benchmark of the mixedgraphs command line, end to end and by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-chi --seed 1 --seconds 10 --trace 0

An op is one in-process ``mixedgraphs.cli.run(argv)`` call on an input
file the bench generated from ``--seed``.  Ops run in a closed loop with
one client: the next op starts when the previous one returns, in this
one process, with no threads.  Each op pays for parsing, the search, the
library's own witness audit and the output, as a user does.

A run sets the workload up ``SETUPS`` times (``setup_s`` is the median),
then executes the corpus in whole passes, one at least, and another as
long as it should end within ``--seconds`` of the first.  Times are CPU
times at a reference machine speed: a short fixed loop runs before every
op, and a run's CPU time is scaled by the loop's reference time over the
loop's mean time just before and just after it (see ``calibrate``).  An
op's time is the median of its scaled times over all passes.  A full
garbage collection runs before each op, outside its time, so each op
starts from a clean heap as a fresh process would.  Count metrics
(``fail_frac``, ``solved_frac``, ``bound_gap``, ``palette_mean`` and the
per-layer counts) use the first pass only, so they repeat exactly for a
seed.  Every output is checked
by ``checks.py``, which shares no code with the library.

An op fails when an exception escapes ``cli.run``, when it exits 2 on
these bench-made inputs, when its output check rejects it, or when it
runs past ``OP_TIME_LIMIT_S``.  Failed ops rank as +infinity in the
percentiles; a percentile that lands on one reads as the time limit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
traced and prints the per-layer metrics from the spans of the first
pass (see ``spans.py``), plus ``trace.overhead_frac``: every fourth op
also runs untraced, and this is the traced over the untraced median time
of those ops.  The second-to-last stdout line holds the run metadata;
the last line is the result.  The full report, with the spans of a
traced run, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from random import Random

import checks
from workloads import WORKLOADS, Op, Workspace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 5
OP_TIME_LIMIT_S = 10.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TWIN_EVERY = 4
# Calibration: a fixed pure-Python loop of CAL_LOOPS steps runs before
# every op and after the last.  Op and set-up times are the process's CPU
# time scaled by CAL_REF_S over the mean loop time just before and just
# after them, so they read as the time at a reference speed where the
# loop takes CAL_REF_S (about what it takes with Python 3.11 on an idle
# 2-vCPU cloud VM).  On a shared host the CPU time of the same work
# swings by up to 1.7x within a second, as the neighbors' load comes and
# goes; the loop swings with it, and the ratio much less.
CAL_LOOPS = 10_000
CAL_REF_S = 0.0015
SETUP_CALS = 3  # loops before and after each set-up
UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "fail_frac": "ratio",
    "solved_frac": "ratio",
    "bound_gap": "ratio",
    "palette_mean": "colors",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import ``mixedgraphs.cli`` from this checkout's sources, nowhere else."""
    src = ROOT / "src"
    if not (src / "mixedgraphs" / "cli.py").is_file():
        sys.exit(f"error: no library sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from mixedgraphs import cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: imported {cli.__file__}, not the sources under {src}")
    return cli


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop: how fast the machine runs now."""
    start = time.process_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_LOOPS):
        table[i & 511] = acc
        acc = (acc + table.get((i * 7) & 511, i)) & 0xFFFF
    return time.process_time() - start


def scaled(cpu: float, before: list[float], after: list[float]) -> float:
    """CPU seconds at the reference speed, given the loop times around them."""
    loop = statistics.fmean((statistics.median(before), statistics.median(after)))
    return cpu * CAL_REF_S / loop


class OpTimeLimit(Exception):
    """Raised inside an op that runs past OP_TIME_LIMIT_S."""


def _alarm(signum, frame):
    raise OpTimeLimit(f"op ran past {OP_TIME_LIMIT_S} s")


@dataclass
class Outcome:
    index: int
    cpu: float
    wall: float
    cal: float  # CPU seconds of the calibration run just before the op
    code: int | None
    failure: str | None
    verdict: checks.Verdict | None
    seconds: float = math.nan  # CPU time at the reference speed, set by Runner.scale_times


def call(cli, argv: list[str]) -> tuple[int | None, tuple[str, str] | None, str, float, float]:
    """One ``cli.run`` under the time limit.

    Returns the exit code, an escaped exception as (type name, last
    frames of its traceback), stdout, and the wall and CPU seconds taken.
    """
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code, error = cli.run(argv), None
    except Exception as exc:  # an escaping exception is a failed op, recorded by type
        code, error = None, (type(exc).__name__, traceback.format_exc(limit=-3))
    finally:
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, error, out.getvalue(), wall, cpu


class Runner:
    """Executes ops and checks their outputs, caching verdicts of repeated outputs."""

    def __init__(self, cli, ops: list[Op]):
        self.cli = cli
        self.ops = ops
        self.q_cache: dict[str, str | None] = {}
        self.verdicts: dict[tuple, checks.Verdict] = {}
        self.check_failures: list[str] = []
        self.tracebacks: dict[str, str] = {}  # first one per "kind:ExceptionType"
        self.executed: list[Outcome] = []  # in the order they ran

    def execute(self, index: int) -> Outcome:
        outcome = self._execute(index)
        self.executed.append(outcome)
        return outcome

    def scale_times(self) -> None:
        """Turn each op's CPU time into CPU time at the reference speed."""
        cals = [o.cal for o in self.executed] + [calibrate()]
        for i, o in enumerate(self.executed):
            o.seconds = scaled(o.cpu, cals[i:i + 1], cals[i + 1:i + 2])

    def _execute(self, index: int) -> Outcome:
        op = self.ops[index % len(self.ops)]
        gc.collect()  # each op starts from a clean heap, as a fresh process would
        cal = calibrate()
        code, error, stdout, wall, cpu = call(self.cli, op.argv)
        if error is not None:
            self.tracebacks.setdefault(f"{op.kind}:{error[0]}", error[1])
            return Outcome(index, cpu, wall, cal, code, error[0], None)
        if code == 2:
            return Outcome(index, cpu, wall, cal, code, "exit 2", None)
        written = ""
        if op.file is not None and os.path.exists(op.file):
            with open(op.file) as fh:
                written = fh.read()
        key = (index % len(self.ops), code, stdout, written)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = checks.verify(op, code, stdout, self.q_cache)
            if verdict.failure is not None:
                self.check_failures.append(f"{' '.join(op.argv)}: {verdict.failure}")
        failure = "check" if verdict.failure is not None else None
        return Outcome(index, cpu, wall, cal, code, failure, verdict)


def set_up(cli, workload: str, seed: int, tiny: bool, work: Path) -> tuple[list[Op], list[float]]:
    """Build the corpus SETUPS times; return the last corpus and each set-up time.

    A set-up's time is its CPU time, scaled by SETUP_CALS loops run just
    before and just after it.
    """

    def quiet(argv: list[str]) -> int:
        code, error, _, _, _ = call(cli, argv)
        if error is not None:
            raise RuntimeError(f"set-up command {argv} raised {error[1]}")
        return code

    times = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        gc.collect()
        before = [calibrate() for _ in range(SETUP_CALS)]
        start = time.process_time()
        ops = WORKLOADS[workload](Workspace(str(work), quiet), Random(seed), tiny)
        cpu = time.process_time() - start
        times.append(scaled(cpu, before, [calibrate() for _ in range(SETUP_CALS)]))
    return ops, times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; +inf (a failed op) reads as the time limit."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
    return value if math.isfinite(value) else OP_TIME_LIMIT_S


def tail_percentile(pass_size: int) -> int:
    """Highest listed percentile with at least ten ops of one pass beyond it."""
    return next((q for q in TAIL_PERCENTILES if pass_size * (100 - q) / 100 >= 10), 50)


def op_times(outcomes: list[Outcome]) -> list[float]:
    return [o.seconds if o.failure is None else math.inf for o in outcomes]


def median_times(ops: list[Op], outcomes: list[Outcome]) -> tuple[list[float], list[bool]]:
    """Each op's median time over its runs, and whether any run failed."""
    runs: list[list[float]] = [[] for _ in ops]
    failed = [False] * len(ops)
    for o in outcomes:
        i = o.index % len(ops)
        runs[i].append(o.seconds)
        failed[i] = failed[i] or o.failure is not None
    return [statistics.median(r) for r in runs], failed


def count_metrics(ops: list[Op], first: list[Outcome]) -> dict[str, float]:
    """Metrics of the first pass, which repeat exactly for a seed."""
    failed = sum(o.failure is not None for o in first)
    solved = sum(o.failure is None and o.code in (0, 1) for o in first)
    gaps, palettes = [], []
    for op, o in zip(ops, first):
        if op.kind in ("chi", "acyclic"):
            ok = o.failure is None
            gaps.append(o.verdict.upper / o.verdict.lower if ok else float(op.order))
        elif op.kind == "acyclic-pipeline":
            ok = o.failure is None and o.verdict.palette is not None
            palettes.append(o.verdict.palette if ok else op.order)
    return {
        # Jeffreys estimate of the failure rate: above 0 even with no
        # failure, so the ratio of two runs stays defined.
        "fail_frac": (failed + 0.5) / (len(first) + 1),
        "solved_frac": solved / len(first),
        # Geometric, not arithmetic: a few budget-exhausted ops with
        # upper = n would otherwise swing the mean by tens of percent
        # between seeds.  A workload without ops of these kinds reads 1.0,
        # as if every bound were tight and every palette a single color.
        "bound_gap": statistics.geometric_mean(gaps) if gaps else 1.0,
        "palette_mean": statistics.fmean(palettes) if palettes else 1.0,
    }


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixedgraphs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def kind_counts(ops: list[Op], outcomes: list[Outcome]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for o in outcomes:
        kind = ops[o.index % len(ops)].kind
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def failure_tally(ops: list[Op], outcomes: list[Outcome]) -> dict[str, int]:
    tally: dict[str, int] = {}
    for o in outcomes:
        if o.failure is not None:
            key = f"{ops[o.index % len(ops)].kind}:{o.failure}"
            tally[key] = tally.get(key, 0) + 1
    return tally


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result, report)."""
    cli = load_cli()
    signal.signal(signal.SIGALRM, _alarm)
    load_start = loadavg()
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        ops, setup_times = set_up(cli, workload, seed, tiny, work)
        if tracer is not None:
            tracer.uninstall()  # set-up spans are in; ops install it themselves
        runner = Runner(cli, ops)
        plain: list[Outcome] = []
        traced: list[Outcome] = []
        gc.collect()
        gc.freeze()  # the corpus is not the library's garbage to scan
        start = now = time.perf_counter()
        index = 0
        while True:
            pass_start = now
            for index in range(index, index + len(ops)):
                if tracer is None:
                    plain.append(runner.execute(index))
                    continue
                # every TWIN_EVERY-th op also runs untraced, in alternating order
                twin = index % TWIN_EVERY == 0
                for on in (True, False) if index % (2 * TWIN_EVERY) else (False, True):
                    if on:
                        tracer.install()
                        tracer.op = index
                        traced.append(runner.execute(index))
                        tracer.uninstall()
                    elif twin:
                        plain.append(runner.execute(index))
            index += 1
            now = time.perf_counter()
            if now + (now - pass_start) - start > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
    runner.scale_times()

    first = (traced or plain)[: len(ops)]
    window = plain + traced
    if tracer is None:
        medians, failed = median_times(ops, plain)
        times = [math.inf if f else t for t, f in zip(medians, failed)]
        tail_q = tail_percentile(len(ops))
        units = UNITS
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": percentile(times, 50) * 1000,
            "op_tail_ms": percentile(times, tail_q) * 1000,
            "ops_per_s": len(ops) / sum(medians),
            **count_metrics(ops, first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from spans import METRIC_UNITS, layer_metrics

        units = {**METRIC_UNITS, "trace.overhead_frac": "ratio"}

        tail_q = None
        metrics = layer_metrics(tracer.spans, set(range(len(ops))), SETUPS)
        twins = [o for o in traced if o.index % TWIN_EVERY == 0]
        metrics["trace.overhead_frac"] = (
            percentile(op_times(twins), 50) / percentile(op_times(plain), 50)
        )
    result = {
        "correct": not runner.check_failures,
        "attempted": len(window),
        "failed": sum(o.failure is not None for o in window),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": loadavg(),
        "pass_size": len(ops),
        "passes": len(traced or plain) / len(ops),
        "tail_percentile": tail_q,
        "setup_times_s": setup_times,
        "ops_per_kind": kind_counts(ops, window),
        "pass_ops_per_kind": kind_counts(ops, first),
        "failures": failure_tally(ops, window),
        "check_failures": runner.check_failures[:20],
        "failure_tracebacks": runner.tracebacks,
    }
    first_ops = [
        {"argv": op.argv[1:2], "kind": op.kind, "order": op.order, "code": o.code,
         "failure": o.failure, "seconds": o.seconds, "cpu": o.cpu, "wall": o.wall, "cal": o.cal,
         **(vars(o.verdict) if o.verdict else {})}
        for op, o in zip(ops, first)
    ]
    report = {"meta": meta, "result": result, "first_pass": first_ops,
              "timings": [[o.index, o.seconds, o.cpu, o.wall, o.cal] for o in runner.executed]}
    if tracer is not None:
        report["spans"] = tracer.dump()
    return result, report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report))
    print(json.dumps({"meta": report["meta"]}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
