"""Golden output: every listed CLI command, in text and records, byte for byte.

The inputs are the small graph files in ``tests/golden/``; the expected
exit code, stdout and stderr of each command are in
``tests/golden/expected.json``.  A change meant to keep the output must
pass this test unchanged.  Only when an output change is intended,
regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``,
which names every entry it adds, removes or changes, and review its diff.
"""

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixedgraphs
from mixedgraphs import targets
from mixedgraphs.cli import build_parser, run

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected.json"
ROOT = Path(__file__).resolve().parents[1]

# argv per command; a word ending in ".mg" or ".map" names a file in tests/golden/
COMMANDS = {
    "chi-c5": "chi c5.mg",
    "chi-c5-records": "chi c5.mg --format records",
    "chi-mixed": "chi mixed.mg -o -",
    "chi-mixed-records": "chi mixed.mg --format records",
    "chi-dense-budget": "chi dense.mg --budget 40",
    "chi-dense-budget-records": "chi dense.mg --budget 40 --format records",
    "chi-dense-small-budget": "chi dense.mg --budget 20",
    "chi-dense-small-budget-records": "chi dense.mg --budget 20 --format records",
    "chi-lower-only": "chi mixed.mg --lower-only",
    "chi-lower-only-records": "chi mixed.mg --lower-only --format records",
    "chi-check": "chi c5.mg --check c5-colored.mg",
    "chi-check-records": "chi c5.mg --check c5-colored.mg --format records",
    "chi-check-valid": "chi c5.mg --check c5-good.mg",
    "chi-check-valid-records": "chi c5.mg --check c5-good.mg --format records",
    "chi-check-self": "chi c5-colored.mg --check",
    "chi-check-no-lines": "chi c5.mg --check",
    "chi-check-missing": "chi c5.mg --check c5-partial.mg",
    "chi-check-out-of-range": "chi c5.mg --check w7-colored.mg",
    "acyclic-c5": "acyclic c5.mg",
    "acyclic-c5-records": "acyclic c5.mg --format records",
    "acyclic-mixed": "acyclic mixed.mg -o -",
    "acyclic-mixed-records": "acyclic mixed.mg --format records",
    "acyclic-dense-budget": "acyclic dense.mg --budget 30",
    "acyclic-dense-budget-records": "acyclic dense.mg --budget 30 --format records",
    "acyclic-check": "acyclic c5.mg --check c5-colored.mg",
    "acyclic-check-records": "acyclic c5.mg --check c5-colored.mg --format records",
    "acyclic-check-invalid": "acyclic c5.mg --check c5-bad.mg",
    "acyclic-check-invalid-records": "acyclic c5.mg --check c5-bad.mg --format records",
    "acyclic-check-missing": "acyclic c5.mg --check c5-partial.mg",
    "acyclic-check-out-of-range": "acyclic c5.mg --check w7-colored.mg",
    "acyclic-pipeline-mixed": "acyclic-pipeline mixed.mg -o -",
    "acyclic-pipeline-mixed-records": "acyclic-pipeline mixed.mg --format records",
    "acyclic-pipeline-dense": "acyclic-pipeline dense.mg",
    "acyclic-pipeline-budget": "acyclic-pipeline dense.mg --budget 40",
    "acyclic-pipeline-budget-records": "acyclic-pipeline dense.mg --budget 40 --format records",
    "arb-c5": "arb c5.mg -o -",
    "arb-mixed": "arb mixed.mg",
    "arb-mixed-records": "arb mixed.mg --format records",
    "arb-dense": "arb dense.mg",
    "arb-dense-records": "arb dense.mg --format records",
    "arb-check": "arb c5.mg --check c5-good.mg",
    "arb-check-records": "arb c5.mg --check c5-good.mg --format records",
    "arb-check-invalid": "arb c5.mg --check c5-bad.mg",
    "arb-check-invalid-records": "arb c5.mg --check c5-bad.mg --format records",
    "arb-check-no-lines": "arb c5.mg --check",
    "hom-p6-qr7": "hom p6.mg qr7.mg",
    "hom-p6-qr7-records": "hom p6.mg qr7.mg --format records",
    "hom-dense-qr7": "hom dense.mg qr7.mg",
    "hom-dense-qr7-records": "hom dense.mg qr7.mg --format records",
    "hom-c5-p6": "hom c5.mg p6.mg --format records",
    "hom-mismatch": "hom mixed.mg qr7.mg",
    "hom-check": "hom p6.mg qr7.mg --check p6-qr7.map",
    "hom-check-records": "hom p6.mg qr7.mg --check p6-qr7.map --format records",
    "hom-check-invalid": "hom p6.mg qr7.mg --check p6-bad.map",
    "hom-check-invalid-records": "hom p6.mg qr7.mg --check p6-bad.map --format records",
    "hom-check-missing": "hom p6.mg qr7.mg --check p6-missing.map",
    "hom-check-out-of-range": "hom p6.mg qr7.mg --check p6-extra.map",
    "greedy-hom-p6": "greedy-hom p6.mg target.mg",
    "greedy-hom-p6-records": "greedy-hom p6.mg target.mg --format records",
    "greedy-hom-dense": "greedy-hom dense.mg target.mg",
    "greedy-hom-dense-records": "greedy-hom dense.mg target.mg --format records",
    "extend-regular-c5": "extend-regular c5.mg target.mg -o -",
    "extend-regular-c5-records": "extend-regular c5.mg target.mg --format records",
    "check-q-holds": "check-q target.mg --tuples 2 --min 1,3,1",
    "check-q-holds-records": "check-q target.mg --tuples 2 --min 1,3,1 --format records",
    "check-q-violated": "check-q target.mg --tuples 2 --min 1,3,2",
    "check-q-violated-records": "check-q target.mg --tuples 2 --min 1,3,2 --format records",
    "check-q-qr7": "check-q qr7.mg --tuples 2 --min 1,3,1 --format records",
    "check-q-triples-holds": "check-q target.mg --tuples 3 --min 1,4,1,0",
    "check-q-triples-holds-records": "check-q target.mg --tuples 3 --min 1,4,1,0 --format records",
    "check-q-triples-violated": "check-q target.mg --tuples 3 --min 1,4,1,1",
    "check-q-triples-violated-records": "check-q target.mg --tuples 3 --min 1,4,1,1 --format records",
    "search-q": "search-q --sig 1 1 --order 20 --tuples 1 --min 1,2 --attempts 5 --seed 4 -o -",
    "search-q-records": "search-q --sig 1 1 --order 20 --tuples 1 --min 1,2 --attempts 5 --seed 4 --format records",
    "search-q-none": "search-q --sig 1 0 --order 8 --tuples 2 --min 1,3,2 --attempts 3 --seed 1",
    "search-q-none-records": "search-q --sig 1 0 --order 8 --tuples 2 --min 1,3,2 --attempts 3 --seed 1 --format records",
    "gen-hk": "gen hk 3 --sig 1 0",
    "gen-hk-small": "gen hk 2 --sig 1 0",
    "gen-gadget": "gen gadget 3 --sig 1 1",
    "sample-target": "sample-target --sig 1 0 --order 6 --seed 3",
    "sample-target-mixed": "sample-target --sig 1 1 --order 5 --seed 9 -o -",
    "sample-target-empty": "sample-target --sig 1 0 --order 0 --seed 3",
    "sample-target-bad-sig": "sample-target --sig 0 0 --order 4 --seed 3",
    "bounds-nr-upper": "bounds nr-upper 3 2",
    "bounds-nr-upper-records": "bounds nr-upper 3 2 --format records",
    "bounds-nr-upper-bad": "bounds nr-upper 0 2",
    "bounds-planar-upper": "bounds planar-upper 3",
    "bounds-planar-upper-records": "bounds planar-upper 3 --format records",
    "bounds-arb-upper": "bounds arb-upper 5 2",
    "bounds-arb-upper-records": "bounds arb-upper 5 2 --format records",
    "bounds-arb-upper-bad": "bounds arb-upper 5 1 --format records",
    "bounds-acyclic-upper-arb": "bounds acyclic-upper-arb 3 2 2",
    "bounds-acyclic-upper-arb-records": "bounds acyclic-upper-arb 3 2 2 --format records",
    "bounds-acyclic-upper-chi": "bounds acyclic-upper-chi 100 3",
    "bounds-acyclic-upper-chi-records": "bounds acyclic-upper-chi 100 3 --format records",
    "bounds-degree": "bounds degree 5 2",
    "bounds-degree-records": "bounds degree 5 2 --format records",
    "bounds-degree-small": "bounds degree 2 3",
    "bounds-degree-small-records": "bounds degree 2 3 --format records",
    "bounds-counting-holds": "bounds counting c5.mg 3",
    "bounds-counting-holds-records": "bounds counting c5.mg 3 --format records",
    "bounds-counting-fails": "bounds counting mixed.mg 2",
    "bounds-counting-fails-records": "bounds counting mixed.mg 2 --format records",
}


def _argv(command: str) -> list[str]:
    return [
        str(GOLDEN / w) if w.endswith((".mg", ".map")) else w for w in command.split()
    ]


def _capture(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_argv(command))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_commands_cover_the_subcommands():
    expected = json.loads(EXPECTED.read_text())
    assert sorted(expected) == sorted(COMMANDS)
    used = {command.split()[0] for command in COMMANDS.values()}
    assert used == {
        "chi", "acyclic", "acyclic-pipeline", "arb", "hom", "greedy-hom",
        "extend-regular", "check-q", "search-q", "gen", "sample-target", "bounds",
    }
    bounds = {command.split()[1] for command in COMMANDS.values() if command.startswith("bounds ")}
    assert bounds == {
        "nr-upper", "planar-upper", "arb-upper", "acyclic-upper-arb",
        "acyclic-upper-chi", "degree", "counting",
    }
    # every witness audit has a passing (exit 0) and a failing (exit 1) case
    verdicts = {
        (command.split()[0], expected[name]["exit"])
        for name, command in COMMANDS.items()
        if "--check" in command.split()
    }
    for subcommand in ("chi", "arb", "acyclic", "hom"):
        assert {(subcommand, 0), (subcommand, 1)} <= verdicts


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    expected = json.loads(EXPECTED.read_text())[name]
    assert _capture(COMMANDS[name]) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_parser_keeps_no_state_between_commands(seed):
    """One process, one parser: every golden command in a shuffled
    order, then a usage error and a command that leans on defaults
    right after one that overrode them."""
    assert build_parser() is build_parser()
    expected = json.loads(EXPECTED.read_text())
    names = sorted(COMMANDS)
    random.Random(seed).shuffle(names)
    for name in names:
        assert _capture(COMMANDS[name]) == expected[name], name
    usage = _capture("chi c5.mg --budget 0")
    assert usage["exit"] == 2
    assert usage["stdout"] == ""
    assert usage["stderr"].startswith("usage: mixedgraphs chi")
    assert _capture("chi c5.mg --budget 5 --format records")["stdout"].startswith("{")
    assert _capture("chi c5.mg") == expected["chi-c5"]


# Runs every command given on stdin as {name: argv} through ``cli.run`` in
# one process and prints {name: {"exit", "stdout", "stderr"}} as JSON.
_DRIVER = """
import contextlib, io, json, sys
from mixedgraphs.cli import run
results = {}
for name, argv in json.load(sys.stdin).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    results[name] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
print(json.dumps(results))
"""


def _python(version: tuple[str, str]) -> str | None:
    """The interpreter ``python3.N`` on PATH for ``version`` ("3", "N"), if
    it runs and is that version; a version manager's shim with no such
    version selected fails the probe."""
    exe = shutil.which("python" + ".".join(version))
    if exe is None:
        return None
    probe = subprocess.run(
        [exe, "-c", "import sys; print(*sys.version_info[:2])"],
        capture_output=True, text=True, timeout=60,
    )
    return exe if probe.stdout.split() == list(version) else None


# the oldest Python that pyproject.toml allows (3.10 for ">=3.10"), and the
# newest whose random stream ``targets._randrange_run`` documents as checked
_OLDEST = re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
).groups()
_NEWEST = re.search(
    r"\(\d+\.\d+-(\d+)\.(\d+)\)", targets._randrange_run.__doc__
).groups()


@pytest.mark.parametrize(
    "version",
    [pytest.param(_OLDEST, id="oldest"), pytest.param(_NEWEST, id="newest")],
)
def test_golden_output_under_the_supported_pythons(version):
    exe = _python(version)
    if exe is None:
        pytest.skip(f"no working python{'.'.join(version)} on PATH")
    src = Path(mixedgraphs.__file__).resolve().parents[1]
    done = subprocess.run(
        [exe, "-c", _DRIVER],
        input=json.dumps({name: _argv(command) for name, command in COMMANDS.items()}),
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    expected = json.loads(EXPECTED.read_text())
    assert sorted(results) == sorted(expected)
    for name in sorted(expected):
        assert results[name] == expected[name], name


if __name__ == "__main__":
    old = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    results = {name: _capture(command) for name, command in sorted(COMMANDS.items())}
    for name in sorted(old.keys() | results.keys()):
        if name not in results:
            print(f"removed {name}", file=sys.stderr)
        elif name not in old:
            print(f"added {name}", file=sys.stderr)
        elif old[name] != results[name]:
            print(f"changed {name}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} outputs to {EXPECTED}", file=sys.stderr)
