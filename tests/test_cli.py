import json
from pathlib import Path

import pytest

from mixedgraphs import arc_out, core, fileio, paley_tournament
from mixedgraphs.cli import run

C5 = "mixedgraph 1\nsignature 1 0\nvertices 5\na 0 1 1\na 1 2 1\na 2 3 1\na 3 4 1\na 4 0 1\n"
P4 = "mixedgraph 1\nsignature 1 0\nvertices 4\na 0 1 1\na 1 2 1\na 2 3 1\n"


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.mg"
    path.write_text(C5)
    return str(path)


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.mg"
    path.write_text(P4)
    return str(path)


def _records(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


# --- golden records: stable field names are a compatibility contract -----------


def test_chi_records_golden(c5, capsys):
    assert run(["chi", c5, "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert (
        out.strip()
        == '{"exact": true, "k": 5, "nodes": 14, "record": "chi", "witness": [0, 2, 1, 3, 4]}'
    )


def test_arb_records_golden(c5, capsys):
    assert run(["arb", c5, "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert (
        out.strip()
        == '{"arboricity": 2, "densest": [0, 1, 2, 3, 4], "exact": true, "greedy_forests": 2, "record": "arb"}'
    )


def test_bounds_records_golden(capsys):
    assert run(["bounds", "nr-upper", "5", "2", "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == '{"bound": "nr-upper", "record": "bounds", "value": 80}'


# --- witnesses re-verify from files alone ----------------------------------------


def test_chi_witness_roundtrip(c5, tmp_path, capsys):
    out = str(tmp_path / "witness.mg")
    assert run(["chi", c5, "-o", out]) == 0
    assert run(["chi", out, "--check"]) == 0
    assert "partition valid: 5 classes" in capsys.readouterr().out


def test_acyclic_witness_roundtrip(c5, tmp_path, capsys):
    out = str(tmp_path / "witness.mg")
    assert run(["acyclic", c5, "-o", out]) == 0
    assert run(["acyclic", out, "--check"]) == 0
    assert "acyclic coloring valid" in capsys.readouterr().out


def test_arb_witness_roundtrip(c5, tmp_path, capsys):
    out = str(tmp_path / "forests.mg")
    assert run(["arb", c5, "-o", out]) == 0
    assert run(["arb", out, "--check"]) == 0
    assert "decomposition valid: 2 forests" in capsys.readouterr().out


def test_check_accepts_a_separate_witness_file(c5, tmp_path, capsys):
    witness = str(tmp_path / "w.mg")
    assert run(["chi", c5, "-o", witness]) == 0
    assert run(["chi", c5, "--check", witness]) == 0


def test_hom_map_roundtrip(p4, c5, tmp_path, capsys):
    assert run(["hom", p4, c5]) == 0
    map_text = capsys.readouterr().out
    map_path = tmp_path / "map.txt"
    map_path.write_text(map_text)
    assert run(["hom", p4, c5, "--check", str(map_path)]) == 0


def test_bad_witness_is_rejected(c5, tmp_path, capsys):
    bad = tmp_path / "bad.mg"
    bad.write_text(C5 + "".join(f"color {v} 1\n" for v in range(5)))
    assert run(["chi", c5, "--check", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().out


# --- pipelines and generators ------------------------------------------------------


def test_gen_then_lower_bound(tmp_path, capsys):
    out = str(tmp_path / "h3.mg")
    assert run(["gen", "hk", "3", "--sig", "1", "0", "-o", out]) == 0
    assert run(["chi", out, "--lower-only"]) == 0
    assert "chromatic number >= 12" in capsys.readouterr().out


def test_gen_hk_file_carries_a_checkable_coloring(tmp_path, capsys):
    out = str(tmp_path / "h3.mg")
    assert run(["gen", "hk", "3", "--sig", "1", "0", "-o", out]) == 0
    assert run(["acyclic", out, "--check"]) == 0
    assert "3 colors" in capsys.readouterr().out


def test_gadget_generation(tmp_path, capsys):
    out = str(tmp_path / "s4.mg")
    assert run(["gen", "gadget", "4", "--sig", "1", "0", "-o", out]) == 0
    assert run(["arb", out]) == 0
    assert "arboricity 2" in capsys.readouterr().out


def test_digit_layers_and_pipeline(c5, tmp_path, capsys):
    prefix = str(tmp_path / "layer")
    assert run(["digits", c5, "-o", prefix, "--format", "records"]) == 0
    record = _records(capsys)[0]
    assert record["layers"] == 2
    assert run(["chi", record["files"][0]]) == 0
    capsys.readouterr()
    out = str(tmp_path / "colored.mg")
    assert run(["acyclic-pipeline", c5, "-o", out]) == 0
    assert "palette" in capsys.readouterr().out
    assert run(["acyclic", out, "--check"]) == 0


def test_exhausted_pipeline_writes_a_coloring_that_rechecks(tmp_path, capsys):
    # Layer searches cut by the budget still hand over their best
    # partitions: exit 3 with each layer's bounds, and the -o witness
    # re-verifies from its file alone.
    dense = str(Path(__file__).resolve().parent / "golden" / "dense.mg")
    out = str(tmp_path / "colored.mg")
    argv = ["acyclic-pipeline", dense, "--budget", "40", "-o", out, "--format", "records"]
    assert run(argv) == 3
    record = _records(capsys)[0]
    assert record["layer_bounds"] == [[5, 12], [5, 7], [6, 12]]
    assert run(["acyclic", out, "--check", "--format", "records"]) == 0
    assert _records(capsys)[0]["valid"]


def test_pipeline_accepts_forest_file(c5, tmp_path, capsys):
    forests = str(tmp_path / "fd.mg")
    assert run(["arb", c5, "-o", forests]) == 0
    capsys.readouterr()
    assert run(["acyclic-pipeline", c5, "--forests", forests]) == 0


def test_target_search_and_check(tmp_path, capsys):
    found = str(tmp_path / "t7.mg")
    code = run(
        [
            "search-q",
            "--sig", "1", "0",
            "--order", "7",
            "--tuples", "1",
            "--min", "1,3",
            "--attempts", "100",
            "--seed", "16",
            "-o", found,
        ]
    )
    assert code == 0
    assert run(["check-q", found, "--tuples", "1", "--min", "1,3"]) == 0
    capsys.readouterr()
    assert run(["check-q", found, "--tuples", "1", "--min", "1,4"]) == 1
    assert "property violated" in capsys.readouterr().out


def test_greedy_and_extension(p4, tmp_path, capsys):
    target = str(tmp_path / "t.mg")
    assert run(["sample-target", "--sig", "1", "0", "--order", "7", "--seed", "16000061", "-o", target]) == 0
    assert run(["greedy-hom", p4, target]) == 0
    assert "all verified" in capsys.readouterr().out
    k4 = tmp_path / "k4.mg"
    k4.write_text(
        "mixedgraph 1\nsignature 1 0\nvertices 4\n"
        "a 0 1 1\na 0 2 1\na 0 3 1\na 1 2 1\na 1 3 1\na 2 3 1\n"
    )
    extended = str(tmp_path / "bigger.mg")
    assert run(["extend-regular", str(k4), target, "-o", extended]) == 0
    assert "order 9" in capsys.readouterr().out


# --- exit codes ------------------------------------------------------------------


def test_exit_code_violated(tmp_path, c5):
    c3 = tmp_path / "c3.mg"
    c3.write_text("mixedgraph 1\nsignature 1 0\nvertices 3\na 0 1 1\na 1 2 1\na 2 0 1\n")
    assert run(["hom", c5, str(c3)]) == 1


def test_failed_counting_check_is_not_a_violation(tmp_path, capsys):
    # a (1,1) star: vertex 0 with six out-arcs of color 1, chi 2
    star = tmp_path / "star.mg"
    star.write_text(
        "mixedgraph 1\nsignature 1 1\nvertices 7\n"
        + "".join(f"a 0 {v} 1\n" for v in range(1, 7))
    )
    assert run(["bounds", "counting", str(star), "2"]) == 0
    assert capsys.readouterr().out.endswith(
        ": fails, so some coloring of the underlying graph has chi > 2\n"
    )
    assert run(["chi", str(star), "--format", "records"]) == 0
    assert _records(capsys)[0]["k"] == 2


def test_deep_searches_keep_the_exit_code_contract(tmp_path, capsys):
    # a 1500-vertex path is deeper than Python's default recursion limit
    path = tmp_path / "p1500.mg"
    path.write_text(
        "mixedgraph 1\nsignature 1 0\nvertices 1500\n"
        + "".join(f"a {i} {i + 1} 1\n" for i in range(1499))
    )
    qr7 = tmp_path / "qr7.mg"
    qr7.write_text(fileio.dumps(paley_tournament(7).graph))
    assert run(["chi", str(path), "--format", "records"]) == 0
    record = _records(capsys)[0]
    assert record["exact"] and record["k"] == 3
    assert run(["hom", str(path), str(qr7), "--format", "records"]) == 0
    record = _records(capsys)[0]
    assert record["found"] and len(record["mapping"]) == 1500
    assert run(["acyclic", str(path), "--format", "records"]) == 0
    record = _records(capsys)[0]
    assert record["exact"] and record["k"] == 2


def test_huge_signature_hom_and_pipeline_make_only_the_kinds_they_use(tmp_path, capsys):
    path = tmp_path / "huge.mg"
    path.write_text(
        "mixedgraph 1\nsignature 1000000000 0\nvertices 3\n"
        "a 0 1 1\na 1 2 999999937\n"
    )
    arc_out(1)  # the pipeline's layer 0 uses the first canonical kind
    before = len(core._interned)
    assert run(["hom", str(path), str(path), "--format", "records"]) == 0
    assert _records(capsys)[0]["mapping"] == [0, 1, 2]
    assert run(["acyclic-pipeline", str(path), "--format", "records"]) == 0
    assert _records(capsys)[0]["palette"] == 3
    assert len(core._interned) - before <= 2


def test_huge_signature_greedy_hom_and_extend_regular_make_few_kinds(tmp_path, capsys):
    arc = tmp_path / "arc.mg"
    arc.write_text("mixedgraph 1\nsignature 1000000000 0\nvertices 2\na 0 1 999999937\n")
    target = tmp_path / "target.mg"
    target.write_text(
        "mixedgraph 1\nsignature 1000000000 0\nvertices 3\n"
        "a 0 1 999999937\na 1 2 999999937\na 2 0 999999937\n"
    )
    arc_out(1)  # extend-regular fills the new pairs with the first canonical kind
    before = len(core._interned)
    assert run(["greedy-hom", str(arc), str(target), "--format", "records"]) == 0
    assert len(_records(capsys)[0]["mapping"]) == 2
    assert run(["extend-regular", str(arc), str(target), "--format", "records"]) == 0
    assert _records(capsys)[0]["mapping"] == [3, 4]
    assert len(core._interned) - before <= 2


def test_acyclic_upper_chi_answers_at_huge_p(capsys):
    # a search over powers of k would build 5**(10**9) here
    assert run(["bounds", "acyclic-upper-chi", "5", "1000000000"]) == 0
    assert capsys.readouterr().out == "acyclic-upper-chi = 50\n"


def test_exit_code_usage(tmp_path, capsys):
    assert run(["chi", str(tmp_path / "missing.mg")]) == 2
    bad = tmp_path / "bad.mg"
    bad.write_text("mixedgraph 1\nsignature 1 0\nvertices 2\ne 0 1 1\n")
    assert run(["chi", str(bad)]) == 2
    assert run(["nonsense"]) == 2
    assert run(["search-q", "--sig", "1", "0", "--order", "5", "--tuples", "1", "--min", "1,1", "--attempts", "5"]) == 2


@pytest.mark.parametrize("hint", ["--lower-hint", "--upper-hint"])
def test_chi_has_no_hint_options(hint, c5, capsys):
    assert run(["chi", c5, hint, "3"]) == 2


def test_exit_code_budget(c5):
    assert run(["chi", c5, "--budget", "2"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        *(
            [command, "GRAPH", "--budget", value]
            for command in ("chi", "acyclic", "acyclic-pipeline")
            for value in ("0", "-5")
        ),
        ["search-q", "--sig", "1", "0", "--order", "5", "--tuples", "1",
         "--min", "1,1", "--attempts", "0", "--seed", "1"],
    ],
)
def test_negative_budget_is_a_usage_error(argv, c5, capsys):
    assert run([c5 if word == "GRAPH" else word for word in argv]) == 2
    assert "positive" in capsys.readouterr().err


def test_stdin_input(c5, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(C5))
    assert run(["chi", "--lower-only"]) == 0
    assert "chromatic number >=" in capsys.readouterr().out


def test_self_check_reads_stdin_once(capsys, monkeypatch):
    import io

    coloring = "".join(f"color {v} {v + 1}\n" for v in range(5))
    monkeypatch.setattr("sys.stdin", io.StringIO(C5 + coloring))
    assert run(["chi", "--check"]) == 0
    assert "partition valid: 5 classes" in capsys.readouterr().out


def test_verify_subcommand_rejects_unknown_numbers(capsys):
    assert run(["verify-paper", "--criteria", "12"]) == 2
    assert "no criterion" in capsys.readouterr().err
