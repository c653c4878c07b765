"""Command line interface.

Exit codes: 0 success or verified; 1 property violated, bound missed, or
nothing found; 2 usage or input error; 3 search budget exhausted.  ``-``
(the default for most graph arguments) reads from stdin.  Witness data
(colorings, forest assignments) rides inside graph files as sidecar
lines, so any witness written with ``-o`` re-verifies later from that
file alone via the matching ``--check``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Iterable

from . import bounds as bounds_mod
from . import fileio, verification
from .core import ColorSignature, _require_per_vertex
from .constructions import build_hk, build_special_gadget, hk_acyclic_coloring
from .decomposition import (
    ForestDecomposition,
    _forest_partition,
    acyclic_chromatic_number,
    acyclic_from_homomorphisms,
    check_acyclic_coloring,
    check_forest_decomposition,
    digit_graphs,
    greedy_forests,
)
from .solver import (
    ChromaticResult,
    Homomorphism,
    Partition,
    check_homomorphism,
    check_partition,
    chromatic_number,
    find_homomorphism,
    special_clique,
)
from .targets import (
    CompleteMixedTarget,
    PropertySpec,
    PropertyViolatedError,
    check_property_q,
    extend_regular,
    greedy_homomorphism,
    sample_complete,
    search_q_target,
)

OK, VIOLATED, USAGE, BUDGET = 0, 1, 2, 3

_SELF = "<input>"


def _positive(text: str) -> int:
    """argparse type of budgets and attempt counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


class _Output:
    """Collects either human text lines or JSON record lines."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.records = getattr(args, "format", "text") == "records"

    def emit(self, record: dict, text: str | Iterable[str]) -> None:
        if self.records:
            print(json.dumps(record, sort_keys=True))
        elif isinstance(text, str):
            print(text)
        else:
            for line in text:
                print(line)

    def verdict(self, noun: str, failure: str | None, summary: str = "", **fields) -> int:
        """Emit the outcome of a --check audit: valid, or invalid with the reason."""
        record = f"{self.command}-check"
        if failure is not None:
            self.emit(
                {"record": record, "valid": False, "reason": failure},
                f"{noun} invalid: {failure}",
            )
            return VIOLATED
        self.emit(
            {"record": record, "valid": True, **fields},
            f"{noun} valid: {summary}" if summary else f"{noun} valid",
        )
        return OK


def _read_text(path: str) -> str:
    """The text of the file at ``path``, or of stdin for ``-``."""
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _read_document(path: str) -> fileio.GraphDocument:
    return fileio.loads(_read_text(path))


def _write_graph(args: argparse.Namespace, graph, **sidecars) -> None:
    """Write ``graph`` and its sidecar lines to ``-o`` (``-`` is stdout), if given."""
    if args.output == "-":
        sys.stdout.write(fileio.dumps(graph, **sidecars))
    elif args.output is not None:
        Path(args.output).write_text(fileio.dumps(graph, **sidecars))


def _sidecar(args: argparse.Namespace, doc: fileio.GraphDocument, lines: str) -> dict:
    """The color or forest lines that --check audits (default: the input's)."""
    witness = doc if args.check == _SELF else _read_document(args.check)
    found = witness.coloring if lines == "color" else witness.forests
    if not found:
        raise ValueError(f"--check needs a file with {lines} lines")
    return found


def _emit_coloring(
    args, out: _Output, doc, record: dict, lines: list[str], coloring: dict[int, int]
) -> None:
    """Emit a result and its witness coloring, spelled three ways: ``color``
    lines after ``lines`` in text, a ``witness`` list in ``record``, and
    the input graph with that coloring written to ``-o``."""
    order = sorted(coloring)
    if not out.records:
        lines = lines + [f"color {v} {coloring[v]}" for v in order]
    out.emit({**record, "witness": [coloring[v] for v in order]}, lines)
    _write_graph(args, doc.graph, coloring=coloring)


def _emit_search(
    args, out: _Output, doc, result: ChromaticResult, title: str, first_color: int
) -> int:
    """Emit an exact result through ``_emit_coloring``, its blocks numbered
    from ``first_color``, or the bounds an exhausted search reached."""
    if not result.exact:
        out.emit(
            {
                "record": args.command,
                "exact": False,
                "lower": result.lower,
                "upper": result.upper,
                "nodes": result.nodes,
            },
            f"budget exhausted after {result.nodes} nodes: "
            f"bounds [{result.lower}, {result.upper}]",
        )
        return BUDGET
    coloring = {v: b + first_color for v, b in result.witness.block_of().items()}
    record = {"record": args.command, "exact": True, "k": result.k, "nodes": result.nodes}
    _emit_coloring(args, out, doc, record, [f"{title} {result.k}"], coloring)
    return OK


def _map_lines(out: _Output, hom: Homomorphism) -> list[str]:
    """The ``map u x`` lines of ``fileio.dumps_mapping``; none for records output."""
    return [] if out.records else fileio.dumps_mapping(hom.as_dict()).splitlines()


def _forest_decomposition(doc: fileio.GraphDocument) -> ForestDecomposition:
    """The input's forest lines (as ``arb -o`` writes them), else the fewest forests."""
    if doc.forests:
        return ForestDecomposition.from_assignment(doc.forests)
    return greedy_forests(doc.graph)


# ---------------------------------------------------------------------------


def _cmd_chi(args: argparse.Namespace, out: _Output) -> int:
    doc = _read_document(args.graph)
    if args.check is not None:
        coloring = _sidecar(args, doc, "color")
        _require_per_vertex(coloring, doc.graph.order, "coloring")
        partition = Partition.from_coloring(coloring)
        failure = check_partition(doc.graph, partition)
        return out.verdict("partition", failure, f"{partition.k} classes", k=partition.k)
    if args.lower_only:
        clique = sorted(special_clique(doc.graph))
        out.emit(
            {"record": "chi-lower", "size": len(clique), "clique": clique},
            f"chromatic number >= {len(clique)} (special clique {clique})",
        )
        return OK
    result = chromatic_number(doc.graph, budget=args.budget)
    return _emit_search(args, out, doc, result, "chromatic number", 0)


def _cmd_hom(args: argparse.Namespace, out: _Output) -> int:
    source = _read_document(args.source).graph
    target = _read_document(args.target).graph
    if args.check is not None:
        mapping = fileio.loads_mapping(_read_text(args.check))
        _require_per_vertex(mapping, source.order, "map")
        failure = check_homomorphism(
            source, target, [mapping[v] for v in range(source.order)]
        )
        return out.verdict("homomorphism", failure)
    hom = find_homomorphism(source, target)
    if hom is None:
        out.emit({"record": "hom", "found": False}, "no homomorphism exists")
        return VIOLATED
    out.emit(
        {"record": "hom", "found": True, "mapping": list(hom.mapping)},
        _map_lines(out, hom),
    )
    return OK


def _cmd_arb(args: argparse.Namespace, out: _Output) -> int:
    doc = _read_document(args.graph)
    if args.check is not None:
        fd = ForestDecomposition.from_assignment(_sidecar(args, doc, "forest"))
        failure = check_forest_decomposition(doc.graph, fd)
        return out.verdict("decomposition", failure, f"{fd.count} forests", forests=fd.count)
    fd, densest = _forest_partition(doc.graph)
    lines = [f"arboricity {fd.count}"]
    if densest is not None:
        lines.append(f"# densest subset {list(densest)}")
    lines.append(f"# greedy decomposition uses {fd.count} forests")
    out.emit(
        {
            "record": "arb",
            "exact": True,
            "arboricity": fd.count,
            "densest": list(densest) if densest is not None else None,
            "greedy_forests": fd.count,
        },
        lines,
    )
    _write_graph(args, doc.graph, forests=dict(fd.assignment))
    return OK


def _cmd_acyclic(args: argparse.Namespace, out: _Output) -> int:
    doc = _read_document(args.graph)
    if args.check is not None:
        coloring = _sidecar(args, doc, "color")
        failure = check_acyclic_coloring(doc.graph, coloring)
        k = len(set(coloring.values()))
        return out.verdict("acyclic coloring", failure, f"{k} colors", k=k)
    result = acyclic_chromatic_number(doc.graph, budget=args.budget)
    return _emit_search(args, out, doc, result, "acyclic chromatic number", 1)


def _cmd_gen(args: argparse.Namespace, out: _Output) -> int:
    sig = ColorSignature(*args.sig)
    if args.family == "hk":
        h = build_hk(sig, args.k)
        comments = [
            f"tightness construction: k={args.k}, signature {sig}",
            f"order {h.graph.order}; color lines give the acyclic {args.k}-coloring",
        ]
        comments.extend(
            f"role {v} {' '.join(str(part) for part in h.roles[v])}"
            for v in sorted(h.roles)
        )
        _write_graph(args, h.graph, coloring=hk_acyclic_coloring(h), comments=comments)
    else:
        g = build_special_gadget(sig, args.t)
        comments = [
            f"subdivided K_{args.t}: branch vertices 0..{args.t - 1}, "
            f"internal vertices {args.t}..{g.order - 1}",
        ]
        _write_graph(args, g, comments=comments)
    return OK


def _cmd_digits(args: argparse.Namespace, out: _Output) -> int:
    doc = _read_document(args.graph)
    fd = _forest_decomposition(doc)
    layers = digit_graphs(doc.graph, fd)
    paths = []
    for i, layer in enumerate(layers):
        path = f"{args.out_prefix}{i}.mg"
        fileio.dump(path, layer, comments=[f"digit layer {i} of {len(layers) - 1}"])
        paths.append(path)
    out.emit(
        {
            "record": "digits",
            "forests": fd.count,
            "layers": len(layers),
            "files": paths,
        },
        [f"forests {fd.count}", f"layers {len(layers)}"]
        + [f"wrote {p}" for p in paths],
    )
    return OK


def _cmd_pipeline(args: argparse.Namespace, out: _Output) -> int:
    doc = _read_document(args.graph)
    fd = _forest_decomposition(doc)
    result = acyclic_from_homomorphisms(doc.graph, fd, hom_budget=args.budget)
    if result.exact:
        key, layers = "layer_chromatics", [layer.k for layer in result.layers]
        summary = f"layer chromatic numbers {layers}"
    else:
        key, layers = "layer_bounds", [[layer.lower, layer.upper] for layer in result.layers]
        summary = f"budget exhausted: layer chromatic bounds {layers}"
    record = {
        "record": "acyclic-pipeline",
        "palette": result.palette,
        "forests": result.forest_count,
        key: layers,
    }
    lines = [
        f"palette {result.palette}",
        f"# forests {result.forest_count}, digit layers {len(result.layers)}, {summary}",
    ]
    _emit_coloring(args, out, doc, record, lines, result.colors)
    return OK if result.exact else BUDGET


def _cmd_sample_target(args: argparse.Namespace, out: _Output) -> int:
    target = sample_complete(ColorSignature(*args.sig), args.order, args.seed)
    _write_graph(args, target.graph, seed=target.seed)
    return OK


def _parse_property(args: argparse.Namespace) -> PropertySpec:
    minimums = tuple(int(x) for x in args.min.split(","))
    return PropertySpec(args.tuples, minimums)


def _cmd_check_q(args: argparse.Namespace, out: _Output) -> int:
    target = CompleteMixedTarget(_read_document(args.graph).graph)
    spec = _parse_property(args)
    violation = check_property_q(target, spec)
    if violation is None:
        out.emit(
            {"record": "check-q", "holds": True},
            f"adjacency property holds (tuples up to {spec.t})",
        )
        return OK
    out.emit(
        {
            "record": "check-q",
            "holds": False,
            "vertices": list(violation.vertices),
            "kinds": [str(k) for k in violation.kinds],
            "count": violation.count,
            "required": violation.required,
        },
        f"property violated: {violation}",
    )
    return VIOLATED


def _cmd_search_q(args: argparse.Namespace, out: _Output) -> int:
    sig = ColorSignature(*args.sig)
    spec = _parse_property(args)
    found = search_q_target(sig, args.order, spec, args.attempts, args.seed)
    if found is None:
        out.emit(
            {"record": "search-q", "found": False, "attempts": args.attempts},
            f"no satisfying target in {args.attempts} attempts",
        )
        return VIOLATED
    out.emit(
        {"record": "search-q", "found": True, "seed": found.seed},
        f"found target (derived seed {found.seed})",
    )
    _write_graph(args, found.graph, seed=found.seed)
    return OK


def _cmd_greedy_hom(args: argparse.Namespace, out: _Output) -> int:
    source = _read_document(args.source).graph
    target = CompleteMixedTarget(_read_document(args.target).graph)
    try:
        embedding = greedy_homomorphism(source, target)
    except PropertyViolatedError as exc:
        out.emit(
            {
                "record": "greedy-hom",
                "found": False,
                "vertex": exc.vertex,
                "images": list(exc.images),
                "kinds": [str(k) for k in exc.kinds],
            },
            f"property violated: {exc}",
        )
        return VIOLATED
    lines = _map_lines(out, embedding.homomorphism)
    lines.append(
        f"# degeneracy {embedding.degeneracy}, "
        f"{len(embedding.steps)} placements, all verified"
    )
    out.emit(
        {
            "record": "greedy-hom",
            "found": True,
            "mapping": list(embedding.homomorphism.mapping),
            "degeneracy": embedding.degeneracy,
        },
        lines,
    )
    return OK


def _cmd_extend_regular(args: argparse.Namespace, out: _Output) -> int:
    source = _read_document(args.source).graph
    target = CompleteMixedTarget(_read_document(args.target).graph)
    try:
        extended, hom = extend_regular(source, target)
    except PropertyViolatedError as exc:
        out.emit(
            {"record": "extend-regular", "found": False, "vertex": exc.vertex},
            f"property violated: {exc}",
        )
        return VIOLATED
    lines = [f"extended target order {extended.order}"]
    lines.extend(_map_lines(out, hom))
    out.emit(
        {
            "record": "extend-regular",
            "found": True,
            "order": extended.order,
            "mapping": list(hom.mapping),
        },
        lines,
    )
    _write_graph(args, extended.graph)
    return OK


# the closed-form ``bounds`` subcommands: name -> (arity, help, function)
_BOUNDS = {
    "nr-upper": (2, "K P: chromatic bound k p^(k-1)", bounds_mod.nr_upper),
    "planar-upper": (1, "P: chromatic bound 5 p^4", bounds_mod.planar_upper),
    "arb-upper": (
        2, "K P: arboricity bound ceil(log_p k + k/2)", bounds_mod.arb_upper_from_chi
    ),
    "acyclic-upper-arb": (
        3, "K R P: acyclic bound k^(ceil_log(p,r)+1)", bounds_mod.acyclic_upper_from_arb
    ),
    "acyclic-upper-chi": (
        2,
        "K P: acyclic bound k^2 + k^(2+ceil(log_p log_p k))",
        bounds_mod.acyclic_upper_from_chi,
    ),
    "degree": (2, "DELTA P: chromatic bounds from maximum degree", bounds_mod.degree_bounds),
}


def _cmd_bounds(args: argparse.Namespace, out: _Output) -> int:
    name = args.bound
    value = _BOUNDS[name][2](*args.params)
    with bounds_mod._exact_digits():  # the values print in full
        if name == "degree":
            fields = {
                "lower": value.lower,
                "lower_exact": value.lower_exact,
                "upper": value.upper,
                "upper_applies": value.upper is not None,
            }
            text = (
                f"lower {value.lower}"
                + (" (exact power)" if value.lower_exact else " (ceiling)")
                + (
                    f", upper {value.upper}"
                    if value.upper is not None
                    else ", upper needs maximum degree >= 5"
                )
            )
        else:
            fields, text = {"value": value}, f"{name} = {value}"
        out.emit({"record": "bounds", "bound": name, **fields}, text)
    return OK


def _cmd_counting(args: argparse.Namespace, out: _Output) -> int:
    doc = _read_document(args.graph)
    report = bounds_mod.counting_inequality_check(doc.graph, args.k)
    with bounds_mod._exact_digits():
        out.emit(
            {
                "record": "counting",
                "satisfied": report.satisfied,
                "value": str(report.value),
                "compared": str(report.compared),
            },
            f"{report.detail}: "
            + (
                "holds"
                if report.satisfied
                else f"fails, so some coloring of the underlying graph has chi > {args.k}"
            ),
        )
    return OK


def _cmd_verify(args: argparse.Namespace, out: _Output) -> int:
    numbers = (
        tuple(int(x) for x in args.criteria.split(",")) if args.criteria else None
    )
    outcomes = verification.run_all(numbers)
    all_passed = True
    for outcome in outcomes:
        print(outcome.line())
        all_passed = all_passed and outcome.passed
    return OK if all_passed else VIOLATED


# ---------------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="output style: human text or one JSON record per line",
    )


def _add_graph(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", nargs="?", default="-", help="graph file, - = stdin")


def _add_sig(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sig",
        nargs=2,
        type=int,
        metavar=("M", "N"),
        required=True,
        help="signature: arc colors M, edge colors N",
    )


def _add_check(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--check",
        nargs="?",
        const=_SELF,
        metavar="WITNESS",
        help=f"audit {what} lines (from WITNESS, default the input) instead of solving",
    )


def _add_budget(parser: argparse.ArgumentParser, default: int, scope: str) -> None:
    parser.add_argument(
        "--budget",
        type=_positive,
        default=default,
        help=f"search nodes {scope} (default %(default)s); each block tried costs one "
        "node, forbidden ones too, so below about n*k/2 (n vertices, k colors) the "
        "search can end before its first coloring, and the witness is then the "
        "singletons (upper = n)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first call and shared afterwards.

    Nothing changes the parser once it is built, and ``parse_args``
    returns a fresh Namespace on every call, so one parser serves any
    number of ``run`` calls.  A new ``mixedgraphs`` process still builds
    it once; the saving is for callers that run many commands in one
    process (scripts, the bench, the golden test).
    """
    parser = argparse.ArgumentParser(
        prog="mixedgraphs",
        description="exact homomorphisms, chromatic numbers, and bounds "
        "for colored mixed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi", help="exact chromatic number with witness partition")
    _add_graph(p)
    _add_budget(p, 10_000_000, "before exit 3")
    p.add_argument(
        "--lower-only",
        action="store_true",
        help="report the special-clique bound only",
    )
    _add_check(p, "color")
    p.add_argument("-o", "--output", help="write graph plus witness coloring here")
    _add_format(p)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("hom", help="find or check a homomorphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument(
        "--check", metavar="MAPFILE", help="audit map lines instead of searching"
    )
    _add_format(p)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("arb", help="exact arboricity and the fewest forests")
    _add_graph(p)
    _add_check(p, "forest")
    p.add_argument("-o", "--output", help="write graph plus forest lines here")
    _add_format(p)
    p.set_defaults(func=_cmd_arb)

    p = sub.add_parser("acyclic", help="exact acyclic chromatic number")
    _add_graph(p)
    _add_budget(p, 5_000_000, "before exit 3")
    _add_check(p, "color")
    p.add_argument("-o", "--output", help="write graph plus witness coloring here")
    _add_format(p)
    p.set_defaults(func=_cmd_acyclic)

    p = sub.add_parser("gen", help="generate a named construction")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("hk", help="the tightness construction")
    g.add_argument("k", type=int)
    _add_sig(g)
    g.add_argument("-o", "--output", default="-", help="write here instead of stdout")
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser(
        "gadget", help="K_t with every edge subdivided into a special 2-path"
    )
    g.add_argument("t", type=int)
    _add_sig(g)
    g.add_argument("-o", "--output", default="-", help="write here instead of stdout")
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "digits", help="write the digit layer graphs of the input's forest lines, "
        "as arb -o writes them (default: the fewest forests)"
    )
    _add_graph(p)
    p.add_argument(
        "-o", "--out-prefix", required=True, help="layer files get this prefix"
    )
    _add_format(p)
    p.set_defaults(func=_cmd_digits)

    p = sub.add_parser(
        "acyclic-pipeline", help="acyclic coloring via the layer homomorphisms of the "
        "input's forest lines (default: the fewest forests)"
    )
    _add_graph(p)
    _add_budget(p, 10_000_000, "for each digit layer's chromatic number")
    p.add_argument("-o", "--output", help="write graph plus coloring here")
    _add_format(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("sample-target", help="sample a random complete target")
    _add_sig(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default="-", help="write here instead of stdout")
    p.set_defaults(func=_cmd_sample_target)

    p = sub.add_parser(
        "check-q", help="audit the adjacency property of a complete target"
    )
    _add_graph(p)
    p.add_argument("--tuples", type=int, required=True, help="largest tuple length t")
    p.add_argument(
        "--min", required=True, help="comma list of minimums g(0),...,g(t)"
    )
    _add_format(p)
    p.set_defaults(func=_cmd_check_q)

    p = sub.add_parser("search-q", help="sample targets until the property holds")
    _add_sig(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--tuples", type=int, required=True)
    p.add_argument("--min", required=True)
    p.add_argument("--attempts", type=_positive, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", help="write the found target here")
    _add_format(p)
    p.set_defaults(func=_cmd_search_q)

    p = sub.add_parser("greedy-hom", help="greedy embedding into a complete target")
    p.add_argument("source")
    p.add_argument("target")
    _add_format(p)
    p.set_defaults(func=_cmd_greedy_hom)

    p = sub.add_parser(
        "extend-regular", help="embed a regular graph, growing the target by 2"
    )
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("-o", "--output", help="write the extended target here")
    _add_format(p)
    p.set_defaults(func=_cmd_extend_regular)

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    bounds_sub = p.add_subparsers(dest="bound", required=True)
    for name, (arity, helptext, _) in _BOUNDS.items():
        b = bounds_sub.add_parser(name, help=helptext)
        b.add_argument("params", nargs=arity, type=int, metavar="N")
        _add_format(b)
        b.set_defaults(func=_cmd_bounds)
    b = bounds_sub.add_parser(
        "counting",
        help="GRAPH K: bound on the colorings of the underlying graph with chi <= k",
    )
    _add_graph(b)
    b.add_argument("k", type=int)
    _add_format(b)
    b.set_defaults(func=_cmd_counting)

    p = sub.add_parser("verify-paper", help="run the acceptance criteria")
    p.add_argument(
        "--criteria", help="comma list of criterion numbers (default: all)"
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args, _Output(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
