"""Command-line interface.

Subcommands mirror the library: queries (check-vd, cover-ideal,
symbolic-power, polarize, linear-quotients), theorem verification
(verify main|edge|glue|star), and the small-graph counterexample search.

Exit codes: 0 when every check passed, 1 when an assertion or decision
failed (a graph that is not vertex decomposable, an ideal without linear
quotients, a failing verification step), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .decomposability import is_vertex_decomposable, render_certificate, vertex_decomposable
from .duplication import MAX_MULTIPLICITY, parse_tuple
from .graphs import GraphError, StarCompleteSpec, add_whiskers, load_graph
from .ideals import (
    IdealError,
    has_linear_quotients,
    load_ideal,
    polarize,
    render_ideal_text,
    symbolic_power,
)
from .ideals import cover_ideal as cover_ideal_of
from .scenarios import (
    ScenarioReport,
    counterexample_search,
    verify_edge_theorem,
    verify_glue_star,
    verify_glue_theorem,
    verify_main_theorem,
)

PASS, FAIL, USAGE = 0, 1, 2

# the largest --spec clique size: a clique of s vertices has s(s - 1)/2
# edges before duplication, so time and memory grow with s^2 and more.
# verify star on c4.graph with one clique of 500 takes 0.3 s at --k 1 and
# 0.6 s at --k 2 (1,000: 1.4 s and 2.7 s), on a 2-vCPU host
MAX_CLIQUE_SIZE = 500


def _parse_names(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def _bounded(value: int, flag: str, bound: int = MAX_MULTIPLICITY) -> int:
    if value > bound:
        raise GraphError(f"{flag} value {value} is above {bound}")
    return value


def _parse_counts(text: str | None) -> dict[str, int] | int:
    if not text:
        return 1
    out: dict[str, int] = {}
    for item in _parse_names(text):
        name, _, raw = item.partition("=")
        if name in out:
            raise GraphError(f"--counts names vertex {name!r} twice")
        try:
            count = int(raw)
        except ValueError:
            raise GraphError(f"counts entry {item!r} must look like vertex=count") from None
        out[name] = _bounded(count, "--counts")
    return out


def _parse_spec(text: str) -> StarCompleteSpec:
    name, _, sizes = text.partition(":")
    try:
        parsed = tuple(int(s) for s in sizes.split(","))
    except ValueError:
        raise GraphError(f"attachment {text!r} must look like vertex:size,size") from None
    return StarCompleteSpec(
        name, tuple(_bounded(size, "--spec", MAX_CLIQUE_SIZE) for size in parsed))


def _emit(fmt: str, doc: object, text: str) -> None:
    """Print one result: ``doc`` as indented JSON, or ``text`` as it stands."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text, end="")


def _emit_reports(reports: list[ScenarioReport], fmt: str) -> None:
    """Print the reports in the order given, which for a search is enumeration order."""
    if fmt == "json":
        _emit(fmt, [r.to_json_dict() for r in reports], "")
    else:
        for report in reports:  # one at a time: joined texts would raise peak memory
            _emit(fmt, None, report.to_text())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a small query."""
    parser = argparse.ArgumentParser(
        prog="symcover",
        description="cover ideals, symbolic powers, duplication, and vertex decomposability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-vd", help="decide vertex decomposability of a graph file")
    p.add_argument("graph")
    p.add_argument("--certificate", action="store_true", help="print a shedding vertex for each component")
    add_format(p)

    p = sub.add_parser("cover-ideal", help="minimal generators of the cover ideal")
    p.add_argument("graph")
    add_format(p)

    p = sub.add_parser("symbolic-power", help="minimal generators of a symbolic power")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    add_format(p)

    p = sub.add_parser("polarize", help="polarize an ideal file")
    p.add_argument("ideal")
    add_format(p)

    p = sub.add_parser("linear-quotients", help="search for a linear-quotients order")
    p.add_argument("ideal")
    add_format(p)

    p = sub.add_parser("verify", help="run a theorem-shaped scenario")
    p.add_argument("theorem", choices=("main", "edge", "glue", "star"))
    p.add_argument("--graph", required=True)
    p.add_argument("--graph2", help="second factor (glue only)")
    p.add_argument("--edge", help="shared edge u,v (glue only)")
    p.add_argument("--S", default="", help="comma-separated vertex set")
    p.add_argument("--counts", help="whiskers per vertex, e.g. x1=2,x3=1")
    p.add_argument("--tuple", help="duplication tuple, e.g. 1,2,3,2")
    p.add_argument("--tuple2", help="duplication tuple of the second factor (glue only)")
    p.add_argument("--k", type=int,
                   help="duplication bound (main/star, default 2), or the constant tuple "
                        "filling a tuple not given (edge/glue)")
    p.add_argument("--spec", action="append", default=[],
                   help="star attachment vertex:size,size (repeatable)")
    add_format(p)

    p = sub.add_parser("search", help="stream edge cases over small graphs")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--mode", choices=("i", "ii"), required=True)
    add_format(p)

    return parser


def _run_check_vd(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    if args.certificate:
        cert = is_vertex_decomposable(graph)
        verdict = cert is not None
    else:  # the verdict alone never builds the certificate
        verdict = vertex_decomposable(graph)
    doc = {"vertex_decomposable": verdict}
    text = f"vertex decomposable: {'yes' if verdict else 'no'}\n"
    if verdict and args.certificate:
        doc["certificate"] = render_certificate(cert)
        text += "".join(f"{line}\n" for line in doc["certificate"].splitlines())
    _emit(args.format, doc, text)
    return PASS if verdict else FAIL


def _print_ideal(ideal, fmt: str) -> None:
    doc = {
        "variables": list(ideal.variables),
        "whole_ring": ideal.is_whole_ring,
        "generators": [g.render(ideal.variables) for g in ideal.generators],
    }
    _emit(fmt, doc, render_ideal_text(ideal))


def _run_verify(args: argparse.Namespace) -> int:
    reads = {"main": ("S", "counts"), "edge": ("S", "counts", "tuple"), "star": ("S", "spec"),
             "glue": ("graph2", "edge", "tuple", "tuple2")}[args.theorem]
    # a flag is given when it differs from its default, so an explicitly
    # empty value counts; --S and --spec default to "" and [], the rest to None
    defaults = {"S": "", "spec": []}
    for flag in ("S", "counts", "tuple", "spec", "graph2", "edge", "tuple2"):
        if getattr(args, flag) != defaults.get(flag) and flag not in reads:
            raise GraphError(f"--{flag} does not apply to verify {args.theorem}")
    tuples = {"edge": (args.tuple,), "glue": (args.tuple, args.tuple2)}.get(args.theorem)
    if args.k is not None and tuples and None not in tuples:
        raise GraphError(f"--k does not apply to verify {args.theorem} when every tuple is given")
    k = 2 if args.k is None else _bounded(args.k, "--k")
    graph = load_graph(args.graph)
    names = _parse_names(args.S)
    counts = _parse_counts(args.counts)

    def tuple_for(raw: str | None, edge_count: int) -> tuple[int, ...]:
        # a tuple can be spelled out or given as --k for the constant tuple
        return (k,) * edge_count if raw is None else parse_tuple(raw)

    if args.theorem == "main":
        report = verify_main_theorem(graph, names, counts, k_max=k)
    elif args.theorem == "edge":
        whiskered_edges = add_whiskers(graph, names, counts).graph.edge_count
        report = verify_edge_theorem(graph, names, counts,
                                     tuple_for(args.tuple, whiskered_edges))
    elif args.theorem == "star":
        specs = [_parse_spec(s) for s in args.spec]
        report = verify_glue_star(graph, names, specs, k_max=k)
    else:
        if not (args.graph2 and args.edge):
            raise GraphError("verify glue needs --graph2 and --edge")
        ends = args.edge.split(",")
        if len(ends) != 2 or not all(ends):
            raise GraphError("--edge must look like u,v")
        u, v = ends
        h = load_graph(args.graph2)
        report = verify_glue_theorem(graph, h, (u, v), tuple_for(args.tuple, graph.edge_count),
                                     tuple_for(args.tuple2, h.edge_count))
    _emit(args.format, report.to_json_dict(), report.to_text())
    return PASS if report.overall_pass else FAIL


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check-vd":
            return _run_check_vd(args)
        if args.command == "cover-ideal":
            _print_ideal(cover_ideal_of(load_graph(args.graph)), args.format)
            return PASS
        if args.command == "symbolic-power":
            k = _bounded(args.k, "--k")
            _print_ideal(symbolic_power(load_graph(args.graph), k), args.format)
            return PASS
        if args.command == "polarize":
            _print_ideal(polarize(load_ideal(args.ideal)), args.format)
            return PASS
        if args.command == "linear-quotients":
            ideal = load_ideal(args.ideal)
            order = has_linear_quotients(ideal)
            found = order is not None
            rendered = [g.render(ideal.variables) for g in order] if found else None
            text = "".join(f"{line}\n" for line in
                           [f"linear quotients: {'yes' if found else 'no'}", *(rendered or ())])
            _emit(args.format, {"has_linear_quotients": found, "order": rendered}, text)
            return PASS if found else FAIL
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "search":
            reports = list(counterexample_search(args.max_vertices, args.max_k, args.mode))
            _emit_reports(reports, args.format)
            return PASS
        raise AssertionError(f"unhandled command {args.command}")
    except (GraphError, IdealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
