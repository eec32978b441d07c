"""Command-line front end.

Subcommands: classify, sweep, cms, catalog {bootstrap, validate, show},
roots.  Reports are JSON on stdout with a stable key layout; the sweep
prints a summary and can write its text report.  Exit codes: 0 success,
agreement or a stdout closed by its reader, 1 verified mismatch or
internal error, 2 usage error, 3 I/O error.

When the first argument is a subcommand, a call builds only that
subcommand's parser, a fraction of the full tree's cost.  Anything
else (help, no command, an unknown one, a top-level option such as
``--catalog PATH`` first), and an argument that parser leaves over, goes
to the full tree, so every help text and usage error reads as the full
parser's.

Only ``sweep`` and ``catalog bootstrap`` import ``coline.sweep``: the
other commands run on the decision layer and the oracles alone.  A plain
``classify`` builds only what its report reads: the canonical id is
written from the labeller's vertex order, co(G)'s components are counted
without building its rows, and ``coline(g)`` is built under ``--verify``
alone, for the exact oracles.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import suppress

from . import __version__, characterize, oracle
from .characterize import CATALOG_FORMAT, CatalogError, ScopeError
from .graph6 import emit_graph6, parse_edge_list, parse_graph6
from .graphcore import Graph, build_named, coline, coline_components

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The coline of an m-edge graph has m vertices; the exact oracles are
# practical up to about 16.
VERIFY_MAX_EDGES = 16


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph6", help="graph6-encoded input graph")
    group.add_argument("-i", "--input", help="edge-list file ('u v' per line, '#' comments, optional 'n=<count>')")
    group.add_argument("--named", help="named construction, e.g. K5, C4+K2, K1_4")


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.named is not None:
        return build_named(args.named)
    with open(args.input, "r", encoding="ascii") as handle:
        return parse_edge_list(handle.read())


def _verdict_json(verdict: characterize.ClauseVerdict) -> dict:
    return {
        "value": verdict.value,
        "clause": verdict.clause,
        "all_matches": list(verdict.all_matches),
    }


def _oracle_json(l: Graph, decision: characterize.DecisionReport | None) -> dict:
    """The exact oracles on the coline ``l``.  Against in-scope verdicts each
    entry says whether it agrees and carries the oracle's witness."""
    tough = oracle.is_tough(l)
    cycle = oracle.hamiltonian_cycle(l)
    path = oracle.hamiltonian_path(l)
    hamiltonian, traceable = cycle is not None, path is not None
    if decision is None:
        return {"tough": tough.value, "hamiltonian": hamiltonian, "traceable": traceable}
    cutset = None if tough.witness is None else {
        "cutset": list(tough.witness.cutset),
        "components_after": tough.witness.components_after,
    }
    return {
        "tough": {
            "value": tough.value,
            "vacuous": tough.vacuous,
            "agrees": tough.value == decision.tough.value,
            "witness": cutset,
        },
        "hamiltonian": {
            "value": hamiltonian,
            "agrees": hamiltonian == decision.hamiltonian.value,
            "witness": None if cycle is None else list(cycle.vertices),
        },
        "wu_meng": {"value": hamiltonian, "agrees": hamiltonian == decision.wu_meng.value},
        "traceable": {
            "value": traceable,
            "agrees": traceable == decision.traceable.value,
            "witness": None if path is None else list(path.vertices),
        },
    }


def _graph_json(g: Graph) -> dict:
    return {
        "canonical_graph6": oracle.canonical_form(g).decode("ascii"),
        "n": g.n,
        "m": g.m,
        "max_degree": g.max_degree(),
        "non_isolated": sum(map(bool, g.adj)),
    }


def _base_report(g: Graph) -> dict:
    """The report fields every input gets; co(G)'s are counted without
    building it."""
    graph = _graph_json(g)
    return {
        "graph": graph,
        "coline": {"n": g.m, "components": len(coline_components(g))},
        # inside the exhaustively swept range verdicts are oracle-verified;
        # beyond it they are asserted by the characterisations alone
        "within_verified_range": graph["non_isolated"] <= characterize.DEFAULT_MAX_VERTICES
        and g.m <= characterize.DEFAULT_MAX_EDGES,
        "versions": {"tool": __version__, "catalog": CATALOG_FORMAT},
    }


def cmd_classify(args: argparse.Namespace) -> int:
    catalog = characterize.load_catalog(args.catalog)
    g = _load_graph(args)
    if args.verify and g.m > VERIFY_MAX_EDGES:
        raise ScopeError(f"--verify search budget is {VERIFY_MAX_EDGES} edges, got {g.m}")
    report = _base_report(g)
    try:
        decision = characterize.build_report(g, catalog)
    except ScopeError as exc:
        decision = None
        report["verdicts"] = {"out_of_scope": str(exc)}
        with suppress(ScopeError):  # traceability is decided from 2 edges up
            report["verdicts"]["traceable"] = _verdict_json(characterize.decide_coline_traceable(g, catalog))
    else:
        report["verdicts"] = {
            key: _verdict_json(getattr(decision, key))
            for key in ("tough", "hamiltonian", "wu_meng", "traceable")
        }
    if args.verify:
        report["oracle"] = _oracle_json(coline(g)[0], decision)
    print(json.dumps(report, indent=2))
    if args.verify and decision is not None:
        if not all(entry["agrees"] for entry in report["oracle"].values()):
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_cms(args: argparse.Namespace) -> int:
    catalog = characterize.load_catalog(args.catalog)
    g = _load_graph(args)
    if g.m > 12:
        raise ScopeError(f"cms search budget is 12 edges, got {g.m}")
    report = _base_report(g)
    value = oracle.cms_exact(g)
    report["cms"] = value
    try:
        hamiltonian = characterize.decide_coline_hamiltonian(g, catalog).value
        report["verdicts"] = {"hamiltonian": hamiltonian}
        report["cms_ge2_iff_hamiltonian"] = (value >= 2) == hamiltonian
    except ScopeError:
        report["verdicts"] = {"hamiltonian": None}
        report["cms_ge2_iff_hamiltonian"] = None
    print(json.dumps(report, indent=2))
    if report["cms_ge2_iff_hamiltonian"] is False:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_roots(args: argparse.Namespace) -> int:
    characterize.load_catalog(args.catalog)  # reject a bad --catalog here too
    g = _load_graph(args)
    result = oracle.find_roots(g)
    report = {
        "graph": _graph_json(g),
        "roots": [emit_graph6(r) for r in result.roots],
        "complete": result.complete,
        "versions": {"tool": __version__, "catalog": CATALOG_FORMAT},
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _check_output(path: str) -> None:
    """Raise the OSError writing ``path`` would, before a long run, not after."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import sweep  # the sweep and its process pool load only when run

    catalog = characterize.load_catalog(args.catalog)
    config = sweep.SweepConfig(args.max_vertices, args.max_edges, args.workers)
    if args.output:
        _check_output(args.output)
    report = sweep.run_sweep(config, catalog)
    if args.output:
        with open(args.output, "w", encoding="ascii") as out:
            out.write(sweep.report_to_text(report))
    census = report.exception_census
    print(f"classes scanned: {report.graphs_scanned}")
    print(f"mismatches: {len(report.mismatches)}")
    for canon, check, theorem, seen in report.mismatches:
        print(f"  {canon}  {check}  theorem={theorem}  oracle={seen}")
    for key, ok in report.census_ok.items():
        print(f"{key}: {len(census[key])} ({'ok' if ok else 'MISMATCH'})")
    for key in sorted(census.keys() - report.census_ok.keys()):
        print(f"{key}: {len(census[key])}")
    if report.partial:
        print(f"partial run after {report.graphs_scanned} classes: {report.extras['error']}")
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "bootstrap":
        from . import sweep

        if args.workers is not None:  # a bad count exits 2 before the output is checked
            sweep.SweepConfig(worker_count=args.workers)
        _check_output(args.output)
        catalog, summary = sweep.bootstrap_catalog(worker_count=args.workers)
        with open(args.output, "w", encoding="ascii") as out:
            out.write(characterize.emit_catalog(catalog))
        print(f"wrote {args.output}", file=sys.stderr)  # stdout is the JSON summary alone
        print(json.dumps(summary, indent=2))
        return EXIT_OK
    # load_catalog validates every catalog it returns
    catalog = characterize.load_catalog(args.catalog)
    sections = [("tough18", catalog.toughness_exceptions), ("trace9", catalog.trace_exceptions)]
    if args.action == "validate":
        counts = ", ".join(f"{len(graphs)} in [{section}]" for section, graphs in sections)
        print(f"catalog valid: {counts}")
        return EXIT_OK
    # show
    print(f"format: {CATALOG_FORMAT}")
    for section, graphs in sections:
        print(f"[{section}] ({len(graphs)})")
        for g in graphs:
            print(f"  {emit_graph6(g)}  n={g.n} m={g.m}")
    return EXIT_OK


def _classify_arguments(parser: argparse.ArgumentParser) -> None:
    _add_input_flags(parser)
    parser.add_argument("--verify", action="store_true", help="confirm against exact oracles")


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-vertices", type=int, default=characterize.DEFAULT_MAX_VERTICES)
    parser.add_argument("--max-edges", type=int, default=characterize.DEFAULT_MAX_EDGES)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--output", help="write the text report here")


def _catalog_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action",
        choices=("bootstrap", "validate", "show"),
        help="bootstrap derives a catalog by the sweep; validate and show read its "
        "[tough18] section (the trace9, the Wu-Meng 21 and the named roots are derived or built in)",
    )
    parser.add_argument("--output", default="coline-catalog.txt", help="bootstrap target file")
    parser.add_argument("--workers", type=int, help="bootstrap worker processes (default: one per CPU)")


# name: (help, handler, the function that adds the subcommand's arguments)
SUBCOMMANDS = {
    "classify": ("per-graph verdicts as JSON", cmd_classify, _classify_arguments),
    "sweep": ("exhaustive cross-verification", cmd_sweep, _sweep_arguments),
    "cms": ("exact cyclic matching sequenceability", cmd_cms, _add_input_flags),
    "catalog": ("manage the exception catalogs", cmd_catalog, _catalog_arguments),
    "roots": ("all root graphs with this coline graph", cmd_roots, _add_input_flags),
}


def build_parser() -> argparse.ArgumentParser:
    """The full coline parser: every subcommand under the top-level options."""
    parser = argparse.ArgumentParser(
        prog="coline",
        description="Decide Hamiltonicity, toughness and traceability of coline graphs.",
    )
    parser.add_argument("--catalog", help="catalog file path (default: the packaged catalog)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_arguments) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv``, parsed by the one subcommand it names.

    That parser is the full tree's subparser: the same prog, arguments,
    help and errors.  An ``argv`` that names no subcommand first, or that
    leaves an argument over, which only the full tree reports, is parsed
    by ``build_parser()``.
    """
    if argv and argv[0] in SUBCOMMANDS:
        _, handler, add_arguments = SUBCOMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"coline {argv[0]}")
        add_arguments(parser)
        parser.set_defaults(func=handler, catalog=None, command=argv[0])
        args, left_over = parser.parse_known_args(argv[1:])
        if not left_over:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand ``argv`` names; the exit code.

    ``argv`` is parsed by that subcommand's parser alone where it can be
    (``_parse``), so a call pays for the arguments it gives, and the
    exceptions of a run map onto the exit codes above.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`coline ... | head`): nothing is lost that
        # was wanted, so exit cleanly and keep the final flush from raising
        sys.stdout = open(os.devnull, "w")
        return EXIT_OK
    except ValueError as exc:  # Graph6Error and ScopeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # a bug, not a bad input: report it without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
