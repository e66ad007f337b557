"""Command-line driver: synthesize programs and inspect the knowledge graphs.

Each pipeline stage maps to a distinct exit code so failures are
scriptable: 0 ok, 2 config, 3 KB load, 4 statement parse, 5 resolve,
6 compose, 7 render, 8 write.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

from graphsynth import seed, vocab
from graphsynth.composer import compose
from graphsynth.errors import (
    CatalogError,
    ComposeError,
    GraphSynthError,
    ImportResolutionError,
    KbFileError,
    KbValidationError,
    ProblemStatementError,
    RenderError,
    ResolveError,
    WriteError,
)
from graphsynth.problem import parse_problem_statement
from graphsynth.quadstore import Pattern, QuadStore, Var
from graphsynth.renderer import emit, render, write_source
from graphsynth.resolver import resolve
from graphsynth.terms import Blank, Iri, Literal, RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER
from graphsynth.turtle import WELL_KNOWN_PREFIXES, _format_term, serialize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_KB_LOAD = 3
EXIT_STATEMENT = 4
EXIT_RESOLVE = 5
EXIT_COMPOSE = 6
EXIT_RENDER = 7
EXIT_WRITE = 8

KB_DIR_ENV = "GRAPHSYNTH_KB"


class _StageFailure(Exception):
    def __init__(self, stage: str, code: int, message: str):
        self.stage = stage
        self.code = code
        self.message = message
        super().__init__(message)


class RunConfig(NamedTuple):
    kb_dir: Path
    catalog: Path
    out_dir: Path
    blank_lines: bool
    exec_check: bool
    force: bool


def _build_config(args: argparse.Namespace) -> RunConfig:
    if args.kb:
        kb_dir = Path(args.kb)
    elif os.environ.get(KB_DIR_ENV):
        kb_dir = Path(os.environ[KB_DIR_ENV])
    else:
        kb_dir = seed.kb_dir()
    if not kb_dir.is_dir():
        raise _StageFailure("config", EXIT_CONFIG, f"knowledge base directory not found: {kb_dir}")
    catalog = Path(args.catalog) if args.catalog else kb_dir / seed.CATALOG_FILE
    if not catalog.is_file():
        raise _StageFailure("config", EXIT_CONFIG, f"catalog file not found: {catalog}")
    out_dir = Path(args.out) if getattr(args, "out", None) else Path.cwd()
    return RunConfig(
        kb_dir=kb_dir,
        catalog=catalog,
        out_dir=out_dir,
        blank_lines=(getattr(args, "style", None) == "blank-lines"),
        exec_check=bool(getattr(args, "exec_check", False)),
        force=bool(getattr(args, "force", False)),
    )


def _load_kb(config: RunConfig) -> tuple[QuadStore, int]:
    try:
        store, report = seed.load_kb(config.kb_dir, config.catalog)
    except (KbFileError, CatalogError, ImportResolutionError, KbValidationError, OSError) as exc:
        raise _StageFailure("kb-load", EXIT_KB_LOAD, str(exc)) from exc
    return store, report.files


def _parse_statement(path: Path):
    if not path.is_file():
        raise _StageFailure("config", EXIT_CONFIG, f"problem statement file not found: {path}")
    try:
        return parse_problem_statement(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _StageFailure("statement-parse", EXIT_STATEMENT, f"{path}: not UTF-8 text: {exc}") from exc
    except ProblemStatementError as exc:
        raise _StageFailure("statement-parse", EXIT_STATEMENT, f"{path}: {exc}") from exc


def _run_pipeline(config: RunConfig, statement_path: Path, store: QuadStore):
    ps = _parse_statement(statement_path)
    try:
        plan = resolve(ps, store)
    except ResolveError as exc:
        raise _StageFailure("resolve", EXIT_RESOLVE, str(exc)) from exc
    try:
        pla = compose(plan, store)
    except ComposeError as exc:
        raise _StageFailure("compose", EXIT_COMPOSE, str(exc)) from exc
    try:
        plr = render(pla, plan.language, store)
    except RenderError as exc:
        raise _StageFailure("render", EXIT_RENDER, str(exc)) from exc
    return plan, pla, plr


def _exec_check(config: RunConfig, plan, path: Path) -> str:
    # Imported here: it is the only user, and the import costs every cold run.
    import subprocess

    fixture = config.kb_dir / plan.data_source.location
    target = path.parent / plan.data_source.location
    if not target.exists():
        if not fixture.is_file():
            raise _StageFailure("exec-check", 1, f"fixture data file not found: {fixture}")
        shutil.copyfile(fixture, target)
    proc = subprocess.run(
        [sys.executable, path.name],
        cwd=path.parent,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise _StageFailure("exec-check", 1, f"emitted program exited {proc.returncode}: {proc.stderr.strip()}")
    reported = {}
    for line in proc.stdout.splitlines():
        label, sep, value = line.partition("=")
        if not sep:
            continue
        try:
            reported[label.strip()] = float(value.strip())
        except ValueError:
            raise _StageFailure("exec-check", 1, f"unparseable report line: {line!r}")
    if len(reported) != len(plan.calculations):
        expected = len(plan.calculations)
        raise _StageFailure("exec-check", 1, f"expected one report line per calculation ({expected}), got: {proc.stdout!r}")
    return " ".join(f"{k}={v}" for k, v in sorted(reported.items()))


def cmd_synthesize(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = _build_config(args)
    store, _ = _load_kb(config)
    plan, pla, plr = _run_pipeline(config, Path(args.statement), store)
    try:
        # The text is checked to parse before anything is written.
        text = emit(plr, blank_lines_between_sections=config.blank_lines)
    except RenderError as exc:
        raise _StageFailure("render", EXIT_RENDER, str(exc)) from exc
    try:
        path = write_source(text, plan.program_basename, plan.language, config.out_dir, force=config.force)
    except WriteError as exc:
        raise _StageFailure("write", EXIT_WRITE, str(exc)) from exc

    print(f"data source: {plan.data_source.name} <{plan.data_source.iri}>")
    for calc in plan.calculations:
        print(f"calculation: {calc.label} -> {calc.algorithm.name} -> {calc.function.qualified_name}")
    print(f"reader: {plan.reader_function.qualified_name}")
    print(f"structure: {plan.structure.name}")
    print(f"language: {plan.language.tag} ({plan.language.source_file_extension})")
    print(f"graph <{pla.graph_iri}>: {store.graph_size(pla.graph_iri)} quads")
    print(f"graph <{plr.graph_iri}>: {store.graph_size(plr.graph_iri)} quads")
    print(f"wrote: {path}")
    if config.exec_check:
        print(f"exec-check: {_exec_check(config, plan, path)}")
    print(f"time: {time.perf_counter() - started:.3f}s")
    return EXIT_OK


def cmd_kb_stats(args: argparse.Namespace) -> int:
    config = _build_config(args)
    store, files = _load_kb(config)
    print(f"files loaded: {files}")
    print(f"graph <{vocab.CORE_GRAPH}>: {store.graph_size(vocab.CORE_GRAPH)} quads")
    counts = (
        ("data sources", vocab.DATA_SOURCE),
        ("algorithms", vocab.ALGORITHM),
        ("code functions", vocab.CODE_FUNCTION),
        ("libraries", vocab.LIBRARY),
        ("program structures", vocab.PROGRAM_STRUCTURE),
        ("languages", vocab.PROGRAMMING_LANGUAGE),
    )
    for label, cls in counts:
        print(f"{label}: {len(store.subjects(Iri(RDF_TYPE), Iri(cls), vocab.CORE_GRAPH))}")
    return EXIT_OK


def cmd_dump_graph(args: argparse.Namespace) -> int:
    config = _build_config(args)
    store, _ = _load_kb(config)
    if args.statement:
        _run_pipeline(config, Path(args.statement), store)
    sys.stdout.write(serialize(store, args.graph))
    return EXIT_OK


_PREFIX_TABLE = dict(WELL_KNOWN_PREFIXES)


def _parse_query_term(token: str, position: str):
    if token.startswith("?") and len(token) > 1:
        return Var(token[1:])
    if token == "a":
        return Iri(RDF_TYPE)
    if token.startswith("<") and token.endswith(">"):
        return Iri(token[1:-1])
    if token.startswith("_:"):
        return Blank(token[2:])
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return Literal(token[1:-1])
    if token in ("true", "false"):
        return Literal(token, XSD_BOOLEAN)
    if token.lstrip("+-").isdigit():
        return Literal(token, XSD_INTEGER)
    prefix, sep, local = token.partition(":")
    if sep and prefix in _PREFIX_TABLE:
        return Iri(_PREFIX_TABLE[prefix] + local)
    raise _StageFailure("config", EXIT_CONFIG, f"cannot parse {position} term {token!r} in query pattern")


def _parse_query_pattern(text: str) -> Pattern:
    tokens = text.split()
    if len(tokens) not in (3, 4):
        raise _StageFailure("config", EXIT_CONFIG, f"pattern needs 3 or 4 terms, got {len(tokens)}: {text!r}")
    subject = _parse_query_term(tokens[0], "subject")
    predicate = _parse_query_term(tokens[1], "predicate")
    obj = _parse_query_term(tokens[2], "object")
    if len(tokens) == 4:
        graph_term = _parse_query_term(tokens[3], "graph")
        if not isinstance(graph_term, (Var, Iri)):
            raise _StageFailure("config", EXIT_CONFIG, f"graph term must be an IRI or a variable, got {tokens[3]!r}")
        graph = graph_term if isinstance(graph_term, Var) else graph_term.value
    else:
        graph = vocab.CORE_GRAPH
    return Pattern(subject, predicate, obj, graph)


def cmd_query(args: argparse.Namespace) -> int:
    config = _build_config(args)
    store, _ = _load_kb(config)
    patterns = [_parse_query_pattern(text) for text in args.patterns]
    rows = store.query_bgp(patterns)
    variables = sorted(set().union(*(p.variables() for p in patterns)))
    if not variables:
        print(f"matches: {len(rows)}")
        return EXIT_OK
    print("\t".join(f"?{name}" for name in variables))
    for row in rows:
        print("\t".join(_format_term(row[name]) for name in variables))
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kb", metavar="DIR", help=f"knowledge base directory (default: shipped KB, or ${KB_DIR_ENV})")
    common.add_argument("--catalog", metavar="FILE", help="import catalog (default: catalog.tsv in the KB directory)")

    parser = argparse.ArgumentParser(prog="graphsynth", description="Compose programs by reasoning over a knowledge graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", parents=[common], help="synthesize a program from a problem statement")
    p_syn.add_argument("statement", help="problem statement file")
    p_syn.add_argument("--out", metavar="DIR", help="output directory (default: current directory)")
    p_syn.add_argument("--style", choices=["blank-lines"], help="blank-lines: one empty line between sections")
    p_syn.add_argument("--exec-check", action="store_true", help="run the emitted program and parse its report lines")
    p_syn.add_argument("--force", action="store_true", help="overwrite an existing output file")
    p_syn.set_defaults(func=cmd_synthesize)

    p_stats = sub.add_parser("kb-stats", parents=[common], help="report knowledge base size and entity counts")
    p_stats.set_defaults(func=cmd_kb_stats)

    p_dump = sub.add_parser("dump-graph", parents=[common], help="serialize one named graph to stdout")
    p_dump.add_argument("graph", help="graph IRI")
    p_dump.add_argument("--statement", help="synthesize this statement first so program graphs exist")
    p_dump.set_defaults(func=cmd_dump_graph)

    p_query = sub.add_parser("query", parents=[common], help="run a basic graph pattern query")
    p_query.add_argument(
        "patterns",
        nargs="+",
        metavar="PATTERN",
        help="pattern of 3 or 4 terms: ?var, <iri>, prefix:local, a, \"literal\", integer; graph defaults to the core graph",
    )
    p_query.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StageFailure as failure:
        print(f"graphsynth: error at stage {failure.stage}: {failure.message}", file=sys.stderr)
        return failure.code
    except GraphSynthError as exc:  # anything a stage forgot to map
        print(f"graphsynth: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
