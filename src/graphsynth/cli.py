"""Command-line driver: synthesize programs and inspect the knowledge graphs.

A command runs only the modules it needs. The four pipeline modules,
`problem`, `resolver`, `composer` and `renderer`, are registered here as
lazy modules and run at the first read of one of their attributes: by
`synthesize`, or by `query` and `dump-graph` with `--statement`. `query`,
`kb-stats` and `dump-graph` alone load the KB and never run them. The CLI
reads each pipeline function from its module at call time, so a wrapper set
on the module, by a test or a tracer, is what it calls.

Each pipeline stage maps to a distinct exit code so failures are
scriptable: 0 ok, 2 config, 3 KB load, 4 statement parse, 5 resolve,
6 compose, 7 render, 8 write, and 1 an exec-check failure, an error of no
stage or output lost to a closed pipe. A closed stdout or stderr never
hides the code of a failed stage. Each stage raises its own error family;
`main` alone turns an error into its stage and exit code, by the first row
of `STAGES` whose family matches.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import sys
import time
from pathlib import Path

import graphsynth
from graphsynth import seed, vocab
from graphsynth.errors import (
    CatalogError,
    ComposeError,
    ConfigError,
    ExecCheckError,
    GraphSynthError,
    ImportResolutionError,
    KbFileError,
    KbValidationError,
    MalformedQuadError,
    MalformedTermError,
    ProblemStatementError,
    RenderError,
    ResolveError,
    WriteError,
)
from graphsynth.quadstore import Pattern, QuadStore, Var
from graphsynth.terms import Blank, Iri, Literal, RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER
from graphsynth.turtle import WELL_KNOWN_PREFIXES, _format_term, serialize


def _lazy_module(name: str):
    """The submodule `graphsynth.<name>`, registered without running it if no one has imported it yet.

    Its code runs at the first read of one of its attributes. The module is
    in `sys.modules` and bound on the package, as an import leaves it, so
    `import graphsynth.<name>` and `from graphsynth import <name>` return it.
    """
    fullname = f"graphsynth.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(graphsynth, name, module)
    return module


# Registered, not imported inside the commands: code that wraps the pipeline
# functions, such as perfbench's tracer, finds these modules in `sys.modules`
# once the CLI is imported, and the wrapper it sets on a module is what runs.
problem = _lazy_module("problem")
resolver = _lazy_module("resolver")
composer = _lazy_module("composer")
renderer = _lazy_module("renderer")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_KB_LOAD = 3
EXIT_STATEMENT = 4
EXIT_RESOLVE = 5
EXIT_COMPOSE = 6
EXIT_RENDER = 7
EXIT_WRITE = 8

KB_DIR_ENV = "GRAPHSYNTH_KB"
EXEC_CHECK_TIMEOUT_S = 60  # how long `--exec-check` lets the emitted program run

# (error families, stage, exit code); the first row whose families include an error's class decides.
STAGES = (
    ((ConfigError,), "config", EXIT_CONFIG),
    ((KbFileError, CatalogError, ImportResolutionError, KbValidationError), "kb-load", EXIT_KB_LOAD),
    ((ProblemStatementError,), "statement-parse", EXIT_STATEMENT),
    ((ResolveError,), "resolve", EXIT_RESOLVE),
    ((ComposeError,), "compose", EXIT_COMPOSE),
    ((RenderError,), "render", EXIT_RENDER),
    ((WriteError,), "write", EXIT_WRITE),
    ((ExecCheckError,), "exec-check", EXIT_ERROR),
)


def _kb_paths(args: argparse.Namespace) -> tuple[Path, Path]:
    """The KB directory (`--kb`, else `$GRAPHSYNTH_KB`, else the shipped KB) and its catalog file."""
    kb_dir = Path(args.kb or os.environ.get(KB_DIR_ENV) or seed.kb_dir())
    if not kb_dir.is_dir():
        raise ConfigError(f"knowledge base directory not found: {kb_dir}")
    catalog = Path(args.catalog) if args.catalog else kb_dir / seed.CATALOG_FILE
    if not catalog.is_file():
        raise ConfigError(f"catalog file not found: {catalog}")
    return kb_dir, catalog


def _parse_statement(path: Path):
    if not path.is_file():
        raise ConfigError(f"problem statement file not found: {path}")
    try:
        return problem.parse_problem_statement(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, ProblemStatementError) as exc:
        reason = f"not UTF-8 text: {exc}" if isinstance(exc, UnicodeDecodeError) else exc
        raise ProblemStatementError(f"{path}: {reason}") from exc


def _run_pipeline(statement_path: Path, store: QuadStore):
    plan = resolver.resolve(_parse_statement(statement_path), store)
    pla = composer.compose(plan, store)
    return plan, pla, renderer.render(pla, plan.language, store)


def _exec_check(kb_dir: Path, plan, path: Path) -> str:
    """Run the written program beside its fixture and check its report lines.

    Every way the check can fail, a fixture that cannot be copied, a program
    that cannot be started or runs past its time limit included, is an
    ExecCheckError.
    """
    # Imported here: it is the only user, and the import costs every cold run.
    import subprocess

    fixture = kb_dir / plan.data_source.location
    target = path.parent / plan.data_source.location
    if not target.exists():
        if not fixture.is_file():
            raise ExecCheckError(f"fixture data file not found: {fixture}")
        try:
            shutil.copyfile(fixture, target)
        except OSError as exc:
            raise ExecCheckError(f"cannot copy fixture data file {fixture} to {target}: {exc}") from exc
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(os.curdir, path.name)],  # `./-x.py`: a path, never an interpreter option
            cwd=path.parent,
            capture_output=True,
            text=True,
            timeout=EXEC_CHECK_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ExecCheckError(f"emitted program ran past the {EXEC_CHECK_TIMEOUT_S} s time limit") from exc
    except OSError as exc:
        raise ExecCheckError(f"cannot run the emitted program: {exc}") from exc
    if proc.returncode != 0:
        raise ExecCheckError(f"emitted program exited {proc.returncode}: {proc.stderr.strip()}")
    reported = {}
    for line in proc.stdout.splitlines():
        label, sep, value = line.partition("=")
        if not sep:
            continue
        try:
            reported[label.strip()] = float(value.strip())
        except ValueError:
            raise ExecCheckError(f"unparseable report line: {line!r}")
    if len(reported) != len(plan.calculations):
        expected = len(plan.calculations)
        raise ExecCheckError(f"expected one report line per calculation ({expected}), got: {proc.stdout!r}")
    return " ".join(f"{k}={v}" for k, v in sorted(reported.items()))


def cmd_synthesize(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    kb_dir, catalog = _kb_paths(args)
    store, _ = seed.load_kb(kb_dir, catalog)
    plan, pla, plr = _run_pipeline(Path(args.statement), store)
    # The text is checked to parse before anything is written.
    text = renderer.emit(plr, blank_lines_between_sections=args.style == "blank-lines")
    out_dir = Path(args.out) if args.out else Path.cwd()
    path = renderer.write_source(text, plan.program_basename, plan.language, out_dir, force=args.force)

    print(f"data source: {plan.data_source.name} <{plan.data_source.iri}>")
    for calc in plan.calculations:
        print(f"calculation: {calc.label} -> {calc.algorithm.name} -> {calc.function.qualified_name}")
    print(f"reader: {plan.reader_function.qualified_name}")
    print(f"structure: {plan.structure.name}")
    print(f"language: {plan.language.tag} ({plan.language.source_file_extension})")
    print(f"graph <{pla.graph_iri}>: {store.graph_size(pla.graph_iri)} quads")
    print(f"graph <{plr.graph_iri}>: {store.graph_size(plr.graph_iri)} quads")
    print(f"wrote: {path}")
    if args.exec_check:
        print(f"exec-check: {_exec_check(kb_dir, plan, path)}")
    print(f"time: {time.perf_counter() - started:.3f}s")
    return EXIT_OK


def cmd_kb_stats(args: argparse.Namespace) -> int:
    store, report = seed.load_kb(*_kb_paths(args))
    print(f"files loaded: {report.files}")
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
    graph = _graph_name(args.graph)
    store, _ = seed.load_kb(*_kb_paths(args))
    if args.statement:
        _run_pipeline(Path(args.statement), store)
    sys.stdout.write(serialize(store, graph))
    return EXIT_OK


_PREFIX_TABLE = dict(WELL_KNOWN_PREFIXES)


def _graph_name(token: str) -> str:
    """The graph a `dump-graph` argument names: `<IRI>` or a well-known prefixed name, read as
    `query` reads a graph term, else the argument itself as a bare IRI."""
    prefix, sep, local = token.partition(":")
    iri = token
    if token.startswith("<") and token.endswith(">"):
        iri = token[1:-1]
    elif sep and prefix in _PREFIX_TABLE:
        iri = _PREFIX_TABLE[prefix] + local
    try:
        return Iri(iri).value
    except MalformedTermError as exc:
        raise ConfigError(f"graph must be an IRI, got {token!r}: {exc}") from exc


def _parse_query_term(token: str, position: str):
    digits = token[1:] if token[0] in "+-" else token
    prefix, sep, local = token.partition(":")
    try:
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
        if digits.isascii() and digits.isdigit():
            return Literal(token, XSD_INTEGER)
        if sep and prefix in _PREFIX_TABLE:
            return Iri(_PREFIX_TABLE[prefix] + local)
    except (MalformedTermError, MalformedQuadError) as exc:
        raise ConfigError(f"cannot parse {position} term {token!r} in query pattern: {exc}") from exc
    raise ConfigError(f"cannot parse {position} term {token!r} in query pattern")


def _parse_query_pattern(text: str) -> Pattern:
    tokens = text.split()
    if len(tokens) not in (3, 4):
        raise ConfigError(f"pattern needs 3 or 4 terms, got {len(tokens)}: {text!r}")
    subject = _parse_query_term(tokens[0], "subject")
    predicate = _parse_query_term(tokens[1], "predicate")
    obj = _parse_query_term(tokens[2], "object")
    if len(tokens) == 4:
        graph_term = _parse_query_term(tokens[3], "graph")
        if not isinstance(graph_term, (Var, Iri)):
            raise ConfigError(f"graph term must be an IRI or a variable, got {tokens[3]!r}")
        graph = graph_term if isinstance(graph_term, Var) else graph_term.value
    else:
        graph = vocab.CORE_GRAPH
    return Pattern(subject, predicate, obj, graph)


def cmd_query(args: argparse.Namespace) -> int:
    store, _ = seed.load_kb(*_kb_paths(args))
    patterns = [_parse_query_pattern(text) for text in args.patterns]
    if args.statement:
        _run_pipeline(Path(args.statement), store)
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
        help="pattern of 3 or 4 terms: ?var, <iri>, prefix:local, a, \"literal\", integer, true/false, _:id; "
        "graph defaults to the core graph",
    )
    p_query.add_argument("--statement", help="synthesize this statement first so program graphs exist")
    p_query.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    code = EXIT_ERROR
    try:
        code = _run(args)
        sys.stdout.flush()  # output to a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The reader has gone: print nothing more. A failed stage keeps its code; lost output is an error.
        _to_devnull(sys.stdout)
        return code or EXIT_ERROR
    return code


def _run(args: argparse.Namespace) -> int:
    """Run the chosen command; a pipeline error prints its stage and returns its exit code."""
    try:
        return args.func(args)
    except GraphSynthError as exc:
        for families, stage, code in STAGES:
            if isinstance(exc, families):
                _print_error(f"graphsynth: error at stage {stage}: {exc}")
                return code
        _print_error(f"graphsynth: error: {exc}")
        return EXIT_ERROR


def _print_error(message: str) -> None:
    """Print a diagnostic on stderr; if stderr is a closed pipe, the exit code alone tells the stage."""
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """Point a closed stream's file at os.devnull, so that the flush at exit writes nowhere and cannot fail."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


if __name__ == "__main__":
    sys.exit(main())
