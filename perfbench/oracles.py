"""Correctness checks computed apart from the program.

None of these reuse graphsynth's views, resolver, composer or renderer: the
expected program text, the numeric results and the query answers are all
derived here from the benchmark's own tables and the raw quads.
"""

from __future__ import annotations

import ast
import statistics
from collections import Counter
from pathlib import Path

from gen import SHIPPED_CALCS

# The example program as documented byte for byte in README.md and PAPER.md.
GOLDEN_EXAMPLE = (
    "import numpy as np\n"
    "import sys\n"
    "input_data_filename = 'my_input.txt'\n"
    "input_data = np.loadtxt(input_data_filename)\n"
    "mean = np.mean(input_data)\n"
    "std = np.std(input_data)\n"
    "print('mean = ',mean)\n"
    "print('std = ',std)\n"
    "sys.exit(0)\n"
).encode("utf-8")

NUMERIC_TOLERANCE = 1e-9


class OracleError(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def expected_reduction(label: str, grown_labels: dict[str, str]) -> str:
    return SHIPPED_CALCS.get(label) or grown_labels[label]


def check_program(text: str, calculations: tuple[str, ...], grown_labels: dict[str, str],
                  blank_lines: bool) -> tuple[str, ...]:
    """Parse an emitted program and check its calculation and report lines.

    Returns the program's shape: the numpy reductions in statement order.
    """
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        raise OracleError(f"emitted program does not parse: {exc}") from exc
    wanted = tuple(expected_reduction(label, grown_labels) for label in calculations)
    targets, functions, reported = [], [], []
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            func = call.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "np"
                    and len(call.args) == 1 and isinstance(call.args[0], ast.Name)
                    and call.args[0].id == "input_data" and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                targets.append(node.targets[0].id)
                functions.append(func.attr)
        elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name) and node.value.func.id == "print"):
            args = node.value.args
            if (len(args) == 2 and isinstance(args[0], ast.Constant) and isinstance(args[1], ast.Name)
                    and args[0].value == f"{args[1].id} = "):
                reported.append(args[1].id)
    if tuple(functions) != wanted:
        raise OracleError(f"calculation lines call {functions}, expected {list(wanted)}")
    if reported != targets:
        raise OracleError(f"report lines print {reported}, expected {targets}")
    blank = text.count("\n\n")
    if blank_lines and blank != 4:
        raise OracleError(f"--style blank-lines gave {blank} section breaks, expected 4")
    if not blank_lines and blank:
        raise OracleError("blank lines without --style blank-lines")
    return wanted


def read_fixture(path: Path) -> list[float]:
    return [float(line) for line in path.read_text(encoding="utf-8").split()]


def reference_value(reduction: str, values: list[float]) -> float:
    table = {
        "mean": statistics.mean,
        "std": statistics.pstdev,
        "var": statistics.pvariance,
        "median": statistics.median,
        "min": min,
        "max": max,
        "sum": sum,
        "ptp": lambda v: max(v) - min(v),
    }
    return float(table[reduction](values))


def check_report(shape: tuple[str, ...], stdout: str, values: list[float]):
    """The report lines of one executed program against the reference values."""
    lines = [line for line in stdout.splitlines() if "=" in line]
    if len(lines) != len(shape):
        raise OracleError(f"program printed {len(lines)} report lines for {len(shape)} calculations")
    for reduction, line in zip(shape, lines):
        got = float(line.partition("=")[2])
        want = reference_value(reduction, values)
        if abs(got - want) > NUMERIC_TOLERANCE * max(1.0, abs(want)):
            raise OracleError(f"{reduction}: program reported {got}, reference {want}")


# --- queries ---------------------------------------------------------------


def brute_force_join(quads, patterns) -> Counter:
    """Multiset of bindings of a BGP by a nested-loop join over all quads.

    `patterns` hold the program's Pattern objects; a position is a variable
    when it has a `name` attribute and no `value`.
    """
    quads = list(quads)
    rows: list[dict] = [{}]
    for pattern in patterns:
        extended = []
        for binding in rows:
            for quad in quads:
                merged = _unify(pattern, quad, binding)
                if merged is not None:
                    extended.append(merged)
        rows = extended
    return Counter(frozenset(row.items()) for row in rows)


def _is_var(position) -> bool:
    return type(position).__name__ == "Var"


def _unify(pattern, quad, binding):
    out = dict(binding)
    pairs = (
        (pattern.subject, quad.subject),
        (pattern.predicate, quad.predicate),
        (pattern.object, quad.object),
    )
    for position, value in pairs:
        if _is_var(position):
            if out.setdefault(position.name, value) != value:
                return None
        elif position != value:
            return None
    if _is_var(pattern.graph):
        graph_term = ("graph", quad.graph)
        if out.setdefault(pattern.graph.name, graph_term) != graph_term:
            return None
    elif pattern.graph != quad.graph:
        return None
    return out


def as_multiset(rows, graph_vars: set[str]) -> Counter:
    """The program's rows in the form brute_force_join uses (graph names as tagged strings)."""
    converted = []
    for row in rows:
        items = []
        for name, term in row.items():
            items.append((name, ("graph", term.value) if name in graph_vars else term))
        converted.append(frozenset(items))
    return Counter(converted)


def format_term(term) -> str:
    """The text `graphsynth query` prints for a term, derived from the term alone."""
    kind = type(term).__name__
    if kind == "Iri":
        for prefix, namespace in (("gs", "http://graphsynth.dev/vocab/core#"), ("kb", "http://graphsynth.dev/kb/")):
            local = term.value[len(namespace):]
            if term.value.startswith(namespace) and local.replace("_", "").isalnum():
                return f"{prefix}:{local}"
        return f"<{term.value}>"
    if kind == "Literal" and term.datatype.endswith("#string") and term.language_tag is None:
        if any(ch in term.lexical for ch in '"\\\n\r\t'):
            raise OracleError(f"query oracle cannot format {term!r}")
        return f'"{term.lexical}"'
    raise OracleError(f"query oracle cannot format {term!r}")
