"""Seeded input generators: warm-batch statements and queries, grown and hostile KBs.

Everything here writes plain files or returns plain data; nothing imports
graphsynth, so the program only ever sees the generated files and statements.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

GS = "http://graphsynth.dev/vocab/core#"
PLR = "http://graphsynth.dev/vocab/concrete#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
GRAPH_BASE = "http://graphsynth.dev/graph/"
CORE_GRAPH = GRAPH_BASE + "core"

# Shipped calculation labels and the numpy reduction each one must become.
SHIPPED_CALCS = {"average value": "mean", "average value variation": "std"}
REDUCTIONS = ("mean", "std", "var", "median", "min", "max", "sum", "ptp")
REQUIREMENTS = ("read input data", "calculate quantity", "report result")
LANGUAGE_TAGS = ("Python", "Python-3", "Python-3.8")

# One warm-batch round: a synthesis with this many calculations, each
# followed by one query. The multiset of counts and the order of query
# kinds are fixed, so every seed costs about the same.
WARM_CALC_COUNTS = (1, 1, 2, 2, 2, 3, 3, 4)
WARM_QUERY_KINDS = ("core-algorithms", "core-functions", "core-callable", "program-statements")
# One kb-growth round: statements of two calculations (one shipped, one
# grown), then core-graph queries.
GROWTH_SYNTHS_PER_ROUND = 4
GROWTH_QUERY_KINDS = ("core-algorithms", "core-functions", "core-callable", "core-callable")
GROWTH_CALCS = 2
GROWTH_ALGORITHMS = 16
GROWTH_FILLER = 120


@dataclass(frozen=True)
class Statement:
    basename: str
    calculations: tuple[str, ...]
    requirements: tuple[str, ...]
    language: str
    library_preferences: tuple[str, ...]
    blank_lines: bool

    def text(self) -> str:
        def quote_list(items):
            return "[" + ", ".join(f"'{item}'" for item in items) + "]"

        lines = [
            "data_sources_names = ['my_input.txt']",
            f"requested_calculations = {quote_list(self.calculations)}",
            f"program_requirements = {quote_list(self.requirements)}",
            f"programming_language = '{self.language}'",
            f"program_basename = '{self.basename}'",
        ]
        if self.library_preferences:
            lines.append(f"library_preferences = {quote_list(self.library_preferences)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Query:
    """A BGP as (subject, predicate, object, graph) tuples of plain strings.

    `?x` is a variable, `<iri>` an IRI, `"text"` a plain string literal.
    """

    kind: str
    patterns: tuple[tuple[str, str, str, str], ...]


def _requirement_subset(rng: random.Random) -> tuple[str, ...]:
    size = rng.randint(1, len(REQUIREMENTS))
    return tuple(rng.sample(REQUIREMENTS, size))


def _statement(rng: random.Random, basename: str, calculations: tuple[str, ...]) -> Statement:
    return Statement(
        basename=basename,
        calculations=calculations,
        requirements=_requirement_subset(rng),
        language=rng.choice(LANGUAGE_TAGS),
        library_preferences=("numpy",) if rng.random() < 0.5 else (),
        blank_lines=rng.random() < 0.5,
    )


def warm_round(seed: int) -> list[Statement | Query]:
    """One round of the warm-batch mix: syntheses, each followed by a query.

    Calculation lists vary in length, order and repetition; language tag,
    requirement subset, library preference and style vary per statement.
    Program-graph queries target a program written earlier in the round.
    """
    rng = random.Random(seed)
    counts = list(WARM_CALC_COUNTS)
    rng.shuffle(counts)
    kinds = [WARM_QUERY_KINDS[i % len(WARM_QUERY_KINDS)] for i in range(len(counts))]
    ops: list[Statement | Query] = []
    written: list[str] = []
    for index, (count, kind) in enumerate(zip(counts, kinds)):
        calcs = tuple(rng.choice(tuple(SHIPPED_CALCS)) for _ in range(count))
        statement = _statement(rng, f"wb_{seed}_{index}", calcs)
        ops.append(statement)
        written.append(statement.basename)
        ops.append(_warm_query(rng, kind, written))
    return ops


def _warm_query(rng: random.Random, kind: str, written: list[str]) -> Query:
    core = f"<{CORE_GRAPH}>"
    if kind == "core-algorithms":
        return Query(kind, (
            ("?alg", f"<{RDF_TYPE}>", f"<{GS}Algorithm>", core),
            ("?alg", f"<{GS}hasOutputDescriptionLabel>", "?label", core),
        ))
    if kind == "core-functions":
        return Query(kind, (
            ("?fn", f"<{GS}hasPurpose>", "?alg", core),
            ("?fn", f"<{GS}hasCallableName>", "?name", core),
        ))
    if kind == "core-callable":
        name = rng.choice(("mean", "std", "loadtxt", "exit"))
        return Query(kind, (("?fn", f"<{GS}hasCallableName>", f'"{name}"', core),))
    # Graph variable over every graph in the store: the statements of one
    # program written earlier in this round.
    target = rng.choice(written)
    return Query(kind, (
        ("?p", f"<{PLR}hasBasename>", f'"{target}"', "?g"),
        ("?p", f"<{PLR}hasStatement>", "?s", "?g"),
    ))


def cli_query() -> Query:
    """The query of the cold `graphsynth query` runs (core graph, shipped KB)."""
    return _warm_query(random.Random(0), "core-algorithms", [])


# --- kb-growth ------------------------------------------------------------

_WORDS = ("sample", "signal", "series", "reading", "batch", "window", "record", "trace")


@dataclass(frozen=True)
class GrownKb:
    directory: Path
    labels: dict[str, str]  # output description label -> numpy reduction


def write_grown_kb(shipped_kb: Path, target: Path, seed: int, algorithms: int = GROWTH_ALGORITHMS,
                   filler: int = GROWTH_FILLER) -> GrownKb:
    """Copy the shipped KB and add seeded algorithms, code functions and filler.

    Each extra algorithm has one code function bound to a numpy reduction.
    The filler is a class nothing resolves against. New files are reached
    through catalog lines and an owl:imports on the core ontology.
    """
    rng = random.Random(seed)
    shutil.copytree(shipped_kb, target)
    header = (
        "@prefix onto: <http://graphsynth.dev/ontology/> .\n"
        "@prefix gs: <http://graphsynth.dev/vocab/core#> .\n"
        "@prefix kb: <http://graphsynth.dev/kb/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n\n"
    )
    labels: dict[str, str] = {}
    alg_parts = [header, "onto:grown_algorithms a owl:Ontology ;\n    owl:imports onto:algorithm .\n"]
    fn_parts = [header, "onto:grown_functions a owl:Ontology ;\n"
                "    owl:imports onto:code_function , onto:grown_algorithms .\n"]
    reductions = [REDUCTIONS[i % len(REDUCTIONS)] for i in range(algorithms)]
    rng.shuffle(reductions)
    for index, reduction in enumerate(reductions):
        label = f"{rng.choice(_WORDS)} {reduction} {index:02d}"
        labels[label] = reduction
        alg = f"kb:grown_alg_{index:02d}"
        fn = f"kb:grown_fn_{index:02d}"
        alg_parts.append(
            f"\n{alg} a gs:Algorithm ;\n"
            f'    gs:hasName "grown_alg_{index:02d}" ;\n'
            f'    gs:hasOutputDescriptionLabel "{label}" ;\n'
            "    gs:hasMinInputCount 2 ;\n"
            "    gs:requiresNumericInput true ;\n"
            "    gs:requiresSameQuantityKind true ;\n"
            "    gs:hasOutputArity 1 ;\n"
            "    gs:hasOutputQuantity kb:same_as_input_quantity ;\n"
            '    gs:hasTimeComplexity "O(n)" .\n'
        )
        fn_parts.append(
            f"\n{fn} a gs:CodeFunction ;\n"
            f'    gs:hasCallableName "{reduction}" ;\n'
            "    gs:providedBy kb:numpy ;\n"
            "    gs:inLanguage kb:python_family ;\n"
            f"    gs:hasPurpose {alg} ;\n"
            f"    gs:hasArgumentSlot {fn}_arg0 ;\n"
            "    gs:hasReturnRole kb:role_calculation_result .\n"
            f"{fn}_arg0 a gs:ArgumentSlot ;\n"
            "    gs:hasSlotIndex 0 ;\n"
            "    gs:hasSlotRole kb:role_input_data .\n"
        )
    filler_parts = [header, "onto:grown_filler a owl:Ontology .\n\ngs:GrownNote a owl:Class .\n"]
    for index in range(filler):
        filler_parts.append(
            f"\nkb:grown_note_{index:03d} a gs:GrownNote ;\n"
            f'    gs:hasNoteText "{rng.choice(_WORDS)} note {rng.randrange(10**6):06d}" ;\n'
            f"    gs:hasNoteIndex {index} .\n"
        )
    for name, parts in (("grown_algorithms", alg_parts), ("grown_functions", fn_parts), ("grown_filler", filler_parts)):
        (target / f"{name}.ttl").write_text("".join(parts), encoding="utf-8")
    with open(target / "catalog.tsv", "a", encoding="utf-8") as catalog:
        for name in ("grown_algorithms", "grown_functions", "grown_filler"):
            catalog.write(f"<http://graphsynth.dev/ontology/{name}>\t{name}.ttl\n")
    with open(target / "core.ttl", "a", encoding="utf-8") as core:
        core.write("\nonto:core owl:imports onto:grown_algorithms , onto:grown_functions , onto:grown_filler .\n")
    return GrownKb(directory=target, labels=labels)


def growth_round(seed: int, grown: GrownKb) -> list[Statement | Query]:
    """Statements asking for one shipped and one grown calculation, then queries."""
    rng = random.Random(seed)
    grown_labels = sorted(grown.labels)
    ops: list[Statement | Query] = []
    for index in range(GROWTH_SYNTHS_PER_ROUND):
        calcs = [rng.choice(tuple(SHIPPED_CALCS))] + rng.sample(grown_labels, GROWTH_CALCS - 1)
        rng.shuffle(calcs)
        ops.append(_statement(rng, f"kg_{seed}_{index}", tuple(calcs)))
    for kind in GROWTH_QUERY_KINDS:
        ops.append(_warm_query(rng, kind, []))
    return ops


# --- hostile KBs (cli-example) ---------------------------------------------


HOSTILE_EDITS = {
    # A code function whose callable name is a Python keyword.
    "keyword-callable": ("code_function.ttl", 'gs:hasCallableName "mean"', 'gs:hasCallableName "class"'),
    # A content kind whose type label holds a space.
    "spaced-type-label": ("data_content.ttl", 'gs:hasTypeLabel "input_data"', 'gs:hasTypeLabel "input data"'),
}


def write_hostile_kb(shipped_kb: Path, target: Path, kind: str) -> Path:
    """A copy of the shipped KB with one label made hostile to code generation."""
    filename, old, new = HOSTILE_EDITS[kind]
    shutil.copytree(shipped_kb, target)
    path = target / filename
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise RuntimeError(f"{filename} no longer holds {old!r}; the hostile edit needs updating")
    path.write_text(text.replace(old, new), encoding="utf-8")
    return target
