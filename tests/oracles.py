"""Reference implementations the tests check the engine against.

The reference lexer `reference_tokenize` reads a problem statement one token
at a time, each rule a separate step; the package's one-pass lexer is checked
against it. The query oracle is written from scratch against the documented contracts,
not by calling into the package's own query machinery. The PLA and PLR
field tables below declare the program graphs' nodes once, in the form of
`views.SHAPES`: the decoders `load_pla` and `load_plr`, which no command
needs, read through them and `views.read`, and the reference encoder
`encode` writes a program's graph from them, for the composer's and the
renderer's own writers to be checked against.
"""

from __future__ import annotations

import random
import re
from operator import itemgetter

from graphsynth import views, vocab
from graphsynth.composer import (
    PLA_ASSIGN_CALL, PLA_ASSIGN_LITERAL, PLA_CALLS_FUNCTION, PLA_HAS_ARGUMENT_SLOT, PLA_HAS_BASENAME,
    PLA_HAS_COMPOSITION_INDEX, PLA_HAS_EMISSION_INDEX, PLA_HAS_EXIT_STATUS, PLA_HAS_LIBRARY_REFERENCE,
    PLA_HAS_LITERAL_ROLE, PLA_HAS_LITERAL_VALUE, PLA_HAS_ORDER_INDEX, PLA_HAS_REPORT_LABEL, PLA_HAS_SECTION,
    PLA_HAS_SECTION_NAME, PLA_HAS_SLOT_INDEX, PLA_HAS_SOURCE_VARIABLE, PLA_HAS_STATEMENT, PLA_HAS_TARGET_VARIABLE,
    PLA_HAS_VARIABLE_REF, PLA_IMPORT_DIRECTIVE, PLA_IMPORTS_LIBRARY, PLA_PROGRAM, PLA_PROGRAM_EXIT,
    PLA_REFERS_TO_LIBRARY, PLA_REPORT_VALUE, PLA_SECTION, PLA_SECTION_ENTITY, PLA_USES_STRUCTURE,
    AssignCall, AssignLiteral, ImportDirective, PlacedStatement, PlaProgram, PlaSection, ProgramExit, ReportValue,
)
from graphsynth.errors import ComposeError, MalformedQuadError, ProblemStatementError, RenderError, position
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.renderer import (
    PLR_HAS_BASENAME, PLR_HAS_ELEMENT_INDEX, PLR_HAS_ELEMENT_SLOT, PLR_HAS_ELEMENT_TEXT, PLR_HAS_LANGUAGE,
    PLR_HAS_SECTION_INDEX, PLR_HAS_STATEMENT, PLR_HAS_STATEMENT_INDEX, PLR_HAS_VARIATION, PLR_IN_SECTION,
    PLR_PROGRAM, PLR_STATEMENT, PlacedConcrete, PlrProgram,
)
from graphsynth.terms import RDF_TYPE, Blank, Iri, Literal, integer_literal
from graphsynth.turtle import _format_term
from graphsynth.views import INT, IRI, MANY, NODE, STR


# --- the reference problem-statement lexer --------------------------------

# Whitespace, and a backslash directly before a line break (a line continuation).
_TRIVIA = re.compile(r"[ \t\r\n]*(?:\\\r?\n[ \t\r\n]*)*")
# A string's body up to its closing quote: no newline, and only \' and \\ as escapes.
_STRING_BODY = re.compile(r"[^'\\\n]*(?:\\['\\][^'\\\n]*)*")
_ESCAPE = re.compile(r"\\(['\\])")
_WORD = re.compile(r"\w+")


def _lex_error(text: str, pos: int, message: str) -> ProblemStatementError:
    return ProblemStatementError(message, *position(text, pos))


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of a problem statement, read one token at a time."""
    tokens = []
    pos = _TRIVIA.match(text).end()
    while pos < len(text):
        ch = text[pos]
        if ch == "'":
            end = _STRING_BODY.match(text, pos + 1).end()
            if end == len(text):
                raise _lex_error(text, pos, "unterminated string")
            if text[end] == "\n":
                raise _lex_error(text, end, "newline inside string")
            if text[end] == "\\":
                raise _lex_error(text, end, "unknown escape in string")
            tokens.append(("STRING", _ESCAPE.sub(r"\1", text[pos + 1 : end]), pos))
            end += 1
        elif ch in "=[],":
            tokens.append(("PUNCT", ch, pos))
            end = pos + 1
        elif ch.isalpha() or ch == "_":
            end = _WORD.match(text, pos).end()
            tokens.append(("IDENT", text[pos:end], pos))
        elif ch == "\\":
            raise _lex_error(text, pos, "stray backslash")
        else:
            raise _lex_error(text, pos, f"unexpected character {ch!r}")
        pos = _TRIVIA.match(text, end).end()
    tokens.append(("EOF", "", len(text)))
    return tokens


def term_key(term):
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, Blank):
        return (1, term.id)
    return (2, term.lexical, term.datatype, term.language_tag or "")


def binding_key(variables):
    return lambda binding: tuple(term_key(binding[name]) for name in variables)


def _match_position(pos, value, binding):
    """Positions: concrete term/graph-name compares by equality, Var binds."""
    if isinstance(pos, Var):
        if pos.name in binding:
            return binding if binding[pos.name] == value else None
        extended = dict(binding)
        extended[pos.name] = value
        return extended
    if isinstance(pos, str):
        return binding if isinstance(value, Iri) and value.value == pos else None
    return binding if pos == value else None


def match_oracle(pattern: Pattern, quad: Quad, binding: dict) -> dict | None:
    env = binding
    for pos, value in (
        (pattern.subject, quad.subject),
        (pattern.predicate, quad.predicate),
        (pattern.object, quad.object),
        (pattern.graph, Iri(quad.graph)),
    ):
        env = _match_position(pos, value, env)
        if env is None:
            return None
    return env


def nested_loop_join(quads: list[Quad], patterns: list[Pattern]) -> list[dict]:
    """Plain nested-loop join over the full quad list, no indexes, no pruning tricks."""
    results: list[dict] = []

    def walk(depth: int, binding: dict):
        if depth == len(patterns):
            results.append(dict(binding))
            return
        for quad in quads:
            extended = match_oracle(patterns[depth], quad, binding)
            if extended is not None:
                walk(depth + 1, extended)

    walk(0, {})
    return results


def expected_order(patterns: list[Pattern], bindings: list[dict]) -> list[dict]:
    """The documented deterministic order: sort on bound terms, variables in name order."""
    variables = sorted(set().union(*(p.variables() for p in patterns)))
    return sorted(bindings, key=binding_key(variables))


def objects_oracle(quads: list[Quad], subject, predicate, graph: str) -> list:
    """Objects of every quad matching (subject, predicate, ?, graph), in term order."""
    found = [q.object for q in quads if q.subject == subject and q.predicate == predicate and q.graph == graph]
    return sorted(found, key=term_key)


def canonical(binding: dict) -> tuple:
    return tuple((name, term_key(binding[name])) for name in sorted(binding))


# --- random datasets and BGPs --------------------------------------------

_GRAPHS = ["http://t.example/g1", "http://t.example/g2"]
_IRIS = [Iri(f"http://t.example/n{i}") for i in range(8)]
_PREDICATES = [Iri(f"http://t.example/p{i}") for i in range(4)]
_LITERALS = [Literal(str(i)) for i in range(4)] + [Literal("3", "http://www.w3.org/2001/XMLSchema#integer")]
_BLANKS = [Blank(f"b{i}") for i in range(3)]
_VARIABLES = ["w", "x", "y", "z"]


def random_quad(rng: random.Random) -> Quad:
    subject = rng.choice(_IRIS + _BLANKS)
    predicate = rng.choice(_PREDICATES)
    obj = rng.choice(_IRIS + _BLANKS + _LITERALS)
    return Quad(subject, predicate, obj, rng.choice(_GRAPHS))


def random_dataset(rng: random.Random, max_quads: int = 200) -> list[Quad]:
    return [random_quad(rng) for _ in range(rng.randint(0, max_quads))]


def _random_position(rng: random.Random, choices, var_probability: float):
    if rng.random() < var_probability:
        return Var(rng.choice(_VARIABLES))
    return rng.choice(choices)


def random_bgp(rng: random.Random) -> list[Pattern]:
    patterns = []
    for _ in range(rng.randint(1, 4)):
        patterns.append(
            Pattern(
                subject=_random_position(rng, _IRIS + _BLANKS, 0.5),
                predicate=_random_position(rng, _PREDICATES, 0.35),
                object=_random_position(rng, _IRIS + _BLANKS + _LITERALS, 0.5),
                graph=_random_position(rng, _GRAPHS, 0.25),
            )
        )
    return patterns


def oracle_cost(quads: list[Quad], patterns: list[Pattern]) -> int:
    """Upper bound on nested-loop work: product of single-pattern match counts."""
    cost = 1
    for pattern in patterns:
        matches = sum(1 for quad in quads if match_oracle(pattern, quad, {}) is not None)
        cost *= max(matches, 1)
        if cost > 10**9:
            break
    return cost


def tractable_case(rng: random.Random, max_quads: int = 200, budget: int = 500_000):
    """A random (dataset, BGP) pair kept within a nested-loop work budget."""
    quads = random_dataset(rng, max_quads)
    for _ in range(50):
        patterns = random_bgp(rng)
        if oracle_cost(quads, patterns) <= budget:
            return quads, patterns
    return quads[:15], random_bgp(rng)


# --- program-graph field tables --------------------------------------------

# The rdf:type of a typed program-graph node, written and read as the class term.
TYPE = ("type", Iri(RDF_TYPE), NODE, 1, 1)

# One field table per PLA node; field names are those of the records the
# node encodes. A field two tables share is declared once.
_COMPOSITION_INDEX = ("composition_index", PLA_HAS_COMPOSITION_INDEX, INT, 1, 1)
_SLOT_INDEX = ("index", PLA_HAS_SLOT_INDEX, INT, 1, 1)
_TARGET = ("target", PLA_HAS_TARGET_VARIABLE, STR, 1, 1)
_FUNCTION = ("function", PLA_CALLS_FUNCTION, IRI, 1, 1)

PLA_PROGRAM_FIELDS = (
    TYPE,
    ("basename", PLA_HAS_BASENAME, STR, 1, 1),
    ("structure_iri", PLA_USES_STRUCTURE, IRI, 1, 1),
    ("sections", PLA_HAS_SECTION, NODE, 1, MANY),
    ("library_references", PLA_HAS_LIBRARY_REFERENCE, NODE, 0, MANY),
)
PLA_SECTION_FIELDS = (
    TYPE,
    ("name", PLA_HAS_SECTION_NAME, STR, 1, 1),
    ("entity_iri", PLA_SECTION_ENTITY, IRI, 1, 1),
    ("emission_index", PLA_HAS_EMISSION_INDEX, INT, 1, 1),
    _COMPOSITION_INDEX,
    ("statements", PLA_HAS_STATEMENT, NODE, 0, MANY),
)
PLA_LIBRARY_REFERENCE_FIELDS = (_SLOT_INDEX, ("library", PLA_REFERS_TO_LIBRARY, IRI, 1, 1))
# Every statement node: its statement kind as rdf:type, and where it is placed.
PLA_PLACEMENT_FIELDS = (TYPE, ("order_index", PLA_HAS_ORDER_INDEX, INT, 1, 1), _COMPOSITION_INDEX)
# One child node per argument of a call, naming the variable passed.
PLA_ARGUMENT_SLOT_FIELDS = (_SLOT_INDEX, ("variable", PLA_HAS_VARIABLE_REF, STR, 1, 1))
# Record class -> (statement kind, fields).
PLA_STATEMENTS = {
    AssignLiteral: (
        PLA_ASSIGN_LITERAL,
        (_TARGET, ("value", PLA_HAS_LITERAL_VALUE, STR, 1, 1), ("role", PLA_HAS_LITERAL_ROLE, IRI, 1, 1)),
    ),
    AssignCall: (PLA_ASSIGN_CALL, (_TARGET, _FUNCTION, ("args", PLA_HAS_ARGUMENT_SLOT, NODE, 0, MANY))),
    ReportValue: (
        PLA_REPORT_VALUE,
        (("label", PLA_HAS_REPORT_LABEL, STR, 1, 1), ("source", PLA_HAS_SOURCE_VARIABLE, STR, 1, 1)),
    ),
    ProgramExit: (PLA_PROGRAM_EXIT, (("status", PLA_HAS_EXIT_STATUS, INT, 1, 1), _FUNCTION)),
    ImportDirective: (PLA_IMPORT_DIRECTIVE, (("library", PLA_IMPORTS_LIBRARY, IRI, 1, 1),)),
}
# A statement field that holds a KB record, written as its IRI -> the `views.Kb` field that holds that kind.
_RECORD_FIELDS = {"function": "functions", "library": "libraries"}

# One field table per PLR node.
PLR_PROGRAM_FIELDS = (
    TYPE,
    ("basename", PLR_HAS_BASENAME, STR, 1, 1),
    ("language_iri", PLR_HAS_LANGUAGE, IRI, 1, 1),
    ("statements", PLR_HAS_STATEMENT, NODE, 0, MANY),
)
PLR_STATEMENT_FIELDS = (
    TYPE,
    ("variation", PLR_HAS_VARIATION, STR, 1, 1),
    ("section", PLR_IN_SECTION, STR, 1, 1),
    ("section_index", PLR_HAS_SECTION_INDEX, INT, 1, 1),
    ("statement_index", PLR_HAS_STATEMENT_INDEX, INT, 1, 1),
    ("elements", PLR_HAS_ELEMENT_SLOT, NODE, 1, MANY),
)
PLR_ELEMENT_FIELDS = (("index", PLR_HAS_ELEMENT_INDEX, INT, 1, 1), ("text", PLR_HAS_ELEMENT_TEXT, STR, 1, 1))


# --- record helpers ------------------------------------------------------


def pla_section(pla: PlaProgram, name: str) -> PlaSection:
    """The section of the abstract program named `name`."""
    for sec in pla.sections:
        if sec.name == name:
            return sec
    raise KeyError(name)


def pla_statements(pla: PlaProgram) -> list[PlacedStatement]:
    """Every statement of the abstract program, in composition order."""
    return sorted((placed for sec in pla.sections for placed in sec.statements), key=lambda p: p.composition_index)


def plr_statements(plr: PlrProgram) -> list[PlacedConcrete]:
    """Every statement of the concrete program, sections in emission order."""
    return [placed for _, statements in plr.sections for placed in statements]


# --- the reference encoder -----------------------------------------------

# The term a value of each kind is written as (no program graph holds a
# boolean); a link kind, not in the table, writes the term itself.
_TERM = {STR: Literal, INT: integer_literal, IRI: Iri}


def encode(store: QuadStore, graph: str, nodes):
    """Insert every node of `graph`, each (fields, node, values): one quad per value of each field on the node.

    Each quad is the term `views.read` reads back: the kind decides it, a
    literal, an IRI built from its string, or the link term given. A
    single-valued field takes a value or None (no quad), a many-valued one
    an iterable; values no field names are ignored. Every value of every
    node is checked before the first quad goes in, as one batch, so a
    malformed one leaves the store as it was.
    """
    quads = []
    for fields, node, values in nodes:
        if not isinstance(node, Iri):
            raise MalformedQuadError(f"a program-graph node must be an IRI: {node!r}")
        for name, predicate, kind, _, high in fields:
            value = values[name]
            if value is None:
                continue
            term = _TERM.get(kind)
            for item in value if high is MANY else (value,):
                if term is not None:
                    item = term(item)
                elif not isinstance(item, (Iri, Blank)):
                    raise MalformedQuadError(f"field {name!r} takes an IRI or blank node, got {item!r}")
                quads.append(Quad(node, predicate, item, graph))
    for quad in quads:
        store.insert(quad)


def pla_nodes(program: PlaProgram):
    """The abstract program's graph as `encode` takes it, one (fields, node, values) per node."""
    graph = program.graph_iri
    refs = [Iri(f"{graph}#libref-{index}") for index in range(len(program.referenced_libraries))]
    for index, (ref, library) in enumerate(zip(refs, program.referenced_libraries)):
        yield PLA_LIBRARY_REFERENCE_FIELDS, ref, {"index": index, "library": library.iri}
    sections = []
    for sec in program.sections:
        statements = []
        for placed in sec.statements:
            node = Iri(f"{graph}#stmt-{placed.composition_index}")
            kind, fields = PLA_STATEMENTS[type(placed.statement)]
            values = dict(placed._asdict(), **placed.statement._asdict(), type=kind)
            for name in _RECORD_FIELDS.keys() & values.keys():
                values[name] = values[name].iri
            # A call's arguments are child nodes of its statement node, one per slot.
            args = values.get("args", ())
            values["args"] = slots = [Iri(f"{node.value}-arg{index}") for index in range(len(args))]
            for index, (slot, arg) in enumerate(zip(slots, args)):
                yield PLA_ARGUMENT_SLOT_FIELDS, slot, {"index": index, "variable": arg}
            yield PLA_PLACEMENT_FIELDS, node, values
            yield fields, node, values
            statements.append(node)
        node = Iri(f"{graph}#section-{sec.name.lower()}")
        yield PLA_SECTION_FIELDS, node, dict(sec._asdict(), type=PLA_SECTION, statements=statements)
        sections.append(node)
    yield PLA_PROGRAM_FIELDS, Iri(program.program_iri), dict(program._asdict(), type=PLA_PROGRAM, sections=sections,
                                                             library_references=refs)


def plr_nodes(plr: PlrProgram):
    """The concrete program's graph as `encode` takes it, one (fields, node, values) per node."""
    statements = []
    for statement_index, placed in enumerate(plr_statements(plr)):
        node = Iri(f"{plr.graph_iri}#stmt-{statement_index}")
        elements = [Iri(f"{node.value}-e{index}") for index in range(len(placed.elements))]
        for index, (element, text) in enumerate(zip(elements, placed.elements)):
            yield PLR_ELEMENT_FIELDS, element, {"index": index, "text": text}
        yield PLR_STATEMENT_FIELDS, node, dict(placed._asdict(), type=PLR_STATEMENT, statement_index=statement_index,
                                               elements=elements)
        statements.append(node)
    yield PLR_PROGRAM_FIELDS, Iri(plr.program_iri), dict(plr._asdict(), type=PLR_PROGRAM, statements=statements)


# --- program-graph decoders ----------------------------------------------


def _read(store: QuadStore, graph: str, fields: tuple, node, error: type) -> dict:
    """Every field of `fields` on `node`, as `views.read` reads it; any problem raises `error`, the problems joined."""
    problems: list[str] = []
    values = views.read(store, graph, fields, node, problems, {})
    if problems:
        raise error("; ".join(problems))
    return values


def _typed_node(store: QuadStore, graph: str, cls: Iri, error: type):
    """The one node of `graph` typed `cls`; none, or more than one, raises `error`."""
    nodes = store.subjects(Iri(RDF_TYPE), cls, graph)
    if len(nodes) != 1:
        raise error(f"graph {graph} holds {len(nodes)} nodes typed {_format_term(cls)}, expected 1")
    return nodes[0]


def load_pla(store: QuadStore, graph_iri: str) -> PlaProgram:
    """The abstract program its graph holds; the functions and libraries it names are the KB's records."""
    kb = views.kb(store)
    program = _typed_node(store, graph_iri, PLA_PROGRAM, ComposeError)
    fields = _read(store, graph_iri, PLA_PROGRAM_FIELDS, program, ComposeError)
    sections = [_read_section(store, graph_iri, node, kb) for node in fields["sections"]]
    refs = sorted((_read(store, graph_iri, PLA_LIBRARY_REFERENCE_FIELDS, ref, ComposeError)
                   for ref in fields["library_references"]), key=itemgetter("index"))
    return PlaProgram(
        graph_iri=graph_iri,
        program_iri=program.value,
        basename=fields["basename"],
        structure_iri=fields["structure_iri"],
        sections=tuple(sorted(sections, key=lambda s: s.emission_index)),
        referenced_libraries=tuple(_in_kb(kb.libraries, ref["library"]) for ref in refs),
    )


def _in_kb(records: dict, iri: str):
    if iri not in records:
        raise ComposeError(f"{iri} is not in the knowledge base")
    return records[iri]


# Statement kind -> (record class, fields), from the one table of statement nodes.
_RECORDS = {kind: (record, fields) for record, (kind, fields) in PLA_STATEMENTS.items()}


def _read_section(store: QuadStore, graph: str, node: Iri, kb: views.Kb) -> PlaSection:
    section = _read(store, graph, PLA_SECTION_FIELDS, node, ComposeError)
    del section["type"]
    placed = [_read_statement(store, graph, statement, section["name"], kb) for statement in section.pop("statements")]
    return PlaSection(**section, statements=tuple(sorted(placed, key=lambda p: p.order_index)))


def _read_statement(store: QuadStore, graph: str, node: Iri, section: str, kb: views.Kb) -> PlacedStatement:
    placement = _read(store, graph, PLA_PLACEMENT_FIELDS, node, ComposeError)
    if placement["type"] not in _RECORDS:
        raise ComposeError(f"statement node {node.value} has no recognized kind")
    record, fields = _RECORDS[placement["type"]]
    values = _read(store, graph, fields, node, ComposeError)
    if "args" in values:  # a call: one child node per argument, read back in slot order
        slots = sorted((_read(store, graph, PLA_ARGUMENT_SLOT_FIELDS, slot, ComposeError) for slot in values["args"]),
                       key=itemgetter("index"))
        values["args"] = tuple(slot["variable"] for slot in slots)
    for name in _RECORD_FIELDS.keys() & values.keys():
        values[name] = _in_kb(getattr(kb, _RECORD_FIELDS[name]), values[name])
    return PlacedStatement(record(**values), section, placement["order_index"], placement["composition_index"])


def load_plr(store: QuadStore, graph_iri: str) -> PlrProgram:
    """The concrete program its graph holds."""
    sections: dict[str, list[PlacedConcrete]] = {name: [] for name in vocab.EMISSION_ORDER}
    program = _typed_node(store, graph_iri, PLR_PROGRAM, RenderError)
    fields = _read(store, graph_iri, PLR_PROGRAM_FIELDS, program, RenderError)
    for node in fields["statements"]:
        statement = _read(store, graph_iri, PLR_STATEMENT_FIELDS, node, RenderError)
        elements = sorted((_read(store, graph_iri, PLR_ELEMENT_FIELDS, element, RenderError)
                           for element in statement["elements"]), key=itemgetter("index"))
        texts = tuple(element["text"] for element in elements)
        placed = PlacedConcrete(statement["variation"], statement["section"], statement["section_index"], texts)
        sections[statement["section"]].append(placed)
    return PlrProgram(
        graph_iri=graph_iri,
        program_iri=program.value,
        basename=fields["basename"],
        language_iri=fields["language_iri"],
        sections=tuple(
            (name, tuple(sorted(placed, key=lambda p: p.section_index))) for name, placed in sections.items()
        ),
    )
