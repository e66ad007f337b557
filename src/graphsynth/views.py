"""Typed read-views over the loaded knowledge base, and the field-table codec.

`SHAPES` declares once, in the manner of SHACL Core, the shape of every
entity class the views read: per property its field, predicate, kind and
cardinality, plus the field that labels the instances. `check_kb`
validates every instance against it at load; the views then fill their
`NamedTuple` records from the same table through `read`, with no
defaults: an absent optional value reads as None (or an empty tuple).
The program graphs declare their nodes in field tables of the same form
and are written by `write` and read back by `read`. Views never mutate
the store and never interpret anything beyond the explicitly inserted
triples.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterator, NamedTuple

from graphsynth import vocab
from graphsynth.errors import CardinalityError
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.terms import RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER, XSD_STRING, Iri, Literal, Term, integer_literal, sort_key
from graphsynth.turtle import _format_term


class DataSourceInfo(NamedTuple):
    iri: str
    name: str
    container: str
    format: str
    encoding: str
    value_datatype: str
    value_datatype_numeric: bool
    header_rows: int
    data_rows: int
    values_per_row: int
    quantity_types: tuple[str, ...]
    location: str
    content_type_label: str | None

    @property
    def quantity_type(self) -> str | None:
        return self.quantity_types[0] if len(self.quantity_types) == 1 else None


class AlgorithmInfo(NamedTuple):
    iri: str
    name: str
    output_description_labels: frozenset[str]
    min_input_count: int
    input_numeric: bool
    inputs_same_quantity: bool
    output_arity: int
    output_quantity: str
    time_complexity: str


class LibraryInfo(NamedTuple):
    iri: str
    official_name: str
    alias: str | None
    kind: str


class CodeFunctionInfo(NamedTuple):
    iri: str
    callable_name: str
    library: LibraryInfo
    language: str
    language_family: str
    purpose: str
    arg_spec: tuple[str, ...]
    return_role: str | None

    @property
    def qualified_name(self) -> str:
        return f"{self.library.official_name}.{self.callable_name}"


class SectionSlotInfo(NamedTuple):
    section_iri: str
    name: str
    emission_index: int
    composition_index: int


class ProgramStructureInfo(NamedTuple):
    iri: str
    name: str
    slots: tuple[SectionSlotInfo, ...]
    satisfied_requirements: frozenset[str]

    def emission_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in sorted(self.slots, key=lambda s: s.emission_index))

    def composition_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in sorted(self.slots, key=lambda s: s.composition_index))


class LanguageInfo(NamedTuple):
    iri: str
    tag: str
    family: str
    source_file_extension: str
    paradigm: str
    string_quote: str


class NamingPatternInfo(NamedTuple):
    iri: str
    pattern_id: str
    separator: str | None
    suffix_label: str | None


class TemplateSlotInfo(NamedTuple):
    index: int
    text: str | None
    field: str | None


class StatementFormInfo(NamedTuple):
    iri: str
    variation_id: str
    family: str
    slots: tuple[TemplateSlotInfo, ...]


class ReadCapabilityInfo(NamedTuple):
    iri: str
    format: str
    value_datatype: str
    container: str


# --- the shape table -----------------------------------------------------

# Value kinds, as sh:datatype; a NAME is a string literal each of whose
# '.'-separated parts is an identifier. NODE is a link to a node that the
# same graph describes. Any other kind is a class, as sh:class: the value is
# an IRI typed with it. NODE and the class kinds are the links; they read as
# the term itself.
STR, INT, BOOL, IRI, NAME, NODE = "string", "integer", "boolean", "IRI", "name", "node"
MANY = None  # no upper bound on the number of values, as no sh:maxCount

Field = tuple[str, Iri, str, int, "int | None"]  # (name, predicate, kind, min, max)

# Class -> (label field or None, fields).
SHAPES: dict[str, tuple[str | None, tuple[Field, ...]]] = {
    vocab.DATA_SOURCE: ("name", (
        ("name", Iri(vocab.HAS_NAME), STR, 1, 1),
        ("container", Iri(vocab.HAS_CONTAINER), IRI, 1, 1),
        ("format", Iri(vocab.HAS_FORMAT), IRI, 1, 1),
        ("encoding", Iri(vocab.HAS_ENCODING), IRI, 1, 1),
        ("value_datatype", Iri(vocab.HAS_VALUE_DATATYPE), vocab.VALUE_DATATYPE, 1, 1),
        ("header_rows", Iri(vocab.HAS_HEADER_ROW_COUNT), INT, 1, 1),
        ("data_rows", Iri(vocab.HAS_DATA_ROW_COUNT), INT, 1, 1),
        ("values_per_row", Iri(vocab.HAS_VALUES_PER_ROW), INT, 1, 1),
        ("quantity_types", Iri(vocab.HAS_QUANTITY_KIND), IRI, 1, MANY),
        ("location", Iri(vocab.HAS_LOCATION), STR, 1, 1),
        ("content_kind", Iri(vocab.HAS_CONTENT_KIND), vocab.DATA_CONTENT_KIND, 0, 1))),
    vocab.VALUE_DATATYPE: (None, (("numeric", Iri(vocab.IS_NUMERIC), BOOL, 1, 1),)),
    vocab.DATA_CONTENT_KIND: ("type_label", (("type_label", Iri(vocab.HAS_TYPE_LABEL), STR, 1, 1),)),
    vocab.ALGORITHM: ("output_description_labels", (
        ("name", Iri(vocab.HAS_NAME), STR, 1, 1),
        ("output_description_labels", Iri(vocab.HAS_OUTPUT_DESCRIPTION_LABEL), STR, 1, MANY),
        ("min_input_count", Iri(vocab.HAS_MIN_INPUT_COUNT), INT, 1, 1),
        ("input_numeric", Iri(vocab.REQUIRES_NUMERIC_INPUT), BOOL, 1, 1),
        ("inputs_same_quantity", Iri(vocab.REQUIRES_SAME_QUANTITY_KIND), BOOL, 1, 1),
        ("output_arity", Iri(vocab.HAS_OUTPUT_ARITY), INT, 1, 1),
        ("output_quantity", Iri(vocab.HAS_OUTPUT_QUANTITY), IRI, 1, 1),
        ("time_complexity", Iri(vocab.HAS_TIME_COMPLEXITY), STR, 1, 1))),
    vocab.CODE_FUNCTION: ("callable_name", (
        ("callable_name", Iri(vocab.HAS_CALLABLE_NAME), NAME, 1, 1),
        ("library", Iri(vocab.PROVIDED_BY), vocab.LIBRARY, 1, 1),
        ("language", Iri(vocab.IN_LANGUAGE), vocab.LANGUAGE_FAMILY, 1, 1),
        ("purpose", Iri(vocab.HAS_PURPOSE), IRI, 1, 1),
        ("arg_slots", Iri(vocab.HAS_ARGUMENT_SLOT), vocab.ARGUMENT_SLOT, 1, MANY),
        ("return_role", Iri(vocab.HAS_RETURN_ROLE), IRI, 0, 1))),
    vocab.ARGUMENT_SLOT: (None, (
        ("index", Iri(vocab.HAS_SLOT_INDEX), INT, 1, 1),
        ("role", Iri(vocab.HAS_SLOT_ROLE), IRI, 1, 1))),
    vocab.LIBRARY: ("official_name", (
        ("official_name", Iri(vocab.HAS_OFFICIAL_NAME), NAME, 1, 1),
        ("alias", Iri(vocab.HAS_ALIAS), NAME, 0, 1),
        ("kind", Iri(vocab.HAS_LIBRARY_KIND), STR, 1, 1))),
    vocab.PROGRAMMING_LANGUAGE: ("tag", (
        ("tag", Iri(vocab.HAS_VERSION_TAG), STR, 1, 1),
        ("family", Iri(vocab.IN_FAMILY), vocab.LANGUAGE_FAMILY, 1, 1),
        ("source_file_extension", Iri(vocab.HAS_SOURCE_FILE_EXTENSION), STR, 1, 1),
        ("paradigm", Iri(vocab.HAS_PARADIGM), IRI, 1, 1),
        ("string_quote", Iri(vocab.HAS_STRING_LITERAL_QUOTE), STR, 1, 1))),
    vocab.LANGUAGE_FAMILY: ("name", (("name", Iri(vocab.HAS_FAMILY_NAME), STR, 1, 1),)),
    vocab.PROGRAM_STRUCTURE: ("name", (
        ("name", Iri(vocab.HAS_NAME), STR, 1, 1),
        ("slots", Iri(vocab.HAS_SECTION_SLOT), vocab.SECTION_SLOT, 1, MANY),
        ("requirements", Iri(vocab.SATISFIES_REQUIREMENT), vocab.PROGRAM_REQUIREMENT, 1, MANY))),
    vocab.SECTION_SLOT: (None, (
        ("section_iri", Iri(vocab.HAS_SECTION), vocab.PROGRAM_SECTION, 1, 1),
        ("emission_index", Iri(vocab.HAS_EMISSION_INDEX), INT, 1, 1),
        ("composition_index", Iri(vocab.HAS_COMPOSITION_INDEX), INT, 1, 1))),
    vocab.PROGRAM_SECTION: ("name", (("name", Iri(vocab.HAS_NAME), STR, 1, 1),)),
    vocab.PROGRAM_REQUIREMENT: ("label", (
        ("label", Iri(vocab.HAS_REQUIREMENT_LABEL), STR, 1, 1),
        ("implied_action", Iri(vocab.IMPLIES_RUNTIME_ACTION), IRI, 0, 1))),
    vocab.READ_CAPABILITY: (None, (
        ("format", Iri(vocab.READS_FORMAT), IRI, 1, 1),
        ("value_datatype", Iri(vocab.READS_VALUE_DATATYPE), IRI, 1, 1),
        ("container", Iri(vocab.READS_CONTAINER), IRI, 1, 1))),
    vocab.NAMING_PATTERN: ("pattern_id", (
        ("pattern_id", Iri(vocab.HAS_PATTERN_ID), STR, 1, 1),
        ("separator", Iri(vocab.HAS_LABEL_SEPARATOR), STR, 0, 1),
        ("suffix_label", Iri(vocab.HAS_SUFFIX_LABEL), STR, 0, 1))),
    vocab.STATEMENT_FORM: ("variation_id", (
        ("variation_id", Iri(vocab.HAS_VARIATION_ID), STR, 1, 1),
        ("family", Iri(vocab.FOR_LANGUAGE_FAMILY), STR, 1, 1),
        ("slots", Iri(vocab.HAS_TEMPLATE_SLOT), vocab.TEMPLATE_SLOT, 1, MANY))),
    vocab.TEMPLATE_SLOT: (None, (
        ("index", Iri(vocab.HAS_SLOT_INDEX), INT, 1, 1),
        ("text", Iri(vocab.HAS_SLOT_TEXT), STR, 0, 1),
        ("field", Iri(vocab.HAS_SLOT_FIELD), STR, 0, 1))),
}

_RDF_TYPE = Iri(RDF_TYPE)
# The rdf:type of a typed program-graph node, written and read as the class term.
TYPE: Field = ("type", _RDF_TYPE, NODE, 1, 1)
_INTEGER = re.compile(r"[+-]?[0-9]+")
# The Python value a term of each kind reads as, and the term a value of each
# kind is written as (no program graph holds a boolean); a link kind, in
# neither table, reads and writes the term itself.
_VALUE = {
    STR: attrgetter("lexical"), NAME: attrgetter("lexical"), INT: lambda t: int(t.lexical),
    BOOL: lambda t: t.lexical == "true", IRI: attrgetter("value"),
}
_TERM = {STR: Literal, NAME: Literal, INT: integer_literal, IRI: Iri}
_EXPECTED_COUNT = {(1, 1): "exactly 1 value", (0, 1): "at most 1 value", (1, MANY): "at least 1 value"}


def read(store: QuadStore, graph: str, fields: tuple[Field, ...], node: Term | None) -> dict:
    """Every field of `fields` on `node`, by name: literal kinds as Python values, IRI as its string, links as the term.

    A single-valued field reads as its value or None, a many-valued one as a
    tuple. A required field with no value raises CardinalityError, as a
    second value of a single-valued field does. No node (an absent link)
    reads as a node with no properties.
    """
    if node is None:
        return {name: None if high == 1 else () for name, _, _, _, high in fields}
    out = {}
    for name, predicate, kind, low, high in fields:
        value = _VALUE.get(kind)
        if high == 1:
            term = store.value(node, predicate, graph)
            if term is not None:
                out[name] = value(term) if value else term
                continue
            out[name] = None
        else:
            terms = store.objects(node, predicate, graph)
            out[name] = tuple(map(value, terms) if value else terms)
            if terms:
                continue
        if low:
            raise CardinalityError(
                f"{node!r} {predicate!r} has no value in graph {graph}, expected {_EXPECTED_COUNT[low, high]}"
            )
    return out


def write(store: QuadStore, graph: str, fields: tuple[Field, ...], node: Iri, **values):
    """Insert one quad per value of each field of `fields` on `node`, as the term `read` reads back.

    The kind decides the term: a literal, an IRI built from its string, or
    the link term given. A single-valued field takes a value or None (no
    quad), a many-valued one an iterable; values no field names are ignored.
    """
    for name, predicate, kind, _, high in fields:
        value = values[name]
        if value is None:
            continue
        term = _TERM.get(kind)
        for item in value if high is MANY else (value,):
            store.insert(Quad(node, predicate, term(item) if term else item, graph))


def typed_node(store: QuadStore, graph: str, cls: Iri) -> Term:
    """The one node of `graph` typed `cls`; none, or more than one, raises CardinalityError."""
    rows = store.match_pattern(Pattern(Var("n"), _RDF_TYPE, cls, graph))
    if len(rows) != 1:
        raise CardinalityError(f"graph {graph} holds {len(rows)} nodes typed {cls!r}, expected 1")
    return rows[0]["n"]


def _read(store: QuadStore, graph: str, cls: str, node: Term | None) -> dict:
    """The fields of `cls`'s shape on `node`."""
    return read(store, graph, SHAPES[cls][1], node)


def _instances(store: QuadStore, graph: str, cls: str, *where: tuple[str, Term]) -> list[Iri]:
    """The instances of `cls` that hold each (predicate, object) pair of `where`."""
    patterns = [Pattern(Var("s"), _RDF_TYPE, Iri(cls), graph)]
    patterns += [Pattern(Var("s"), Iri(predicate), obj, graph) for predicate, obj in where]
    return [row["s"] for row in store.query_bgp(patterns) if isinstance(row["s"], Iri)]


def _is_a(store: QuadStore, graph: str, node: Iri, cls: str) -> bool:
    return Iri(cls) in store.objects(node, _RDF_TYPE, graph)


def _all(store: QuadStore, graph: str, cls: str, info: type) -> list:
    """Every instance of `cls`, filled into the record class `info` by field name straight from its shape."""
    return [info(iri=node.value, **_read(store, graph, cls, node)) for node in _instances(store, graph, cls)]


# --- data sources and algorithms -----------------------------------------


def _data_source_info(store: QuadStore, graph: str, node: Iri) -> DataSourceInfo:
    fields = _read(store, graph, vocab.DATA_SOURCE, node)
    datatype = _read(store, graph, vocab.VALUE_DATATYPE, fields["value_datatype"])
    content_kind = _read(store, graph, vocab.DATA_CONTENT_KIND, fields.pop("content_kind"))
    fields["value_datatype"] = fields["value_datatype"].value
    return DataSourceInfo(
        iri=node.value, **fields, value_datatype_numeric=datatype["numeric"], content_type_label=content_kind["type_label"]
    )


def view_data_source(store: QuadStore, name: str, graph: str = vocab.CORE_GRAPH) -> list[DataSourceInfo]:
    """All data sources whose name equals `name` exactly (case-sensitive)."""
    matches = _instances(store, graph, vocab.DATA_SOURCE, (vocab.HAS_NAME, Literal(name)))
    return [_data_source_info(store, graph, node) for node in matches]


def _algorithm_info(store: QuadStore, graph: str, node: Iri) -> AlgorithmInfo:
    fields = _read(store, graph, vocab.ALGORITHM, node)
    labels = frozenset(fields.pop("output_description_labels"))
    return AlgorithmInfo(iri=node.value, output_description_labels=labels, **fields)


def view_algorithm_by_label(store: QuadStore, label: str, graph: str = vocab.CORE_GRAPH) -> list[AlgorithmInfo]:
    """All algorithms carrying `label` among their output description labels."""
    matches = _instances(store, graph, vocab.ALGORITHM, (vocab.HAS_OUTPUT_DESCRIPTION_LABEL, Literal(label)))
    return [_algorithm_info(store, graph, node) for node in matches]


def view_all_algorithms(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[AlgorithmInfo]:
    return [_algorithm_info(store, graph, node) for node in _instances(store, graph, vocab.ALGORITHM)]


def view_labels(store: QuadStore, cls: str, graph: str = vocab.CORE_GRAPH) -> list[str]:
    """The distinct values of a shaped class's label field over all its instances, sorted."""
    field = SHAPES[cls][0]
    values = [_read(store, graph, cls, node)[field] for node in _instances(store, graph, cls)]
    return sorted({label for value in values for label in (value if isinstance(value, tuple) else (value,))})


# --- libraries and code functions ----------------------------------------


def _library_info(store: QuadStore, graph: str, node: Iri) -> LibraryInfo:
    return LibraryInfo(iri=node.value, **_read(store, graph, vocab.LIBRARY, node))


def view_library(store: QuadStore, iri: str, graph: str = vocab.CORE_GRAPH) -> LibraryInfo | None:
    """The library `iri`, or None if it is no gs:Library."""
    node = Iri(iri)
    return _library_info(store, graph, node) if _is_a(store, graph, node, vocab.LIBRARY) else None


def _code_function_info(store: QuadStore, graph: str, node: Iri) -> CodeFunctionInfo:
    fields = _read(store, graph, vocab.CODE_FUNCTION, node)
    slots = [_read(store, graph, vocab.ARGUMENT_SLOT, slot) for slot in fields["arg_slots"]]
    return CodeFunctionInfo(
        iri=node.value,
        callable_name=fields["callable_name"],
        library=_library_info(store, graph, fields["library"]),
        language=fields["language"].value,
        language_family=_read(store, graph, vocab.LANGUAGE_FAMILY, fields["language"])["name"],
        purpose=fields["purpose"],
        arg_spec=tuple(role for _, role in sorted((slot["index"], slot["role"]) for slot in slots)),
        return_role=fields["return_role"],
    )


def view_code_function(
    store: QuadStore, purpose: str, language_family: str, library_pref: str | None = None, graph: str = vocab.CORE_GRAPH
) -> list[CodeFunctionInfo]:
    """Functions with the given purpose in the given language family.

    When `library_pref` is given, only functions from the library with that
    official name are returned.
    """
    matches = _instances(store, graph, vocab.CODE_FUNCTION, (vocab.HAS_PURPOSE, Iri(purpose)))
    functions = [_code_function_info(store, graph, node) for node in matches]
    in_family = [fn for fn in functions if fn.language_family == language_family]
    return [fn for fn in in_family if library_pref in (None, fn.library.official_name)]


def view_code_function_by_iri(store: QuadStore, iri: str, graph: str = vocab.CORE_GRAPH) -> CodeFunctionInfo | None:
    """The code function `iri`, or None if it is no gs:CodeFunction."""
    node = Iri(iri)
    return _code_function_info(store, graph, node) if _is_a(store, graph, node, vocab.CODE_FUNCTION) else None


# --- structures, languages, requirements ---------------------------------


def _structure_info(store: QuadStore, graph: str, node: Iri) -> ProgramStructureInfo:
    fields = _read(store, graph, vocab.PROGRAM_STRUCTURE, node)
    slots = []
    for slot_node in fields["slots"]:
        slot = _read(store, graph, vocab.SECTION_SLOT, slot_node)
        section = slot["section_iri"]
        name = _read(store, graph, vocab.PROGRAM_SECTION, section)["name"]
        slots.append(SectionSlotInfo(section.value, name, slot["emission_index"], slot["composition_index"]))
    requirements = [_read(store, graph, vocab.PROGRAM_REQUIREMENT, req)["label"] for req in fields["requirements"]]
    return ProgramStructureInfo(
        iri=node.value,
        name=fields["name"],
        slots=tuple(sorted(slots, key=lambda s: s.emission_index)),
        satisfied_requirements=frozenset(requirements),
    )


def view_structures(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[ProgramStructureInfo]:
    return [_structure_info(store, graph, node) for node in _instances(store, graph, vocab.PROGRAM_STRUCTURE)]


def view_languages(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[LanguageInfo]:
    out = []
    for node in _instances(store, graph, vocab.PROGRAMMING_LANGUAGE):
        fields = _read(store, graph, vocab.PROGRAMMING_LANGUAGE, node)
        fields["family"] = _read(store, graph, vocab.LANGUAGE_FAMILY, fields["family"])["name"]
        out.append(LanguageInfo(iri=node.value, **fields))
    return out


def view_read_capabilities(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[ReadCapabilityInfo]:
    return _all(store, graph, vocab.READ_CAPABILITY, ReadCapabilityInfo)


def view_naming_patterns(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> dict[str, NamingPatternInfo]:
    return {pattern.pattern_id: pattern for pattern in _all(store, graph, vocab.NAMING_PATTERN, NamingPatternInfo)}


def view_statement_forms(store: QuadStore, family: str, graph: str = vocab.CORE_GRAPH) -> dict[str, StatementFormInfo]:
    """Statement form templates for one language family, keyed by variation id."""
    out: dict[str, StatementFormInfo] = {}
    for node in _instances(store, graph, vocab.STATEMENT_FORM, (vocab.FOR_LANGUAGE_FAMILY, Literal(family))):
        fields = _read(store, graph, vocab.STATEMENT_FORM, node)
        slots = [TemplateSlotInfo(**_read(store, graph, vocab.TEMPLATE_SLOT, slot)) for slot in fields["slots"]]
        variation = fields["variation_id"]
        out[variation] = StatementFormInfo(node.value, variation, family, tuple(sorted(slots, key=lambda s: s.index)))
    return out


# --- load-time check -----------------------------------------------------

_EXPECTED_KIND = {
    STR: "a string literal", NAME: "a dotted identifier", INT: "an integer literal", BOOL: "a boolean literal",
    IRI: "an IRI",
}


def _has_kind(term: Term, kind: str, members: dict[str, set]) -> bool:
    if kind == STR:
        return isinstance(term, Literal) and term.datatype == XSD_STRING
    if kind == NAME:
        return _has_kind(term, STR, members) and all(part.isidentifier() for part in term.lexical.split("."))
    if kind == INT:
        return isinstance(term, Literal) and term.datatype == XSD_INTEGER and bool(_INTEGER.fullmatch(term.lexical))
    if kind == BOOL:
        return isinstance(term, Literal) and term.datatype == XSD_BOOLEAN and term.lexical in ("true", "false")
    return isinstance(term, Iri) and (kind == IRI or term in members[kind])


def _shape_problems(store: QuadStore, graph: str, cls: str, subject: Iri, members: dict[str, set]) -> Iterator[str]:
    """`ENTITY PROPERTY: expected ..., found ...` for each way `subject` breaks `cls`'s shape."""
    for _, predicate, kind, low, high in SHAPES[cls][1]:
        values = store.objects(subject, predicate, graph)
        bad_count = len(values) < low or (high is not MANY and len(values) > high)
        bad_values = [value for value in values if not _has_kind(value, kind, members)]
        if not bad_count and not bad_values:
            continue
        where = f"{_format_term(subject)} {_format_term(predicate)}"
        if bad_count:
            yield f"{where}: expected {_EXPECTED_COUNT[low, high]}, found {len(values)}"
        for value in bad_values:
            expected = _EXPECTED_KIND.get(kind) or f"an instance of {_format_term(Iri(kind))}"
            yield f"{where}: expected {expected}, found {_format_term(value)}"


def check_kb(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[str]:
    """Problems in a loaded KB; an empty list means clean.

    Every instance of a shaped class is checked against its shape first. The
    cross-entity checks read through the views, which trust the shapes, so
    they run only on a KB with no shape problem. The composer and the
    renderer follow `vocab.EMISSION_ORDER` and `vocab.COMPOSITION_ORDER`, so
    a structure must order its five named sections that way.
    """
    members = {cls: set(_instances(store, graph, cls)) for cls in SHAPES}  # for the class kinds
    problems = [
        problem
        for cls in SHAPES
        for node in sorted(members[cls], key=sort_key)
        for problem in _shape_problems(store, graph, cls, node, members)
    ]
    if problems:
        return problems
    python_functions = [
        Pattern(Var("fn"), _RDF_TYPE, Iri(vocab.CODE_FUNCTION), graph),
        Pattern(Var("fn"), Iri(vocab.HAS_PURPOSE), Var("purpose"), graph),
        Pattern(Var("fn"), Iri(vocab.IN_LANGUAGE), Var("family"), graph),
        Pattern(Var("family"), Iri(vocab.HAS_FAMILY_NAME), Literal("Python"), graph),
    ]
    implemented = {row["purpose"] for row in store.query_bgp(python_functions)}
    for alg in _instances(store, graph, vocab.ALGORITHM):
        if alg not in implemented:
            name = _read(store, graph, vocab.ALGORITHM, alg)["name"]
            problems.append(f"algorithm {name} has no implementing Python code function")
    for structure in view_structures(store, graph):
        emission = sorted(s.emission_index for s in structure.slots)
        composition = sorted(s.composition_index for s in structure.slots)
        if emission != composition or emission != list(range(len(structure.slots))):
            problems.append(f"structure {structure.name} orderings are not permutations of 0..n-1")
            continue
        for kind, order, expected in (
            ("emission", structure.emission_order(), vocab.EMISSION_ORDER),
            ("composition", structure.composition_order(), vocab.COMPOSITION_ORDER),
        ):
            named = tuple(name for name in order if name in expected)
            if named != expected:
                problems.append(f"structure {structure.name} {kind} order is {', '.join(named)}, "
                                f"expected {', '.join(expected)}")
    for owner, link in ((vocab.STATEMENT_FORM, vocab.HAS_TEMPLATE_SLOT), (vocab.CODE_FUNCTION, vocab.HAS_ARGUMENT_SLOT)):
        for node in sorted(members[owner], key=sort_key):
            problems += _duplicate_slot_indexes(store, graph, node, Iri(link))
    return problems


def _duplicate_slot_indexes(store: QuadStore, graph: str, owner: Iri, link: Iri) -> list[str]:
    """`ENTITY PROPERTY: slot index N is held by SLOT, SLOT` for each index two of its slots share."""
    by_index: dict[int, list[Term]] = {}
    for slot in store.objects(owner, link, graph):
        by_index.setdefault(int(store.value(slot, Iri(vocab.HAS_SLOT_INDEX), graph).lexical), []).append(slot)
    return [
        f"{_format_term(owner)} {_format_term(link)}: slot index {index} is held by {', '.join(map(_format_term, slots))}"
        for index, slots in sorted(by_index.items())
        if len(slots) > 1
    ]
