"""The compiled knowledge base, and the field-table reader.

`SHAPES` declares once, in the manner of SHACL Core, the shape of every
entity class the pipeline reads: per property its field, predicate, kind
and cardinality. `check_kb` lists each class's instances with one probe of
the store's predicate table and reads the fields of each once through
`read`, the one reader of a field table, which checks each field's count
and kind, decoding each term by `_value`, the one copy of the kind rules,
and reports what breaks them. From the same values it compiles a `Kb`
snapshot of records and indexes. The records are plain
`collections.namedtuple`s, each field's type in a comment beside it, with
no defaults: an absent optional value reads as None (or an empty tuple).
`typing.NamedTuple` would build the same classes at a higher import cost,
paid by every cold command. The store keeps the snapshot
beside the graph's quad count, and `kb` compiles a new one once the graph
has gained a quad, so no stage reads a stale KB: the store is append-only,
so every change raises the count. The stages read the `Kb` fields
directly; every mapping in it is read-only and every sequence a tuple, so
no caller can change the kept snapshot. The composer and the renderer
write their program graphs straight from their records, and no stage
reads them back; the tests declare those graphs' nodes in field tables of
the same form and read them through `read`. Nothing here changes the
store's KB quads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping

from graphsynth import vocab
from graphsynth.errors import KbValidationError
from graphsynth.quadstore import QuadStore
from graphsynth.terms import RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER, XSD_STRING, Iri, Literal, Term
from graphsynth.turtle import _format_term


class DataSourceInfo(namedtuple("DataSourceInfo", (
    "iri",  # str
    "name",  # str
    "container",  # str
    "format",  # str
    "encoding",  # str
    "value_datatype",  # str
    "value_datatype_numeric",  # bool
    "header_rows",  # int
    "data_rows",  # int
    "values_per_row",  # int
    "quantity_types",  # tuple[str, ...]
    "location",  # str
    "content_type_label",  # str | None
))):
    __slots__ = ()

    @property
    def quantity_type(self) -> str | None:
        return self.quantity_types[0] if len(self.quantity_types) == 1 else None


AlgorithmInfo = namedtuple("AlgorithmInfo", (
    "iri",  # str
    "name",  # str
    "output_description_labels",  # frozenset[str]
    "min_input_count",  # int
    "input_numeric",  # bool
    "inputs_same_quantity",  # bool
    "output_arity",  # int
    "output_quantity",  # str
    "time_complexity",  # str
))


LibraryInfo = namedtuple("LibraryInfo", (
    "iri",  # str
    "official_name",  # str
    "alias",  # str | None
    "kind",  # str
))


class CodeFunctionInfo(namedtuple("CodeFunctionInfo", (
    "iri",  # str
    "callable_name",  # str
    "library",  # LibraryInfo
    "language",  # str
    "language_family",  # str
    "purpose",  # str
    "arg_spec",  # tuple[str, ...]
    "return_role",  # str | None
))):
    __slots__ = ()

    @property
    def qualified_name(self) -> str:
        return f"{self.library.official_name}.{self.callable_name}"


SectionSlotInfo = namedtuple("SectionSlotInfo", (
    "section_iri",  # str
    "name",  # str
    "emission_index",  # int
    "composition_index",  # int
))


class ProgramStructureInfo(namedtuple("ProgramStructureInfo", (
    "iri",  # str
    "name",  # str
    "slots",  # tuple[SectionSlotInfo, ...], in emission order
    "satisfied_requirements",  # frozenset[str]
))):
    __slots__ = ()

    def emission_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)

    def composition_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in sorted(self.slots, key=lambda s: s.composition_index))


LanguageInfo = namedtuple("LanguageInfo", (
    "iri",  # str
    "tag",  # str
    "family",  # str
    "source_file_extension",  # str
    "paradigm",  # str
    "string_quote",  # str
))


NamingPatternInfo = namedtuple("NamingPatternInfo", (
    "iri",  # str
    "pattern_id",  # str
    "separator",  # str | None
    "suffix_label",  # str | None
))


TemplateSlotInfo = namedtuple("TemplateSlotInfo", (
    "index",  # int
    "text",  # str | None
    "field",  # str | None
))


StatementFormInfo = namedtuple("StatementFormInfo", (
    "iri",  # str
    "variation_id",  # str
    "family",  # str
    "slots",  # tuple[TemplateSlotInfo, ...]
))


ReadCapabilityInfo = namedtuple("ReadCapabilityInfo", (
    "iri",  # str
    "format",  # str
    "value_datatype",  # str
    "container",  # str
))


# --- the shape table -----------------------------------------------------

# Value kinds, as sh:datatype; a NAME is a string literal each of whose
# '.'-separated parts is an identifier. NODE is a link to a node that the
# same graph describes. Any other kind is a class, as sh:class: the value is
# an IRI typed with it. NODE and the class kinds are the links; they read as
# the term itself.
STR, INT, BOOL, IRI, NAME, NODE = "string", "integer", "boolean", "IRI", "name", "node"
MANY = None  # no upper bound on the number of values, as no sh:maxCount

Field = tuple[str, Iri, str, int, "int | None"]  # (name, predicate, kind, min, max)

# Class -> fields.
SHAPES: dict[str, tuple[Field, ...]] = {
    vocab.DATA_SOURCE: (
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
        ("content_kind", Iri(vocab.HAS_CONTENT_KIND), vocab.DATA_CONTENT_KIND, 0, 1)),
    vocab.VALUE_DATATYPE: (("numeric", Iri(vocab.IS_NUMERIC), BOOL, 1, 1),),
    vocab.DATA_CONTENT_KIND: (("type_label", Iri(vocab.HAS_TYPE_LABEL), STR, 1, 1),),
    vocab.ALGORITHM: (
        ("name", Iri(vocab.HAS_NAME), STR, 1, 1),
        ("output_description_labels", Iri(vocab.HAS_OUTPUT_DESCRIPTION_LABEL), STR, 1, MANY),
        ("min_input_count", Iri(vocab.HAS_MIN_INPUT_COUNT), INT, 1, 1),
        ("input_numeric", Iri(vocab.REQUIRES_NUMERIC_INPUT), BOOL, 1, 1),
        ("inputs_same_quantity", Iri(vocab.REQUIRES_SAME_QUANTITY_KIND), BOOL, 1, 1),
        ("output_arity", Iri(vocab.HAS_OUTPUT_ARITY), INT, 1, 1),
        ("output_quantity", Iri(vocab.HAS_OUTPUT_QUANTITY), IRI, 1, 1),
        ("time_complexity", Iri(vocab.HAS_TIME_COMPLEXITY), STR, 1, 1)),
    vocab.CODE_FUNCTION: (
        ("callable_name", Iri(vocab.HAS_CALLABLE_NAME), NAME, 1, 1),
        ("library", Iri(vocab.PROVIDED_BY), vocab.LIBRARY, 1, 1),
        ("language", Iri(vocab.IN_LANGUAGE), vocab.LANGUAGE_FAMILY, 1, 1),
        ("purpose", Iri(vocab.HAS_PURPOSE), IRI, 1, 1),
        ("slots", Iri(vocab.HAS_ARGUMENT_SLOT), vocab.ARGUMENT_SLOT, 1, MANY),
        ("return_role", Iri(vocab.HAS_RETURN_ROLE), IRI, 0, 1)),
    vocab.ARGUMENT_SLOT: (
        ("index", Iri(vocab.HAS_SLOT_INDEX), INT, 1, 1),
        ("role", Iri(vocab.HAS_SLOT_ROLE), IRI, 1, 1)),
    vocab.LIBRARY: (
        ("official_name", Iri(vocab.HAS_OFFICIAL_NAME), NAME, 1, 1),
        ("alias", Iri(vocab.HAS_ALIAS), NAME, 0, 1),
        ("kind", Iri(vocab.HAS_LIBRARY_KIND), STR, 1, 1)),
    vocab.PROGRAMMING_LANGUAGE: (
        ("tag", Iri(vocab.HAS_VERSION_TAG), STR, 1, 1),
        ("family", Iri(vocab.IN_FAMILY), vocab.LANGUAGE_FAMILY, 1, 1),
        ("source_file_extension", Iri(vocab.HAS_SOURCE_FILE_EXTENSION), STR, 1, 1),
        ("paradigm", Iri(vocab.HAS_PARADIGM), IRI, 1, 1),
        ("string_quote", Iri(vocab.HAS_STRING_LITERAL_QUOTE), STR, 1, 1)),
    vocab.LANGUAGE_FAMILY: (("name", Iri(vocab.HAS_FAMILY_NAME), STR, 1, 1),),
    vocab.PROGRAM_STRUCTURE: (
        ("name", Iri(vocab.HAS_NAME), STR, 1, 1),
        ("slots", Iri(vocab.HAS_SECTION_SLOT), vocab.SECTION_SLOT, 1, MANY),
        ("requirements", Iri(vocab.SATISFIES_REQUIREMENT), vocab.PROGRAM_REQUIREMENT, 1, MANY)),
    vocab.SECTION_SLOT: (
        ("section_iri", Iri(vocab.HAS_SECTION), vocab.PROGRAM_SECTION, 1, 1),
        ("emission_index", Iri(vocab.HAS_EMISSION_INDEX), INT, 1, 1),
        ("composition_index", Iri(vocab.HAS_COMPOSITION_INDEX), INT, 1, 1)),
    vocab.PROGRAM_SECTION: (("name", Iri(vocab.HAS_NAME), STR, 1, 1),),
    vocab.PROGRAM_REQUIREMENT: (
        ("label", Iri(vocab.HAS_REQUIREMENT_LABEL), STR, 1, 1),
        ("implied_action", Iri(vocab.IMPLIES_RUNTIME_ACTION), IRI, 0, 1)),
    vocab.READ_CAPABILITY: (
        ("format", Iri(vocab.READS_FORMAT), IRI, 1, 1),
        ("value_datatype", Iri(vocab.READS_VALUE_DATATYPE), IRI, 1, 1),
        ("container", Iri(vocab.READS_CONTAINER), IRI, 1, 1)),
    vocab.NAMING_PATTERN: (
        ("pattern_id", Iri(vocab.HAS_PATTERN_ID), STR, 1, 1),
        ("separator", Iri(vocab.HAS_LABEL_SEPARATOR), STR, 0, 1),
        ("suffix_label", Iri(vocab.HAS_SUFFIX_LABEL), STR, 0, 1)),
    vocab.STATEMENT_FORM: (
        ("variation_id", Iri(vocab.HAS_VARIATION_ID), STR, 1, 1),
        ("family", Iri(vocab.FOR_LANGUAGE_FAMILY), STR, 1, 1),
        ("slots", Iri(vocab.HAS_TEMPLATE_SLOT), vocab.TEMPLATE_SLOT, 1, MANY)),
    vocab.TEMPLATE_SLOT: (
        ("index", Iri(vocab.HAS_SLOT_INDEX), INT, 1, 1),
        ("text", Iri(vocab.HAS_SLOT_TEXT), STR, 0, 1),
        ("field", Iri(vocab.HAS_SLOT_FIELD), STR, 0, 1)),
}

_RDF_TYPE = Iri(RDF_TYPE)
_INTEGER = re.compile(r"[+-]?[0-9]+")
_QUOTE = re.compile(r"[^\w\s\\]")  # a string quote: no word character, whitespace or backslash
_WORD = re.compile(r"\w")
_EXPECTED_COUNT = {(1, 1): "exactly 1 value", (0, 1): "at most 1 value", (1, MANY): "at least 1 value"}
_EXPECTED_KIND = {
    STR: "a string literal", NAME: "a dotted identifier", INT: "an integer literal", BOOL: "a boolean literal",
    IRI: "an IRI", NODE: "an IRI or blank node",
}
_BAD = object()  # what `_value` returns for a term not of its field's kind


def _value(term: Term, kind: str, members: Mapping[str, set]):
    """What `term` reads as in a field of `kind`: a literal's value, an IRI's string, a link's term; else `_BAD`."""
    if isinstance(term, Literal):
        lexical, datatype = term[1], term[2]
        if datatype == XSD_STRING:
            if kind == STR or (kind == NAME and all(part.isidentifier() for part in lexical.split("."))):
                return lexical
        elif datatype == XSD_INTEGER and kind == INT and _INTEGER.fullmatch(lexical):
            return int(lexical)
        elif datatype == XSD_BOOLEAN and kind == BOOL and (lexical == "true" or lexical == "false"):
            return lexical == "true"
        return _BAD
    if kind == IRI:
        return term[1] if isinstance(term, Iri) else _BAD
    if kind == NODE or (kind not in _EXPECTED_KIND and isinstance(term, Iri) and term in members[kind]):  # a class kind
        return term
    return _BAD


def read(store: QuadStore, graph: str, fields: tuple[Field, ...], node: Term, problems: list[str],
         members: Mapping[str, set]) -> dict:
    """The well-formed fields of `fields` on `node`, by name; each problem of the others is appended to `problems`.

    A single-valued field reads as its term's `_value` or None, a
    many-valued one as a tuple. A field of the wrong count, or with a term
    of the wrong kind, is left out, with a count problem first and then one
    kind problem per bad term, in term order, each naming the node, the
    predicate, what was expected and what was found. `members` maps each
    class kind to the set of its instances. The node's row is read once.
    """
    row = store.row(node, graph)
    values = {}
    for name, predicate, kind, low, high in fields:
        terms = row.get(predicate, ())
        if high == 1 and len(terms) == 1:  # the common case: one value of a single-valued field
            value = _value(terms[0], kind, members)
            if value is not _BAD:
                values[name] = value
                continue
        decoded = [_value(term, kind, members) for term in terms]
        bad_count = len(terms) < low or (high is not MANY and len(terms) > high)
        if not bad_count and _BAD not in decoded:
            values[name] = tuple(decoded) if high is MANY else decoded[0] if decoded else None
            continue
        where = f"{_format_term(node)} {_format_term(predicate)}"
        if bad_count:
            problems.append(f"{where}: expected {_EXPECTED_COUNT[low, high]}, found {len(terms)}")
        expected = _EXPECTED_KIND.get(kind) or f"an instance of {_format_term(Iri(kind))}"
        problems += [f"{where}: expected {expected}, found {_format_term(term)}"
                     for term, value in zip(terms, decoded) if value is _BAD]
    return values


# --- the snapshot ---------------------------------------------------------


class Kb(namedtuple("Kb", (
    "data_sources",  # Mapping[str, tuple[DataSourceInfo, ...]], by name
    "algorithms",  # tuple[AlgorithmInfo, ...]
    "algorithms_by_label",  # Mapping[str, tuple[AlgorithmInfo, ...]]
    "libraries",  # Mapping[str, LibraryInfo], by IRI, as are the functions
    "functions",  # Mapping[str, CodeFunctionInfo]
    "functions_by_purpose",  # Mapping[tuple[str, str], tuple[CodeFunctionInfo, ...]], by (purpose, language family)
    "statement_forms",  # Mapping[str, Mapping[str, StatementFormInfo]], by language family, then variation id
    "naming_patterns",  # Mapping[str, NamingPatternInfo], by pattern id
    "languages",  # tuple[LanguageInfo, ...]
    "structures",  # tuple[ProgramStructureInfo, ...]
    "read_capabilities",  # tuple[ReadCapabilityInfo, ...]
))):
    """One KB graph at one quad count: its records, in IRI order, and the read-only indexes over them."""

    __slots__ = ()


def kb(store: QuadStore) -> Kb:
    """The snapshot of the KB graph, `vocab.CORE_GRAPH`, at its quad count, compiled first if the store keeps none.

    A KB for which `check_kb` finds any problem has no snapshot: this raises
    KbValidationError with those problems, kept, like a snapshot, until the
    graph changes.
    """
    kept = store.snapshot(vocab.CORE_GRAPH) or _compile(store, vocab.CORE_GRAPH)[1]
    if not isinstance(kept, Kb):
        raise KbValidationError(kept)
    return kept


# --- load-time check and compile -------------------------------------------

def check_kb(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[str]:
    """Problems in a loaded KB; an empty list means clean.

    One pass checks every instance of a shaped class against its shape and,
    from the same values, compiles the snapshot the store keeps for `kb`
    (for a KB with any problem, the problems instead); `graph` defaults
    to the one KB graph `kb` reads. The cross-entity checks run over the
    snapshot, so only on a well-shaped KB: each algorithm has an implementing
    code function in each language family that has statement forms, and, as
    the composer and the renderer follow `vocab.EMISSION_ORDER` and
    `vocab.COMPOSITION_ORDER`, a structure must order its five named sections
    that way; and, as the renderer fills each statement form from its
    variation's fields, each template slot holds a text or a field, a
    form's field slots are exactly the fields `vocab.VARIATION_FIELDS` gives
    its variation, each once, and a language family has at most one form of
    each variation; and, as the renderer delimits and escapes string
    literals with it, a language's string quote is one character that is
    no word character, whitespace or backslash.
    """
    return _compile(store, graph)[0]


def _compile(store: QuadStore, graph: str) -> tuple[list[str], Kb | tuple[str, ...]]:
    """The problems of the KB in `graph`, and the verdict the store keeps for it at the graph's quad count.

    The verdict is the snapshot of a clean KB, or the tuple of the problems
    of any other: a KB that breaks its shapes, which has no snapshot, or one
    that fails a cross-entity check.
    """
    listed = {cls: store.subjects(_RDF_TYPE, Iri(cls), graph) for cls in SHAPES}
    # Each instance becomes a record the stages name by its IRI, so a blank one would be dropped unseen.
    problems = [f"{_format_term(node)}: expected an IRI for an instance of {_format_term(Iri(cls))}, "
                "found a blank node" for cls, nodes in listed.items() for node in nodes if not isinstance(node, Iri)]
    members = {cls: [node for node in nodes if isinstance(node, Iri)] for cls, nodes in listed.items()}
    member_sets = {cls: set(nodes) for cls, nodes in members.items()}  # for the class kinds
    # Class -> instance, in IRI order -> field name -> its value, as `read` reads it.
    kb_fields = {cls: {node: read(store, graph, fields, node, problems, member_sets) for node in members[cls]}
                 for cls, fields in SHAPES.items()}
    if not problems:
        kb = _snapshot(kb_fields)
        problems = _cross_entity_problems(kb, kb_fields)
    verdict = tuple(problems) if problems else kb
    store.keep_snapshot(graph, verdict)
    return problems, verdict


def _cross_entity_problems(kb: Kb, kb_fields: dict[str, dict[Iri, dict]]) -> list[str]:
    """The problems of a well-shaped KB that no one instance shows, from its snapshot and its instances' fields."""
    problems: list[str] = []
    for algorithm in kb.algorithms:
        for family in sorted(kb.statement_forms):
            if (algorithm.iri, family) not in kb.functions_by_purpose:
                problems.append(f"algorithm {algorithm.name} has no implementing {family} code function")
    for structure in kb.structures:
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
    for owner, slot_cls, link in ((vocab.STATEMENT_FORM, vocab.TEMPLATE_SLOT, vocab.HAS_TEMPLATE_SLOT),
                                  (vocab.CODE_FUNCTION, vocab.ARGUMENT_SLOT, vocab.HAS_ARGUMENT_SLOT)):
        owners: dict[Iri, list[Iri]] = {slot: [] for slot in kb_fields[slot_cls]}
        for node, values in kb_fields[owner].items():
            by_index: dict[int, list[Iri]] = {}
            for slot in values["slots"]:
                owners[slot].append(node)
                by_index.setdefault(kb_fields[slot_cls][slot]["index"], []).append(slot)
            problems += [
                f"{_format_term(node)} {_format_term(Iri(link))}: slot index {index} is held by "
                f"{', '.join(map(_format_term, slots))}"
                for index, slots in sorted(by_index.items())
                if len(slots) > 1
            ]
            # A gap would leave a slot out of every line written with the owner.
            indexes = sorted(by_index)
            if indexes != list(range(len(indexes))):
                problems.append(f"{_format_term(node)} {_format_term(Iri(link))}: slot indexes {indexes} "
                                f"do not run 0..{len(indexes) - 1}")
        # A slot with no owner is never used, and one with several is used by each.
        for slot, nodes in owners.items():
            if len(nodes) != 1:
                held = f": {', '.join(map(_format_term, nodes))}" if nodes else ""
                problems.append(f"{_format_term(slot)}: expected exactly 1 owner by {_format_term(Iri(link))}, "
                                f"found {len(nodes)}{held}")
    # A form is filled from its variation's fields: each slot is a text or a
    # field, and the field slots are exactly those fields, each once.
    slots = kb_fields[vocab.TEMPLATE_SLOT]
    for slot, values in slots.items():
        if (values["text"] is None) == (values["field"] is None):
            held = "neither" if values["text"] is None else "both"
            problems.append(f"{_format_term(slot)}: expected exactly one of {_format_term(Iri(vocab.HAS_SLOT_TEXT))} "
                            f"and {_format_term(Iri(vocab.HAS_SLOT_FIELD))}, found {held}")
    # The renderer fills the one form of each (language family, variation).
    forms: dict[tuple[str, str], list[Iri]] = {}
    for form, values in kb_fields[vocab.STATEMENT_FORM].items():
        forms.setdefault((values["family"], values["variation_id"]), []).append(form)
        where = f"{_format_term(form)} {_format_term(Iri(vocab.HAS_TEMPLATE_SLOT))}"
        expected = vocab.VARIATION_FIELDS.get(values["variation_id"])
        found = sorted(slots[slot]["field"] for slot in values["slots"] if slots[slot]["field"] is not None)
        if expected is not None and found != sorted(expected):
            problems.append(f"{where}: field slots {found}, "
                            f"expected the fields of {values['variation_id']}: {list(expected)}")
        # Each fill stands as a token: no word character of a text beside it,
        # and no other fill right next to it (a slot of empty text renders as nothing).
        filled = [slots[slot] for slot in sorted(values["slots"], key=lambda slot: slots[slot]["index"])
                  if slots[slot]["field"] is not None or slots[slot]["text"]]
        for before, after in zip(filled, filled[1:]):
            if before["field"] is not None and after["field"] is not None:
                problems.append(f"{where}: field slots {before['field']} and {after['field']} are adjacent, "
                                "with no slot text between them")
            elif before["field"] is not None and _WORD.match(after["text"]):
                problems.append(f"{where}: field {before['field']} is followed by a word character in slot text "
                                f"{_format_term(Literal(after['text']))}")
            elif after["field"] is not None and _WORD.match(before["text"][-1]):
                problems.append(f"{where}: field {after['field']} is preceded by a word character in slot text "
                                f"{_format_term(Literal(before['text']))}")
    problems += [f"statement forms of {variation} for {family}: expected exactly 1, found {len(nodes)}: "
                 f"{', '.join(map(_format_term, nodes))}"
                 for (family, variation), nodes in forms.items() if len(nodes) > 1]
    # A string literal is the text between two quotes, each quote inside it escaped with a backslash.
    for language, values in kb_fields[vocab.PROGRAMMING_LANGUAGE].items():
        if not _QUOTE.fullmatch(values["string_quote"]):
            problems.append(f"{_format_term(language)} {_format_term(Iri(vocab.HAS_STRING_LITERAL_QUOTE))}: expected "
                            f"one character that is no word character, whitespace or backslash, "
                            f"found {_format_term(Literal(values['string_quote']))}")
    return problems


def _snapshot(f: dict[str, dict[Iri, dict]]) -> Kb:
    """The records and indexes of a well-shaped KB, from the fields of its instances as `_compile` reads them."""
    family = {node: v["name"] for node, v in f[vocab.LANGUAGE_FAMILY].items()}
    libraries = {node.value: LibraryInfo(node.value, **v) for node, v in f[vocab.LIBRARY].items()}
    functions = {}
    for node, v in f[vocab.CODE_FUNCTION].items():
        slots = sorted(tuple(f[vocab.ARGUMENT_SLOT][slot].values()) for slot in v["slots"])  # (index, role) each
        functions[node.value] = CodeFunctionInfo(
            node.value, v["callable_name"], libraries[v["library"].value], v["language"].value, family[v["language"]],
            v["purpose"], tuple(role for _, role in slots), v["return_role"])
    sources = [
        DataSourceInfo(
            node.value, v["name"], v["container"], v["format"], v["encoding"], v["value_datatype"].value,
            f[vocab.VALUE_DATATYPE][v["value_datatype"]]["numeric"], v["header_rows"], v["data_rows"],
            v["values_per_row"], v["quantity_types"], v["location"],
            v["content_kind"] and f[vocab.DATA_CONTENT_KIND][v["content_kind"]]["type_label"],
        )
        for node, v in f[vocab.DATA_SOURCE].items()
    ]
    algorithms = [
        AlgorithmInfo(node.value, **dict(v, output_description_labels=frozenset(v["output_description_labels"])))
        for node, v in f[vocab.ALGORITHM].items()
    ]
    structures = []
    for node, v in f[vocab.PROGRAM_STRUCTURE].items():
        slots = [  # each slot's fields in shape order: section, emission index, composition index
            SectionSlotInfo(section.value, f[vocab.PROGRAM_SECTION][section]["name"], emission, composition)
            for section, emission, composition in (f[vocab.SECTION_SLOT][slot].values() for slot in v["slots"])
        ]
        slots = tuple(sorted(slots, key=attrgetter("emission_index")))
        requirements = frozenset(f[vocab.PROGRAM_REQUIREMENT][req]["label"] for req in v["requirements"])
        structures.append(ProgramStructureInfo(node.value, v["name"], slots, requirements))
    forms: dict[str, dict[str, StatementFormInfo]] = {}
    for node, v in f[vocab.STATEMENT_FORM].items():
        slots = sorted((TemplateSlotInfo(**f[vocab.TEMPLATE_SLOT][slot]) for slot in v["slots"]), key=attrgetter("index"))
        forms.setdefault(v["family"], {})[v["variation_id"]] = StatementFormInfo(
            node.value, v["variation_id"], v["family"], tuple(slots))
    return Kb(
        data_sources=_group((source.name, source) for source in sources),
        algorithms=tuple(algorithms),
        algorithms_by_label=_group((label, alg) for alg in algorithms for label in alg.output_description_labels),
        libraries=MappingProxyType(libraries),
        functions=MappingProxyType(functions),
        functions_by_purpose=_group(((fn.purpose, fn.language_family), fn) for fn in functions.values()),
        statement_forms=MappingProxyType({family: MappingProxyType(by_id) for family, by_id in forms.items()}),
        naming_patterns=MappingProxyType({v["pattern_id"]: NamingPatternInfo(node.value, **v)
                                          for node, v in f[vocab.NAMING_PATTERN].items()}),
        languages=tuple(LanguageInfo(node.value, **dict(v, family=family[v["family"]]))
                        for node, v in f[vocab.PROGRAMMING_LANGUAGE].items()),
        structures=tuple(structures),
        read_capabilities=tuple(ReadCapabilityInfo(node.value, **v) for node, v in f[vocab.READ_CAPABILITY].items()),
    )


def _group(pairs) -> Mapping:
    """Each key of the (key, value) pairs, with the tuple of its values in order, read-only."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return MappingProxyType({key: tuple(values) for key, values in groups.items()})
