"""Typed read-views over the loaded knowledge base.

Each view runs basic-graph-pattern queries against the store and lifts the
bindings into plain dataclasses the rest of the pipeline works with. Views
never mutate the store and never interpret anything beyond the explicitly
inserted triples.
"""

from __future__ import annotations

from dataclasses import dataclass

from graphsynth import vocab
from graphsynth.quadstore import Pattern, QuadStore, Var
from graphsynth.terms import RDF_TYPE, Iri, Literal, Term


@dataclass(frozen=True)
class DataSourceInfo:
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


@dataclass(frozen=True)
class AlgorithmInfo:
    iri: str
    name: str
    output_description_labels: frozenset[str]
    min_input_count: int
    input_numeric: bool
    inputs_same_quantity: bool
    output_arity: int
    output_quantity: str
    time_complexity: str


@dataclass(frozen=True)
class LibraryInfo:
    iri: str
    official_name: str
    alias: str | None
    kind: str


@dataclass(frozen=True)
class CodeFunctionInfo:
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


@dataclass(frozen=True)
class SectionSlotInfo:
    section_iri: str
    name: str
    emission_index: int
    composition_index: int


@dataclass(frozen=True)
class ProgramStructureInfo:
    iri: str
    name: str
    slots: tuple[SectionSlotInfo, ...]
    satisfied_requirements: frozenset[str]

    def emission_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in sorted(self.slots, key=lambda s: s.emission_index))

    def composition_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in sorted(self.slots, key=lambda s: s.composition_index))


@dataclass(frozen=True)
class LanguageInfo:
    iri: str
    tag: str
    family: str
    source_file_extension: str
    paradigm: str
    string_quote: str


@dataclass(frozen=True)
class NamingPatternInfo:
    iri: str
    pattern_id: str
    separator: str | None
    suffix_label: str | None


@dataclass(frozen=True)
class TemplateSlotInfo:
    index: int
    text: str | None
    field: str | None


@dataclass(frozen=True)
class StatementFormInfo:
    iri: str
    variation_id: str
    family: str
    slots: tuple[TemplateSlotInfo, ...]


@dataclass(frozen=True)
class RequirementInfo:
    iri: str
    label: str
    implied_action: str | None


@dataclass(frozen=True)
class ReadCapabilityInfo:
    iri: str
    format: str
    value_datatype: str
    container: str


# --- low-level pulls -----------------------------------------------------


def _lex(term: Term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, Iri):
        return term.value
    return term.id


def _one_str(store: QuadStore, graph: str, subject: str, predicate: str) -> str | None:
    values = store.objects(Iri(subject), Iri(predicate), graph)
    return _lex(values[0]) if values else None


def required_str(store: QuadStore, graph: str, subject: str, predicate: str, error: type[Exception]) -> str:
    """The first value of a property the graph must hold; `error` names the stage that needs it."""
    value = _one_str(store, graph, subject, predicate)
    if value is None:
        raise error(f"graph {graph} is missing {predicate} on {subject}")
    return value


def _one_int(store: QuadStore, graph: str, subject: str, predicate: str) -> int | None:
    value = _one_str(store, graph, subject, predicate)
    return int(value) if value is not None else None


def _one_bool(store: QuadStore, graph: str, subject: str, predicate: str) -> bool | None:
    value = _one_str(store, graph, subject, predicate)
    return value == "true" if value is not None else None


def _instances(store: QuadStore, graph: str, cls: str) -> list[str]:
    rows = store.match_pattern(Pattern(Var("s"), Iri(RDF_TYPE), Iri(cls), graph))
    return [row["s"].value for row in rows if isinstance(row["s"], Iri)]


# --- data sources --------------------------------------------------------


def _data_source_info(store: QuadStore, graph: str, iri: str) -> DataSourceInfo:
    datatype = _one_str(store, graph, iri, vocab.HAS_VALUE_DATATYPE) or ""
    numeric = bool(_one_bool(store, graph, datatype, vocab.IS_NUMERIC)) if datatype else False
    content_kind = _one_str(store, graph, iri, vocab.HAS_CONTENT_KIND)
    content_label = _one_str(store, graph, content_kind, vocab.HAS_TYPE_LABEL) if content_kind else None
    quantities = tuple(sorted(_lex(t) for t in store.objects(Iri(iri), Iri(vocab.HAS_QUANTITY_KIND), graph)))
    return DataSourceInfo(
        iri=iri,
        name=_one_str(store, graph, iri, vocab.HAS_NAME) or "",
        container=_one_str(store, graph, iri, vocab.HAS_CONTAINER) or "",
        format=_one_str(store, graph, iri, vocab.HAS_FORMAT) or "",
        encoding=_one_str(store, graph, iri, vocab.HAS_ENCODING) or "",
        value_datatype=datatype,
        value_datatype_numeric=numeric,
        header_rows=_one_int(store, graph, iri, vocab.HAS_HEADER_ROW_COUNT) or 0,
        data_rows=_one_int(store, graph, iri, vocab.HAS_DATA_ROW_COUNT) or 0,
        values_per_row=_one_int(store, graph, iri, vocab.HAS_VALUES_PER_ROW) or 0,
        quantity_types=quantities,
        location=_one_str(store, graph, iri, vocab.HAS_LOCATION) or "",
        content_type_label=content_label,
    )


def view_data_source(store: QuadStore, name: str, graph: str = vocab.CORE_GRAPH) -> list[DataSourceInfo]:
    """All data sources whose name equals `name` exactly (case-sensitive)."""
    rows = store.query_bgp(
        [
            Pattern(Var("ds"), Iri(RDF_TYPE), Iri(vocab.DATA_SOURCE), graph),
            Pattern(Var("ds"), Iri(vocab.HAS_NAME), Literal(name), graph),
        ]
    )
    return [_data_source_info(store, graph, row["ds"].value) for row in rows]


# --- algorithms ----------------------------------------------------------


def _algorithm_info(store: QuadStore, graph: str, iri: str) -> AlgorithmInfo:
    labels = frozenset(_lex(t) for t in store.objects(Iri(iri), Iri(vocab.HAS_OUTPUT_DESCRIPTION_LABEL), graph))
    return AlgorithmInfo(
        iri=iri,
        name=_one_str(store, graph, iri, vocab.HAS_NAME) or "",
        output_description_labels=labels,
        min_input_count=_one_int(store, graph, iri, vocab.HAS_MIN_INPUT_COUNT) or 1,
        input_numeric=bool(_one_bool(store, graph, iri, vocab.REQUIRES_NUMERIC_INPUT)),
        inputs_same_quantity=bool(_one_bool(store, graph, iri, vocab.REQUIRES_SAME_QUANTITY_KIND)),
        output_arity=_one_int(store, graph, iri, vocab.HAS_OUTPUT_ARITY) or 1,
        output_quantity=_one_str(store, graph, iri, vocab.HAS_OUTPUT_QUANTITY) or "",
        time_complexity=_one_str(store, graph, iri, vocab.HAS_TIME_COMPLEXITY) or "",
    )


def view_algorithm_by_label(store: QuadStore, label: str, graph: str = vocab.CORE_GRAPH) -> list[AlgorithmInfo]:
    """All algorithms carrying `label` among their output description labels."""
    rows = store.query_bgp(
        [
            Pattern(Var("alg"), Iri(RDF_TYPE), Iri(vocab.ALGORITHM), graph),
            Pattern(Var("alg"), Iri(vocab.HAS_OUTPUT_DESCRIPTION_LABEL), Literal(label), graph),
        ]
    )
    return [_algorithm_info(store, graph, row["alg"].value) for row in rows]


def view_all_algorithms(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[AlgorithmInfo]:
    return [_algorithm_info(store, graph, iri) for iri in _instances(store, graph, vocab.ALGORITHM)]


# --- libraries and code functions ----------------------------------------


def view_library(store: QuadStore, iri: str, graph: str = vocab.CORE_GRAPH) -> LibraryInfo | None:
    official = _one_str(store, graph, iri, vocab.HAS_OFFICIAL_NAME)
    if official is None:
        return None
    return LibraryInfo(
        iri=iri,
        official_name=official,
        alias=_one_str(store, graph, iri, vocab.HAS_ALIAS),
        kind=_one_str(store, graph, iri, vocab.HAS_LIBRARY_KIND) or "",
    )


def _code_function_info(store: QuadStore, graph: str, iri: str) -> CodeFunctionInfo | None:
    library_iri = _one_str(store, graph, iri, vocab.PROVIDED_BY)
    library = view_library(store, library_iri, graph) if library_iri else None
    if library is None:
        return None
    language = _one_str(store, graph, iri, vocab.IN_LANGUAGE) or ""
    family = (_one_str(store, graph, language, vocab.HAS_FAMILY_NAME) or "") if language else ""
    slots = []
    for slot_term in store.objects(Iri(iri), Iri(vocab.HAS_ARGUMENT_SLOT), graph):
        slot = _lex(slot_term)
        index = _one_int(store, graph, slot, vocab.HAS_SLOT_INDEX)
        role = _one_str(store, graph, slot, vocab.HAS_SLOT_ROLE)
        if index is not None and role is not None:
            slots.append((index, role))
    return CodeFunctionInfo(
        iri=iri,
        callable_name=_one_str(store, graph, iri, vocab.HAS_CALLABLE_NAME) or "",
        library=library,
        language=language,
        language_family=family,
        purpose=_one_str(store, graph, iri, vocab.HAS_PURPOSE) or "",
        arg_spec=tuple(role for _, role in sorted(slots)),
        return_role=_one_str(store, graph, iri, vocab.HAS_RETURN_ROLE),
    )


def view_code_function(
    store: QuadStore,
    purpose: str,
    language_family: str,
    library_pref: str | None = None,
    graph: str = vocab.CORE_GRAPH,
) -> list[CodeFunctionInfo]:
    """Functions with the given purpose in the given language family.

    When `library_pref` is given, only functions from the library with that
    official name are returned.
    """
    rows = store.query_bgp(
        [
            Pattern(Var("fn"), Iri(RDF_TYPE), Iri(vocab.CODE_FUNCTION), graph),
            Pattern(Var("fn"), Iri(vocab.HAS_PURPOSE), Iri(purpose), graph),
            Pattern(Var("fn"), Iri(vocab.IN_LANGUAGE), Var("fam"), graph),
            Pattern(Var("fam"), Iri(vocab.HAS_FAMILY_NAME), Literal(language_family), graph),
        ]
    )
    out = []
    for row in rows:
        info = _code_function_info(store, graph, row["fn"].value)
        if info is None:
            continue
        if library_pref is not None and info.library.official_name != library_pref:
            continue
        out.append(info)
    return out


def view_code_function_by_iri(store: QuadStore, iri: str, graph: str = vocab.CORE_GRAPH) -> CodeFunctionInfo | None:
    return _code_function_info(store, graph, iri)


def view_all_code_functions(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[CodeFunctionInfo]:
    out = []
    for iri in _instances(store, graph, vocab.CODE_FUNCTION):
        info = _code_function_info(store, graph, iri)
        if info is not None:
            out.append(info)
    return out


# --- structures, languages, requirements ---------------------------------


def _structure_info(store: QuadStore, graph: str, iri: str) -> ProgramStructureInfo:
    slots = []
    for slot_term in store.objects(Iri(iri), Iri(vocab.HAS_SECTION_SLOT), graph):
        slot = _lex(slot_term)
        section = _one_str(store, graph, slot, vocab.HAS_SECTION)
        if section is None:
            continue
        slots.append(
            SectionSlotInfo(
                section_iri=section,
                name=_one_str(store, graph, section, vocab.HAS_NAME) or "",
                emission_index=_one_int(store, graph, slot, vocab.HAS_EMISSION_INDEX) or 0,
                composition_index=_one_int(store, graph, slot, vocab.HAS_COMPOSITION_INDEX) or 0,
            )
        )
    requirements = set()
    for req_term in store.objects(Iri(iri), Iri(vocab.SATISFIES_REQUIREMENT), graph):
        label = _one_str(store, graph, _lex(req_term), vocab.HAS_REQUIREMENT_LABEL)
        if label is not None:
            requirements.add(label)
    return ProgramStructureInfo(
        iri=iri,
        name=_one_str(store, graph, iri, vocab.HAS_NAME) or "",
        slots=tuple(sorted(slots, key=lambda s: s.emission_index)),
        satisfied_requirements=frozenset(requirements),
    )


def view_structures(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[ProgramStructureInfo]:
    return [_structure_info(store, graph, iri) for iri in _instances(store, graph, vocab.PROGRAM_STRUCTURE)]


def view_languages(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[LanguageInfo]:
    out = []
    for iri in _instances(store, graph, vocab.PROGRAMMING_LANGUAGE):
        family_iri = _one_str(store, graph, iri, vocab.IN_FAMILY)
        family = _one_str(store, graph, family_iri, vocab.HAS_FAMILY_NAME) if family_iri else None
        out.append(
            LanguageInfo(
                iri=iri,
                tag=_one_str(store, graph, iri, vocab.HAS_VERSION_TAG) or "",
                family=family or "",
                source_file_extension=_one_str(store, graph, iri, vocab.HAS_SOURCE_FILE_EXTENSION) or "",
                paradigm=_one_str(store, graph, iri, vocab.HAS_PARADIGM) or "",
                string_quote=_one_str(store, graph, iri, vocab.HAS_STRING_LITERAL_QUOTE) or "'",
            )
        )
    return out


def view_requirements(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[RequirementInfo]:
    out = []
    for iri in _instances(store, graph, vocab.PROGRAM_REQUIREMENT):
        label = _one_str(store, graph, iri, vocab.HAS_REQUIREMENT_LABEL)
        if label is None:
            continue
        out.append(
            RequirementInfo(
                iri=iri,
                label=label,
                implied_action=_one_str(store, graph, iri, vocab.IMPLIES_RUNTIME_ACTION),
            )
        )
    return out


def view_read_capabilities(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[ReadCapabilityInfo]:
    out = []
    for iri in _instances(store, graph, vocab.READ_CAPABILITY):
        out.append(
            ReadCapabilityInfo(
                iri=iri,
                format=_one_str(store, graph, iri, vocab.READS_FORMAT) or "",
                value_datatype=_one_str(store, graph, iri, vocab.READS_VALUE_DATATYPE) or "",
                container=_one_str(store, graph, iri, vocab.READS_CONTAINER) or "",
            )
        )
    return out


def view_naming_patterns(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> dict[str, NamingPatternInfo]:
    out: dict[str, NamingPatternInfo] = {}
    for iri in _instances(store, graph, vocab.NAMING_PATTERN):
        pattern_id = _one_str(store, graph, iri, vocab.HAS_PATTERN_ID)
        if pattern_id is None:
            continue
        out[pattern_id] = NamingPatternInfo(
            iri=iri,
            pattern_id=pattern_id,
            separator=_one_str(store, graph, iri, vocab.HAS_LABEL_SEPARATOR),
            suffix_label=_one_str(store, graph, iri, vocab.HAS_SUFFIX_LABEL),
        )
    return out


def view_statement_forms(store: QuadStore, family: str, graph: str = vocab.CORE_GRAPH) -> dict[str, StatementFormInfo]:
    """Statement form templates for one language family, keyed by variation id."""
    out: dict[str, StatementFormInfo] = {}
    for iri in _instances(store, graph, vocab.STATEMENT_FORM):
        if _one_str(store, graph, iri, vocab.FOR_LANGUAGE_FAMILY) != family:
            continue
        variation = _one_str(store, graph, iri, vocab.HAS_VARIATION_ID)
        if variation is None:
            continue
        slots = []
        for slot_term in store.objects(Iri(iri), Iri(vocab.HAS_TEMPLATE_SLOT), graph):
            slot = _lex(slot_term)
            index = _one_int(store, graph, slot, vocab.HAS_SLOT_INDEX)
            if index is None:
                continue
            slots.append(
                TemplateSlotInfo(
                    index=index,
                    text=_one_str(store, graph, slot, vocab.HAS_SLOT_TEXT),
                    field=_one_str(store, graph, slot, vocab.HAS_SLOT_FIELD),
                )
            )
        out[variation] = StatementFormInfo(
            iri=iri,
            variation_id=variation,
            family=family,
            slots=tuple(sorted(slots, key=lambda s: s.index)),
        )
    return out


# --- load-time completeness check ----------------------------------------


def check_kb(store: QuadStore, graph: str = vocab.CORE_GRAPH) -> list[str]:
    """Structural completeness problems in a loaded KB; empty list means clean."""
    problems = []
    for alg in view_all_algorithms(store, graph):
        implementers = view_code_function(store, alg.iri, "Python", graph=graph)
        if not implementers:
            problems.append(f"algorithm {alg.name or alg.iri} has no implementing Python code function")
    for fn in _instances(store, graph, vocab.CODE_FUNCTION):
        library_iri = _one_str(store, graph, fn, vocab.PROVIDED_BY)
        if library_iri is None or view_library(store, library_iri, graph) is None:
            problems.append(f"code function {fn} has no resolvable library")
    for structure in view_structures(store, graph):
        emission = sorted(s.emission_index for s in structure.slots)
        composition = sorted(s.composition_index for s in structure.slots)
        if emission != composition or emission != list(range(len(structure.slots))):
            problems.append(f"structure {structure.name or structure.iri} orderings are not permutations of 0..n-1")
    return problems
