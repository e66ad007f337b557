"""Builds the abstract program representation as triples in a named graph.

Sections are composed in dependency order (Input, Calculate, Output,
CleanUp, Preamble) so that variables defined in one section flow into the
next, and external library references observed along the way become import
directives when everything else is done. The abstract graph is
paradigm-bound but language-agnostic: no concrete syntax, no quoting, no
keywords; functions appear only as knowledge-base entity IRIs.
"""

from __future__ import annotations

import keyword
from dataclasses import dataclass
from typing import Collection

from graphsynth import vocab, views
from graphsynth.errors import ComposeError, UnnamedVariableError
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.resolver import BuildPlan
from graphsynth.terms import RDF_TYPE, Iri, Literal, Term, integer_literal
from graphsynth.views import CodeFunctionInfo, LibraryInfo, NamingPatternInfo

# Abstract-program vocabulary (disjoint from the concrete one by design).
PLA_PROGRAM = vocab.pla("Program")
PLA_SECTION = vocab.pla("Section")
PLA_ASSIGN_LITERAL = vocab.pla("AssignLiteral")
PLA_ASSIGN_CALL = vocab.pla("AssignCall")
PLA_REPORT_VALUE = vocab.pla("ReportValue")
PLA_PROGRAM_EXIT = vocab.pla("ProgramExit")
PLA_IMPORT_DIRECTIVE = vocab.pla("ImportDirective")

PLA_HAS_BASENAME = vocab.pla("hasBasename")
PLA_USES_STRUCTURE = vocab.pla("usesStructure")
PLA_HAS_SECTION = vocab.pla("hasSection")
PLA_SECTION_ENTITY = vocab.pla("sectionEntity")
PLA_HAS_SECTION_NAME = vocab.pla("hasSectionName")
PLA_HAS_EMISSION_INDEX = vocab.pla("hasEmissionIndex")
PLA_HAS_COMPOSITION_INDEX = vocab.pla("hasCompositionIndex")
PLA_HAS_STATEMENT = vocab.pla("hasStatement")
PLA_HAS_ORDER_INDEX = vocab.pla("hasOrderIndex")
PLA_HAS_TARGET_VARIABLE = vocab.pla("hasTargetVariable")
PLA_HAS_LITERAL_VALUE = vocab.pla("hasLiteralValue")
PLA_HAS_LITERAL_ROLE = vocab.pla("hasLiteralRole")
PLA_CALLS_FUNCTION = vocab.pla("callsFunction")
PLA_HAS_ARGUMENT_SLOT = vocab.pla("hasArgumentSlot")
PLA_HAS_SLOT_INDEX = vocab.pla("hasSlotIndex")
PLA_HAS_VARIABLE_REF = vocab.pla("hasVariableRef")
PLA_HAS_REPORT_LABEL = vocab.pla("hasReportLabel")
PLA_HAS_SOURCE_VARIABLE = vocab.pla("hasSourceVariable")
PLA_HAS_EXIT_STATUS = vocab.pla("hasExitStatus")
PLA_IMPORTS_LIBRARY = vocab.pla("importsLibrary")
PLA_HAS_LIBRARY_REFERENCE = vocab.pla("hasLibraryReference")
PLA_REFERS_TO_LIBRARY = vocab.pla("refersToLibrary")


@dataclass(frozen=True)
class CallArg:
    """One argument of an abstract call: a variable reference or a literal."""

    variable: str | None = None
    literal: str | None = None

    def __post_init__(self):
        if (self.variable is None) == (self.literal is None):
            raise ComposeError("call argument must be exactly one of variable or literal")


@dataclass(frozen=True)
class AssignLiteral:
    target: str
    value: str
    role: str


@dataclass(frozen=True)
class AssignCall:
    target: str
    function: str
    args: tuple[CallArg, ...]


@dataclass(frozen=True)
class ReportValue:
    label: str
    source: str


@dataclass(frozen=True)
class ProgramExit:
    status: int
    function: str


@dataclass(frozen=True)
class ImportDirective:
    library: str


AbstractStatement = AssignLiteral | AssignCall | ReportValue | ProgramExit | ImportDirective


@dataclass(frozen=True)
class PlacedStatement:
    statement: AbstractStatement
    section: str
    order_index: int
    composition_index: int


@dataclass(frozen=True)
class PlaSection:
    name: str
    entity_iri: str
    emission_index: int
    composition_index: int
    statements: tuple[PlacedStatement, ...]


@dataclass(frozen=True)
class PlaProgram:
    graph_iri: str
    program_iri: str
    basename: str
    structure_iri: str
    sections: tuple[PlaSection, ...]  # in emission order
    referenced_libraries: tuple[LibraryInfo, ...]  # in first-reference order

    def section(self, name: str) -> PlaSection:
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise KeyError(name)

    def all_statements(self) -> list[PlacedStatement]:
        out = []
        for sec in self.sections:
            out.extend(sec.statements)
        return sorted(out, key=lambda p: p.composition_index)


@dataclass(frozen=True)
class NamingContext:
    """The situation a variable is being named in; payload depends on the pattern."""

    pattern_id: str
    content_label: str | None = None
    function: CodeFunctionInfo | None = None


def derive_variable_name(
    patterns: dict[str, NamingPatternInfo], context: NamingContext, reserved: Collection[str] = ()
) -> str:
    """Apply the naming pattern matching `context`; no rule, or no usable identifier, is an error.

    `reserved` holds the names the program's imports bind; deriving one of
    them would shadow a library.
    """
    name = _apply_naming_pattern(patterns, context)
    if not name.isidentifier() or keyword.iskeyword(name):
        raise UnnamedVariableError(f"pattern '{context.pattern_id}' derives {name!r}, which is not a variable name")
    if name in reserved:
        raise UnnamedVariableError(f"pattern '{context.pattern_id}' derives {name!r}, which names an imported library")
    return name


def library_names(plan: BuildPlan) -> frozenset[str]:
    """Official names and aliases of every library the planned program references."""
    functions = [plan.reader_function, plan.exit_function, *(calc.function for calc in plan.calculations)]
    return frozenset(name for fn in functions for name in (fn.library.official_name, fn.library.alias) if name)


def _apply_naming_pattern(patterns: dict[str, NamingPatternInfo], context: NamingContext) -> str:
    pattern = patterns.get(context.pattern_id)
    if pattern is None:
        raise UnnamedVariableError(f"pattern '{context.pattern_id}' is not in the knowledge base")
    if context.pattern_id == vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME:
        if context.content_label is None or pattern.suffix_label is None:
            raise UnnamedVariableError("filename pattern needs a content type label and a suffix label")
        return context.content_label + (pattern.separator or "_") + pattern.suffix_label
    if context.pattern_id == vocab.PATTERN_FILENAME_ARG_TO_READER:
        if context.content_label is None:
            raise UnnamedVariableError("reader-result pattern needs a content type label")
        return context.content_label
    if context.pattern_id == vocab.PATTERN_ASSIGN_FUNCTION_RETURN:
        if context.function is None or not context.function.callable_name:
            raise UnnamedVariableError("function-return pattern needs the called function")
        return context.function.callable_name
    raise UnnamedVariableError(f"pattern '{context.pattern_id}' has no naming rule")


class NameAllocator:
    """Deterministic collision policy: repeated derivations get _2, _3, ... suffixes."""

    def __init__(self):
        self._seen: dict[str, int] = {}

    def allocate(self, name: str) -> str:
        count = self._seen.get(name, 0) + 1
        self._seen[name] = count
        return name if count == 1 else f"{name}_{count}"


class _Composition:
    def __init__(self, plan: BuildPlan, store: QuadStore, graph: str):
        self.plan = plan
        self.store = store
        self.core_graph = graph
        self.patterns = views.view_naming_patterns(store, graph)
        self.reserved = library_names(plan)
        self.names = NameAllocator()
        self.role_vars: dict[str, str] = {}
        self.libraries: dict[str, LibraryInfo] = {}
        self.counter = 0
        self.placed: dict[str, list[PlacedStatement]] = {}

    def note_library(self, library: LibraryInfo):
        self.libraries.setdefault(library.iri, library)

    def place(self, section: str, statement: AbstractStatement):
        placed = self.placed.setdefault(section, [])
        placed.append(
            PlacedStatement(
                statement=statement,
                section=section,
                order_index=len(placed),
                composition_index=self.counter,
            )
        )
        self.counter += 1

    def new_variable(self, context: NamingContext) -> str:
        return self.names.allocate(derive_variable_name(self.patterns, context, self.reserved))

    def args_for(self, function: CodeFunctionInfo) -> tuple[CallArg, ...]:
        args = []
        for role in function.arg_spec:
            variable = self.role_vars.get(role)
            if variable is None:
                raise ComposeError(
                    f"function {function.qualified_name} needs a value in role {role}, none composed yet"
                )
            args.append(CallArg(variable=variable))
        return tuple(args)

    def compose_input(self):
        ds = self.plan.data_source
        filename_var = self.new_variable(
            NamingContext(vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME, content_label=ds.content_type_label)
        )
        self.place(vocab.SECTION_INPUT, AssignLiteral(filename_var, ds.name, vocab.ROLE_DATASOURCE_FILENAME))
        self.role_vars[vocab.ROLE_DATASOURCE_FILENAME] = filename_var

        reader = self.plan.reader_function
        data_var = self.new_variable(
            NamingContext(vocab.PATTERN_FILENAME_ARG_TO_READER, content_label=ds.content_type_label)
        )
        self.place(vocab.SECTION_INPUT, AssignCall(data_var, reader.iri, self.args_for(reader)))
        if reader.return_role:
            self.role_vars[reader.return_role] = data_var
        self.note_library(reader.library)

    def compose_calculate(self) -> list[str]:
        result_vars = []
        for calc in self.plan.calculations:
            target = self.new_variable(NamingContext(vocab.PATTERN_ASSIGN_FUNCTION_RETURN, function=calc.function))
            self.place(vocab.SECTION_CALCULATE, AssignCall(target, calc.function.iri, self.args_for(calc.function)))
            if calc.function.return_role:
                self.role_vars[calc.function.return_role] = target
            self.note_library(calc.function.library)
            result_vars.append(target)
        return result_vars

    def compose_output(self, result_vars: list[str]):
        for variable in result_vars:
            self.place(vocab.SECTION_OUTPUT, ReportValue(label=variable, source=variable))

    def compose_cleanup(self):
        self.place(vocab.SECTION_CLEANUP, ProgramExit(status=0, function=self.plan.exit_function.iri))
        self.note_library(self.plan.exit_function.library)

    def compose_preamble(self):
        ordered = sorted(self.libraries.values(), key=lambda lib: lib.official_name.encode("utf-8"))
        for library in ordered:
            self.place(vocab.SECTION_PREAMBLE, ImportDirective(library.iri))


def compose(plan: BuildPlan, store: QuadStore, graph_iri: str | None = None) -> PlaProgram:
    """Compose the plan into a fresh named graph; returns the graph read back."""
    graph_iri = graph_iri or vocab.program_graph_iri(plan.program_basename, "pla")
    if store.graph_size(graph_iri) != 0:
        raise ComposeError(f"target graph is not empty: {graph_iri}")

    state = _Composition(plan, store, vocab.CORE_GRAPH)
    result_vars: list[str] = []
    for section_name in (s.name for s in sorted(plan.structure.slots, key=lambda s: s.composition_index)):
        if section_name == vocab.SECTION_INPUT:
            state.compose_input()
        elif section_name == vocab.SECTION_CALCULATE:
            result_vars = state.compose_calculate()
        elif section_name == vocab.SECTION_OUTPUT:
            state.compose_output(result_vars)
        elif section_name == vocab.SECTION_CLEANUP:
            state.compose_cleanup()
        elif section_name == vocab.SECTION_PREAMBLE:
            state.compose_preamble()

    _write_pla(plan, state, store, graph_iri)
    return load_pla(store, graph_iri)


# --- graph encoding -------------------------------------------------------


def _ins(store: QuadStore, graph: str, subject: str, predicate: str, obj: Term):
    store.insert(Quad(Iri(subject), Iri(predicate), obj, graph))


def _write_pla(plan: BuildPlan, state: _Composition, store: QuadStore, graph: str):
    program = f"{graph}#program"
    _ins(store, graph, program, RDF_TYPE, Iri(PLA_PROGRAM))
    _ins(store, graph, program, PLA_HAS_BASENAME, Literal(plan.program_basename))
    _ins(store, graph, program, PLA_USES_STRUCTURE, Iri(plan.structure.iri))

    for ref_index, library_iri in enumerate(state.libraries):
        ref = f"{graph}#libref-{ref_index}"
        _ins(store, graph, program, PLA_HAS_LIBRARY_REFERENCE, Iri(ref))
        _ins(store, graph, ref, PLA_HAS_SLOT_INDEX, integer_literal(ref_index))
        _ins(store, graph, ref, PLA_REFERS_TO_LIBRARY, Iri(library_iri))

    section_nodes = {}
    for slot in plan.structure.slots:
        node = f"{graph}#section-{slot.name.lower()}"
        section_nodes[slot.name] = node
        _ins(store, graph, program, PLA_HAS_SECTION, Iri(node))
        _ins(store, graph, node, RDF_TYPE, Iri(PLA_SECTION))
        _ins(store, graph, node, PLA_SECTION_ENTITY, Iri(slot.section_iri))
        _ins(store, graph, node, PLA_HAS_SECTION_NAME, Literal(slot.name))
        _ins(store, graph, node, PLA_HAS_EMISSION_INDEX, integer_literal(slot.emission_index))
        _ins(store, graph, node, PLA_HAS_COMPOSITION_INDEX, integer_literal(slot.composition_index))

    for section_name, placed_list in state.placed.items():
        section_node = section_nodes[section_name]
        for placed in placed_list:
            node = f"{graph}#stmt-{placed.composition_index}"
            _ins(store, graph, section_node, PLA_HAS_STATEMENT, Iri(node))
            _ins(store, graph, node, PLA_HAS_ORDER_INDEX, integer_literal(placed.order_index))
            _ins(store, graph, node, PLA_HAS_COMPOSITION_INDEX, integer_literal(placed.composition_index))
            _write_statement(store, graph, node, placed.statement)


def _write_statement(store: QuadStore, graph: str, node: str, statement: AbstractStatement):
    if isinstance(statement, AssignLiteral):
        _ins(store, graph, node, RDF_TYPE, Iri(PLA_ASSIGN_LITERAL))
        _ins(store, graph, node, PLA_HAS_TARGET_VARIABLE, Literal(statement.target))
        _ins(store, graph, node, PLA_HAS_LITERAL_VALUE, Literal(statement.value))
        _ins(store, graph, node, PLA_HAS_LITERAL_ROLE, Iri(statement.role))
    elif isinstance(statement, AssignCall):
        _ins(store, graph, node, RDF_TYPE, Iri(PLA_ASSIGN_CALL))
        _ins(store, graph, node, PLA_HAS_TARGET_VARIABLE, Literal(statement.target))
        _ins(store, graph, node, PLA_CALLS_FUNCTION, Iri(statement.function))
        for index, arg in enumerate(statement.args):
            slot = f"{node}-arg{index}"
            _ins(store, graph, node, PLA_HAS_ARGUMENT_SLOT, Iri(slot))
            _ins(store, graph, slot, PLA_HAS_SLOT_INDEX, integer_literal(index))
            if arg.variable is not None:
                _ins(store, graph, slot, PLA_HAS_VARIABLE_REF, Literal(arg.variable))
            else:
                _ins(store, graph, slot, PLA_HAS_LITERAL_VALUE, Literal(arg.literal))
    elif isinstance(statement, ReportValue):
        _ins(store, graph, node, RDF_TYPE, Iri(PLA_REPORT_VALUE))
        _ins(store, graph, node, PLA_HAS_REPORT_LABEL, Literal(statement.label))
        _ins(store, graph, node, PLA_HAS_SOURCE_VARIABLE, Literal(statement.source))
    elif isinstance(statement, ProgramExit):
        _ins(store, graph, node, RDF_TYPE, Iri(PLA_PROGRAM_EXIT))
        _ins(store, graph, node, PLA_HAS_EXIT_STATUS, integer_literal(statement.status))
        _ins(store, graph, node, PLA_CALLS_FUNCTION, Iri(statement.function))
    elif isinstance(statement, ImportDirective):
        _ins(store, graph, node, RDF_TYPE, Iri(PLA_IMPORT_DIRECTIVE))
        _ins(store, graph, node, PLA_IMPORTS_LIBRARY, Iri(statement.library))
    else:
        raise ComposeError(f"unknown abstract statement {statement!r}")


# --- graph decoding -------------------------------------------------------


def _str_of(store: QuadStore, graph: str, subject: str, predicate: str) -> str:
    return views.required_str(store, graph, subject, predicate, ComposeError)


def _int_of(store: QuadStore, graph: str, subject: str, predicate: str) -> int:
    return int(_str_of(store, graph, subject, predicate))


def _read_statement(store: QuadStore, graph: str, node: str) -> AbstractStatement:
    kinds = {t.value for t in store.objects(Iri(node), Iri(RDF_TYPE), graph) if isinstance(t, Iri)}
    if PLA_ASSIGN_LITERAL in kinds:
        return AssignLiteral(
            target=_str_of(store, graph, node, PLA_HAS_TARGET_VARIABLE),
            value=_str_of(store, graph, node, PLA_HAS_LITERAL_VALUE),
            role=_str_of(store, graph, node, PLA_HAS_LITERAL_ROLE),
        )
    if PLA_ASSIGN_CALL in kinds:
        slots = []
        for slot_term in store.objects(Iri(node), Iri(PLA_HAS_ARGUMENT_SLOT), graph):
            slot = slot_term.value
            index = _int_of(store, graph, slot, PLA_HAS_SLOT_INDEX)
            variables = store.objects(Iri(slot), Iri(PLA_HAS_VARIABLE_REF), graph)
            if variables:
                slots.append((index, CallArg(variable=variables[0].lexical)))
            else:
                slots.append((index, CallArg(literal=_str_of(store, graph, slot, PLA_HAS_LITERAL_VALUE))))
        return AssignCall(
            target=_str_of(store, graph, node, PLA_HAS_TARGET_VARIABLE),
            function=_str_of(store, graph, node, PLA_CALLS_FUNCTION),
            args=tuple(arg for _, arg in sorted(slots, key=lambda pair: pair[0])),
        )
    if PLA_REPORT_VALUE in kinds:
        return ReportValue(
            label=_str_of(store, graph, node, PLA_HAS_REPORT_LABEL),
            source=_str_of(store, graph, node, PLA_HAS_SOURCE_VARIABLE),
        )
    if PLA_PROGRAM_EXIT in kinds:
        return ProgramExit(
            status=_int_of(store, graph, node, PLA_HAS_EXIT_STATUS),
            function=_str_of(store, graph, node, PLA_CALLS_FUNCTION),
        )
    if PLA_IMPORT_DIRECTIVE in kinds:
        return ImportDirective(library=_str_of(store, graph, node, PLA_IMPORTS_LIBRARY))
    raise ComposeError(f"statement node {node} has no recognized kind")


def load_pla(store: QuadStore, graph_iri: str, core_graph: str = vocab.CORE_GRAPH) -> PlaProgram:
    """Reconstruct the abstract program by walking its named graph."""
    programs = store.match_pattern(Pattern(Var("p"), Iri(RDF_TYPE), Iri(PLA_PROGRAM), graph_iri))
    if len(programs) != 1:
        raise ComposeError(f"graph {graph_iri} holds {len(programs)} programs, expected 1")
    program_iri = programs[0]["p"].value

    sections = []
    for section_term in store.objects(Iri(program_iri), Iri(PLA_HAS_SECTION), graph_iri):
        node = section_term.value
        placed = []
        for stmt_term in store.objects(Iri(node), Iri(PLA_HAS_STATEMENT), graph_iri):
            stmt_node = stmt_term.value
            placed.append(
                PlacedStatement(
                    statement=_read_statement(store, graph_iri, stmt_node),
                    section=_str_of(store, graph_iri, node, PLA_HAS_SECTION_NAME),
                    order_index=_int_of(store, graph_iri, stmt_node, PLA_HAS_ORDER_INDEX),
                    composition_index=_int_of(store, graph_iri, stmt_node, PLA_HAS_COMPOSITION_INDEX),
                )
            )
        sections.append(
            PlaSection(
                name=_str_of(store, graph_iri, node, PLA_HAS_SECTION_NAME),
                entity_iri=_str_of(store, graph_iri, node, PLA_SECTION_ENTITY),
                emission_index=_int_of(store, graph_iri, node, PLA_HAS_EMISSION_INDEX),
                composition_index=_int_of(store, graph_iri, node, PLA_HAS_COMPOSITION_INDEX),
                statements=tuple(sorted(placed, key=lambda p: p.order_index)),
            )
        )

    refs = []
    for ref_term in store.objects(Iri(program_iri), Iri(PLA_HAS_LIBRARY_REFERENCE), graph_iri):
        ref = ref_term.value
        refs.append((_int_of(store, graph_iri, ref, PLA_HAS_SLOT_INDEX), _str_of(store, graph_iri, ref, PLA_REFERS_TO_LIBRARY)))
    libraries = []
    for _, library_iri in sorted(refs, key=lambda pair: pair[0]):
        info = views.view_library(store, library_iri, core_graph)
        if info is None:
            raise ComposeError(f"referenced library {library_iri} is not in the knowledge base")
        libraries.append(info)

    return PlaProgram(
        graph_iri=graph_iri,
        program_iri=program_iri,
        basename=_str_of(store, graph_iri, program_iri, PLA_HAS_BASENAME),
        structure_iri=_str_of(store, graph_iri, program_iri, PLA_USES_STRUCTURE),
        sections=tuple(sorted(sections, key=lambda s: s.emission_index)),
        referenced_libraries=tuple(libraries),
    )
