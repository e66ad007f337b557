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
from typing import Collection, NamedTuple

from graphsynth import vocab, views
from graphsynth.errors import CardinalityError, ComposeError, UnnamedVariableError
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.resolver import BuildPlan
from graphsynth.terms import RDF_TYPE, Iri, Literal, Term, _Frozen, _set, integer_literal
from graphsynth.views import CodeFunctionInfo, LibraryInfo, NamingPatternInfo

# Abstract-program vocabulary (disjoint from the concrete one by design), each
# term built once here so that no write or read-back validates it again.
_TYPE = Iri(RDF_TYPE)
PLA_PROGRAM = Iri(vocab.pla("Program"))
PLA_SECTION = Iri(vocab.pla("Section"))
PLA_ASSIGN_LITERAL = Iri(vocab.pla("AssignLiteral"))
PLA_ASSIGN_CALL = Iri(vocab.pla("AssignCall"))
PLA_REPORT_VALUE = Iri(vocab.pla("ReportValue"))
PLA_PROGRAM_EXIT = Iri(vocab.pla("ProgramExit"))
PLA_IMPORT_DIRECTIVE = Iri(vocab.pla("ImportDirective"))

PLA_HAS_BASENAME = Iri(vocab.pla("hasBasename"))
PLA_USES_STRUCTURE = Iri(vocab.pla("usesStructure"))
PLA_HAS_SECTION = Iri(vocab.pla("hasSection"))
PLA_SECTION_ENTITY = Iri(vocab.pla("sectionEntity"))
PLA_HAS_SECTION_NAME = Iri(vocab.pla("hasSectionName"))
PLA_HAS_EMISSION_INDEX = Iri(vocab.pla("hasEmissionIndex"))
PLA_HAS_COMPOSITION_INDEX = Iri(vocab.pla("hasCompositionIndex"))
PLA_HAS_STATEMENT = Iri(vocab.pla("hasStatement"))
PLA_HAS_ORDER_INDEX = Iri(vocab.pla("hasOrderIndex"))
PLA_HAS_TARGET_VARIABLE = Iri(vocab.pla("hasTargetVariable"))
PLA_HAS_LITERAL_VALUE = Iri(vocab.pla("hasLiteralValue"))
PLA_HAS_LITERAL_ROLE = Iri(vocab.pla("hasLiteralRole"))
PLA_CALLS_FUNCTION = Iri(vocab.pla("callsFunction"))
PLA_HAS_ARGUMENT_SLOT = Iri(vocab.pla("hasArgumentSlot"))
PLA_HAS_SLOT_INDEX = Iri(vocab.pla("hasSlotIndex"))
PLA_HAS_VARIABLE_REF = Iri(vocab.pla("hasVariableRef"))
PLA_HAS_REPORT_LABEL = Iri(vocab.pla("hasReportLabel"))
PLA_HAS_SOURCE_VARIABLE = Iri(vocab.pla("hasSourceVariable"))
PLA_HAS_EXIT_STATUS = Iri(vocab.pla("hasExitStatus"))
PLA_IMPORTS_LIBRARY = Iri(vocab.pla("importsLibrary"))
PLA_HAS_LIBRARY_REFERENCE = Iri(vocab.pla("hasLibraryReference"))
PLA_REFERS_TO_LIBRARY = Iri(vocab.pla("refersToLibrary"))


class CallArg(_Frozen):
    """One argument of an abstract call: a variable reference or a literal."""

    __slots__ = ("variable", "literal")

    def __init__(self, variable: str | None = None, literal: str | None = None):
        if (variable is None) == (literal is None):
            raise ComposeError("call argument must be exactly one of variable or literal")
        _set(self, "variable", variable)
        _set(self, "literal", literal)


class AssignLiteral(NamedTuple):
    target: str
    value: str
    role: str


class AssignCall(NamedTuple):
    target: str
    function: str
    args: tuple[CallArg, ...]


class ReportValue(NamedTuple):
    label: str
    source: str


class ProgramExit(NamedTuple):
    status: int
    function: str


class ImportDirective(NamedTuple):
    library: str


AbstractStatement = AssignLiteral | AssignCall | ReportValue | ProgramExit | ImportDirective


class PlacedStatement(NamedTuple):
    statement: AbstractStatement
    section: str
    order_index: int
    composition_index: int


class PlaSection(NamedTuple):
    name: str
    entity_iri: str
    emission_index: int
    composition_index: int
    statements: tuple[PlacedStatement, ...]


class PlaProgram(NamedTuple):
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


class NamingContext(NamedTuple):
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


def _ins(store: QuadStore, graph: str, subject: Iri, predicate: Iri, obj: Term):
    store.insert(Quad(subject, predicate, obj, graph))


def _write_pla(plan: BuildPlan, state: _Composition, store: QuadStore, graph: str):
    program = Iri(f"{graph}#program")
    _ins(store, graph, program, _TYPE, PLA_PROGRAM)
    _ins(store, graph, program, PLA_HAS_BASENAME, Literal(plan.program_basename))
    _ins(store, graph, program, PLA_USES_STRUCTURE, Iri(plan.structure.iri))

    for ref_index, library_iri in enumerate(state.libraries):
        ref = Iri(f"{graph}#libref-{ref_index}")
        _ins(store, graph, program, PLA_HAS_LIBRARY_REFERENCE, ref)
        _ins(store, graph, ref, PLA_HAS_SLOT_INDEX, integer_literal(ref_index))
        _ins(store, graph, ref, PLA_REFERS_TO_LIBRARY, Iri(library_iri))

    section_nodes = {}
    for slot in plan.structure.slots:
        node = Iri(f"{graph}#section-{slot.name.lower()}")
        section_nodes[slot.name] = node
        _ins(store, graph, program, PLA_HAS_SECTION, node)
        _ins(store, graph, node, _TYPE, PLA_SECTION)
        _ins(store, graph, node, PLA_SECTION_ENTITY, Iri(slot.section_iri))
        _ins(store, graph, node, PLA_HAS_SECTION_NAME, Literal(slot.name))
        _ins(store, graph, node, PLA_HAS_EMISSION_INDEX, integer_literal(slot.emission_index))
        _ins(store, graph, node, PLA_HAS_COMPOSITION_INDEX, integer_literal(slot.composition_index))

    for section_name, placed_list in state.placed.items():
        section_node = section_nodes[section_name]
        for placed in placed_list:
            node = Iri(f"{graph}#stmt-{placed.composition_index}")
            _ins(store, graph, section_node, PLA_HAS_STATEMENT, node)
            _ins(store, graph, node, PLA_HAS_ORDER_INDEX, integer_literal(placed.order_index))
            _ins(store, graph, node, PLA_HAS_COMPOSITION_INDEX, integer_literal(placed.composition_index))
            _write_statement(store, graph, node, placed.statement)


def _write_statement(store: QuadStore, graph: str, node: Iri, statement: AbstractStatement):
    if isinstance(statement, AssignLiteral):
        _ins(store, graph, node, _TYPE, PLA_ASSIGN_LITERAL)
        _ins(store, graph, node, PLA_HAS_TARGET_VARIABLE, Literal(statement.target))
        _ins(store, graph, node, PLA_HAS_LITERAL_VALUE, Literal(statement.value))
        _ins(store, graph, node, PLA_HAS_LITERAL_ROLE, Iri(statement.role))
    elif isinstance(statement, AssignCall):
        _ins(store, graph, node, _TYPE, PLA_ASSIGN_CALL)
        _ins(store, graph, node, PLA_HAS_TARGET_VARIABLE, Literal(statement.target))
        _ins(store, graph, node, PLA_CALLS_FUNCTION, Iri(statement.function))
        for index, arg in enumerate(statement.args):
            slot = Iri(f"{node.value}-arg{index}")
            _ins(store, graph, node, PLA_HAS_ARGUMENT_SLOT, slot)
            _ins(store, graph, slot, PLA_HAS_SLOT_INDEX, integer_literal(index))
            if arg.variable is not None:
                _ins(store, graph, slot, PLA_HAS_VARIABLE_REF, Literal(arg.variable))
            else:
                _ins(store, graph, slot, PLA_HAS_LITERAL_VALUE, Literal(arg.literal))
    elif isinstance(statement, ReportValue):
        _ins(store, graph, node, _TYPE, PLA_REPORT_VALUE)
        _ins(store, graph, node, PLA_HAS_REPORT_LABEL, Literal(statement.label))
        _ins(store, graph, node, PLA_HAS_SOURCE_VARIABLE, Literal(statement.source))
    elif isinstance(statement, ProgramExit):
        _ins(store, graph, node, _TYPE, PLA_PROGRAM_EXIT)
        _ins(store, graph, node, PLA_HAS_EXIT_STATUS, integer_literal(statement.status))
        _ins(store, graph, node, PLA_CALLS_FUNCTION, Iri(statement.function))
    elif isinstance(statement, ImportDirective):
        _ins(store, graph, node, _TYPE, PLA_IMPORT_DIRECTIVE)
        _ins(store, graph, node, PLA_IMPORTS_LIBRARY, Iri(statement.library))
    else:
        raise ComposeError(f"unknown abstract statement {statement!r}")


# --- graph decoding -------------------------------------------------------


def _str_of(store: QuadStore, graph: str, subject: Iri, predicate: Iri) -> str:
    """The one value of a property the graph must hold, as its lexical form or IRI."""
    try:
        term = store.value(subject, predicate, graph)
    except CardinalityError as exc:
        raise ComposeError(str(exc)) from exc
    if term is None:
        raise ComposeError(f"graph {graph} is missing {predicate.value} on {subject.value}")
    return term.lexical if isinstance(term, Literal) else term.value


def _int_of(store: QuadStore, graph: str, subject: Iri, predicate: Iri) -> int:
    return int(_str_of(store, graph, subject, predicate))


def _read_statement(store: QuadStore, graph: str, node: Iri) -> AbstractStatement:
    kinds = set(store.objects(node, _TYPE, graph))
    if PLA_ASSIGN_LITERAL in kinds:
        return AssignLiteral(
            target=_str_of(store, graph, node, PLA_HAS_TARGET_VARIABLE),
            value=_str_of(store, graph, node, PLA_HAS_LITERAL_VALUE),
            role=_str_of(store, graph, node, PLA_HAS_LITERAL_ROLE),
        )
    if PLA_ASSIGN_CALL in kinds:
        slots = []
        for slot in store.objects(node, PLA_HAS_ARGUMENT_SLOT, graph):
            index = _int_of(store, graph, slot, PLA_HAS_SLOT_INDEX)
            variables = store.objects(slot, PLA_HAS_VARIABLE_REF, graph)
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
    raise ComposeError(f"statement node {node.value} has no recognized kind")


def load_pla(store: QuadStore, graph_iri: str, core_graph: str = vocab.CORE_GRAPH) -> PlaProgram:
    """Reconstruct the abstract program by walking its named graph."""
    programs = store.match_pattern(Pattern(Var("p"), _TYPE, PLA_PROGRAM, graph_iri))
    if len(programs) != 1:
        raise ComposeError(f"graph {graph_iri} holds {len(programs)} programs, expected 1")
    program = programs[0]["p"]

    sections = []
    for node in store.objects(program, PLA_HAS_SECTION, graph_iri):
        placed = []
        for stmt_node in store.objects(node, PLA_HAS_STATEMENT, graph_iri):
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
    for ref in store.objects(program, PLA_HAS_LIBRARY_REFERENCE, graph_iri):
        refs.append((_int_of(store, graph_iri, ref, PLA_HAS_SLOT_INDEX), _str_of(store, graph_iri, ref, PLA_REFERS_TO_LIBRARY)))
    libraries = []
    for _, library_iri in sorted(refs, key=lambda pair: pair[0]):
        info = views.view_library(store, library_iri, core_graph)
        if info is None:
            raise ComposeError(f"referenced library {library_iri} is not in the knowledge base")
        libraries.append(info)

    return PlaProgram(
        graph_iri=graph_iri,
        program_iri=program.value,
        basename=_str_of(store, graph_iri, program, PLA_HAS_BASENAME),
        structure_iri=_str_of(store, graph_iri, program, PLA_USES_STRUCTURE),
        sections=tuple(sorted(sections, key=lambda s: s.emission_index)),
        referenced_libraries=tuple(libraries),
    )
