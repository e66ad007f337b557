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
from typing import Collection, Iterable, Mapping, NamedTuple

from graphsynth import vocab, views
from graphsynth.errors import ComposeError, UnnamedVariableError
from graphsynth.quadstore import QuadStore
from graphsynth.resolver import BuildPlan
from graphsynth.terms import Iri
from graphsynth.views import INT, IRI, MANY, NODE, STR, TYPE, write
from graphsynth.views import CodeFunctionInfo, Kb, LibraryInfo, NamingPatternInfo

# Abstract-program vocabulary (disjoint from the concrete one by design), each
# term built once here so that no write or read-back validates it again.
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


class AssignLiteral(NamedTuple):
    target: str
    value: str
    role: str


class AssignCall(NamedTuple):
    target: str
    function: str
    args: tuple[str, ...]  # the variables passed, each composed earlier


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
    called_functions: tuple[CodeFunctionInfo, ...]  # in first-call order

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
    patterns: Mapping[str, NamingPatternInfo], context: NamingContext, reserved: Collection[str] = ()
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


def _apply_naming_pattern(patterns: Mapping[str, NamingPatternInfo], context: NamingContext) -> str:
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
    def __init__(self, plan: BuildPlan, kb: Kb):
        self.plan = plan
        self.patterns = kb.naming_patterns
        self.reserved = library_names(plan)
        self.names = NameAllocator()
        self.role_vars: dict[str, str] = {}
        self.functions: dict[str, CodeFunctionInfo] = {}
        self.libraries: dict[str, LibraryInfo] = {}
        self.counter = 0
        self.placed: dict[str, list[PlacedStatement]] = {}

    def note_call(self, function: CodeFunctionInfo):
        """Record a placed call: its function, and the library that provides it."""
        self.functions.setdefault(function.iri, function)
        self.libraries.setdefault(function.library.iri, function.library)

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

    def args_for(self, function: CodeFunctionInfo) -> tuple[str, ...]:
        args = []
        for role in function.arg_spec:
            variable = self.role_vars.get(role)
            if variable is None:
                raise ComposeError(
                    f"function {function.qualified_name} needs a value in role {role}, none composed yet"
                )
            args.append(variable)
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
        self.note_call(reader)
        if reader.return_role:
            self.role_vars[reader.return_role] = data_var

    def compose_calculate(self) -> list[str]:
        result_vars = []
        for calc in self.plan.calculations:
            target = self.new_variable(NamingContext(vocab.PATTERN_ASSIGN_FUNCTION_RETURN, function=calc.function))
            self.place(vocab.SECTION_CALCULATE, AssignCall(target, calc.function.iri, self.args_for(calc.function)))
            self.note_call(calc.function)
            if calc.function.return_role:
                self.role_vars[calc.function.return_role] = target
            result_vars.append(target)
        return result_vars

    def compose_output(self, result_vars: list[str]):
        for variable in result_vars:
            self.place(vocab.SECTION_OUTPUT, ReportValue(label=variable, source=variable))

    def compose_cleanup(self):
        self.place(vocab.SECTION_CLEANUP, ProgramExit(status=0, function=self.plan.exit_function.iri))
        self.note_call(self.plan.exit_function)

    def compose_preamble(self):
        for library in import_order(self.libraries.values()):
            self.place(vocab.SECTION_PREAMBLE, ImportDirective(library.iri))


def import_order(libraries: Iterable[LibraryInfo]) -> list[LibraryInfo]:
    """The libraries in the order the program imports them: byte-wise by official name."""
    return sorted(libraries, key=lambda lib: lib.official_name.encode("utf-8"))


def compose(plan: BuildPlan, store: QuadStore) -> PlaProgram:
    """Compose the plan over the store's KB into its empty graph `program_graph_iri(basename, "pla")`.

    The whole program is built first and then written there in one batch, so
    a composition that fails leaves no graph. The returned program is that
    one, not read back from the graph; decoded through the field tables
    below, the graph gives an equal program.
    """
    graph_iri = vocab.program_graph_iri(plan.program_basename, "pla")
    if store.graph_size(graph_iri) != 0:
        raise ComposeError(f"target graph is not empty: {graph_iri}")

    state = _Composition(plan, views.kb(store))
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

    program = PlaProgram(
        graph_iri=graph_iri,
        program_iri=f"{graph_iri}#program",
        basename=plan.program_basename,
        structure_iri=plan.structure.iri,
        sections=tuple(
            PlaSection(slot.name, slot.section_iri, slot.emission_index, slot.composition_index,
                       tuple(state.placed.get(slot.name, ())))
            for slot in sorted(plan.structure.slots, key=lambda s: s.emission_index)
        ),
        referenced_libraries=tuple(state.libraries.values()),
        called_functions=tuple(state.functions.values()),
    )
    write(store, graph_iri, _pla_nodes(program))
    return program


# --- graph encoding -------------------------------------------------------

# One field table per PLA node, in the form of `views.SHAPES`; field names are
# those of the records the node encodes. A field two tables share is declared once.
_COMPOSITION_INDEX = ("composition_index", PLA_HAS_COMPOSITION_INDEX, INT, 1, 1)
_SLOT_INDEX = ("index", PLA_HAS_SLOT_INDEX, INT, 1, 1)
_TARGET = ("target", PLA_HAS_TARGET_VARIABLE, STR, 1, 1)
_FUNCTION = ("function", PLA_CALLS_FUNCTION, IRI, 1, 1)

_PROGRAM = (
    TYPE,
    ("basename", PLA_HAS_BASENAME, STR, 1, 1),
    ("structure_iri", PLA_USES_STRUCTURE, IRI, 1, 1),
    ("sections", PLA_HAS_SECTION, NODE, 1, MANY),
    ("library_references", PLA_HAS_LIBRARY_REFERENCE, NODE, 0, MANY),
)
_SECTION = (
    TYPE,
    ("name", PLA_HAS_SECTION_NAME, STR, 1, 1),
    ("entity_iri", PLA_SECTION_ENTITY, IRI, 1, 1),
    ("emission_index", PLA_HAS_EMISSION_INDEX, INT, 1, 1),
    _COMPOSITION_INDEX,
    ("statements", PLA_HAS_STATEMENT, NODE, 0, MANY),
)
_LIBRARY_REFERENCE = (_SLOT_INDEX, ("library", PLA_REFERS_TO_LIBRARY, IRI, 1, 1))
# Every statement node: its statement kind as rdf:type, and where it is placed.
_PLACEMENT = (TYPE, ("order_index", PLA_HAS_ORDER_INDEX, INT, 1, 1), _COMPOSITION_INDEX)
# One child node per argument of a call, naming the variable passed.
_ARGUMENT_SLOT = (_SLOT_INDEX, ("variable", PLA_HAS_VARIABLE_REF, STR, 1, 1))
# Record class -> (statement kind, fields).
_STATEMENTS = {
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


def _pla_nodes(program: PlaProgram):
    """The program's graph as `views.write` takes it, one (fields, node, values) per node."""
    graph = program.graph_iri
    refs = [Iri(f"{graph}#libref-{index}") for index in range(len(program.referenced_libraries))]
    for index, (ref, library) in enumerate(zip(refs, program.referenced_libraries)):
        yield _LIBRARY_REFERENCE, ref, {"index": index, "library": library.iri}
    sections = []
    for section in program.sections:
        statements = []
        for placed in section.statements:
            node = Iri(f"{graph}#stmt-{placed.composition_index}")
            kind, fields = _STATEMENTS[type(placed.statement)]
            values = dict(placed._asdict(), **placed.statement._asdict(), type=kind)
            # A call's arguments are child nodes of its statement node, one per slot.
            args = values.get("args", ())
            values["args"] = slots = [Iri(f"{node.value}-arg{index}") for index in range(len(args))]
            for index, (slot, arg) in enumerate(zip(slots, args)):
                yield _ARGUMENT_SLOT, slot, {"index": index, "variable": arg}
            yield _PLACEMENT, node, values
            yield fields, node, values
            statements.append(node)
        node = Iri(f"{graph}#section-{section.name.lower()}")
        yield _SECTION, node, dict(section._asdict(), type=PLA_SECTION, statements=statements)
        sections.append(node)
    yield _PROGRAM, Iri(program.program_iri), dict(program._asdict(), type=PLA_PROGRAM, sections=sections,
                                                   library_references=refs)
