"""Builds the abstract program representation as triples in a named graph.

Sections are composed in one pass in dependency order (Input, Calculate,
Output, CleanUp, Preamble), the composition order `views.check_kb` fixes for
every structure, so that variables defined in one section flow into the
next, and the libraries of the called functions become import directives
when everything else is done. Each call and import statement holds the KB
record it names. `compose` names the variables by the KB's three naming
patterns: the data source's content label joined to the filename suffix, the
content label alone for the data read, and the callable name for each
calculation. A repeated name takes its first free `_2`, `_3`, ... form, and
no variable takes a name an import binds or the report callee. The abstract
graph is paradigm-bound but language-agnostic: no concrete syntax, no
quoting, no keywords; functions and libraries appear only as knowledge-base
entity IRIs, each record written as its `.iri`. The graph's triples are
written straight from the composed records, one node per program, section,
library reference, statement and call argument.
"""

from __future__ import annotations

import keyword
import sys
from collections import namedtuple
from typing import Iterable

from graphsynth import vocab, views
from graphsynth.errors import ComposeError, UnnamedVariableError
from graphsynth.quadstore import QuadStore
from graphsynth.resolver import BuildPlan
from graphsynth.terms import RDF_TYPE, Iri, Literal, Term, integer_literal
from graphsynth.views import CodeFunctionInfo, LibraryInfo, NamingPatternInfo

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
_RDF_TYPE = Iri(RDF_TYPE)


AssignLiteral = namedtuple("AssignLiteral", (
    "target",  # str
    "value",  # str
    "role",  # str
))


AssignCall = namedtuple("AssignCall", (
    "target",  # str
    "function",  # CodeFunctionInfo
    "args",  # tuple[str, ...]: the variables passed, each composed earlier
))


ReportValue = namedtuple("ReportValue", (
    "label",  # str
    "source",  # str
))


ProgramExit = namedtuple("ProgramExit", (
    "status",  # int
    "function",  # CodeFunctionInfo
))


ImportDirective = namedtuple("ImportDirective", (
    "library",  # LibraryInfo
))


AbstractStatement = AssignLiteral | AssignCall | ReportValue | ProgramExit | ImportDirective
# Record class -> the statement kind its node is typed with.
_KINDS = {AssignLiteral: PLA_ASSIGN_LITERAL, AssignCall: PLA_ASSIGN_CALL, ReportValue: PLA_REPORT_VALUE,
          ProgramExit: PLA_PROGRAM_EXIT, ImportDirective: PLA_IMPORT_DIRECTIVE}


PlacedStatement = namedtuple("PlacedStatement", (
    "statement",  # AbstractStatement
    "section",  # str
    "order_index",  # int
    "composition_index",  # int
))


class PlaSection(namedtuple("PlaSection", (
    "name",  # str
    "entity_iri",  # str
    "emission_index",  # int
    "composition_index",  # int
    "statements",  # tuple[PlacedStatement, ...]
))):
    """One section of the structure, its statements in order-index order."""

    __slots__ = ()


class PlaProgram(namedtuple("PlaProgram", (
    "graph_iri",  # str
    "program_iri",  # str
    "basename",  # str
    "structure_iri",  # str
    "sections",  # tuple[PlaSection, ...]
    "referenced_libraries",  # tuple[LibraryInfo, ...]: the called functions' libraries, in first-call order
))):
    """An abstract program: its sections in emission order, each holding its statements in order-index order;
    each call and import statement holds the knowledge-base record it names."""

    __slots__ = ()


def _call(target: str, function: CodeFunctionInfo, role_vars: dict[str, str]) -> AssignCall:
    """`target` assigned the call of `function` on the variable of each of its argument roles.

    The call's return role, if it has one, is then bound to `target`.
    """
    args = []
    for role in function.arg_spec:
        variable = role_vars.get(role)
        if variable is None:
            raise ComposeError(f"function {function.qualified_name} needs a value in role {role}, none composed yet")
        args.append(variable)
    if function.return_role:
        role_vars[function.return_role] = target
    return AssignCall(target, function, tuple(args))


def import_order(libraries: Iterable[LibraryInfo]) -> list[LibraryInfo]:
    """The libraries in the order the program imports them: byte-wise by official name."""
    return sorted(libraries, key=lambda lib: lib.official_name.encode("utf-8"))


def compose(plan: BuildPlan, store: QuadStore) -> PlaProgram:
    """Compose the plan over the store's KB into its empty graph `program_graph_iri(basename, "pla")`.

    The whole program is built first, then its triples, each term through
    its checking constructor, and then they are written there in one batch,
    so a composition that fails leaves no graph. The returned program is
    that one, not read back from the graph; decoded through the PLA field
    tables in `tests/oracles.py`, the graph gives an equal program.
    """
    graph_iri = vocab.program_graph_iri(plan.program_basename, "pla")
    if store.graph_size(graph_iri) != 0:
        raise ComposeError(f"target graph is not empty: {graph_iri}")
    functions = (plan.reader_function, *(calc.function for calc in plan.calculations), plan.exit_function)
    libraries = tuple(dict.fromkeys(function.library for function in functions))
    # A program file named after a top-level module it imports would import itself instead, and one named
    # after a standard-library module would be imported in its place by every library that needs it.
    if plan.program_basename in {lib.official_name.partition(".")[0] for lib in libraries}:
        raise ComposeError(f"program basename {plan.program_basename!r} names an imported library")
    if plan.program_basename in sys.stdlib_module_names:
        raise ComposeError(f"program basename {plan.program_basename!r} names a standard-library module")

    bound = {name for lib in libraries for name in (lib.official_name, lib.alias) if name}
    if vocab.REPORT_CALLEE in bound:  # an import of that name would shadow the call that reports each result
        raise ComposeError(f"an imported library is named {vocab.REPORT_CALLEE!r}, the report callee")
    patterns, reserved, taken = views.kb(store).naming_patterns, bound | {vocab.REPORT_CALLEE}, set()

    def pattern(pattern_id: str) -> NamingPatternInfo:
        found = patterns.get(pattern_id)
        if found is None:
            raise UnnamedVariableError(f"pattern '{pattern_id}' is not in the knowledge base")
        return found

    def variable(pattern_id: str, name: str) -> str:
        """`name`, derived by the KB pattern `pattern_id`, or its first `_2`, `_3`, ... form no variable has taken.

        A name that is no identifier, or that an import binds or the report call uses, is an error.
        """
        pattern(pattern_id)
        if not name.isidentifier() or keyword.iskeyword(name):
            raise UnnamedVariableError(f"pattern '{pattern_id}' derives {name!r}, which is not a variable name")
        if name in reserved:
            what = "the report callee" if name == vocab.REPORT_CALLEE else "an imported library"
            raise UnnamedVariableError(f"pattern '{pattern_id}' derives {name!r}, which names {what}")
        free, count = name, 1
        while free in taken or free in reserved:
            count += 1
            free = f"{name}_{count}"
        taken.add(free)
        return free

    # `views.check_kb` fixes the composition order of every structure that
    # loads to `vocab.COMPOSITION_ORDER`: Input, Calculate, Output, CleanUp,
    # Preamble. Each section's values are composed before the next uses them.
    source = plan.data_source
    label = source.content_type_label
    naming = pattern(vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME)
    if label is None or naming.suffix_label is None:
        raise UnnamedVariableError("filename pattern needs a content type label and a suffix label")
    filename = variable(vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME,
                        label + (naming.separator or "_") + naming.suffix_label)
    role_vars = {vocab.ROLE_DATASOURCE_FILENAME: filename}
    data = variable(vocab.PATTERN_FILENAME_ARG_TO_READER, label)
    composed = [
        (vocab.SECTION_INPUT, AssignLiteral(filename, source.name, vocab.ROLE_DATASOURCE_FILENAME)),
        (vocab.SECTION_INPUT, _call(data, plan.reader_function, role_vars)),
    ]
    calls = [
        _call(variable(vocab.PATTERN_ASSIGN_FUNCTION_RETURN, calc.function.callable_name), calc.function, role_vars)
        for calc in plan.calculations
    ]
    composed += [(vocab.SECTION_CALCULATE, call) for call in calls]
    composed += [(vocab.SECTION_OUTPUT, ReportValue(label=call.target, source=call.target)) for call in calls]
    composed.append((vocab.SECTION_CLEANUP, ProgramExit(status=0, function=plan.exit_function)))
    composed += [(vocab.SECTION_PREAMBLE, ImportDirective(library)) for library in import_order(libraries)]

    placed: dict[str, list[PlacedStatement]] = {}
    for counter, (section, statement) in enumerate(composed):
        statements = placed.setdefault(section, [])
        statements.append(PlacedStatement(statement, section, len(statements), counter))
    program = PlaProgram(
        graph_iri=graph_iri,
        program_iri=f"{graph_iri}#program",
        basename=plan.program_basename,
        structure_iri=plan.structure.iri,
        sections=tuple(  # `views._snapshot` keeps a structure's slots in emission order
            PlaSection(slot.name, slot.section_iri, slot.emission_index, slot.composition_index,
                       tuple(placed.get(slot.name, ())))
            for slot in plan.structure.slots
        ),
        referenced_libraries=libraries,
    )
    store._add_all(graph_iri, _pla_triples(program))
    return program


def _pla_triples(program: PlaProgram) -> list[tuple[Iri, Iri, Term]]:
    """The program's graph as (subject, predicate, object) triples, each term built by its checking constructor.

    A record value of the wrong type, such as an int where an IRI belongs,
    raises here, before the store is touched.
    """
    graph = program.graph_iri
    triples = []
    refs = []
    for index, library in enumerate(program.referenced_libraries):
        ref = Iri(f"{graph}#libref-{index}")
        triples += [(ref, PLA_HAS_SLOT_INDEX, integer_literal(index)), (ref, PLA_REFERS_TO_LIBRARY, Iri(library.iri))]
        refs.append(ref)
    sections = []
    for section in program.sections:
        statements = []
        for placed in section.statements:
            statement = placed.statement
            kind = type(statement)
            node = Iri(f"{graph}#stmt-{placed.composition_index}")
            triples += [
                (node, _RDF_TYPE, _KINDS[kind]),
                (node, PLA_HAS_ORDER_INDEX, integer_literal(placed.order_index)),
                (node, PLA_HAS_COMPOSITION_INDEX, integer_literal(placed.composition_index)),
            ]
            if kind is AssignLiteral:
                triples += [(node, PLA_HAS_TARGET_VARIABLE, Literal(statement.target)),
                            (node, PLA_HAS_LITERAL_VALUE, Literal(statement.value)),
                            (node, PLA_HAS_LITERAL_ROLE, Iri(statement.role))]
            elif kind is AssignCall:
                # A call's arguments are child nodes of its statement node, one per slot.
                slots = [Iri(f"{node.value}-arg{index}") for index in range(len(statement.args))]
                triples += [(node, PLA_HAS_TARGET_VARIABLE, Literal(statement.target)),
                            (node, PLA_CALLS_FUNCTION, Iri(statement.function.iri))]
                triples += [(node, PLA_HAS_ARGUMENT_SLOT, slot) for slot in slots]
                for index, (slot, arg) in enumerate(zip(slots, statement.args)):
                    triples += [(slot, PLA_HAS_SLOT_INDEX, integer_literal(index)),
                                (slot, PLA_HAS_VARIABLE_REF, Literal(arg))]
            elif kind is ReportValue:
                triples += [(node, PLA_HAS_REPORT_LABEL, Literal(statement.label)),
                            (node, PLA_HAS_SOURCE_VARIABLE, Literal(statement.source))]
            elif kind is ProgramExit:
                triples += [(node, PLA_HAS_EXIT_STATUS, integer_literal(statement.status)),
                            (node, PLA_CALLS_FUNCTION, Iri(statement.function.iri))]
            else:
                triples.append((node, PLA_IMPORTS_LIBRARY, Iri(statement.library.iri)))
            statements.append(node)
        node = Iri(f"{graph}#section-{section.name.lower()}")
        triples += [
            (node, _RDF_TYPE, PLA_SECTION),
            (node, PLA_HAS_SECTION_NAME, Literal(section.name)),
            (node, PLA_SECTION_ENTITY, Iri(section.entity_iri)),
            (node, PLA_HAS_EMISSION_INDEX, integer_literal(section.emission_index)),
            (node, PLA_HAS_COMPOSITION_INDEX, integer_literal(section.composition_index)),
        ]
        triples += [(node, PLA_HAS_STATEMENT, statement) for statement in statements]
        sections.append(node)
    node = Iri(program.program_iri)
    triples += [(node, _RDF_TYPE, PLA_PROGRAM), (node, PLA_HAS_BASENAME, Literal(program.basename)),
                (node, PLA_USES_STRUCTURE, Iri(program.structure_iri))]
    triples += [(node, PLA_HAS_SECTION, section) for section in sections]
    triples += [(node, PLA_HAS_LIBRARY_REFERENCE, ref) for ref in refs]
    return triples
