"""Renders the abstract program into concrete Python statement forms and
emits source text.

Every concrete statement records three things: which statement variation it
is, what its elements are, and the order of those elements. The element
templates come from the knowledge base's statement forms; rendering fills
their fields. Emission walks the concrete graph section by section in the
fixed source order and concatenates each statement's elements.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from graphsynth import vocab, views
from graphsynth.composer import (
    AssignCall,
    AssignLiteral,
    CallArg,
    ImportDirective,
    PlaProgram,
    ProgramExit,
    ReportValue,
    _TYPE,
    _ins,
)
from graphsynth.errors import (
    CardinalityError,
    RenderError,
    UnmappableStatementError,
    UnsupportedLanguageError,
    WriteError,
)
from graphsynth.quadstore import Pattern, QuadStore, Var
from graphsynth.terms import Iri, Literal, integer_literal
from graphsynth.views import LanguageInfo, LibraryInfo, StatementFormInfo

# Concrete-program vocabulary (disjoint from the abstract one by design), each
# term built once here so that no write or read-back validates it again.
PLR_PROGRAM = Iri(vocab.plr("Program"))
PLR_STATEMENT = Iri(vocab.plr("Statement"))
PLR_HAS_BASENAME = Iri(vocab.plr("hasBasename"))
PLR_HAS_LANGUAGE = Iri(vocab.plr("hasLanguage"))
PLR_HAS_STATEMENT = Iri(vocab.plr("hasStatement"))
PLR_HAS_VARIATION = Iri(vocab.plr("hasVariation"))
PLR_IN_SECTION = Iri(vocab.plr("inSection"))
PLR_HAS_SECTION_INDEX = Iri(vocab.plr("hasSectionIndex"))
PLR_HAS_STATEMENT_INDEX = Iri(vocab.plr("hasStatementIndex"))
PLR_HAS_ELEMENT_SLOT = Iri(vocab.plr("hasElementSlot"))
PLR_HAS_ELEMENT_INDEX = Iri(vocab.plr("hasElementIndex"))
PLR_HAS_ELEMENT_TEXT = Iri(vocab.plr("hasElementText"))


class ImportPlain(NamedTuple):
    official_name: str

    variation = vocab.VARIATION_IMPORT_PLAIN

    def fields(self) -> dict[str, str]:
        return {"official_name": self.official_name}


class ImportAliased(NamedTuple):
    official_name: str
    alias: str

    variation = vocab.VARIATION_IMPORT_ALIASED

    def fields(self) -> dict[str, str]:
        return {"official_name": self.official_name, "alias": self.alias}


class AssignExpr(NamedTuple):
    lhs: str
    rhs: str

    variation = vocab.VARIATION_ASSIGN_EXPR

    def fields(self) -> dict[str, str]:
        return {"target": self.lhs, "expression": self.rhs}


class CallStmt(NamedTuple):
    callee: str
    args: tuple[str, ...]

    variation = vocab.VARIATION_CALL_STMT

    def fields(self) -> dict[str, str]:
        return {"callee": self.callee, "arguments": ",".join(self.args)}


ConcreteStatement = ImportPlain | ImportAliased | AssignExpr | CallStmt


class PlacedConcrete(NamedTuple):
    variation: str
    section: str
    section_index: int
    elements: tuple[str, ...]

    def text(self) -> str:
        return "".join(self.elements)


class PlrProgram(NamedTuple):
    graph_iri: str
    program_iri: str
    basename: str
    language_iri: str
    sections: tuple[tuple[str, tuple[PlacedConcrete, ...]], ...]  # (name, statements) in emission order

    def all_statements(self) -> list[PlacedConcrete]:
        out = []
        for _, statements in self.sections:
            out.extend(statements)
        return out


def _elements_for(form: StatementFormInfo, fields: dict[str, str]) -> tuple[str, ...]:
    elements = []
    for slot in form.slots:
        if slot.text is not None:
            elements.append(slot.text)
        elif slot.field is not None:
            if slot.field not in fields:
                raise RenderError(f"form {form.variation_id} needs field '{slot.field}'")
            elements.append(fields[slot.field])
        else:
            raise RenderError(f"form {form.variation_id} slot {slot.index} has neither text nor field")
    return tuple(elements)


# Escapes for the body of a string literal: the backslash, line breaks and
# tab by name, every other C0 control character and DEL as \xNN, so that no
# KB text can end the literal or put a byte the parser rejects into the source.
_LITERAL_ESCAPES = {code: f"\\x{code:02x}" for code in (*range(0x20), 0x7F)} | {
    ord("\\"): "\\\\",
    ord("\n"): "\\n",
    ord("\r"): "\\r",
    ord("\t"): "\\t",
}


def quote(value: str, quote_char: str) -> str:
    """`value` as a string literal delimited by `quote_char`."""
    return quote_char + value.translate(_LITERAL_ESCAPES).replace(quote_char, "\\" + quote_char) + quote_char


def build_import_statements(libs: list[LibraryInfo] | set[LibraryInfo]) -> list[ImportPlain | ImportAliased]:
    """One import per library, sorted byte-wise by official name, alias applied when present."""
    statements: list[ImportPlain | ImportAliased] = []
    for library in sorted(libs, key=lambda lib: lib.official_name.encode("utf-8")):
        if library.alias:
            statements.append(ImportAliased(library.official_name, library.alias))
        else:
            statements.append(ImportPlain(library.official_name))
    return statements


class _Renderer:
    def __init__(self, store: QuadStore, language: LanguageInfo, core_graph: str):
        self.store = store
        self.language = language
        self.core_graph = core_graph
        self.forms = views.view_statement_forms(store, language.family, core_graph)
        if not self.forms:
            raise UnsupportedLanguageError(language.family)

    def form(self, variation: str) -> StatementFormInfo:
        form = self.forms.get(variation)
        if form is None:
            raise UnmappableStatementError(variation)
        return form

    def quote(self, value: str) -> str:
        return quote(value, self.language.string_quote)

    def callee_ref(self, function_iri: str) -> str:
        function = views.view_code_function_by_iri(self.store, function_iri, self.core_graph)
        if function is None:
            raise RenderError(f"function {function_iri} is not in the knowledge base")
        library = function.library
        prefix = library.alias or library.official_name
        return f"{prefix}.{function.callable_name}"

    def render_args(self, args: tuple[CallArg, ...]) -> tuple[str, ...]:
        out = []
        for arg in args:
            if arg.variable is not None:
                out.append(arg.variable)
            else:
                out.append(self.quote(arg.literal))
        return tuple(out)

    def render_statement(self, statement) -> ConcreteStatement:
        if isinstance(statement, ImportDirective):
            library = views.view_library(self.store, statement.library, self.core_graph)
            if library is None:
                raise RenderError(f"library {statement.library} is not in the knowledge base")
            return build_import_statements([library])[0]
        if isinstance(statement, AssignLiteral):
            return AssignExpr(lhs=statement.target, rhs=self.quote(statement.value))
        if isinstance(statement, AssignCall):
            args = ",".join(self.render_args(statement.args))
            return AssignExpr(lhs=statement.target, rhs=f"{self.callee_ref(statement.function)}({args})")
        if isinstance(statement, ReportValue):
            # The report form is print('<label> = ',<value>): a space inside
            # the label before '=', none after the comma.
            return CallStmt(callee="print", args=(self.quote(statement.label + " = "), statement.source))
        if isinstance(statement, ProgramExit):
            return CallStmt(callee=self.callee_ref(statement.function), args=(str(statement.status),))
        raise UnmappableStatementError(type(statement).__name__)


def render(
    pla: PlaProgram,
    language: LanguageInfo,
    store: QuadStore,
    graph_iri: str | None = None,
    core_graph: str = vocab.CORE_GRAPH,
) -> PlrProgram:
    """Map every abstract statement to one concrete statement in a fresh named graph.

    A language family without statement forms in the KB is unsupported.
    """
    renderer = _Renderer(store, language, core_graph)
    graph_iri = graph_iri or vocab.program_graph_iri(pla.basename, "plr")
    if store.graph_size(graph_iri) != 0:
        raise RenderError(f"target graph is not empty: {graph_iri}")

    program = Iri(f"{graph_iri}#program")
    _ins(store, graph_iri, program, _TYPE, PLR_PROGRAM)
    _ins(store, graph_iri, program, PLR_HAS_BASENAME, Literal(pla.basename))
    _ins(store, graph_iri, program, PLR_HAS_LANGUAGE, Iri(language.iri))

    counter = 0
    for section in sorted(pla.sections, key=lambda s: s.emission_index):
        for index, placed in enumerate(sorted(section.statements, key=lambda p: p.order_index)):
            concrete = renderer.render_statement(placed.statement)
            elements = _elements_for(renderer.form(concrete.variation), concrete.fields())
            node = Iri(f"{graph_iri}#stmt-{counter}")
            _ins(store, graph_iri, program, PLR_HAS_STATEMENT, node)
            _ins(store, graph_iri, node, _TYPE, PLR_STATEMENT)
            _ins(store, graph_iri, node, PLR_HAS_VARIATION, Literal(concrete.variation))
            _ins(store, graph_iri, node, PLR_IN_SECTION, Literal(section.name))
            _ins(store, graph_iri, node, PLR_HAS_SECTION_INDEX, integer_literal(index))
            _ins(store, graph_iri, node, PLR_HAS_STATEMENT_INDEX, integer_literal(counter))
            for element_index, text in enumerate(elements):
                element_node = Iri(f"{node.value}-e{element_index}")
                _ins(store, graph_iri, node, PLR_HAS_ELEMENT_SLOT, element_node)
                _ins(store, graph_iri, element_node, PLR_HAS_ELEMENT_INDEX, integer_literal(element_index))
                _ins(store, graph_iri, element_node, PLR_HAS_ELEMENT_TEXT, Literal(text))
            counter += 1

    return load_plr(store, graph_iri)


def _str_of(store: QuadStore, graph: str, subject: Iri, predicate: Iri) -> str:
    """The one value of a property the graph must hold, as its lexical form or IRI."""
    try:
        term = store.value(subject, predicate, graph)
    except CardinalityError as exc:
        raise RenderError(str(exc)) from exc
    if term is None:
        raise RenderError(f"graph {graph} is missing {predicate.value} on {subject.value}")
    return term.lexical if isinstance(term, Literal) else term.value


def load_plr(store: QuadStore, graph_iri: str) -> PlrProgram:
    """Reconstruct the concrete program by walking its named graph."""
    programs = store.match_pattern(Pattern(Var("p"), _TYPE, PLR_PROGRAM, graph_iri))
    if len(programs) != 1:
        raise RenderError(f"graph {graph_iri} holds {len(programs)} programs, expected 1")
    program = programs[0]["p"]

    by_section: dict[str, list[tuple[int, PlacedConcrete]]] = {}
    for node in store.objects(program, PLR_HAS_STATEMENT, graph_iri):
        variation = _str_of(store, graph_iri, node, PLR_HAS_VARIATION)
        section = _str_of(store, graph_iri, node, PLR_IN_SECTION)
        section_index = int(_str_of(store, graph_iri, node, PLR_HAS_SECTION_INDEX))
        elements = []
        for element_node in store.objects(node, PLR_HAS_ELEMENT_SLOT, graph_iri):
            elements.append(
                (
                    int(_str_of(store, graph_iri, element_node, PLR_HAS_ELEMENT_INDEX)),
                    _str_of(store, graph_iri, element_node, PLR_HAS_ELEMENT_TEXT),
                )
            )
        placed = PlacedConcrete(
            variation=variation,
            section=section,
            section_index=section_index,
            elements=tuple(text for _, text in sorted(elements, key=lambda pair: pair[0])),
        )
        by_section.setdefault(section, []).append((section_index, placed))

    ordered_sections = []
    for name in vocab.EMISSION_ORDER:
        entries = by_section.pop(name, [])
        ordered_sections.append((name, tuple(p for _, p in sorted(entries, key=lambda pair: pair[0]))))
    for name in sorted(by_section):  # sections beyond the canonical five, if any
        entries = by_section[name]
        ordered_sections.append((name, tuple(p for _, p in sorted(entries, key=lambda pair: pair[0]))))

    return PlrProgram(
        graph_iri=graph_iri,
        program_iri=program.value,
        basename=_str_of(store, graph_iri, program, PLR_HAS_BASENAME),
        language_iri=_str_of(store, graph_iri, program, PLR_HAS_LANGUAGE),
        sections=tuple(ordered_sections),
    )


def emit(plr: PlrProgram, blank_lines_between_sections: bool = False) -> str:
    """Serialize the concrete program: one statement per line, LF endings,
    exactly one trailing newline; optionally one blank line between sections.

    Text that does not compile as a Python module is a RenderError, so it never
    reaches a file; compiling, unlike parsing, also rejects `yield`, `return`,
    `await` and `break` outside the constructs that allow them.
    """
    blocks = []
    for _, statements in plr.sections:
        if not statements:
            continue
        blocks.append("\n".join(placed.text() for placed in statements))
    if not blocks:
        return ""
    joiner = "\n\n" if blank_lines_between_sections else "\n"
    text = joiner.join(blocks) + "\n"
    try:
        compile(text, "<emitted>", "exec", dont_inherit=True)
    except SyntaxError as exc:
        raise RenderError(f"emitted source does not parse: line {exc.lineno}: {exc.msg}") from exc
    return text


def write_source(
    text: str,
    basename: str,
    language: LanguageInfo,
    out_dir: Path,
    force: bool = False,
) -> Path:
    """Write the program as UTF-8 to `basename` plus the language's extension.

    Without `force` the file is created exclusively, so an existing file is
    never touched. With `force` the text goes to a temporary file in the same
    directory that is then renamed over the target, so the target always
    holds either its old or its new content.
    """
    out_dir = Path(out_dir)
    path = out_dir / f"{basename}{language.source_file_extension}"
    data = text.encode("utf-8")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if force:
            _replace(path, data)
        else:
            try:
                handle = open(path, "xb")
            except FileExistsError:
                raise WriteError(f"refusing to overwrite existing file: {path} (use force)") from None
            with handle:
                handle.write(data)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc
    return path


def _replace(path: Path, data: bytes):
    """Write `data` to a fresh file beside `path` and rename it over `path`."""
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, "xb") as handle:
            handle.write(data)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)
