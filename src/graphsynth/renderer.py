"""Renders the abstract program into concrete Python statement forms and
emits source text.

Every concrete statement records three things: which statement variation it
is, what its elements are, and the order of those elements. The element
templates come from the knowledge base's statement forms; rendering fills
each form's field slots with its variation's fields (`vocab.VARIATION_FIELDS`),
and checks no form, as `views.check_kb` has checked each against that table.
Emission walks the concrete program section by section in the fixed source
order and concatenates each statement's elements.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from graphsynth import vocab, views
from graphsynth.composer import AssignCall, AssignLiteral, ImportDirective, PlaProgram, ProgramExit, ReportValue
from graphsynth.errors import RenderError, UnmappableStatementError, UnsupportedLanguageError, WriteError
from graphsynth.quadstore import QuadStore
from graphsynth.terms import Iri
from graphsynth.views import INT, IRI, MANY, NODE, STR, TYPE, write
from graphsynth.views import Kb, LanguageInfo, LibraryInfo, StatementFormInfo

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

# One field table per PLR node, in the form of `views.SHAPES`.
_PROGRAM = (
    TYPE,
    ("basename", PLR_HAS_BASENAME, STR, 1, 1),
    ("language_iri", PLR_HAS_LANGUAGE, IRI, 1, 1),
    ("statements", PLR_HAS_STATEMENT, NODE, 0, MANY),
)
_STATEMENT = (
    TYPE,
    ("variation", PLR_HAS_VARIATION, STR, 1, 1),
    ("section", PLR_IN_SECTION, STR, 1, 1),
    ("section_index", PLR_HAS_SECTION_INDEX, INT, 1, 1),
    ("statement_index", PLR_HAS_STATEMENT_INDEX, INT, 1, 1),
    ("elements", PLR_HAS_ELEMENT_SLOT, NODE, 1, MANY),
)
_ELEMENT = (("index", PLR_HAS_ELEMENT_INDEX, INT, 1, 1), ("text", PLR_HAS_ELEMENT_TEXT, STR, 1, 1))


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


def _statement(variation: str, *values: str) -> tuple[str, dict[str, str]]:
    """`variation` with its fields, named in `vocab.VARIATION_FIELDS` order."""
    return variation, dict(zip(vocab.VARIATION_FIELDS[variation], values, strict=True))


def import_statement(library: LibraryInfo) -> tuple[str, dict[str, str]]:
    """The import of one library, its alias applied when it has one."""
    if library.alias:
        return _statement(vocab.VARIATION_IMPORT_ALIASED, library.official_name, library.alias)
    return _statement(vocab.VARIATION_IMPORT_PLAIN, library.official_name)


class _Renderer:
    def __init__(self, kb: Kb, language: LanguageInfo, pla: PlaProgram):
        self.language = language
        self.libraries = {library.iri: library for library in pla.referenced_libraries}
        self.functions = {function.iri: function for function in pla.called_functions}
        self.forms = kb.statement_forms.get(language.family, {})
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
        function = self.functions.get(function_iri)
        if function is None:
            raise RenderError(f"function {function_iri} is not among the program's called functions")
        library = function.library
        prefix = library.alias or library.official_name
        return f"{prefix}.{function.callable_name}"

    def render_statement(self, statement) -> tuple[str, dict[str, str]]:
        """The statement's variation and the fields its form is filled with."""
        if isinstance(statement, ImportDirective):
            library = self.libraries.get(statement.library)
            if library is None:
                raise RenderError(f"library {statement.library} is not among the program's referenced libraries")
            return import_statement(library)
        if isinstance(statement, AssignLiteral):
            return _statement(vocab.VARIATION_ASSIGN_EXPR, statement.target, self.quote(statement.value))
        if isinstance(statement, AssignCall):
            args = ",".join(statement.args)
            return _statement(vocab.VARIATION_ASSIGN_EXPR, statement.target,
                              f"{self.callee_ref(statement.function)}({args})")
        if isinstance(statement, ReportValue):
            # The report form is print('<label> = ',<value>): a space inside
            # the label before '=', none after the comma.
            return _statement(vocab.VARIATION_CALL_STMT, "print",
                              f"{self.quote(statement.label + ' = ')},{statement.source}")
        if isinstance(statement, ProgramExit):
            return _statement(vocab.VARIATION_CALL_STMT, self.callee_ref(statement.function), str(statement.status))
        raise UnmappableStatementError(type(statement).__name__)


def render(pla: PlaProgram, language: LanguageInfo, store: QuadStore) -> PlrProgram:
    """Map every abstract statement to one concrete statement in its empty graph `program_graph_iri(basename, "plr")`.

    The whole program is built first and then written there in one batch, so
    a render that fails leaves no graph. Returns that program, not read back
    from the graph; decoded through the field tables above, the graph gives
    an equal program. Each callee is the function the abstract program
    carries for its call, the one the resolver chose; the KB is not asked
    for it again. A language family without statement forms in the KB is
    unsupported.
    """
    renderer = _Renderer(views.kb(store), language, pla)
    graph_iri = vocab.program_graph_iri(pla.basename, "plr")
    if store.graph_size(graph_iri) != 0:
        raise RenderError(f"target graph is not empty: {graph_iri}")

    sections: dict[str, list[PlacedConcrete]] = {name: [] for name in vocab.EMISSION_ORDER}
    for section in sorted(pla.sections, key=lambda s: s.emission_index):
        for index, placed in enumerate(sorted(section.statements, key=lambda p: p.order_index)):
            variation, fields = renderer.render_statement(placed.statement)
            elements = tuple(slot.text if slot.field is None else fields[slot.field]
                             for slot in renderer.form(variation).slots)
            sections[section.name].append(PlacedConcrete(variation, section.name, index, elements))
    plr = PlrProgram(graph_iri, f"{graph_iri}#program", pla.basename, language.iri,
                     tuple((name, tuple(placed)) for name, placed in sections.items()))
    write(store, graph_iri, _plr_nodes(plr))
    return plr


def _plr_nodes(plr: PlrProgram):
    """The program's graph as `views.write` takes it, one (fields, node, values) per node."""
    statements = []
    for statement_index, placed in enumerate(plr.all_statements()):
        node = Iri(f"{plr.graph_iri}#stmt-{statement_index}")
        elements = [Iri(f"{node.value}-e{index}") for index in range(len(placed.elements))]
        for index, (element, text) in enumerate(zip(elements, placed.elements)):
            yield _ELEMENT, element, {"index": index, "text": text}
        yield _STATEMENT, node, dict(placed._asdict(), type=PLR_STATEMENT, statement_index=statement_index,
                                     elements=elements)
        statements.append(node)
    yield _PROGRAM, Iri(plr.program_iri), dict(plr._asdict(), type=PLR_PROGRAM, statements=statements)


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
