"""Renders the abstract program into concrete Python statement forms and
emits source text.

Every concrete statement records three things: which statement variation it
is, what its elements are, and the order of those elements. The element
templates come from the knowledge base's statement forms, each callee and
import from the KB record its abstract statement holds. Rendering fills each
form's field slots with its variation's fields (`vocab.VARIATION_FIELDS`), and
checks no form, as `views.check_kb` has checked each against that table.
The concrete program's graph is written straight from its records: one
node for the program, each statement and each of its elements.
Emission walks the concrete program section by section in the fixed source
order and concatenates each statement's elements. Writing creates the file
with one exclusive `os.open` and makes the output directory only when that
open finds it missing.
"""

from __future__ import annotations

import os
from collections import namedtuple
from pathlib import Path

from graphsynth import vocab, views
from graphsynth.composer import AssignCall, AssignLiteral, ImportDirective, PlaProgram, ProgramExit, ReportValue
from graphsynth.errors import RenderError, UnmappableStatementError, UnsupportedLanguageError, WriteError
from graphsynth.quadstore import QuadStore
from graphsynth.terms import RDF_TYPE, Iri, Literal, Term, integer_literal
from graphsynth.views import CodeFunctionInfo, LanguageInfo, LibraryInfo

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

_RDF_TYPE = Iri(RDF_TYPE)


class PlacedConcrete(namedtuple("PlacedConcrete", (
    "variation",  # str
    "section",  # str
    "section_index",  # int
    "elements",  # tuple[str, ...]
))):
    __slots__ = ()

    def text(self) -> str:
        return "".join(self.elements)


PlrProgram = namedtuple("PlrProgram", (
    "graph_iri",  # str
    "program_iri",  # str
    "basename",  # str
    "language_iri",  # str
    "sections",  # tuple[tuple[str, tuple[PlacedConcrete, ...]], ...]: (name, statements) in emission order
))


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


def _callee(function: CodeFunctionInfo) -> str:
    """How the program calls `function`: through its library's alias, else its official name."""
    library = function.library
    return f"{library.alias or library.official_name}.{function.callable_name}"


def _fill(statement, quote_char: str) -> tuple[str, dict[str, str]]:
    """The statement's variation and the fields its form is filled with."""
    if isinstance(statement, ImportDirective):
        return import_statement(statement.library)
    if isinstance(statement, AssignLiteral):
        return _statement(vocab.VARIATION_ASSIGN_EXPR, statement.target, quote(statement.value, quote_char))
    if isinstance(statement, AssignCall):
        args = ",".join(statement.args)
        return _statement(vocab.VARIATION_ASSIGN_EXPR, statement.target, f"{_callee(statement.function)}({args})")
    if isinstance(statement, ReportValue):
        # The report form is print('<label> = ',<value>): a space inside
        # the label before '=', none after the comma.
        return _statement(vocab.VARIATION_CALL_STMT, vocab.REPORT_CALLEE,
                          f"{quote(statement.label + ' = ', quote_char)},{statement.source}")
    if isinstance(statement, ProgramExit):
        return _statement(vocab.VARIATION_CALL_STMT, _callee(statement.function), str(statement.status))
    raise UnmappableStatementError(type(statement).__name__)


def render(pla: PlaProgram, language: LanguageInfo, store: QuadStore) -> PlrProgram:
    """Map every abstract statement to one concrete statement in its empty graph `program_graph_iri(basename, "plr")`.

    Sections and statements are taken in the order the abstract program
    holds them: sections in emission order, statements in order-index order.

    The whole program is built first, then its triples, each term through
    its checking constructor, and then they are written there in one batch,
    so a render that fails leaves no graph. Returns that program, not read
    back from the graph; decoded through the PLR field tables in
    `tests/oracles.py`, the graph gives an equal program. Each callee and
    each import is the KB record its statement holds, the one the resolver
    chose; the KB is asked only for the statement forms. A language family
    without statement forms in the KB is unsupported.
    """
    forms = views.kb(store).statement_forms.get(language.family)
    if not forms:
        raise UnsupportedLanguageError(language.family)
    graph_iri = vocab.program_graph_iri(pla.basename, "plr")
    if store.graph_size(graph_iri) != 0:
        raise RenderError(f"target graph is not empty: {graph_iri}")

    sections = []
    for section in pla.sections:
        statements = []
        for placed in section.statements:
            variation, fields = _fill(placed.statement, language.string_quote)
            form = forms.get(variation)
            if form is None:
                raise UnmappableStatementError(variation)
            elements = tuple(slot.text if slot.field is None else fields[slot.field] for slot in form.slots)
            statements.append(PlacedConcrete(variation, section.name, placed.order_index, elements))
        sections.append((section.name, tuple(statements)))
    plr = PlrProgram(graph_iri, f"{graph_iri}#program", pla.basename, language.iri, tuple(sections))
    store._add_all(graph_iri, _plr_triples(plr))
    return plr


def _plr_triples(plr: PlrProgram) -> list[tuple[Iri, Iri, Term]]:
    """The program's graph as (subject, predicate, object) triples, each term built by its checking constructor.

    The statements are numbered across the sections in emission order. A
    record value of the wrong type, such as a non-str element, raises here,
    before the store is touched.
    """
    triples = []
    statements = []
    for _, placed_statements in plr.sections:
        for placed in placed_statements:
            node = Iri(f"{plr.graph_iri}#stmt-{len(statements)}")
            elements = [Iri(f"{node.value}-e{index}") for index in range(len(placed.elements))]
            triples += [
                (node, _RDF_TYPE, PLR_STATEMENT),
                (node, PLR_HAS_VARIATION, Literal(placed.variation)),
                (node, PLR_IN_SECTION, Literal(placed.section)),
                (node, PLR_HAS_SECTION_INDEX, integer_literal(placed.section_index)),
                (node, PLR_HAS_STATEMENT_INDEX, integer_literal(len(statements))),
            ]
            triples += [(node, PLR_HAS_ELEMENT_SLOT, element) for element in elements]
            for index, (element, text) in enumerate(zip(elements, placed.elements)):
                triples += [(element, PLR_HAS_ELEMENT_INDEX, integer_literal(index)),
                            (element, PLR_HAS_ELEMENT_TEXT, Literal(text))]
            statements.append(node)
    node = Iri(plr.program_iri)
    triples += [(node, _RDF_TYPE, PLR_PROGRAM), (node, PLR_HAS_BASENAME, Literal(plr.basename)),
                (node, PLR_HAS_LANGUAGE, Iri(plr.language_iri))]
    triples += [(node, PLR_HAS_STATEMENT, statement) for statement in statements]
    return triples


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
        where = "" if exc.lineno is None else f"line {exc.lineno}: "
        raise RenderError(f"emitted source does not parse: {where}{exc.msg}") from exc
    except ValueError as exc:  # how Python 3.10 rejects a NUL byte
        raise RenderError(f"emitted source does not parse: {exc}") from exc
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
    holds either its old or its new content. Either way the file is made by
    one exclusive create, and `out_dir` is made only when that create finds
    it missing.
    """
    path = os.path.join(out_dir, f"{basename}{language.source_file_extension}")
    data = text.encode("utf-8")
    try:
        if force:
            _replace(path, out_dir, data)
        else:
            try:
                _create(path, out_dir, data)
            except FileExistsError as exc:
                if exc.filename != path:  # not the target but a part of `out_dir`
                    raise
                raise WriteError(f"refusing to overwrite existing file: {Path(path)} (use force)") from None
    except OSError as exc:
        raise WriteError(f"cannot write {Path(path)}: {exc}") from exc
    return Path(path)


_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def _create(path: str, out_dir: Path, data: bytes):
    """Create `path`, which must not exist, holding `data`, making `out_dir`
    only when the create finds it missing; a failed write removes the file."""
    try:
        fd = os.open(path, _CREATE, 0o666)
    except FileNotFoundError:
        os.makedirs(out_dir, exist_ok=True)
        fd = os.open(path, _CREATE, 0o666)
    try:
        view = memoryview(data)
        while view:  # os.write may write only part of what it is given
            view = view[os.write(fd, view):]
    except BaseException:
        os.close(fd)
        os.unlink(path)
        raise
    os.close(fd)


def _replace(path: str, out_dir: Path, data: bytes):
    """Write `data` to a fresh file beside `path` and rename it over `path`."""
    head, name = os.path.split(path)
    temp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    _create(temp, out_dir, data)
    try:
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
