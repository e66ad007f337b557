"""Parser for the structured problem-statement input format.

The surface syntax is a flat sequence of `key = value` entries where a
value is either a single-quoted string or a bracketed list of them.
Whitespace and blank lines between tokens carry no meaning, and a trailing
backslash joins physical lines. Parsing is strict: unknown keys, duplicate
keys, and list/scalar mismatches are errors with positions. The lexer reads
the text in one pass of one pattern into `(kind, text, offset)` tuples and
diagnoses the one offset where the pattern stops short of the end; the line
and column of an error are counted from its offset when it is raised.
"""

from __future__ import annotations

import re
from collections import namedtuple

from graphsynth.errors import (
    DuplicateKeyError,
    MissingKeyError,
    ProblemStatementError,
    TypeMismatchError,
    UnknownKeyError,
    position,
)

LIST_KEYS = {
    "data_source_names",
    "requested_calculations",
    "program_requirements",
    "library_preferences",
}
SCALAR_KEYS = {"programming_language", "program_basename"}

# The input format historically spells the data source key both ways;
# both are accepted and normalized to data_source_names.
_ALIASES = {"data_sources_names": "data_source_names"}

ProblemStatement = namedtuple("ProblemStatement", (
    "data_source_names",  # tuple[str, ...]
    "requested_calculations",  # tuple[str, ...]
    "program_requirements",  # tuple[str, ...]
    "programming_language",  # str
    "program_basename",  # str
    "library_preferences",  # tuple[str, ...]
), defaults=((),))


# One token: trivia (whitespace, and a backslash directly before a line break,
# a line continuation), then a whole string, a punctuation mark or a word. A
# string's body holds no newline and only \' and \\ as escapes. A word starts
# with a letter or underscore; `[^\W\d]` also lets in the few word characters
# that are neither, such as '\u00b2', which the lexer diagnoses. The last,
# empty alternative matches where no token starts: the end of the text or a
# lexer error.
_BODY = r"[^'\\\n]*(?:\\['\\][^'\\\n]*)*"
_TOKEN = re.compile(rf"[ \t\r\n]*(?:\\\r?\n[ \t\r\n]*)*(?:'({_BODY})'|([=\[\],])|([^\W\d]\w*)|)")
_STRING_BODY = re.compile(_BODY)
_ESCAPE = re.compile(r"\\(['\\])")
_KEYS = LIST_KEYS | SCALAR_KEYS
# What a basename may not hold: a path separator or dot (it names a file), and
# whitespace, a control character or a character IRIREF excludes (it is part
# of the program graphs' IRIs).
_BASENAME_EXCLUDED = re.compile(r'[/\\.\s\x00-\x1f\x7f-\x9f<>"{}|^`]')


def _error(text: str, pos: int, message: str) -> ProblemStatementError:
    return ProblemStatementError(message, *position(text, pos))


def _lex_error(text: str, pos: int) -> ProblemStatementError:
    """The error for the text at `pos`, past any trivia, where no token can start."""
    ch = text[pos]
    if ch == "'":
        end = _STRING_BODY.match(text, pos + 1).end()
        if end == len(text):
            return _error(text, pos, "unterminated string")
        if text[end] == "\n":
            return _error(text, end, "newline inside string")
        return _error(text, end, "unknown escape in string")
    if ch == "\\":
        return _error(text, pos, "stray backslash")
    return _error(text, pos, f"unexpected character {ch!r}")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of `text`, read in one pass; kind is IDENT,
    STRING, PUNCT or EOF, and a string's text is its unescaped value."""
    tokens = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 1:
            value = match[1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
            append(("STRING", value, match.start(1) - 1))
        elif group == 2:
            append(("PUNCT", match[2], match.start(2)))
        elif group == 3:
            word = match[3]
            start = match.start(3)
            if not (word[0].isalpha() or word[0] == "_"):
                raise _lex_error(text, start)
            append(("IDENT", word, start))
        else:
            break
    end = match.end()  # the last match holds no token: it ends at the end of the text or at an error
    if end < len(text):
        raise _lex_error(text, end)
    append(("EOF", "", end))
    return tokens


def parse_problem_statement(text: str) -> ProblemStatement:
    """Parse statement text; raises a positioned ProblemStatementError subclass on any flaw."""
    tokens = _tokenize(text)

    def at(offset: int) -> tuple[int, int]:
        return position(text, offset)

    values: dict[str, str | list[str]] = {}
    key_offsets: dict[str, int] = {}
    index = 0
    while tokens[index][0] != "EOF":
        kind, raw_key, offset = tokens[index]
        if kind != "IDENT":
            raise ProblemStatementError(f"expected a key, got {raw_key!r}", *at(offset))
        key = _ALIASES.get(raw_key, raw_key)
        if key not in _KEYS:
            raise UnknownKeyError(raw_key, *at(offset))
        if key in values:
            raise DuplicateKeyError(raw_key, *at(offset))
        key_offsets[key] = offset

        kind, value, offset = tokens[index + 1]
        if kind != "PUNCT" or value != "=":
            raise ProblemStatementError(f"expected '=' after '{raw_key}'", *at(offset))

        kind, value, offset = tokens[index + 2]
        index += 3
        if kind == "STRING":
            if key in LIST_KEYS:
                raise TypeMismatchError(raw_key, "list", "string", *at(offset))
            values[key] = value
        elif kind == "PUNCT" and value == "[":
            if key in SCALAR_KEYS:
                raise TypeMismatchError(raw_key, "string", "list", *at(offset))
            items: list[str] = []
            while True:
                kind, value, offset = tokens[index]
                if kind != "STRING":
                    raise ProblemStatementError(f"expected a string in list, got {value!r}", *at(offset))
                items.append(value)
                kind, value, offset = tokens[index + 1]
                index += 2
                if kind == "PUNCT" and value == ",":
                    continue
                if kind == "PUNCT" and value == "]":
                    break
                raise ProblemStatementError(f"expected ',' or ']' in list, got {value!r}", *at(offset))
            values[key] = items
        else:
            raise ProblemStatementError(f"expected a string or list after '{raw_key} ='", *at(offset))

    for key in ("data_source_names", "requested_calculations", "program_requirements",
                "programming_language", "program_basename"):
        if key not in values:
            raise MissingKeyError(key)

    for key in ("data_source_names", "requested_calculations", "program_requirements"):
        if not values[key]:
            raise ProblemStatementError(f"key '{key}' must list at least one entry", *at(key_offsets[key]))

    basename = values["program_basename"]
    if not basename or _BASENAME_EXCLUDED.search(basename):
        raise ProblemStatementError(
            "program_basename must be non-empty and contain no path separator, dot, whitespace, "
            'control character or any of <>"{}|^`',
            *at(key_offsets["program_basename"]),
        )
    if not values["programming_language"]:
        raise ProblemStatementError("programming_language must be non-empty", *at(key_offsets["programming_language"]))

    return ProblemStatement(
        data_source_names=tuple(values["data_source_names"]),
        requested_calculations=tuple(values["requested_calculations"]),
        program_requirements=tuple(values["program_requirements"]),
        programming_language=values["programming_language"],
        program_basename=basename,
        library_preferences=tuple(values.get("library_preferences", ())),
    )
