"""Parser for the structured problem-statement input format.

The surface syntax is a flat sequence of `key = value` entries where a
value is either a single-quoted string or a bracketed list of them.
Whitespace and blank lines between tokens carry no meaning, and a trailing
backslash joins physical lines. Parsing is strict: unknown keys, duplicate
keys, and list/scalar mismatches are errors with positions.
"""

from __future__ import annotations

from typing import NamedTuple

from graphsynth.errors import (
    DuplicateKeyError,
    MissingKeyError,
    ProblemStatementError,
    TypeMismatchError,
    UnknownKeyError,
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

_CANONICAL_ORDER = (
    "data_source_names",
    "requested_calculations",
    "program_requirements",
    "library_preferences",
    "programming_language",
    "program_basename",
)


class ProblemStatement(NamedTuple):
    data_source_names: tuple[str, ...]
    requested_calculations: tuple[str, ...]
    program_requirements: tuple[str, ...]
    programming_language: str
    program_basename: str
    library_preferences: tuple[str, ...] = ()


class _Token(NamedTuple):
    kind: str  # IDENT | STRING | PUNCT | EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, column = 0, 1, 1

    def advance(n: int):
        nonlocal pos, line, column
        for _ in range(n):
            if text[pos] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            pos += 1

    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r\n":
            advance(1)
        elif ch == "\\":
            # Line continuation: backslash directly before the line break.
            rest = text[pos + 1 :]
            if rest.startswith("\r\n"):
                advance(3)
            elif rest.startswith("\n"):
                advance(2)
            else:
                raise ProblemStatementError("stray backslash", line, column)
        elif ch == "'":
            start_line, start_column = line, column
            advance(1)
            out = []
            while True:
                if pos >= len(text):
                    raise ProblemStatementError("unterminated string", start_line, start_column)
                ch = text[pos]
                if ch == "\n":
                    raise ProblemStatementError("newline inside string", line, column)
                if ch == "'":
                    advance(1)
                    break
                if ch == "\\":
                    if pos + 1 < len(text) and text[pos + 1] in ("'", "\\"):
                        out.append(text[pos + 1])
                        advance(2)
                        continue
                    raise ProblemStatementError("unknown escape in string", line, column)
                out.append(ch)
                advance(1)
            tokens.append(_Token("STRING", "".join(out), start_line, start_column))
        elif ch in "=[],":
            tokens.append(_Token("PUNCT", ch, line, column))
            advance(1)
        elif ch.isalpha() or ch == "_":
            start_line, start_column = line, column
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                advance(1)
            tokens.append(_Token("IDENT", text[start:pos], start_line, start_column))
        else:
            raise ProblemStatementError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("EOF", "", line, column))
    return tokens


def parse_problem_statement(text: str) -> ProblemStatement:
    """Parse statement text; raises a positioned ProblemStatementError subclass on any flaw."""
    tokens = _tokenize(text)
    index = 0

    def peek() -> _Token:
        return tokens[index]

    def take() -> _Token:
        nonlocal index
        token = tokens[index]
        index += 1
        return token

    values: dict[str, str | list[str]] = {}
    positions: dict[str, tuple[int, int]] = {}
    while peek().kind != "EOF":
        key_token = take()
        if key_token.kind != "IDENT":
            raise ProblemStatementError(f"expected a key, got {key_token.text!r}", key_token.line, key_token.column)
        raw_key = key_token.text
        key = _ALIASES.get(raw_key, raw_key)
        if key not in LIST_KEYS | SCALAR_KEYS:
            raise UnknownKeyError(raw_key, key_token.line, key_token.column)
        if key in values:
            raise DuplicateKeyError(raw_key, key_token.line, key_token.column)
        positions[key] = (key_token.line, key_token.column)

        eq = take()
        if eq.kind != "PUNCT" or eq.text != "=":
            raise ProblemStatementError(f"expected '=' after '{raw_key}'", eq.line, eq.column)

        value_token = peek()
        if value_token.kind == "STRING":
            take()
            if key in LIST_KEYS:
                raise TypeMismatchError(raw_key, "list", "string", value_token.line, value_token.column)
            values[key] = value_token.text
        elif value_token.kind == "PUNCT" and value_token.text == "[":
            take()
            if key in SCALAR_KEYS:
                raise TypeMismatchError(raw_key, "string", "list", value_token.line, value_token.column)
            items: list[str] = []
            while True:
                item = take()
                if item.kind != "STRING":
                    raise ProblemStatementError(f"expected a string in list, got {item.text!r}", item.line, item.column)
                items.append(item.text)
                sep = take()
                if sep.kind == "PUNCT" and sep.text == ",":
                    continue
                if sep.kind == "PUNCT" and sep.text == "]":
                    break
                raise ProblemStatementError(f"expected ',' or ']' in list, got {sep.text!r}", sep.line, sep.column)
            values[key] = items
        else:
            raise ProblemStatementError(
                f"expected a string or list after '{raw_key} ='", value_token.line, value_token.column
            )

    for key in ("data_source_names", "requested_calculations", "program_requirements",
                "programming_language", "program_basename"):
        if key not in values:
            raise MissingKeyError(key)

    for key in ("data_source_names", "requested_calculations", "program_requirements"):
        if not values[key]:
            raise ProblemStatementError(f"key '{key}' must list at least one entry", *positions[key])

    basename = values["program_basename"]
    if not basename or any(bad in basename for bad in ("/", "\\", ".")):
        raise ProblemStatementError(
            "program_basename must be non-empty and contain no path separators or dots",
            *positions["program_basename"],
        )
    if not values["programming_language"]:
        raise ProblemStatementError("programming_language must be non-empty", *positions["programming_language"])

    return ProblemStatement(
        data_source_names=tuple(values["data_source_names"]),
        requested_calculations=tuple(values["requested_calculations"]),
        program_requirements=tuple(values["program_requirements"]),
        programming_language=values["programming_language"],
        program_basename=basename,
        library_preferences=tuple(values.get("library_preferences", ())),
    )


def _quote(value: str) -> str:
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"


def serialize_problem_statement(ps: ProblemStatement) -> str:
    """Canonical text form; re-parsing it yields an equal statement."""
    lines = []
    for key in _CANONICAL_ORDER:
        value = getattr(ps, key)
        if key == "library_preferences" and not value:
            continue
        if isinstance(value, tuple):
            lines.append(f"{key} = [{', '.join(_quote(v) for v in value)}]")
        else:
            lines.append(f"{key} = {_quote(value)}")
    return "\n".join(lines) + "\n"
