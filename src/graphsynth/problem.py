"""Parser for the structured problem-statement input format.

The surface syntax is a flat sequence of `key = value` entries where a
value is either a single-quoted string or a bracketed list of them.
Whitespace and blank lines between tokens carry no meaning, and a trailing
backslash joins physical lines. Parsing is strict: unknown keys, duplicate
keys, and list/scalar mismatches are errors with positions. Tokens keep
only their offsets; the line and column of an error are counted from its
offset when it is raised.
"""

from __future__ import annotations

import re
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

class ProblemStatement(NamedTuple):
    data_source_names: tuple[str, ...]
    requested_calculations: tuple[str, ...]
    program_requirements: tuple[str, ...]
    programming_language: str
    program_basename: str
    library_preferences: tuple[str, ...] = ()


class _Token(NamedTuple):
    kind: str  # IDENT | STRING | PUNCT | EOF
    text: str  # a string's value, else the source text
    pos: int  # offset of the token's first character


# Whitespace, and a backslash directly before a line break (a line continuation).
_TRIVIA = re.compile(r"[ \t\r\n]*(?:\\\r?\n[ \t\r\n]*)*")
# A string's body up to its closing quote: no newline, and only \' and \\ as escapes.
_STRING_BODY = re.compile(r"[^'\\\n]*(?:\\['\\][^'\\\n]*)*")
_ESCAPE = re.compile(r"\\(['\\])")
_WORD = re.compile(r"\w+")
# What a basename may not hold: a path separator or dot (it names a file), and
# whitespace, a control character or a character IRIREF excludes (it is part
# of the program graphs' IRIs).
_BASENAME_EXCLUDED = re.compile(r'[/\\.\s\x00-\x1f\x7f-\x9f<>"{}|^`]')


def _position(text: str, pos: int) -> tuple[int, int]:
    """The line and column of offset `pos`, counted only when an error needs them."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _error(text: str, pos: int, message: str) -> ProblemStatementError:
    return ProblemStatementError(message, *_position(text, pos))


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, each with only its offset."""
    tokens: list[_Token] = []
    pos = _TRIVIA.match(text).end()
    while pos < len(text):
        ch = text[pos]
        if ch == "'":
            end = _STRING_BODY.match(text, pos + 1).end()
            if end == len(text):
                raise _error(text, pos, "unterminated string")
            if text[end] == "\n":
                raise _error(text, end, "newline inside string")
            if text[end] == "\\":
                raise _error(text, end, "unknown escape in string")
            tokens.append(_Token("STRING", _ESCAPE.sub(r"\1", text[pos + 1 : end]), pos))
            end += 1
        elif ch in "=[],":
            tokens.append(_Token("PUNCT", ch, pos))
            end = pos + 1
        elif ch.isalpha() or ch == "_":
            end = _WORD.match(text, pos).end()
            tokens.append(_Token("IDENT", text[pos:end], pos))
        elif ch == "\\":
            raise _error(text, pos, "stray backslash")
        else:
            raise _error(text, pos, f"unexpected character {ch!r}")
        pos = _TRIVIA.match(text, end).end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


def parse_problem_statement(text: str) -> ProblemStatement:
    """Parse statement text; raises a positioned ProblemStatementError subclass on any flaw."""
    tokens = _tokenize(text)
    index = 0

    def at(token: _Token) -> tuple[int, int]:
        return _position(text, token.pos)

    def peek() -> _Token:
        return tokens[index]

    def take() -> _Token:
        nonlocal index
        token = tokens[index]
        index += 1
        return token

    values: dict[str, str | list[str]] = {}
    keys: dict[str, _Token] = {}
    while peek().kind != "EOF":
        key_token = take()
        if key_token.kind != "IDENT":
            raise ProblemStatementError(f"expected a key, got {key_token.text!r}", *at(key_token))
        raw_key = key_token.text
        key = _ALIASES.get(raw_key, raw_key)
        if key not in LIST_KEYS | SCALAR_KEYS:
            raise UnknownKeyError(raw_key, *at(key_token))
        if key in values:
            raise DuplicateKeyError(raw_key, *at(key_token))
        keys[key] = key_token

        eq = take()
        if eq.kind != "PUNCT" or eq.text != "=":
            raise ProblemStatementError(f"expected '=' after '{raw_key}'", *at(eq))

        value_token = peek()
        if value_token.kind == "STRING":
            take()
            if key in LIST_KEYS:
                raise TypeMismatchError(raw_key, "list", "string", *at(value_token))
            values[key] = value_token.text
        elif value_token.kind == "PUNCT" and value_token.text == "[":
            take()
            if key in SCALAR_KEYS:
                raise TypeMismatchError(raw_key, "string", "list", *at(value_token))
            items: list[str] = []
            while True:
                item = take()
                if item.kind != "STRING":
                    raise ProblemStatementError(f"expected a string in list, got {item.text!r}", *at(item))
                items.append(item.text)
                sep = take()
                if sep.kind == "PUNCT" and sep.text == ",":
                    continue
                if sep.kind == "PUNCT" and sep.text == "]":
                    break
                raise ProblemStatementError(f"expected ',' or ']' in list, got {sep.text!r}", *at(sep))
            values[key] = items
        else:
            raise ProblemStatementError(
                f"expected a string or list after '{raw_key} ='", *at(value_token)
            )

    for key in ("data_source_names", "requested_calculations", "program_requirements",
                "programming_language", "program_basename"):
        if key not in values:
            raise MissingKeyError(key)

    for key in ("data_source_names", "requested_calculations", "program_requirements"):
        if not values[key]:
            raise ProblemStatementError(f"key '{key}' must list at least one entry", *at(keys[key]))

    basename = values["program_basename"]
    if not basename or _BASENAME_EXCLUDED.search(basename):
        raise ProblemStatementError(
            "program_basename must be non-empty and contain no path separator, dot, whitespace, "
            'control character or any of <>"{}|^`',
            *at(keys["program_basename"]),
        )
    if not values["programming_language"]:
        raise ProblemStatementError("programming_language must be non-empty", *at(keys["programming_language"]))

    return ProblemStatement(
        data_source_names=tuple(values["data_source_names"]),
        requested_calculations=tuple(values["requested_calculations"]),
        program_requirements=tuple(values["program_requirements"]),
        programming_language=values["programming_language"],
        program_basename=basename,
        library_preferences=tuple(values.get("library_preferences", ())),
    )
