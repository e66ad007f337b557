"""Exception types shared across the pipeline stages."""

from __future__ import annotations


class GraphSynthError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GraphSynthError):
    """A command's input that names no usable file, directory or query term."""


class MalformedTermError(GraphSynthError):
    pass


class MalformedQuadError(GraphSynthError):
    pass


class PositionedError(GraphSynthError):
    """A diagnostic anchored to a line/column in some source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}" if column is not None else f"{line}: {message}"
        super().__init__(message)


def position(text: str, offset: int) -> tuple[int, int]:
    """The line and column, each counted from 1, of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class TurtleParseError(PositionedError):
    pass


class CatalogError(GraphSynthError):
    pass


class ImportResolutionError(GraphSynthError):
    pass


class KbFileError(GraphSynthError):
    """A KB file that cannot be read, or is no UTF-8 text or no valid Turtle; the message leads with its path."""


class KbValidationError(GraphSynthError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("knowledge base failed validation:\n" + "\n".join(f"  - {p}" for p in problems))


class ProblemStatementError(PositionedError):
    pass


class MissingKeyError(ProblemStatementError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing required key '{key}'")


class UnknownKeyError(ProblemStatementError):
    def __init__(self, key: str, line: int | None = None, column: int | None = None):
        self.key = key
        super().__init__(f"unknown key '{key}'", line, column)


class DuplicateKeyError(ProblemStatementError):
    def __init__(self, key: str, line: int | None = None, column: int | None = None):
        self.key = key
        super().__init__(f"duplicate key '{key}'", line, column)


class TypeMismatchError(ProblemStatementError):
    def __init__(self, key: str, expected: str, got: str, line: int | None = None, column: int | None = None):
        self.key = key
        super().__init__(f"key '{key}' expects a {expected}, got a {got}", line, column)


class ResolveError(GraphSynthError):
    pass


def _did_you_mean(near_miss: str | None) -> str:
    return f"; did you mean '{near_miss}'?" if near_miss is not None else ""


class NoDataSourceError(ResolveError):
    def __init__(self, name: str, near_miss: str | None):
        self.name = name
        super().__init__(f"no data source named '{name}' in the knowledge base" + _did_you_mean(near_miss))


class NoAlgorithmError(ResolveError):
    def __init__(self, label: str, near_miss: str | None):
        self.label = label
        super().__init__(f"no algorithm matches the requested calculation '{label}'" + _did_you_mean(near_miss))


class IncompatibleError(ResolveError):
    def __init__(self, algorithm: str, violations: list[str]):
        self.algorithm = algorithm
        self.violations = list(violations)
        super().__init__(f"algorithm '{algorithm}' is incompatible with the data source: {', '.join(violations)}")


class NoStructureError(ResolveError):
    def __init__(self, requirements: list[str]):
        self.requirements = list(requirements)
        super().__init__(f"no program structure satisfies the requirements {requirements}")


class NoLanguageError(ResolveError):
    def __init__(self, tag: str):
        self.tag = tag
        super().__init__(f"no known programming language matches the tag '{tag}'")


class NoFunctionError(ResolveError):
    def __init__(self, purpose: str):
        self.purpose = purpose
        super().__init__(f"no code function found for purpose {purpose}")


class AmbiguousError(ResolveError):
    def __init__(self, kind: str, candidates: list[str]):
        self.kind = kind
        self.candidates = list(candidates)
        super().__init__(f"ambiguous {kind}: cannot choose among {candidates}")


class ComposeError(GraphSynthError):
    pass


class UnnamedVariableError(ComposeError):
    def __init__(self, context: str):
        super().__init__(f"no naming pattern applies: {context}")


class RenderError(GraphSynthError):
    pass


class UnsupportedLanguageError(RenderError):
    def __init__(self, family: str):
        self.family = family
        super().__init__(f"no rendering support for language family '{family}'")


class UnmappableStatementError(RenderError):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(f"no concrete statement form for '{kind}'")


class WriteError(GraphSynthError):
    pass


class ExecCheckError(GraphSynthError):
    """An emitted program that fails to run, or whose report lines do not match its calculations."""
