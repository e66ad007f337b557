"""Turns a problem statement into a build plan by matching the knowledge base.

Matching is exact and case-sensitive throughout: every string in the
statement must appear in the KB as a label of some entity. Where several
candidates survive, a selection criterion is applied; an unresolved tie is
an error, never a silent guess.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterable, Sequence, TypeVar

from graphsynth import vocab, views
from graphsynth.errors import (
    AmbiguousError,
    IncompatibleError,
    NoAlgorithmError,
    NoDataSourceError,
    NoFunctionError,
    NoLanguageError,
    NoStructureError,
    ResolveError,
)
from graphsynth.problem import ProblemStatement
from graphsynth.quadstore import QuadStore
from graphsynth.views import (
    AlgorithmInfo,
    CodeFunctionInfo,
    DataSourceInfo,
    Kb,
    LanguageInfo,
    ProgramStructureInfo,
)


PlannedCalculation = namedtuple("PlannedCalculation", (
    "label",  # str
    "algorithm",  # AlgorithmInfo
    "function",  # CodeFunctionInfo
))


BuildPlan = namedtuple("BuildPlan", (
    "data_source",  # DataSourceInfo
    "calculations",  # tuple[PlannedCalculation, ...]
    "reader_function",  # CodeFunctionInfo
    "exit_function",  # CodeFunctionInfo
    "structure",  # ProgramStructureInfo
    "language",  # LanguageInfo
    "program_basename",  # str
))


# Lower rank is better; unlisted complexity classes rank worst.
_COMPLEXITY_RANK = {
    "O(1)": 0,
    "O(log n)": 1,
    "O(n)": 2,
    "O(n log n)": 3,
    "O(n^2)": 4,
    "O(n²)": 4,
}
_UNKNOWN_RANK = 99


def _complexity_rank(spec: str) -> int:
    return _COMPLEXITY_RANK.get(spec.strip(), _UNKNOWN_RANK)


T = TypeVar("T")


def select_candidate(
    kind: str,
    candidates: Sequence[T],
    criterion: Callable[[T], int] | None = None,
    describe: Callable[[T], str] = str,
) -> T:
    """Pick one candidate; apply the criterion only when there is a choice to make.

    A surviving tie raises AmbiguousError rather than guessing.
    """
    if not candidates:
        raise ValueError("select_candidate requires at least one candidate")
    if len(candidates) == 1:
        return candidates[0]
    pool = list(candidates)
    if criterion is not None:
        best = min(criterion(c) for c in pool)
        pool = [c for c in pool if criterion(c) == best]
        if len(pool) == 1:
            return pool[0]
    raise AmbiguousError(kind, sorted(describe(c) for c in pool))


def check_compatibility(alg: AlgorithmInfo, ds: DataSourceInfo) -> list[str]:
    """Constraint violations of feeding `ds` into `alg`; empty means compatible."""
    violations = []
    if alg.input_numeric and not ds.value_datatype_numeric:
        violations.append("numeric_input")
    if ds.data_rows * ds.values_per_row < alg.min_input_count:
        violations.append("min_input_count")
    if alg.inputs_same_quantity and ds.quantity_type is None:
        violations.append("same_quantity")
    return violations


def _tag_matches(kb_tag: str, requested: str) -> bool:
    return kb_tag == requested or kb_tag.startswith(requested + ".") or kb_tag.startswith(requested + "-")


def _resolve_language(kb: Kb, tag: str) -> LanguageInfo:
    matches = [lang for lang in kb.languages if _tag_matches(lang.tag, tag)]
    if not matches:
        raise NoLanguageError(tag)
    longest = max(len(lang.tag) for lang in matches)
    most_specific = [lang for lang in matches if len(lang.tag) == longest]
    return select_candidate("language", most_specific, describe=lambda lang: lang.tag)


def _near_miss(labels: Iterable[str], wanted: str) -> str | None:
    """The one of `labels` closest to `wanted`, if any is close."""
    # Imported here: only a failed resolve needs it, and the import costs every cold run.
    import difflib

    matches = difflib.get_close_matches(wanted, sorted(labels), n=1)
    return matches[0] if matches else None


def _functions(kb: Kb, purpose: str, language_family: str, library_pref: str | None) -> list[CodeFunctionInfo]:
    """The functions with `purpose` in `language_family`; with `library_pref`, only that library's."""
    functions = kb.functions_by_purpose.get((purpose, language_family), ())
    return [fn for fn in functions if library_pref in (None, fn.library.official_name)]


def _no_function(
    kb: Kb, what: str, purposes: Iterable[str], language_family: str, library_pref: str | None
) -> NoFunctionError:
    """The error for no function of `purposes`; where the library preference ruled them all out, it says so."""
    others = sorted({fn.library.official_name for purpose in purposes
                     for fn in _functions(kb, purpose, language_family, None)})
    if not others:
        return NoFunctionError(what)
    return NoFunctionError(f"{what} in the preferred library '{library_pref}'; "
                           f"libraries that implement it: {', '.join(others)}")


def _resolve_data_source(kb: Kb, name: str) -> DataSourceInfo:
    sources = kb.data_sources.get(name, ())
    if not sources:
        raise NoDataSourceError(name, _near_miss(kb.data_sources, name))
    return select_candidate("data source", sources, describe=lambda ds: ds.iri)


def _resolve_calculation(
    kb: Kb,
    label: str,
    ds: DataSourceInfo,
    language: LanguageInfo,
    library_pref: str | None,
) -> PlannedCalculation:
    algorithms = kb.algorithms_by_label.get(label, ())
    if not algorithms:
        raise NoAlgorithmError(label, _near_miss(kb.algorithms_by_label, label))
    compatible = []
    all_violations: list[tuple[AlgorithmInfo, list[str]]] = []
    for alg in algorithms:
        violations = check_compatibility(alg, ds)
        if violations:
            all_violations.append((alg, violations))
        else:
            compatible.append(alg)
    if not compatible:
        alg, violations = all_violations[0]
        raise IncompatibleError(alg.name or alg.iri, violations)
    algorithm = select_candidate(
        f"algorithm for '{label}'",
        compatible,
        criterion=lambda a: _complexity_rank(a.time_complexity),
        describe=lambda a: a.name or a.iri,
    )
    functions = _functions(kb, algorithm.iri, language.family, library_pref)
    if not functions:
        raise _no_function(kb, f"implementation of {algorithm.name or algorithm.iri}", [algorithm.iri],
                           language.family, library_pref)
    function = select_candidate(
        f"code function for {algorithm.name}", functions, describe=lambda f: f.qualified_name
    )
    return PlannedCalculation(label=label, algorithm=algorithm, function=function)


def _resolve_reader(kb: Kb, ds: DataSourceInfo, language: LanguageInfo, library_pref: str | None) -> CodeFunctionInfo:
    capabilities = [
        cap
        for cap in kb.read_capabilities
        if cap.format == ds.format and cap.value_datatype == ds.value_datatype and cap.container == ds.container
    ]
    functions = []
    for cap in capabilities:
        functions.extend(_functions(kb, cap.iri, language.family, library_pref))
    if not functions:
        raise _no_function(kb, f"reader for data source {ds.name}", [cap.iri for cap in capabilities],
                           language.family, library_pref)
    return select_candidate("reader function", functions, describe=lambda f: f.qualified_name)


def _resolve_structure(kb: Kb, requirements: tuple[str, ...]) -> ProgramStructureInfo:
    wanted = set(requirements)
    matches = [s for s in kb.structures if wanted <= s.satisfied_requirements]
    if not matches:
        raise NoStructureError(list(requirements))
    return select_candidate("program structure", matches, describe=lambda s: s.name or s.iri)


def resolve(ps: ProblemStatement, store: QuadStore) -> BuildPlan:
    """Match every part of the statement against the store's KB, `views.kb(store)`, and assemble the plan."""
    if len(ps.data_source_names) != 1:
        raise ResolveError("exactly one data source is supported per program")
    if len(ps.library_preferences) > 1:
        raise ResolveError("at most one library preference is supported per program")
    library_pref = ps.library_preferences[0] if ps.library_preferences else None
    kb = views.kb(store)

    language = _resolve_language(kb, ps.programming_language)
    data_source = _resolve_data_source(kb, ps.data_source_names[0])
    calculations = tuple(
        _resolve_calculation(kb, label, data_source, language, library_pref) for label in ps.requested_calculations
    )
    structure = _resolve_structure(kb, ps.program_requirements)
    reader = _resolve_reader(kb, data_source, language, library_pref)

    exit_functions = _functions(kb, vocab.ACTION_PROGRAM_EXIT, language.family, None)
    if not exit_functions:
        raise NoFunctionError("program-exit action")
    exit_function = select_candidate("exit function", exit_functions, describe=lambda f: f.qualified_name)

    return BuildPlan(
        data_source=data_source,
        calculations=calculations,
        reader_function=reader,
        exit_function=exit_function,
        structure=structure,
        language=language,
        program_basename=ps.program_basename,
    )
