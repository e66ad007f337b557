"""Turns a problem statement into a build plan by matching the knowledge base.

Matching is exact and case-sensitive throughout: every string in the
statement must appear in the KB as a label of some entity. Where several
candidates survive, a selection criterion is applied; an unresolved tie is
an error, never a silent guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

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
    LanguageInfo,
    ProgramStructureInfo,
)


@dataclass(frozen=True)
class PlannedCalculation:
    label: str
    algorithm: AlgorithmInfo
    function: CodeFunctionInfo


@dataclass(frozen=True)
class BuildPlan:
    data_source: DataSourceInfo
    calculations: tuple[PlannedCalculation, ...]
    reader_function: CodeFunctionInfo
    exit_function: CodeFunctionInfo
    structure: ProgramStructureInfo
    language: LanguageInfo
    program_basename: str


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


def _resolve_language(store: QuadStore, graph: str, tag: str) -> LanguageInfo:
    matches = [lang for lang in views.view_languages(store, graph) if _tag_matches(lang.tag, tag)]
    if not matches:
        raise NoLanguageError(tag)
    longest = max(len(lang.tag) for lang in matches)
    most_specific = [lang for lang in matches if len(lang.tag) == longest]
    return select_candidate("language", most_specific, describe=lambda lang: lang.tag)


def _resolve_data_source(store: QuadStore, graph: str, name: str) -> DataSourceInfo:
    sources = views.view_data_source(store, name, graph)
    if not sources:
        raise NoDataSourceError(name)
    return select_candidate("data source", sources, describe=lambda ds: ds.iri)


def _resolve_calculation(
    store: QuadStore,
    graph: str,
    label: str,
    ds: DataSourceInfo,
    language: LanguageInfo,
    library_pref: str | None,
) -> PlannedCalculation:
    algorithms = views.view_algorithm_by_label(store, label, graph)
    if not algorithms:
        raise NoAlgorithmError(label)
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
    functions = views.view_code_function(store, algorithm.iri, language.family, library_pref, graph)
    if not functions:
        raise NoFunctionError(f"implementation of {algorithm.name or algorithm.iri}")
    function = select_candidate(
        f"code function for {algorithm.name}", functions, describe=lambda f: f.qualified_name
    )
    return PlannedCalculation(label=label, algorithm=algorithm, function=function)


def _resolve_reader(
    store: QuadStore,
    graph: str,
    ds: DataSourceInfo,
    language: LanguageInfo,
    library_pref: str | None,
) -> CodeFunctionInfo:
    capabilities = [
        cap
        for cap in views.view_read_capabilities(store, graph)
        if cap.format == ds.format and cap.value_datatype == ds.value_datatype and cap.container == ds.container
    ]
    functions = []
    for cap in capabilities:
        functions.extend(views.view_code_function(store, cap.iri, language.family, library_pref, graph))
    if not functions:
        raise NoFunctionError(f"reader for data source {ds.name}")
    return select_candidate("reader function", functions, describe=lambda f: f.qualified_name)


def _resolve_structure(store: QuadStore, graph: str, requirements: tuple[str, ...]) -> ProgramStructureInfo:
    wanted = set(requirements)
    matches = [s for s in views.view_structures(store, graph) if wanted <= s.satisfied_requirements]
    if not matches:
        raise NoStructureError(list(requirements))
    return select_candidate("program structure", matches, describe=lambda s: s.name or s.iri)


def resolve(ps: ProblemStatement, store: QuadStore, graph: str = vocab.CORE_GRAPH) -> BuildPlan:
    """Match every part of the statement against the KB and assemble the plan."""
    if len(ps.data_source_names) != 1:
        raise ResolveError("exactly one data source is supported per program")
    library_pref = ps.library_preferences[0] if ps.library_preferences else None

    language = _resolve_language(store, graph, ps.programming_language)
    data_source = _resolve_data_source(store, graph, ps.data_source_names[0])
    calculations = tuple(
        _resolve_calculation(store, graph, label, data_source, language, library_pref)
        for label in ps.requested_calculations
    )
    structure = _resolve_structure(store, graph, ps.program_requirements)
    reader = _resolve_reader(store, graph, data_source, language, library_pref)

    exit_functions = views.view_code_function(store, vocab.ACTION_PROGRAM_EXIT, language.family, graph=graph)
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
