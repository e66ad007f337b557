from __future__ import annotations


import pytest

from graphsynth import views
from graphsynth.errors import (
    AmbiguousError,
    IncompatibleError,
    NoAlgorithmError,
    NoDataSourceError,
    NoLanguageError,
    NoStructureError,
    ResolveError,
)
from graphsynth.problem import parse_problem_statement
from graphsynth.resolver import check_compatibility, resolve, select_candidate
from graphsynth.views import AlgorithmInfo

from conftest import DIMENSIONLESS_SAMPLE, MYINPUT, TEXT_DATATYPE, insert_turtle

TEST_HEADER = """\
@prefix gs: <http://graphsynth.dev/vocab/core#> .
@prefix kb: <http://graphsynth.dev/kb/> .
@prefix x: <http://t.example/> .
"""


@pytest.fixture()
def exemplar_plan(seed_kb, statement_text):
    store, _ = seed_kb
    return resolve(parse_problem_statement(statement_text), store)


def _alg(name="alg", complexity="O(n)", min_input=2, numeric=True, same_quantity=True):
    return AlgorithmInfo(
        iri=f"http://t.example/{name}",
        name=name,
        output_description_labels=frozenset({"label"}),
        min_input_count=min_input,
        input_numeric=numeric,
        inputs_same_quantity=same_quantity,
        output_arity=1,
        output_quantity="http://t.example/same",
        time_complexity=complexity,
    )


def test_exemplar_statement_resolves_to_expected_plan(exemplar_plan):
    plan = exemplar_plan
    assert plan.data_source.iri == MYINPUT
    assert [(c.label, c.algorithm.name, c.function.qualified_name) for c in plan.calculations] == [
        ("average value", "arithmetic_mean", "numpy.mean"),
        ("average value variation", "standard_deviation", "numpy.std"),
    ]
    assert plan.reader_function.qualified_name == "numpy.loadtxt"
    assert plan.structure.name == "Input_Calculate_Output"
    assert plan.language.tag == "Python-3.8"
    assert plan.language.source_file_extension == ".py"
    assert plan.exit_function.qualified_name == "sys.exit"


def test_plan_preserves_requested_calculation_order(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text)
    swapped = ps._replace(requested_calculations=tuple(reversed(ps.requested_calculations)))
    plan = resolve(swapped, store)
    assert [c.label for c in plan.calculations] == list(swapped.requested_calculations)


def test_resolution_is_deterministic(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text)
    assert resolve(ps, store) == resolve(ps, store)


def test_plan_soundness_recheck(exemplar_plan):
    for calc in exemplar_plan.calculations:
        assert check_compatibility(calc.algorithm, exemplar_plan.data_source) == []


def test_unknown_calculation_label(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text.replace("'average value variation'", "'median'"))
    with pytest.raises(NoAlgorithmError) as exc:
        resolve(ps, store)
    assert exc.value.label == "median"


@pytest.mark.parametrize(
    "old, new, error, suggestion",
    [
        ("'average value'", "'Average value'", NoAlgorithmError, "average value"),
        ("'my_input.txt'", "'my_inputs.txt'", NoDataSourceError, "my_input.txt"),
    ],
)
def test_resolve_errors_name_the_closest_label(seed_kb, statement_text, old, new, error, suggestion):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text.replace(old, new, 1))
    with pytest.raises(error) as exc:
        resolve(ps, store)
    assert str(exc.value).endswith(f"; did you mean '{suggestion}'?")


def test_resolve_error_without_a_close_label_suggests_nothing(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text.replace("'average value variation'", "'median'"))
    with pytest.raises(NoAlgorithmError) as exc:
        resolve(ps, store)
    assert str(exc.value) == "no algorithm matches the requested calculation 'median'"


def test_missing_data_source(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text.replace("my_input.txt", "absent.txt"))
    with pytest.raises(NoDataSourceError):
        resolve(ps, store)


def test_unsatisfiable_requirements(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text.replace("'report result'", "'levitate'"))
    with pytest.raises(NoStructureError):
        resolve(ps, store)


def test_unknown_language_tag(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text.replace("Python-3.8", "Rust-1.70"))
    with pytest.raises(NoLanguageError):
        resolve(ps, store)


def test_multiple_data_sources_are_rejected(seed_kb, statement_text):
    store, _ = seed_kb
    ps = parse_problem_statement(statement_text.replace("['my_input.txt']", "['my_input.txt', 'other.txt']"))
    with pytest.raises(ResolveError):
        resolve(ps, store)


def test_one_row_source_is_incompatible(kb_store, statement_text):
    insert_turtle(
        kb_store,
        TEST_HEADER
        + """\
x:tiny a gs:DataSource ;
    gs:hasName "tiny.txt" ;
    gs:hasContainer kb:file_container ;
    gs:hasFormat kb:csv_format ;
    gs:hasEncoding kb:ascii_encoding ;
    gs:hasValueDatatype kb:floating_point_datatype ;
    gs:hasHeaderRowCount 0 ;
    gs:hasDataRowCount 1 ;
    gs:hasValuesPerRow 1 ;
    gs:hasQuantityKind kb:dimensionless_sample ;
    gs:hasContentKind kb:input_data_content ;
    gs:hasLocation "tiny.txt" .
""",
    )
    ps = parse_problem_statement(statement_text.replace("my_input.txt", "tiny.txt"))
    with pytest.raises(IncompatibleError) as exc:
        resolve(ps, kb_store)
    assert exc.value.algorithm == "arithmetic_mean"
    assert "min_input_count" in exc.value.violations


def test_compatibility_of_exemplar_pairing(seed_kb):
    store, _ = seed_kb
    [ds] = views.kb(store).data_sources["my_input.txt"]
    [alg] = views.kb(store).algorithms_by_label["average value"]
    assert check_compatibility(alg, ds) == []


def test_compatibility_min_input_count_violation(seed_kb):
    store, _ = seed_kb
    [ds] = views.kb(store).data_sources["my_input.txt"]
    small = ds._replace(data_rows=1)
    [alg] = views.kb(store).algorithms_by_label["average value"]
    assert check_compatibility(alg, small) == ["min_input_count"]


def test_compatibility_numeric_violation(seed_kb):
    store, _ = seed_kb
    [ds] = views.kb(store).data_sources["my_input.txt"]
    texty = ds._replace(value_datatype=TEXT_DATATYPE, value_datatype_numeric=False)
    [alg] = views.kb(store).algorithms_by_label["average value"]
    assert "numeric_input" in check_compatibility(alg, texty)


def test_compatibility_same_quantity_violation(seed_kb):
    store, _ = seed_kb
    [ds] = views.kb(store).data_sources["my_input.txt"]
    mixed = ds._replace(quantity_types=(DIMENSIONLESS_SAMPLE, "http://t.example/temperature"))
    [alg] = views.kb(store).algorithms_by_label["average value"]
    assert "same_quantity" in check_compatibility(alg, mixed)


def test_select_candidate_singleton_returned_untouched():
    only = _alg("only")
    assert select_candidate("algorithm", [only]) is only


def test_select_candidate_prefers_lower_complexity():
    fast = _alg("fast", "O(n)")
    slow = _alg("slow", "O(n log n)")
    from graphsynth.resolver import _complexity_rank

    chosen = select_candidate("algorithm", [slow, fast], criterion=lambda a: _complexity_rank(a.time_complexity))
    assert chosen is fast


def test_select_candidate_complexity_rank_ordering():
    from graphsynth.resolver import _complexity_rank

    ranks = [_complexity_rank(c) for c in ("O(1)", "O(log n)", "O(n)", "O(n log n)", "O(n^2)", "O(2^n)")]
    assert ranks == sorted(ranks)
    assert ranks[-1] == 99  # unknown classes rank worst


def test_select_candidate_tie_is_ambiguous():
    from graphsynth.resolver import _complexity_rank

    with pytest.raises(AmbiguousError):
        select_candidate(
            "algorithm",
            [_alg("a", "O(n)"), _alg("b", "O(n)")],
            criterion=lambda a: _complexity_rank(a.time_complexity),
            describe=lambda a: a.name,
        )


def test_language_tag_prefix_matching_prefers_most_specific(kb_store, statement_text):
    insert_turtle(
        kb_store,
        TEST_HEADER
        + """\
x:py31010 a gs:ProgrammingLanguage ;
    gs:hasVersionTag "Python-3.8.10" ;
    gs:inFamily kb:python_family ;
    gs:hasSourceFileExtension ".py" ;
    gs:hasParadigm kb:imperative_paradigm ;
    gs:hasStringLiteralQuote "'" .
""",
    )
    ps = parse_problem_statement(statement_text)
    plan = resolve(ps, kb_store)
    assert plan.language.tag == "Python-3.8.10"


def test_ambiguous_duplicate_data_sources(kb_store, statement_text):
    insert_turtle(
        kb_store,
        TEST_HEADER
        + """x:dup a gs:DataSource ; gs:hasName "my_input.txt" ;
    gs:hasContainer kb:file_container ;
    gs:hasFormat kb:csv_format ;
    gs:hasEncoding kb:ascii_encoding ;
    gs:hasValueDatatype kb:floating_point_datatype ;
    gs:hasHeaderRowCount 0 ;
    gs:hasDataRowCount 6 ;
    gs:hasValuesPerRow 1 ;
    gs:hasQuantityKind kb:dimensionless_sample ;
    gs:hasLocation "dup.txt" .""",
    )
    ps = parse_problem_statement(statement_text)
    with pytest.raises(AmbiguousError):
        resolve(ps, kb_store)
