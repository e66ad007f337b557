from __future__ import annotations

import dataclasses
import random
import string

import pytest

from graphsynth import vocab
from graphsynth.composer import compose
from graphsynth.errors import UnmappableStatementError, UnsupportedLanguageError, WriteError
from graphsynth.problem import parse_problem_statement
from graphsynth.renderer import (
    AssignExpr,
    CallStmt,
    ImportAliased,
    ImportPlain,
    build_import_statements,
    emit,
    load_plr,
    render,
    write_source,
)
from graphsynth.resolver import resolve
from graphsynth.terms import Iri
from graphsynth.views import LibraryInfo


@pytest.fixture()
def pipeline(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    plr = render(pla, plan.language, kb_store)
    return kb_store, plan, pla, plr


def _lib(name, alias=None):
    return LibraryInfo(iri=f"http://t.example/{name}", official_name=name, alias=alias, kind="external-package")


def test_exemplar_emits_the_golden_source(pipeline, golden_source):
    *_, plr = pipeline
    assert emit(plr) == golden_source


def test_statement_lines_match_the_listing(pipeline):
    *_, plr = pipeline
    lines = emit(plr).splitlines()
    assert lines[0] == "import numpy as np"
    assert lines[6] == "print('mean = ',mean)"
    assert lines[8] == "sys.exit(0)"


def test_blank_line_style_inserts_one_empty_line_between_sections(pipeline, golden_source):
    *_, plr = pipeline
    styled = emit(plr, blank_lines_between_sections=True)
    assert styled.replace("\n\n", "\n") == golden_source
    assert styled.count("\n\n") == 4  # four section boundaries


def test_emitted_source_is_valid_python(pipeline):
    *_, plr = pipeline
    compile(emit(plr), "<emitted>", "exec")


def test_empty_program_emits_empty_text(pipeline):
    _, _, _, plr = pipeline
    hollow = dataclasses.replace(plr, sections=tuple((name, ()) for name, _ in plr.sections))
    assert emit(hollow) == ""


def test_section_emission_order_is_fixed(pipeline):
    *_, plr = pipeline
    assert [name for name, _ in plr.sections] == list(vocab.EMISSION_ORDER)


def test_concrete_statements_carry_variation_elements_and_order(pipeline):
    *_, plr = pipeline
    first = plr.sections[0][1][0]
    assert first.statement == ImportAliased("numpy", "np")
    assert first.elements == ("import ", "numpy", " as ", "np")
    assert first.text() == "import numpy as np"


def test_render_does_not_mutate_the_abstract_graph(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    before = kb_store.graph_quads(pla.graph_iri)
    render(pla, plan.language, kb_store)
    assert kb_store.graph_quads(pla.graph_iri) == before


def test_render_is_deterministic(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    other = kb_store.clone()
    plr_a = render(compose(plan, kb_store), plan.language, kb_store)
    plr_b = render(compose(plan, other), plan.language, other)
    assert kb_store.graph_quads(plr_a.graph_iri) == other.graph_quads(plr_b.graph_iri)
    assert emit(plr_a) == emit(plr_b)


def test_load_plr_round_trips_and_emits_identically(pipeline):
    store, _, _, plr = pipeline
    walked = load_plr(store, plr.graph_iri)
    assert walked == plr
    assert emit(walked) == emit(plr)


def test_unsupported_language_family(pipeline):
    store, plan, pla, _ = pipeline
    alien = dataclasses.replace(plan.language, family="Fortran")
    with pytest.raises(UnsupportedLanguageError):
        render(pla, alien, store, graph_iri="http://t.example/other-plr")


def test_missing_statement_form_is_unmappable(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    # Strip the aliased-import form from the KB so numpy cannot be rendered.
    for quad in list(kb_store.quads(vocab.CORE_GRAPH)):
        if quad.subject == Iri(vocab.kb("py_import_aliased")):
            kb_store.remove(quad)
    with pytest.raises(UnmappableStatementError):
        render(pla, plan.language, kb_store)


def test_import_statements_for_exemplar_library_set():
    statements = build_import_statements([_lib("numpy", "np"), _lib("sys")])
    assert statements == [ImportAliased("numpy", "np"), ImportPlain("sys")]


def test_import_statements_empty_set():
    assert build_import_statements([]) == []


def test_import_statements_sort_by_official_name():
    libs = [_lib("zlib"), _lib("abc"), _lib("os")]
    assert [s.official_name for s in build_import_statements(libs)] == sorted(["zlib", "abc", "os"])


def test_import_statements_sorted_for_random_library_sets():
    rng = random.Random(99)
    for _ in range(200):
        names = {
            "".join(rng.choices(string.ascii_lowercase + "._", k=rng.randint(1, 10)))
            for _ in range(rng.randint(0, 12))
        }
        libs = [_lib(name, "a" if rng.random() < 0.4 else None) for name in names]
        ordered = [s.official_name for s in build_import_statements(libs)]
        assert ordered == sorted(ordered, key=lambda n: n.encode("utf-8"))


def test_write_source_appends_language_extension(pipeline, tmp_path):
    _, plan, _, plr = pipeline
    path = write_source(emit(plr), plan.program_basename, plan.language, tmp_path)
    assert path.name == "hello_analytic.py"
    assert path.read_text() == emit(plr)


def test_write_source_refuses_overwrite_without_force(pipeline, tmp_path):
    _, plan, _, plr = pipeline
    write_source(emit(plr), plan.program_basename, plan.language, tmp_path)
    with pytest.raises(WriteError):
        write_source(emit(plr), plan.program_basename, plan.language, tmp_path)
    write_source("", plan.program_basename, plan.language, tmp_path, force=True)
    assert (tmp_path / "hello_analytic.py").read_text() == ""


def test_call_arguments_with_commas_reconstruct_exactly():
    from graphsynth.renderer import _statement_from_fields

    original = CallStmt("print", ("'a, b = '", "value"))
    assert _statement_from_fields(original.variation, original.fields()) == original


def test_concrete_fields_round_trip_through_graph(pipeline):
    store, _, _, plr = pipeline
    walked = load_plr(store, plr.graph_iri)
    statements = [placed.statement for placed in walked.all_statements()]
    assert AssignExpr("input_data_filename", "'my_input.txt'") in statements
    assert CallStmt("print", ("'mean = '", "mean")) in statements
    assert CallStmt("sys.exit", ("0",)) in statements
