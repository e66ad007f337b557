from __future__ import annotations

import ast
import dataclasses
import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import insert_turtle
from graphsynth import renderer, vocab
from graphsynth.composer import compose
from graphsynth.errors import UnmappableStatementError, UnsupportedLanguageError, WriteError
from graphsynth.problem import parse_problem_statement
from graphsynth.renderer import (
    ImportAliased,
    ImportPlain,
    build_import_statements,
    emit,
    load_plr,
    quote,
    render,
    write_source,
)
from graphsynth.resolver import resolve
from graphsynth.terms import RDF_TYPE, Iri
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
    assert first.variation == "import-aliased"
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


def test_write_source_force_replaces_content_and_leaves_no_temp_file(pipeline, tmp_path):
    _, plan, _, plr = pipeline
    write_source("old\n", plan.program_basename, plan.language, tmp_path)
    path = write_source(emit(plr), plan.program_basename, plan.language, tmp_path, force=True)
    assert path.read_text() == emit(plr)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hello_analytic.py"]


def test_concrete_graph_holds_only_variation_section_order_and_elements(pipeline):
    store, _, _, plr = pipeline
    predicates = {quad.predicate.value for quad in store.quads(plr.graph_iri)}
    assert predicates == {
        RDF_TYPE,
        renderer.PLR_HAS_BASENAME,
        renderer.PLR_HAS_LANGUAGE,
        renderer.PLR_HAS_STATEMENT,
        renderer.PLR_HAS_VARIATION,
        renderer.PLR_IN_SECTION,
        renderer.PLR_HAS_SECTION_INDEX,
        renderer.PLR_HAS_STATEMENT_INDEX,
        renderer.PLR_HAS_ELEMENT_SLOT,
        renderer.PLR_HAS_ELEMENT_INDEX,
        renderer.PLR_HAS_ELEMENT_TEXT,
    }
    assert load_plr(store, plr.graph_iri) == plr


def test_render_emits_the_exit_function_the_plan_chose(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    # A second Python program-exit function, whose IRI sorts before kb:sys_exit.
    insert_turtle(
        kb_store,
        """
        @prefix gs: <http://graphsynth.dev/vocab/core#> .
        @prefix kb: <http://graphsynth.dev/kb/> .
        kb:os a gs:Library ;
            gs:hasOfficialName "os" ;
            gs:hasLibraryKind "standard-library" .
        kb:os_exit a gs:CodeFunction ;
            gs:hasCallableName "_exit" ;
            gs:providedBy kb:os ;
            gs:inLanguage kb:python_family ;
            gs:hasPurpose kb:action_program_exit ;
            gs:hasArgumentSlot kb:os_exit_arg0 .
        kb:os_exit_arg0 a gs:ArgumentSlot ;
            gs:hasSlotIndex 0 ;
            gs:hasSlotRole kb:role_exit_status .
        """,
    )
    assert emit(render(pla, plan.language, kb_store)).splitlines()[-1] == "sys.exit(0)"


@given(st.text(), st.sampled_from(["'", '"']))
def test_quoted_literal_evaluates_to_the_text(value, quote_char):
    assert ast.literal_eval(quote(value, quote_char)) == value
