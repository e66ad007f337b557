from __future__ import annotations

import ast
import errno
import os
import random
import re
import stat
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import NUMPY_MEAN, STATEMENT_VARIANTS, edited, insert_turtle, variant_plan
from oracles import encode, load_pla, load_plr, pla_nodes, plr_nodes
from graphsynth import renderer, views, vocab
from graphsynth.composer import AssignCall, compose, import_order
from graphsynth.errors import (
    ComposeError,
    KbValidationError,
    MalformedTermError,
    RenderError,
    UnmappableStatementError,
    UnsupportedLanguageError,
    WriteError,
)
from graphsynth.problem import parse_problem_statement
from graphsynth.renderer import (
    emit,
    import_statement,
    quote,
    render,
    write_source,
)
from graphsynth.resolver import resolve
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.terms import RDF_TYPE, Blank, Iri, Literal
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
    hollow = plr._replace(sections=tuple((name, ()) for name, _ in plr.sections))
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
    before = set(kb_store.quads(pla.graph_iri))
    render(pla, plan.language, kb_store)
    assert set(kb_store.quads(pla.graph_iri)) == before


def test_render_is_deterministic(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    other = kb_store.clone()
    plr_a = render(compose(plan, kb_store), plan.language, kb_store)
    plr_b = render(compose(plan, other), plan.language, other)
    assert set(kb_store.quads(plr_a.graph_iri)) == set(other.quads(plr_b.graph_iri))
    assert emit(plr_a) == emit(plr_b)


def test_rendering_into_a_non_empty_graph_is_refused_and_writes_nothing(pipeline):
    store, plan, pla, plr = pipeline
    quads = store.graph_size(plr.graph_iri)
    with pytest.raises(RenderError, match=f"^target graph is not empty: {re.escape(plr.graph_iri)}$"):
        render(pla, plan.language, store)
    assert store.graph_size(plr.graph_iri) == quads
    assert load_plr(store, plr.graph_iri) == plr


def test_load_plr_round_trips_and_emits_identically(pipeline):
    store, _, _, plr = pipeline
    walked = load_plr(store, plr.graph_iri)
    assert walked == plr
    assert emit(walked) == emit(plr)


@pytest.mark.parametrize("variant", STATEMENT_VARIANTS)
def test_load_plr_round_trips_and_emits_identically_for_every_statement_variant(kb_store, variant):
    plan = variant_plan(kb_store, variant)
    pla = compose(plan, kb_store)
    plr = render(pla, plan.language, kb_store)
    walked = load_plr(kb_store, plr.graph_iri)
    assert walked == plr
    assert emit(walked) == emit(plr)


# The graphs each QuadStore read names, from its arguments.
_READ_GRAPHS = {
    "row": lambda subject, graph: [graph],
    "subjects": lambda predicate, object, graph: [graph],
    "match_pattern": lambda pattern: [pattern.graph],
    "query_bgp": lambda patterns: [pattern.graph for pattern in patterns],
}


def test_compose_and_render_read_nothing_back_and_look_up_no_function(kb_store, statement_text, monkeypatch):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    read_graphs = []

    def counting(name, method):
        def wrapper(store, *args):
            args = [list(arg) if name == "query_bgp" else arg for arg in args]
            read_graphs.extend(_READ_GRAPHS[name](*args))
            return method(store, *args)

        return wrapper

    for name in _READ_GRAPHS:
        monkeypatch.setattr(QuadStore, name, counting(name, getattr(QuadStore, name)))
    pla = compose(plan, kb_store)
    plr = render(pla, plan.language, kb_store)
    # The KB snapshot is current, so the stages read nothing from the store at all.
    assert read_graphs == []
    # One inert core quad makes the snapshot stale: the next `views.kb` compiles the core graph again.
    kb_store.insert(Quad(Iri("http://t.example/inert"), Iri("http://t.example/note"), Literal("x"), vocab.CORE_GRAPH))
    again = compose(plan._replace(program_basename="again"), kb_store)
    again_plr = render(again, plan.language, kb_store)
    monkeypatch.undo()
    assert read_graphs and vocab.CORE_GRAPH in read_graphs
    program_graphs = (pla.graph_iri, plr.graph_iri, again.graph_iri, again_plr.graph_iri)
    assert [graph for graph in read_graphs if graph in program_graphs] == []


def test_each_callee_is_the_function_the_program_carries(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    # A callee the KB does not hold under that name: only the statement's own record can supply it.
    def carried(placed):
        statement = placed.statement
        if not isinstance(statement, AssignCall) or statement.function.iri != NUMPY_MEAN:
            return placed
        return placed._replace(statement=statement._replace(function=statement.function._replace(
            callable_name="average")))
    sections = tuple(section._replace(statements=tuple(map(carried, section.statements))) for section in pla.sections)
    lines = emit(render(pla._replace(sections=sections), plan.language, kb_store)).splitlines()
    assert "mean = np.average(input_data)" in lines
    assert "mean = np.mean(input_data)" not in lines


def _state(store):
    """Each graph of the store with its quads."""
    return {graph: set(store.quads(graph)) for graph in store.graph_names()}


def _statement_target(pla, target):
    """`pla` with the target of its first Input statement replaced by `target`."""
    def changed(section):
        if section.name != vocab.SECTION_INPUT:
            return section
        first, *rest = section.statements
        return section._replace(statements=(first._replace(statement=first.statement._replace(target=target)), *rest))
    return pla._replace(sections=tuple(map(changed, pla.sections)))


def _exit_function(plan, **change):
    return plan._replace(exit_function=plan.exit_function._replace(**change))


# (stage, change): a compose case changes the plan, a render case the
# abstract program or the language. Each puts a value of the wrong type, or
# an IRI with whitespace, where the program graph needs a term.
_MALFORMED_RECORDS = {
    # An int where the literal's value, a string, belongs.
    "compose-int-literal-value": ("compose", lambda plan, pla: (plan._replace(
        data_source=plan.data_source._replace(name=5)), None)),
    "compose-int-function-iri": ("compose", lambda plan, pla: (_exit_function(plan, iri=5), None)),
    "compose-whitespace-function-iri": ("compose", lambda plan, pla: (
        _exit_function(plan, iri="http://t.example/an exit"), None)),
    "compose-int-library-iri": ("compose", lambda plan, pla: (_exit_function(
        plan, library=plan.exit_function.library._replace(iri=5)), None)),
    # The program node's structure, the last triple the composer builds.
    "compose-int-structure-iri": ("compose", lambda plan, pla: (plan._replace(
        structure=plan.structure._replace(iri=5)), None)),
    "render-int-target": ("render", lambda plan, pla: (plan, _statement_target(pla, 5))),
    "render-whitespace-graph": ("render", lambda plan, pla: (plan, pla._replace(basename="hello analytic"))),
    # The program node's language, the last triple the renderer builds.
    "render-int-language-iri": ("render", lambda plan, pla: (plan._replace(
        language=plan.language._replace(iri=5)), pla)),
}


@pytest.mark.parametrize("case", _MALFORMED_RECORDS)
def test_a_record_value_of_the_wrong_type_raises_and_writes_no_program_graph(kb_store, statement_text, case):
    stage, change = _MALFORMED_RECORDS[case]
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store) if stage == "render" else None
    plan, pla = change(plan, pla)
    graph = (vocab.program_graph_iri(plan.program_basename, "pla") if stage == "compose"
             else vocab.program_graph_iri(pla.basename, "plr"))
    before = _state(kb_store)
    with pytest.raises(MalformedTermError):
        compose(plan, kb_store) if stage == "compose" else render(pla, plan.language, kb_store)
    # Every term is built before the store is touched: no graph gained a quad.
    assert _state(kb_store) == before and graph not in kb_store.graph_names()


_NODE = Iri("http://t.example/node")
_LINK = ("link", Iri("http://t.example/link"), views.NODE, 1, 1)


@pytest.mark.parametrize("link", [_NODE, Blank("b")], ids=["iri", "blank-node"])
def test_a_link_reads_back_as_the_term_stored(link):
    store, graph = QuadStore(), "http://t.example/g"
    store.insert(Quad(_NODE, _LINK[1], link, graph))
    problems = []
    assert views.read(store, graph, (_LINK,), _NODE, problems, {}) == {"link": link}
    assert problems == []


def test_read_returns_the_well_formed_fields_and_appends_one_problem_per_fault():
    store, graph = QuadStore(), "http://t.example/g"
    name = ("name", Iri("http://t.example/name"), views.STR, 1, 1)
    count = ("count", Iri("http://t.example/count"), views.INT, 1, 1)
    tags = ("tags", Iri("http://t.example/tag"), views.STR, 1, views.MANY)
    store.insert(Quad(_NODE, name[1], Literal("n"), graph))
    store.insert(Quad(_NODE, _LINK[1], _NODE, graph))
    store.insert(Quad(_NODE, count[1], Literal("x"), graph))
    problems = ["an earlier problem"]
    assert views.read(store, graph, (name, count, tags, _LINK), _NODE, problems, {}) == {"name": "n", "link": _NODE}
    assert problems == [
        "an earlier problem",
        '<http://t.example/node> <http://t.example/count>: expected an integer literal, found "x"',
        "<http://t.example/node> <http://t.example/tag>: expected at least 1 value, found 0",
    ]


@pytest.mark.parametrize("variant", ["example", *STATEMENT_VARIANTS])
def test_compose_and_render_write_the_quads_the_field_table_encoder_makes(kb_store, statement_text, variant):
    plan = (resolve(parse_problem_statement(statement_text), kb_store) if variant == "example"
            else variant_plan(kb_store, variant))
    pla = compose(plan, kb_store)
    plr = render(pla, plan.language, kb_store)
    reference = QuadStore()
    encode(reference, pla.graph_iri, pla_nodes(pla))
    encode(reference, plr.graph_iri, plr_nodes(plr))
    for graph in (pla.graph_iri, plr.graph_iri):
        assert set(kb_store.quads(graph)) == set(reference.quads(graph))
        assert kb_store.graph_size(graph) == reference.graph_size(graph) > 0


@pytest.mark.parametrize("variant", ["example", *STATEMENT_VARIANTS])
def test_writers_store_the_same_graphs_and_tables_as_validated_inserts(kb_store, statement_text, variant):
    plan = (resolve(parse_problem_statement(statement_text), kb_store) if variant == "example"
            else variant_plan(kb_store, variant))
    pla = compose(plan, kb_store)
    plr = render(pla, plan.language, kb_store)
    replay = QuadStore()
    for graph in (pla.graph_iri, plr.graph_iri):
        # `quads` rebuilds each stored quad through the validating `Quad` constructor.
        for quad in kb_store.quads(graph):
            assert replay.insert(quad)
        assert set(replay.quads(graph)) == set(kb_store.quads(graph))
        assert replay.graph_size(graph) == kb_store.graph_size(graph) > 0
        assert replay._spo[graph] == kb_store._spo[graph] and replay._pos[graph] == kb_store._pos[graph]
        program = Iri(pla.program_iri if graph == pla.graph_iri else plr.program_iri)
        program_class = kb_store.row(program, graph)[Iri(RDF_TYPE)]
        pattern = Pattern(Var("s"), Var("p"), program_class[0], graph)
        assert replay.match_pattern(pattern) == kb_store.match_pattern(pattern) == [{"s": program, "p": Iri(RDF_TYPE)}]


@pytest.mark.parametrize("variant", ["example", *STATEMENT_VARIANTS])
def test_compose_and_render_each_write_their_graph_in_one_store_write(kb_store, statement_text, variant, monkeypatch):
    plan = (resolve(parse_problem_statement(statement_text), kb_store) if variant == "example"
            else variant_plan(kb_store, variant))
    written = []
    add_all = QuadStore._add_all
    monkeypatch.setattr(QuadStore, "_add_all", lambda store, graph, triples: written.append(graph) or add_all(
        store, graph, triples))
    pla = compose(plan, kb_store)
    assert written == [pla.graph_iri]
    plr = render(pla, plan.language, kb_store)
    assert written == [pla.graph_iri, plr.graph_iri]
    if variant == "example":
        assert (kb_store.graph_size(pla.graph_iri), kb_store.graph_size(plr.graph_iri)) == (101, 147)


_SLOT_FIELD, _SLOT_TEXT = Iri(vocab.HAS_SLOT_FIELD), Iri(vocab.HAS_SLOT_TEXT)


_FIELDS = "expected the fields of"
_ONE_OF = "expected exactly one of gs:hasSlotText and gs:hasSlotField"


@pytest.mark.parametrize(
    "slot, predicate, old, new, problems",
    [
        # Each edit, filled, would emit `import np as np`, `print(print)` and `sys.exit(sys.exit)`,
        # `input_data = input_data`, or drop a slot's text or field.
        ("py_import_aliased_s1", _SLOT_FIELD, "official_name", "alias",
         [f"kb:py_import_aliased gs:hasTemplateSlot: field slots ['alias', 'alias'], "
          f"{_FIELDS} import-aliased: ['official_name', 'alias']"]),
        ("py_call_stmt_s2", _SLOT_FIELD, "arguments", "callee",
         [f"kb:py_call_stmt gs:hasTemplateSlot: field slots ['callee', 'callee'], "
          f"{_FIELDS} call-stmt: ['callee', 'arguments']"]),
        ("py_assign_expr_s2", _SLOT_FIELD, "expression", "target",
         [f"kb:py_assign_expr gs:hasTemplateSlot: field slots ['target', 'target'], "
          f"{_FIELDS} assign-expr: ['target', 'expression']"]),
        ("py_assign_expr_s0", _SLOT_TEXT, None, "x", [f"kb:py_assign_expr_s0: {_ONE_OF}, found both"]),
        ("py_assign_expr_s0", _SLOT_FIELD, "target", None,
         [f"kb:py_assign_expr_s0: {_ONE_OF}, found neither",
          f"kb:py_assign_expr gs:hasTemplateSlot: field slots ['expression'], "
          f"{_FIELDS} assign-expr: ['target', 'expression']"]),
    ],
    ids=["alias-twice", "callee-twice", "target-twice", "text-and-field", "neither"],
)
def test_a_form_that_does_not_fill_exactly_its_variations_fields_is_a_kb_problem(
    kb_store, slot, predicate, old, new, problems
):
    node = Iri(vocab.kb(slot))
    drop = [] if old is None else [Quad(node, predicate, Literal(old), vocab.CORE_GRAPH)]
    assert all(quad in kb_store for quad in drop)
    add = [] if new is None else [Quad(node, predicate, Literal(new), vocab.CORE_GRAPH)]
    kb_store = edited(kb_store, drop, add)
    assert views.check_kb(kb_store) == problems
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == problems


_TOKEN = "kb:py_import_aliased gs:hasTemplateSlot: field"


@pytest.mark.parametrize(
    "slot, old, new, problems",
    [
        # Filled, each would emit `import numpynpnp`, `expressionsys` or `import numpy as xnp`.
        ("py_import_aliased_s2", " as ", "np",
         [f'{_TOKEN} official_name is followed by a word character in slot text "np"',
          f'{_TOKEN} alias is preceded by a word character in slot text "np"']),
        ("py_import_plain_s0", "import ", "expression",
         ['kb:py_import_plain gs:hasTemplateSlot: field official_name is preceded by a word character in slot text '
          '"expression"']),
        ("py_import_aliased_s2", " as ", " as x", [f'{_TOKEN} alias is preceded by a word character in slot text " as x"']),
        # An empty text renders as nothing, so the two fills would run together.
        ("py_assign_expr_s1", " = ", "",
         ["kb:py_assign_expr gs:hasTemplateSlot: field slots target and expression are adjacent, "
          "with no slot text between them"]),
    ],
    ids=["as-np", "import-expression", "as-x", "empty-text"],
)
def test_a_form_whose_field_fill_would_not_stand_as_a_token_is_a_kb_problem(kb_store, slot, old, new, problems):
    node = Iri(vocab.kb(slot))
    dropped = Quad(node, _SLOT_TEXT, Literal(old), vocab.CORE_GRAPH)
    assert dropped in kb_store
    kb_store = edited(kb_store, [dropped], [Quad(node, _SLOT_TEXT, Literal(new), vocab.CORE_GRAPH)])
    assert views.check_kb(kb_store) == problems
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == problems


def test_a_form_of_a_variation_the_renderer_never_fills_is_not_checked_against_the_table(kb_store):
    insert_turtle(kb_store, """
        @prefix gs: <http://graphsynth.dev/vocab/core#> .
        @prefix x: <http://t.example/> .
        x:form a gs:StatementForm ; gs:hasVariationId "pass-stmt" ; gs:forLanguageFamily "Python" ;
            gs:hasTemplateSlot x:s0 .
        x:s0 a gs:TemplateSlot ; gs:hasSlotIndex 0 ; gs:hasSlotField "anything" .
    """)
    assert "pass-stmt" not in vocab.VARIATION_FIELDS
    assert views.check_kb(kb_store) == []


def test_a_synthesis_adds_only_its_two_program_graphs_and_the_kb_alone_allows_the_same_synthesis(pipeline, seed_kb):
    store, plan, pla, plr = pipeline
    pla_quads, plr_quads = set(store.quads(pla.graph_iri)), set(store.quads(plr.graph_iri))
    assert len(pla_quads) > 0 and len(plr_quads) > 0
    store = edited(store, drop=pla_quads | plr_quads)
    kb, _ = seed_kb
    assert set(store.quads()) == set(kb.quads()) and store.graph_names() == kb.graph_names()
    again = render(compose(plan, store), plan.language, store)
    assert (again.graph_iri, set(store.quads(again.graph_iri))) == (plr.graph_iri, plr_quads)
    assert set(store.quads(pla.graph_iri)) == pla_quads
    assert emit(again) == emit(plr)


def test_unsupported_language_family(pipeline):
    store, plan, pla, plr = pipeline
    clone = edited(store, drop=store.quads(plr.graph_iri))  # so that only the language stands in the way
    alien = plan.language._replace(family="Fortran")
    with pytest.raises(UnsupportedLanguageError):
        render(pla, alien, clone)
    assert clone.graph_size(plr.graph_iri) == 0


def test_missing_statement_form_is_unmappable(kb_store, statement_text, golden_source):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    # Strip the aliased-import form and its slots from the KB so numpy cannot be rendered.
    form = Iri(vocab.kb("py_import_aliased"))
    stripped = {form, *kb_store.row(form, vocab.CORE_GRAPH)[Iri(vocab.HAS_TEMPLATE_SLOT)]}
    dropped = [quad for quad in kb_store.quads(vocab.CORE_GRAPH) if quad.subject in stripped]
    kb_store = edited(kb_store, drop=dropped)
    assert views.check_kb(kb_store) == []
    with pytest.raises(UnmappableStatementError):
        render(pla, plan.language, kb_store)
    # The failed render wrote no part of its graph, so once the form is back the intact program renders into
    # the same store.
    graph = vocab.program_graph_iri(pla.basename, "plr")
    assert kb_store.graph_size(graph) == 0 and graph not in kb_store.graph_names()
    for quad in dropped:
        kb_store.insert(quad)
    assert emit(render(pla, plan.language, kb_store)) == golden_source


def test_import_statements_for_exemplar_library_set():
    statements = [import_statement(lib) for lib in import_order([_lib("sys"), _lib("numpy", "np")])]
    assert statements == [
        (vocab.VARIATION_IMPORT_ALIASED, {"official_name": "numpy", "alias": "np"}),
        (vocab.VARIATION_IMPORT_PLAIN, {"official_name": "sys"}),
    ]


def test_import_statements_empty_set():
    assert import_order([]) == []


def test_import_statements_sort_by_official_name():
    libs = [_lib("zlib"), _lib("abc"), _lib("os")]
    assert [lib.official_name for lib in import_order(libs)] == sorted(["zlib", "abc", "os"])


def test_import_statements_sorted_for_random_library_sets():
    rng = random.Random(99)
    for _ in range(200):
        names = {
            "".join(rng.choices(string.ascii_lowercase + "._", k=rng.randint(1, 10)))
            for _ in range(rng.randint(0, 12))
        }
        libs = [_lib(name, "a" if rng.random() < 0.4 else None) for name in names]
        ordered = [lib.official_name for lib in import_order(libs)]
        assert ordered == sorted(ordered, key=lambda n: n.encode("utf-8"))


def test_a_value_error_from_compile_is_a_render_error(pipeline, monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("source code string cannot contain null bytes")

    monkeypatch.setattr(renderer, "compile", reject, raising=False)  # as Python 3.10 rejects a NUL byte
    with pytest.raises(RenderError, match=r"^emitted source does not parse: source code string cannot contain"):
        emit(pipeline[3])


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


def test_a_failed_rename_keeps_the_targets_bytes_and_leaves_no_temp_file(pipeline, tmp_path, monkeypatch):
    _, plan, _, plr = pipeline
    path = tmp_path / "hello_analytic.py"
    path.write_bytes(b"old \x00 bytes\r\n")

    def refuse(source, target):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(WriteError, match=f"^cannot write {re.escape(str(path))}: .*Permission denied"):
        write_source(emit(plr), plan.program_basename, plan.language, tmp_path, force=True)
    assert path.read_bytes() == b"old \x00 bytes\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hello_analytic.py"]


def test_write_source_makes_a_missing_nested_out_dir(pipeline, tmp_path):
    _, plan, _, plr = pipeline
    out_dir = tmp_path / "a" / "b" / "c"
    path = write_source(emit(plr), plan.program_basename, plan.language, out_dir)
    assert path == out_dir / "hello_analytic.py"
    assert path.read_bytes() == emit(plr).encode("utf-8")


def test_a_refused_overwrite_keeps_the_files_bytes(pipeline, tmp_path):
    _, plan, _, plr = pipeline
    path = tmp_path / "hello_analytic.py"
    path.write_bytes(b"kept \x00 bytes\r\n")
    with pytest.raises(WriteError, match=f"^refusing to overwrite existing file: {re.escape(str(path))} \\(use force\\)$"):
        write_source(emit(plr), plan.program_basename, plan.language, tmp_path)
    assert path.read_bytes() == b"kept \x00 bytes\r\n"


@pytest.mark.parametrize("force", [False, True])
def test_short_writes_still_write_the_whole_text(pipeline, tmp_path, monkeypatch, force):
    _, plan, _, plr = pipeline
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
    path = write_source(emit(plr), plan.program_basename, plan.language, tmp_path, force=force)
    assert path.read_bytes() == emit(plr).encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hello_analytic.py"]


@pytest.mark.parametrize("force", [False, True])
def test_the_file_mode_is_0o666_less_the_umask(pipeline, tmp_path, force):
    _, plan, _, plr = pipeline
    previous = os.umask(0o027)
    try:
        path = write_source(emit(plr), plan.program_basename, plan.language, tmp_path, force=force)
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("force", [False, True])
def test_a_failed_write_leaves_no_file(pipeline, tmp_path, monkeypatch, force):
    _, plan, _, plr = pipeline

    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    with pytest.raises(WriteError, match="^cannot write .*No space left on device"):
        write_source(emit(plr), plan.program_basename, plan.language, tmp_path, force=force)
    assert list(tmp_path.iterdir()) == []


def test_an_out_dir_that_is_a_dangling_link_cannot_be_written_and_is_not_an_existing_file(pipeline, tmp_path):
    _, plan, _, plr = pipeline
    out_dir = tmp_path / "link"
    out_dir.symlink_to(tmp_path / "absent")
    with pytest.raises(WriteError, match=f"^cannot write {re.escape(str(out_dir / 'hello_analytic.py'))}: "):
        write_source(emit(plr), plan.program_basename, plan.language, out_dir)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]


def test_concrete_graph_holds_only_variation_section_order_and_elements(pipeline):
    store, _, _, plr = pipeline
    predicates = {quad.predicate for quad in store.quads(plr.graph_iri)}
    assert predicates == {
        Iri(RDF_TYPE),
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


@pytest.mark.parametrize("change", ["drop", "second-value"])
def test_element_text_that_is_not_one_value_does_not_load(pipeline, change):
    store, _, _, plr = pipeline
    node = Iri(f"{plr.graph_iri}#stmt-0-e0")
    [quad] = [q for q in store.quads(plr.graph_iri) if q.subject == node and q.predicate == renderer.PLR_HAS_ELEMENT_TEXT]
    if change == "drop":
        store = edited(store, drop=[quad])
    else:
        store.insert(Quad(node, renderer.PLR_HAS_ELEMENT_TEXT, Literal("extra"), plr.graph_iri))
    with pytest.raises(RenderError) as raised:
        load_plr(store, plr.graph_iri)
    found = 0 if change == "drop" else 2
    assert str(raised.value) == f"<{node.value}> plr:hasElementText: expected exactly 1 value, found {found}"


@pytest.mark.parametrize(
    "graph, node, predicate, error, expected",
    [
        ("pla", "stmt-0", Iri(vocab.pla("hasOrderIndex")), ComposeError, "pla:hasOrderIndex: expected an integer literal"),
        ("plr", "program", renderer.PLR_HAS_LANGUAGE, RenderError, "plr:hasLanguage: expected an IRI"),
    ],
    ids=["pla-order-index", "plr-language"],
)
def test_a_value_of_the_wrong_kind_does_not_load_and_names_its_node_and_predicate(
    pipeline, graph, node, predicate, error, expected
):
    store, _, pla, plr = pipeline
    graph_iri, load = (pla.graph_iri, load_pla) if graph == "pla" else (plr.graph_iri, load_plr)
    node = Iri(f"{graph_iri}#{node}")
    [quad] = [q for q in store.quads(graph_iri) if q.subject == node and q.predicate == predicate]
    store = edited(store, drop=[quad], add=[Quad(node, predicate, Literal("x"), graph_iri)])
    with pytest.raises(error) as raised:
        load(store, graph_iri)
    assert str(raised.value) == f'<{node.value}> {expected}, found "x"'


def test_compose_and_render_build_no_vocabulary_iri_and_each_node_iri_once(kb_store, statement_text, monkeypatch):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    built = []
    new = Iri.__new__

    def counting(cls, value):
        built.append(value)
        return new(cls, value)

    monkeypatch.setattr(Iri, "__new__", counting)
    pla = compose(plan, kb_store)
    plr = render(pla, plan.language, kb_store)
    emit(plr)
    monkeypatch.undo()
    assert [value for value in built if value.startswith((vocab.PLA, vocab.PLR))] == []
    node_prefixes = (f"{pla.graph_iri}#", f"{plr.graph_iri}#")
    nodes = [value for value in built if value.startswith(node_prefixes)]
    stored = {term.value for graph in (pla.graph_iri, plr.graph_iri) for quad in kb_store.quads(graph)
              for term in (quad.subject, quad.object) if isinstance(term, Iri) and term.value.startswith(node_prefixes)}
    assert sorted(nodes) == sorted(stored)


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
