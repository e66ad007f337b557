from __future__ import annotations

import ast
import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import NUMPY_MEAN, STATEMENT_VARIANTS, insert_turtle, variant_plan
from oracles import load_pla, load_plr
from graphsynth import renderer, views, vocab
from graphsynth.composer import compose, import_order
from graphsynth.errors import (
    ComposeError,
    KbValidationError,
    MalformedQuadError,
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
from graphsynth.views import LibraryInfo, write


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
    "objects": lambda subject, predicate, graph: [graph],
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
    # A callee the KB does not hold under that name: only the program's own record can supply it.
    carried = tuple(function._replace(callable_name="average") if function.iri == NUMPY_MEAN else function
                    for function in pla.called_functions)
    lines = emit(render(pla._replace(called_functions=carried), plan.language, kb_store)).splitlines()
    assert "mean = np.average(input_data)" in lines
    assert "mean = np.mean(input_data)" not in lines


_NODE = Iri("http://t.example/node")
_LINK = ("link", Iri("http://t.example/link"), views.NODE, 1, 1)


@pytest.mark.parametrize(
    "graph, fields, node, values",
    [
        pytest.param("http://t.example/g", (_LINK,), Blank("n"), {"link": _NODE}, id="blank-node"),
        pytest.param("http://t.example/g", (_LINK,), Literal("n"), {"link": _NODE}, id="literal-node"),
        pytest.param("http://t.example/g", (_LINK,), "http://t.example/n", {"link": _NODE}, id="string-node"),
        pytest.param("http://t.example/g", (_LINK,), _NODE, {"link": Literal("x")}, id="literal-link"),
        pytest.param("http://t.example/g", (_LINK,), _NODE, {"link": "http://t.example/x"}, id="string-link"),
        pytest.param("http://t.example/g", (views.TYPE,), _NODE, {"type": True}, id="boolean-link"),
        pytest.param("http://t.example/g", (("text", "http://t.example/p", views.STR, 1, 1),), _NODE, {"text": "x"},
                     id="string-predicate"),
        pytest.param("http://t.example/a graph", (_LINK,), _NODE, {"link": _NODE}, id="whitespace-graph"),
        pytest.param("", (_LINK,), _NODE, {"link": _NODE}, id="empty-graph"),
    ],
)
def test_write_rejects_a_malformed_quad_and_stores_nothing(graph, fields, node, values):
    store = QuadStore()
    with pytest.raises(MalformedQuadError):
        write(store, graph, [(fields, node, values)])
    assert len(store) == 0 and store.graph_names() == []


@pytest.mark.parametrize("link", [_NODE, Blank("b")], ids=["iri", "blank-node"])
def test_a_link_reads_back_as_the_term_written(link):
    store, graph = QuadStore(), "http://t.example/g"
    write(store, graph, [((_LINK,), _NODE, {"link": link})])
    problems = []
    assert views.read(store, graph, (_LINK,), _NODE, problems, {}) == {"link": link}
    assert problems == []


def test_read_returns_the_well_formed_fields_and_appends_one_problem_per_fault():
    store, graph = QuadStore(), "http://t.example/g"
    name = ("name", Iri("http://t.example/name"), views.STR, 1, 1)
    count = ("count", Iri("http://t.example/count"), views.INT, 1, 1)
    tags = ("tags", Iri("http://t.example/tag"), views.STR, 1, views.MANY)
    write(store, graph, [((name, _LINK), _NODE, {"name": "n", "link": _NODE})])
    store.insert(Quad(_NODE, count[1], Literal("x"), graph))
    problems = ["an earlier problem"]
    assert views.read(store, graph, (name, count, tags, _LINK), _NODE, problems, {}) == {"name": "n", "link": _NODE}
    assert problems == [
        "an earlier problem",
        '<http://t.example/node> <http://t.example/count>: expected an integer literal, found "x"',
        "<http://t.example/node> <http://t.example/tag>: expected at least 1 value, found 0",
    ]


@pytest.mark.parametrize("existing", [0, 1], ids=["new-graph", "graph-with-a-quad"])
def test_a_malformed_value_late_in_a_node_leaves_the_graph_as_it_was(existing):
    store, graph = QuadStore(), "http://t.example/g"
    if existing:
        store.insert(Quad(Iri("http://t.example/other"), _LINK[1], _NODE, graph))
    quads, generation = store.graph_quads(graph), store.generation(graph)
    fields = (("name", Iri("http://t.example/name"), views.STR, 1, 1), _LINK, ("second", _LINK[1], views.NODE, 1, 1))
    for nodes in (
        # A valid name and a valid first link come before the malformed second link.
        [(fields, _NODE, {"name": "n", "link": _NODE, "second": Literal("x")})],
        # A whole valid node comes before the node that holds the malformed value.
        [((_LINK,), Iri("http://t.example/first"), {"link": _NODE}), ((_LINK,), _NODE, {"link": Literal("x")})],
    ):
        with pytest.raises(MalformedQuadError):
            write(store, graph, nodes)
        assert store.graph_quads(graph) == quads and store.graph_size(graph) == existing
        assert store.generation(graph) == generation


@pytest.mark.parametrize("variant", ["example", *STATEMENT_VARIANTS])
def test_codec_writes_the_same_graphs_and_tables_as_validated_inserts(kb_store, statement_text, variant):
    plan = (resolve(parse_problem_statement(statement_text), kb_store) if variant == "example"
            else variant_plan(kb_store, variant))
    pla = compose(plan, kb_store)
    plr = render(pla, plan.language, kb_store)
    replay = QuadStore()
    for graph in (pla.graph_iri, plr.graph_iri):
        # `quads` rebuilds each stored quad through the validating `Quad` constructor.
        for quad in kb_store.quads(graph):
            assert replay.insert(quad)
        assert replay.graph_quads(graph) == kb_store.graph_quads(graph)
        assert replay.graph_size(graph) == kb_store.graph_size(graph) > 0
        assert replay._spo[graph] == kb_store._spo[graph] and replay._pos[graph] == kb_store._pos[graph]
        program = Iri(pla.program_iri if graph == pla.graph_iri else plr.program_iri)
        program_class = kb_store.objects(program, Iri(RDF_TYPE), graph)
        pattern = Pattern(Var("s"), Var("p"), program_class[0], graph)
        assert replay.match_pattern(pattern) == kb_store.match_pattern(pattern) == [{"s": program, "p": Iri(RDF_TYPE)}]


def test_a_call_to_a_function_the_program_does_not_carry_is_a_render_error(kb_store, statement_text, golden_source):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    without_mean = tuple(function for function in pla.called_functions if function.iri != NUMPY_MEAN)
    with pytest.raises(RenderError, match=f"function {NUMPY_MEAN} is not among the program's called functions"):
        render(pla._replace(called_functions=without_mean), plan.language, kb_store)
    # The failed render wrote no part of its graph, so the intact program renders into the same store.
    graph = vocab.program_graph_iri(pla.basename, "plr")
    assert kb_store.graph_size(graph) == 0 and graph not in kb_store.graph_names()
    assert emit(render(pla, plan.language, kb_store)) == golden_source


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
    if old is not None:
        assert kb_store.remove(Quad(node, predicate, Literal(old), vocab.CORE_GRAPH))
    if new is not None:
        kb_store.insert(Quad(node, predicate, Literal(new), vocab.CORE_GRAPH))
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


def test_dropping_both_program_graphs_leaves_the_kb_and_allows_the_same_synthesis(pipeline, seed_kb):
    store, plan, pla, plr = pipeline
    pla_quads, plr_quads = store.graph_quads(pla.graph_iri), store.graph_quads(plr.graph_iri)
    assert store.drop_graph(pla.graph_iri) == len(pla_quads) > 0
    assert store.drop_graph(plr.graph_iri) == len(plr_quads) > 0
    kb, _ = seed_kb
    assert set(store.quads()) == set(kb.quads()) and store.graph_names() == kb.graph_names()
    again = render(compose(plan, store), plan.language, store)
    assert (again.graph_iri, store.graph_quads(again.graph_iri)) == (plr.graph_iri, plr_quads)
    assert store.graph_quads(pla.graph_iri) == pla_quads
    assert emit(again) == emit(plr)


def test_unsupported_language_family(pipeline):
    store, plan, pla, plr = pipeline
    clone = store.clone()
    clone.drop_graph(plr.graph_iri)  # so that only the language stands in the way
    alien = plan.language._replace(family="Fortran")
    with pytest.raises(UnsupportedLanguageError):
        render(pla, alien, clone)
    assert clone.graph_size(plr.graph_iri) == 0


def test_missing_statement_form_is_unmappable(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    pla = compose(plan, kb_store)
    # Strip the aliased-import form and its slots from the KB so numpy cannot be rendered.
    form = Iri(vocab.kb("py_import_aliased"))
    stripped = {form, *kb_store.objects(form, Iri(vocab.HAS_TEMPLATE_SLOT), vocab.CORE_GRAPH)}
    for quad in list(kb_store.quads(vocab.CORE_GRAPH)):
        if quad.subject in stripped:
            kb_store.remove(quad)
    assert views.check_kb(kb_store) == []
    with pytest.raises(UnmappableStatementError):
        render(pla, plan.language, kb_store)
    assert kb_store.graph_size(vocab.program_graph_iri(pla.basename, "plr")) == 0


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
        store.remove(quad)
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
    store.remove(quad)
    store.insert(Quad(node, predicate, Literal("x"), graph_iri))
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
