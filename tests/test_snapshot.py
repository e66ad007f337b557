"""The KB snapshot: compiled by `check_kb`, kept per graph generation, never read stale.

Every stage reads the KB through `views.kb`, the snapshot the store keeps
beside the core graph's generation. These tests edit the KB between
syntheses, clone stores, try to change a snapshot and break entities, and
check that `kb` answers as it does over a freshly loaded store holding the
same quads.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import insert_turtle
from graphsynth import views, vocab
from graphsynth.composer import compose
from graphsynth.errors import KbValidationError
from graphsynth.problem import parse_problem_statement
from graphsynth.quadstore import Quad, QuadStore
from graphsynth.renderer import emit, render
from graphsynth.resolver import resolve
from graphsynth.seed import example_statement_path, load_kb

CORE = vocab.CORE_GRAPH
HEADER = """\
@prefix gs: <http://graphsynth.dev/vocab/core#> .
@prefix kb: <http://graphsynth.dev/kb/> .
@prefix x: <http://t.example/> .
"""


def _source(name: str) -> str:
    """A well-shaped data source named `name`, as subset Turtle; every name gives the same number of quads."""
    return HEADER + f"""\
x:{name.replace(".", "_")} a gs:DataSource ; gs:hasName "{name}" ; gs:hasDataRowCount 6 ; gs:hasValuesPerRow 1 ;
    gs:hasContainer kb:file_container ; gs:hasFormat kb:csv_format ; gs:hasEncoding kb:ascii_encoding ;
    gs:hasValueDatatype kb:floating_point_datatype ; gs:hasHeaderRowCount 0 ;
    gs:hasQuantityKind kb:dimensionless_sample ; gs:hasLocation "{name}" .
"""


def _synthesize(store: QuadStore, basename: str) -> tuple[str, str]:
    """("ok", emitted text) for the example statement over `store`, or the failure's (type name, message)."""
    text = example_statement_path().read_text(encoding="utf-8").replace("'hello_analytic'", f"'{basename}'")
    try:
        plan = resolve(parse_problem_statement(text), store)
        return "ok", emit(render(compose(plan, store), plan.language, store))
    except Exception as error:  # whatever it is, the fresh store must fail the same way
        return type(error).__name__, str(error)


def _quad_key(quad: Quad) -> tuple:
    return quad.subject, quad.predicate, quad.object


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_edit_between_two_syntheses_gives_what_a_fresh_store_of_the_edited_kb_gives(seed_kb, data):
    store = seed_kb[0].clone()
    assert _synthesize(store, "first")[0] == "ok"  # over the snapshot check_kb kept at load
    quads = sorted(store.quads(CORE), key=_quad_key)
    predicates = sorted({quad.predicate for quad in quads})
    objects = sorted({quad.object for quad in quads})
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        kind = data.draw(st.sampled_from(["remove", "replace object", "add"]), label="kind")
        quad = data.draw(st.sampled_from(quads), label="quad")
        if kind == "remove":
            store.remove(quad)
        elif kind == "replace object":
            same_predicate = sorted({q.object for q in quads if q.predicate == quad.predicate})
            store.remove(quad)
            store.insert(Quad(quad.subject, quad.predicate, data.draw(st.sampled_from(same_predicate)), CORE))
        else:
            predicate = data.draw(st.sampled_from(predicates), label="predicate")
            store.insert(Quad(quad.subject, predicate, data.draw(st.sampled_from(objects), label="object"), CORE))
    fresh = QuadStore()
    for quad in store.quads(CORE):
        fresh.insert(quad)
    assert _synthesize(store, "second") == _synthesize(fresh, "second")
    assert views.check_kb(store) == views.check_kb(fresh)


def test_a_clone_and_its_original_edited_to_the_same_generation_each_see_their_own_kb(kb_store):
    clone = kb_store.clone()
    assert clone.snapshot(CORE) is kb_store.snapshot(CORE) is not None  # shared, as it cannot change
    insert_turtle(kb_store, _source("mine.txt"))
    insert_turtle(clone, _source("theirs.txt"))
    assert kb_store.generation(CORE) == clone.generation(CORE)
    for store, own, other in ((kb_store, "mine.txt", "theirs.txt"), (clone, "theirs.txt", "mine.txt")):
        kb = views.kb(store)
        assert [source.name for source in kb.data_sources[own]] == [own]
        assert other not in kb.data_sources
        assert own in kb.labels[vocab.DATA_SOURCE]


def test_assigning_into_any_kb_mapping_raises_type_error_and_the_next_kb_equals_the_first(seed_kb):
    store, _ = seed_kb
    first = views.kb(store)
    # Every field is a read-only mapping or a tuple; the per-family form maps are mappings too.
    assert all(isinstance(field, (Mapping, tuple)) for field in first)
    mappings = [field for field in first if isinstance(field, Mapping)]
    mappings += first.statement_forms.values()
    assert len(mappings) == 8 + len(first.statement_forms) > 8
    for mapping in mappings:
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = None
        with pytest.raises(TypeError):
            mapping["added"] = None
        with pytest.raises(TypeError):
            del mapping[key]
    again = views.kb(store)
    assert again == first
    assert again == views.kb(load_kb()[0])  # as compiled afresh from the same files


def _mutable_parts(value, path: str) -> list[str]:
    """The paths, below `value`, of every part that is not a read-only mapping, tuple, frozenset or scalar."""
    if isinstance(value, (str, int, float, type(None))):  # bool is an int
        return []
    if isinstance(value, MappingProxyType):
        return [
            bad for key, item in value.items()
            for bad in _mutable_parts(key, path) + _mutable_parts(item, f"{path}[{key!r}]")
        ]
    if isinstance(value, (tuple, frozenset)):  # records are NamedTuples
        return [bad for index, item in enumerate(value) for bad in _mutable_parts(item, f"{path}[{index}]")]
    return [f"{path}: {type(value).__name__}"]


@pytest.mark.parametrize("field", views.Kb._fields)
def test_every_part_of_a_kb_field_is_immutable(seed_kb, field):
    store, _ = seed_kb
    value = getattr(views.kb(store), field)
    assert value  # the shipped KB fills every field
    assert _mutable_parts(value, field) == []


HALF = HEADER + 'x:half a gs:DataSource ; gs:hasName "half.txt" ; gs:hasContainer kb:file_container .'
MISSING_FORMAT = "<http://t.example/half> gs:hasFormat: expected exactly 1 value, found 0"


def test_a_snapshot_built_lazily_over_a_broken_entity_raises_in_every_view_until_it_is_mended(monkeypatch):
    store, _ = load_kb(validate=False)  # no check_kb, so no snapshot yet
    insert_turtle(store, HALF)
    problems = views.check_kb(store.clone())  # the clone keeps its own verdict
    assert MISSING_FORMAT in problems
    assert store.snapshot(CORE) is None
    compiled = []
    compile_kb = views._compile
    monkeypatch.setattr(views, "_compile", lambda *args: compiled.append(args) or compile_kb(*args))
    raised = []
    for _ in range(2):  # the second call reads the verdict kept for the unchanged graph
        with pytest.raises(KbValidationError) as error:
            views.kb(store)
        assert error.value.problems == problems
        raised.append(error.value)
    assert len(compiled) == 1
    assert raised[0] is not raised[1]  # a fresh error each time, so no traceback grows
    for quad in [quad for quad in store.quads(CORE) if quad.subject.value == "http://t.example/half"]:
        store.remove(quad)
    assert "half.txt" not in views.kb(store).data_sources
    assert isinstance(store.snapshot(CORE), views.Kb)
    assert len(compiled) == 2


def test_a_view_over_a_kb_with_only_kind_problems_raises_kb_validation_error(kb_store):
    insert_turtle(kb_store, HEADER + 'x:odd a gs:Library ; gs:hasOfficialName "not a name" ; gs:hasLibraryKind "k" .')
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == views.check_kb(kb_store)
    assert raised.value.problems == ['<http://t.example/odd> gs:hasOfficialName: expected a dotted identifier, found "not a name"']


SECOND_SLOT_0 = HEADER + """\
kb:numpy_mean gs:hasArgumentSlot x:extra_slot .
x:extra_slot a gs:ArgumentSlot ; gs:hasSlotIndex 0 ; gs:hasSlotRole kb:role_input_data .
"""
SLOT_CLASH = "kb:numpy_mean gs:hasArgumentSlot: slot index 0 is held by kb:numpy_mean_arg0, <http://t.example/extra_slot>"


def test_a_well_shaped_kb_that_fails_a_cross_entity_check_has_no_snapshot_and_stops_the_pipeline():
    store, _ = load_kb(validate=False)  # as a library caller may: no check at load
    insert_turtle(store, SECOND_SLOT_0)  # a second argument slot at index 0 of kb:numpy_mean
    assert views.check_kb(store.clone()) == [SLOT_CLASH]
    with pytest.raises(KbValidationError) as raised:
        views.kb(store)
    assert raised.value.problems == [SLOT_CLASH]
    assert store.snapshot(CORE) == (SLOT_CLASH,)
    assert _synthesize(store, "clash") == ("KbValidationError", str(raised.value))  # resolve stops at the KB
    assert store.graph_names() == [CORE]
