from __future__ import annotations


import pytest

from conftest import (
    NUMPY_LIBRARY, NUMPY_LOADTXT, NUMPY_MEAN, NUMPY_STD, STATEMENT_VARIANTS, SYS_LIBRARY, edited, variant_plan,
)
from oracles import load_pla, pla_section, pla_statements
from graphsynth import vocab
from graphsynth.composer import (
    PLA_HAS_VARIABLE_REF,
    AssignCall,
    AssignLiteral,
    ImportDirective,
    NameAllocator,
    NamingContext,
    ProgramExit,
    ReportValue,
    compose,
    derive_variable_name,
    library_names,
)
from graphsynth.errors import ComposeError, UnnamedVariableError
from graphsynth.problem import parse_problem_statement
from graphsynth.resolver import resolve
from graphsynth.quadstore import Quad
from graphsynth.terms import Iri, integer_literal
from graphsynth.views import kb


@pytest.fixture()
def plan(kb_store, statement_text):
    return resolve(parse_problem_statement(statement_text), kb_store)


@pytest.fixture()
def pla(kb_store, plan):
    return compose(plan, kb_store)


def section_counts(pla):
    return {sec.name: len(sec.statements) for sec in pla.sections}


def test_exemplar_sections_and_statement_counts(pla):
    assert section_counts(pla) == {"Preamble": 2, "Input": 2, "Calculate": 2, "Output": 2, "CleanUp": 1}
    assert len(pla_statements(pla)) == 9


def test_exemplar_statement_shapes(kb_store, pla, plan):
    functions, libraries = kb(kb_store).functions, kb(kb_store).libraries
    input_statements = [p.statement for p in pla_section(pla, "Input").statements]
    assert input_statements == [
        AssignLiteral("input_data_filename", "my_input.txt", vocab.ROLE_DATASOURCE_FILENAME),
        AssignCall("input_data", functions[NUMPY_LOADTXT], ("input_data_filename",)),
    ]

    calculate = [p.statement for p in pla_section(pla, "Calculate").statements]
    assert calculate == [AssignCall("mean", functions[NUMPY_MEAN], ("input_data",)),
                         AssignCall("std", functions[NUMPY_STD], ("input_data",))]

    output = [p.statement for p in pla_section(pla, "Output").statements]
    assert output == [ReportValue("mean", "mean"), ReportValue("std", "std")]

    assert [p.statement for p in pla_section(pla, "CleanUp").statements] == [ProgramExit(0, plan.exit_function)]

    preamble = [p.statement for p in pla_section(pla, "Preamble").statements]
    assert preamble == [ImportDirective(libraries[NUMPY_LIBRARY]), ImportDirective(libraries[SYS_LIBRARY])]


def test_composition_indices_order_sections_input_first_preamble_last(pla):
    by_section = {
        sec.name: [p.composition_index for p in sec.statements] for sec in pla.sections if sec.statements
    }
    flat = []
    for name in vocab.COMPOSITION_ORDER:
        flat.extend(by_section.get(name, []))
    assert flat == list(range(len(flat)))
    assert min(by_section["Preamble"]) > max(by_section["CleanUp"])


def test_emission_indices_follow_the_fixed_order(pla):
    assert [sec.name for sec in pla.sections] == list(vocab.EMISSION_ORDER)
    assert [sec.emission_index for sec in pla.sections] == [0, 1, 2, 3, 4]


def test_every_argument_is_defined_earlier_in_composition_order(pla):
    defined: dict[str, int] = {}
    for placed in pla_statements(pla):
        statement = placed.statement
        if isinstance(statement, AssignCall):
            for arg in statement.args:
                assert defined[arg] < placed.composition_index
        if isinstance(statement, ReportValue):
            assert defined[statement.source] < placed.composition_index
        if isinstance(statement, (AssignLiteral, AssignCall)):
            defined[statement.target] = placed.composition_index


def test_import_set_is_exactly_the_referenced_libraries(kb_store, pla):
    expected = set()
    for placed in pla_statements(pla):
        statement = placed.statement
        if isinstance(statement, AssignCall):
            expected.add(kb(kb_store).functions[statement.function.iri].library)
    expected.add(kb(kb_store).libraries[SYS_LIBRARY])  # bound by the planned exit action
    imported = {p.statement.library for p in pla_section(pla, "Preamble").statements}
    assert imported == expected == set(pla.referenced_libraries)


def test_referenced_libraries_in_first_reference_order(pla):
    assert [lib.official_name for lib in pla.referenced_libraries] == ["numpy", "sys"]


def test_pla_graph_is_pure_of_concrete_vocabulary(kb_store, pla):
    for quad in kb_store.quads(pla.graph_iri):
        assert not quad.predicate.value.startswith(vocab.PLR)
        if isinstance(quad.object, Iri):
            assert not quad.object.value.startswith(vocab.PLR)


def test_compose_twice_yields_identical_quad_sets(kb_store, plan):
    other = kb_store.clone()
    first = compose(plan, kb_store)
    second = compose(plan, other)
    assert set(kb_store.quads(first.graph_iri)) == set(other.quads(second.graph_iri))


def test_compose_refuses_a_non_empty_graph(kb_store, plan):
    compose(plan, kb_store)
    with pytest.raises(ComposeError):
        compose(plan, kb_store)


def test_load_pla_round_trips_the_composed_object(kb_store, plan):
    pla = compose(plan, kb_store)
    assert load_pla(kb_store, pla.graph_iri) == pla


@pytest.mark.parametrize("variant", STATEMENT_VARIANTS)
def test_load_pla_round_trips_the_composed_object_of_every_statement_variant(kb_store, variant):
    pla = compose(variant_plan(kb_store, variant), kb_store)
    assert load_pla(kb_store, pla.graph_iri) == pla


def test_argument_slot_without_a_variable_does_not_load(kb_store, pla):
    slot = Iri(f"{pla.graph_iri}#stmt-1-arg0")  # the reader call's one argument
    [quad] = [q for q in kb_store.quads(pla.graph_iri) if q.subject == slot and q.predicate == PLA_HAS_VARIABLE_REF]
    kb_store = edited(kb_store, drop=[quad])
    with pytest.raises(ComposeError) as raised:
        load_pla(kb_store, pla.graph_iri)
    assert str(raised.value) == f"<{slot.value}> pla:hasVariableRef: expected exactly 1 value, found 0"


def test_a_call_argument_in_a_role_no_statement_filled_raises_compose_error(kb_store, plan):
    # The reader's argument names a role that nothing composed before the call fills.
    reader = plan.reader_function._replace(arg_spec=("role-nobody-fills",))
    with pytest.raises(ComposeError, match="needs a value in role role-nobody-fills, none composed yet"):
        compose(plan._replace(reader_function=reader), kb_store)


def test_degenerate_plan_with_zero_calculations(kb_store, plan):
    bare = plan._replace(calculations=())
    pla = compose(bare, kb_store)
    assert section_counts(pla) == {"Preamble": 2, "Input": 2, "Calculate": 0, "Output": 0, "CleanUp": 1}
    # numpy still imported: the reader references it.
    assert [lib.official_name for lib in pla.referenced_libraries] == ["numpy", "sys"]


def test_graph_iri_derived_from_basename(pla, plan):
    assert pla.graph_iri.endswith(f"{plan.program_basename}-pla")


# --- naming patterns ------------------------------------------------------


def test_pattern_one_joins_content_and_filename_labels(kb_store):
    patterns = kb(kb_store).naming_patterns
    name = derive_variable_name(
        patterns, NamingContext(vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME, content_label="input_data")
    )
    assert name == "input_data_filename"


def test_pattern_two_uses_content_label_alone(kb_store):
    patterns = kb(kb_store).naming_patterns
    name = derive_variable_name(
        patterns, NamingContext(vocab.PATTERN_FILENAME_ARG_TO_READER, content_label="input_data")
    )
    assert name == "input_data"


@pytest.mark.parametrize("function_iri, expected", [(NUMPY_MEAN, "mean"), (NUMPY_STD, "std")])
def test_pattern_three_uses_the_function_name(kb_store, function_iri, expected):
    patterns = kb(kb_store).naming_patterns
    function = kb(kb_store).functions[function_iri]
    name = derive_variable_name(patterns, NamingContext(vocab.PATTERN_ASSIGN_FUNCTION_RETURN, function=function))
    assert name == expected


def test_unknown_pattern_raises_unnamed_variable(kb_store):
    patterns = kb(kb_store).naming_patterns
    with pytest.raises(UnnamedVariableError):
        derive_variable_name(patterns, NamingContext("no-such-pattern"))


def test_missing_payload_raises_unnamed_variable(kb_store):
    patterns = kb(kb_store).naming_patterns
    with pytest.raises(UnnamedVariableError):
        derive_variable_name(patterns, NamingContext(vocab.PATTERN_FILENAME_ARG_TO_READER, content_label=None))


@pytest.mark.parametrize("callable_name", ["class", "None", "my mean", "2nd"])
def test_derived_name_that_is_no_identifier_raises_unnamed_variable(kb_store, callable_name):
    patterns = kb(kb_store).naming_patterns
    function = kb(kb_store).functions[NUMPY_MEAN]._replace(callable_name=callable_name)
    with pytest.raises(UnnamedVariableError):
        derive_variable_name(patterns, NamingContext(vocab.PATTERN_ASSIGN_FUNCTION_RETURN, function=function))


def test_derived_name_that_shadows_an_import_raises_unnamed_variable(kb_store, plan):
    assert library_names(plan) == {"numpy", "np", "sys"}
    calc = plan.calculations[0]
    shadowing = calc._replace(function=calc.function._replace(callable_name="np"))
    with pytest.raises(UnnamedVariableError, match="imported library"):
        compose(plan._replace(calculations=(shadowing, *plan.calculations[1:])), kb_store)


def test_collision_policy_appends_numeric_suffixes():
    names = NameAllocator()
    assert [names.allocate("mean") for _ in range(3)] == ["mean", "mean_2", "mean_3"]
    assert names.allocate("std") == "std"


def test_collisions_during_composition_are_deterministic(kb_store, plan):
    # Two calculations resolving to the same callable name must not collide.
    doubled = plan._replace(calculations=(plan.calculations[0], plan.calculations[0]))
    pla = compose(doubled, kb_store)
    targets = [p.statement.target for p in pla_section(pla, "Calculate").statements]
    assert targets == ["mean", "mean_2"]
    labels = [p.statement.label for p in pla_section(pla, "Output").statements]
    assert labels == ["mean", "mean_2"]


@pytest.mark.parametrize("change", ["drop", "second-value"])
def test_statement_order_index_that_is_not_one_value_does_not_load(kb_store, pla, change):
    node = Iri(f"{pla.graph_iri}#stmt-0")
    predicate = Iri(vocab.pla("hasOrderIndex"))
    [quad] = [q for q in kb_store.quads(pla.graph_iri) if q.subject == node and q.predicate == predicate]
    if change == "drop":
        kb_store = edited(kb_store, drop=[quad])
    else:
        kb_store.insert(Quad(node, predicate, integer_literal(7), pla.graph_iri))
    with pytest.raises(ComposeError) as raised:
        load_pla(kb_store, pla.graph_iri)
    found = 0 if change == "drop" else 2
    assert str(raised.value) == f"<{node.value}> pla:hasOrderIndex: expected exactly 1 value, found {found}"
