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
    ProgramExit,
    ReportValue,
    compose,
)
from graphsynth.errors import ComposeError, UnnamedVariableError
from graphsynth.problem import parse_problem_statement
from graphsynth.resolver import resolve
from graphsynth.quadstore import Quad
from graphsynth.terms import Iri, Literal, integer_literal
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


def targets(pla, section):
    return [p.statement.target for p in pla_section(pla, section).statements]


def with_callable_names(plan, *names):
    """The plan with its calculations' functions called `names`, in order."""
    return plan._replace(calculations=tuple(
        calc._replace(function=calc.function._replace(callable_name=name))
        for calc, name in zip(plan.calculations, names)
    ))


def pattern_quad(store, pattern_id, predicate):
    """The one quad of the KB naming pattern `pattern_id` with `predicate`."""
    [node] = [q.subject for q in store.quads(vocab.CORE_GRAPH)
              if q.predicate == Iri(vocab.HAS_PATTERN_ID) and q.object == Literal(pattern_id)]
    [quad] = [q for q in store.quads(vocab.CORE_GRAPH) if q.subject == node and q.predicate == Iri(predicate)]
    return quad


def relabelled(quad, text):
    return Quad(quad.subject, quad.predicate, Literal(text), quad.graph)


def test_pattern_one_joins_content_and_filename_labels(pla):
    assert targets(pla, "Input")[0] == "input_data_filename"


def test_pattern_one_reads_its_separator_and_suffix_from_the_kb(kb_store, plan):
    separator = pattern_quad(kb_store, vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME, vocab.HAS_LABEL_SEPARATOR)
    suffix = pattern_quad(kb_store, vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME, vocab.HAS_SUFFIX_LABEL)
    renamed = edited(kb_store, drop=[suffix], add=[relabelled(suffix, "path")])
    assert targets(compose(plan, renamed), "Input")[0] == "input_data_path"
    # Without a separator the label and the suffix are joined by "_".
    assert targets(compose(plan, edited(kb_store, drop=[separator])), "Input")[0] == "input_data_filename"


def test_pattern_two_uses_content_label_alone(pla):
    assert targets(pla, "Input")[1] == "input_data"


@pytest.mark.parametrize("function_iri, expected", [(NUMPY_MEAN, "mean"), (NUMPY_STD, "std")])
def test_pattern_three_uses_the_function_name(pla, function_iri, expected):
    [target] = [p.statement.target for p in pla_section(pla, "Calculate").statements
                if p.statement.function.iri == function_iri]
    assert target == expected


@pytest.mark.parametrize("pattern_id", [vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME,
                                        vocab.PATTERN_FILENAME_ARG_TO_READER,
                                        vocab.PATTERN_ASSIGN_FUNCTION_RETURN])
def test_a_pattern_missing_from_the_kb_raises_unnamed_variable(kb_store, plan, pattern_id):
    quad = pattern_quad(kb_store, pattern_id, vocab.HAS_PATTERN_ID)
    renamed = edited(kb_store, drop=[quad], add=[relabelled(quad, "no-such-pattern")])
    with pytest.raises(UnnamedVariableError, match=f"pattern '{pattern_id}' is not in the knowledge base"):
        compose(plan, renamed)


def test_a_data_source_without_a_content_label_raises_unnamed_variable(kb_store, plan):
    unlabelled = plan._replace(data_source=plan.data_source._replace(content_type_label=None))
    with pytest.raises(UnnamedVariableError, match="filename pattern needs a content type label and a suffix label"):
        compose(unlabelled, kb_store)


@pytest.mark.parametrize("callable_name", ["class", "None", "my mean", "2nd"])
def test_derived_name_that_is_no_identifier_raises_unnamed_variable(kb_store, plan, callable_name):
    with pytest.raises(UnnamedVariableError, match=f"derives {callable_name!r}, which is not a variable name"):
        compose(with_callable_names(plan, callable_name, "std"), kb_store)


@pytest.mark.parametrize("callable_name", ["np", "numpy", "sys"])
def test_derived_name_that_shadows_an_import_raises_unnamed_variable(kb_store, plan, callable_name):
    # numpy's official name and alias, and sys, the exit function's library, are bound by the imports.
    with pytest.raises(UnnamedVariableError, match=f"derives {callable_name!r}, which names an imported library"):
        compose(with_callable_names(plan, "mean", callable_name), kb_store)


def test_collision_policy_appends_numeric_suffixes(kb_store, plan):
    # Calculations resolving to the same callable name must not collide.
    tripled = plan._replace(calculations=(*[plan.calculations[0]] * 3, plan.calculations[1]))
    pla = compose(tripled, kb_store)
    assert targets(pla, "Calculate") == ["mean", "mean_2", "mean_3", "std"]
    labels = [p.statement.label for p in pla_section(pla, "Output").statements]
    assert labels == ["mean", "mean_2", "mean_3", "std"]


def test_a_suffixed_name_skips_a_name_another_variable_derived(kb_store, plan):
    # The third derives "mean_2", which the second took as the first free form of "mean".
    three = with_callable_names(plan._replace(calculations=(plan.calculations[0], *plan.calculations)),
                                "mean", "mean", "mean_2")
    pla = compose(three, kb_store)
    assert targets(pla, "Calculate") == ["mean", "mean_2", "mean_2_2"]
    assert [p.statement.source for p in pla_section(pla, "Output").statements] == ["mean", "mean_2", "mean_2_2"]


def test_a_suffixed_name_skips_a_name_an_import_binds(kb_store, plan):
    exit_function = plan.exit_function._replace(library=plan.exit_function.library._replace(official_name="mean_2"))
    tripled = plan._replace(calculations=(plan.calculations[0],) * 3, exit_function=exit_function)
    assert targets(compose(tripled, kb_store), "Calculate") == ["mean", "mean_3", "mean_4"]


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
