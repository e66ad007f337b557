from __future__ import annotations

import pytest

from graphsynth import vocab, views
from graphsynth.errors import KbValidationError
from graphsynth.quadstore import Quad, QuadStore
from graphsynth.resolver import _functions
from graphsynth.seed import fixture_path, load_kb
from graphsynth.terms import (
    RDF_LANG_STRING, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER, Blank, Iri, Literal, integer_literal,
)
from graphsynth.turtle import serialize
from graphsynth.views import check_kb

from conftest import (
    ARITHMETIC_MEAN, ASCII_ENCODING, CSV_FORMAT, DIMENSIONLESS_SAMPLE, FILE_CONTAINER, FLOATING_POINT_DATATYPE,
    GOLDEN_DIR, LIBRARY_KIND_EXTERNAL, LIBRARY_KIND_STDLIB, MYINPUT, NUMPY_LIBRARY, READ_CSV_FLOAT_FILE,
    STANDARD_DEVIATION, SYS_LIBRARY, edited, insert_turtle,
)

TEST_HEADER = """\
@prefix gs: <http://graphsynth.dev/vocab/core#> .
@prefix kb: <http://graphsynth.dev/kb/> .
@prefix x: <http://t.example/> .
"""

# A second well-formed Python assign-expr form, beside the shipped kb:py_assign_expr.
ZFORM = """\
@prefix gs: <http://graphsynth.dev/vocab/core#> .
@prefix x: <http://t.example/> .
x:zform a gs:StatementForm ;
    gs:hasVariationId "assign-expr" ;
    gs:forLanguageFamily "Python" ;
    gs:hasTemplateSlot x:zform_s0 , x:zform_s1 , x:zform_s2 .
x:zform_s0 a gs:TemplateSlot ; gs:hasSlotIndex 0 ; gs:hasSlotField "target" .
x:zform_s1 a gs:TemplateSlot ; gs:hasSlotIndex 1 ; gs:hasSlotText "=" .
x:zform_s2 a gs:TemplateSlot ; gs:hasSlotIndex 2 ; gs:hasSlotField "expression" .
"""
ZFORM_PROBLEM = ("statement forms of assign-expr for Python: expected exactly 1, found 2: "
                 "kb:py_assign_expr, <http://t.example/zform>")


def test_a_fresh_load_of_the_shipped_kb_serializes_to_the_core_golden():
    store, _ = load_kb()
    assert serialize(store, vocab.CORE_GRAPH) == (GOLDEN_DIR / "core.ttl").read_text(encoding="utf-8")


def test_myinput_metadata_matches_shipped_shape(seed_kb):
    store, _ = seed_kb
    [ds] = views.kb(store).data_sources["my_input.txt"]
    assert ds.iri == MYINPUT
    assert ds.format == CSV_FORMAT
    assert ds.encoding == ASCII_ENCODING
    assert ds.container == FILE_CONTAINER
    assert ds.value_datatype == FLOATING_POINT_DATATYPE
    assert ds.value_datatype_numeric
    assert ds.header_rows == 0
    assert ds.data_rows == 6
    assert ds.values_per_row == 1
    assert ds.quantity_type == DIMENSIONLESS_SAMPLE
    assert ds.content_type_label == "input_data"


def test_missing_data_source_name_gives_empty_view(seed_kb):
    store, _ = seed_kb
    assert "missing.txt" not in views.kb(store).data_sources


def test_duplicate_named_sources_are_both_returned(kb_store):
    insert_turtle(
        kb_store,
        TEST_HEADER
        + """x:other a gs:DataSource ; gs:hasName "my_input.txt" ; gs:hasDataRowCount 1 ; gs:hasValuesPerRow 1 ;
    gs:hasContainer kb:file_container ;
    gs:hasFormat kb:csv_format ;
    gs:hasEncoding kb:ascii_encoding ;
    gs:hasValueDatatype kb:floating_point_datatype ;
    gs:hasHeaderRowCount 0 ;
    gs:hasQuantityKind kb:dimensionless_sample ;
    gs:hasLocation "other.txt" .""",
    )
    assert len(views.kb(kb_store).data_sources["my_input.txt"]) == 2


def test_view_over_a_half_described_data_source_names_the_missing_property(kb_store):
    insert_turtle(kb_store, TEST_HEADER + 'x:half a gs:DataSource ; gs:hasName "half.txt" ; gs:hasContainer kb:file_container .')
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert "<http://t.example/half> gs:hasFormat: expected exactly 1 value, found 0" in raised.value.problems
    assert raised.value.problems == check_kb(kb_store)


@pytest.mark.parametrize(
    "label, expected",
    [
        ("average value", "arithmetic_mean"),
        ("average value variation", "standard_deviation"),
    ],
)
def test_algorithm_lookup_by_output_label(seed_kb, label, expected):
    store, _ = seed_kb
    [alg] = views.kb(store).algorithms_by_label[label]
    assert alg.name == expected
    assert alg.min_input_count == 2
    assert alg.input_numeric and alg.inputs_same_quantity
    assert alg.output_arity == 1
    assert alg.time_complexity == "O(n)"


def test_unknown_label_matches_nothing(seed_kb):
    store, _ = seed_kb
    assert "median" not in views.kb(store).algorithms_by_label


@pytest.mark.parametrize(
    "purpose, expected",
    [
        (ARITHMETIC_MEAN, "numpy.mean"),
        (STANDARD_DEVIATION, "numpy.std"),
        (READ_CSV_FLOAT_FILE, "numpy.loadtxt"),
        (vocab.ACTION_PROGRAM_EXIT, "sys.exit"),
    ],
)
def test_code_function_lookup_by_purpose(seed_kb, purpose, expected):
    store, _ = seed_kb
    [fn] = views.kb(store).functions_by_purpose[purpose, "Python"]
    assert fn.qualified_name == expected


def test_library_preference_filters_functions(seed_kb):
    store, _ = seed_kb
    kb = views.kb(store)
    assert _functions(kb, ARITHMETIC_MEAN, "Python", "numpy")
    assert _functions(kb, ARITHMETIC_MEAN, "Python", "scipy") == []


def test_numpy_carries_alias_sys_does_not(seed_kb):
    store, _ = seed_kb
    numpy = views.kb(store).libraries[NUMPY_LIBRARY]
    system = views.kb(store).libraries[SYS_LIBRARY]
    assert (numpy.official_name, numpy.alias, numpy.kind) == ("numpy", "np", LIBRARY_KIND_EXTERNAL)
    assert (system.official_name, system.alias, system.kind) == ("sys", None, LIBRARY_KIND_STDLIB)


def test_exactly_one_structure_satisfies_the_exemplar_requirements(seed_kb):
    store, _ = seed_kb
    wanted = {"read input data", "calculate quantity", "report result"}
    matching = [s for s in views.kb(store).structures if wanted <= s.satisfied_requirements]
    assert len(matching) == 1
    assert matching[0].name == "Input_Calculate_Output"


def test_structure_orderings_are_permutations(seed_kb):
    store, _ = seed_kb
    for structure in views.kb(store).structures:
        emission = structure.emission_order()
        composition = structure.composition_order()
        assert sorted(emission) == sorted(composition)
        assert emission == vocab.EMISSION_ORDER
        assert composition == vocab.COMPOSITION_ORDER


def test_every_algorithm_has_a_python_implementation(seed_kb):
    store, _ = seed_kb
    kb = views.kb(store)
    for alg in kb.algorithms:
        assert kb.functions_by_purpose[alg.iri, "Python"], alg.name


def test_check_kb_is_clean_on_shipped_kb(seed_kb):
    store, _ = seed_kb
    assert check_kb(store) == []


def test_check_kb_flags_unimplemented_algorithm(kb_store):
    insert_turtle(
        kb_store,
        TEST_HEADER + 'x:lonely a gs:Algorithm ; gs:hasName "lonely" ; gs:hasOutputDescriptionLabel "nothing" .',
    )
    problems = check_kb(kb_store)
    assert any("lonely" in p for p in problems)


def test_check_kb_flags_well_shaped_algorithm_without_python_implementation(kb_store):
    insert_turtle(
        kb_store,
        TEST_HEADER
        + """\
x:unimplemented a gs:Algorithm ;
    gs:hasName "unimplemented" ;
    gs:hasOutputDescriptionLabel "nothing" ;
    gs:hasMinInputCount 1 ;
    gs:requiresNumericInput true ;
    gs:requiresSameQuantityKind false ;
    gs:hasOutputArity 1 ;
    gs:hasOutputQuantity kb:same_as_input_quantity ;
    gs:hasTimeComplexity "O(n)" .
""",
    )
    assert check_kb(kb_store) == ["algorithm unimplemented has no implementing Python code function"]


def test_check_kb_asks_an_implementation_in_each_language_family_that_has_statement_forms(kb_store):
    insert_turtle(
        kb_store,
        TEST_HEADER
        + """\
x:fortran_assign a gs:StatementForm ;
    gs:hasVariationId "assign-expr" ;
    gs:forLanguageFamily "Fortran" ;
    gs:hasTemplateSlot x:fortran_assign_s0 , x:fortran_assign_s1 , x:fortran_assign_s2 .
x:fortran_assign_s0 a gs:TemplateSlot ;
    gs:hasSlotIndex 0 ;
    gs:hasSlotField "target" .
x:fortran_assign_s1 a gs:TemplateSlot ;
    gs:hasSlotIndex 1 ;
    gs:hasSlotText " = " .
x:fortran_assign_s2 a gs:TemplateSlot ;
    gs:hasSlotIndex 2 ;
    gs:hasSlotField "expression" .
""",
    )
    assert check_kb(kb_store) == [
        "algorithm arithmetic_mean has no implementing Fortran code function",
        "algorithm standard_deviation has no implementing Fortran code function",
    ]


def _kb_quad(subject: str, predicate: str, obj) -> Quad:
    return Quad(Iri(vocab.KB + subject), Iri(predicate), obj, vocab.CORE_GRAPH)


def _orphan(slot: str) -> str:
    return f"kb:{slot}: expected exactly 1 owner by gs:hasTemplateSlot, found 0"


def _field_slots(form: str, found: list[str], expected: str) -> str:
    return f"kb:{form} gs:hasTemplateSlot: field slots {found}, expected the fields of {expected}"


def _adjacent(form: str, before: str, after: str) -> str:
    return f"kb:{form} gs:hasTemplateSlot: field slots {before} and {after} are adjacent, with no slot text between them"


# Each of the first four deletions left the example emitting a broken program
# with exit 0 while check_kb found nothing: `import numpynp`, a bare `sys`, a
# call with no callee, and `print()`. Each also leaves the unlinked slot with
# no owner, each call-stmt deletion a form with a field slot short, and the
# import-aliased deletion its two fields with no text between them.
@pytest.mark.parametrize(
    "removed, added, problems",
    [
        ([_kb_quad("py_import_aliased", vocab.HAS_TEMPLATE_SLOT, Iri(vocab.KB + "py_import_aliased_s2"))], [],
         ["kb:py_import_aliased gs:hasTemplateSlot: slot indexes [0, 1, 3] do not run 0..2",
          _orphan("py_import_aliased_s2"), _adjacent("py_import_aliased", "official_name", "alias")]),
        ([_kb_quad("py_import_plain", vocab.HAS_TEMPLATE_SLOT, Iri(vocab.KB + "py_import_plain_s0"))], [],
         ["kb:py_import_plain gs:hasTemplateSlot: slot indexes [1] do not run 0..0", _orphan("py_import_plain_s0")]),
        ([_kb_quad("py_call_stmt", vocab.HAS_TEMPLATE_SLOT, Iri(vocab.KB + "py_call_stmt_s0"))], [],
         ["kb:py_call_stmt gs:hasTemplateSlot: slot indexes [1, 2, 3] do not run 0..2", _orphan("py_call_stmt_s0"),
          _field_slots("py_call_stmt", ["arguments"], "call-stmt: ['callee', 'arguments']")]),
        ([_kb_quad("py_call_stmt", vocab.HAS_TEMPLATE_SLOT, Iri(vocab.KB + "py_call_stmt_s2"))], [],
         ["kb:py_call_stmt gs:hasTemplateSlot: slot indexes [0, 1, 3] do not run 0..2", _orphan("py_call_stmt_s2"),
          _field_slots("py_call_stmt", ["callee"], "call-stmt: ['callee', 'arguments']")]),
        ([_kb_quad("numpy_mean_arg0", vocab.HAS_SLOT_INDEX, integer_literal(0))],
         [_kb_quad("numpy_mean_arg0", vocab.HAS_SLOT_INDEX, integer_literal(1))],
         ["kb:numpy_mean gs:hasArgumentSlot: slot indexes [1] do not run 0..0"]),
    ],
    ids=["import-aliased-s2", "import-plain-s0", "call-stmt-s0", "call-stmt-s2", "argument-index-1"],
)
def test_check_kb_flags_slot_indexes_that_do_not_run_from_0_to_n_minus_1(kb_store, removed, added, problems):
    assert all(quad in kb_store for quad in removed) and not any(quad in kb_store for quad in added)
    kb_store = edited(kb_store, removed, added)
    assert check_kb(kb_store) == problems
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == problems


@pytest.mark.parametrize(
    "added, problems",
    [
        ('kb:loose_s0 a gs:TemplateSlot ; gs:hasSlotIndex 0 ; gs:hasSlotText "x" .',
         ["kb:loose_s0: expected exactly 1 owner by gs:hasTemplateSlot, found 0"]),
        ("kb:loose_arg0 a gs:ArgumentSlot ; gs:hasSlotIndex 0 ; gs:hasSlotRole kb:role_input_data .",
         ["kb:loose_arg0: expected exactly 1 owner by gs:hasArgumentSlot, found 0"]),
        ("kb:py_import_aliased gs:hasTemplateSlot kb:py_import_plain_s1 .",
         ["kb:py_import_aliased gs:hasTemplateSlot: slot index 1 is held by kb:py_import_aliased_s1, "
          "kb:py_import_plain_s1",
          "kb:py_import_plain_s1: expected exactly 1 owner by gs:hasTemplateSlot, found 2: "
          "kb:py_import_aliased, kb:py_import_plain",
          _field_slots("py_import_aliased", ["alias", "official_name", "official_name"],
                       "import-aliased: ['official_name', 'alias']"),
          _adjacent("py_import_aliased", "official_name", "official_name")]),
        ("kb:numpy_std gs:hasArgumentSlot kb:numpy_mean_arg0 .",
         ["kb:numpy_std gs:hasArgumentSlot: slot index 0 is held by kb:numpy_mean_arg0, kb:numpy_std_arg0",
          "kb:numpy_mean_arg0: expected exactly 1 owner by gs:hasArgumentSlot, found 2: kb:numpy_mean, kb:numpy_std"]),
    ],
    ids=["orphan-template-slot", "orphan-argument-slot", "shared-template-slot", "shared-argument-slot"],
)
def test_check_kb_flags_a_slot_with_no_owner_or_several(kb_store, added, problems):
    insert_turtle(kb_store, TEST_HEADER + added)
    assert check_kb(kb_store) == problems
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == problems


@pytest.mark.parametrize("cls", ["DataSource", "CodeFunction", "TemplateSlot"])
def test_check_kb_flags_a_blank_node_typed_with_a_shaped_class(kb_store, cls):
    insert_turtle(kb_store, TEST_HEADER + f"_:x a gs:{cls} .")
    problems = [f"_:x: expected an IRI for an instance of gs:{cls}, found a blank node"]
    assert check_kb(kb_store) == problems
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == problems


def test_check_kb_flags_two_statement_forms_of_one_variation_and_family(kb_store):
    # Each form alone is well formed; before this check the later one in IRI order was filled without a word.
    insert_turtle(kb_store, ZFORM)
    assert check_kb(kb_store) == [ZFORM_PROBLEM]
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == [ZFORM_PROBLEM]


# Each quote, and the literal as a problem shows it; the double quote is the one other safe character tried.
@pytest.mark.parametrize("quote, shown", [("' ", '"\' "'), ("''", '"\'\'"'), ("x", '"x"'), ("\\", '"\\\\"'), ('"', None)],
                         ids=["quote-space", "two-quotes", "word", "backslash", "double-quote"])
def test_check_kb_takes_only_one_safe_character_as_the_string_quote(kb_store, quote, shown):
    language, predicate = Iri(vocab.kb("python_3_8")), Iri(vocab.HAS_STRING_LITERAL_QUOTE)
    dropped = Quad(language, predicate, Literal("'"), vocab.CORE_GRAPH)
    assert dropped in kb_store
    kb_store = edited(kb_store, [dropped], [Quad(language, predicate, Literal(quote), vocab.CORE_GRAPH)])
    if shown is None:
        assert check_kb(kb_store) == []
        return
    problem = ("kb:python_3_8 gs:hasStringLiteralQuote: expected one character that is no word character, "
               f"whitespace or backslash, found {shown}")
    assert check_kb(kb_store) == [problem]
    with pytest.raises(KbValidationError) as raised:
        views.kb(kb_store)
    assert raised.value.problems == [problem]


def test_check_kb_flags_function_without_library(kb_store):
    insert_turtle(kb_store, TEST_HEADER + 'x:orphan a gs:CodeFunction ; gs:hasCallableName "orphan" .')
    problems = check_kb(kb_store)
    assert any("orphan" in p for p in problems)


def test_load_kb_validate_raises_on_broken_kb(tmp_path):
    kb = tmp_path / "kb"
    kb.mkdir()
    (kb / "core.ttl").write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix gs: <http://graphsynth.dev/vocab/core#> .\n"
        "@prefix x: <http://t.example/> .\n"
        "<http://t.example/core> a owl:Ontology .\n"
        'x:alg a gs:Algorithm ; gs:hasName "bare" .\n'
    )
    (kb / "catalog.tsv").write_text("<http://t.example/core>\tcore.ttl\n")
    with pytest.raises(KbValidationError):
        load_kb(kb)


def test_no_raw_data_values_in_the_kb(seed_kb):
    store, _ = seed_kb
    fixture_values = {line.strip() for line in fixture_path().read_text().splitlines() if line.strip()}
    lexicals = {
        quad.object.lexical
        for quad in store.quads(vocab.CORE_GRAPH)
        if isinstance(quad.object, Literal)
    }
    assert fixture_values.isdisjoint(lexicals)
    decimal_typed = [
        quad
        for quad in store.quads(vocab.CORE_GRAPH)
        if isinstance(quad.object, Literal) and quad.object.datatype == XSD_DECIMAL
    ]
    assert decimal_typed == []


def test_location_is_a_pointer_to_the_shipped_fixture(seed_kb):
    store, _ = seed_kb
    [ds] = views.kb(store).data_sources["my_input.txt"]
    assert (fixture_path().parent / ds.location).read_text().splitlines()[0] == "1.0"


_NODE, _P, _G = Iri("http://t.example/node"), Iri("http://t.example/p"), "http://t.example/g"
_MEMBER, _CLASS = Iri("http://t.example/member"), "http://t.example/Class"
_VALUES = (
    Literal("x"), Literal("a.b"), Literal("a.1b"), Literal("1"), Literal("x", RDF_LANG_STRING, "en"),
    Literal("7", XSD_INTEGER), Literal("-07", XSD_INTEGER), Literal("7.0", XSD_INTEGER), Literal("7", XSD_DECIMAL),
    Literal("true", XSD_BOOLEAN), Literal("false", XSD_BOOLEAN), Literal("1", XSD_BOOLEAN), Literal("true"),
    _MEMBER, Iri("http://t.example/stranger"), Blank("b1"),
)


@pytest.mark.parametrize("kind", [views.STR, views.NAME, views.INT, views.BOOL, views.IRI, views.NODE, _CLASS])
@pytest.mark.parametrize("low", [0, 1])
def test_one_value_of_a_single_valued_field_reads_as_in_a_many_valued_one(kind, low):
    # `read` takes a shortcut for the one value of a single-valued field: it must read and report as the general path.
    members = {_CLASS: {_MEMBER}}
    for value in _VALUES:
        store = QuadStore()
        store.insert(Quad(_NODE, _P, value, _G))
        single_problems, many_problems = [], []
        single = views.read(store, _G, (("f", _P, kind, low, 1),), _NODE, single_problems, members)
        many = views.read(store, _G, (("f", _P, kind, low, views.MANY),), _NODE, many_problems, members)
        assert single_problems == many_problems, value
        assert single == {name: values[0] for name, values in many.items()}, value
        assert bool(single) != bool(single_problems), value


_STRANGER = Iri("http://t.example/stranger")
# Kind, a term of it, two terms not of it (in term order), what a kind problem expects, and how each bad term prints.
_KIND_CASES = [
    (views.STR, Literal("x"), (Literal("7", XSD_INTEGER), Literal("x", RDF_LANG_STRING, "en")),
     "a string literal", ("7", '"x"@en')),
    (views.NAME, Literal("a.b"), (Blank("b1"), Literal("a.1b")), "a dotted identifier", ("_:b1", '"a.1b"')),
    (views.INT, Literal("7", XSD_INTEGER), (Literal("7", XSD_DECIMAL), Literal("7.0", XSD_INTEGER)),
     "an integer literal", ('"7"^^xsd:decimal', '"7.0"^^xsd:integer')),
    (views.BOOL, Literal("true", XSD_BOOLEAN), (Literal("1", XSD_BOOLEAN), Literal("true")),
     "a boolean literal", ('"1"^^xsd:boolean', '"true"')),
    (views.IRI, _STRANGER, (Blank("b1"), Literal("x")), "an IRI", ("_:b1", '"x"')),
    (views.NODE, Blank("b1"), (Literal("7", XSD_INTEGER), Literal("x")), "an IRI or blank node", ("7", '"x"')),
    (_CLASS, _MEMBER, (_STRANGER, Blank("b1")), "an instance of <http://t.example/Class>",
     ("<http://t.example/stranger>", "_:b1")),
]


@pytest.mark.parametrize("kind, good, bad, expected, found", _KIND_CASES,
                         ids=["STR", "NAME", "INT", "BOOL", "IRI", "NODE", "class"])
def test_read_lists_a_count_problem_then_one_kind_problem_per_bad_term_in_term_order(kind, good, bad, expected, found):
    where = "<http://t.example/node> <http://t.example/p>"
    kind_problems = [f"{where}: expected {expected}, found {text}" for text in found]

    def problems_of(terms, high):
        store = QuadStore()
        store._add_all(_G, [(_NODE, _P, term) for term in reversed(terms)])  # the row, not the writes, gives the order
        problems = []
        assert views.read(store, _G, (("f", _P, kind, 1, high),), _NODE, problems, {_CLASS: {_MEMBER}}) == {}
        return problems

    assert problems_of([bad[0]], 1) == kind_problems[:1]
    assert problems_of([good, bad[0]], 1) == [f"{where}: expected exactly 1 value, found 2", kind_problems[0]]
    assert problems_of([good, bad[0]], views.MANY) == kind_problems[:1]
    assert problems_of([good, *bad], 1) == [f"{where}: expected exactly 1 value, found 3", *kind_problems]
    assert problems_of([*bad, good], views.MANY) == kind_problems
    assert problems_of([*bad], views.MANY) == kind_problems
