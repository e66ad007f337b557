"""Value semantics of the immutable records: terms, quads and patterns."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphsynth import views
from graphsynth.errors import MalformedQuadError, MalformedTermError
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.terms import RDF_LANG_STRING, XSD_INTEGER, XSD_STRING, Blank, Iri, Literal, integer_literal

from oracles import term_key

G = "http://x/g"
S, P, O = Iri("http://x/s"), Iri("http://x/p"), Iri("http://x/o")

# One record of each class, and a twin built separately from the same fields.
RECORDS = [
    lambda: Iri("http://x/a"),
    lambda: Literal("hi", RDF_LANG_STRING, "en"),
    lambda: Literal("1", XSD_INTEGER),
    lambda: Blank("b1"),
    lambda: Quad(S, P, Literal("v"), G),
    lambda: Var("x"),
    lambda: Pattern(Var("s"), P, O, Var("g")),
]
RECORD_IDS = ["iri", "lang-literal", "typed-literal", "blank", "quad", "var", "pattern"]


def test_terms_of_different_kinds_never_compare_equal():
    iri, blank, literal = Iri("x"), Blank("x"), Literal("x")
    assert iri != blank and blank != iri
    assert iri != literal and literal != iri
    assert blank != literal and literal != blank
    assert len({iri, blank, literal}) == 3
    # Nor does any term equal its bare text.
    assert iri != "x" and blank != "x" and literal != "x"


def test_literals_differ_by_datatype_and_language_tag():
    assert Literal("1") != Literal("1", XSD_INTEGER)
    assert Literal("hi", RDF_LANG_STRING, "en") != Literal("hi", RDF_LANG_STRING, "de")
    assert Literal("1.0", XSD_INTEGER) != Literal("1.00", XSD_INTEGER)


def test_plain_literal_defaults_to_xsd_string_without_a_tag():
    literal = Literal("1")
    assert literal.datatype == XSD_STRING
    assert literal.language_tag is None
    assert literal == Literal("1", XSD_STRING) == Literal(lexical="1", datatype=XSD_STRING, language_tag=None)


@pytest.mark.parametrize("make", RECORDS, ids=RECORD_IDS)
def test_equal_records_hash_equal_and_survive_copy_and_pickle(make):
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


# The field names of each record class. Every record is a tuple and keeps
# no slot of its own: its fields are read-only properties over the tuple.
FIELDS = {
    Iri: ("value",),
    Blank: ("id",),
    Literal: ("lexical", "datatype", "language_tag"),
    Quad: ("subject", "predicate", "object", "graph"),
    Var: ("name",),
    Pattern: ("subject", "predicate", "object", "graph"),
}


@pytest.mark.parametrize("make", RECORDS, ids=RECORD_IDS)
def test_fields_cannot_be_assigned_or_deleted(make):
    record = make()
    for field in FIELDS[type(record)]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "record, text",
    [
        (Iri("http://x/a"), "<http://x/a>"),
        (Literal("a'b"), '"a\'b"'),
        (Literal("1", XSD_INTEGER), "'1'^^<http://www.w3.org/2001/XMLSchema#integer>"),
        (Literal("hi", RDF_LANG_STRING, "en"), "'hi'@en"),
        (Blank("b1"), "_:b1"),
        (Var("x"), "?x"),
        (
            Quad(S, P, Literal("v"), G),
            "Quad(subject=<http://x/s>, predicate=<http://x/p>, object='v', graph='http://x/g')",
        ),
        (
            Pattern(Var("s"), P, O, Var("g")),
            "Pattern(subject=?s, predicate=<http://x/p>, object=<http://x/o>, graph=?g)",
        ),
    ],
    ids=["iri", "string-literal", "typed-literal", "lang-literal", "blank", "var", "quad", "pattern"],
)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Iri(""), "IRI must be non-empty"),
        (lambda: Iri("http://x/a b"), "IRI contains whitespace"),
        (lambda: Iri("http://x/a\nb"), "IRI contains whitespace"),
        (lambda: Literal("x", ""), "literal must carry a datatype IRI"),
        (lambda: Literal("x", XSD_STRING, "en"), "language-tagged literal must use the rdf langString datatype"),
        (lambda: Literal("x", RDF_LANG_STRING, ""), "language tag must be non-empty"),
        (lambda: Blank(""), "blank node id must be a simple label"),
        (lambda: Blank("a b"), "blank node id must be a simple label"),
        (lambda: Blank(".a"), "blank node id must be a simple label"),
        (lambda: Blank("a."), "blank node id must be a simple label"),
        # A field of another type is no term, even where str() would make one.
        (lambda: Iri(5), "IRI must be a string, got 5"),
        (lambda: Iri(b"http://x/a"), "IRI must be a string"),
        (lambda: Blank(5), "blank node id must be a simple label, got 5"),
        (lambda: Literal(5), "literal lexical form must be a string, got 5"),
        (lambda: Literal(None), "literal lexical form must be a string"),
        (lambda: Literal("x", Iri(XSD_INTEGER)), "literal must carry a datatype IRI, got <"),
        (lambda: Literal("x", RDF_LANG_STRING, 5), "language tag must be a string, got 5"),
        (lambda: integer_literal(True), "integer literal must be built from an int, got True"),
        (lambda: integer_literal("5"), "integer literal must be built from an int, got '5'"),
        (lambda: integer_literal(5.0), "integer literal must be built from an int, got 5.0"),
    ],
)
def test_malformed_terms_raise(build, message):
    with pytest.raises(MalformedTermError, match=message):
        build()


def test_integer_literals_of_0_to_255_are_shared_and_all_equal_a_built_literal():
    for value in (*range(-3, 260), 10**20, -(10**20)):
        literal = integer_literal(value)
        assert type(literal) is Literal and literal == Literal(str(value), XSD_INTEGER)
        assert (integer_literal(value) is literal) is (0 <= value <= 255)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Quad(Literal("s"), P, O, G), "quad subject may not be a literal"),
        (lambda: Quad("http://x/s", P, O, G), "quad subject must be an IRI or blank node"),
        (lambda: Quad(Var("s"), P, O, G), "quad subject must be an IRI or blank node"),
        (lambda: Quad(S, Blank("p"), O, G), "quad predicate must be an IRI"),
        (lambda: Quad(S, Literal("p"), O, G), "quad predicate must be an IRI"),
        (lambda: Quad(S, P, "o", G), "quad object must be a term"),
        (lambda: Quad(S, P, O, ""), "quad graph must be a non-empty IRI string"),
        (lambda: Quad(S, P, O, Iri(G)), "quad graph must be a non-empty IRI string"),
        (lambda: Quad(S, P, O, "http://x/a g"), "quad graph must be a non-empty IRI string"),
        (lambda: Var(""), "variable name must be an identifier"),
        (lambda: Var("1x"), "variable name must be an identifier"),
        (lambda: Var("a-b"), "variable name must be an identifier"),
    ],
)
def test_malformed_quads_and_variables_raise(build, message):
    with pytest.raises(MalformedQuadError, match=message):
        build()


# Terms over a few characters, so that equal fields, and the same text in
# terms of different kinds, come up often.
_iris = st.text("ab:/é", min_size=1, max_size=3).map(Iri)
_blanks = st.text("ab1_", min_size=1, max_size=3).map(Blank)
_lexicals = st.text("ab1 é", max_size=3)
_literals = st.one_of(
    st.builds(Literal, _lexicals, st.sampled_from([XSD_STRING, XSD_INTEGER, RDF_LANG_STRING, "a"])),
    st.builds(Literal, _lexicals, st.just(RDF_LANG_STRING), st.sampled_from(["en", "de", "en-GB"])),
)
_terms = st.one_of(_iris, _blanks, _literals)


@given(st.lists(_terms, max_size=12))
def test_terms_sort_as_the_explicit_key_orders_them(terms):
    assert sorted(terms) == sorted(terms, key=term_key)
    for a, b in zip(terms, terms[1:]):
        assert (a < b) is (term_key(a) < term_key(b))
        assert (a == b) is (term_key(a) == term_key(b))


@given(_terms, _terms)
def test_terms_are_equal_only_within_a_kind_and_hash_with_their_equality(a, b):
    if type(a) is not type(b):
        assert a != b and not a == b
    if a == b:
        assert hash(a) == hash(b)
    assert {a: 1}.get(b) == (1 if a == b else None)


@given(_terms)
def test_terms_survive_copy_and_pickle_with_their_class_and_fields(term):
    pickled = [pickle.loads(pickle.dumps(term, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(term), copy.deepcopy(term), *pickled):
        assert type(twin) is type(term) and twin == term and hash(twin) == hash(term)
        assert term_key(twin) == term_key(term)
        assert repr(twin) == repr(term)


@given(_terms)
def test_a_bare_tuple_is_no_term(term):
    bare = tuple(term)
    assert bare == term and type(bare) is tuple  # equal as tuples, which is why each entry point checks the class
    s, p, g = Iri("http://x/s"), Iri("http://x/p"), "http://x/g"
    # A variable is the tuple (3, name): it equals no term and no graph name,
    # and a pattern refuses the bare tuple (3, name) in its place.
    var, bare_var = Var("x"), (3, "x")
    assert var == bare_var and type(bare_var) is tuple
    assert var != term and term != var
    for other in (Iri("x"), Blank("x"), Literal("x"), "x"):
        assert var != other and other != var
    assert len({var, Iri("x"), Blank("x"), Literal("x"), "x"}) == 5
    for build in (
        lambda: Quad(bare, p, term, g),
        lambda: Quad(s, bare, term, g),
        lambda: Quad(s, p, bare, g),
        lambda: Pattern(bare, Var("p"), Var("o"), g),
        lambda: Pattern(Var("s"), bare, Var("o"), g),
        lambda: Pattern(Var("s"), Var("p"), bare, g),
        lambda: Pattern(Var("s"), Var("p"), Var("o"), bare),
        lambda: Pattern(bare_var, p, term, g),
        lambda: Pattern(s, bare_var, term, g),
        lambda: Pattern(s, p, bare_var, g),
        lambda: Pattern(s, p, term, bare_var),
    ):
        with pytest.raises(MalformedQuadError):
            build()
    store = QuadStore()
    link = (("link", p, views.NODE, 1, 1),)
    for build in (
        lambda: views.write(store, g, [((), bare, {})]),
        lambda: views.write(store, g, [((("link", bare, views.NODE, 1, 1),), s, {"link": s})]),
        lambda: views.write(store, g, [(link, s, {"link": bare})]),
    ):
        with pytest.raises(MalformedQuadError):
            build()
    assert len(store) == 0
    # The store takes and drops only a Quad, never the bare tuple equal to one.
    quad = Quad(s, p, term, g)
    store.insert(quad)
    for bare_quad in (tuple(quad), (s, p, Iri("http://x/other"), g)):
        assert type(bare_quad) is tuple
        for method in (store.insert, store.remove):
            with pytest.raises(MalformedQuadError, match="expected a Quad, got tuple"):
                method(bare_quad)
    assert store.graph_quads(g) == {quad} and len(store) == 1
