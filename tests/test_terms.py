"""Value semantics of the hand-written immutable records: terms, quads and patterns."""

from __future__ import annotations

import copy
import pickle

import pytest

from graphsynth.errors import MalformedQuadError, MalformedTermError
from graphsynth.quadstore import Pattern, Quad, Var
from graphsynth.terms import RDF_LANG_STRING, XSD_INTEGER, XSD_STRING, Blank, Iri, Literal

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


@pytest.mark.parametrize("make", RECORDS, ids=RECORD_IDS)
def test_fields_cannot_be_assigned_or_deleted(make):
    record = make()
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


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
    ],
)
def test_malformed_terms_raise(build, message):
    with pytest.raises(MalformedTermError, match=message):
        build()


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
