"""RDF-style terms: IRIs, literals, and blank nodes.

Terms compare by structure only: two literals are equal iff their lexical
form, datatype, and language tag are all equal ("1.0" and "1.00" are
distinct terms even as xsd:decimal). A total order over terms (IRI < blank
< literal, then field-wise lexicographic) makes every query result and
serialization deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from graphsynth.errors import MalformedTermError

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF + "type"
RDF_LANG_STRING = RDF + "langString"
RDFS_LABEL = RDFS + "label"
OWL_ONTOLOGY = OWL + "Ontology"
OWL_IMPORTS = OWL + "imports"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_BOOLEAN = XSD + "boolean"

_WHITESPACE = re.compile(r"\s")
# Simple label: no whitespace, no leading/trailing '.', serializes as _:id.
_BLANK_ID = re.compile(r"^[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")


@dataclass(frozen=True, slots=True)
class Iri:
    value: str

    def __post_init__(self):
        if not self.value:
            raise MalformedTermError("IRI must be non-empty")
        if _WHITESPACE.search(self.value):
            raise MalformedTermError(f"IRI contains whitespace: {self.value!r}")

    def __repr__(self):
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    language_tag: str | None = None

    def __post_init__(self):
        if not self.datatype:
            raise MalformedTermError("literal must carry a datatype IRI")
        if self.language_tag is not None and self.datatype != RDF_LANG_STRING:
            raise MalformedTermError("language-tagged literal must use the rdf langString datatype")
        if self.language_tag == "":
            # An empty tag would share its sort key with no tag at all.
            raise MalformedTermError("language tag must be non-empty")

    def __repr__(self):
        if self.language_tag is not None:
            return f"{self.lexical!r}@{self.language_tag}"
        if self.datatype == XSD_STRING:
            return repr(self.lexical)
        return f"{self.lexical!r}^^<{self.datatype}>"


@dataclass(frozen=True, slots=True)
class Blank:
    id: str

    def __post_init__(self):
        if not _BLANK_ID.match(self.id):
            raise MalformedTermError(f"blank node id must be a simple label, got {self.id!r}")

    def __repr__(self):
        return f"_:{self.id}"


Term = Iri | Literal | Blank


def integer_literal(value: int) -> Literal:
    return Literal(str(value), XSD_INTEGER)


def decimal_literal(lexical: str) -> Literal:
    return Literal(lexical, XSD_DECIMAL)


def boolean_literal(value: bool) -> Literal:
    return Literal("true" if value else "false", XSD_BOOLEAN)


def sort_key(term: Term) -> tuple:
    """Total order: IRIs, then blanks, then literals; lexicographic within each."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, Blank):
        return (1, term.id)
    return (2, term.lexical, term.datatype, term.language_tag or "")
