"""RDF-style terms: IRIs, literals, and blank nodes.

Terms compare by structure only: two literals are equal iff their lexical
form, datatype, and language tag are all equal ("1.0" and "1.00" are
distinct terms even as xsd:decimal). A total order over terms (IRI < blank
< literal, then field-wise lexicographic) makes every query result and
serialization deterministic.
"""

from __future__ import annotations

import re

from graphsynth.errors import MalformedTermError

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF + "type"
RDF_LANG_STRING = RDF + "langString"
OWL_ONTOLOGY = OWL + "Ontology"
OWL_IMPORTS = OWL + "imports"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_BOOLEAN = XSD + "boolean"

_WHITESPACE = re.compile(r"\s")
# Simple label: no whitespace, no leading/trailing '.', serializes as _:id.
_BLANK_ID = re.compile(r"^[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")


class _Frozen:
    """Base of the immutable `__slots__` records: fields are set once, in `__init__`.

    Records compare and hash by their fields, and only with records of the
    same class. Terms, quads, variables and patterns write out their own
    `__eq__` and `__hash__`, faster than these: terms key every store table
    and patterns are compared while a query is planned. Assigning or
    deleting a field raises AttributeError; copy and pickle rebuild a
    record from its fields, through `__init__` and its checks.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


# Sets a field of a `_Frozen` record from inside its `__init__`.
_set = object.__setattr__


class Iri(_Frozen):
    __slots__ = ("value",)

    def __init__(self, value: str):
        if not value:
            raise MalformedTermError("IRI must be non-empty")
        if _WHITESPACE.search(value):
            raise MalformedTermError(f"IRI contains whitespace: {value!r}")
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"<{self.value}>"


class Literal(_Frozen):
    __slots__ = ("lexical", "datatype", "language_tag")

    def __init__(self, lexical: str, datatype: str = XSD_STRING, language_tag: str | None = None):
        if not datatype:
            raise MalformedTermError("literal must carry a datatype IRI")
        if language_tag is not None and datatype != RDF_LANG_STRING:
            raise MalformedTermError("language-tagged literal must use the rdf langString datatype")
        if language_tag == "":
            # An empty tag would share its sort key with no tag at all.
            raise MalformedTermError("language tag must be non-empty")
        _set(self, "lexical", lexical)
        _set(self, "datatype", datatype)
        _set(self, "language_tag", language_tag)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.lexical == other.lexical
                and self.datatype == other.datatype
                and self.language_tag == other.language_tag
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.lexical, self.datatype, self.language_tag))

    def __repr__(self):
        if self.language_tag is not None:
            return f"{self.lexical!r}@{self.language_tag}"
        if self.datatype == XSD_STRING:
            return repr(self.lexical)
        return f"{self.lexical!r}^^<{self.datatype}>"


class Blank(_Frozen):
    __slots__ = ("id",)

    def __init__(self, id: str):
        if not _BLANK_ID.match(id):
            raise MalformedTermError(f"blank node id must be a simple label, got {id!r}")
        _set(self, "id", id)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.id == other.id
        return NotImplemented

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"_:{self.id}"


Term = Iri | Literal | Blank


def integer_literal(value: int) -> Literal:
    return Literal(str(value), XSD_INTEGER)


def sort_key(term: Term) -> tuple:
    """Total order: IRIs, then blanks, then literals; lexicographic within each."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, Blank):
        return (1, term.id)
    return (2, term.lexical, term.datatype, term.language_tag or "")
