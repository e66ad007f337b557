"""RDF-style terms: IRIs, literals, and blank nodes.

Each term is a tuple whose first item names its kind: `Iri(v)` is
`(0, v)`, `Blank(i)` is `(1, i)` and `Literal(lexical, datatype, tag)` is
`(2, lexical, datatype, tag or "")`; the fields read back under their
names. Equality, hashing and order are the tuple's, computed in C. Terms
compare by structure only: two literals are equal iff their lexical form,
datatype, and language tag are all equal ("1.0" and "1.00" are distinct
terms even as xsd:decimal). The tuple order (IRI < blank < literal, then
field-wise lexicographic) is the total order that makes every query result
and serialization deterministic, so a term is its own sort key.

The constructors check their fields in `__new__`, and copy and pickle
rebuild a term through them. A bare tuple is no term, yet it equals the
term with the same items, so whatever takes terms from a caller (`Quad`,
`Pattern`) checks their classes, and the program-graph writers build every
term through its constructor.
"""

from __future__ import annotations

import re
from operator import itemgetter

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

# A simple label: no whitespace, no leading or trailing '.'. It is a blank
# node's id, serialized as _:id, and the non-empty local part of a prefixed
# name; the Turtle lexer reads both with this pattern.
LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
_BLANK_ID = re.compile(LABEL)
_tuple = tuple.__new__


class Iri(tuple):
    """An IRI, as the tuple (0, value)."""

    __slots__ = ()

    def __new__(cls, value: str):
        if not isinstance(value, str):
            raise MalformedTermError(f"IRI must be a string, got {value!r}")
        if not value:
            raise MalformedTermError("IRI must be non-empty")
        if value.split() != [value]:  # str.split breaks at exactly the characters the regex \s matches
            raise MalformedTermError(f"IRI contains whitespace: {value!r}")
        return _tuple(cls, (0, value))

    value = property(itemgetter(1))

    def __reduce__(self):
        return self.__class__, self[1:]

    def __repr__(self):
        return f"<{self.value}>"


class Blank(tuple):
    """A blank node, as the tuple (1, id)."""

    __slots__ = ()

    def __new__(cls, id: str):
        if not isinstance(id, str) or not _BLANK_ID.fullmatch(id):
            raise MalformedTermError(f"blank node id must be a simple label, got {id!r}")
        return _tuple(cls, (1, id))

    id = property(itemgetter(1))

    def __reduce__(self):
        return self.__class__, self[1:]

    def __repr__(self):
        return f"_:{self.id}"


class Literal(tuple):
    """A literal, as the tuple (2, lexical, datatype, language tag or "")."""

    __slots__ = ()

    def __new__(cls, lexical: str, datatype: str = XSD_STRING, language_tag: str | None = None):
        if not isinstance(lexical, str):
            raise MalformedTermError(f"literal lexical form must be a string, got {lexical!r}")
        if not isinstance(datatype, str) or not datatype:
            raise MalformedTermError(f"literal must carry a datatype IRI, got {datatype!r}")
        if language_tag is not None:
            if not isinstance(language_tag, str):
                raise MalformedTermError(f"language tag must be a string, got {language_tag!r}")
            if datatype != RDF_LANG_STRING:
                raise MalformedTermError("language-tagged literal must use the rdf langString datatype")
            if not language_tag:
                # An empty tag would be the same tuple as no tag at all.
                raise MalformedTermError("language tag must be non-empty")
        return _tuple(cls, (2, lexical, datatype, language_tag or ""))

    lexical = property(itemgetter(1))
    datatype = property(itemgetter(2))
    language_tag = property(lambda self: self[3] or None)

    def __reduce__(self):
        return self.__class__, (self.lexical, self.datatype, self.language_tag)

    def __repr__(self):
        if self.language_tag is not None:
            return f"{self.lexical!r}@{self.language_tag}"
        if self.datatype == XSD_STRING:
            return repr(self.lexical)
        return f"{self.lexical!r}^^<{self.datatype}>"


Term = Iri | Literal | Blank


_SMALL_INTEGERS = tuple(Literal(str(value), XSD_INTEGER) for value in range(256))


def integer_literal(value: int) -> Literal:
    """The xsd:integer literal of an int; one literal is shared for each of 0..255."""
    if type(value) is not int:  # a bool is an int, but its str() is no integer
        raise MalformedTermError(f"integer literal must be built from an int, got {value!r}")
    if 0 <= value < len(_SMALL_INTEGERS):
        return _SMALL_INTEGERS[value]
    return Literal(str(value), XSD_INTEGER)
