"""In-memory quad store with named graphs and a basic-graph-pattern engine.

The store keeps set semantics (inserting a quad twice is a no-op) and holds
terms, not `Quad` objects: each named graph has two nested permutation
tables, subject -> predicate -> objects and predicate -> object ->
subjects, plus its quad count, the graph-prefixed GSPO/GPOS layout of
Hexastore. A leaf of a table that holds one term is the bare term, and only
a leaf of two or more terms is a `set`; `type(leaf) is set` tells them
apart, since a term is a tuple. The form is canonical: a second term turns
a bare leaf into a set, and no term ever leaves a leaf, so two stores
holding the same quads have equal tables, whatever order the quads came
in. Most leaves hold one term, and a bare term costs no set. `row(s, g)`,
the read behind every field of one entity, is two probes into the graph's
subject table and hands back a copy of the subject's row;
`subjects(p, o, g)`, the read behind every listing of a class's
instances, is three probes into its predicate table.

There is one write path, `_add_all(graph, triples)`, which adds a batch
of (subject, predicate, object) triples to one graph, fetching the graph's
tables once and a subject's row once per run of that subject. It builds
no `Quad` and checks only the name of a graph it creates, so its callers
validate the terms: `insert(quad)`, the public entry, by the `Quad`
constructor; the loader by the Turtle grammar, which builds every term
through its constructor and admits only an IRI or blank subject and an IRI
predicate, one document per call; and the program-graph writers of
`composer` and `renderer`, one graph per call, which build every term
through its checking constructor.
`_add_all` keeps both tables up to date. Beside the tables the store keeps
one map from each predicate to the names of the graphs whose POS table
holds it: `_add_all` adds a graph where a predicate first enters its POS
table.

The store is append-only: nothing takes a quad out, so a graph's quad
count rises with every batch that changes the graph and never returns to
an earlier value. The count is thus the graph's generation. A value
compiled from a graph, such as the knowledge-base snapshot of `views`, is
kept with `keep_snapshot` beside the count it was built at, and `snapshot`
returns it only while the graph still holds that many quads, so a kept
value is never stale. `clone` copies the tables and the predicate map and
shares the kept values, which must be immutable.

A basic graph pattern is answered by an index nested-loop join, planned
once per query: a greedy planner takes next the pattern with the fewest
free positions, those holding a variable no earlier pattern binds, and
fixes each pattern's variable roles, so the join decides nothing per
binding. A probe step, whose subject and predicate are bound (by a constant
or an earlier variable), whose graph is named or bound, and whose one new
variable is its object, reads one leaf of the graph's SPO table per
binding. Any other step has `_candidates` read POS for a predicate bound
with no subject, and otherwise take one SPO walk (every subject row or
the bound subject's, then every leaf or the bound predicate's, so an
object bound alone is found by a scan), drops a row whose repeated
variable holds two values, and binds the first occurrence of each new
variable. A graph name, or a graph variable already bound to an IRI,
visits one graph, and one bound to a blank node or a literal none; a free
graph variable visits the graphs the predicate map names for a bound
predicate, and every graph only when the predicate is free too.

The join order decides only how much work is done, never what comes out:
every result binds all variables of the query, so two distinct results
differ in some variable's value, and the final sort on those values (in
variable-name order, by the total order on terms, which is the terms' own
tuple order) gives the same list whatever the plan, insertion order or
hash order was.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from graphsynth.errors import MalformedQuadError
from graphsynth.terms import _tuple, Blank, Iri, Literal, Term

_VAR_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NO_ROWS: dict = {}  # the table of a graph or subject the store does not hold; never written


class _QuadFields(tuple):
    """The fields a quad and a pattern share, as the tuple (subject, predicate, object, graph).

    Like a term, each record is a tuple whose constructor checks its fields
    in `__new__`, and whose fields read back under their names. Equality,
    hashing and order are the tuple's, so a quad also equals the pattern,
    or the bare tuple, with the same items: the store's entry points check
    the class. Copy and pickle rebuild a record through its constructor.
    """

    __slots__ = ()

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))
    graph = property(itemgetter(3))

    def __reduce__(self):
        return self.__class__, tuple(self)

    def __repr__(self):
        s, p, o, g = self
        return f"{self.__class__.__name__}(subject={s!r}, predicate={p!r}, object={o!r}, graph={g!r})"


class Quad(_QuadFields):
    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term, graph: str):
        if isinstance(subject, Literal):
            raise MalformedQuadError(f"quad subject may not be a literal: {subject!r}")
        if not isinstance(subject, (Iri, Blank)):
            raise MalformedQuadError(f"quad subject must be an IRI or blank node: {subject!r}")
        if not isinstance(predicate, Iri):
            raise MalformedQuadError(f"quad predicate must be an IRI: {predicate!r}")
        if not isinstance(object, (Iri, Blank, Literal)):
            raise MalformedQuadError(f"quad object must be a term: {object!r}")
        _check_graph(graph)
        return _tuple(cls, (subject, predicate, object, graph))


class Var(tuple):
    """A named variable usable in any pattern position, as the tuple (3, name).

    The tag 3 follows the terms' kind tags, so a variable equals no term,
    and being a tuple, no graph-name string either.
    """

    __slots__ = ()

    def __new__(cls, name: str):
        if not _VAR_NAME.match(name):
            raise MalformedQuadError(f"variable name must be an identifier, got {name!r}")
        return _tuple(cls, (3, name))

    name = property(itemgetter(1))

    def __reduce__(self):
        return self.__class__, self[1:]

    def __repr__(self):
        return f"?{self.name}"


class Pattern(_QuadFields):
    """One quad pattern; the same variable name in two positions is a join constraint."""

    __slots__ = ()

    def __new__(cls, subject: Term | Var, predicate: Term | Var, object: Term | Var, graph: str | Var):
        for name, pos in (("subject", subject), ("predicate", predicate), ("object", object)):
            if not isinstance(pos, (Iri, Blank, Literal, Var)):
                raise MalformedQuadError(f"pattern {name} must be a term or a variable: {pos!r}")
        if not isinstance(graph, (str, Var)):
            raise MalformedQuadError(f"pattern graph must be a graph name or a variable: {graph!r}")
        return _tuple(cls, (subject, predicate, object, graph))

    def variables(self) -> set[str]:
        return {pos.name for pos in self if isinstance(pos, Var)}


# A binding set maps every variable of the originating pattern(s) to a term.
# Graph-position variables bind to the graph name as an Iri term.
BindingSet = dict[str, Term]


class QuadStore:
    """Append-only quad dataset. Single writer while adding; reads are pure."""

    def __init__(self):
        # Graph name -> its permutation table: s -> p -> objects, p -> o -> subjects; a one-term leaf is the bare term.
        self._spo: dict[str, dict[Term, dict[Term, Term | set[Term]]]] = {}
        self._pos: dict[str, dict[Term, dict[Term, Term | set[Term]]]] = {}
        self._sizes: dict[str, int] = {}
        # Predicate -> the names of the graphs whose POS table holds it; never an empty set.
        self._graphs_of: dict[Iri, set[str]] = {}
        # Graph name -> its Iri term, built (and validated) once per graph.
        self._graph_terms: dict[str, Iri] = {}
        # Graph name -> (its quad count, value compiled from it at that count).
        self._snapshots: dict[str, tuple[int, object]] = {}

    def insert(self, quad: Quad) -> bool:
        """Add a quad; returns True iff it was not already present."""
        if not isinstance(quad, Quad):
            raise MalformedQuadError(f"expected a Quad, got {type(quad).__name__}")
        return self._add_all(quad.graph, (quad[:3],)) == 1

    def _add_all(self, graph: str, triples: Sequence[tuple[Term, Iri, Term]]) -> int:
        """Add (subject, predicate, object) triples to one graph; returns how many were new.

        The terms are not checked, only the name of a graph this creates:
        the caller has validated them. The graph's tables are fetched once,
        and a subject's row once per run of triples with that subject.
        """
        if not triples:
            return 0
        spo = self._spo.get(graph)
        if spo is None:
            _check_graph(graph)
            spo = self._spo[graph] = {}
            self._pos[graph], self._sizes[graph] = {}, 0
            self._graph_terms[graph] = Iri(graph)
        pos = self._pos[graph]
        added = 0
        subject = row = None
        for s, p, o in triples:
            if s is not subject:
                subject = s
                row = spo.get(s)
                if row is None:
                    row = spo[s] = {}
            objects = row.get(p)
            if objects is None:
                row[p] = o
            elif type(objects) is set:
                if o in objects:
                    continue
                objects.add(o)
            elif objects == o:
                continue
            else:
                row[p] = {objects, o}
            by_object = pos.get(p)
            if by_object is None:
                pos[p] = {o: s}
                self._graphs_of.setdefault(p, set()).add(graph)
            else:
                subjects = by_object.get(o)
                if subjects is None:
                    by_object[o] = s
                elif type(subjects) is set:
                    subjects.add(s)
                else:
                    by_object[o] = {subjects, s}
            added += 1
        self._sizes[graph] += added
        return added

    def snapshot(self, graph: str):
        """The value last kept for the graph, if the graph has gained no quad since; else None."""
        entry = self._snapshots.get(graph)
        if entry is not None and entry[0] == self._sizes.get(graph, 0):
            return entry[1]
        return None

    def keep_snapshot(self, graph: str, value):
        """Keep an immutable value compiled from the graph as it is now, until the graph gains a quad."""
        self._snapshots[graph] = (self._sizes.get(graph, 0), value)

    def __len__(self) -> int:
        return sum(self._sizes.values())

    def __contains__(self, quad: Quad) -> bool:
        s, p, o, graph = quad
        objects = self._spo.get(graph, _NO_ROWS).get(s, _NO_ROWS).get(p)
        return o in objects if type(objects) is set else objects == o

    def graph_size(self, graph: str) -> int:
        return self._sizes.get(graph, 0)

    def graph_names(self) -> list[str]:
        return sorted(self._spo)

    def quads(self, graph: str | None = None) -> Iterator[Quad]:
        """Every quad of one graph, or of all; built unchecked, from the checked terms the store holds."""
        names = self._spo if graph is None else (graph,) if graph in self._spo else ()
        for name in names:
            for s, by_predicate in self._spo[name].items():
                for p, objects in by_predicate.items():
                    if type(objects) is set:
                        for o in objects:
                            yield _tuple(Quad, (s, p, o, name))
                    else:
                        yield _tuple(Quad, (s, p, objects, name))

    def clone(self) -> QuadStore:
        other = QuadStore()
        other._spo, other._pos = _copy_tables(self._spo), _copy_tables(self._pos)
        other._sizes = dict(self._sizes)
        other._graphs_of = {p: set(graphs) for p, graphs in self._graphs_of.items()}
        other._graph_terms = dict(self._graph_terms)
        other._snapshots = dict(self._snapshots)
        return other

    def row(self, subject: Term, graph: str) -> dict[Term, tuple[Term, ...]]:
        """Each predicate of the quads (subject, ?, ?, graph), with the tuple of its objects in term order.

        A predicate's objects are the terms `match_pattern` binds to ?o for
        the pattern (subject, predicate, ?o, graph), in the same order; a
        subject the graph does not hold has an empty row. A leaf of one
        bare term becomes a 1-tuple, a set of terms a sorted tuple. The dict
        and its tuples are new, so no caller can change the store through them.
        """
        by_predicate = self._spo.get(graph, _NO_ROWS).get(subject, _NO_ROWS)
        return {p: tuple(sorted(objects)) if type(objects) is set else (objects,) for p, objects in by_predicate.items()}

    def subjects(self, predicate: Term, object: Term, graph: str) -> list[Term]:
        """Subjects of the quads (?, predicate, object, graph), in term order, from one probe of the POS table.

        The same terms, in the same order, as `match_pattern` binds to ?s for
        the pattern (?s, predicate, object, graph). The leaf probed is one
        bare subject, a set of two or more, or absent; the list is new.
        """
        subjects = self._pos.get(graph, _NO_ROWS).get(predicate, _NO_ROWS).get(object)
        if type(subjects) is set:
            return sorted(subjects)
        return [] if subjects is None else [subjects]

    def match_pattern(self, pattern: Pattern) -> list[BindingSet]:
        """All bindings under which the pattern matches some quad, in deterministic order."""
        return self._join([pattern])

    def query_bgp(self, patterns: Iterable[Pattern]) -> list[BindingSet]:
        """Natural join of the per-pattern matches on shared variable names."""
        patterns = list(patterns)
        if not patterns:
            raise ValueError("query_bgp requires at least one pattern")
        return self._join(patterns)

    def _join(self, patterns: list[Pattern]) -> list[BindingSet]:
        """Index nested-loop join in planned order, sorted on all variables."""
        for pattern in patterns:
            if not isinstance(pattern, Pattern):
                raise MalformedQuadError(f"expected a Pattern, got {type(pattern).__name__}")
        partial: list[BindingSet] = [{}]
        plan, names = _plan(patterns)
        for template, bound, firsts, repeats, probe in plan:
            extended: list[BindingSet] = []
            for binding in partial:
                key = template.copy()
                for i, name in bound:
                    key[i] = binding[name]
                if probe is not None:  # one read of the (s, p) leaf in SPO; its objects are the new values
                    s, p, _, graph = key
                    if not isinstance(graph, str):  # a bound graph variable: an Iri names its graph, a blank or literal none
                        graph = graph.value if isinstance(graph, Iri) else None
                    objects = self._spo.get(graph, _NO_ROWS).get(s, _NO_ROWS).get(p)
                    if type(objects) is set:
                        extended += [{**binding, probe: o} for o in objects]
                    elif objects is not None:
                        extended.append({**binding, probe: objects})
                    continue
                for row in self._candidates(key):
                    for i, j in repeats:
                        if row[i] != row[j]:
                            break
                    else:
                        merged = binding.copy()
                        for i, name in firsts:
                            merged[name] = row[i]
                        extended.append(merged)
            partial = extended
            if not partial:
                return []
        if names:  # with none, there is at most one (empty) binding
            partial.sort(key=itemgetter(*names))  # a term is its own sort key
        return partial

    def _candidates(self, key: list) -> list[tuple[Term, Term, Term, Iri]]:
        """(s, p, o, graph term) of every quad matching the bound positions of key, [s, p, o, graph].

        A free position holds None. A free graph visits the graphs that hold
        the predicate, or every graph when the predicate is free too; a
        graph name, or a bound graph variable's term, visits that one graph.
        Each graph visited is read through the permutation whose key order
        begins with the bound positions: POS for a predicate bound without a
        subject, SPO otherwise. SPO is read by one walk: every subject row,
        or the bound subject's; in it every leaf, or the bound predicate's.
        A set leaf is filtered by a bound object and a bare leaf compared
        with it, so an object bound with no predicate, which has no table of
        its own, is found by the walk over every row.
        """
        s, p, o, graph = key
        if graph is None:
            names = self._spo if p is None else self._graphs_of.get(p, ())
        elif isinstance(graph, str):
            names = (graph,) if graph in self._spo else ()
        else:
            # A graph variable bound to an Iri names its graph; one bound to a blank or literal names none.
            names = (graph.value,) if isinstance(graph, Iri) and graph.value in self._spo else ()
        rows: list[tuple[Term, Term, Term, Iri]] = []
        for name in names:
            g = self._graph_terms[name]
            if p is not None and s is None:
                by_object = self._pos[name].get(p, _NO_ROWS)
                if o is None:
                    for o_, subjects in by_object.items():
                        if type(subjects) is set:
                            rows += [(s_, p, o_, g) for s_ in subjects]
                        else:
                            rows.append((subjects, p, o_, g))
                else:
                    subjects = by_object.get(o)
                    if type(subjects) is set:
                        rows += [(s_, p, o, g) for s_ in subjects]
                    elif subjects is not None:
                        rows.append((subjects, p, o, g))
            else:
                spo = self._spo[name]
                for s_, by_predicate in spo.items() if s is None else ((s, spo.get(s, _NO_ROWS)),):
                    for p_, objects in by_predicate.items() if p is None else ((p, by_predicate.get(p)),):
                        if type(objects) is set:
                            if o is None:
                                rows += [(s_, p_, o_, g) for o_ in objects]
                            elif o in objects:
                                rows.append((s_, p_, o, g))
                        elif objects is not None and (o is None or objects == o):
                            rows.append((s_, p_, objects, g))
        return rows


def _check_graph(graph: str):
    if not isinstance(graph, str) or graph.split() != [graph]:  # empty, or holding whitespace
        raise MalformedQuadError("quad graph must be a non-empty IRI string")


def _copy_tables(tables: dict[str, dict]) -> dict[str, dict]:
    return {
        graph: {
            a: {b: leaves.copy() if type(leaves) is set else leaves for b, leaves in inner.items()}
            for a, inner in table.items()
        }
        for graph, table in tables.items()
    }


def _plan(patterns: list[Pattern]) -> tuple[list[tuple[list, list, list, list, str | None]], list[str]]:
    """Greedy join order, each pattern's variable roles fixed once per query; and all variable names, sorted.

    Next comes the pattern with the fewest free positions; ties go in the
    given order. A step is (template, bound, firsts, repeats, probe): the
    pattern with None at each variable; the (position, name) variables an
    earlier step binds; the first (position, name) of each new variable;
    the (position, first position) of each repeat of one; and the object's
    name if it is the one new variable (a probe step), else None.
    """
    remaining = [*patterns]
    # Variable name -> its first position in the pattern being planned, or None once an earlier step binds it.
    known: dict[str, int | None] = {}
    steps = []
    while remaining:
        best = 0
        if len(remaining) > 1:
            fewest = 5
            for k, pattern in enumerate(remaining):
                free = 0
                for pos in pattern:
                    if isinstance(pos, Var) and pos[1] not in known:
                        free += 1
                if free < fewest:
                    best, fewest = k, free
        pattern = remaining.pop(best)
        template, bound, firsts, repeats = [*pattern], [], [], []
        for i, pos in enumerate(pattern):
            if isinstance(pos, Var):
                template[i], name = None, pos[1]
                if name not in known:
                    known[name] = i
                    firsts.append((i, name))
                elif known[name] is None:
                    bound.append((i, name))
                else:
                    repeats.append((i, known[name]))
        for _, name in firsts:
            known[name] = None
        probe = firsts[0][1] if len(firsts) == 1 and firsts[0][0] == 2 and not repeats else None
        steps.append((template, bound, firsts, repeats, probe))
    return steps, sorted(known)
