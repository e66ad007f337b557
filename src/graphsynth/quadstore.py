"""In-memory quad store with named graphs and a basic-graph-pattern engine.

The store keeps set semantics (inserting a quad twice is a no-op) and holds
terms, not `Quad` objects: each named graph has two nested permutation
tables, subject -> predicate -> {object} and predicate -> object ->
{subject}, plus its quad count, the graph-prefixed GSPO/GPOS layout of
Hexastore. `objects(s, p, g)`, the read behind every property lookup of one
entity, is three probes into the graph's subject table; `subjects(p, o, g)`,
the read behind every listing of a class's instances, three into its
predicate table.

There is one write path, `_add_all(graph, triples)`, which adds a batch
of (subject, predicate, object) triples to one graph, fetching the graph's
tables once and a subject's row once per run of that subject. It builds
no `Quad` and checks only the name of a graph it creates, so its callers
validate the terms: `insert(quad)`, the public entry, by the `Quad`
constructor; the loader by the Turtle grammar, which builds every term
through its constructor and admits only an IRI or blank subject and an IRI
predicate, one document per call; and the field-table codec `views.write`,
one program graph per call.
`_add_all` and `remove` keep both tables up to date and never leave an
empty inner level. Beside the tables the store keeps one map from each
predicate to the names of the graphs whose POS table holds it, with no
empty entry: `_add_all` adds a graph only where a predicate first enters
its POS table, `remove` takes it out where the predicate's last quad
leaves, and `drop_graph`, which pops the graph's entry from each table,
takes it out for each of the graph's predicates, so it does no work per
quad.

Each graph also has a generation: a count that every batch written or
`remove` that changes the graph, and every `drop_graph`, bumps, and that
is never reset. A value compiled from a graph, such as the knowledge-base
snapshot of `views`, is kept with `keep_snapshot` beside the generation it
was built at, and `snapshot` returns it only while the graph is still at
that generation, so a kept value is never stale. `clone` copies both maps and
shares the kept values, which must be immutable; it copies the predicate
map too.

A basic graph pattern is answered by an index nested-loop join, planned
once per query: each pattern's variables are listed once, as (position,
name) pairs, and a greedy planner orders the patterns, taking next the one
with the fewest free positions, those holding a variable no earlier pattern
binds. The join reuses those lists for every binding. For each partial
binding, `_candidates` puts the bound values into the variable positions
only and walks the permutation whose key order starts with the bound
positions; an object bound with no predicate has no such table, and is
matched by a scan of the subject table that keeps the rows holding it.
Every row it returns matches the bound positions. A graph name, or a graph
variable already bound, visits one graph; a free graph variable visits the
graphs the predicate map names for a bound predicate, and every graph only
when the predicate is free too.

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
from graphsynth.terms import _WHITESPACE, _tuple, Blank, Iri, Literal, Term

_VAR_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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
    """Mutable quad dataset. Single-writer during mutation; reads are pure."""

    def __init__(self):
        # Graph name -> its permutation table: s -> p -> {o}, p -> o -> {s}.
        self._spo: dict[str, dict[Term, dict[Term, set[Term]]]] = {}
        self._pos: dict[str, dict[Term, dict[Term, set[Term]]]] = {}
        self._sizes: dict[str, int] = {}
        # Predicate -> the names of the graphs whose POS table holds it; never an empty set.
        self._graphs_of: dict[Iri, set[str]] = {}
        # Graph name -> its Iri term, built (and validated) once per graph.
        self._graph_terms: dict[str, Iri] = {}
        # Graph name -> its generation, and -> (generation, value compiled from it).
        self._generations: dict[str, int] = {}
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
        and a subject's row once per run of triples with that subject; the
        generation is bumped once if anything was new.
        """
        if not triples:
            return 0
        spo = self._spo.get(graph)
        if spo is None:
            _check_graph(graph)
            spo = self._spo[graph] = {}
            self._pos[graph], self._sizes[graph] = {}, 0
            self._graph_terms[graph] = Iri(graph)
            self._generations.setdefault(graph, 0)
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
                row[p] = {o}
            elif o in objects:
                continue
            else:
                objects.add(o)
            by_object = pos.get(p)
            if by_object is None:
                pos[p] = {o: {s}}
                self._graphs_of.setdefault(p, set()).add(graph)
            else:
                subjects = by_object.get(o)
                if subjects is None:
                    by_object[o] = {s}
                else:
                    subjects.add(s)
            added += 1
        if added:
            self._sizes[graph] += added
            self._generations[graph] += 1
        return added

    def remove(self, quad: Quad) -> bool:
        """Drop a quad; returns True iff it was present."""
        if not isinstance(quad, Quad):
            raise MalformedQuadError(f"expected a Quad, got {type(quad).__name__}")
        if quad not in self:
            return False
        s, p, o, graph = quad
        _discard(self._spo[graph], s, p, o)
        pos = self._pos[graph]
        _discard(pos, p, o, s)
        if p not in pos:
            self._forget(p, graph)
        self._sizes[graph] -= 1
        self._generations[graph] += 1
        if not self._sizes[graph]:
            self.drop_graph(graph)
        return True

    def drop_graph(self, graph: str) -> int:
        """Remove every quad of one graph; returns how many there were."""
        for p in self._pos.pop(graph, ()):
            self._forget(p, graph)
        self._spo.pop(graph, None)
        self._graph_terms.pop(graph, None)
        self._generations[graph] = self.generation(graph) + 1
        return self._sizes.pop(graph, 0)

    def _forget(self, predicate: Iri, graph: str):
        """Drop the graph from the predicate's graphs, once its POS table no longer holds it."""
        graphs = self._graphs_of[predicate]
        graphs.discard(graph)
        if not graphs:
            del self._graphs_of[predicate]

    def generation(self, graph: str) -> int:
        """A count of the graph's changes, never reset: while it stays the same, so do the graph's quads."""
        return self._generations.get(graph, 0)

    def snapshot(self, graph: str):
        """The value last kept for the graph, if the graph has not changed since; else None."""
        entry = self._snapshots.get(graph)
        if entry is not None and entry[0] == self._generations.get(graph, 0):
            return entry[1]
        return None

    def keep_snapshot(self, graph: str, value):
        """Keep an immutable value compiled from the graph as it is now, until the graph changes."""
        self._snapshots[graph] = (self.generation(graph), value)

    def __len__(self) -> int:
        return sum(self._sizes.values())

    def __contains__(self, quad: Quad) -> bool:
        s, p, o, graph = quad
        return o in self._spo.get(graph, {}).get(s, {}).get(p, ())

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
                    for o in objects:
                        yield _tuple(Quad, (s, p, o, name))

    def graph_quads(self, graph: str) -> frozenset[Quad]:
        return frozenset(self.quads(graph))

    def clone(self) -> QuadStore:
        other = QuadStore()
        other._spo, other._pos = _copy_tables(self._spo), _copy_tables(self._pos)
        other._sizes = dict(self._sizes)
        other._graphs_of = {p: set(graphs) for p, graphs in self._graphs_of.items()}
        other._graph_terms = dict(self._graph_terms)
        other._generations = dict(self._generations)
        other._snapshots = dict(self._snapshots)
        return other

    def objects(self, subject: Term, predicate: Term, graph: str) -> list[Term]:
        """Objects of the quads (subject, predicate, ?, graph), in term order.

        The same terms, in the same order, as `match_pattern` binds to ?o for
        the pattern (subject, predicate, ?o, graph).
        """
        return sorted(self._spo.get(graph, {}).get(subject, {}).get(predicate, ()))

    def subjects(self, predicate: Term, object: Term, graph: str) -> list[Term]:
        """Subjects of the quads (?, predicate, object, graph), in term order, from one probe of the POS table.

        The same terms, in the same order, as `match_pattern` binds to ?s for
        the pattern (?s, predicate, object, graph).
        """
        return sorted(self._pos.get(graph, {}).get(predicate, {}).get(object, ()))

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
        partial: list[BindingSet] = [{}]
        plan, names = _plan(patterns)
        for pattern, variables in plan:
            extended: list[BindingSet] = []
            for binding in partial:
                for row in self._candidates(pattern, variables, binding):
                    merged = _unify(variables, row, binding)
                    if merged is not None:
                        extended.append(merged)
            partial = extended
            if not partial:
                return []
        if names:  # with none, there is at most one (empty) binding
            partial.sort(key=itemgetter(*names))  # a term is its own sort key
        return partial

    def _candidates(
        self, pattern: Pattern, variables: list[tuple[int, str]], binding: BindingSet
    ) -> list[tuple[Term, Term, Term, Iri]]:
        """(s, p, o, graph term) of every quad matching the pattern's bound positions.

        `variables` holds the pattern's (position, name) variables; only
        those positions take their value, or None, from the binding. A free
        graph variable visits the graphs that hold the predicate, or every
        graph when the predicate is free too. Each graph visited is read
        through the permutation whose key order begins with the bound
        positions: POS for a predicate bound without a subject, SPO
        otherwise. An object bound with no predicate bound has no table of
        its own: the walk over SPO keeps the rows that hold it.
        """
        key = [*pattern]
        for i, name in variables:
            key[i] = binding.get(name)
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
                by_object = self._pos[name].get(p, {})
                if o is None:
                    rows += [(s_, p, o_, g) for o_, subjects in by_object.items() for s_ in subjects]
                else:
                    rows += [(s_, p, o, g) for s_ in by_object.get(o, ())]
            elif s is None:
                rows += [
                    (s_, p_, o_, g)
                    for s_, by_predicate in self._spo[name].items()
                    for p_, objects in by_predicate.items()
                    for o_ in objects
                    if o is None or o_ == o
                ]
            else:
                by_predicate = self._spo[name].get(s, {})
                if p is None:
                    rows += [(s, p_, o_, g) for p_, objects in by_predicate.items() for o_ in objects
                             if o is None or o_ == o]
                elif o is None:
                    rows += [(s, p, o_, g) for o_ in by_predicate.get(p, ())]
                elif o in by_predicate.get(p, ()):
                    rows.append((s, p, o, g))
        return rows


def _check_graph(graph: str):
    if not graph or not isinstance(graph, str) or _WHITESPACE.search(graph):
        raise MalformedQuadError("quad graph must be a non-empty IRI string")


def _discard(table: dict, a: Term, b: Term, c: Term):
    """Remove the path a -> b -> c from a permutation table, pruning levels left empty."""
    inner = table[a]
    leaves = inner[b]
    leaves.discard(c)
    if not leaves:
        del inner[b]
        if not inner:
            del table[a]


def _copy_tables(tables: dict[str, dict]) -> dict[str, dict]:
    return {
        graph: {a: {b: set(leaves) for b, leaves in inner.items()} for a, inner in table.items()}
        for graph, table in tables.items()
    }


def _plan(patterns: list[Pattern]) -> tuple[list[tuple[Pattern, list[tuple[int, str]]]], list[str]]:
    """Greedy join order, each pattern with its (position, name) variables, found once per query.

    Next comes the pattern with the fewest free positions, those holding a
    variable no earlier pattern binds; ties go in the given order. Also
    returns the names of all the variables, sorted.
    """
    remaining = [(pattern, [(i, pos.name) for i, pos in enumerate(pattern) if isinstance(pos, Var)])
                 for pattern in patterns]
    bound: set[str] = set()
    ordered = []
    while len(remaining) > 1:
        best, fewest = 0, 5
        for k, (_, variables) in enumerate(remaining):
            free = 0
            for _, name in variables:
                if name not in bound:
                    free += 1
            if free < fewest:
                best, fewest = k, free
        entry = remaining.pop(best)
        ordered.append(entry)
        bound.update([name for _, name in entry[1]])
    ordered += remaining  # the last pattern needs no pick
    bound.update([name for _, name in remaining[0][1]])
    return ordered, sorted(bound)


def _unify(
    variables: list[tuple[int, str]], row: tuple[Term, Term, Term, Iri], binding: BindingSet
) -> BindingSet | None:
    """Extend `binding` with the row's value at each (position, name) of a pattern's variables, or None on a clash.

    Concrete positions need no check: `_candidates` returns only rows that match them.
    """
    out = binding
    for i, name in variables:
        value = row[i]
        bound = out.get(name)
        if bound is None:
            if out is binding:
                out = dict(binding)
            out[name] = value
        elif bound != value:
            return None
    return dict(out) if out is binding else out
