"""In-memory quad store with named graphs and a basic-graph-pattern engine.

The store keeps set semantics (inserting a quad twice is a no-op) and four
hash indexes, all kept up to date by `insert` and `remove`: the subject
index maps a subject to its predicates and each of those to the quads
holding that pair, the predicate and object indexes map a term to the quads
holding it there, and the per-graph sets map a graph name to its quads.
`objects(s, p, g)` and its functional form `value(s, p, g)`, the reads
behind every property lookup of one entity, are two probes into the nested
subject index plus a graph filter.

A basic graph pattern is answered by an index nested-loop join. Before the
loop a greedy planner orders the patterns: next comes the one with the most
positions bound, either by a concrete term or by a variable an earlier
pattern binds. For each partial binding, `_candidates` substitutes the
bound variables into the pattern, looks up every bound position in its
index and unifies only the quads of the smallest bucket; a bound subject
and predicate together take their shared bucket of the subject index. A
pattern with no bound position scans the whole store.

The join order decides only how much work is done, never what comes out:
every result binds all variables of the query, so two distinct results
differ in some variable's value, and the final sort on those values (in
variable-name order, by the total order on terms) gives the same list
whatever the plan, insertion order or hash order was.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from graphsynth.errors import CardinalityError, MalformedQuadError
from graphsynth.terms import _WHITESPACE, Blank, Iri, Literal, Term, sort_key

_VAR_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True, slots=True)
class Quad:
    subject: Term
    predicate: Term
    object: Term
    graph: str

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise MalformedQuadError(f"quad subject may not be a literal: {self.subject!r}")
        if not isinstance(self.subject, (Iri, Blank)):
            raise MalformedQuadError(f"quad subject must be an IRI or blank node: {self.subject!r}")
        if not isinstance(self.predicate, Iri):
            raise MalformedQuadError(f"quad predicate must be an IRI: {self.predicate!r}")
        if not isinstance(self.object, (Iri, Blank, Literal)):
            raise MalformedQuadError(f"quad object must be a term: {self.object!r}")
        if not self.graph or not isinstance(self.graph, str) or _WHITESPACE.search(self.graph):
            raise MalformedQuadError("quad graph must be a non-empty IRI string")


@dataclass(frozen=True, slots=True)
class Var:
    """A named variable usable in any pattern position."""

    name: str

    def __post_init__(self):
        if not _VAR_NAME.match(self.name):
            raise MalformedQuadError(f"variable name must be an identifier, got {self.name!r}")

    def __repr__(self):
        return f"?{self.name}"


@dataclass(frozen=True, slots=True)
class Pattern:
    """One quad pattern; the same variable name in two positions is a join constraint."""

    subject: Term | Var
    predicate: Term | Var
    object: Term | Var
    graph: str | Var

    def variables(self) -> set[str]:
        names = set()
        for pos in (self.subject, self.predicate, self.object, self.graph):
            if isinstance(pos, Var):
                names.add(pos.name)
        return names


# A binding set maps every variable of the originating pattern(s) to a term.
# Graph-position variables bind to the graph name as an Iri term.
BindingSet = dict[str, Term]


def _binding_order_key(variables: list[str]):
    def key(binding: BindingSet) -> tuple:
        return tuple(sort_key(binding[name]) for name in variables)

    return key


class QuadStore:
    """Mutable quad dataset. Single-writer during mutation; reads are pure."""

    def __init__(self):
        self._graphs: dict[str, set[Quad]] = {}
        self._by_subject: dict[Term, dict[Term, set[Quad]]] = {}
        self._by_predicate: dict[Term, set[Quad]] = {}
        self._by_object: dict[Term, set[Quad]] = {}
        # Graph name -> its Iri term, built (and validated) once per graph.
        self._graph_terms: dict[str, Iri] = {}

    def _indexes(self, quad: Quad) -> tuple[tuple[dict, object], ...]:
        """The flat indexes and the quad's key in each; the subject index is nested."""
        return (
            (self._graphs, quad.graph),
            (self._by_subject.setdefault(quad.subject, {}), quad.predicate),
            (self._by_predicate, quad.predicate),
            (self._by_object, quad.object),
        )

    def insert(self, quad: Quad) -> bool:
        """Add a quad; returns True iff it was not already present."""
        if not isinstance(quad, Quad):
            raise MalformedQuadError(f"expected a Quad, got {type(quad).__name__}")
        if quad in self:
            return False
        if quad.graph not in self._graph_terms:
            self._graph_terms[quad.graph] = Iri(quad.graph)
        for index, key in self._indexes(quad):
            index.setdefault(key, set()).add(quad)
        return True

    def remove(self, quad: Quad) -> bool:
        """Drop a quad; returns True iff it was present."""
        if quad not in self:
            return False
        for index, key in self._indexes(quad):
            bucket = index[key]
            bucket.discard(quad)
            if not bucket:
                del index[key]
        if not self._by_subject[quad.subject]:
            del self._by_subject[quad.subject]
        if quad.graph not in self._graphs:
            del self._graph_terms[quad.graph]
        return True

    def drop_graph(self, graph: str) -> int:
        """Remove every quad of one graph through `remove`; returns how many there were."""
        quads = list(self._graphs.get(graph, ()))
        for quad in quads:
            self.remove(quad)
        return len(quads)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._graphs.values())

    def __contains__(self, quad: Quad) -> bool:
        return quad in self._graphs.get(quad.graph, ())

    def graph_size(self, graph: str) -> int:
        return len(self._graphs.get(graph, ()))

    def graph_names(self) -> list[str]:
        return sorted(self._graphs)

    def quads(self, graph: str | None = None) -> Iterator[Quad]:
        if graph is not None:
            yield from self._graphs.get(graph, ())
            return
        for bucket in self._graphs.values():
            yield from bucket

    def graph_quads(self, graph: str) -> frozenset[Quad]:
        return frozenset(self._graphs.get(graph, ()))

    def clone(self) -> QuadStore:
        other = QuadStore()
        other._graphs = _copy_index(self._graphs)
        other._by_subject = {subject: _copy_index(inner) for subject, inner in self._by_subject.items()}
        other._by_predicate = _copy_index(self._by_predicate)
        other._by_object = _copy_index(self._by_object)
        other._graph_terms = dict(self._graph_terms)
        return other

    def objects(self, subject: Term, predicate: Term, graph: str) -> list[Term]:
        """Objects of the quads (subject, predicate, ?, graph), in term order.

        The same terms, in the same order, as `match_pattern` binds to ?o for
        the pattern (subject, predicate, ?o, graph).
        """
        bucket = self._by_subject.get(subject, {}).get(predicate, ())
        return sorted((quad.object for quad in bucket if quad.graph == graph), key=sort_key)

    def value(self, subject: Term, predicate: Term, graph: str) -> Term | None:
        """The one object of the quads (subject, predicate, ?, graph), or None if there is none.

        A functional property read: more than one object raises CardinalityError.
        """
        bucket = self._by_subject.get(subject, {}).get(predicate, ())
        found = [quad.object for quad in bucket if quad.graph == graph]
        if len(found) > 1:
            raise CardinalityError(f"{subject!r} {predicate!r} has {len(found)} values in graph {graph}, expected 1")
        return found[0] if found else None

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
        graph_terms = self._graph_terms
        for pattern in _plan(patterns):
            extended: list[BindingSet] = []
            for binding in partial:
                for quad in self._candidates(pattern, binding):
                    merged = _unify(pattern, quad, graph_terms[quad.graph], binding)
                    if merged is not None:
                        extended.append(merged)
            partial = extended
            if not partial:
                return []
        variables = sorted(set().union(*(p.variables() for p in patterns)))
        partial.sort(key=_binding_order_key(variables))
        return partial

    def _candidates(self, pattern: Pattern, binding: BindingSet) -> Iterable[Quad]:
        """The smallest index bucket over the pattern's bound positions."""
        subject, predicate, obj, graph = [
            binding.get(pos.name) if isinstance(pos, Var) else pos
            for pos in (pattern.subject, pattern.predicate, pattern.object, pattern.graph)
        ]
        if isinstance(graph, Iri):
            # A bound graph variable; a blank or literal there names no graph.
            graph = graph.value
        best: Iterable[Quad] | None = None
        best_size = 0
        if subject is not None:
            by_predicate = self._by_subject.get(subject)
            if by_predicate is None:
                return ()
            if predicate is None:
                best = itertools.chain.from_iterable(by_predicate.values())
                best_size = sum(map(len, by_predicate.values()))
            else:
                best = by_predicate.get(predicate)
                if best is None:
                    return ()
                best_size = len(best)
                # The (subject, predicate) bucket lies inside the predicate's.
                predicate = None
        for key, index in ((predicate, self._by_predicate), (obj, self._by_object), (graph, self._graphs)):
            if key is None:
                continue
            bucket = index.get(key)
            if bucket is None:
                return ()
            if best is None or len(bucket) < best_size:
                best, best_size = bucket, len(bucket)
        if best is None:
            return itertools.chain.from_iterable(self._graphs.values())
        return best


def _copy_index(index: dict) -> dict:
    return {key: set(bucket) for key, bucket in index.items()}


def _plan(patterns: list[Pattern]) -> list[Pattern]:
    """Greedy join order: most bound positions next, ties in the given order."""
    remaining = list(patterns)
    bound: set[str] = set()
    ordered = []
    while remaining:
        best = max(remaining, key=lambda p: _bound_positions(p, bound))
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


def _bound_positions(pattern: Pattern, bound: set[str]) -> int:
    return sum(
        1
        for pos in (pattern.subject, pattern.predicate, pattern.object, pattern.graph)
        if not isinstance(pos, Var) or pos.name in bound
    )


def _unify(pattern: Pattern, quad: Quad, graph_term: Iri, binding: BindingSet) -> BindingSet | None:
    """Extend `binding` so the pattern matches the quad, or None if impossible."""
    out = binding
    for pos, value in (
        (pattern.subject, quad.subject),
        (pattern.predicate, quad.predicate),
        (pattern.object, quad.object),
        (pattern.graph, graph_term),
    ):
        if isinstance(pos, Var):
            bound = out.get(pos.name)
            if bound is None:
                if out is binding:
                    out = dict(binding)
                out[pos.name] = value
            elif bound != value:
                return None
        elif isinstance(pos, str):
            # Concrete graph position, compared as a name.
            if pos != quad.graph:
                return None
        elif pos != value:
            return None
    return dict(out) if out is binding else out
