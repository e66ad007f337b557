"""Independent reference implementations the tests check the engine against.

Everything here is deliberately written from scratch against the documented
contracts, not by calling into the package's own query machinery.
"""

from __future__ import annotations

import random

from graphsynth.quadstore import Pattern, Quad, Var
from graphsynth.terms import Blank, Iri, Literal


def term_key(term):
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, Blank):
        return (1, term.id)
    return (2, term.lexical, term.datatype, term.language_tag or "")


def binding_key(variables):
    return lambda binding: tuple(term_key(binding[name]) for name in variables)


def _match_position(pos, value, binding):
    """Positions: concrete term/graph-name compares by equality, Var binds."""
    if isinstance(pos, Var):
        if pos.name in binding:
            return binding if binding[pos.name] == value else None
        extended = dict(binding)
        extended[pos.name] = value
        return extended
    if isinstance(pos, str):
        return binding if isinstance(value, Iri) and value.value == pos else None
    return binding if pos == value else None


def match_oracle(pattern: Pattern, quad: Quad, binding: dict) -> dict | None:
    env = binding
    for pos, value in (
        (pattern.subject, quad.subject),
        (pattern.predicate, quad.predicate),
        (pattern.object, quad.object),
        (pattern.graph, Iri(quad.graph)),
    ):
        env = _match_position(pos, value, env)
        if env is None:
            return None
    return env


def nested_loop_join(quads: list[Quad], patterns: list[Pattern]) -> list[dict]:
    """Plain nested-loop join over the full quad list, no indexes, no pruning tricks."""
    results: list[dict] = []

    def walk(depth: int, binding: dict):
        if depth == len(patterns):
            results.append(dict(binding))
            return
        for quad in quads:
            extended = match_oracle(patterns[depth], quad, binding)
            if extended is not None:
                walk(depth + 1, extended)

    walk(0, {})
    return results


def expected_order(patterns: list[Pattern], bindings: list[dict]) -> list[dict]:
    """The documented deterministic order: sort on bound terms, variables in name order."""
    variables = sorted(set().union(*(p.variables() for p in patterns)))
    return sorted(bindings, key=binding_key(variables))


def objects_oracle(quads: list[Quad], subject, predicate, graph: str) -> list:
    """Objects of every quad matching (subject, predicate, ?, graph), in term order."""
    found = [q.object for q in quads if q.subject == subject and q.predicate == predicate and q.graph == graph]
    return sorted(found, key=term_key)


def canonical(binding: dict) -> tuple:
    return tuple((name, term_key(binding[name])) for name in sorted(binding))


# --- random datasets and BGPs --------------------------------------------

_GRAPHS = ["http://t.example/g1", "http://t.example/g2"]
_IRIS = [Iri(f"http://t.example/n{i}") for i in range(8)]
_PREDICATES = [Iri(f"http://t.example/p{i}") for i in range(4)]
_LITERALS = [Literal(str(i)) for i in range(4)] + [Literal("3", "http://www.w3.org/2001/XMLSchema#integer")]
_BLANKS = [Blank(f"b{i}") for i in range(3)]
_VARIABLES = ["w", "x", "y", "z"]


def random_quad(rng: random.Random) -> Quad:
    subject = rng.choice(_IRIS + _BLANKS)
    predicate = rng.choice(_PREDICATES)
    obj = rng.choice(_IRIS + _BLANKS + _LITERALS)
    return Quad(subject, predicate, obj, rng.choice(_GRAPHS))


def random_dataset(rng: random.Random, max_quads: int = 200) -> list[Quad]:
    return [random_quad(rng) for _ in range(rng.randint(0, max_quads))]


def _random_position(rng: random.Random, choices, var_probability: float):
    if rng.random() < var_probability:
        return Var(rng.choice(_VARIABLES))
    return rng.choice(choices)


def random_bgp(rng: random.Random) -> list[Pattern]:
    patterns = []
    for _ in range(rng.randint(1, 4)):
        patterns.append(
            Pattern(
                subject=_random_position(rng, _IRIS + _BLANKS, 0.5),
                predicate=_random_position(rng, _PREDICATES, 0.35),
                object=_random_position(rng, _IRIS + _BLANKS + _LITERALS, 0.5),
                graph=_random_position(rng, _GRAPHS, 0.25),
            )
        )
    return patterns


def oracle_cost(quads: list[Quad], patterns: list[Pattern]) -> int:
    """Upper bound on nested-loop work: product of single-pattern match counts."""
    cost = 1
    for pattern in patterns:
        matches = sum(1 for quad in quads if match_oracle(pattern, quad, {}) is not None)
        cost *= max(matches, 1)
        if cost > 10**9:
            break
    return cost


def tractable_case(rng: random.Random, max_quads: int = 200, budget: int = 500_000):
    """A random (dataset, BGP) pair kept within a nested-loop work budget."""
    quads = random_dataset(rng, max_quads)
    for _ in range(50):
        patterns = random_bgp(rng)
        if oracle_cost(quads, patterns) <= budget:
            return quads, patterns
    return quads[:15], random_bgp(rng)
