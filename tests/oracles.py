"""Reference implementations the tests check the engine against.

The query oracle is written from scratch against the documented contracts,
not by calling into the package's own query machinery. The program-graph
decoders `load_pla` and `load_plr`, which no command needs, read through
the composer's and the renderer's field tables and `views.read`.
"""

from __future__ import annotations

import random
from operator import itemgetter

from graphsynth import composer, renderer, views, vocab
from graphsynth.composer import AssignCall, PlacedStatement, PlaProgram, PlaSection, ProgramExit
from graphsynth.errors import ComposeError, RenderError
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.renderer import PlacedConcrete, PlrProgram
from graphsynth.terms import RDF_TYPE, Blank, Iri, Literal
from graphsynth.turtle import _format_term


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


# --- program-graph decoders ----------------------------------------------


def _read(store: QuadStore, graph: str, fields: tuple, node, error: type) -> dict:
    """Every field of `fields` on `node`, as `views.read` reads it; any problem raises `error`, the problems joined."""
    problems: list[str] = []
    values = views.read(store, graph, fields, node, problems, {})
    if problems:
        raise error("; ".join(problems))
    return values


def _typed_node(store: QuadStore, graph: str, cls: Iri, error: type):
    """The one node of `graph` typed `cls`; none, or more than one, raises `error`."""
    nodes = store.subjects(Iri(RDF_TYPE), cls, graph)
    if len(nodes) != 1:
        raise error(f"graph {graph} holds {len(nodes)} nodes typed {_format_term(cls)}, expected 1")
    return nodes[0]


def load_pla(store: QuadStore, graph_iri: str) -> PlaProgram:
    """The abstract program its graph holds; its libraries and functions are the KB's."""
    program = _typed_node(store, graph_iri, composer.PLA_PROGRAM, ComposeError)
    fields = _read(store, graph_iri, composer._PROGRAM, program, ComposeError)
    sections = [_read_section(store, graph_iri, node) for node in fields["sections"]]
    refs = sorted((_read(store, graph_iri, composer._LIBRARY_REFERENCE, ref, ComposeError)
                   for ref in fields["library_references"]), key=itemgetter("index"))
    kb = views.kb(store)
    pla = PlaProgram(
        graph_iri=graph_iri,
        program_iri=program.value,
        basename=fields["basename"],
        structure_iri=fields["structure_iri"],
        sections=tuple(sorted(sections, key=lambda s: s.emission_index)),
        referenced_libraries=tuple(_in_kb(kb.libraries, ref["library"]) for ref in refs),
        called_functions=(),
    )
    # The functions the calls name, each once, in the order the calls were composed.
    calls = [p.statement.function for p in pla.all_statements() if isinstance(p.statement, (AssignCall, ProgramExit))]
    return pla._replace(called_functions=tuple(_in_kb(kb.functions, iri) for iri in dict.fromkeys(calls)))


def _in_kb(records: dict, iri: str):
    if iri not in records:
        raise ComposeError(f"{iri} is not in the knowledge base")
    return records[iri]


# Statement kind -> (record class, fields), from the composer's one table of statement nodes.
_RECORDS = {kind: (record, fields) for record, (kind, fields) in composer._STATEMENTS.items()}


def _read_section(store: QuadStore, graph: str, node: Iri) -> PlaSection:
    section = _read(store, graph, composer._SECTION, node, ComposeError)
    del section["type"]
    placed = [_read_statement(store, graph, statement, section["name"]) for statement in section.pop("statements")]
    return PlaSection(**section, statements=tuple(sorted(placed, key=lambda p: p.order_index)))


def _read_statement(store: QuadStore, graph: str, node: Iri, section: str) -> PlacedStatement:
    placement = _read(store, graph, composer._PLACEMENT, node, ComposeError)
    if placement["type"] not in _RECORDS:
        raise ComposeError(f"statement node {node.value} has no recognized kind")
    record, fields = _RECORDS[placement["type"]]
    values = _read(store, graph, fields, node, ComposeError)
    if "args" in values:  # a call: one child node per argument, read back in slot order
        slots = sorted((_read(store, graph, composer._ARGUMENT_SLOT, slot, ComposeError) for slot in values["args"]),
                       key=itemgetter("index"))
        values["args"] = tuple(slot["variable"] for slot in slots)
    return PlacedStatement(record(**values), section, placement["order_index"], placement["composition_index"])


def load_plr(store: QuadStore, graph_iri: str) -> PlrProgram:
    """The concrete program its graph holds."""
    sections: dict[str, list[PlacedConcrete]] = {name: [] for name in vocab.EMISSION_ORDER}
    program = _typed_node(store, graph_iri, renderer.PLR_PROGRAM, RenderError)
    fields = _read(store, graph_iri, renderer._PROGRAM, program, RenderError)
    for node in fields["statements"]:
        statement = _read(store, graph_iri, renderer._STATEMENT, node, RenderError)
        elements = sorted((_read(store, graph_iri, renderer._ELEMENT, element, RenderError)
                           for element in statement["elements"]), key=itemgetter("index"))
        texts = tuple(element["text"] for element in elements)
        placed = PlacedConcrete(statement["variation"], statement["section"], statement["section_index"], texts)
        sections[statement["section"]].append(placed)
    return PlrProgram(
        graph_iri=graph_iri,
        program_iri=program.value,
        basename=fields["basename"],
        language_iri=fields["language_iri"],
        sections=tuple(
            (name, tuple(sorted(placed, key=lambda p: p.section_index))) for name, placed in sections.items()
        ),
    )
