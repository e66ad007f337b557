from __future__ import annotations

import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import vocab
from graphsynth.errors import MalformedQuadError, MalformedTermError
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.terms import RDF_LANG_STRING, Blank, Iri, Literal

from oracles import (
    canonical,
    expected_order,
    nested_loop_join,
    objects_oracle,
    oracle_cost,
    random_bgp,
    random_dataset,
    random_quad,
    term_key,
    tractable_case,
)

G = "http://t.example/g1"
H = "http://t.example/g2"
A = Iri("http://t.example/a")
B = Iri("http://t.example/b")
P = Iri("http://t.example/p")
Q = Iri("http://t.example/q")


def test_insert_returns_true_then_false():
    store = QuadStore()
    quad = Quad(A, P, B, G)
    assert store.insert(quad) is True
    assert len(store) == 1
    assert store.insert(quad) is False
    assert len(store) == 1


def test_graph_is_part_of_identity():
    store = QuadStore()
    assert store.insert(Quad(A, P, B, G)) is True
    assert store.insert(Quad(A, P, B, H)) is True
    assert len(store) == 2


def test_malformed_quads_rejected():
    with pytest.raises(MalformedQuadError):
        Quad(Literal("x"), P, B, G)
    with pytest.raises(MalformedQuadError):
        Quad(A, Literal("p"), B, G)
    with pytest.raises(MalformedQuadError):
        Quad(A, Blank("p"), B, G)
    with pytest.raises(MalformedQuadError):
        Quad(A, P, B, "")


def test_malformed_terms_rejected():
    with pytest.raises(MalformedTermError):
        Iri("")
    with pytest.raises(MalformedTermError):
        Iri("http://x/ y")
    with pytest.raises(MalformedTermError):
        Literal("x", "")
    with pytest.raises(MalformedTermError):
        Blank("no spaces allowed")


def test_empty_language_tag_rejected():
    # An empty tag would sort exactly like no tag, leaving result order to the hash seed.
    with pytest.raises(MalformedTermError):
        Literal("x", RDF_LANG_STRING, "")
    assert term_key(Literal("x", RDF_LANG_STRING, "en")) != term_key(Literal("x", RDF_LANG_STRING))
    assert Literal("x", RDF_LANG_STRING) < Literal("x", RDF_LANG_STRING, "en")


def test_row_reads_one_subject_and_graph():
    store = QuadStore()
    for quad in (Quad(A, P, Literal("2"), G), Quad(A, P, B, G), Quad(A, P, Literal("1"), G),
                 Quad(A, P, Literal("3"), H), Quad(A, Q, Literal("4"), G), Quad(B, P, Literal("5"), G)):
        store.insert(quad)
    assert store.row(A, G) == {P: (B, Literal("1"), Literal("2")), Q: (Literal("4"),)}
    assert list(store.row(A, G)[P]) == [row["o"] for row in store.match_pattern(Pattern(A, P, Var("o"), G))]
    assert store.row(A, H) == {P: (Literal("3"),)}
    assert store.row(B, G) == {P: (Literal("5"),)}
    assert store.row(Iri("http://t.example/absent"), G) == {}
    # Graph isolation: a subject with values in one graph has none in another.
    assert store.row(B, H) == {}
    assert store.row(A, "http://t.example/g3") == {}


def test_a_row_is_a_copy_that_changes_nothing_in_the_store():
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    row = store.row(A, G)
    row[P] += (Literal("x"),)
    row[Q] = (B,)
    assert store.row(A, G) == {P: (B,)}
    assert len(store) == 1 and store.match_pattern(Pattern(A, Var("p"), Var("o"), G)) == [{"p": P, "o": B}]


def test_subjects_reads_one_predicate_object_and_graph():
    store = QuadStore()
    C = Iri("http://t.example/c")
    for quad in (Quad(B, P, A, G), Quad(Blank("z"), P, A, G), Quad(A, P, A, G), Quad(C, P, A, H),
                 Quad(C, Q, A, G), Quad(C, P, B, G), Quad(A, P, Literal("1"), G)):
        store.insert(quad)
    assert store.subjects(P, A, G) == [A, B, Blank("z")]
    assert store.subjects(P, A, G) == [row["s"] for row in store.match_pattern(Pattern(Var("s"), P, A, G))]
    assert store.subjects(P, Literal("1"), G) == [A]
    assert store.subjects(P, A, H) == [C]
    # A missing graph, predicate or object gives no subject.
    assert store.subjects(P, A, "http://t.example/g3") == []
    assert store.subjects(Iri("http://t.example/absent"), A, G) == []
    assert store.subjects(P, Literal("2"), G) == []
    # Graph isolation: a (predicate, object) with subjects in one graph has none in another.
    assert store.subjects(Q, A, H) == []


@pytest.mark.parametrize("graph", [G, Var("g")], ids=["named-graph", "graph-variable"])
def test_an_object_bound_pattern_follows_every_later_write(graph):
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    store.insert(Quad(B, Q, A, G))
    store.insert(Quad(A, Q, A, G))
    # The object bound and no predicate: no table leads with the object, so each answer comes from a scan.
    by_object = Pattern(Var("s"), Var("p"), B, graph)
    in_g = {"g": Iri(G)} if isinstance(graph, Var) else {}
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}]
    store.insert(Quad(A, Q, B, G))
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}, {"s": A, "p": Q, **in_g}]
    clone = store.clone()
    clone.insert(Quad(B, Q, B, G))
    assert clone.match_pattern(by_object) == [
        {"s": A, "p": P, **in_g}, {"s": A, "p": Q, **in_g}, {"s": B, "p": Q, **in_g}]
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}, {"s": A, "p": Q, **in_g}]
    store.insert(Quad(A, P, B, H))
    in_h = [{"s": A, "p": P, "g": Iri(H)}] if isinstance(graph, Var) else []
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}, {"s": A, "p": Q, **in_g}, *in_h]


def test_a_leaf_is_a_bare_term_until_a_second_term_joins_it():
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    assert type(store._spo[G][A][P]) is Iri and store._spo[G][A][P] == B
    assert type(store._pos[G][P][B]) is Iri and store._pos[G][P][B] == A
    clone = store.clone()
    store.insert(Quad(A, P, A, G))
    store.insert(Quad(B, P, B, G))
    assert store._spo[G][A][P] == {A, B} and store._pos[G][P][B] == {A, B}
    # The clone's leaves stay bare: its tables equal those of a store that only ever held its one quad.
    fresh = QuadStore()
    fresh.insert(Quad(A, P, B, G))
    assert clone._spo == fresh._spo and clone._pos == fresh._pos
    assert type(clone._spo[G][A][P]) is Iri and type(clone._pos[G][P][B]) is Iri
    # A clone taken once the leaves are sets has sets of its own: a term joining the original's sets joins none of them.
    second = store.clone()
    C = Iri("http://t.example/c")
    store.insert(Quad(A, P, C, G))
    store.insert(Quad(C, P, B, G))
    assert store._spo[G][A][P] == {A, B, C} and store._pos[G][P][B] == {A, B, C}
    assert second._spo[G][A][P] == {A, B} and second._pos[G][P][B] == {A, B}
    # Every read sees both shapes.
    assert second.row(A, G) == {P: (A, B)} and clone.row(A, G) == {P: (B,)}
    assert second.subjects(P, B, G) == [A, B] and clone.subjects(P, B, G) == [A]
    assert Quad(A, P, A, G) in second and Quad(A, P, A, G) not in clone and Quad(A, P, B, G) in clone
    assert Quad(A, P, C, G) in store and Quad(A, P, C, G) not in second
    assert sorted(second.quads()) == [Quad(A, P, A, G), Quad(A, P, B, G), Quad(B, P, B, G)]
    assert list(clone.quads()) == [Quad(A, P, B, G)]


def test_match_pattern_binds_variables():
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    rows = store.match_pattern(Pattern(Var("s"), P, Var("o"), G))
    assert rows == [{"s": A, "o": B}]


def test_match_pattern_no_match_is_empty():
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    assert store.match_pattern(Pattern(Var("s"), Q, Var("o"), G)) == []


def test_match_pattern_repeated_variable_joins():
    store = QuadStore()
    store.insert(Quad(A, P, A, G))
    store.insert(Quad(A, P, B, G))
    rows = store.match_pattern(Pattern(Var("s"), P, Var("s"), G))
    assert rows == [{"s": A}]


def test_match_pattern_graph_variable():
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    store.insert(Quad(A, P, B, H))
    rows = store.match_pattern(Pattern(A, P, B, Var("g")))
    assert rows == [{"g": Iri(G)}, {"g": Iri(H)}]


def test_query_bgp_requires_a_pattern():
    with pytest.raises(ValueError):
        QuadStore().query_bgp([])


@pytest.mark.parametrize("bad", [(A, P, Var("o"), G), Quad(A, P, B, G), (A, P, Var("o"), 5)],
                         ids=["bare-tuple", "quad", "graph-5"])
def test_query_entry_points_take_only_patterns(bad):
    # Each equals a pattern's tuple, but skipped the Pattern constructor's checks.
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    with pytest.raises(MalformedQuadError, match="expected a Pattern"):
        store.match_pattern(bad)
    for patterns in ([bad], [Pattern(Var("s"), P, Var("o"), G), bad]):
        with pytest.raises(MalformedQuadError, match="expected a Pattern"):
            store.query_bgp(patterns)


def test_query_bgp_single_pattern_equals_match_pattern():
    store = QuadStore()
    for obj in (A, B):
        store.insert(Quad(A, P, obj, G))
    pattern = Pattern(Var("s"), P, Var("o"), G)
    assert store.query_bgp([pattern]) == store.match_pattern(pattern)


def test_query_bgp_empty_store():
    store = QuadStore()
    assert store.query_bgp([Pattern(Var("s"), Var("p"), Var("o"), Var("g"))]) == []


def test_query_bgp_over_seed_kb_matches_oracle(seed_kb):
    store, _ = seed_kb
    patterns = [
        Pattern(Var("x"), Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), Iri(vocab.ALGORITHM), vocab.CORE_GRAPH),
        Pattern(Var("x"), Iri(vocab.HAS_OUTPUT_DESCRIPTION_LABEL), Var("l"), vocab.CORE_GRAPH),
    ]
    got = store.query_bgp(patterns)
    oracle = nested_loop_join(list(store.quads()), patterns)
    assert sorted(map(canonical, got)) == sorted(map(canonical, oracle))
    assert got == expected_order(patterns, oracle)
    labels = {row["l"].lexical for row in got}
    assert labels == {"average value", "average value variation"}


def test_add_all_counts_the_new_triples_of_a_batch():
    store = QuadStore()
    assert store._add_all(G, []) == 0
    assert store.graph_names() == [] and store.graph_size(G) == 0  # an empty batch makes no graph
    batch = [(A, P, B), (A, P, B), (A, Q, B), (B, P, Literal("1")), (A, P, B)]
    assert store._add_all(G, batch) == 3
    assert store.graph_size(G) == 3
    assert store._add_all(G, batch[:2]) == 0  # nothing new: no change, so the same count
    assert store.graph_size(G) == 3
    assert store._add_all(G, [(A, P, A), (A, P, B), (B, Q, A), (A, P, A)]) == 2
    assert store.graph_size(G) == 5
    assert set(store.quads(G)) == {Quad(s, p, o, G) for s, p, o in [*batch, (A, P, A), (B, Q, A)]}
    with pytest.raises(MalformedQuadError):
        store._add_all("a graph", [(A, P, B)])  # a new graph's name is checked
    assert store.graph_names() == [G]


def test_graph_size():
    store = QuadStore()
    assert store.graph_size(G) == 0
    store.insert(Quad(A, P, B, G))
    store.insert(Quad(A, P, A, G))
    store.insert(Quad(A, Q, B, G))
    assert store.graph_size(G) == 3
    store.insert(Quad(A, P, B, G))
    assert store.graph_size(G) == 3


def test_term_total_order_ranks_variants():
    terms = [Literal("a"), Blank("a"), Iri("http://a")]
    ordered = sorted(terms)
    assert [type(t).__name__ for t in ordered] == ["Iri", "Blank", "Literal"]


def test_literals_compare_structurally():
    assert Literal("1.0", "http://www.w3.org/2001/XMLSchema#decimal") != Literal(
        "1.00", "http://www.w3.org/2001/XMLSchema#decimal"
    )


_quads = st.builds(
    Quad,
    subject=st.sampled_from([A, B, Blank("n1"), Blank("n2")]),
    predicate=st.sampled_from([P, Q]),
    object=st.sampled_from([A, B, Literal("1"), Literal("2")]),
    graph=st.sampled_from([G, H]),
)


@given(st.lists(_quads, max_size=40))
def test_double_insertion_is_idempotent(quads):
    once = QuadStore()
    twice = QuadStore()
    for quad in quads:
        once.insert(quad)
        twice.insert(quad)
        twice.insert(quad)
    assert set(once.quads()) == set(twice.quads())
    assert len(once) == len(twice)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_query_bgp_equals_nested_loop_oracle(seed):
    rng = random.Random(seed)
    quads, patterns = tractable_case(rng, max_quads=60)
    store = QuadStore()
    for quad in quads:
        store.insert(quad)
    got = store.query_bgp(patterns)
    oracle = nested_loop_join(sorted(set(quads), key=lambda q: (q.subject, q.predicate, q.object, q.graph)), patterns)
    assert sorted(map(canonical, got)) == sorted(map(canonical, oracle))
    assert got == expected_order(patterns, oracle)


def test_results_independent_of_insertion_order():
    rng = random.Random(7)
    quads, patterns = tractable_case(rng, max_quads=50)
    forward = QuadStore()
    backward = QuadStore()
    for quad in quads:
        forward.insert(quad)
    for quad in reversed(quads):
        backward.insert(quad)
    assert forward.query_bgp(patterns) == backward.query_bgp(patterns)


def _bounded_bgp(rng: random.Random, quads: list[Quad], budget: int = 50_000) -> list[Pattern]:
    for _ in range(20):
        patterns = random_bgp(rng)
        if oracle_cost(quads, patterns) <= budget:
            return patterns
    return patterns[:1]


def _leaf_terms(leaf) -> list:
    """The terms one table leaf holds: a set holds its members, a bare term itself."""
    return list(leaf) if type(leaf) is set else [leaf]


def _check_tables(store: QuadStore, model: set[Quad], seen: list[Quad]):
    """`row` agrees with brute force; SPO and POS exist for every graph, hold the same triples, and no empty level.

    Every leaf is canonical: a bare term exactly when it holds one term, otherwise a set of two or more.
    The predicate map names, for each predicate, exactly the graphs whose POS table holds it.
    """
    names = store.graph_names()
    assert sorted(store._graph_terms) == names
    assert sorted(store._spo) == sorted(store._pos) == names
    for table in (store._spo, store._pos):
        for by_first in table.values():
            assert by_first
            for by_second in by_first.values():
                assert by_second
                for leaf in by_second.values():
                    if type(leaf) is set:
                        assert len(leaf) >= 2 and all(isinstance(term, (Iri, Blank, Literal)) for term in leaf)
                    else:
                        assert isinstance(leaf, (Iri, Blank, Literal))
    for name in names:
        spo = [(s, p, o) for s, row in store._spo[name].items() for p, leaf in row.items() for o in _leaf_terms(leaf)]
        pos = [(s, p, o) for p, row in store._pos[name].items() for o, leaf in row.items() for s in _leaf_terms(leaf)]
        assert len(set(spo)) == len(spo) == len(pos) == store.graph_size(name)
        assert set(spo) == set(pos) == {quad[:3] for quad in model if quad.graph == name}
    graphs_of: dict[Iri, set[str]] = {}
    for name, by_predicate in store._pos.items():
        for predicate in by_predicate:
            graphs_of.setdefault(predicate, set()).add(name)
    assert store._graphs_of == graphs_of
    quads = list(model)
    for subject, predicate, graph in {(q.subject, q.predicate, q.graph) for q in seen}:
        assert list(store.row(subject, graph).get(predicate, ())) == objects_oracle(quads, subject, predicate, graph)


def _check_reads(store: QuadStore, model: set[Quad], inserted: list[Quad], value: int):
    """The tables are those of a store built afresh from the same quads; reads of both leaf shapes match brute force.

    `in` is asked of a quad seen before and of a random one; `subjects` of the seen quad's predicate,
    object and graph; `query_bgp` of one random pattern.
    """
    rebuilt = QuadStore()
    for quad in store.quads():
        rebuilt.insert(quad)
    assert rebuilt._spo == store._spo and rebuilt._pos == store._pos
    rng = random.Random(value)
    seen = inserted[value % len(inserted)] if inserted else random_quad(rng)
    for quad in (seen, random_quad(rng)):
        assert (quad in store) is (quad in model)
    quads = list(model)
    pattern = Pattern(Var("s"), seen.predicate, seen.object, seen.graph)
    expected = expected_order([pattern], nested_loop_join(quads, [pattern]))
    assert store.subjects(seen.predicate, seen.object, seen.graph) == [row["s"] for row in expected]
    patterns = random_bgp(rng)[:1]
    assert store.query_bgp(patterns) == expected_order(patterns, nested_loop_join(quads, patterns))


_store_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert", "insert", "add_all", "grow", "grow", "clone", "osp", "osp", "by_predicate"]
        ),
        st.integers(0, 2**32 - 1),
    ),
    max_size=80,
)


@given(_store_ops, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_indexes_stay_consistent_under_insert_grow_clone(ops, seed):
    store = QuadStore()
    model: set[Quad] = set()
    inserted: list[Quad] = []
    # (graph, quad count) -> the graph's quads at that count: one count, one content, as kept snapshots need.
    contents: dict[tuple[str, int], frozenset[Quad]] = {}
    for op, value in ops:
        if op == "insert":
            quad = random_quad(random.Random(value))
            before = store.graph_size(quad.graph)
            assert store.insert(quad) is (quad not in model)
            assert (store.graph_size(quad.graph) > before) is (quad not in model)
            model.add(quad)
            inserted.append(quad)
        elif op == "add_all":
            # One batch to one graph, with duplicates, old triples and, when sorted, runs of one subject.
            rng = random.Random(value)
            graph = random_quad(rng).graph
            batch = [random_quad(rng) for _ in range(rng.randint(0, 6))] + rng.sample(inserted, min(2, len(inserted)))
            batch = [Quad(q.subject, q.predicate, q.object, graph) for q in batch]
            batch += batch[: rng.randint(0, len(batch))]
            if rng.random() < 0.5:
                batch.sort(key=lambda q: q.subject)
            new = set(batch) - model
            before = store.graph_size(graph)
            assert store._add_all(graph, [(q.subject, q.predicate, q.object) for q in batch]) == len(new)
            assert store.graph_size(graph) == before + len(new)
            model |= new
            inserted += batch
        elif op == "grow":
            # A new object for a stored (subject, predicate) and a new subject for a stored (predicate, object),
            # so that leaves of two or more terms are common.
            rng = random.Random(value)
            quad = inserted[value % len(inserted)] if inserted else random_quad(rng)
            other = random_quad(rng)
            for grown in (quad, Quad(quad.subject, quad.predicate, other.object, quad.graph),
                          Quad(other.subject, quad.predicate, quad.object, quad.graph)):
                assert store.insert(grown) is (grown not in model)
                model.add(grown)
                inserted.append(grown)
        elif op == "osp":
            # The object bound and the predicate a variable, in the named graph or in every graph:
            # no table leads with the object, so the subject table is scanned for it.
            quad = inserted[value % len(inserted)] if inserted else random_quad(random.Random(value))
            graph = Var("g") if value % 2 else quad.graph
            pattern = Pattern(Var("s"), Var("p"), quad.object, graph)
            assert store.match_pattern(pattern) == expected_order([pattern], nested_loop_join(list(model), [pattern]))
        elif op == "by_predicate":
            # The predicate bound and the graph a variable: only the graphs holding the predicate are read.
            quad = inserted[value % len(inserted)] if inserted else random_quad(random.Random(value))
            pattern = Pattern(Var("s"), quad.predicate, quad.object if value % 2 else Var("o"), Var("g"))
            assert store.match_pattern(pattern) == expected_order([pattern], nested_loop_join(list(model), [pattern]))
            # The same predicate, object and graph read by `subjects`, one probe of the graph's POS table.
            pattern = Pattern(Var("s"), quad.predicate, quad.object, quad.graph)
            expected = expected_order([pattern], nested_loop_join(list(model), [pattern]))
            assert store.subjects(quad.predicate, quad.object, quad.graph) == [row["s"] for row in expected]
        else:
            original, store = store, store.clone()
            _check_tables(original, model, inserted)
            assert all(store.graph_size(quad.graph) == original.graph_size(quad.graph) for quad in inserted)
            spo, pos, quads = copy.deepcopy(store._spo), copy.deepcopy(store._pos), sorted(store.quads())
            # Growing every leaf of the original, bare or a set, must leave the copy's tables as they were.
            grown = Iri("http://t.example/grown")
            for graph, table in original._spo.items():
                original._add_all(graph, [(s, p, grown) for s, row in table.items() for p in row])
            for graph, table in original._pos.items():
                original._add_all(graph, [(grown, p, o) for p, row in table.items() for o in row])
            assert store._spo == spo and store._pos == pos and sorted(store.quads()) == quads
        _check_tables(store, model, inserted)
        _check_reads(store, model, inserted, value)
        for graph in {quad.graph for quad in inserted}:
            content = frozenset(store.quads(graph))
            assert contents.setdefault((graph, store.graph_size(graph)), content) == content
    assert set(store.quads()) == model and len(store) == len(model)
    quads = list(store.quads())
    # Each index on its own: one bound position per pattern, for every term seen.
    s, p, o, g = Var("s"), Var("p"), Var("o"), Var("g")
    single_bound = {Pattern(q.subject, p, o, g) for q in inserted} | {Pattern(s, q.predicate, o, g) for q in inserted}
    single_bound |= {Pattern(s, p, q.object, g) for q in inserted} | {Pattern(s, p, o, q.graph) for q in inserted}
    for pattern in single_bound:
        assert store.match_pattern(pattern) == expected_order([pattern], nested_loop_join(quads, [pattern]))
    # `subjects` for every (predicate, object, graph) seen, against the same brute force.
    for pattern in {Pattern(s, q.predicate, q.object, q.graph) for q in inserted}:
        expected = expected_order([pattern], nested_loop_join(quads, [pattern]))
        assert store.subjects(pattern.predicate, pattern.object, pattern.graph) == [row["s"] for row in expected]
    _check_tables(store, model, inserted)
    rng = random.Random(seed)
    patterns = _bounded_bgp(rng, quads)
    oracle = nested_loop_join(quads, patterns)
    got = store.query_bgp(patterns)
    assert sorted(map(canonical, got)) == sorted(map(canonical, oracle))
    assert got == expected_order(patterns, oracle)
    single = nested_loop_join(quads, patterns[:1])
    assert store.match_pattern(patterns[0]) == expected_order(patterns[:1], single)


def test_join_order_does_not_change_the_result():
    rng = random.Random(11)
    for _ in range(40):
        quads, patterns = tractable_case(rng, max_quads=60)
        store = QuadStore()
        for quad in quads:
            store.insert(quad)
        reference = store.query_bgp(patterns)
        assert reference == expected_order(patterns, nested_loop_join(list(store.quads()), patterns))
        for permutation in itertools.permutations(patterns):
            assert store.query_bgp(list(permutation)) == reference


C = Iri("http://t.example/c")
R = Iri("http://t.example/r")
NOWHERE = Iri("http://t.example/nowhere")
META = "http://t.example/meta"


def _probe_store() -> QuadStore:
    """A store whose (A, P) leaf is bare in G and a set in H, with bindings for a graph variable in META."""
    store = QuadStore()
    store._add_all(G, [(A, P, B), (A, Q, B), (B, P, A), (B, P, B)])
    store._add_all(H, [(A, P, A), (A, P, B), (A, P, Literal("x")), (C, P, C)])
    store._add_all(META, [(A, R, Iri(G)), (B, R, Iri(H)), (C, R, NOWHERE), (C, R, Blank("b")), (C, R, Literal(G))])
    return store


def _oracle_checked(store: QuadStore, patterns: list[Pattern]) -> list[dict]:
    got = store.query_bgp(patterns)
    assert got == expected_order(patterns, nested_loop_join(list(store.quads()), patterns))
    return got


@pytest.mark.parametrize("graph, objects", [(G, [B]), (H, [A, B, Literal("x")])])
def test_a_probe_reads_a_bare_leaf_and_a_set_leaf(graph, objects):
    store = _probe_store()
    o = Var("o")
    assert _oracle_checked(store, [Pattern(A, P, o, graph)]) == [{"o": term} for term in objects]
    joined = _oracle_checked(store, [Pattern(Var("s"), Q, B, G), Pattern(Var("s"), P, o, graph)])
    assert joined == [{"s": A, "o": term} for term in objects]


def test_a_probe_of_an_absent_subject_predicate_or_graph_is_empty():
    store = _probe_store()
    s, o = Var("s"), Var("o")
    for patterns in (
        [Pattern(NOWHERE, P, o, G)],
        [Pattern(A, NOWHERE, o, G)],
        [Pattern(A, P, o, "http://t.example/no-graph")],
        [Pattern(C, R, s, META), Pattern(s, P, o, H)],  # s bound to an IRI no row holds, a blank and a literal
        [Pattern(A, Q, s, G), Pattern(s, Q, o, G)],  # B's row in G holds no Q
    ):
        assert _oracle_checked(store, patterns) == []


def test_a_probe_reads_only_the_named_graph():
    store = _probe_store()
    s, o = Var("s"), Var("o")
    assert _oracle_checked(store, [Pattern(s, Q, B, G), Pattern(s, P, o, H)]) == [
        {"s": A, "o": A}, {"s": A, "o": B}, {"s": A, "o": Literal("x")}]
    assert _oracle_checked(store, [Pattern(C, P, s, H), Pattern(s, P, o, G)]) == []


@pytest.mark.parametrize("subject, graph, objects", [
    (A, Iri(G), [B]),  # bound to G's IRI
    (B, Iri(H), [A, B, Literal("x")]),  # bound to H's IRI
    (C, None, []),  # bound to an IRI that names no graph, a blank node and a literal whose text is G
])
def test_a_probe_reads_the_graph_an_earlier_pattern_bound(subject, graph, objects):
    store = _probe_store()
    g, o = Var("g"), Var("o")
    got = _oracle_checked(store, [Pattern(subject, R, g, META), Pattern(A, P, o, g)])
    assert got == [{"g": graph, "o": term} for term in objects]
    joined = _oracle_checked(store, [Pattern(Var("s"), R, g, META), Pattern(A, P, o, g)])
    assert [(row["s"], row["g"]) for row in joined] == [(A, Iri(G)), *[(B, Iri(H))] * 3]


def test_an_object_variable_that_repeats_the_subject_is_checked_not_probed():
    store = _probe_store()
    x, g = Var("x"), Var("g")
    assert _oracle_checked(store, [Pattern(x, P, x, G)]) == [{"x": B}]
    assert _oracle_checked(store, [Pattern(x, P, x, H)]) == [{"x": A}, {"x": C}]
    assert _oracle_checked(store, [Pattern(x, R, g, META), Pattern(x, P, x, H)]) == [
        {"x": A, "g": Iri(G)}, {"x": C, "g": NOWHERE}, {"x": C, "g": Blank("b")}, {"x": C, "g": Literal(G)}]
    assert _oracle_checked(store, [Pattern(x, Q, B, G), Pattern(x, P, x, G)]) == []
    # The object's one new variable repeats in the graph position: a walk that checks the repeat, not a probe.
    store._add_all(META, [(C, P, Iri(META))])
    assert _oracle_checked(store, [Pattern(C, P, x, x)]) == [{"x": Iri(META)}]


M = Iri("http://t.example/m")


def _walk_store() -> QuadStore:
    """A store whose (A, P) leaf is bare in G and a set in H, and (A, Q) a set in G; M names graphs in META."""
    store = QuadStore()
    store._add_all(G, [(A, P, B), (A, Q, B), (A, Q, C), (A, Q, Literal("x")), (B, P, A), (C, R, B)])
    store._add_all(H, [(A, P, B), (A, P, C), (A, Q, B), (B, Q, B)])
    store._add_all(META, [(M, R, Iri(G)), (M, R, Iri(H)), (M, R, NOWHERE), (M, R, Blank("b")), (M, R, Literal(G))])
    return store


_s, _p, _o = Var("s"), Var("p"), Var("o")
# (subject, predicate, object) for each bound/free combination, and how many quads of G match it.
_WALKS = [
    ("free-free-free", _s, _p, _o, 6),
    ("subject", A, _p, _o, 4),
    ("absent-subject", NOWHERE, _p, _o, 0),
    ("predicate", _s, Q, _o, 3),
    ("absent-predicate", _s, NOWHERE, _o, 0),
    ("object", _s, _p, B, 3),
    ("absent-object", _s, _p, NOWHERE, 0),
    ("subject-predicate-bare", A, P, _o, 1),
    ("subject-predicate-set", A, Q, _o, 3),
    ("subject-absent-predicate", A, R, _o, 0),
    ("absent-subject-predicate", NOWHERE, P, _o, 0),
    ("subject-object-bare-and-set", A, _p, B, 2),
    ("subject-object-set", A, _p, Literal("x"), 1),
    ("subject-object-none", A, _p, A, 0),
    ("absent-subject-object", NOWHERE, _p, B, 0),
    ("predicate-object", _s, Q, B, 1),
    ("predicate-absent-object", _s, P, NOWHERE, 0),
    ("all-bare-holding", A, P, B, 1),
    ("all-bare-not-holding", A, P, C, 0),
    ("all-set-holding", A, Q, C, 1),
    ("all-set-not-holding", A, Q, A, 0),
    ("all-absent-subject", NOWHERE, P, B, 0),
    ("all-absent-predicate", A, R, B, 0),
]


@pytest.mark.parametrize("s, p, o, in_g", [case[1:] for case in _WALKS], ids=[case[0] for case in _WALKS])
def test_every_bound_free_combination_reads_what_the_oracle_finds(s, p, o, in_g):
    store = _walk_store()
    g = Var("g")
    assert len(_oracle_checked(store, [Pattern(s, p, o, G)])) == in_g
    _oracle_checked(store, [Pattern(s, p, o, H)])
    _oracle_checked(store, [Pattern(s, p, o, "http://t.example/no-graph")])
    free = _oracle_checked(store, [Pattern(s, p, o, g)])  # every graph, or those holding the predicate
    assert sum(row["g"] == Iri(G) for row in free) == in_g
    # The graph variable is bound first, by M's one free position: to G, H, an IRI naming no graph, a blank, a literal.
    bound = _oracle_checked(store, [Pattern(M, R, g, META), Pattern(s, p, o, g)])
    assert sum(row["g"] == Iri(G) for row in bound) == in_g


class _RowLog(dict):
    """A graph's SPO table that logs each subject row read from it: one per probe, one per row a scan visits."""

    def __init__(self, table: dict, reads: list):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def items(self):
        for item in super().items():
            self.reads.append(item[0])
            yield item


def test_lookup_work_does_not_grow_with_the_graph(monkeypatch):
    store = QuadStore()
    own = [Quad(A, P, Literal(str(i)), G) for i in range(3)] + [Quad(A, Q, B, G)]
    for quad in own:
        store.insert(quad)
    for i in range(5000):
        store.insert(Quad(Iri(f"http://t.example/inert{i}"), P, Literal(str(i)), G))
    # Another graph whose quads share Q with half of them and B with the other half.
    for i in range(5000):
        other = Iri(f"http://t.example/other{i}")
        store.insert(Quad(other, Q, Literal(str(i)), H) if i % 2 else Quad(other, P, B, H))
    # A subject added last, so a probe that scanned for its row would read every row before it.
    late = Iri("http://t.example/late")
    store._add_all(G, [(late, Q, A), (late, P, Literal("late"))])
    # The join's work: the rows each walk step extends bindings from, and the subject rows read from SPO.
    walked, reads = 0, []
    candidates = store._candidates

    def counting(key):
        nonlocal walked
        rows = candidates(key)
        walked += len(rows)
        return rows

    monkeypatch.setattr(store, "_candidates", counting)
    for name in (G, H):
        store._spo[name] = _RowLog(store._spo[name], reads)

    def work() -> tuple[int, int]:
        nonlocal walked
        done = walked, len(reads)
        walked = 0
        reads.clear()
        return done

    rows = store.match_pattern(Pattern(A, P, Var("o"), G))  # a probe step: one read of A's row
    assert rows == [{"o": Literal(str(i))} for i in range(3)]
    assert max(work()) <= len(own)
    assert len(store.match_pattern(Pattern(A, Var("p"), Var("o"), G))) == len(own)
    assert work() == (len(own), 1)  # both counters count: a walk of A's row, read once
    # A check of one quad, and a subject with its object bound: each reads the subject's row once, not the table.
    assert store.match_pattern(Pattern(A, P, Literal("1"), G)) == [{}]
    assert work() == (1, 1)
    assert store.match_pattern(Pattern(A, Var("p"), B, G)) == [{"p": Q}]
    assert work() == (1, 1)
    assert store.match_pattern(Pattern(late, Var("p"), A, G)) == [{"p": Q}]
    assert work() == (1, 1)
    assert len(store.query_bgp([Pattern(Var("s"), P, Var("o"), G), Pattern(Var("s"), Q, B, G)])) == 3
    assert max(work()) <= 2 * len(own)
    # A probe step whose subject and graph an earlier pattern binds.
    s, g = Var("s"), Var("g")
    assert store.query_bgp([Pattern(s, Q, A, g), Pattern(s, P, Var("o"), g)]) == [
        {"s": late, "g": Iri(G), "o": Literal("late")}]
    assert max(work()) <= 2 * len(own)
    # No table leads with the object: the scan reads every subject row of the graph but extends only the matches.
    assert store.match_pattern(Pattern(Var("s"), Var("p"), B, G)) == [{"s": A, "p": Q}]
    walked_rows, read_rows = work()
    assert walked_rows == 1 and read_rows == 5002
    assert store.match_pattern(Pattern(Var("s"), Q, B, Var("g"))) == [{"s": A, "g": Iri(G)}]
    assert max(work()) <= len(own)


class _ReadLog(dict):
    """A graph-keyed table of the store that logs the graph names read from it."""

    def __init__(self, table: dict, reads: set[str]):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.add(key)
        return super().__contains__(key)


def test_a_graph_variable_visits_only_the_graphs_holding_the_predicate():
    store = QuadStore()
    graphs = [f"http://t.example/g{i}" for i in range(50)]
    for i, name in enumerate(graphs):
        store._add_all(name, [(Iri(f"http://t.example/s{j}"), P, Literal(str(i))) for j in range(20)])
    holder = graphs[17]
    store.insert(Quad(A, Q, B, holder))
    reads: set[str] = set()
    for table in ("_spo", "_pos", "_graph_terms"):
        setattr(store, table, _ReadLog(getattr(store, table), reads))
    s, o, g = Var("s"), Var("o"), Var("g")
    assert store.match_pattern(Pattern(s, Q, o, g)) == [{"s": A, "o": B, "g": Iri(holder)}]
    assert reads == {holder}
    reads.clear()
    assert store.query_bgp([Pattern(s, Q, B, g), Pattern(s, Q, o, g)]) == [{"s": A, "o": B, "g": Iri(holder)}]
    assert reads == {holder}
    reads.clear()
    assert store.match_pattern(Pattern(s, Iri("http://t.example/absent"), o, g)) == []
    assert reads == set()
    assert len(store.match_pattern(Pattern(s, P, o, g))) == 50 * 20
    assert reads == set(graphs)


def test_adding_to_one_graph_leaves_every_other_graph_unchanged():
    rng = random.Random(5)
    graphs = [G, H, "http://t.example/g3"]
    store = QuadStore()
    for quad in random_dataset(rng, max_quads=300):
        store.insert(Quad(quad.subject, quad.predicate, quad.object, rng.choice(graphs[1:])))
    added = [Quad(quad.subject, quad.predicate, quad.object, G) for quad in random_dataset(rng, max_quads=300)]
    s, p, o, g = Var("s"), Var("p"), Var("o"), Var("g")
    patterns = {Pattern(s, p, o, name) for name in [*graphs, g]}
    for quad in [*store.quads(), *added]:
        for name in [*graphs, g]:
            patterns |= {Pattern(quad.subject, p, o, name), Pattern(s, quad.predicate, o, name)}
            patterns.add(Pattern(s, p, quad.object, name))
    before = {pattern: store.match_pattern(pattern) for pattern in patterns}
    assert store.graph_names() == sorted(graphs[1:])
    for quad in added:
        store.insert(quad)
    assert store.graph_names() == sorted(graphs) and store.graph_size(G) == len(set(added)) > 0
    quads = list(store.quads())
    for pattern, rows in before.items():
        now = store.match_pattern(pattern)
        if pattern.graph == G:
            assert rows == []
        elif isinstance(pattern.graph, Var):
            assert [row for row in now if row["g"] != Iri(G)] == rows
        else:
            assert now == rows
        assert now == expected_order([pattern], nested_loop_join(quads, [pattern]))


def test_a_kept_snapshot_lasts_until_its_graph_gains_a_quad_and_a_clone_shares_it():
    store = QuadStore()
    assert store.snapshot(G) is None
    store.keep_snapshot(G, "compiled from an empty graph")
    assert store.snapshot(G) == "compiled from an empty graph"
    store.insert(Quad(A, P, B, G))
    store.insert(Quad(A, P, B, H))
    assert store.snapshot(G) is None
    kept = ("compiled from", G)
    store.keep_snapshot(G, kept)
    assert store.snapshot(G) is kept
    store.insert(Quad(A, P, B, G))  # already present: no change
    store.insert(Quad(A, Q, B, H))  # another graph
    assert store.snapshot(G) is kept
    clone = store.clone()
    assert clone.snapshot(G) is kept and clone.graph_size(G) == store.graph_size(G)
    clone.insert(Quad(B, P, A, G))
    assert clone.snapshot(G) is None and store.snapshot(G) is kept
    store.insert(Quad(B, P, A, G))  # the quad the clone gained: both hold the same quads again
    assert store.snapshot(G) is None and set(store.quads(G)) == set(clone.quads(G))


def test_a_graph_quad_count_only_rises_so_it_can_key_a_snapshot():
    assert not any(hasattr(QuadStore, name) for name in ["remove", "drop_graph", "clear"])
    rng = random.Random(11)
    graphs = [G, H]
    store = QuadStore()
    seen: dict[str, set[Quad]] = {name: set() for name in graphs}
    dataset = random_dataset(rng, max_quads=200)
    for triple in [*dataset, *rng.sample(dataset, len(dataset) // 2)]:
        quad = Quad(triple.subject, triple.predicate, triple.object, rng.choice(graphs))
        before = {name: store.graph_size(name) for name in graphs}
        assert store.insert(quad) is (quad not in seen[quad.graph])
        seen[quad.graph].add(quad)
        for name in graphs:
            assert store.graph_size(name) == len(seen[name]) >= before[name]
    clone = store.clone()
    for name in graphs:
        clone.insert(Quad(A, P, Literal(f"only in the clone: {name}"), name))
        assert clone.graph_size(name) == store.graph_size(name) + 1
        assert set(store.quads(name)) == seen[name]
