from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import quadstore, vocab
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


def test_remove_returns_true_then_false():
    store = QuadStore()
    quad = Quad(A, P, B, G)
    store.insert(quad)
    store.insert(Quad(A, Q, B, H))
    assert store.remove(quad) is True
    assert store.remove(quad) is False
    assert quad not in store
    assert store.graph_names() == [H]
    assert store.match_pattern(Pattern(A, Var("p"), B, Var("g"))) == [{"p": Q, "g": Iri(H)}]


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


def test_objects_reads_one_subject_predicate_and_graph():
    store = QuadStore()
    for quad in (Quad(A, P, Literal("2"), G), Quad(A, P, B, G), Quad(A, P, Literal("1"), G),
                 Quad(A, P, Literal("3"), H), Quad(A, Q, Literal("4"), G), Quad(B, P, Literal("5"), G)):
        store.insert(quad)
    assert store.objects(A, P, G) == [B, Literal("1"), Literal("2")]
    assert store.objects(A, P, G) == [row["o"] for row in store.match_pattern(Pattern(A, P, Var("o"), G))]
    assert store.objects(A, P, H) == [Literal("3")]
    assert store.objects(B, Q, G) == []
    assert store.objects(Iri("http://t.example/absent"), P, G) == []
    # Graph isolation: a (subject, predicate) with values in one graph has none in another.
    assert store.objects(A, Q, H) == []
    assert store.objects(B, P, H) == []
    assert store.objects(A, P, "http://t.example/g3") == []


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
    store.insert(Quad(B, Q, B, G))
    store.insert(Quad(A, Q, A, G))
    # The object bound and no predicate: no table leads with the object, so each answer comes from a scan.
    by_object = Pattern(Var("s"), Var("p"), B, graph)
    in_g = {"g": Iri(G)} if isinstance(graph, Var) else {}
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}, {"s": B, "p": Q, **in_g}]
    store.insert(Quad(A, Q, B, G))
    store.remove(Quad(B, Q, B, G))
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}, {"s": A, "p": Q, **in_g}]
    copy = store.clone()
    copy.remove(Quad(A, P, B, G))
    assert copy.match_pattern(by_object) == [{"s": A, "p": Q, **in_g}]
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}, {"s": A, "p": Q, **in_g}]
    store.drop_graph(G)
    assert store.match_pattern(by_object) == []
    store.insert(Quad(A, P, B, G))
    store.insert(Quad(A, P, B, H))
    in_h = [{"s": A, "p": P, "g": Iri(H)}] if isinstance(graph, Var) else []
    assert store.match_pattern(by_object) == [{"s": A, "p": P, **in_g}, *in_h]


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


def test_add_all_counts_the_new_triples_of_a_batch_and_bumps_the_generation_once():
    store = QuadStore()
    assert store._add_all(G, []) == 0
    assert store.graph_names() == [] and store.generation(G) == 0  # an empty batch makes no graph
    batch = [(A, P, B), (A, P, B), (A, Q, B), (B, P, Literal("1")), (A, P, B)]
    assert store._add_all(G, batch) == 3
    assert store.generation(G) == 1 and store.graph_size(G) == 3
    assert store._add_all(G, batch[:2]) == 0  # nothing new: no change, so the same generation
    assert store.generation(G) == 1
    assert store._add_all(G, [(A, P, A), (A, P, B), (B, Q, A), (A, P, A)]) == 2
    assert store.generation(G) == 2 and store.graph_size(G) == 5
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


def _check_tables(store: QuadStore, model: set[Quad], seen: list[Quad]):
    """`objects` agrees with brute force; SPO and POS exist for every graph, hold the same triples, and no empty level.

    The predicate map names, for each predicate, exactly the graphs whose POS table holds it.
    """
    names = store.graph_names()
    assert sorted(store._graph_terms) == names
    assert sorted(store._spo) == sorted(store._pos) == names
    for table in (store._spo, store._pos):
        for by_first in table.values():
            assert by_first
            for by_second in by_first.values():
                assert by_second and all(by_second.values())
    for name in names:
        spo = {(s, p, o) for s, row in store._spo[name].items() for p, objects in row.items() for o in objects}
        pos = {(s, p, o) for p, row in store._pos[name].items() for o, subjects in row.items() for s in subjects}
        assert spo == pos and len(spo) == store.graph_size(name)
    graphs_of: dict[Iri, set[str]] = {}
    for name, by_predicate in store._pos.items():
        for predicate in by_predicate:
            graphs_of.setdefault(predicate, set()).add(name)
    assert store._graphs_of == graphs_of
    quads = list(model)
    for subject, predicate, graph in {(q.subject, q.predicate, q.graph) for q in seen}:
        assert store.objects(subject, predicate, graph) == objects_oracle(quads, subject, predicate, graph)


_store_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert", "insert", "add_all", "remove", "clone", "drop_graph", "osp", "osp", "by_predicate"]
        ),
        st.integers(0, 2**32 - 1),
    ),
    max_size=80,
)


@given(_store_ops, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_indexes_stay_consistent_under_insert_remove_clone(ops, seed):
    store = QuadStore()
    model: set[Quad] = set()
    inserted: list[Quad] = []
    # (graph, generation) -> the graph's quads at that generation: one generation, one content.
    contents: dict[tuple[str, int], frozenset[Quad]] = {}
    for op, value in ops:
        if op == "insert":
            quad = random_quad(random.Random(value))
            before = store.generation(quad.graph)
            assert store.insert(quad) is (quad not in model)
            assert (store.generation(quad.graph) > before) is (quad not in model)
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
            before = store.generation(graph)
            assert store._add_all(graph, [(q.subject, q.predicate, q.object) for q in batch]) == len(new)
            assert store.generation(graph) == before + bool(new)
            model |= new
            inserted += batch
        elif op == "remove":
            quad = inserted[value % len(inserted)] if inserted else random_quad(random.Random(value))
            before = store.generation(quad.graph)
            assert store.remove(quad) is (quad in model)
            assert (store.generation(quad.graph) > before) is (quad in model)
            model.discard(quad)
        elif op == "drop_graph":
            graph = inserted[value % len(inserted)].graph if inserted else random_quad(random.Random(value)).graph
            dropped = {quad for quad in model if quad.graph == graph}
            before = store.generation(graph)
            assert store.drop_graph(graph) == len(dropped)
            assert store.generation(graph) > before
            model -= dropped
            assert graph not in store.graph_names()
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
            assert all(store.generation(quad.graph) == original.generation(quad.graph) for quad in inserted)
            # Emptying the original must leave the copy's indexes whole.
            for quad in list(original.quads()):
                original.remove(quad)
            assert len(original) == 0 and original.graph_names() == []
            assert original._spo == original._pos == original._graph_terms == original._graphs_of == {}
        _check_tables(store, model, inserted)
        for graph in {quad.graph for quad in inserted}:
            content = store.graph_quads(graph)
            assert contents.setdefault((graph, store.generation(graph)), content) == content
    assert set(store.quads()) == model and len(store) == len(model)
    quads = list(store.quads())
    # Each index on its own: one bound position per pattern, for every term seen.
    s, p, o, g = Var("s"), Var("p"), Var("o"), Var("g")
    single_bound = {Pattern(q.subject, p, o, g) for q in inserted} | {Pattern(s, q.predicate, o, g) for q in inserted}
    single_bound |= {Pattern(s, p, q.object, g) for q in inserted} | {Pattern(s, p, o, q.graph) for q in inserted}
    for pattern in single_bound:
        assert store.match_pattern(pattern) == expected_order([pattern], nested_loop_join(quads, [pattern]))
    # `subjects` for every (predicate, object, graph) seen, removed ones included, against the same brute force.
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
    unified = 0
    original = quadstore._unify

    def counting(*args):
        nonlocal unified
        unified += 1
        return original(*args)

    monkeypatch.setattr(quadstore, "_unify", counting)
    rows = store.match_pattern(Pattern(A, P, Var("o"), G))
    assert rows == [{"o": Literal(str(i))} for i in range(3)]
    assert unified <= len(own)
    unified = 0
    assert len(store.match_pattern(Pattern(A, Var("p"), Var("o"), G))) == len(own)
    assert unified <= len(own)
    unified = 0
    assert len(store.query_bgp([Pattern(Var("s"), P, Var("o"), G), Pattern(Var("s"), Q, B, G)])) == 3
    assert unified <= 2 * len(own)
    unified = 0
    # No table leads with the object: the scan visits every quad of the graph but unifies only the matches.
    assert store.match_pattern(Pattern(Var("s"), Var("p"), B, G)) == [{"s": A, "p": Q}]
    assert unified <= len(own)
    unified = 0
    assert store.match_pattern(Pattern(Var("s"), Q, B, Var("g"))) == [{"s": A, "g": Iri(G)}]
    assert unified <= len(own)


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
    store.remove(Quad(A, Q, B, holder))
    reads.clear()
    assert store.match_pattern(Pattern(s, Q, o, g)) == []
    assert reads == set()


def test_drop_graph_leaves_every_other_graph_unchanged():
    rng = random.Random(5)
    graphs = [G, H, "http://t.example/g3"]
    store = QuadStore()
    for quad in random_dataset(rng, max_quads=300):
        store.insert(Quad(quad.subject, quad.predicate, quad.object, rng.choice(graphs)))
    in_g = store.graph_quads(G)
    s, p, o, g = Var("s"), Var("p"), Var("o"), Var("g")
    patterns = {Pattern(s, p, o, name) for name in [*graphs, g]}
    for quad in store.quads():
        for name in [*graphs, g]:
            patterns |= {Pattern(quad.subject, p, o, name), Pattern(s, quad.predicate, o, name)}
            patterns.add(Pattern(s, p, quad.object, name))
    before = {pattern: store.match_pattern(pattern) for pattern in patterns}
    assert store.drop_graph(G) == len(in_g) > 0
    assert store.graph_names() == sorted(graphs[1:]) and store.graph_size(G) == 0
    for pattern, rows in before.items():
        if pattern.graph == G:
            rows = []
        elif isinstance(pattern.graph, Var):
            rows = [row for row in rows if row["g"] != Iri(G)]
        assert store.match_pattern(pattern) == rows


def test_a_kept_snapshot_lasts_until_its_graph_changes_and_a_clone_shares_it():
    store = QuadStore()
    store.insert(Quad(A, P, B, G))
    store.insert(Quad(A, P, B, H))
    assert store.snapshot(G) is None
    kept = ("compiled from", G)
    store.keep_snapshot(G, kept)
    assert store.snapshot(G) is kept
    store.insert(Quad(A, P, B, G))  # already present: no change
    store.insert(Quad(A, Q, B, H))  # another graph
    store.remove(Quad(B, P, A, G))  # absent: no change
    assert store.snapshot(G) is kept
    clone = store.clone()
    assert clone.snapshot(G) is kept and clone.generation(G) == store.generation(G)
    clone.insert(Quad(B, P, A, G))
    assert clone.snapshot(G) is None and store.snapshot(G) is kept
    generation = store.generation(G)
    store.drop_graph(G)
    store.insert(Quad(A, P, B, G))  # the same quads again, at a later generation
    assert store.generation(G) > generation and store.snapshot(G) is None
