from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import quadstore, vocab
from graphsynth.errors import MalformedQuadError, MalformedTermError
from graphsynth.quadstore import Pattern, Quad, QuadStore, Var
from graphsynth.terms import RDF_LANG_STRING, Blank, Iri, Literal, sort_key

from oracles import (
    canonical,
    expected_order,
    nested_loop_join,
    objects_oracle,
    oracle_cost,
    random_bgp,
    random_quad,
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
    assert sort_key(Literal("x", RDF_LANG_STRING, "en")) != sort_key(Literal("x", RDF_LANG_STRING))


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
    ordered = sorted(terms, key=sort_key)
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
    oracle = nested_loop_join(sorted(set(quads), key=lambda q: (sort_key(q.subject), sort_key(q.predicate), sort_key(q.object), q.graph)), patterns)
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


def _check_subject_index(store: QuadStore, model: set[Quad], seen: list[Quad]):
    """`objects` agrees with brute force, and the nested index keeps no empty level."""
    for by_predicate in store._by_subject.values():
        assert by_predicate and all(by_predicate.values())
    quads = list(model)
    for subject, predicate, graph in {(q.subject, q.predicate, q.graph) for q in seen}:
        assert store.objects(subject, predicate, graph) == objects_oracle(quads, subject, predicate, graph)


_store_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "insert", "remove", "clone"]), st.integers(0, 2**32 - 1)),
    max_size=80,
)


@given(_store_ops, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_indexes_stay_consistent_under_insert_remove_clone(ops, seed):
    store = QuadStore()
    model: set[Quad] = set()
    inserted: list[Quad] = []
    for op, value in ops:
        if op == "insert":
            quad = random_quad(random.Random(value))
            assert store.insert(quad) is (quad not in model)
            model.add(quad)
            inserted.append(quad)
        elif op == "remove":
            quad = inserted[value % len(inserted)] if inserted else random_quad(random.Random(value))
            assert store.remove(quad) is (quad in model)
            model.discard(quad)
        else:
            original, store = store, store.clone()
            # Emptying the original must leave the copy's indexes whole.
            for quad in list(original.quads()):
                original.remove(quad)
            assert len(original) == 0 and original.graph_names() == [] and original._by_subject == {}
        _check_subject_index(store, model, inserted)
    assert set(store.quads()) == model and len(store) == len(model)
    quads = list(store.quads())
    # Each index on its own: one bound position per pattern, for every term seen.
    s, p, o, g = Var("s"), Var("p"), Var("o"), Var("g")
    single_bound = {Pattern(q.subject, p, o, g) for q in inserted} | {Pattern(s, q.predicate, o, g) for q in inserted}
    single_bound |= {Pattern(s, p, q.object, g) for q in inserted} | {Pattern(s, p, o, q.graph) for q in inserted}
    for pattern in single_bound:
        assert store.match_pattern(pattern) == expected_order([pattern], nested_loop_join(quads, [pattern]))
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
