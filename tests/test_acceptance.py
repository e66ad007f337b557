"""Acceptance suite: one test per top-level criterion, each printing a
PASS line once its assertions hold (visible with `pytest -v -s` or `-rA`).
"""

from __future__ import annotations

import math
import random
import shutil
import string
import subprocess
import sys
import time
from importlib.util import find_spec

import pytest

from conftest import NUMPY_MEAN, NUMPY_STD
from graphsynth import vocab, views
from graphsynth.cli import main
from graphsynth.composer import compose, derive_variable_name, import_order, NameAllocator, NamingContext
from graphsynth.errors import ProblemStatementError, TurtleParseError
from graphsynth.problem import parse_problem_statement
from graphsynth.quadstore import Quad, QuadStore
from graphsynth.renderer import render
from graphsynth.resolver import check_compatibility, resolve
from graphsynth.seed import example_statement_path, fixture_path, kb_dir
from graphsynth.terms import Iri
from graphsynth.turtle import parse_document, serialize
from graphsynth.views import LibraryInfo

from oracles import canonical, expected_order, load_pla, nested_loop_join, tractable_case
from test_turtle import fuzz_once

STMT = str(example_statement_path())


def report(number: int, message: str):
    print(f"ACCEPTANCE C{number} PASS: {message}")


def test_c1_golden_end_to_end(tmp_path, capsys, golden_source):
    started = time.perf_counter()
    code = main(["synthesize", STMT, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    produced = (tmp_path / "hello_analytic.py").read_bytes()
    assert produced == golden_source.encode("utf-8")
    assert produced.endswith(b"\n") and not produced.endswith(b"\n\n")
    assert elapsed < 1.0, f"synthesis took {elapsed:.3f}s"
    report(1, f"byte-identical hello_analytic.py in {elapsed:.3f}s")


def test_c2_matching_fidelity(seed_kb):
    store, _ = seed_kb
    [mean_alg] = views.kb(store).algorithms_by_label["average value"]
    [std_alg] = views.kb(store).algorithms_by_label["average value variation"]
    assert mean_alg.name == "arithmetic_mean"
    assert std_alg.name == "standard_deviation"
    [ds] = views.kb(store).data_sources["my_input.txt"]
    assert ds.data_rows == 6
    for alg in (mean_alg, std_alg):
        assert alg.min_input_count == 2
        assert alg.inputs_same_quantity
        assert check_compatibility(alg, ds) == []
    report(2, "labels map to the expected algorithms and the 6-row source is compatible")


@pytest.mark.skipif(find_spec("numpy") is None, reason="exec-check needs the numerical package")
def test_c3_exec_check_against_independent_oracle(tmp_path, capsys):
    # Oracle, computed from the fixture with stdlib arithmetic only:
    # mean = sum(x)/n, population std = sqrt(sum((x - mean)^2)/n).
    values = [float(line) for line in fixture_path().read_text().split()]
    oracle_mean = sum(values) / len(values)
    oracle_std = math.sqrt(sum((x - oracle_mean) ** 2 for x in values) / len(values))
    assert abs(oracle_mean - 3.5) < 1e-12
    assert abs(oracle_std - 1.707825127659933) < 1e-12

    code = main(["synthesize", STMT, "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    shutil.copyfile(fixture_path(), tmp_path / "my_input.txt")
    proc = subprocess.run(
        [sys.executable, "hello_analytic.py"], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    got_mean = float(lines[0].partition("=")[2])
    got_std = float(lines[1].partition("=")[2])
    assert lines[0].startswith("mean = ")
    assert lines[1].startswith("std = ")
    assert abs(got_mean - oracle_mean) <= 1e-9
    assert abs(got_std - oracle_std) <= 1e-9
    report(3, f"emitted program printed mean={got_mean} std={got_std}, both within 1e-9 of the oracle")


def _synthesize_variants(kb_store, statement_text):
    plan = resolve(parse_problem_statement(statement_text), kb_store)
    variants = [
        ("exemplar", plan),
        ("zero-calculations", plan._replace(calculations=(), program_basename="hollow")),
        ("single", plan._replace(calculations=plan.calculations[:1], program_basename="single")),
        (
            "duplicated",
            plan._replace(calculations=plan.calculations + plan.calculations, program_basename="doubled"),
        ),
    ]
    for _, variant in variants:
        pla = compose(variant, kb_store)
        plr = render(pla, variant.language, kb_store)
        yield variant, pla, plr


def test_c4_pla_plr_separation(kb_store, statement_text):
    sizes = []
    for variant, pla, plr in _synthesize_variants(kb_store, statement_text):
        pla_size = kb_store.graph_size(pla.graph_iri)
        plr_size = kb_store.graph_size(plr.graph_iri)
        assert pla_size > 0 and plr_size > 0
        sizes.append((variant.program_basename, pla_size, plr_size))
        for quad in kb_store.quads(pla.graph_iri):
            assert not quad.predicate.value.startswith(vocab.PLR), quad
            if isinstance(quad.object, Iri):
                assert not quad.object.value.startswith(vocab.PLR), quad
    for basename, pla_size, plr_size in sizes:
        print(f"  {basename}: abstract graph = {pla_size} quads, concrete graph = {plr_size} quads")
    report(4, "both program graphs non-empty and the abstract graph is free of concrete vocabulary")


def test_c5_query_engine_equals_brute_force_on_1000_cases():
    rng = random.Random(0xC5)
    for iteration in range(1000):
        quads, patterns = tractable_case(rng, max_quads=200, budget=200_000)
        store = QuadStore()
        for quad in quads:
            store.insert(quad)
        got = store.query_bgp(patterns)
        oracle = nested_loop_join(list(dict.fromkeys(quads)), patterns)
        assert sorted(map(canonical, got)) == sorted(map(canonical, oracle)), f"iteration {iteration}"
        assert got == expected_order(patterns, oracle), f"iteration {iteration}"
    report(5, "query_bgp matched the nested-loop oracle (multiset and order) on 1000 random cases")


def test_c6_ordering_properties(kb_store, statement_text):
    rng = random.Random(0xC6)
    for _ in range(500):
        names = {
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 12)))
            for _ in range(rng.randint(0, 10))
        }
        libs = [
            LibraryInfo(iri=f"http://t.example/{n}", official_name=n, alias=("x" if rng.random() < 0.5 else None), kind="external-package")
            for n in names
        ]
        ordered = [lib.official_name for lib in import_order(libs)]
        assert ordered == sorted(ordered, key=lambda n: n.encode("utf-8"))

    for variant, pla, plr in _synthesize_variants(kb_store, statement_text):
        walked = load_pla(kb_store, pla.graph_iri)
        emission = [s.name for s in sorted(walked.sections, key=lambda s: s.emission_index)]
        composition = [s.name for s in sorted(walked.sections, key=lambda s: s.composition_index)]
        assert emission == list(vocab.EMISSION_ORDER)
        assert composition == list(vocab.COMPOSITION_ORDER)
        statement_sections = [
            placed.section for placed in walked.all_statements()
        ]  # composition-index order
        boundaries = [statement_sections.index(name) for name in composition if name in statement_sections]
        assert boundaries == sorted(boundaries)
        assert [name for name, _ in plr.sections] == list(vocab.EMISSION_ORDER)
    report(6, "import lines sorted on 500 random sets; emission and composition section orders hold")


def test_c7_naming_rules(kb_store):
    kb = views.kb(kb_store)
    patterns = kb.naming_patterns
    mean_fn = kb.functions[NUMPY_MEAN]
    std_fn = kb.functions[NUMPY_STD]
    derived = [
        derive_variable_name(
            patterns, NamingContext(vocab.PATTERN_LITERAL_IS_DATASOURCE_FILENAME, content_label="input_data")
        ),
        derive_variable_name(patterns, NamingContext(vocab.PATTERN_FILENAME_ARG_TO_READER, content_label="input_data")),
        derive_variable_name(patterns, NamingContext(vocab.PATTERN_ASSIGN_FUNCTION_RETURN, function=mean_fn)),
        derive_variable_name(patterns, NamingContext(vocab.PATTERN_ASSIGN_FUNCTION_RETURN, function=std_fn)),
    ]
    assert derived == ["input_data_filename", "input_data", "mean", "std"]
    allocator = NameAllocator()
    assert [allocator.allocate("mean") for _ in range(3)] == ["mean", "mean_2", "mean_3"]
    again = NameAllocator()
    assert [again.allocate("mean") for _ in range(3)] == ["mean", "mean_2", "mean_3"]
    report(7, "the three naming patterns and the collision policy produce the expected names")


def test_c8_format_robustness(seed_kb):
    store, _ = seed_kb
    seeds = [path.read_text(encoding="utf-8") for path in sorted(kb_dir().glob("*.ttl"))]
    rng = random.Random(0xC8)
    for _ in range(10_000):
        text = fuzz_once(rng, seeds)
        try:
            parse_document(text)
        except TurtleParseError as exc:
            assert exc.line is not None and exc.column is not None

    exemplar = example_statement_path().read_text(encoding="utf-8")
    alphabet = string.ascii_letters + string.digits + " \t\n'[]=,\\_-#"
    for _ in range(10_000):
        roll = rng.random()
        if roll < 0.5:
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 80)))
        else:
            chars = list(exemplar)
            for _ in range(rng.randint(1, 8)):
                index = rng.randrange(len(chars))
                if rng.random() < 0.5 and len(chars) > 1:
                    del chars[index]
                else:
                    chars[index] = rng.choice(alphabet)
            text = "".join(chars)
        try:
            parse_problem_statement(text)
        except ProblemStatementError:
            pass

    round_tripped = parse_document(serialize(store, vocab.CORE_GRAPH))
    assert {Quad(*t, vocab.CORE_GRAPH) for t in round_tripped.statements} == store.graph_quads(vocab.CORE_GRAPH)
    report(8, "20k fuzzed inputs parsed or diagnosed; shipped KB round-trips through the serializer")


def test_c9_negative_paths(tmp_path, capsys):
    source = example_statement_path().read_text(encoding="utf-8")
    cases = {
        "missing-data-source": source.replace("my_input.txt", "absent.txt"),
        "unknown-calculation": source.replace("'average value variation'", "'median'"),
        "unsatisfiable-requirements": source.replace("'report result'", "'levitate'"),
        "unknown-language": source.replace("Python-3.8", "Rust-1.70"),
    }
    for name, text in cases.items():
        statement = tmp_path / f"{name}.aida"
        statement.write_text(text, encoding="utf-8")
        code = main(["synthesize", str(statement), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 5, name
        assert "stage resolve" in captured.err, name
    report(9, "all four negative statements exited 5 with a diagnostic naming the resolve stage")
