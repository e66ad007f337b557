from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphsynth import vocab
from graphsynth.cli import main
from graphsynth.quadstore import QuadStore
from graphsynth.seed import example_statement_path
from graphsynth.turtle import parse_document

STMT = str(example_statement_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_timing(summary: str) -> str:
    return "\n".join(line for line in summary.splitlines() if not line.startswith("time:"))


def test_synthesize_writes_the_golden_file(tmp_path, capsys, golden_source):
    code, out, err = run(capsys, "synthesize", STMT, "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "hello_analytic.py").read_bytes() == golden_source.encode()
    assert "structure: Input_Calculate_Output" in out
    assert "-pla>" in out and "-plr>" in out


def test_synthesize_summary_is_deterministic(tmp_path, capsys):
    code_a, out_a, _ = run(capsys, "synthesize", STMT, "--out", str(tmp_path))
    code_b, out_b, _ = run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--force")
    assert code_a == code_b == 0
    assert without_timing(out_a) == without_timing(out_b)


def test_synthesize_blank_lines_style(tmp_path, capsys, golden_source):
    code, _, _ = run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--style", "blank-lines")
    assert code == 0
    text = (tmp_path / "hello_analytic.py").read_text()
    assert text.replace("\n\n", "\n") == golden_source


def test_unknown_calculation_maps_to_resolve_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.aida"
    bad.write_text(example_statement_path().read_text().replace("'average value variation'", "'median'"))
    code, _, err = run(capsys, "synthesize", str(bad), "--out", str(tmp_path))
    assert code == 5
    assert "stage resolve" in err


def test_statement_syntax_error_maps_to_parse_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.aida"
    bad.write_text("program_basename = [broken\n")
    code, _, err = run(capsys, "synthesize", str(bad), "--out", str(tmp_path))
    assert code == 4
    assert "stage statement-parse" in err


def test_missing_statement_file_is_a_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "synthesize", str(tmp_path / "absent.aida"))
    assert code == 2
    assert "stage config" in err


def test_unwritable_output_maps_to_write_exit_code(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file, not directory")
    code, _, err = run(capsys, "synthesize", STMT, "--out", str(blocker))
    assert code == 8
    assert "stage write" in err


def test_existing_output_requires_force(tmp_path, capsys):
    assert run(capsys, "synthesize", STMT, "--out", str(tmp_path))[0] == 0
    code, _, err = run(capsys, "synthesize", STMT, "--out", str(tmp_path))
    assert code == 8
    assert "stage write" in err
    assert run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--force")[0] == 0


def _doctored_kb(tmp_path, filename: str, replacement: str):
    from graphsynth.seed import kb_dir
    import shutil

    kb = tmp_path / "kb"
    shutil.copytree(kb_dir(), kb)
    (kb / filename).write_text(replacement, encoding="utf-8")
    return kb


def test_missing_naming_patterns_map_to_compose_exit_code(tmp_path, capsys):
    kb = _doctored_kb(
        tmp_path,
        "naming_patterns.ttl",
        "@prefix onto: <http://graphsynth.dev/ontology/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "onto:naming_patterns a owl:Ontology ;\n"
        "    owl:imports onto:data_content , onto:code .\n",
    )
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(tmp_path))
    assert code == 6
    assert "stage compose" in err


@pytest.mark.parametrize(
    "filename, old, new",
    [
        ("code_function.ttl", 'gs:hasCallableName "mean"', 'gs:hasCallableName "class"'),
        ("data_content.ttl", 'gs:hasTypeLabel "input_data"', 'gs:hasTypeLabel "input data"'),
        # numpy's alias: `np = np.np(input_data)` would shadow the import.
        ("code_function.ttl", 'gs:hasCallableName "mean"', 'gs:hasCallableName "np"'),
    ],
    ids=["keyword-callable", "spaced-type-label", "import-alias-callable"],
)
def test_kb_label_that_is_no_identifier_maps_to_compose_exit_code(tmp_path, capsys, filename, old, new):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / filename).read_text(encoding="utf-8")
    assert old in text
    kb = _doctored_kb(tmp_path, filename, text.replace(old, new))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 6
    assert "stage compose" in err
    assert not (out / "hello_analytic.py").exists()


def test_control_character_in_a_kb_name_is_escaped_in_the_emitted_literal(tmp_path, capsys):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / "myinput.ttl").read_text(encoding="utf-8")
    old = 'gs:hasName "my_input.txt"'
    assert old in text
    kb = _doctored_kb(tmp_path, "myinput.ttl", text.replace(old, 'gs:hasName "my\\u0000input.txt"'))
    statement = tmp_path / "nul.aida"
    statement.write_text(example_statement_path().read_text().replace("'my_input.txt'", "'my\x00input.txt'"))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", str(statement), "--kb", str(kb), "--out", str(out))
    assert code == 0, err
    tree = ast.parse((out / "hello_analytic.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)]
    assert value.value == "my\x00input.txt"


def test_missing_statement_forms_map_to_render_exit_code(tmp_path, capsys):
    kb = _doctored_kb(
        tmp_path,
        "statements.ttl",
        "@prefix onto: <http://graphsynth.dev/ontology/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "onto:statements a owl:Ontology ;\n"
        "    owl:imports onto:python , onto:code .\n",
    )
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(tmp_path))
    assert code == 7
    assert "stage render" in err


def test_corrupt_kb_file_maps_to_load_exit_code(tmp_path, capsys):
    kb = tmp_path / "kb"
    kb.mkdir()
    (kb / "core.ttl").write_text("@prefix broken\n")
    (kb / "catalog.tsv").write_text("<http://t.example/core>\tcore.ttl\n")
    code, _, err = run(capsys, "kb-stats", "--kb", str(kb))
    assert code == 3
    assert "stage kb-load" in err
    assert "2:" in err or "1:" in err  # positioned diagnostic


def test_missing_kb_dir_is_a_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "kb-stats", "--kb", str(tmp_path / "nowhere"))
    assert code == 2


def test_empty_kb_dir_is_an_error(tmp_path, capsys):
    empty = tmp_path / "kb"
    empty.mkdir()
    code, _, err = run(capsys, "kb-stats", "--kb", str(empty))
    assert code == 2
    assert "catalog" in err


def test_kb_stats_reports_counts(capsys):
    code, out, _ = run(capsys, "kb-stats")
    assert code == 0
    assert "files loaded: 20" in out
    assert "algorithms: 2" in out
    assert "code functions: 4" in out
    assert "libraries: 2" in out


def test_explicit_catalog_flag(tmp_path, capsys):
    from graphsynth.seed import catalog_path, kb_dir

    moved = tmp_path / "elsewhere.tsv"
    lines = catalog_path().read_text().splitlines()
    moved.write_text(
        "\n".join(line if line.startswith("#") else line.replace("\t", f"\t{kb_dir()}/") for line in lines) + "\n"
    )
    code, out, err = run(capsys, "kb-stats", "--kb", str(kb_dir()), "--catalog", str(moved))
    assert code == 0, err
    assert "files loaded: 20" in out


def test_kb_dir_env_variable_is_honoured(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRAPHSYNTH_KB", str(tmp_path / "nowhere"))
    code, _, err = run(capsys, "kb-stats")
    assert code == 2
    assert "nowhere" in err


def test_dump_graph_unknown_graph_is_header_only(capsys):
    code, out, _ = run(capsys, "dump-graph", "http://graphsynth.dev/graph/unknown")
    assert code == 0
    assert all(line.startswith("@prefix") or not line for line in out.splitlines())


def test_dump_graph_after_synthesis_round_trips(capsys):
    graph = vocab.program_graph_iri("hello_analytic", "pla")
    code, out, _ = run(capsys, "dump-graph", graph, "--statement", STMT)
    assert code == 0
    reparsed = parse_document(out, graph=graph)
    assert len(reparsed.statements) > 0
    store = QuadStore()
    for quad in reparsed.statements:
        store.insert(quad)
    assert store.graph_size(graph) == len(set(reparsed.statements))


def test_query_lists_both_algorithms(capsys):
    code, out, _ = run(capsys, "query", "?alg a gs:Algorithm")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "?alg"
    assert len(lines) == 3  # header + two rows
    assert "kb:arithmetic_mean" in lines[1]


def test_query_join_across_patterns(capsys):
    code, out, _ = run(capsys, "query", "?alg a gs:Algorithm", "?alg gs:hasTimeComplexity ?c")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert all('"O(n)"' in row for row in rows)


def test_query_unsatisfiable_pattern_gives_empty_table(capsys):
    code, out, _ = run(capsys, "query", "?x gs:hasName \"no_such_entity\"")
    assert code == 0
    assert out.strip().splitlines() == ["?x"]


def test_query_single_pattern_equals_match_pattern(capsys, seed_kb):
    from graphsynth.quadstore import Pattern, Var
    from graphsynth.terms import Iri, RDF_TYPE

    code, out, _ = run(capsys, "query", "?fn a gs:CodeFunction")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    store, _ = seed_kb
    direct = store.match_pattern(Pattern(Var("fn"), Iri(RDF_TYPE), Iri(vocab.CODE_FUNCTION), vocab.CORE_GRAPH))
    assert len(rows) == len(direct)
    assert [row.split("\t")[0].split(":")[-1] for row in rows] == [
        b["fn"].value.rsplit("/", 1)[-1] for b in direct
    ]


def test_query_pattern_syntax_error_is_config(capsys):
    code, _, err = run(capsys, "query", "?x only-two")
    assert code == 2
    assert "stage config" in err


def test_query_bad_term_is_config(capsys):
    code, _, err = run(capsys, "query", "?x ?p %%%")
    assert code == 2


def test_importing_the_cli_does_not_import_subprocess():
    import graphsynth

    # -S keeps site-installed .pth files out, so only graphsynth's own imports count.
    env = {**os.environ, "PYTHONPATH": str(Path(graphsynth.__file__).parents[1])}
    probe = "import sys, graphsynth.cli; print('subprocess' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_exec_check_reports_values(tmp_path, capsys):
    pytest.importorskip("numpy")
    code, out, err = run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--exec-check")
    assert code == 0, err
    [line] = [l for l in out.splitlines() if l.startswith("exec-check:")]
    assert "mean=3.5" in line
