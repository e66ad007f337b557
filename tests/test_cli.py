from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR, NUMPY_MEAN
from test_seedkb import ZFORM, ZFORM_PROBLEM
from graphsynth import vocab
from graphsynth.cli import main
from graphsynth.quadstore import Quad, QuadStore
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


@pytest.mark.parametrize(
    "slot_text",
    [
        " = (",
        # Parses, but `yield` outside a function does not compile.
        " = yield ",
    ],
    ids=["unclosed-paren", "yield-outside-function"],
)
def test_emitted_text_that_does_not_parse_maps_to_render_exit_code(tmp_path, capsys, slot_text):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / "statements.ttl").read_text(encoding="utf-8")
    old = 'gs:hasSlotText " = "'
    assert old in text
    kb = _doctored_kb(tmp_path, "statements.ttl", text.replace(old, f'gs:hasSlotText "{slot_text}"'))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 7
    assert "stage render: emitted source does not parse" in err
    assert not (out / "hello_analytic.py").exists()


def test_a_form_that_does_not_fill_exactly_its_variations_fields_maps_to_load_exit_code(tmp_path, capsys):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / "statements.ttl").read_text(encoding="utf-8")
    # Filled, it would emit `input_data = input_data`.
    old = 'kb:py_assign_expr_s2 a gs:TemplateSlot ;\n    gs:hasSlotIndex 2 ;\n    gs:hasSlotField "expression" .'
    assert old in text
    kb = _doctored_kb(tmp_path, "statements.ttl", text.replace(old, old.replace('"expression"', '"target"')))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    assert ("kb:py_assign_expr gs:hasTemplateSlot: field slots ['target', 'target'], "
            "expected the fields of assign-expr: ['target', 'expression']") in err
    assert not out.exists() or list(out.iterdir()) == []


def test_a_blank_node_typed_with_a_shaped_class_maps_to_load_exit_code(tmp_path, capsys):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / "myinput.ttl").read_text(encoding="utf-8")
    kb = _doctored_kb(tmp_path, "myinput.ttl", text + "\n_:stray a gs:DataSource .\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    # The loader gives each blank node a dataset-unique id, so only the rest of the problem is stable.
    assert ": expected an IRI for an instance of gs:DataSource, found a blank node" in err
    assert "  - _:b" in err
    assert not out.exists() or list(out.iterdir()) == []


def test_a_call_to_a_function_the_program_does_not_carry_maps_to_render_exit_code(tmp_path, capsys, monkeypatch):
    from graphsynth import cli, composer

    def compose_without_mean(plan, store):
        pla = composer.compose(plan, store)
        functions = tuple(function for function in pla.called_functions if function.iri != NUMPY_MEAN)
        return pla._replace(called_functions=functions)

    monkeypatch.setattr(cli, "compose", compose_without_mean)
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--out", str(out))
    assert code == 7
    assert f"stage render: function {NUMPY_MEAN} is not among the program's called functions" in err
    assert not (out / "hello_analytic.py").exists()


@pytest.mark.parametrize(
    "filename, old, new, entity, problem",
    [
        ("code_function.ttl", 'gs:hasCallableName "mean"', 'gs:hasCallableName "mean", "average"',
         "kb:numpy_mean", 'gs:hasCallableName: expected exactly 1 value, found 2'),
        ("code_function.ttl", "kb:numpy_mean_arg0 a gs:ArgumentSlot ;\n    gs:hasSlotIndex 0 ;\n",
         "kb:numpy_mean_arg0 a gs:ArgumentSlot ;\n",
         "kb:numpy_mean_arg0", "gs:hasSlotIndex: expected exactly 1 value, found 0"),
        ("arithmetic_mean.ttl", "gs:hasMinInputCount 2", 'gs:hasMinInputCount "two"',
         "kb:arithmetic_mean", 'gs:hasMinInputCount: expected an integer literal, found "two"'),
        ("arithmetic_mean.ttl", "gs:requiresNumericInput true", 'gs:requiresNumericInput "yes"',
         "kb:arithmetic_mean", 'gs:requiresNumericInput: expected a boolean literal, found "yes"'),
        ("code_function.ttl", 'gs:hasCallableName "mean" ;\n    gs:providedBy kb:numpy',
         'gs:hasCallableName "mean" ;\n    gs:providedBy "numpy"',
         "kb:numpy_mean", 'gs:providedBy: expected an instance of gs:Library, found "numpy"'),
        ("code_function.ttl", "gs:hasPurpose kb:arithmetic_mean", 'gs:hasPurpose "arithmetic_mean"',
         "kb:numpy_mean", 'gs:hasPurpose: expected an IRI, found "arithmetic_mean"'),
        ("code_function.ttl", 'gs:hasCallableName "mean" ;\n    gs:providedBy kb:numpy',
         'gs:hasCallableName "mean" ;\n    gs:providedBy kb:csv_format',
         "kb:numpy_mean", "gs:providedBy: expected an instance of gs:Library, found kb:csv_format"),
        ("code_function.ttl", 'gs:hasCallableName "loadtxt"', 'gs:hasCallableName "loadtxt#"',
         "kb:numpy_loadtxt", 'gs:hasCallableName: expected a dotted identifier, found "loadtxt#"'),
        # With `' ` the program opened ' my_input.txt' and synthesize exited 0.
        *(("python.ttl", "gs:hasStringLiteralQuote \"'\"", f"gs:hasStringLiteralQuote {shown}", "kb:python_3_8",
           "gs:hasStringLiteralQuote: expected one character that is no word character, whitespace or backslash, "
           f"found {shown}") for shown in ('"\' "', '"\'\'"', '"x"', '"\\\\"')),
    ],
    ids=["max-count", "min-count", "integer-kind", "boolean-kind", "library-literal", "iri-kind", "target-class",
         "dotted-identifier", "quote-space", "two-quotes", "word-quote", "backslash-quote"],
)
def test_kb_shape_violation_maps_to_load_exit_code_and_names_entity_and_property(
    tmp_path, capsys, filename, old, new, entity, problem
):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / filename).read_text(encoding="utf-8")
    assert text.count(old) == 1
    kb = _doctored_kb(tmp_path, filename, text.replace(old, new))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    assert "stage kb-load" in err
    assert f"  - {entity} {problem}\n" in err
    assert not (out / "hello_analytic.py").exists()


@pytest.mark.parametrize(
    "filename, edits, problem",
    [
        ("statements.ttl", [("kb:py_assign_expr_s2 a gs:TemplateSlot ;\n    gs:hasSlotIndex 2",
                             "kb:py_assign_expr_s2 a gs:TemplateSlot ;\n    gs:hasSlotIndex 0")],
         "kb:py_assign_expr gs:hasTemplateSlot: slot index 0 is held by kb:py_assign_expr_s0, kb:py_assign_expr_s2"),
        ("code_function.ttl", [("gs:hasArgumentSlot kb:numpy_mean_arg0 ;",
                                "gs:hasArgumentSlot kb:numpy_mean_arg0 , kb:numpy_mean_arg1 ;"),
                               ("kb:numpy_std a gs:CodeFunction",
                                "kb:numpy_mean_arg1 a gs:ArgumentSlot ;\n    gs:hasSlotIndex 0 ;\n"
                                "    gs:hasSlotRole kb:role_input_data .\n\nkb:numpy_std a gs:CodeFunction")],
         "kb:numpy_mean gs:hasArgumentSlot: slot index 0 is held by kb:numpy_mean_arg0, kb:numpy_mean_arg1"),
        # Without its " as " slot the example's import line read `import numpynp`, and synthesize exited 0.
        ("statements.ttl", [("kb:py_import_aliased_s1 ,\n        kb:py_import_aliased_s2 , kb:py_import_aliased_s3 .",
                             "kb:py_import_aliased_s1 ,\n        kb:py_import_aliased_s3 .")],
         "kb:py_import_aliased gs:hasTemplateSlot: slot indexes [0, 1, 3] do not run 0..2"),
        # A slot no form holds was accepted, and synthesize exited 0.
        ("statements.ttl", [("kb:py_import_plain_s0 a gs:TemplateSlot ;",
                             'kb:py_loose_s0 a gs:TemplateSlot ;\n    gs:hasSlotIndex 0 ;\n    gs:hasSlotText "x" .\n'
                             "kb:py_import_plain_s0 a gs:TemplateSlot ;")],
         "kb:py_loose_s0: expected exactly 1 owner by gs:hasTemplateSlot, found 0"),
        # With a second assign-expr form, the later one in IRI order was filled and synthesize exited 0.
        ("statements.ttl", [("gs:hasSlotField a owl:DatatypeProperty .\n",
                             "gs:hasSlotField a owl:DatatypeProperty .\n" + ZFORM)], ZFORM_PROBLEM),
    ],
    ids=["template-slot", "argument-slot", "template-slot-gap", "orphan-template-slot", "second-form"],
)
def test_duplicate_slot_index_maps_to_load_exit_code_and_names_the_slots(tmp_path, capsys, filename, edits, problem):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / filename).read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    kb = _doctored_kb(tmp_path, filename, text)
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    assert "stage kb-load" in err
    assert f"  - {problem}\n" in err
    assert not (out / "hello_analytic.py").exists()


@pytest.mark.parametrize(
    "edits, problem",
    [
        ([("gs:hasEmissionIndex 3 ;\n    gs:hasCompositionIndex 2", "gs:hasEmissionIndex 4 ;\n    gs:hasCompositionIndex 2"),
          ("gs:hasEmissionIndex 4 ;\n    gs:hasCompositionIndex 3", "gs:hasEmissionIndex 3 ;\n    gs:hasCompositionIndex 3")],
         "structure Input_Calculate_Output emission order is Preamble, Input, Calculate, CleanUp, Output, "
         "expected Preamble, Input, Calculate, Output, CleanUp"),
        ([("gs:hasEmissionIndex 2 ;\n    gs:hasCompositionIndex 1", "gs:hasEmissionIndex 2 ;\n    gs:hasCompositionIndex 2"),
          ("gs:hasEmissionIndex 3 ;\n    gs:hasCompositionIndex 2", "gs:hasEmissionIndex 3 ;\n    gs:hasCompositionIndex 1")],
         "structure Input_Calculate_Output composition order is Input, Output, Calculate, CleanUp, Preamble, "
         "expected Input, Calculate, Output, CleanUp, Preamble"),
    ],
    ids=["swapped-emission", "swapped-composition"],
)
def test_section_order_the_pipeline_does_not_follow_maps_to_load_exit_code(tmp_path, capsys, edits, problem):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / "program_structure.ttl").read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    kb = _doctored_kb(tmp_path, "program_structure.ttl", text)
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    assert "stage kb-load" in err
    assert f"  - {problem}\n" in err
    assert not (out / "hello_analytic.py").exists()


def test_corrupt_kb_file_maps_to_load_exit_code(tmp_path, capsys):
    kb = tmp_path / "kb"
    kb.mkdir()
    (kb / "core.ttl").write_text("@prefix broken\n")
    (kb / "catalog.tsv").write_text("<http://t.example/core>\tcore.ttl\n")
    code, _, err = run(capsys, "kb-stats", "--kb", str(kb))
    assert code == 3
    assert "stage kb-load" in err
    assert "2:" in err or "1:" in err  # positioned diagnostic


@pytest.mark.parametrize(
    "filename, old, new, message",
    [
        ("myinput.ttl", 'gs:hasName "my_input.txt"', 'gs:hasName "my\\uD800input.txt"', "12:19: bad unicode escape"),
        ("myinput.ttl", 'gs:hasName "my_input.txt"', 'gs:hasName "my\\U00110000input.txt"', "12:19: bad unicode escape"),
        ("units.ttl", "kb:unitless a gs:Unit", "<http://graphsynth.dev/kb/unit\u00a0less> a gs:Unit", "13:1: IRI contains"),
        ("units.ttl", "@prefix kb: <http://graphsynth.dev/kb/>", "@prefix kb: <http://graphsynth.dev/kb\u00a0/>", "13:1: IRI contains"),
        ("units.ttl", "kb:unitless a gs:Unit", ":unitless a gs:Unit", "13:1: undeclared prefix ':'"),
    ],
    ids=["surrogate-escape", "escape-past-unicode", "spaced-iri", "spaced-iri-via-prefix", "undeclared-prefix"],
)
def test_broken_kb_file_maps_to_load_exit_code_and_is_named(tmp_path, capsys, filename, old, new, message):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / filename).read_text(encoding="utf-8")
    assert old in text
    kb = _doctored_kb(tmp_path, filename, text.replace(old, new))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    assert f"error at stage kb-load: {kb / filename}: {message}" in err
    assert not (out / "hello_analytic.py").exists()


def test_kb_file_that_is_no_utf8_maps_to_load_exit_code_and_is_named(tmp_path, capsys):
    kb = _doctored_kb(tmp_path, "units.ttl", "")
    (kb / "units.ttl").write_bytes("# caf\u00e9\n".encode("latin-1"))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    assert f"error at stage kb-load: {kb / 'units.ttl'}: not UTF-8 text" in err
    assert not (out / "hello_analytic.py").exists()


def test_statement_that_is_no_utf8_maps_to_parse_exit_code_and_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.aida"
    bad.write_bytes("program_basename = 'caf\u00e9'\n".encode("latin-1"))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", str(bad), "--out", str(out))
    assert code == 4
    assert f"error at stage statement-parse: {bad}: not UTF-8 text" in err
    assert not out.exists()


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


@pytest.mark.parametrize("basename", ["hello analytic", "a>b", "a\x01b"], ids=["space", "angle", "control"])
def test_a_basename_that_cannot_be_part_of_an_iri_maps_to_parse_exit_code(tmp_path, capsys, basename):
    statement = tmp_path / "statement.aida"
    text = Path(STMT).read_text(encoding="utf-8").replace("'hello_analytic'", f"'{basename}'")
    statement.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", str(statement), "--out", str(out))
    assert code == 4
    assert "stage statement-parse" in err and "program_basename must be non-empty" in err
    assert not out.exists() or list(out.iterdir()) == []


def test_dump_graph_unknown_graph_is_header_only(capsys):
    code, out, _ = run(capsys, "dump-graph", "http://graphsynth.dev/graph/unknown")
    assert code == 0
    assert all(line.startswith("@prefix") or not line for line in out.splitlines())


def test_dump_graph_after_synthesis_round_trips(capsys):
    graph = vocab.program_graph_iri("hello_analytic", "pla")
    code, out, _ = run(capsys, "dump-graph", graph, "--statement", STMT)
    assert code == 0
    reparsed = parse_document(out)
    assert len(reparsed.statements) > 0
    store = QuadStore()
    for triple in reparsed.statements:
        store.insert(Quad(*triple, graph))
    assert store.graph_size(graph) == len(set(reparsed.statements))


@pytest.mark.parametrize("kind", ["pla", "plr"])
def test_dump_graph_of_the_example_program_matches_its_golden(capsys, kind):
    code, out, _ = run(capsys, "dump-graph", vocab.program_graph_iri("hello_analytic", kind), "--statement", STMT)
    assert code == 0
    assert out == (GOLDEN_DIR / f"hello_analytic-{kind}.ttl").read_text(encoding="utf-8")


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


@pytest.mark.parametrize("graph", ['"x"', "_:b", "42", "true"], ids=["literal", "blank", "integer", "boolean"])
def test_query_graph_term_that_is_no_iri_or_variable_is_config(capsys, graph):
    code, out, err = run(capsys, "query", f"?s ?p ?o {graph}")
    assert code == 2
    assert f"stage config: graph term must be an IRI or a variable, got {graph!r}" in err
    assert out == "" and "Traceback" not in err


@pytest.fixture(scope="module")
def modules_after_importing_the_cli() -> set[str]:
    import graphsynth

    # -S keeps site-installed .pth files out, so only graphsynth's own imports count.
    env = {**os.environ, "PYTHONPATH": str(Path(graphsynth.__file__).parents[1])}
    probe = "import sys, graphsynth.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module, loaded",
    [
        # Machinery no command needs: subprocess is for --exec-check only,
        # hashlib for blank-node renaming only; dataclasses brings inspect and ast.
        ("subprocess", False),
        ("dataclasses", False),
        ("inspect", False),
        ("ast", False),
        ("hashlib", False),
        # The pipeline modules, which a tracer wrapping their functions
        # expects to find loaded after `import graphsynth.cli`.
        ("graphsynth.resolver", True),
        ("graphsynth.composer", True),
        ("graphsynth.renderer", True),
        ("graphsynth.problem", True),
        ("graphsynth.views", True),
    ],
)
def test_importing_the_cli_loads_the_pipeline_and_no_unneeded_module(modules_after_importing_the_cli, module, loaded):
    assert (module in modules_after_importing_the_cli) == loaded


def test_exec_check_reports_values(tmp_path, capsys):
    pytest.importorskip("numpy")
    code, out, err = run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--exec-check")
    assert code == 0, err
    [line] = [l for l in out.splitlines() if l.startswith("exec-check:")]
    assert "mean=3.5" in line


def test_exec_check_of_a_one_calculation_program_expects_one_report_line(tmp_path, capsys):
    pytest.importorskip("numpy")
    statement = tmp_path / "one.aida"
    statement.write_text(example_statement_path().read_text().replace(",\n        'average value variation'", ""))
    code, out, err = run(capsys, "synthesize", str(statement), "--out", str(tmp_path), "--exec-check")
    assert code == 0, err
    assert "mean = " in (tmp_path / "hello_analytic.py").read_text()
    [line] = [l for l in out.splitlines() if l.startswith("exec-check:")]
    assert line == "exec-check: mean=3.5"
