from __future__ import annotations

import ast
import errno
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR
from test_seedkb import ZFORM, ZFORM_PROBLEM
from graphsynth import seed, vocab
from graphsynth.cli import EXIT_KB_LOAD, main
from graphsynth.errors import (
    CatalogError,
    ComposeError,
    ConfigError,
    ExecCheckError,
    ImportResolutionError,
    KbFileError,
    KbValidationError,
    MalformedQuadError,
    NoAlgorithmError,
    ProblemStatementError,
    RenderError,
    WriteError,
)
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


def test_an_out_that_names_a_file_exits_at_stage_write_and_creates_nothing(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file, not directory")
    for force in ([], ["--force"]):
        code, _, err = run(capsys, "synthesize", STMT, "--out", str(blocker), *force)
        assert code == 8
        assert f"error at stage write: cannot write {blocker / 'hello_analytic.py'}: [Errno {errno.ENOTDIR}]" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["not_a_dir"]
        assert blocker.read_text() == "file, not directory"


def test_existing_output_requires_force(tmp_path, capsys):
    assert run(capsys, "synthesize", STMT, "--out", str(tmp_path))[0] == 0
    code, _, err = run(capsys, "synthesize", STMT, "--out", str(tmp_path))
    assert code == 8
    assert "stage write" in err
    assert run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--force")[0] == 0


def _doctored_kb(tmp_path, filename: str, replacement: str):
    from graphsynth.seed import kb_dir

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


def test_a_form_whose_fill_would_not_stand_as_a_token_maps_to_load_exit_code(tmp_path, capsys):
    from graphsynth.seed import kb_dir

    text = (kb_dir() / "statements.ttl").read_text(encoding="utf-8")
    # Filled, it would emit `import numpy as xnp`.
    old = 'gs:hasSlotText " as " .'
    assert text.count(old) == 1
    kb = _doctored_kb(tmp_path, "statements.ttl", text.replace(old, 'gs:hasSlotText " as x" .'))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out))
    assert code == 3
    assert ('kb:py_import_aliased gs:hasTemplateSlot: field alias is preceded by a word character in slot text '
            '" as x"') in err
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


@pytest.mark.parametrize("preferences", [["numpy", "scipy"], ["scipy", "numpy"]], ids=["numpy-first", "scipy-first"])
def test_more_than_one_library_preference_exits_at_stage_resolve(tmp_path, capsys, preferences):
    statement = tmp_path / "preferences.aida"
    statement.write_text(example_statement_path().read_text() + f"library_preferences = {preferences!r}\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", str(statement), "--out", str(out))
    assert code == 5
    assert err == "graphsynth: error at stage resolve: at most one library preference is supported per program\n"
    assert not out.exists()


@pytest.mark.parametrize("preference, old, new, message", [
    # Only numpy implements the arithmetic mean.
    ("scipy", None, None,
     "implementation of arithmetic_mean in the preferred library 'scipy'; libraries that implement it: numpy"),
    # The calculations resolve to numpy's functions, but the one reader is sys's.
    ("numpy", 'gs:hasCallableName "loadtxt" ;\n    gs:providedBy kb:numpy', 'gs:hasCallableName "loadtxt" ;\n'
     '    gs:providedBy kb:sys', "reader for data source my_input.txt in the preferred library 'numpy'; "
     "libraries that implement it: sys"),
    # The exit function is chosen whatever the preference; none is left for the exit action.
    ("numpy", "gs:hasPurpose kb:action_program_exit", "gs:hasPurpose kb:read_csv_float_file", "program-exit action"),
], ids=["calculation", "reader", "exit"])
def test_no_code_function_exits_at_stage_resolve_and_names_what_is_missing(tmp_path, capsys, preference, old, new,
                                                                           message):
    kb = seed.kb_dir()
    if old is not None:
        text = (kb / "code_function.ttl").read_text(encoding="utf-8")
        assert old in text
        kb = _doctored_kb(tmp_path, "code_function.ttl", text.replace(old, new))
    statement = tmp_path / "preference.aida"
    statement.write_text(example_statement_path().read_text() + f"library_preferences = [{preference!r}]\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", str(statement), "--kb", str(kb), "--out", str(out))
    assert code == 5
    assert err == f"graphsynth: error at stage resolve: no code function found for purpose {message}\n"
    assert not out.exists()


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


def test_catalog_that_is_no_utf8_maps_to_load_exit_code_and_is_named(tmp_path, capsys):
    kb = _doctored_kb(tmp_path, "catalog.tsv", "")
    (kb / "catalog.tsv").write_bytes("# caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "kb-stats", "--kb", str(kb))
    assert code == 3 and out == ""
    assert err.startswith(f"graphsynth: error at stage kb-load: cannot read catalog {kb / 'catalog.tsv'}: ")


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


def test_a_basename_that_names_an_imported_library_maps_to_compose_exit_code(tmp_path, capsys):
    # `numpy.py` would import itself in place of numpy; the alias `np` shadows nothing.
    for basename, expected in (("numpy", 6), ("np", 0)):
        statement = tmp_path / f"{basename}.aida"
        statement.write_text(Path(STMT).read_text(encoding="utf-8").replace("'hello_analytic'", f"'{basename}'"))
        out = tmp_path / basename
        code, _, err = run(capsys, "synthesize", str(statement), "--out", str(out))
        assert code == expected, err
        if expected:
            assert f"stage compose: program basename '{basename}' names an imported library" in err
            assert not out.exists() or list(out.iterdir()) == []
        else:
            assert [path.name for path in out.iterdir()] == [f"{basename}.py"]


@pytest.mark.parametrize("basename", ["pickle", "inspect", "textwrap"])
def test_a_basename_that_names_a_standard_library_module_maps_to_compose_exit_code(tmp_path, capsys, basename):
    # Run from its own directory, `pickle.py` would be imported by numpy in place of the standard module.
    statement = tmp_path / f"{basename}.aida"
    statement.write_text(Path(STMT).read_text(encoding="utf-8").replace("'hello_analytic'", f"'{basename}'"))
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", str(statement), "--out", str(out))
    assert code == 6, err
    assert f"stage compose: program basename '{basename}' names a standard-library module" in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "error, stage, code",
    [
        (ConfigError("x"), "config", 2),
        (KbFileError("x"), "kb-load", 3),
        (CatalogError("x"), "kb-load", 3),
        (ImportResolutionError("x"), "kb-load", 3),
        (KbValidationError(["x"]), "kb-load", 3),
        (ProblemStatementError("x"), "statement-parse", 4),
        (NoAlgorithmError("x", None), "resolve", 5),
        (ComposeError("x"), "compose", 6),
        (RenderError("x"), "render", 7),
        (WriteError("x"), "write", 8),
        (ExecCheckError("x"), "exec-check", 1),
        (MalformedQuadError("x"), None, 1),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_each_error_family_exits_with_its_stage_code_wherever_it_is_raised(capsys, monkeypatch, error, stage, code):
    from graphsynth import resolver

    def fail(*args):
        raise error

    monkeypatch.setattr(resolver, "resolve", fail)
    where = f" at stage {stage}" if stage else ""
    assert run(capsys, "synthesize", STMT) == (code, "", f"graphsynth: error{where}: {error}\n")


def test_a_kb_file_that_cannot_be_read_maps_to_load_exit_code_and_is_named(capsys, monkeypatch):
    from graphsynth.seed import kb_dir

    from graphsynth import loader

    unreadable = (kb_dir() / "units.ttl").resolve()

    def refuse(file, *args, **kwargs):
        if Path(file) == unreadable:
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(loader, "open", refuse, raising=False)  # the loader's one way to open a KB file
    code, out, err = run(capsys, "kb-stats")
    assert code == 3 and out == ""
    assert err.startswith(f"graphsynth: error at stage kb-load: {unreadable}: cannot read: ")


def test_exec_check_without_its_fixture_maps_to_exit_1_at_exec_check(tmp_path, capsys):
    kb = _doctored_kb(tmp_path, "my_input.txt", "")
    (kb / "my_input.txt").unlink()
    out = tmp_path / "out"
    code, _, err = run(capsys, "synthesize", STMT, "--kb", str(kb), "--out", str(out), "--exec-check")
    assert code == 1
    assert err == f"graphsynth: error at stage exec-check: fixture data file not found: {kb / 'my_input.txt'}\n"


def test_exec_check_past_its_time_limit_maps_to_exit_1_at_exec_check(tmp_path, capsys, monkeypatch):
    def overrun(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", overrun)
    code, out, err = run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--exec-check")
    assert code == 1
    assert err == "graphsynth: error at stage exec-check: emitted program ran past the 60 s time limit\n"
    assert "exec-check:" not in out


@pytest.mark.parametrize("where", ["copy", "start"])
def test_exec_check_that_cannot_copy_its_fixture_or_start_maps_to_exit_1(tmp_path, capsys, monkeypatch, where):
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    if where == "copy":
        monkeypatch.setattr(shutil, "copyfile", refuse)
    else:
        monkeypatch.setattr(subprocess, "run", refuse)
    code, out, err = run(capsys, "synthesize", STMT, "--out", str(tmp_path), "--exec-check")
    assert code == 1
    expected = {
        "copy": f"cannot copy fixture data file {seed.fixture_path()} to {tmp_path / 'my_input.txt'}: "
                "[Errno 13] Permission denied",
        "start": "cannot run the emitted program: [Errno 13] Permission denied",
    }[where]
    assert err == f"graphsynth: error at stage exec-check: {expected}\n"
    assert "exec-check:" not in out


def test_dump_graph_unknown_graph_is_header_only(capsys):
    code, out, _ = run(capsys, "dump-graph", "http://graphsynth.dev/graph/unknown")
    assert code == 0
    assert all(line.startswith("@prefix") or not line for line in out.splitlines())


@pytest.mark.parametrize("graph, reason", [
    ("a b", "IRI contains whitespace: 'a b'"), ("", "IRI must be non-empty"), ("<>", "IRI must be non-empty"),
    ("<a b>", "IRI contains whitespace: 'a b'"),
    # A well-known prefix is expanded before the IRI is checked.
    ("kb:a b", "IRI contains whitespace: 'http://graphsynth.dev/kb/a b'"),
])
def test_dump_graph_of_no_iri_maps_to_exit_2_at_config(capsys, graph, reason):
    code, out, err = run(capsys, "dump-graph", graph)
    assert code == 2 and out == ""
    assert err == f"graphsynth: error at stage config: graph must be an IRI, got {graph!r}: {reason}\n"


def test_dump_graph_reads_an_iri_in_angle_brackets_as_query_does(capsys):
    code, out, _ = run(capsys, "dump-graph", f"<{vocab.CORE_GRAPH}>")
    assert code == 0
    assert out == run(capsys, "dump-graph", vocab.CORE_GRAPH)[1]
    assert len(out.splitlines()) > 400


@pytest.mark.parametrize("graph", ["<http://graphsynth.dev/graph/unknown>", "kb:unknown"])
def test_dump_graph_of_a_well_formed_unknown_graph_term_is_header_only(capsys, graph):
    code, out, _ = run(capsys, "dump-graph", graph)
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


@pytest.mark.parametrize(
    "pattern",
    [
        "?x only-two",
        # Terms the term constructors reject; each once exited 1 and named no stage.
        "?1x ?p ?o",
        "<> ?p ?o",
        "_:!! ?p ?o",
        # No integers: each once read as an integer literal.
        "+-5 ?p ?o",
        "?s ?p \u00b2",
    ],
    ids=["two-terms", "digit-variable", "empty-iri", "bad-blank-label", "two-signs", "superscript-digit"],
)
def test_query_pattern_syntax_error_is_config(capsys, pattern):
    code, out, err = run(capsys, "query", pattern)
    assert code == 2
    assert "stage config" in err
    assert out == "" and "Traceback" not in err


def test_query_bad_term_is_config(capsys):
    code, _, err = run(capsys, "query", "?x ?p %%%")
    assert code == 2


@pytest.mark.parametrize("graph", ['"x"', "_:b", "42", "true"], ids=["literal", "blank", "integer", "boolean"])
def test_query_graph_term_that_is_no_iri_or_variable_is_config(capsys, graph):
    code, out, err = run(capsys, "query", f"?s ?p ?o {graph}")
    assert code == 2
    assert f"stage config: graph term must be an IRI or a variable, got {graph!r}" in err
    assert out == "" and "Traceback" not in err


def test_query_after_synthesis_reads_the_example_program_graph(capsys):
    graph = vocab.program_graph_iri("hello_analytic", "plr")
    pattern = f"?program plr:hasStatement ?statement <{graph}>"
    code, out, err = run(capsys, "query", pattern, "--statement", STMT)
    assert code == 0, err
    golden = parse_document((GOLDEN_DIR / "hello_analytic-plr.ttl").read_text(encoding="utf-8"))
    statements = sorted(o for _, p, o in golden.statements if p.value == vocab.PLR + "hasStatement")
    assert len(statements) == 9
    program = f"<{graph}#program>"
    assert out.splitlines() == ["?program\t?statement", *(f"{program}\t<{o.value}>" for o in statements)]
    # Without the statement no program graph exists in the process that queries.
    assert run(capsys, "query", pattern)[1] == "?program\t?statement\n"


@pytest.mark.parametrize("golden, argv", [
    ("query-core-functions.tsv", ["?fn gs:hasPurpose ?alg", "?fn gs:hasCallableName ?name"]),
    ("query-program-statements.tsv",
     ['?p plr:hasBasename "hello_analytic" ?g', "?p plr:hasStatement ?s ?g", "--statement", STMT]),
    ("query-subject-row.tsv", ["kb:numpy_mean ?p ?o"]),  # one subject's row, every predicate of it
    ("query-object-scan.tsv", ["?s ?p kb:numpy"]),  # an object bound with no predicate: a scan of every row
])
def test_query_joins_print_their_golden_rows(capsys, golden, argv):
    # The same runs the CI console-script step compares byte for byte.
    code, out, err = run(capsys, "query", *argv)
    assert code == 0, err
    assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def test_query_with_a_missing_statement_file_is_config(tmp_path, capsys):
    code, out, err = run(capsys, "query", "?s ?p ?o", "--statement", str(tmp_path / "absent.aida"))
    assert code == 2
    assert f"stage config: problem statement file not found: {tmp_path / 'absent.aida'}" in err
    assert out == "" and "Traceback" not in err


def test_query_parses_its_patterns_before_it_synthesizes(tmp_path, capsys):
    bad = tmp_path / "bad.aida"
    bad.write_text("program_basename = [broken\n")
    assert run(capsys, "query", "?s ?p ?o", "--statement", str(bad))[0] == 4
    code, out, err = run(capsys, "query", "?x only-two", "--statement", str(bad))
    assert code == 2
    assert "stage config: pattern needs 3 or 4 terms" in err and out == ""


def _cli_env() -> dict[str, str]:
    import graphsynth

    return {**os.environ, "PYTHONPATH": str(Path(graphsynth.__file__).parents[1])}


@pytest.fixture(scope="module")
def modules_after_importing_the_cli() -> set[str]:
    # -S keeps site-installed .pth files out, so only graphsynth's own imports count.
    probe = "import sys, graphsynth.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=_cli_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module, registered",
    [
        # Machinery no command needs: subprocess is for --exec-check only,
        # hashlib for blank-node renaming only; dataclasses brings inspect and ast.
        ("subprocess", False),
        ("dataclasses", False),
        ("inspect", False),
        ("ast", False),
        ("hashlib", False),
        # The pipeline modules, which a tracer wrapping their functions
        # expects to find registered after `import graphsynth.cli`.
        ("graphsynth.resolver", True),
        ("graphsynth.composer", True),
        ("graphsynth.renderer", True),
        ("graphsynth.problem", True),
        ("graphsynth.views", True),
    ],
)
def test_importing_the_cli_loads_the_pipeline_and_no_unneeded_module(modules_after_importing_the_cli, module,
                                                                      registered):
    assert (module in modules_after_importing_the_cli) == registered


PIPELINE_MODULES = ("graphsynth.problem", "graphsynth.resolver", "graphsynth.composer", "graphsynth.renderer")
# Runs the CLI on its arguments, if it has any, then prints on stderr its exit
# code, whether `graphsynth.composer` is bound on the package, and the pipeline
# modules whose code has run: a registered module that has not run is still lazy.
PIPELINE_PROBE = f"""
import sys, types, graphsynth, graphsynth.cli
code = graphsynth.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
bound = getattr(graphsynth, "composer", None) is sys.modules["graphsynth.composer"]
print(code, bound, *(name for name in {PIPELINE_MODULES!r} if type(sys.modules[name]) is types.ModuleType),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, golden, runs_pipeline", [
    ([], None, False),
    (["kb-stats"], None, False),
    (["query", "?fn gs:hasPurpose ?alg", "?fn gs:hasCallableName ?name"], "query-core-functions.tsv", False),
    (["dump-graph", vocab.CORE_GRAPH], "core.ttl", False),
    (["synthesize", STMT, "--out", "."], "hello_analytic.golden", True),
    (["query", '?p plr:hasBasename "hello_analytic" ?g', "?p plr:hasStatement ?s ?g", "--statement", STMT],
     "query-program-statements.tsv", True),
], ids=["import", "kb-stats", "query", "dump-graph", "synthesize", "query-statement"])
def test_a_command_runs_the_pipeline_modules_only_when_it_synthesizes(tmp_path, argv, golden, runs_pipeline):
    proc = subprocess.run([sys.executable, "-S", "-c", PIPELINE_PROBE, *argv], cwd=tmp_path, env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    code, bound, *ran = proc.stderr.splitlines()[-1].split()
    assert (code, bound) == ("0", "True"), proc.stderr
    assert tuple(ran) == (PIPELINE_MODULES if runs_pipeline else ())
    if argv[:1] == ["synthesize"]:
        assert (tmp_path / "hello_analytic.py").read_bytes() == (GOLDEN_DIR / golden).read_bytes()
    elif golden:
        assert proc.stdout == (GOLDEN_DIR / golden).read_text(encoding="utf-8")
    elif argv:
        assert "files loaded: 20" in proc.stdout


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


def test_exec_check_runs_a_program_whose_basename_starts_with_a_dash(tmp_path, capsys):
    pytest.importorskip("numpy")
    # Run as `python -x.py`, the program's name would be read as the interpreter's `-x` option.
    statement = tmp_path / "dash.aida"
    statement.write_text(example_statement_path().read_text().replace("'hello_analytic'", "'-x'"))
    code, out, err = run(capsys, "synthesize", str(statement), "--out", str(tmp_path), "--exec-check")
    assert code == 0, err
    assert (tmp_path / "-x.py").read_text() == (GOLDEN_DIR / "hello_analytic.golden").read_text()
    [line] = [l for l in out.splitlines() if l.startswith("exec-check:")]
    assert line == "exec-check: mean=3.5 std=1.707825127659933"


def _run_with_closed_pipe(argv: list[str], streams: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Run the CLI with each named stream ("stdout", "stderr") on a pipe whose reader is already gone."""
    import graphsynth

    env = {**os.environ, "PYTHONPATH": str(Path(graphsynth.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    pipes = {name: write_end for name in streams}
    try:
        return subprocess.run([sys.executable, "-m", "graphsynth.cli", *argv], env=env, timeout=60,
                              stdout=pipes.get("stdout", subprocess.PIPE), stderr=pipes.get("stderr", subprocess.PIPE))
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [["query", "?s ?p ?o ?g"], ["dump-graph", vocab.CORE_GRAPH], ["kb-stats"]])
def test_output_to_a_closed_pipe_exits_1_and_prints_nothing(argv):
    proc = _run_with_closed_pipe(argv, ("stdout",))
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("streams", [("stderr",), ("stdout", "stderr")])
def test_a_closed_pipe_keeps_the_code_of_a_failed_stage(tmp_path, streams):
    # As `graphsynth ... 2>&1 | head -0`: the diagnostic cannot be written, and the exit code still names the stage.
    kb = _doctored_kb(tmp_path, "units.ttl", "no Turtle")
    proc = _run_with_closed_pipe(["kb-stats", "--kb", str(kb)], streams)
    assert proc.returncode == EXIT_KB_LOAD
    if "stdout" not in streams:
        assert proc.stdout == b""
