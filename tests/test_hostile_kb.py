"""Property: no KB text, however hostile, crashes `synthesize` or writes source that does not compile.

Labels, callable names, library names, naming-pattern parts, the string
quote and statement-form slot texts are replaced by text made of quotes,
backslashes, line breaks, keywords, import names, `yield`/`return`
fragments and non-ASCII characters. Each run either exits 0 with a file
that compiles, or exits with a stage's code and leaves no file.

A sweep deletes each KB quad in turn: `check_kb` reports it, a stage fails
and leaves no graph of its own, or the program is the golden one.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edited
from graphsynth import vocab
from graphsynth.cli import EXIT_COMPOSE, EXIT_KB_LOAD, EXIT_OK, EXIT_RENDER, EXIT_RESOLVE, main
from graphsynth.composer import compose
from graphsynth.errors import ComposeError, RenderError, ResolveError
from graphsynth.problem import parse_problem_statement
from graphsynth.quadstore import Quad
from graphsynth.renderer import emit, render
from graphsynth.resolver import resolve
from graphsynth.seed import example_statement_path, fixture_path, kb_dir
from graphsynth.terms import Iri, Literal
from graphsynth.turtle import _format_term
from graphsynth.views import check_kb

# (KB file, property, value in the shipped KB): the strings the emitted source is made of.
FIELDS = [
    ("data_content.ttl", "gs:hasTypeLabel", "input_data"),
    ("code_function.ttl", "gs:hasCallableName", "mean"),
    ("code_function.ttl", "gs:hasCallableName", "loadtxt"),
    ("library.ttl", "gs:hasOfficialName", "numpy"),
    ("library.ttl", "gs:hasAlias", "np"),
    ("naming_patterns.ttl", "gs:hasLabelSeparator", "_"),
    ("naming_patterns.ttl", "gs:hasSuffixLabel", "filename"),
    ("python.ttl", "gs:hasStringLiteralQuote", "'"),
    ("statements.ttl", "gs:hasSlotText", "import "),
    ("statements.ttl", "gs:hasSlotText", " as "),
    ("statements.ttl", "gs:hasSlotText", " = "),
    ("statements.ttl", "gs:hasSlotText", "("),
    ("statements.ttl", "gs:hasSlotText", ")"),
]

FRAGMENTS = [
    "'", '"', '"""', "\\", "\\n", "\n", "\r", "\t", "\x00", "#", ";", ",", "(", ")", " ", ".",
    "class", "def", "import os", "__import__('os')", "np", "sys", "mean",
    "yield", " = yield ", "return ", "await ", "break", "lambda: ",
    "é", "名前", "\u00a0", "\u2028", "\U0001f600",
]

hostile_text = st.lists(st.sampled_from(FRAGMENTS), max_size=3).map("".join) | st.text(max_size=4)
# A pair is put around the shipped value, so that later stages are reached too.
hostile_value = hostile_text | st.tuples(hostile_text, hostile_text)
edits = st.dictionaries(st.sampled_from(range(len(FIELDS))), hostile_value, min_size=1, max_size=2)

STAGE_CODES = {EXIT_KB_LOAD, EXIT_RESOLVE, EXIT_COMPOSE, EXIT_RENDER}


def _doctor(kb: Path, edits: dict[int, str | tuple[str, str]]):
    for index, value in edits.items():
        filename, prop, old = FIELDS[index]
        if isinstance(value, tuple):
            value = value[0] + old + value[1]
        path = kb / filename
        text = path.read_text(encoding="utf-8")
        before = f"{prop} {_format_term(Literal(old))}"
        assert before in text
        path.write_text(text.replace(before, f"{prop} {_format_term(Literal(value))}"), encoding="utf-8")


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(edits)
def test_hostile_kb_text_exits_with_a_stage_code_or_writes_source_that_compiles(edits):
    with tempfile.TemporaryDirectory() as tmp:
        kb, out = Path(tmp) / "kb", Path(tmp) / "out"
        shutil.copytree(kb_dir(), kb)
        _doctor(kb, edits)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["synthesize", str(example_statement_path()), "--kb", str(kb), "--out", str(out)])
        written = sorted(out.iterdir()) if out.exists() else []
        if code == EXIT_OK:
            [path] = written
            compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
        else:
            assert code in STAGE_CODES, stderr.getvalue()
            assert written == []


def test_a_nul_byte_in_a_slot_text_exits_at_stage_render_and_writes_nothing(tmp_path):
    kb, out = tmp_path / "kb", tmp_path / "out"
    shutil.copytree(kb_dir(), kb)
    _doctor(kb, {FIELDS.index(("statements.ttl", "gs:hasSlotText", " = ")): " =\x00 "})
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["synthesize", str(example_statement_path()), "--kb", str(kb), "--out", str(out)])
    assert code == EXIT_RENDER, stderr.getvalue()
    assert "error at stage render: emitted source does not parse: " in stderr.getvalue()
    assert "line None" not in stderr.getvalue()
    assert not out.exists() or list(out.iterdir()) == []


def test_a_callable_named_as_the_report_callee_exits_at_stage_compose_and_writes_nothing(tmp_path):
    # `print = np.print(input_data)` would shadow the call that reports the result.
    kb, out = tmp_path / "kb", tmp_path / "out"
    shutil.copytree(kb_dir(), kb)
    _doctor(kb, {FIELDS.index(("code_function.ttl", "gs:hasCallableName", "mean")): vocab.REPORT_CALLEE})
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["synthesize", str(example_statement_path()), "--kb", str(kb), "--out", str(out)])
    assert code == EXIT_COMPOSE, stderr.getvalue()
    assert "derives 'print', which names the report callee" in stderr.getvalue()
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("field", [("library.ttl", "gs:hasAlias", "np"), ("library.ttl", "gs:hasOfficialName", "numpy")],
                         ids=["alias", "official-name"])
def test_a_library_named_as_the_report_callee_exits_at_stage_compose_and_writes_nothing(tmp_path, field):
    # A library named or aliased `print` is refused: `import numpy as print` binds the report callee to a module.
    kb, out = tmp_path / "kb", tmp_path / "out"
    shutil.copytree(kb_dir(), kb)
    _doctor(kb, {FIELDS.index(field): vocab.REPORT_CALLEE})
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["synthesize", str(example_statement_path()), "--kb", str(kb), "--out", str(out)])
    assert code == EXIT_COMPOSE, stderr.getvalue()
    assert "an imported library is named 'print', the report callee" in stderr.getvalue()
    assert not out.exists() or list(out.iterdir()) == []


# Stage -> the error it fails with.
STAGE_ERRORS = {"resolve": ResolveError, "compose": ComposeError, "render": RenderError, "emit": RenderError}


def test_deleting_any_kb_quad_fails_a_stage_that_leaves_no_graph_or_emits_the_golden_source(
    seed_kb, statement_text, golden_source, tmp_path
):
    store, _ = seed_kb
    statement = parse_problem_statement(statement_text)
    # Without numpy's alias the program imports and calls it by its official name.
    alias = Quad(Iri(vocab.kb("numpy")), Iri(vocab.HAS_ALIAS), Literal("np"), vocab.CORE_GRAPH)
    unaliased = golden_source.replace("import numpy as np", "import numpy").replace("np.", "numpy.")
    emitted = {}
    for quad in sorted(store.quads(vocab.CORE_GRAPH)):
        kb = edited(store, drop=[quad])
        if check_kb(kb):
            continue
        graphs = set(kb.graph_names())  # the graphs of the stages that succeeded
        stage = "resolve"
        try:
            plan = resolve(statement, kb)
            stage = "compose"
            pla = compose(plan, kb)
            graphs.add(pla.graph_iri)
            stage = "render"
            plr = render(pla, plan.language, kb)
            graphs.add(plr.graph_iri)
            stage = "emit"
            emitted[quad] = emit(plr)
        except (ResolveError, ComposeError, RenderError) as exc:
            assert isinstance(exc, STAGE_ERRORS[stage]), (quad, stage, exc)
            assert set(kb.graph_names()) == graphs, (quad, stage, exc)
    assert {quad: source for quad, source in emitted.items() if source != golden_source} == {alias: unaliased}
    if find_spec("numpy") is not None:
        (tmp_path / "program.py").write_text(unaliased, encoding="utf-8")
        shutil.copyfile(fixture_path(), tmp_path / "my_input.txt")
        proc = subprocess.run([sys.executable, "program.py"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        values = [float(line) for line in fixture_path().read_text().split()]
        reported = [float(line.partition("=")[2]) for line in proc.stdout.splitlines()]
        assert reported == pytest.approx([statistics.mean(values), statistics.pstdev(values)], abs=1e-9)
