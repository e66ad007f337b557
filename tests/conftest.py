from __future__ import annotations

from pathlib import Path
from typing import Iterable

import pytest

from graphsynth import vocab
from graphsynth.problem import parse_problem_statement
from graphsynth.quadstore import Quad, QuadStore
from graphsynth.resolver import BuildPlan, resolve
from graphsynth.seed import example_statement_path, load_kb
from graphsynth.turtle import parse_document

GOLDEN_DIR = Path(__file__).parent / "golden"

# Shipped KB instances that tests name; no pipeline code names an instance.
FILE_CONTAINER = vocab.kb("file_container")
CSV_FORMAT = vocab.kb("csv_format")
ASCII_ENCODING = vocab.kb("ascii_encoding")
FLOATING_POINT_DATATYPE = vocab.kb("floating_point_datatype")
TEXT_DATATYPE = vocab.kb("text_datatype")
DIMENSIONLESS_SAMPLE = vocab.kb("dimensionless_sample")
MYINPUT = vocab.kb("myinput")
ARITHMETIC_MEAN = vocab.kb("arithmetic_mean")
STANDARD_DEVIATION = vocab.kb("standard_deviation")
NUMPY_LIBRARY = vocab.kb("numpy")
SYS_LIBRARY = vocab.kb("sys")
NUMPY_LOADTXT = vocab.kb("numpy_loadtxt")
NUMPY_MEAN = vocab.kb("numpy_mean")
NUMPY_STD = vocab.kb("numpy_std")
READ_CSV_FLOAT_FILE = vocab.kb("read_csv_float_file")
# Library kinds (values of gs:hasLibraryKind) in the shipped KB.
LIBRARY_KIND_EXTERNAL = "external-package"
LIBRARY_KIND_STDLIB = "standard-library"

MEAN, STD = "average value", "average value variation"
# Statements the program-graph round trips run over besides the shipped
# example (two calculations, Python-3.8, no preference), by id:
# (calculations, language tag, library preferences). A statement must request
# at least one calculation, so "none" resolves one and drops it from the plan.
STATEMENT_VARIANTS = {
    "none": ((), "Python-3.8", ()),
    "one": ((MEAN,), "Python-3.8", ()),
    "four": ((MEAN, STD, STD, MEAN), "Python-3.8", ()),
    "repeated": ((MEAN, MEAN), "Python-3.8", ()),
    "python": ((MEAN, STD), "Python", ()),
    "python-3": ((STD, MEAN), "Python-3", ()),
    "numpy-preferred": ((MEAN, STD), "Python-3.8", ("numpy",)),
    "numpy-preferred-python": ((STD,), "Python", ("numpy",)),
}


def variant_plan(store: QuadStore, variant: str) -> BuildPlan:
    """Resolve the statement variant `variant` of STATEMENT_VARIANTS against `store`."""
    calculations, language, preferences = STATEMENT_VARIANTS[variant]
    lines = [
        "data_source_names = ['my_input.txt']",
        f"requested_calculations = {list(calculations or (MEAN,))!r}",
        "program_requirements = ['read input data', 'calculate quantity', 'report result']",
        f"programming_language = '{language}'",
        "program_basename = 'variant'",
    ]
    if preferences:
        lines.append(f"library_preferences = {list(preferences)!r}")
    plan = resolve(parse_problem_statement("\n".join(lines) + "\n"), store)
    return plan if calculations else plan._replace(calculations=())


@pytest.fixture(scope="session")
def seed_kb():
    """The shipped KB, loaded once; treat as read-only."""
    store, report = load_kb()
    return store, report


@pytest.fixture()
def kb_store(seed_kb) -> QuadStore:
    """A private copy of the loaded KB, safe to mutate."""
    store, _ = seed_kb
    return store.clone()


@pytest.fixture(scope="session")
def statement_text() -> str:
    return example_statement_path().read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_source() -> str:
    return (GOLDEN_DIR / "hello_analytic.golden").read_text(encoding="utf-8")


def edited(store: QuadStore, drop: Iterable[Quad] = (), add: Iterable[Quad] = ()) -> QuadStore:
    """A new store holding the quads of `store` less those in `drop`, plus those in `add`, each put in by `insert`.

    The store is append-only, so a test that takes quads out of a KB builds the edited KB afresh.
    """
    drop = set(drop)
    out = QuadStore()
    for quad in store.quads():
        if quad not in drop:
            out.insert(quad)
    for quad in add:
        out.insert(quad)
    return out


def insert_turtle(store: QuadStore, text: str, graph: str = vocab.CORE_GRAPH) -> int:
    """Parse subset-Turtle and insert every statement into `graph`."""
    inserted = 0
    for triple in parse_document(text).statements:
        if store.insert(Quad(*triple, graph)):
            inserted += 1
    return inserted
