"""Access to the shipped knowledge base and its companion files."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from graphsynth import vocab
from graphsynth.errors import KbValidationError
from graphsynth.loader import ImportCatalog, LoadReport, load_with_imports
from graphsynth.quadstore import QuadStore
from graphsynth.views import check_kb

ENTRY_FILE = "core.ttl"
CATALOG_FILE = "catalog.tsv"
FIXTURE_FILE = "my_input.txt"


def kb_dir() -> Path:
    return Path(resources.files("graphsynth") / "kb")


def catalog_path() -> Path:
    return kb_dir() / CATALOG_FILE


def fixture_path() -> Path:
    return kb_dir() / FIXTURE_FILE


def example_statement_path() -> Path:
    return Path(resources.files("graphsynth") / "statements" / "hello_analytic.aida")


def load_kb(
    kb_directory: Path | None = None,
    catalog_file: Path | None = None,
    store: QuadStore | None = None,
    validate: bool = True,
) -> tuple[QuadStore, LoadReport]:
    """Load a knowledge base directory (default: the shipped one) into a store's KB graph, `vocab.CORE_GRAPH`.

    The entry file is `core.ttl` inside the directory; everything else is
    reached through imports. With `validate`, structural completeness
    problems raise KbValidationError.
    """
    directory = kb_directory or kb_dir()
    catalog = ImportCatalog.load(catalog_file or directory / CATALOG_FILE)
    target = store or QuadStore()
    report = load_with_imports([directory / ENTRY_FILE], catalog, target, vocab.CORE_GRAPH)
    if validate:
        problems = check_kb(target)
        if problems:
            raise KbValidationError(problems)
    return target, report
