"""Loads a whole ontology set into the quad store, following owl:imports.

Each document is loaded exactly once (visited set keyed on ontology IRI and
file path), so import cycles are harmless. Blank node labels are file
scoped: on load they are renamed to dataset-unique ids derived from the
document key, which keeps the final quad set independent of load order.
A file that is no UTF-8 text or no valid Turtle raises KbFileError, whose
message starts with the file's path.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from graphsynth.errors import CatalogError, ImportResolutionError, KbFileError, TurtleParseError
from graphsynth.quadstore import QuadStore
from graphsynth.terms import OWL_IMPORTS, OWL_ONTOLOGY, RDF_TYPE, Blank, Iri, Term
from graphsynth.turtle import OntologyDocument, parse_document


class LoadReport(NamedTuple):
    files: int
    quads: int


class ImportCatalog:
    """Maps ontology IRIs to local files; the resolution table for owl:imports."""

    def __init__(self, mapping: dict[str, Path]):
        # Paths are resolved here, once, so the loader can compare them as keys.
        self._mapping = {iri: path.resolve() for iri, path in mapping.items()}
        self._by_path = {path: iri for iri, path in self._mapping.items()}

    @classmethod
    def load(cls, catalog_path: Path) -> "ImportCatalog":
        """Read `<ontology-iri> <tab> relative/path.ttl` lines, one mapping per line."""
        mapping: dict[str, Path] = {}
        root = catalog_path.parent
        try:
            text = catalog_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CatalogError(f"cannot read catalog {catalog_path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            iri_part, _, path_part = line.partition("\t")
            path_part = path_part.strip()
            if not (iri_part.startswith("<") and iri_part.endswith(">")) or not path_part:
                raise CatalogError(f"{catalog_path}:{lineno}: expected '<iri><TAB>path', got {raw!r}")
            iri = iri_part[1:-1]
            if iri in mapping:
                raise CatalogError(f"{catalog_path}:{lineno}: ontology <{iri}> already mapped")
            path = root / path_part
            if not path.is_file():
                raise CatalogError(f"{catalog_path}:{lineno}: file not found: {path}")
            mapping[iri] = path
        return cls(mapping)

    def lookup(self, iri: str) -> Path | None:
        """The resolved path of the file mapped to `iri`."""
        return self._mapping.get(iri)

    def iri_for_path(self, path: Path) -> str | None:
        """The ontology IRI mapped to a resolved path."""
        return self._by_path.get(path)

    def __len__(self) -> int:
        return len(self._mapping)


def _renamed(doc_key: str, term: Term) -> Term:
    """A blank node under its dataset-unique id; any other term as it is."""
    if not isinstance(term, Blank):
        return term
    import hashlib  # here, not at the top: only blank nodes need it, and most KBs have none

    digest = hashlib.sha1(f"{doc_key}|{term.id}".encode("utf-8")).hexdigest()[:16]
    return Blank(f"b{digest}")


def _read_document(path: Path) -> OntologyDocument:
    """Parse one KB file; a file that is no UTF-8 or no valid Turtle names itself."""
    try:
        return parse_document(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise KbFileError(f"{path}: not UTF-8 text: {exc}") from exc
    except TurtleParseError as exc:
        raise KbFileError(f"{path}: {exc}") from exc


def load_with_imports(
    entry: list[Path],
    catalog: ImportCatalog,
    store: QuadStore,
    graph: str,
) -> LoadReport:
    """Load the entry files and, transitively, everything they owl:import."""
    visited_iris: set[str] = set()
    visited_paths: set[Path] = set()
    # Every path is resolved once: entries here, imports by the catalog.
    pending: list[Path] = [Path(p).resolve() for p in entry]
    files = 0
    inserted = 0

    while pending:
        path = pending.pop(0)
        if path in visited_paths:
            continue
        known_iri = catalog.iri_for_path(path)
        if known_iri is not None and known_iri in visited_iris:
            continue
        visited_paths.add(path)
        if known_iri is not None:
            visited_iris.add(known_iri)

        doc = _read_document(path)
        doc_key = known_iri or path.as_posix()
        files += 1

        imports: list[str] = []
        triples = []
        for subject, predicate, obj in doc.statements:
            if isinstance(obj, Iri):
                if predicate.value == OWL_IMPORTS:
                    imports.append(obj.value)
                elif predicate.value == RDF_TYPE and obj.value == OWL_ONTOLOGY and isinstance(subject, Iri):
                    visited_iris.add(subject.value)
            if isinstance(subject, Blank) or isinstance(obj, Blank):
                subject, obj = _renamed(doc_key, subject), _renamed(doc_key, obj)
            triples.append((subject, predicate, obj))
        # The parser's grammar admits only triples a Quad accepts, so they need no check.
        inserted += store._add_all(graph, triples)

        for target in sorted(imports):
            if target in visited_iris:
                continue
            target_path = catalog.lookup(target)
            if target_path is None:
                raise ImportResolutionError(f"{path}: imported ontology not in catalog: <{target}>")
            pending.append(target_path)

    return LoadReport(files=files, quads=inserted)
