"""Loads a whole ontology set into the quad store, following owl:imports.

Each document is loaded exactly once (visited sets keyed on ontology IRI
and on the file's device and inode), so import cycles are harmless, and a
file reached by two paths, say through a symlinked directory, is one file.
Blank node labels are file scoped: on load they are renamed to
dataset-unique ids derived from the document key, which keeps the final
quad set independent of load order.
A file that cannot be read, or is no UTF-8 text or no valid Turtle, raises
KbFileError, whose message starts with the file's path. Every load reads
and parses every file it reaches; nothing is kept from one load to the next.
Within one load the parser shares one table of IRI terms across documents,
so each distinct IRI is built and checked once per load.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import NamedTuple

from graphsynth.errors import CatalogError, ImportResolutionError, KbFileError, TurtleParseError
from graphsynth.quadstore import QuadStore
from graphsynth.terms import OWL_IMPORTS, OWL_ONTOLOGY, RDF_TYPE, Blank, Iri, Term
from graphsynth.turtle import OntologyDocument, parse_document

_IMPORTS, _TYPE, _ONTOLOGY = Iri(OWL_IMPORTS), Iri(RDF_TYPE), Iri(OWL_ONTOLOGY)


class LoadReport(NamedTuple):
    files: int
    quads: int


FileKey = tuple[int, int]  # (st_dev, st_ino): one file, whatever path reaches it


class ImportCatalog:
    """Maps ontology IRIs to local files; the resolution table for owl:imports."""

    def __init__(self, mapping: dict[str, tuple[str, FileKey]]):
        # IRI -> (the file's path, as pathlib names it, and its key), so the loader can compare files by key.
        self._mapping = dict(mapping)
        self._by_key = {key: iri for iri, (_, key) in self._mapping.items()}

    @classmethod
    def load(cls, catalog_path: Path) -> "ImportCatalog":
        """Read `<ontology-iri> <tab> relative/path.ttl` lines, one mapping per line.

        The catalog's directory is resolved once; each file is named under
        it, as a `str`, and keyed by the one `os.stat` that checks it exists.
        """
        mapping: dict[str, tuple[str, FileKey]] = {}
        try:
            text = catalog_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CatalogError(f"cannot read catalog {catalog_path}: {exc}") from exc
        root = str(catalog_path.parent.resolve())
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            iri_part, _, path_part = line.partition("\t")
            path_part = path_part.strip()
            # No path holds a NUL byte; os.stat would raise ValueError at one.
            if not (iri_part.startswith("<") and iri_part.endswith(">")) or not path_part or "\0" in path_part:
                raise CatalogError(f"{catalog_path}:{lineno}: expected '<iri><TAB>path', got {raw!r}")
            iri = iri_part[1:-1]
            if iri in mapping:
                raise CatalogError(f"{catalog_path}:{lineno}: ontology <{iri}> already mapped")
            path = _joined(root, path_part)
            try:
                status = os.stat(path)
            except OSError:
                status = None
            if status is None or not stat.S_ISREG(status.st_mode):
                raise CatalogError(f"{catalog_path}:{lineno}: file not found: {path}")
            mapping[iri] = path, (status.st_dev, status.st_ino)
        return cls(mapping)

    def lookup(self, iri: str) -> tuple[str, FileKey] | None:
        """The path of the file mapped to `iri`, as a `str`, and its key."""
        return self._mapping.get(iri)

    def iri_for_key(self, key: FileKey) -> str | None:
        """The ontology IRI mapped to the file with this key."""
        return self._by_key.get(key)

    def __len__(self) -> int:
        return len(self._mapping)


def _joined(root: str, part: str) -> str:
    """The path `Path(root, part)` names, as a `str`, built without pathlib for a plain relative POSIX path.

    pathlib drops empty and '.' names (so a trailing '/' too) and keeps
    '..'; a path holding such a name, an absolute one, or any path off
    POSIX is joined by pathlib itself.
    """
    names = part.split("/")
    if "" in names or "." in names or root == "/" or os.sep != "/":
        return str(Path(root, part))
    return f"{root}/{part}"


def _renamed(doc_key: str, term: Term) -> Term:
    """A blank node under its dataset-unique id; any other term as it is."""
    if not isinstance(term, Blank):
        return term
    import hashlib  # here, not at the top: only blank nodes need it, and most KBs have none

    digest = hashlib.sha1(f"{doc_key}|{term.id}".encode("utf-8")).hexdigest()[:16]
    return Blank(f"b{digest}")


def _keyed(path: str) -> tuple[str, FileKey]:
    """The path with its file's key; a file that cannot be found names itself, as one that cannot be read."""
    try:
        status = os.stat(path)
    except OSError as exc:
        raise KbFileError(f"{path}: cannot read: {exc}") from exc
    return path, (status.st_dev, status.st_ino)


def _read_document(path: str, terms: dict[str, Iri]) -> OntologyDocument:
    """Parse one KB file, each IRI through the load's `terms`.

    A file that cannot be read, or is no UTF-8 or no valid Turtle, names itself.
    """
    try:
        # One unbuffered binary read: a buffer and a text layer add set-up per file and nothing to a whole-file read.
        with open(path, "rb", buffering=0) as file:
            text = file.readall().decode("utf-8")
    except OSError as exc:
        raise KbFileError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise KbFileError(f"{path}: not UTF-8 text: {exc}") from exc
    if "\r" in text:  # the line ends a text-mode read gives, so that lines and columns are counted alike
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return parse_document(text, terms)
    except TurtleParseError as exc:
        raise KbFileError(f"{path}: {exc}") from exc


def load_with_imports(
    entry: list[Path],
    catalog: ImportCatalog,
    store: QuadStore,
    graph: str,
) -> LoadReport:
    """Load the entry files and, transitively, everything they owl:import.

    The documents share one table of IRI terms, local to this call.
    """
    visited_iris: set[str] = set()
    visited_files: set[FileKey] = set()
    # Each entry is resolved once; each import comes with its path and key from the catalog.
    pending: list[tuple[str, FileKey]] = [_keyed(str(Path(p).resolve())) for p in entry]
    terms: dict[str, Iri] = {}  # IRI -> its one Iri in this load
    files = 0
    inserted = 0

    while pending:
        path, key = pending.pop(0)
        if key in visited_files:
            continue
        known_iri = catalog.iri_for_key(key)
        if known_iri is not None and known_iri in visited_iris:
            continue
        visited_files.add(key)
        if known_iri is not None:
            visited_iris.add(known_iri)

        doc = _read_document(path, terms)
        doc_key = known_iri or Path(path).as_posix()
        files += 1

        triples = doc.statements
        imports: list[str] = []
        has_blank = False
        for subject, predicate, obj in triples:
            if predicate == _IMPORTS:
                if isinstance(obj, Iri):
                    imports.append(obj.value)
            elif obj == _ONTOLOGY and predicate == _TYPE and isinstance(subject, Iri):
                visited_iris.add(subject.value)
            if isinstance(subject, Blank) or isinstance(obj, Blank):
                has_blank = True
        if has_blank:
            triples = [(_renamed(doc_key, s), p, _renamed(doc_key, o)) for s, p, o in triples]
        # The parser's grammar admits only triples a Quad accepts, so they need no check.
        inserted += store._add_all(graph, triples)

        for target in sorted(imports):
            if target in visited_iris:
                continue
            mapped = catalog.lookup(target)  # its path as a str: the load builds no Path per import
            if mapped is None:
                raise ImportResolutionError(f"{path}: imported ontology not in catalog: <{target}>")
            pending.append(mapped)

    return LoadReport(files=files, quads=inserted)
