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
Within one load the documents share one parse state (`turtle.LoadState`):
each distinct IRI is built and checked once per load, and each directive
header is parsed, and each name under it resolved, once per load however
many documents open with it.
The loader runs no loop of its own over a document's triples: the parser
flags a document that holds a blank node, and two filters pick out its
`owl:imports` objects and the subjects it types `owl:Ontology` by the
identity of the load's one Iri for each of those IRIs.
"""

from __future__ import annotations

import os
import stat
from collections import namedtuple
from pathlib import Path

from graphsynth.errors import CatalogError, ImportResolutionError, KbFileError, TurtleParseError
from graphsynth.quadstore import QuadStore
from graphsynth.terms import OWL_IMPORTS, OWL_ONTOLOGY, RDF_TYPE, Blank, Iri, Term
from graphsynth.turtle import LoadState, OntologyDocument, parse_document


LoadReport = namedtuple("LoadReport", (
    "files",  # int
    "quads",  # int
))


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


def _read_document(path: str, load: LoadState) -> OntologyDocument:
    """Parse one KB file in the state its load shares.

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
        return parse_document(text, load)
    except TurtleParseError as exc:
        raise KbFileError(f"{path}: {exc}") from exc


def load_with_imports(
    entry: list[Path],
    catalog: ImportCatalog,
    store: QuadStore,
    graph: str,
) -> LoadReport:
    """Load the entry files and, transitively, everything they owl:import.

    The documents share one parse state, local to this call: one Iri per
    IRI and the prefix environments their directives build.
    """
    visited_iris: set[str] = set()
    visited_files: set[FileKey] = set()
    # Each entry is resolved once; each import comes with its path and key from the catalog.
    pending: list[tuple[str, FileKey]] = [_keyed(str(Path(p).resolve())) for p in entry]
    # Every IRI of the load is its one Iri in `terms`, so these three are found by identity.
    terms = {iri: Iri(iri) for iri in (OWL_IMPORTS, RDF_TYPE, OWL_ONTOLOGY)}
    imports_p, type_p, ontology = terms[OWL_IMPORTS], terms[RDF_TYPE], terms[OWL_ONTOLOGY]
    load = LoadState(terms)
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

        doc = _read_document(path, load)
        files += 1

        triples = doc.statements
        imports = [o.value for _, p, o in triples if p is imports_p and isinstance(o, Iri)]
        visited_iris.update(s.value for s, p, o in triples if o is ontology and p is type_p and isinstance(s, Iri))
        if doc.has_blank:
            doc_key = known_iri or Path(path).as_posix()
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
