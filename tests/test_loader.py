from __future__ import annotations

import hashlib
import itertools
import shutil
from collections import Counter

import pytest

from graphsynth import vocab
from graphsynth.errors import CatalogError, ImportResolutionError, KbFileError
from graphsynth.loader import ImportCatalog, load_with_imports
from graphsynth.quadstore import QuadStore
from graphsynth.seed import ENTRY_FILE, catalog_path, kb_dir, load_kb
from graphsynth.terms import Blank, Iri
from graphsynth.turtle import _Parser

G = "http://t.example/kb"

HEADER = "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n@prefix x: <http://t.example/> .\n"


def write_catalog(tmp_path, entries):
    lines = [f"<{iri}>\t{name}" for iri, name in entries]
    path = tmp_path / "catalog.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_import_cycle_loads_each_file_once(tmp_path):
    (tmp_path / "a.ttl").write_text(
        HEADER + "<http://t.example/A> a owl:Ontology ; owl:imports <http://t.example/B> .\nx:s1 x:p x:o .\n"
    )
    (tmp_path / "b.ttl").write_text(
        HEADER + "<http://t.example/B> a owl:Ontology ; owl:imports <http://t.example/A> .\nx:s2 x:p x:o .\n"
    )
    catalog = ImportCatalog.load(write_catalog(tmp_path, [("http://t.example/A", "a.ttl"), ("http://t.example/B", "b.ttl")]))
    store = QuadStore()
    report = load_with_imports([tmp_path / "a.ttl"], catalog, store, G)
    assert report.files == 2
    assert report.quads == store.graph_size(G)


def test_unknown_import_iri_is_named_in_error(tmp_path):
    (tmp_path / "a.ttl").write_text(
        HEADER + "<http://t.example/A> a owl:Ontology ; owl:imports <http://t.example/GONE> .\n"
    )
    catalog = ImportCatalog.load(write_catalog(tmp_path, [("http://t.example/A", "a.ttl")]))
    with pytest.raises(ImportResolutionError) as exc:
        load_with_imports([tmp_path / "a.ttl"], catalog, QuadStore(), G)
    assert "http://t.example/GONE" in str(exc.value)


def test_shipped_kb_loads_twenty_files(seed_kb):
    _, report = seed_kb
    assert report.files == 20


def test_load_order_does_not_change_the_quad_set(tmp_path):
    (tmp_path / "a.ttl").write_text(HEADER + "<http://t.example/A> a owl:Ontology .\nx:s x:p _:n1 .\n_:n1 x:q x:o .\n")
    (tmp_path / "b.ttl").write_text(HEADER + "<http://t.example/B> a owl:Ontology .\nx:s x:p _:n1 .\n_:n1 x:q x:other .\n")
    (tmp_path / "c.ttl").write_text(HEADER + "<http://t.example/C> a owl:Ontology .\nx:t x:p 3 .\n")
    catalog = ImportCatalog.load(
        write_catalog(
            tmp_path,
            [("http://t.example/A", "a.ttl"), ("http://t.example/B", "b.ttl"), ("http://t.example/C", "c.ttl")],
        )
    )
    entries = [tmp_path / name for name in ("a.ttl", "b.ttl", "c.ttl")]
    results = []
    for permutation in itertools.permutations(entries):
        store = QuadStore()
        load_with_imports(list(permutation), catalog, store, G)
        results.append(set(store.quads(G)))
    assert all(result == results[0] for result in results)


def test_blank_labels_from_different_files_stay_distinct(tmp_path):
    # Both files use the label _:n1; after load they must not collide.
    (tmp_path / "a.ttl").write_text(HEADER + "<http://t.example/A> a owl:Ontology .\nx:s x:p _:n1 .\n")
    (tmp_path / "b.ttl").write_text(HEADER + "<http://t.example/B> a owl:Ontology .\nx:s x:p _:n1 .\n")
    catalog = ImportCatalog.load(write_catalog(tmp_path, [("http://t.example/A", "a.ttl"), ("http://t.example/B", "b.ttl")]))
    store = QuadStore()
    load_with_imports([tmp_path / "a.ttl", tmp_path / "b.ttl"], catalog, store, G)
    objects = {quad.object for quad in store.quads(G) if quad.predicate.value == "http://t.example/p"}
    assert len(objects) == 2


def test_catalog_rejects_duplicate_iri(tmp_path):
    (tmp_path / "a.ttl").write_text(HEADER)
    path = tmp_path / "catalog.tsv"
    path.write_text("<http://t.example/A>\ta.ttl\n<http://t.example/A>\t./a.ttl\n")
    with pytest.raises(CatalogError) as exc:
        ImportCatalog.load(path)
    assert str(exc.value) == f"{path}:2: ontology <http://t.example/A> already mapped"


def test_catalog_rejects_missing_file(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("<http://t.example/A>\tmissing.ttl\n")
    with pytest.raises(CatalogError) as exc:
        ImportCatalog.load(path)
    assert str(exc.value) == f"{path}:1: file not found: {tmp_path.resolve() / 'missing.ttl'}"


def test_catalog_rejects_malformed_line(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("not a mapping\n")
    with pytest.raises(CatalogError) as exc:
        ImportCatalog.load(path)
    assert str(exc.value) == f"{path}:1: expected '<iri><TAB>path', got 'not a mapping'"


def test_shipped_catalog_covers_every_ttl_file():
    catalog = ImportCatalog.load(catalog_path())
    assert len(catalog) == len(list(kb_dir().glob("*.ttl"))) == 20


def test_loading_twice_into_one_store_adds_nothing():
    catalog = ImportCatalog.load(catalog_path())
    store = QuadStore()
    first = load_with_imports([kb_dir() / ENTRY_FILE], catalog, store, vocab.CORE_GRAPH)
    second = load_with_imports([kb_dir() / ENTRY_FILE], catalog, store, vocab.CORE_GRAPH)
    assert first.files == second.files == 20
    assert second.quads == 0
    assert len(store) == first.quads > 0


def test_a_kb_reached_through_a_symlinked_directory_loads_each_file_once(tmp_path, seed_kb):
    real, link = tmp_path / "real", tmp_path / "link"
    shutil.copytree(kb_dir(), real)
    link.symlink_to(real, target_is_directory=True)
    shipped, _ = seed_kb
    # The entry and the catalog reached by either path, in each mix, name the same 20 files.
    for directory, catalog in ((link, None), (link, real / "catalog.tsv"), (real, link / "catalog.tsv")):
        store, report = load_kb(directory, catalog, validate=False)
        assert report.files == 20
        assert set(store.quads(vocab.CORE_GRAPH)) == set(shipped.quads(vocab.CORE_GRAPH))


@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
def test_a_document_with_other_line_ends_loads_and_fails_as_with_newlines(tmp_path, line_end):
    body = HEADER + "<http://t.example/A> a owl:Ontology .\nx:s x:p \"v\" ;\n    x:q x:o .\n"
    (tmp_path / "a.ttl").write_text(body)
    catalog = ImportCatalog.load(write_catalog(tmp_path, [("http://t.example/A", "a.ttl")]))
    stores = []
    for end in ("\n", line_end):
        (tmp_path / "a.ttl").write_bytes(body.replace("\n", end).encode("utf-8"))
        store = QuadStore()
        load_with_imports([tmp_path / "a.ttl"], catalog, store, G)
        stores.append(set(store.quads(G)))
    assert stores[0] == stores[1] and len(stores[0]) == 3
    messages = []
    for end in ("\n", line_end):
        (tmp_path / "a.ttl").write_bytes((body + "x:s x:p %oops .\n").replace("\n", end).encode("utf-8"))
        with pytest.raises(KbFileError) as exc:
            load_with_imports([tmp_path / "a.ttl"], catalog, QuadStore(), G)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{(tmp_path / 'a.ttl').resolve()}: 6:9: ")


def test_blank_nodes_get_ids_from_the_document_key_alone(tmp_path):
    # The ids hash the catalog IRI and the label, so they are the same on every load and under every hash seed.
    (tmp_path / "a.ttl").write_text(HEADER + "<http://t.example/A> a owl:Ontology .\nx:s x:p _:n1 .\n_:n1 x:q _:n2 .\n")
    catalog = ImportCatalog.load(write_catalog(tmp_path, [("http://t.example/A", "a.ttl")]))
    store = QuadStore()
    load_with_imports([tmp_path / "a.ttl"], catalog, store, G)
    expected = {Blank("b" + hashlib.sha1(f"http://t.example/A|{label}".encode()).hexdigest()[:16]) for label in ("n1", "n2")}
    found = {term for quad in store.quads(G) for term in (quad.subject, quad.object) if isinstance(term, Blank)}
    assert found == expected


def test_an_import_of_no_iri_is_not_followed(tmp_path):
    (tmp_path / "a.ttl").write_text(
        HEADER + "<http://t.example/A> a owl:Ontology ; owl:imports \"http://t.example/B\" , _:b .\n"
    )
    (tmp_path / "b.ttl").write_text(HEADER + "<http://t.example/B> a owl:Ontology .\n")
    catalog = ImportCatalog.load(write_catalog(tmp_path, [("http://t.example/A", "a.ttl"), ("http://t.example/B", "b.ttl")]))
    assert load_with_imports([tmp_path / "a.ttl"], catalog, QuadStore(), G).files == 1


@pytest.mark.parametrize(
    "line_path, expected",
    [
        ("./a.ttl", "a.ttl"),
        ("sub//a.ttl", "sub/a.ttl"),
        ("sub/../a.ttl", "sub/../a.ttl"),  # '..' is kept: the file system, not the text, decides where it leads
        ("a.ttl   ", "a.ttl"),
        ("a.ttl \t ", "a.ttl"),
        ("a.ttl/", "a.ttl"),
        ("./sub/./a.ttl", "sub/a.ttl"),
    ],
)
def test_a_catalog_line_maps_its_iri_to_the_path_pathlib_would_name(tmp_path, line_path, expected):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.ttl").write_text(HEADER)
    (tmp_path / "sub" / "a.ttl").write_text(HEADER)
    path = tmp_path / "catalog.tsv"
    path.write_text(f"# a comment\n\n<http://t.example/A>\t{line_path}\n")
    catalog = ImportCatalog.load(path)
    status = (tmp_path.resolve() / expected).stat()
    assert catalog.lookup("http://t.example/A") == (str(tmp_path.resolve() / expected), (status.st_dev, status.st_ino))
    assert catalog.iri_for_key((status.st_dev, status.st_ino)) == "http://t.example/A"
    assert catalog.lookup("http://t.example/B") is None


@pytest.mark.parametrize(
    "line, shown",
    [
        ("<http://t.example/A>\t./missing.ttl", "file not found: {root}/missing.ttl"),
        ("<http://t.example/A>\tsub//missing.ttl", "file not found: {root}/sub/missing.ttl"),
        ("<http://t.example/A>\tsub/../missing.ttl", "file not found: {root}/sub/../missing.ttl"),
        ("<http://t.example/A>\tmissing.ttl  ", "file not found: {root}/missing.ttl"),
        ("<http://t.example/A>\tsub", "file not found: {root}/sub"),  # a directory is no file
        ("<http://t.example/A>\t./", "file not found: {root}"),
        ("<http://t.example/A>\t//absent/x.ttl", "file not found: //absent/x.ttl"),
        ("<http://t.example/A>\t///absent//x.ttl/", "file not found: /absent/x.ttl"),
        ("<http://t.example/A>\t  ", "expected '<iri><TAB>path', got '<http://t.example/A>\\t  '"),
    ],
)
def test_a_bad_catalog_line_is_named_with_its_path_as_pathlib_would_show_it(tmp_path, line, shown):
    (tmp_path / "sub").mkdir()
    path = tmp_path / "catalog.tsv"
    path.write_text(f"# a comment\n{line}\n")
    with pytest.raises(CatalogError) as exc:
        ImportCatalog.load(path)
    assert str(exc.value) == f"{path}:2: " + shown.format(root=tmp_path.resolve())


def test_a_catalog_path_holding_a_nul_byte_is_a_malformed_line(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("<http://t.example/A>\ta\0b.ttl\n")
    with pytest.raises(CatalogError) as exc:
        ImportCatalog.load(path)
    assert str(exc.value) == f"{path}:1: expected '<iri><TAB>path', got '<http://t.example/A>\\ta\\x00b.ttl'"


def _iris_in(store: QuadStore, graph: str) -> list:
    """Every IRI object the graph's tables hold, keys and leaves alike, once per place it is held.

    A leaf is a bare term or a set of two or more; a bare term is itself a tuple, so it is taken whole, not unpacked.
    """
    found = []
    for table in (store._spo[graph], store._pos[graph]):
        leaves = 0
        for first, inner in table.items():
            found.append(first)
            for second, leaf in inner.items():
                terms = [*leaf] if type(leaf) is set else [leaf]
                found += [second, *terms]
                leaves += len(terms)
        assert leaves == store.graph_size(graph)  # each quad is one leaf term of each table: none skipped or unpacked
    return [term for term in found if isinstance(term, Iri)]


def _two_documents_with_one_namespace(tmp_path):
    # The same IRIs through the prefixes x:, y: and the empty one, and written out in full.
    (tmp_path / "a.ttl").write_text(
        HEADER + "<http://t.example/A> a owl:Ontology .\nx:s x:p x:o ; a x:C .\nx:o x:p x:s .\n"
    )
    (tmp_path / "b.ttl").write_text(
        "@prefix y: <http://t.example/> .\n@prefix : <http://t.example/> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "y:t y:p :o ; rdf:type <http://t.example/C> .\n:o <http://t.example/q> y:s .\n"
    )
    return write_catalog(tmp_path, [("http://t.example/A", "a.ttl"), ("http://t.example/B", "b.ttl")])


def test_one_load_builds_one_iri_term_per_distinct_iri_across_its_documents(tmp_path):
    catalog = ImportCatalog.load(_two_documents_with_one_namespace(tmp_path))
    store = QuadStore()
    load_with_imports([tmp_path / "a.ttl", tmp_path / "b.ttl"], catalog, store, G)
    by_value: dict[str, set[int]] = {}
    for term in _iris_in(store, G):
        by_value.setdefault(term.value, set()).add(id(term))
    assert len(by_value) == 9  # s, p, o, C, A, t, q, rdf:type and owl:Ontology
    assert all(len(ids) == 1 for ids in by_value.values())
    # The same quads as each document loaded on its own.
    alone = set()
    for name in ("a.ttl", "b.ttl"):
        single = QuadStore()
        load_with_imports([tmp_path / name], catalog, single, G)
        alone |= set(single.quads(G))
    assert set(store.quads(G)) == alone


def test_a_malformed_iri_in_a_later_document_is_placed_in_that_document(tmp_path):
    catalog = ImportCatalog.load(_two_documents_with_one_namespace(tmp_path))
    # U+00A0 passes the IRIREF pattern, but it is whitespace, which no IRI holds.
    (tmp_path / "b.ttl").write_text(
        "@prefix y: <http://t.example/> .\ny:t y:p y:o .\n\n  y:t y:p <http://t.example/x\u00a0y> .\n", encoding="utf-8"
    )
    with pytest.raises(KbFileError) as exc:
        load_with_imports([tmp_path / "a.ttl", tmp_path / "b.ttl"], catalog, QuadStore(), G)
    assert str(exc.value) == (f"{(tmp_path / 'b.ttl').resolve()}: 4:11: "
                              "IRI contains whitespace: 'http://t.example/x\\xa0y'")


def test_each_load_builds_its_own_iri_terms(seed_kb):
    first, _ = load_kb()
    second, _ = load_kb()
    assert set(first.quads(vocab.CORE_GRAPH)) == set(second.quads(vocab.CORE_GRAPH))
    first_ids = {id(term) for term in _iris_in(first, vocab.CORE_GRAPH)}
    assert first_ids and not first_ids & {id(term) for term in _iris_in(second, vocab.CORE_GRAPH)}


# One load of several documents that share directives, each document loaded as an entry, in order.
ONE, TWO = "http://t.example/one/", "http://t.example/two/"


def _load_documents(tmp_path, texts: list[str]) -> QuadStore:
    names = [f"d{k}.ttl" for k in range(len(texts))]
    for name, text in zip(names, texts):
        (tmp_path / name).write_text(text, encoding="utf-8")
    catalog = ImportCatalog.load(write_catalog(tmp_path, [(f"http://t.example/{name}", name) for name in names]))
    store = QuadStore()
    load_with_imports([tmp_path / name for name in names], catalog, store, G)
    return store


def _triples(store: QuadStore) -> set[tuple[str, str, str]]:
    return {(quad.subject.value, quad.predicate.value, quad.object.value) for quad in store.quads(G)}


def _spo(namespace: str, p: str = "p") -> tuple[str, str, str]:
    return namespace + "s", namespace + p, namespace + "o"


def test_one_prefix_bound_to_two_namespaces_in_two_documents_names_two_iris(tmp_path):
    store = _load_documents(tmp_path, [
        f"@prefix x: <{ONE}> .\nx:s x:p x:o .\n",
        f"@prefix x: <{TWO}> .\nx:s x:p x:o .\n",
        f"@prefix x: <{ONE}> .\nx:s x:q x:o .\n",
    ])
    assert _triples(store) == {_spo(ONE), _spo(TWO), _spo(ONE, "q")}


def test_a_prefix_only_an_earlier_document_declared_is_undeclared_in_its_own_place(tmp_path):
    # The later document's header is the first directive of the earlier one's.
    first = f"@prefix x: <{ONE}> .\n@prefix y: <{TWO}> .\nx:s y:t x:o .\n"
    later = f"@prefix x: <{ONE}> .\nx:s x:p x:o .\n\n  x:s y:t x:o .\n"
    with pytest.raises(KbFileError) as exc:
        _load_documents(tmp_path, [first, later])
    assert str(exc.value) == f"{(tmp_path / 'd1.ttl').resolve()}: 4:7: undeclared prefix 'y:'"


def test_a_prefix_rebound_inside_a_document_names_its_new_namespace_from_there_on(tmp_path):
    store = _load_documents(tmp_path, [
        f"@prefix x: <{ONE}> .\nx:s x:p x:o .\n@prefix x: <{TWO}> .\nx:s x:p x:o .\n",
        f"@prefix x: <{ONE}> .\nx:s x:q x:o .\n",
        f"@prefix x: <{TWO}> .\nx:s x:q x:o .\n",
        f"@prefix x: <{ONE}> .\n@prefix x: <{TWO}> .\n@prefix x: <{ONE}> .\nx:s x:r x:o .\n",
    ])
    assert _triples(store) == {_spo(ONE), _spo(TWO), _spo(ONE, "q"), _spo(TWO, "q"), _spo(ONE, "r")}


def test_documents_with_one_header_and_their_own_base_resolve_relative_iris_against_it(tmp_path):
    header = f"@prefix x: <{ONE}> .\n"
    store = _load_documents(tmp_path, [
        header + f"@base <{ONE}> .\n<s> x:p <o> .\n",
        header + f"@base <{TWO}> .\n<s> x:p <o> .\n",
        header + f"@base <{TWO}> .\n@base <{ONE}> .\n<s> x:q <o> .\n",
    ])
    assert _triples(store) == {_spo(ONE), (TWO + "s", ONE + "p", TWO + "o"), _spo(ONE, "q")}


@pytest.mark.parametrize("place", ["subject", "object"])
def test_a_blank_node_in_one_place_only_is_renamed_per_document(tmp_path, place):
    triple = "_:n x:p x:o .\n" if place == "subject" else "x:s x:p _:n .\n"
    store = _load_documents(tmp_path, [HEADER + triple, HEADER + "x:s x:q x:o .\n", HEADER + triple])
    found = {term for quad in store.quads(G) for term in (quad.subject, quad.object) if isinstance(term, Blank)}
    expected = {Blank("b" + hashlib.sha1(f"http://t.example/{name}|n".encode()).hexdigest()[:16])
                for name in ("d0.ttl", "d2.ttl")}
    assert found == expected
    assert store.graph_size(G) == 3


def _header(text: str) -> tuple[str, ...]:
    """The directive lines of a shipped KB file: one directive a line, all before its first triple."""
    return tuple(line for line in text.splitlines() if line.startswith("@"))


def test_one_load_parses_each_directive_header_once_and_resolves_each_name_once_per_header(monkeypatch):
    parses, resolved = 0, Counter()
    parse_directive, term = _Parser._parse_directive, _Parser._term

    def counting_directive(self, i):
        nonlocal parses
        parses += 1
        return parse_directive(self, i)

    def counting_term(self, i, position):
        resolved[_header(self.source), self.tokens[i]] += 1
        return term(self, i, position)

    monkeypatch.setattr(_Parser, "_parse_directive", counting_directive)
    monkeypatch.setattr(_Parser, "_term", counting_term)
    load_kb(validate=False)
    headers = [_header(path.read_text(encoding="utf-8")) for path in kb_dir().glob("*.ttl")]
    assert len(headers) == 20 and sum(map(len, headers)) == 92 and len(set(headers)) == 3
    # A header's directives are parsed once, however many documents open with them; so is a run they begin.
    assert parses == len({header[:k] for header in headers for k in range(1, len(header) + 1)})
    # The shipped KB holds no blank node, so every term resolved is an IRIREF or a prefixed name.
    assert resolved and max(resolved.values()) == 1
