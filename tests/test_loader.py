from __future__ import annotations

import hashlib
import itertools
import shutil

import pytest

from graphsynth import vocab
from graphsynth.errors import CatalogError, ImportResolutionError, KbFileError
from graphsynth.loader import ImportCatalog, load_with_imports
from graphsynth.quadstore import QuadStore
from graphsynth.seed import catalog_path, kb_dir, load_kb
from graphsynth.terms import Blank

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
        results.append(store.graph_quads(G))
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
    path.write_text("<http://t.example/A>\ta.ttl\n<http://t.example/A>\ta.ttl\n")
    with pytest.raises(CatalogError):
        ImportCatalog.load(path)


def test_catalog_rejects_missing_file(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("<http://t.example/A>\tmissing.ttl\n")
    with pytest.raises(CatalogError):
        ImportCatalog.load(path)


def test_catalog_rejects_malformed_line(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("not a mapping\n")
    with pytest.raises(CatalogError):
        ImportCatalog.load(path)


def test_shipped_catalog_covers_every_ttl_file():
    catalog = ImportCatalog.load(catalog_path())
    assert len(catalog) == len(list(kb_dir().glob("*.ttl"))) == 20


def test_loading_twice_into_one_store_adds_nothing():
    store, first = load_kb()
    _, second = load_kb(store=store)
    assert second.files == 20
    assert second.quads == 0
    assert len(store) == first.quads


def test_a_kb_reached_through_a_symlinked_directory_loads_each_file_once(tmp_path, seed_kb):
    real, link = tmp_path / "real", tmp_path / "link"
    shutil.copytree(kb_dir(), real)
    link.symlink_to(real, target_is_directory=True)
    shipped, _ = seed_kb
    # The entry and the catalog reached by either path, in each mix, name the same 20 files.
    for directory, catalog in ((link, None), (link, real / "catalog.tsv"), (real, link / "catalog.tsv")):
        store, report = load_kb(directory, catalog, validate=False)
        assert report.files == 20
        assert store.graph_quads(vocab.CORE_GRAPH) == shipped.graph_quads(vocab.CORE_GRAPH)


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
        stores.append(store.graph_quads(G))
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
