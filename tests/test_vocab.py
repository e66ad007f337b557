from __future__ import annotations

import ast
from pathlib import Path

from graphsynth import vocab

ROOT = Path(__file__).resolve().parent.parent


def _names_used(tree: ast.AST) -> set[str]:
    """Names read as `vocab.NAME` or imported by `from graphsynth.vocab import NAME`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "vocab":
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "graphsynth.vocab":
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_vocab_constant_is_used_outside_vocab():
    vocab_path = Path(vocab.__file__).resolve()
    constants = {
        target.id
        for node in ast.parse(vocab_path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and not target.id.startswith("_")
    }
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]:
        if path.resolve() != vocab_path:
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(constants - used) == []


def test_every_shape_names_a_shipped_class_and_public_vocab_predicates(seed_kb):
    from graphsynth.quadstore import Pattern, Var
    from graphsynth.terms import RDF_TYPE, Iri
    from graphsynth.views import BOOL, INT, IRI, MANY, NAME, SHAPES, STR

    store, _ = seed_kb
    public = {value for name in dir(vocab) if isinstance(value := getattr(vocab, name), str) and name[0] != "_"}
    for cls, (label, fields) in SHAPES.items():
        assert store.match_pattern(Pattern(Var("s"), Iri(RDF_TYPE), Iri(cls), vocab.CORE_GRAPH)), cls
        assert cls in public, cls
        assert label is None or label in {name for name, *_ in fields}, cls
        for name, predicate, kind, low, high in fields:
            assert predicate.value in public, (cls, name)
            assert kind in SHAPES or kind in (STR, NAME, INT, BOOL, IRI), (cls, name)
            assert (low, high) in ((0, 1), (1, 1), (1, MANY)), (cls, name)
