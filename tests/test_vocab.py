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
