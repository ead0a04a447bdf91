"""Every name a test module imports from spexlab is used in that module."""

import ast
from pathlib import Path

import pytest

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_spexlab_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "spexlab"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_spexlab_imports_are_used(path):
    assert unused_spexlab_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_seen():
    source = "from spexlab import path, star\nprint(path(3))\n"
    assert unused_spexlab_imports(source) == ["star"]
