"""Every name a module imports is read in that module.

Test modules are held to this for the names they import from spexlab, and
spexlab's own modules for every name they import. A line marked
``# noqa: F401`` is exempt: it keeps a name importable from that module on
purpose. ``__init__.py`` is not checked, since its imports are the
package's public names.

Importing spexlab also stays clear of the process pool, which no
spexlab code needs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
TESTS = sorted(HERE.glob("*.py"))
SOURCES = sorted(p for p in (HERE.parent / "src" / "spexlab").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str, package: str | None = None) -> list[str]:
    """Names ``source`` imports and never reads, only those from
    ``package`` when one is given."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            origin = alias.name if isinstance(node, ast.Import) else node.module or ""
            if package is None or origin.split(".")[0] == package:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_spexlab_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8"), "spexlab") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_seen():
    source = "from spexlab import path, star\nprint(path(3))\n"
    assert unused_imports(source, "spexlab") == ["star"]


def test_an_unused_relative_import_is_seen_unless_marked():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from functools import reduce\n"
              "from .graphs import path, star\n"
              "from .spectral import fold_radius  # noqa: F401\n"
              "print(path(3), math.pi)\n")
    assert unused_imports(source) == ["reduce", "star"]


def test_import_loads_no_process_pool():
    probe = ("import sys, spexlab; print(sorted(m for m in sys.modules if m in "
             "('concurrent.futures.process', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
