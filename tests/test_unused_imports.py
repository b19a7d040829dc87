"""Every imported name in the package and the tests is read somewhere.

Parses ``src/supervec/*.py`` (except ``__init__.py``, which re-exports) and
``tests/*.py`` with ``ast``; an imported name that no expression reads fails
the test, named with its file and line.  ``from __future__`` imports are
exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source):
    """(line, name) of every imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    sources = [p for p in sorted((ROOT / "src" / "supervec").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "tests").glob("*.py"))
    assert len(sources) > 10
    unused = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for path in sources
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_scan_finds_each_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import sys as system\n"
        "from math import pi, tau\n"
        "print(pi, system.argv)\n"
    )
    assert unused_imports(source) == [(3, "os"), (5, "tau")]
