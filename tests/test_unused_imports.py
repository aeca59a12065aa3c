"""No unused imports in ``tests/test_*.py``.

No linter checks the test modules, so an import an edit leaves behind stays
there. A name counts as used when the module loads it anywhere as a bare name
(``mod.attr`` loads ``mod``). An import whose statement or alias line carries
``# noqa: F401`` is exempt.
"""

import ast
import pathlib

TESTS_ROOT = pathlib.Path(__file__).resolve().parent


def unused_imports(source: str):
    """``(line, name)`` of every imported name the module never references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                noqa = any("noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno))
                if not noqa:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_scan_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "import sys  # noqa: F401\n"
        "from pkg import (\n"
        "    used,\n"
        "    dead,\n"
        "    kept,  # noqa: F401\n"
        ")\n"
        "def f():\n"
        "    import re\n"
        "    return used(os.getcwd())\n"
    )
    assert unused_imports(source) == [(3, "js"), (7, "dead"), (11, "re")]


def test_test_modules_have_no_unused_imports():
    files = sorted(TESTS_ROOT.glob("test_*.py"))
    assert len(files) > 30
    found = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
