"""No flagless ``np.unique`` in ``src/``: every dedup uses ``sorted_unique``.

numpy >= 2.3 answers a flagless ``np.unique`` from a hash table, 40-70x
slower than ``repro.formats.base.sorted_unique`` on the keys this package
deduplicates. Calls with a ``return_*`` keyword already take numpy's sort
path and stay.
"""

import ast
import pathlib

PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def flagless_unique_calls(source: str):
    """Line numbers of ``np.unique`` / ``numpy.unique`` calls with no ``return_*`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "unique"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            continue
        if not any((kw.arg or "").startswith("return_") for kw in node.keywords):
            lines.append(node.lineno)
    return lines


def test_scan_flags_only_flagless_calls():
    source = (
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, c = np.unique(x, return_counts=True)\n"
        "d = numpy.unique(x, axis=None)\n"
    )
    assert flagless_unique_calls(source) == [2, 4]


def test_src_has_no_flagless_np_unique():
    files = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert len(files) > 50
    found = [
        f"{path.relative_to(PACKAGE_ROOT)}:{line}"
        for path in files
        for line in flagless_unique_calls(path.read_text())
    ]
    assert found == []
