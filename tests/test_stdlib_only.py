"""polylift imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polylift"


def _foreign_imports(path):
    """(line, module) of each import in the file that is neither relative nor
    of a standard library module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.partition(".")[0] not in sys.stdlib_module_names]
    return out


def test_every_module_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {p.name: bad for p in files if (bad := _foreign_imports(p))}
    assert found == {}


def test_the_check_sees_a_foreign_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom . import linalg\nfrom numpy.linalg import norm\nimport scipy, json\n")
    assert _foreign_imports(path) == [(3, "numpy.linalg"), (4, "scipy")]
