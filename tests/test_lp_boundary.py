"""The LP layer has one entrance.  Only `kernel` imports `simplex` or builds a
standard form (`_presolve`, `_assemble_standard`), and `verify_extension`
and `poly_equal` ask their LP questions through the kernel's containment
functions, never through `optimize`/`optimize_all` themselves."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polylift"
STANDARD_FORM = {"_presolve", "_assemble_standard"}
LP_CALLS = {"optimize", "optimize_all"}
CONTAINMENT_CALLERS = {"constructions.py": "verify_extension", "kernel.py": "poly_equal"}


def _called(node):
    """The name a call node calls: f(...) or mod.f(...)."""
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _simplex_uses(tree):
    """(line, what) of each import of simplex or of a standard-form builder,
    and each call of such a builder, in line order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Call) and _called(node) in STANDARD_FORM:
            out.append((node.lineno, _called(node)))
            continue
        else:
            continue
        out += [(node.lineno, n) for n in names if n.rpartition(".")[2] == "simplex" or n in STANDARD_FORM]
    return sorted(out)


def _direct_lp_calls(tree, function):
    """(line, name) of each optimize/optimize_all call inside the top-level
    function, or None when the file defines no such function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return [(n.lineno, _called(n)) for n in ast.walk(node)
                    if isinstance(n, ast.Call) and _called(n) in LP_CALLS]
    return None


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def test_only_kernel_reaches_the_simplex():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {p.name: uses for p in files if p.name != "kernel.py" and (uses := _simplex_uses(_tree(p)))}
    assert found == {}
    assert _simplex_uses(_tree(SRC / "kernel.py"))  # the one entrance is still there


def test_containment_callers_build_no_lp():
    for name, function in CONTAINMENT_CALLERS.items():
        assert _direct_lp_calls(_tree(SRC / name), function) == [], (name, function)


def test_the_checks_see_a_violation(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import linalg, simplex\n"
        "import polylift.simplex as sx\n"
        "from .kernel import _presolve\n"
        "def verify_extension(q):\n"
        "    red = kernel._assemble_standard(q)\n"
        "    return optimize(q, (), 'min'), kernel.optimize_all(q, [])\n"
        "def other(q):\n"
        "    return optimize(q, (), 'min')\n"
    )
    tree = _tree(path)
    assert _simplex_uses(tree) == [
        (1, "simplex"), (2, "polylift.simplex"), (3, "_presolve"), (5, "_assemble_standard")]
    assert _direct_lp_calls(tree, "verify_extension") == [(6, "optimize"), (6, "optimize_all")]
    assert _direct_lp_calls(tree, "poly_equal") is None
