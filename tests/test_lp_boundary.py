"""The LP layer has one entrance.  Only `kernel` imports `simplex` or builds a
standard form (`_presolve`, `_assemble_standard`), and `verify_extension`
and `poly_equal` ask their LP questions through the kernel's containment
functions, never through `optimize`/`optimize_all` themselves.  Neither
does `_outside_image`, which asks its fiber questions in one `_lex_fibers`
batch; `slack` lifts its points through that batch and never names
`lex_min_point`.  So a loop of one LP per point cannot come back
unnoticed.  Likewise the library has one left inverse: no module but
`linalg` calls its Fraction eliminations, and `linalg.inverse`,
`left_inverse` and the polar seeds of the hull reach `_left_inverse_int`,
never `rref` or an elimination of their own.  Each integer primitive has
one reader: a row is evaluated at a point only by `kernel._int_slack`, and
every equation the library returns is made canonical by
`linalg._canonical_eq`.  Objectives stay integers on the way to the
simplex: `_substitute` is the one reducer of rows and costs (there is no
`_Reduction.objective`), and `_image_violations` pulls its rows back over
integer rows, never by `pull_back` or `dot`.  Each LP-layer fact is kept
once: the presolve's eliminations only as the integer equations `subs`
(no `_Reduction.elim`, no `_recover_vector`), a map's rows only as its
integer rows (no `AffineMap._sparse_rows`; `apply` reads them with
`_int_slack`), and whether rows reach their rhs over a polyhedron is asked
by one batch, `kernel._at_bound`, for `_implicit_equalities` and for
`slack`'s binding checks.  Every LP the library poses itself goes in as
integer rows through `kernel._optimize_rows`: the max-common-slack LP, the
redundancy LPs, the rows-at-bound batch and factorize's T rows call neither
`HPoly` nor `optimize`/`optimize_all`, and no `HPoly` is built past its
constructor (`object.__new__(HPoly)`, `HPoly._derive`)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polylift"
STANDARD_FORM = {"_presolve", "_assemble_standard"}
LP_CALLS = {"optimize", "optimize_all"}
CONTAINMENT_CALLERS = [("constructions.py", "verify_extension"), ("kernel.py", "poly_equal"),
                       ("kernel.py", "_outside_image")]
BATCHED = {"slack.py": "lex_min_point"}
FRACTION_ELIMINATIONS = {"rref", "solve", "inverse", "left_inverse", "nullspace"}
ROW_AT_POINT = [("kernel.py", "HPoly._holds"), ("kernel.py", "_is_lift"), ("kernel.py", "_ray_certified"),
                ("kernel.py", "vertices"), ("kernel.py", "_dd_insert"), ("slack.py", "_slacks")]
EQUATION_BUILDERS = [("kernel.py", "_affine_frame"), ("kernel.py", "_hull_int"), ("kernel.py", "fm_project"),
                     ("slack.py", "factorization_to_extension")]


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


def _names(tree, name):
    """Lines where the name is imported, read or called, in line order."""
    return sorted({n.lineno for n in ast.walk(tree) if (isinstance(n, ast.Name) and n.id == name)
                   or (isinstance(n, ast.Attribute) and n.attr == name)
                   or (isinstance(n, ast.ImportFrom) and any(a.name == name for a in n.names))})


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _function(tree, function):
    """The node of the top-level function, or the method "Class.name", or
    None when the file defines no such function."""
    *cls, name = function.split(".")
    body = tree.body
    for c in cls:
        body = next((n.body for n in body if isinstance(n, ast.ClassDef) and n.name == c), [])
    return next((n for n in body if isinstance(n, ast.FunctionDef) and n.name == name), None)


def _calls_in(tree, function):
    """The names that the top-level function, or the method "Class.name",
    calls, or None when the file defines no such function."""
    node = _function(tree, function)
    return None if node is None else {_called(n) for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_only_kernel_reaches_the_simplex():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {p.name: uses for p in files if p.name != "kernel.py" and (uses := _simplex_uses(_tree(p)))}
    assert found == {}
    assert _simplex_uses(_tree(SRC / "kernel.py"))  # the one entrance is still there


def test_containment_callers_build_no_lp():
    for name, function in CONTAINMENT_CALLERS:
        assert _direct_lp_calls(_tree(SRC / name), function) == [], (name, function)


def test_slack_lifts_points_in_one_batch():
    for name, function in BATCHED.items():
        assert _names(_tree(SRC / name), function) == [], (name, function)


def test_one_left_inverse():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "linalg.py":
            tree = _tree(path)
            assert [(line, f) for f in sorted(FRACTION_ELIMINATIONS) for line in _names(tree, f)] == [], path.name
    tree = _tree(SRC / "linalg.py")
    assert _calls_in(tree, "left_inverse") & {"_eliminate", "rref", "_left_inverse_int"} == {"_left_inverse_int"}
    assert _calls_in(tree, "inverse") & {"_eliminate", "rref", "left_inverse"} == {"left_inverse"}


def test_polar_seeds_read_the_one_left_inverse():
    calls = _calls_in(_tree(SRC / "kernel.py"), "_polar_seeds")
    assert "_left_inverse_int" in calls and "_eliminate" not in calls


def test_one_row_at_a_point():
    for name, function in ROW_AT_POINT:
        assert "_int_slack" in _calls_in(_tree(SRC / name), function), (name, function)
    # contains and the lift-hint check share the row loop `_holds`, and
    # scale the point by `linalg.homogeneous`, not by an lcm of their own
    for function in ("HPoly.contains", "_is_lift"):
        calls = _calls_in(_tree(SRC / "kernel.py"), function)
        assert {"_holds", "homogeneous"} <= calls and "lcm" not in calls, function


def test_one_canonical_equation():
    for name, function in EQUATION_BUILDERS:
        assert "_canonical_eq" in _calls_in(_tree(SRC / name), function), (name, function)
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        assert [(f, line) for f in ("canon_ineq", "canon_eq") for line in _names(tree, f)] == [], path.name


def _cost_chain_breaches(tree):
    """What breaks the integer cost chain: `_image_violations` calling
    `pull_back` or `dot`, or a `_Reduction.objective`."""
    out = sorted((_calls_in(tree, "_image_violations") or set()) & {"pull_back", "dot"})
    return out + ["_Reduction.objective"] * (_calls_in(tree, "_Reduction.objective") is not None)


def test_one_reducer_of_rows_and_costs():
    tree = _tree(SRC / "kernel.py")
    assert _calls_in(tree, "_image_violations") is not None
    assert _cost_chain_breaches(tree) == []
    assert "_substitute" in _calls_in(tree, "_Reduction.reduce")


def test_the_cost_chain_check_sees_a_breach(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class _Reduction:\n"
        "    def objective(self, c):\n"
        "        return c\n"
        "def _image_violations(q, proj, p):\n"
        "    return [(proj.pull_back(a), linalg.dot(a, proj.offset)) for a, _ in p.ineqs]\n"
    )
    assert _cost_chain_breaches(_tree(path)) == ["dot", "pull_back", "_Reduction.objective"]


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
        "def _outside_image(q, proj, points):\n"
        "    return [x for x in points if kernel.optimize(q._derive(eqs=x), (), 'min').status]\n"
    )
    tree = _tree(path)
    assert _simplex_uses(tree) == [
        (1, "simplex"), (2, "polylift.simplex"), (3, "_presolve"), (5, "_assemble_standard")]
    assert _direct_lp_calls(tree, "verify_extension") == [(6, "optimize"), (6, "optimize_all")]
    assert _direct_lp_calls(tree, "poly_equal") is None
    assert _direct_lp_calls(tree, "_outside_image") == [(10, "optimize")]


def test_the_batch_check_sees_a_per_point_loop(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .kernel import (\n"
        "    lex_min_point,\n"
        ")\n"
        "def lifts(q, pts):\n"
        "    return [kernel.lex_min_point(q._derive(eqs=x)) for x in pts]\n"
        "f = lex_min_point\n"
    )
    assert _names(_tree(path), "lex_min_point") == [1, 5, 6]


def test_the_left_inverse_check_sees_an_elimination(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def left_inverse(m):\n"
        "    return rref([r + e for r, e in zip(m, identity(len(m)))])\n"
        "def g(an):\n"
        "    return linalg.nullspace(an), linalg.left_inverse(an)\n"
    )
    tree = _tree(path)
    assert _calls_in(tree, "left_inverse") == {"rref", "identity", "zip", "len"}
    assert _calls_in(tree, "inverse") is None
    assert [_names(tree, f) for f in ("nullspace", "left_inverse")] == [[4], [4]]


def test_the_call_check_reads_methods(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class HPoly:\n"
        "    def contains(self, x):\n"
        "        return lcm(*x) and _int_slack((), 0, x)\n"
        "def contains(x):\n"
        "    return x\n"
    )
    tree = _tree(path)
    assert _calls_in(tree, "HPoly.contains") == {"lcm", "_int_slack"}
    assert _calls_in(tree, "contains") == set()
    assert _calls_in(tree, "VPoly.contains") is None


ONE_RECORD_GONE = [("kernel.py", "_recover_vector"), ("kernel.py", "AffineMap._sparse_rows"),
                   ("kernel.py", "HPoly._derive"), ("kernel.py", "HPoly._derive_int")]
AT_BOUND_CALLERS = [("kernel.py", "_implicit_equalities"), ("slack.py", "is_binding"),
                    ("slack.py", "_binding_given_slacks")]


def _second_copies(tree):
    """The second copies of an LP-layer fact that the tree still keeps: a
    function of ONE_RECORD_GONE, an `elim` attribute set in kernel's
    `_Reduction` or `_presolve`, and an `AffineMap.apply` that reads no
    `_int_slack`."""
    out = [f for _, f in ONE_RECORD_GONE if _calls_in(tree, f) is not None]
    for function in ("_Reduction.__init__", "_presolve"):
        body = _function(tree, function)
        if body is not None and any(isinstance(n, ast.Attribute) and n.attr == "elim" for n in ast.walk(body)):
            out.append(f"{function}: elim")
    if "_int_slack" not in (_calls_in(tree, "AffineMap.apply") or set()):
        out.append("AffineMap.apply")
    return out


def test_each_lp_layer_fact_is_kept_once():
    assert _second_copies(_tree(SRC / "kernel.py")) == []
    for name, function in AT_BOUND_CALLERS:
        calls = _calls_in(_tree(SRC / name), function)
        assert "_at_bound" in calls and not calls & LP_CALLS, (name, function)


def test_the_one_record_check_sees_a_second_copy(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class _Reduction:\n"
        "    def __init__(self, dim):\n"
        "        self.elim = []\n"
        "class AffineMap:\n"
        "    def apply(self, y):\n"
        "        return [sum(a * x for a, x in zip(row, y)) for row in self._sparse_rows()]\n"
        "    def _sparse_rows(self):\n"
        "        return self.matrix\n"
        "def _recover_vector(z, var_cols, dim):\n"
        "    return z\n"
        "class HPoly:\n"
        "    def _derive(self, keep=None, eqs=()):\n"
        "        return self\n"
    )
    assert _second_copies(_tree(path)) == ["_recover_vector", "AffineMap._sparse_rows", "HPoly._derive",
                                           "_Reduction.__init__: elim", "AffineMap.apply"]


INTEGER_POSED = [("kernel.py", "_max_common_slack"), ("kernel.py", "_nonredundant"), ("kernel.py", "_at_bound"),
                 ("slack.py", "extension_to_factorization")]


def _hpoly_lps(tree, functions):
    """What poses an LP of the library's own on an `HPoly`: each call of
    `HPoly`, `optimize` or `optimize_all` inside the functions, as
    "function: name", and each `object.__new__(HPoly)` in the tree, with
    its line."""
    out = [f"{f}: {c}" for f in functions for c in sorted(_calls_in(tree, f) & (LP_CALLS | {"HPoly"}))]
    return out + [f"object.__new__(HPoly) at {n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and _called(n) == "__new__"
                  and any(isinstance(a, ast.Name) and a.id == "HPoly" for a in n.args)]


def test_internal_lps_go_in_as_integer_rows():
    for path in sorted(SRC.glob("*.py")):
        functions = [f for name, f in INTEGER_POSED if name == path.name]
        tree = _tree(path)
        assert all(_calls_in(tree, f) is not None for f in functions), path.name
        assert _hpoly_lps(tree, functions) == [], path.name
    for name, function in INTEGER_POSED:
        assert "_optimize_rows" in _calls_in(_tree(SRC / name), function), (name, function)


def test_the_integer_row_check_sees_an_hpoly_lp(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def _max_common_slack(dim, ineqs, eqs):\n"
        "    return optimize(HPoly(dim + 1, ineqs, eqs), (), 'max')\n"
        "def _at_bound(poly, rows, sense):\n"
        "    return kernel.optimize_all(poly, rows)\n"
        "def _nonredundant(dim, ineqs, eqs):\n"
        "    out = object.__new__(HPoly)\n"
        "    return _optimize_rows(dim, ineqs, eqs, [])\n"
    )
    functions = ["_max_common_slack", "_at_bound", "_nonredundant"]
    assert _hpoly_lps(_tree(path), functions) == [
        "_max_common_slack: HPoly", "_max_common_slack: optimize", "_at_bound: optimize_all",
        "object.__new__(HPoly) at 6"]
