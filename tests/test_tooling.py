import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "circdist"


def test_library_has_no_assert_statements():
    # python -O strips assert statements; a certificate or invariant check
    # written as one would silently stop running
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and not found, found


def _imports_at_load(tree):
    """Import statements that run when the module is imported: everything
    outside function bodies (module level, class bodies, if/try blocks)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_and_mpmath_are_imported_inside_functions():
    # a one-shot CLI command pays for every module-level import; numpy and
    # mpmath are imported by the functions that need them
    heavy = {"numpy", "mpmath"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _imports_at_load(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            if any(name.split(".")[0] in heavy for name in names):
                found.append("%s:%d" % (path.name, node.lineno))
    assert list(SRC.glob("*.py")) and not found, found
