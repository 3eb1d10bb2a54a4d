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
