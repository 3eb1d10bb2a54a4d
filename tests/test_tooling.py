import ast
import json
import os
import pathlib
import re
import subprocess
import sys

from circdist.cyclotomic import cyc_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "circdist"


def test_library_has_no_assert_statements():
    # python -O strips assert statements; a certificate or invariant check
    # written as one would silently stop running
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and not found, found


def _defs_to_check(tree):
    """Module-level functions and the non-dunder methods of module-level
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_module_level_function_is_used():
    # a module-level def or a class's non-dunder method whose name appears
    # on no other line of the library, the tests, the benchmark or the
    # README is dead code
    lines = []
    for path in ([ROOT / "README.md"] + sorted((ROOT / "src").rglob("*.py"))
                 + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))):
        lines += [(path, i, line) for i, line in enumerate(path.read_text().splitlines(), 1)]
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _defs_to_check(tree):
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            if not any(word.search(line) for p, i, line in lines
                       if (p, i) != (path, node.lineno)):
                unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert list(SRC.glob("*.py")) and not unused, unused


def _cached_forwarders(tree):
    """Names of the lru_cache'd functions whose body is one ``return`` of a
    call to a name imported from another circdist module."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "circdist"):
            imported.update(a.asname or a.name for a in node.names)
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or not any(
                "lru_cache" in ast.unparse(d) for d in node.decorator_list):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)):
            func = body[0].value.func
            while isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(func, ast.Name) and func.id in imported:
                yield node.name


def test_every_cache_sits_on_its_constructor():
    # a cache that only wraps another module's constructor hides how often
    # that constructor runs for everyone else; cache the constructor itself
    shapes = ('from .groupring import annihilator_In_formula\n'
              '@lru_cache(maxsize=None)\n'
              'def _annihilator(n):\n'
              '    return annihilator_In_formula(n)\n',
              'from . import groupring\n'
              '@functools.lru_cache\n'
              'def _e(n):\n'
              '    """The idempotent."""\n'
              '    return groupring.idempotent_e_n(n)\n')
    for source in shapes:
        assert len(list(_cached_forwarders(ast.parse(source)))) == 1, source
    found = ["%s %s" % (path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in _cached_forwarders(ast.parse(path.read_text()))]
    assert list(SRC.glob("*.py")) and not found, found


def test_certificate_rounds_logs_by_one_rule():
    # distributions.py turns doubles into integer bounds only through
    # _log_units: a ceil or floor anywhere else would be a second rounding
    # rule on the certificate's path
    tree = ast.parse((SRC / "distributions.py").read_text())
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_log_units"
              for node in ast.walk(fn)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("ceil", "floor")]
    outside = [node.lineno for node in calls if id(node) not in inside]
    assert len(calls) == 2 and not outside, outside


def test_every_module_level_import_is_used():
    # a name imported at module level that the module never reads is dead;
    # the package's __init__ imports only to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += ["%s:%d %s" % (path.name, node.lineno, name)
                           for name in (a.asname or a.name.split(".")[0] for a in node.names)
                           if name not in read]
    assert list(SRC.glob("*.py")) and not unused, unused


def _nodes_at_load(tree):
    """The nodes that run when the module is imported: everything outside
    function bodies (module level, class bodies, if/try blocks)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_and_mpmath_are_imported_inside_functions():
    # a one-shot CLI command pays for every module-level import; numpy and
    # mpmath are imported by the functions that need them
    heavy = {"numpy", "mpmath"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _nodes_at_load(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            if any(name.split(".")[0] in heavy for name in names):
                found.append("%s:%d" % (path.name, node.lineno))
    assert list(SRC.glob("*.py")) and not found, found


_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_TYPES = ("list", "dict", "set", "bytearray")


def _is_mutable_container(value):
    return isinstance(value, _MUTABLE_DISPLAYS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in _MUTABLE_TYPES)


def test_no_module_level_mutable_container():
    # a list, dict or set bound at import is state that any call can change
    # and every later call sees; caches go through functools.lru_cache, and
    # the package's __all__ is the one exemption
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _nodes_at_load(tree):
            if (isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    and node.value is not None and _is_mutable_container(node.value)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [getattr(t, "id", None) for t in targets]
                if not (path.name == "__init__.py" and names == ["__all__"]):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert list(SRC.glob("*.py")) and not found, found


def test_no_module_imports_mpmath():
    # every numeric result in the library is read from Python doubles or
    # exact integers; mpmath and numpy are left to the test oracles, so
    # neither is imported by any module, function bodies included
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""])
                if any(name.split(".")[0] in ("mpmath", "numpy") for name in names):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert list(SRC.glob("*.py")) and not found, found


def _loads_mpmath(script, *args):
    """Run script in a fresh interpreter; True if mpmath got imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    script = "import sys; %s; print('mpmath' in sys.modules)" % script
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_interval_fallback_leaves_mpmath_unloaded():
    # the certified cosines are pure integers: an exponent solve and a
    # positivity verdict that both need the interval fallback (a nonempty
    # cosine table shows it ran) import no mpmath
    from test_distributions import PAST_DOUBLE
    from test_embed_differential import near_zero_element
    solve = ("from circdist import cyclotomic as cyc, distributions as dist; "
             "from circdist.groupring import eps_n, grelt; "
             "u = grelt(%d, True, %r).act_on(eps_n(%d), assume_tau_fixed=True); "
             "assert dist.solve_exponent(u) is not None; "
             "assert cyc._cos_bounds.cache_info().currsize"
             % (PAST_DOUBLE[0][0], PAST_DOUBLE[0][1], PAST_DOUBLE[0][0]))
    assert not _loads_mpmath(solve)
    positive = ("import json; from circdist import cyclotomic as cyc; "
                "x = cyc.cyc_from_json(json.loads(sys.argv[1])); "
                "assert not cyc.is_totally_positive(x); "
                "assert cyc._cos_bounds.cache_info().currsize")
    x = near_zero_element(97, 700, 5, 1)
    assert not _loads_mpmath(positive, json.dumps(cyc_to_json(x)))


def _trace_targets():
    """The literal `TARGETS` tuple of bench/tracing.py, read without
    importing it."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_trace_target_resolves():
    # `bench/run.py --trace 1` wraps each (module, attribute path) of
    # TARGETS and refuses to run if one is missing, so a deletion in src/
    # must not remove one; the wrappers must install in a fresh process
    import importlib
    targets = _trace_targets()
    missing = []
    for mod_name, path in targets:
        obj = importlib.import_module("circdist." + mod_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("%s.%s" % (mod_name, path))
    assert targets and not missing, missing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent), str(ROOT / "bench")] + [p for p in [env.get("PYTHONPATH")] if p])
    script = ("import tracing; t = tracing.install(tracing.Tracer()); "
              "print(len(t.bindings) == len(tracing.NAMES))")
    proc = subprocess.run([sys.executable, "-B", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every circdist command is one fresh process; the value classes are
    # plain __slots__ classes, so importing the CLI pays for neither module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    script = ("import sys, circdist.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


ALLOWED_IMPORTS = {"argparse", "bisect", "contextlib", "fractions", "functools",
                   "itertools", "json", "math", "operator", "os", "sys", "gmpy2"}


def test_library_imports_only_the_allowlist():
    # a module outside this list costs every CLI process its import time;
    # adding one is a deliberate edit here (gmpy2 is the optional fast path)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.split(".")[0] not in ALLOWED_IMPORTS]
    assert list(SRC.glob("*.py")) and not found, found


def test_nonzero_numerators_have_one_reader():
    # CycElt and GroupRingElt list their nonzero numerators through the one
    # reader `cyclotomic._Vector.nonzero`; an enumerate(x.nums) scan
    # anywhere else would be a second copy of it
    def reader(path, tree):
        if path.name != "cyclotomic.py":
            return set()
        return {id(node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "_Vector"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "nonzero"
                for node in ast.walk(fn)}

    found, allowed = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = reader(path, tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "enumerate"
                    and node.args and isinstance(node.args[0], ast.Attribute)
                    and node.args[0].attr == "nums"):
                if id(node) in inside:
                    allowed += 1
                else:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert allowed == 1 and not found, found


def test_representatives_have_one_position_table():
    # `groupring._unit_positions` is the one map from a representative to
    # its position in group_reps; a {r: i for i, r in enumerate(...)}
    # anywhere else would be a second copy of it
    def to_index(node):
        if not (isinstance(node, ast.DictComp) and len(node.generators) == 1):
            return False
        gen = node.generators[0]
        if not (isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "enumerate"
                and isinstance(gen.target, ast.Tuple) and len(gen.target.elts) == 2
                and all(isinstance(e, ast.Name) for e in gen.target.elts)):
            return False
        index, elt = (e.id for e in gen.target.elts)
        return (isinstance(node.value, ast.Name) and node.value.id == index
                and any(isinstance(x, ast.Name) and x.id == elt for x in ast.walk(node.key)))

    found, allowed = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for fn in tree.body
                  if path.name == "groupring.py" and isinstance(fn, ast.FunctionDef)
                  and fn.name == "_unit_positions"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if to_index(node):
                if id(node) in inside:
                    allowed += 1
                else:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert allowed == 1 and not found, found
