import ast
import importlib
import os
import subprocess
import sys

import pytest

import bigrade
from code_lines import code_lines


def test_package_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(bigrade.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, bigrade, bigrade.cli; "
        "print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out.strip() == "[]"


def _unused_imports(path):
    """Names bound by top-level imports of the module at path that it never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_top_level_import_is_used():
    # __init__.py imports to re-export
    pkg = os.path.dirname(bigrade.__file__)
    unused = {
        name: _unused_imports(os.path.join(pkg, name))
        for name in sorted(os.listdir(pkg))
        if name.endswith(".py") and name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _unread_private_definitions(directory):
    """Top-level _name functions and classes of the modules in directory that none of them reads."""
    defined = {}
    read = set()
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[(name, node.name)] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {key: line for key, line in defined.items() if key[1] not in read}


def test_every_private_definition_is_read():
    # a top-level _name function or class must be read somewhere in the
    # package, and a test helper somewhere in the tests
    assert _unread_private_definitions(os.path.dirname(bigrade.__file__)) == {}
    assert _unread_private_definitions(os.path.dirname(os.path.abspath(__file__))) == {}


def _redundant_local_imports(path):
    """Lines of function-local `from .m import ...` in a module that imports from .m at top level.

    Such an import defers nothing: .m is loaded with the module anyway.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    top = {(node.level, node.module) for node in tree.body if isinstance(node, ast.ImportFrom)}
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level and (node.level, node.module) in top
        }
    )


def test_no_function_local_import_of_a_module_already_imported():
    pkg = os.path.dirname(bigrade.__file__)
    found = {
        name: _redundant_local_imports(os.path.join(pkg, name))
        for name in sorted(os.listdir(pkg))
        if name.endswith(".py")
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def _misplaced_memos(path):
    """Lines of `lru_cache` / `functools.cache` decorators on anything but a module-level function."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    top = {node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    lines = []
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("lru_cache", "cache") and node not in top:
                lines.append(dec.lineno)
    return sorted(lines)


def test_every_memo_decorates_a_module_level_function():
    # bigrade.clear_caches, the memo tests and the benchmark's cold start all
    # find memos among the attributes of the package's modules; a memo on a
    # method or a nested function is missed by them, so it would quietly stay warm
    pkg = os.path.dirname(bigrade.__file__)
    found = {
        name: _misplaced_memos(os.path.join(pkg, name))
        for name in sorted(os.listdir(pkg))
        if name.endswith(".py")
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def _tracer_targets():
    """The (module, function) pairs of TRACED and the keys of _EXTRA in perfbench/tracer.py.

    Read with ast, so the tracer and its imports are never loaded.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(bigrade.__file__)))
    path = os.path.join(root, "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    values = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    traced = [tuple(ast.literal_eval(entry)[:2]) for entry in values["TRACED"].elts]
    extra = [tuple(ast.literal_eval(key).split(".")) for key in values["_EXTRA"].keys]
    return traced, extra


def test_every_traced_function_exists():
    # perfbench/tracer.py rebinds each (module, function) of TRACED when it
    # installs and hooks a counter on each key of _EXTRA, so a function
    # renamed or deleted here would otherwise fail only in a traced run
    traced, extra = _tracer_targets()
    assert traced and extra
    missing = [
        (module, name)
        for module, name in traced + extra
        if not hasattr(importlib.import_module(f"bigrade.{module}"), name)
    ]
    assert missing == []


def test_the_tracer_finds_depth_module_through_invariants():
    # perfbench/tests requires that the tracer's rebinding of
    # homology.depth_module reaches the name invariants calls
    from bigrade import homology, invariants

    assert invariants.depth_module is homology.depth_module


def test_the_depth_memo_is_a_module_dict_that_clear_caches_empties():
    # perfbench/tests reads homology._depth_cache as a dict that
    # depth_module(N, Z) fills, and the benchmark's cold start empties every
    # module dict named *_cache, as bigrade.clear_caches does
    from bigrade import homology, rings

    ring = rings.RingSpec(1, 1)
    N = homology.Subquotient.cyclic(rings.minimal_generators(ring, [(1, 1)]))
    bigrade.clear_caches()
    assert homology.depth_module(N, ring.all_vars()) == 1
    assert isinstance(homology._depth_cache, dict)
    assert list(homology._depth_cache) == [(N, ring.all_vars())]
    bigrade.clear_caches()
    assert homology._depth_cache == {}


def test_the_benchmark_tests_pass_on_this_tree():
    # perfbench/tests import, trace and clear bigrade, so an engine change
    # that breaks the harness fails here too; the sampler's wall-time bound
    # is left out, as it depends on the load of the host
    pytest.importorskip("numpy")
    root = os.path.dirname(os.path.dirname(os.path.dirname(bigrade.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests", "-k", "not sampler_time"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_error_class_is_raised():
    # a BigradeError subclass that no `raise` names is dead API
    from bigrade import errors

    pkg = os.path.dirname(bigrade.__file__)
    raised = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.BigradeError) and obj is not errors.BigradeError
    }
    assert classes
    assert sorted(classes - raised) == []


def test_code_lines_drop_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Module docstring,\n\nthree lines."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "    x = 1  # code with a comment\n"
        "\n"
        "    def f(self):\n"
        '        """Function\n        docstring."""\n'
        '        return """a string,\n        not a docstring"""\n'
        "\n"
        "\n"
        "y = (\n"
        "    2,\n"
        ")\n"
    )
    # class A, x = 1, def f, the two lines of the returned string, y = ( 2, )
    assert code_lines(path) == 8
