import ast
import importlib
import importlib.util
from pathlib import Path

import entangle_games

PACKAGE = Path(entangle_games.__file__).resolve().parent


def function_imports(node: ast.AST, scope: str = "", in_function: bool = False):
    """(qualified name of the enclosing def, imported module) of every import
    statement inside a function body under `node`."""
    for child in ast.iter_child_nodes(node):
        if in_function and isinstance(child, ast.Import):
            yield from ((scope, alias.name) for alias in child.names)
        elif in_function and isinstance(child, ast.ImportFrom):
            module = child.module or ", ".join(alias.name for alias in child.names)
            yield scope, "." * child.level + module
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        named = is_def or isinstance(child, ast.ClassDef)
        yield from function_imports(
            child, f"{scope}.{child.name}".lstrip(".") if named else scope, in_function or is_def
        )


def test_package_imports_sit_at_module_top():
    # a deferred import hides a cycle in the module graph; networkx, which
    # only the tests need, is the one import that a call makes
    found = [
        (path.name, scope, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, module in function_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == [("topology.py", "NetworkTopology.graph", "networkx")]


def test_perfbench_tracer_targets_resolve():
    # resolved as Tracer.install does, so that deleting a traced name fails
    # here and not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PACKAGE == entangle_games.__name__
    for module_name, attr_path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{module_name}.{attr_path}"
