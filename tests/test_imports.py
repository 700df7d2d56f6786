"""The runtime is standard-library only: halg imports nothing from outside
the standard library and itself, so it runs on a bare interpreter."""

import ast
import sys
from pathlib import Path

import halg

SRC = Path(halg.__file__).parent


def test_the_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"


def _bound_names(node):
    """The names an import statement binds, each with the name it imports."""
    for alias in node.names:
        yield alias.asname or alias.name.partition(".")[0], alias.name


def test_the_runtime_imports_no_name_it_does_not_use():
    # __init__ imports to export; elsewhere a name imported for another
    # module's sake says so with a noqa: F401 mark on its line
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source, str(path))
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for bound, name in _bound_names(node):
                assert bound in used, f"{path.name}:{node.lineno} imports {name} unused"


def _binds(stmt):
    """The names a top-level statement defines or assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _mentions(stmt):
    """Every name stmt reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_private_top_level_name_is_used():
    # a private helper that no other top-level statement of the package
    # names is dead code; __init__ only re-exports
    statements = [(path, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    mentioned = [(stmt, _mentions(stmt)) for _, stmt in statements]
    for path, stmt in statements:
        if path.name == "__init__.py":
            continue
        for name in _binds(stmt):
            if name.startswith("_") and not name.startswith("__"):
                assert any(name in names for other, names in mentioned if other is not stmt), \
                    f"{path.name}:{stmt.lineno} defines {name}, which nothing else names"
