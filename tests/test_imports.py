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
