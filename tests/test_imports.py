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
