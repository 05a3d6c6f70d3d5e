"""The package runs on numpy and the standard library alone."""

import ast
import sys
from pathlib import Path

import planlm

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "planlm"}


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(Path(planlm.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                assert name.split(".")[0] in ALLOWED, \
                    f"{path.name}:{node.lineno} imports {name}"
