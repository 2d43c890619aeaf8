"""The package imports nothing at run time beyond NumPy and the standard
library; test-only tools stay out of src/hkconv."""

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "hkconv"


def test_every_absolute_import_is_numpy_or_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    allowed = {"numpy"} | set(sys.stdlib_module_names)
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert foreign == []
