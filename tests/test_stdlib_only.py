"""The package is pure standard library: every module imports only from it
or from the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradetree"


def absolute_imports(path: Path):
    """The module names that ``path``'s absolute imports name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    outside = [
        (str(module.relative_to(PACKAGE)), name)
        for module in modules
        for name in absolute_imports(module)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
