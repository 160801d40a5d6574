"""The package is pure standard library: every module imports only from it
or from the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradetree"

# CPython 3.12 merged _sha256 into _sha2, so each interpreter's stdlib names only one of the pair
BUILTIN_SHA256 = ("_sha2", "_sha256")


def absolute_imports(path: Path):
    """The module names that ``path``'s absolute imports name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def in_stdlib(name: str, stdlib=sys.stdlib_module_names) -> bool:
    """Whether ``name``'s top-level module is in ``stdlib``. One of the built-in SHA-256 pair
    also passes when ``stdlib`` holds the other, as that of another supported CPython."""
    top = name.partition(".")[0]
    if top in stdlib:
        return True
    return top in BUILTIN_SHA256 and any(other in stdlib for other in BUILTIN_SHA256 if other != top)


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    outside = [
        (str(module.relative_to(PACKAGE)), name)
        for module in modules
        for name in absolute_imports(module)
        if not in_stdlib(name)
    ]
    assert outside == []


def test_only_the_built_in_sha256_pair_stands_in_for_each_other():
    assert not in_stdlib("numpy") and not in_stdlib("numpy.linalg")
    assert not in_stdlib("_gradetree_made_up")
    assert in_stdlib("_sha2") and in_stdlib("_sha256")
    assert in_stdlib("_sha2", frozenset({"_sha256"})) and in_stdlib("_sha256", frozenset({"_sha2"}))
    assert not in_stdlib("_sha2", frozenset()) and not in_stdlib("_sha256", frozenset({"json"}))
