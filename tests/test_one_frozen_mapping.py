"""The package's frozen values hold their mappings in one read-only type, and ``dataset.py``, the lowest
module, defines it: no module under ``src/gradetree/`` imports or names ``MappingProxyType``, and no other
module defines a subclass of ``dict``. The modules are parsed, not imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradetree"


def parsed() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_or_names_mappingproxytype():
    modules = parsed()
    assert "dataset.py" in modules and len(modules) > 5
    named = [
        module
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name.split(".")[-1] == "MappingProxyType"
        or isinstance(node, ast.Name) and node.id == "MappingProxyType"
        or isinstance(node, ast.Attribute) and node.attr == "MappingProxyType"
    ]
    assert named == []


def test_dataset_defines_the_one_read_only_mapping_type():
    defining = [
        module
        for module, tree in parsed().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "dict" for b in node.bases)
    ]
    assert defining == ["dataset.py"]
