"""Every private helper of the package is used: a module-level ``_name`` (function, class or
assignment) that nothing else in ``src/gradetree/`` refers to is dead code a simplification
left behind. The modules are parsed, not imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradetree"


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def used_names(statement: ast.stmt) -> set[str]:
    """The names a statement reads: bare names, attributes and imported names."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_module_level_private_name_is_referred_to_elsewhere_in_the_package():
    statements = [
        (path.name, statement)
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    ]
    assert len(statements) > 100
    uses = [used_names(statement) for _, statement in statements]
    orphans = [
        f"{module}: {name}"
        for i, (module, statement) in enumerate(statements)
        for name in defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in used for j, used in enumerate(uses) if j != i)
    ]
    assert orphans == []
