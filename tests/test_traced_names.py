"""The benchmark's traced runs look up package functions by name (``TRACED`` in
``bench/spans.py``): each one they name must still exist, or a traced run fails where an
untraced one passes. The file is parsed, not imported, so this test only reads it."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    """The (module, function) pairs of ``TRACED``, read from the source of ``bench/spans.py``."""
    module = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    for node in module.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{SPANS} assigns no TRACED")


def test_every_function_the_traced_benchmark_wraps_exists():
    traced = traced_names()
    assert traced
    missing = [
        f"gradetree.{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"gradetree.{module}"), name, None))
    ]
    assert missing == []
