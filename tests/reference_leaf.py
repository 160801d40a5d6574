"""Frozen copy of the model leaf reader as it was when it had two paths.

Test-only, and a deliberate duplicate, like ``reference_dataset``: a leaf
whose fields are what ``json`` reads is taken on a fast path, and any other
goes through the ``_field`` checks. ``tree._leaf_from_dict`` now reads every
leaf on one path, and must return the same leaf or raise the same error, in
the same order, for any document. Its helpers are copied with it, so the
reference stays put when the package's ``_field`` or ``_is_count`` moves.
Do not "simplify" it towards the production code; its independence is the
check.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Sequence

from gradetree.dataset import ClassDistribution
from gradetree.tree import Internal, Leaf


def _is_count(n) -> bool:
    """Whether ``n`` is an integer >= 0, and not a bool, as every count in a model file is."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


_TYPE_NAMES = {Mapping: "an object", str: "a string", int: "an integer", type(None): "null",
               Internal: "an object", ClassDistribution: "a ClassDistribution"}


def _field(doc: Mapping, key: str, kinds: tuple, where: str):
    """``doc[key]``, which must be present and of one of ``kinds``; no model field is a boolean,
    and no integer is negative."""
    if key not in doc:
        raise ValueError(f"{where} is missing key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(_TYPE_NAMES[k] for k in kinds)
        raise ValueError(f"{where} key {key!r} must be {expected}, not {type(value).__name__}")
    if isinstance(value, int) and value < 0:
        raise ValueError(f"{where} key {key!r} must be >= 0, not {value}")
    return value


def _leaf_from_dict(doc: Mapping, classes: Sequence[str]) -> Leaf:
    """The leaf of a model document, its distribution listing every class in domain order.
    A leaf whose fields are what ``json`` reads from ``save_model``'s text (a dict of an int
    per class, a str label, an int support) is taken at once; any other goes through the
    ``_field`` checks, which accept it or word its error."""
    raw, label, support = doc.get("distribution"), doc.get("label"), doc.get("support")
    if (type(raw) is dict and len(raw) == len(classes) and type(label) is str and label in classes
            and type(support) is int and support >= 0):
        counts = {c: raw.get(c) for c in classes}  # a class it lacks reads None, and fails the next test
        if {*map(type, counts.values())} == {int} and min(counts.values()) >= 0:
            return Leaf(label, support, ClassDistribution(counts, sum(counts.values())))
    raw = _field(doc, "distribution", (Mapping,), "model leaf")
    if unknown := set(raw) - set(classes):
        raise ValueError(f"model distribution names unknown classes {sorted(unknown)}")
    counts = {c: raw.get(c, 0) for c in classes}
    if not all(map(_is_count, counts.values())):
        raise ValueError(f"model distribution counts must be integers >= 0: {dict(raw)}")
    dist = ClassDistribution(counts, sum(counts.values()))
    if _field(doc, "label", (str,), "model leaf") not in classes:
        raise ValueError(f"model leaf label {doc['label']!r} not in class domain")
    return Leaf(doc["label"], _field(doc, "support", (int,), "model leaf"), dist)
