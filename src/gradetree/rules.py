"""IF-THEN rule extraction from decision trees.

Each leaf yields one rule whose conditions are the attribute=value tests
on the path from the root, in path order. Support and confidence are
recomputed against the supplied training data rather than read off the
leaf, which keeps the two bookkeeping paths checkable against each other.
The training rows are routed down the tree: each internal node buckets
the rows that reach it by their value of its attribute, and each leaf
counts the rows that arrive along its path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .dataset import Dataset
from .metrics import encode
from .tree import DecisionTree, Leaf

__all__ = ["Rule", "extract_rules", "render_rules", "rules_to_json"]


@dataclass(frozen=True)
class Rule:
    """Conjunction of attribute=value conditions implying a class label."""

    conditions: tuple[tuple[str, str], ...]
    consequent: str
    support: int
    confidence: float


def extract_rules(tree: DecisionTree, training: Dataset) -> list[Rule]:
    """One rule per leaf, in depth-first domain order.

    A rule under an empty branch matches no training record; its support
    is 0 and its confidence is reported as 0.0.
    """
    if training.schema.digest() != tree.schema.digest():
        raise ValueError("training data schema does not match the tree's schema")

    names = tree.schema.attribute_names
    columns, labels = encode(training, names)
    column_of = dict(zip(names, columns))
    class_code = {c: i for i, c in enumerate(tree.schema.class_domain)}
    rules: list[Rule] = []

    def walk(node, path: tuple[tuple[str, str], ...], rows):
        if isinstance(node, Leaf):
            support = len(rows)
            hits = [labels[r] for r in rows].count(class_code.get(node.label))
            confidence = hits / support if support else 0.0
            rules.append(Rule(path, node.label, support, confidence))
            return
        domain = tree.schema.domain(node.attribute)
        column = column_of[node.attribute]
        parts = [[] for _ in domain]
        for r in rows:
            parts[column[r]].append(r)
        for value, part in zip(domain, parts):
            walk(node.branches[value], path + ((node.attribute, value),), part)

    walk(tree.root, (), range(len(labels)))
    return rules


def render_rules(rules: Sequence[Rule], class_name: str) -> str:
    """Render one `IF ... THEN <class> = '...'` line per rule."""
    lines = []
    for rule in rules:
        if rule.conditions:
            antecedent = " AND ".join(f"{a} = '{v}'" for a, v in rule.conditions)
        else:
            antecedent = "TRUE"
        lines.append(
            f"IF {antecedent} THEN {class_name} = '{rule.consequent}' "
            f"[support={rule.support}, confidence={rule.confidence:.2f}]"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def rules_to_json(rules: Sequence[Rule], class_name: str) -> str:
    doc = [
        {
            "conditions": [{"attribute": a, "value": v} for a, v in rule.conditions],
            "class": class_name,
            "consequent": rule.consequent,
            "support": rule.support,
            "confidence": rule.confidence,
        }
        for rule in rules
    ]
    return json.dumps(doc, indent=2) + "\n"
