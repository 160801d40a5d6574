"""IF-THEN rule extraction from decision trees.

Each leaf yields one rule whose conditions are the attribute=value tests
on the path from the root, in path order. Support and confidence are
recomputed against the supplied training data rather than read off the
leaf, which keeps the two bookkeeping paths checkable against each other.
Every training row is routed to the leaf it reaches, through the tree's
flat form, and each leaf counts the rows that arrive there.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .dataset import Dataset
from .tree import DecisionTree, _code_rows, _class_labels, _route

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
    if training.schema != tree.schema:
        raise ValueError("training data schema does not match the tree's schema")

    nodes, positions, children = flat = tree._flat
    reached = _route(flat, _code_rows(training))
    support = Counter(reached)
    hits = Counter(i for i, label in zip(reached, _class_labels(training)) if nodes[i].label == label)
    paths = [()] * len(nodes)  # each node's conditions; preorder sets a parent's first
    rules: list[Rule] = []
    for i, node in enumerate(nodes):
        if positions[i] < 0:
            n = support[i]
            rules.append(Rule(paths[i], node.label, n, hits[i] / n if n else 0.0))
        else:
            attribute = tree.schema.attributes[positions[i]]
            for value, child in zip(attribute.domain, children[i]):
                paths[child] = paths[i] + ((attribute.name, value),)
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
