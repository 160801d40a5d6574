"""Accuracy, confusion matrices, and leave-one-out estimation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import eq
from typing import Iterable, Mapping, NamedTuple, Sequence

from .dataset import AttributeSchema, Dataset
from .metrics import encode
from .tree import DecisionNode, DecisionTree, Leaf, TreeConfig, _grow, node_distribution

__all__ = ["ConfusionMatrix", "LooResult", "accuracy", "confusion", "leave_one_out"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts keyed by (actual, predicted); class order follows the schema."""

    classes: tuple[str, ...]
    counts: Mapping[tuple[str, str], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def accuracy(self) -> float:
        return sum(self.counts[(c, c)] for c in self.classes) / self.total

    def render(self) -> str:
        width = max(9, max(len(c) for c in self.classes) + 2)
        header = "actual\\predicted".ljust(18) + "".join(c.rjust(width) for c in self.classes)
        lines = [header]
        for actual in self.classes:
            row = actual.ljust(18)
            row += "".join(str(self.counts[(actual, p)]).rjust(width) for p in self.classes)
            lines.append(row)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "counts": [
                {"actual": a, "predicted": p, "count": self.counts[(a, p)]}
                for a in self.classes
                for p in self.classes
            ],
        }


class LooResult(NamedTuple):
    accuracy: float
    confusion: ConfusionMatrix


def _check_evaluable(tree: DecisionTree, dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.schema.digest() != tree.schema.digest():
        raise ValueError("dataset schema does not match the tree's schema")


def _predict_codes(root: DecisionNode, schema: AttributeSchema, columns: Sequence[Sequence[int]],
                   rows: Iterable[int]) -> tuple[list[int], list[str]]:
    """Each row's predicted label code, and the labels the codes stand for.

    The tree is compiled once: an internal node becomes ``(code column,
    [child per domain index])`` and a leaf its label's code, so each row
    is routed by its codes with no string compared. The result equals
    ``predict``'s, fallback included: a node missing a branch, which
    only a tree built by hand can be, sends that value to the majority
    of the node's distribution. A leaf label outside the class domain
    gets a code past it, which matches no row's label.
    """
    column_of = dict(zip(schema.attribute_names, columns))
    labels = {c: i for i, c in enumerate(schema.class_domain)}

    def code(label: str) -> int:
        return labels.setdefault(label, len(labels))

    def compile_node(node: DecisionNode):
        if isinstance(node, Leaf):
            return code(node.label)
        branches = node.branches
        return column_of[node.attribute], [
            compile_node(branches[v]) if v in branches else code(node_distribution(node).majority())
            for v in schema.domain(node.attribute)
        ]

    table = compile_node(root)
    predicted = []
    for r in rows:
        node = table
        while type(node) is tuple:
            node = node[1][node[0][r]]
        predicted.append(node)
    return predicted, list(labels)


def _confusion(classes: Sequence[str], actual: Iterable[int], predicted: Iterable[int],
               names: Sequence[str]) -> ConfusionMatrix:
    """The matrix of actual and predicted label codes, ``names`` naming the predicted ones."""
    counts = {(a, p): 0 for a in classes for p in classes}
    for (a, p), n in Counter(zip(actual, predicted)).items():
        counts[(classes[a], names[p])] += n
    return ConfusionMatrix(classes, counts)


def accuracy(tree: DecisionTree, dataset: Dataset) -> float:
    """Fraction of records whose prediction equals their label."""
    _check_evaluable(tree, dataset)
    columns, labels = encode(dataset, dataset.schema.attribute_names)
    predicted, _ = _predict_codes(tree.root, tree.schema, columns, range(len(labels)))
    return sum(map(eq, predicted, labels)) / len(dataset)


def confusion(tree: DecisionTree, dataset: Dataset) -> ConfusionMatrix:
    _check_evaluable(tree, dataset)
    columns, labels = encode(dataset, dataset.schema.attribute_names)
    predicted, names = _predict_codes(tree.root, tree.schema, columns, range(len(labels)))
    return _confusion(dataset.schema.class_domain, labels, predicted, names)


def leave_one_out(dataset: Dataset, config: TreeConfig | None = None) -> LooResult:
    """Hold out each record in turn, train on the rest, predict it.

    A desk-scale substitute for a held-out test set; the aggregate
    accuracy is this repo's documented baseline for the bundled fixture.
    Every fold is grown from the dataset's one encoding, over the row
    indices of the other records in their order, and the held-out row is
    routed by its codes.
    """
    if len(dataset) < 2:
        raise ValueError("leave-one-out needs at least 2 records")
    if config is None:
        config = TreeConfig()
    schema = dataset.schema
    columns, labels = encode(dataset, schema.attribute_names)
    n = len(labels)
    predicted = []
    for i in range(n):
        root = _grow(schema, columns, labels, [r for r in range(n) if r != i], config)
        predicted += _predict_codes(root, schema, columns, [i])[0]
    hits = sum(map(eq, predicted, labels))
    classes = schema.class_domain  # a grown tree's leaves carry only these labels
    return LooResult(hits / n, _confusion(classes, labels, predicted, classes))
