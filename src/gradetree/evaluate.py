"""Accuracy, confusion matrices, and leave-one-out estimation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .dataset import Dataset
from .tree import (
    DecisionTree, TreeConfig, _class_labels, _code_rows, _expander, _root_item, _route,
)

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


def _confusion(classes: Sequence[str], actual: Iterable[str], predicted: Iterable[str]) -> ConfusionMatrix:
    """The matrix of actual and predicted labels, each one of ``classes``."""
    counts = {(a, p): 0 for a in classes for p in classes}
    for pair, n in Counter(zip(actual, predicted)).items():
        counts[pair] += n
    return ConfusionMatrix(classes, counts)


def accuracy(tree: DecisionTree, dataset: Dataset) -> float:
    """Fraction of records whose prediction equals their label."""
    return confusion(tree, dataset).accuracy


def confusion(tree: DecisionTree, dataset: Dataset) -> ConfusionMatrix:
    """The matrix of each record's label and the label of the leaf it reaches."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.schema != tree.schema:
        raise ValueError("dataset schema does not match the tree's schema")
    predicted = [tree._flat.nodes[i].label for i in _route(tree._flat, _code_rows(dataset))]
    return _confusion(dataset.schema.class_domain, _class_labels(dataset), predicted)


def leave_one_out(dataset: Dataset, config: TreeConfig | None = None) -> LooResult:
    """Hold out each record in turn, train on the rest, predict it.

    A desk-scale substitute for a held-out test set; the aggregate
    accuracy is this repo's documented baseline for the bundled fixture.
    No fold grows a whole tree: the held-out row descends by its codes
    while the nodes on its path are expanded, by the rule ``id3_build``
    uses, over the row indices of the other records in their order. The
    leaf it reaches is the one the whole fold tree would route it to.
    """
    if len(dataset) < 2:
        raise ValueError("leave-one-out needs at least 2 records")
    if config is None:
        config = TreeConfig()
    schema = dataset.schema
    *columns, labels = dataset._codes
    expand = _expander(schema, columns, labels, config)
    n = len(labels)
    predicted = []
    for i in range(n):
        node, p, items = expand(_root_item(schema, [r for r in range(n) if r != i]))
        while p >= 0:
            node, p, items = expand(items[columns[p][i]])
        predicted.append(node.label)
    matrix = _confusion(schema.class_domain, _class_labels(dataset), predicted)
    return LooResult(matrix.accuracy, matrix)
