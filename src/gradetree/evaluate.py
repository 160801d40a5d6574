"""Accuracy, confusion matrices, and leave-one-out estimation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .dataset import Dataset, _FrozenDict
from .metrics import _by_class, node_scores
from .tree import DecisionTree, TreeConfig, _class_labels, _code_rows, _growth, _root_item, _route

__all__ = ["ConfusionMatrix", "LooResult", "accuracy", "confusion", "leave_one_out"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts keyed by (actual, predicted); class order follows the schema. ``counts`` is a read-only copy."""

    classes: tuple[str, ...]
    counts: Mapping[tuple[str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "counts", _FrozenDict(self.counts))

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
    No fold grows a whole tree, and no node is split: the held-out row
    descends by its codes through only the children it reaches, each
    decided by the step ``id3_build`` uses, over the row indices of the
    other records grouped by class. The leaf it reaches is the one the
    whole fold tree would route it to.
    A fold root's rows are the full grouping less the held-out row, which
    changes only that row's class list; the others are shared by every fold,
    as no step changes a list. A fold root's tables are not counted:
    ``decide`` is handed the full tables, counted once per call by growth's
    own lane counter, less the held-out row's cell, whose row is rebuilt as
    a tuple, as the counter gives rows. Folds repeat tables, so one call
    scores each distinct table once, alone, by ``node_scores``, and reuses
    its key: a table's key depends only on its contents, so it is the float
    it gets among its node's candidates.
    """
    if len(dataset) < 2:
        raise ValueError("leave-one-out needs at least 2 records")
    if config is None:
        config = TreeConfig()
    schema = dataset.schema
    *columns, labels = dataset._codes
    memo = {}  # a table's contents -> its key: equal tables score the same float

    def score_node(tables, counts, total, ratio):  # the keys node_scores gives, each table scored once
        keys = []
        for table in tables:
            contents = tuple(table)
            if (key := memo.get(contents)) is None:
                key = memo[contents] = node_scores([table], counts, total, ratio)[0]
            keys.append(key)
        return keys

    # _growth refuses a schema with no predictor by name, where its counter would raise IndexError
    decide, _, count = _growth(schema, columns, labels, config, score_node)
    grouped = _by_class(labels, len(schema.class_domain))  # fold i's rows are these less row i
    full = count(grouped, range(len(columns)))
    predicted = []
    for i in range(len(labels)):
        c = labels[i]
        by_class = [*grouped]
        by_class[c] = [r for r in grouped[c] if r != i]
        tables = [[*table] for table in full]  # each table less row i's cell; only that row is copied
        for table, column in zip(tables, columns):
            row = [*table[column[i]]]
            row[c] -= 1
            table[column[i]] = tuple(row)
        node, best = decide(item := _root_item(schema, by_class), tables)
        while best >= 0:  # build the child row i reaches, and no other
            by_class, available, depth, _ = item
            column = columns[best]
            item = ([[r for r in rows if column[r] == column[i]] for rows in by_class],
                    [p for p in available if p != best], depth + 1, node)
            node, best = decide(item)
        predicted.append(node.label)
    matrix = _confusion(schema.class_domain, _class_labels(dataset), predicted)
    return LooResult(matrix.accuracy, matrix)
