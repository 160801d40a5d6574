"""Accuracy, confusion matrices, and leave-one-out estimation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .dataset import Dataset, _FrozenDict
from .metrics import _by_class, node_scores
from .tree import (Criterion, DecisionTree, TreeConfig, _choose, _class_labels, _code_rows, _growth, _is_count,
                   _root_item, _route)

__all__ = ["ConfusionMatrix", "LooResult", "accuracy", "confusion", "leave_one_out"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts keyed by (actual, predicted); class order follows the schema. ``counts`` is a read-only copy,
    with a count, an integer >= 0, for every pair of the classes, which are distinct and at least one."""

    classes: tuple[str, ...]
    counts: Mapping[tuple[str, str], int]

    def __post_init__(self):
        classes, counts = self.classes, _FrozenDict(self.counts)
        if not classes or len(set(classes)) != len(classes):
            raise ValueError(f"a confusion matrix needs distinct classes, at least one, not {classes!r}")
        if counts.keys() != {(a, p) for a in classes for p in classes}:
            raise ValueError("a confusion matrix needs a count for every (actual, predicted) pair of its classes")
        if not all(map(_is_count, counts.values())):
            raise ValueError(f"confusion counts must be integers >= 0: {dict(counts)}")
        object.__setattr__(self, "counts", counts)

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
    No fold grows a tree: the held-out row descends through only the nodes
    it reaches, each decided by the rules ``id3_build`` uses (``_growth``'s
    ``stop`` and the tie rule ``_choose``). The leaf it reaches is the one
    the whole fold tree would route it to. Folds go down in batches: a
    batch is a node of the full data's rows, grouped by class, and the folds
    whose held-out row is among them. Each has followed the same splits, so
    each fold's node is the batch's rows less its own row, and its class
    counts the batch's less one of its class. So ``stop`` is applied once
    per class a batch's folds hold, and a batch's tables are counted once,
    by growth's own lane counter. A fold that goes on scores each table less
    its row's cell. Such a table depends only on its position, its row's
    value and its class, and a table's key only on its contents, so one
    call scores each distinct table once, alone, by ``node_scores``: the
    float it gets among its node's candidates. The folds are grouped by
    their winner; each group's node is split once, by growth's ``split``,
    and each fold goes on with the child its row reaches.
    """
    if len(dataset) < 2:
        raise ValueError("leave-one-out needs at least 2 records")
    if config is None:
        config = TreeConfig()
    schema = dataset.schema
    *columns, labels = dataset._codes
    ratio = config.criterion is Criterion.GAIN_RATIO
    # _growth refuses a schema with no predictor by name, before its counter's columns[0] raises IndexError
    _, split, count, stop = _growth(schema, columns, labels, config)
    memo = {}  # a table's contents -> its key: equal tables score the same float
    predicted = [None] * len(labels)
    grouped, available, _, _ = _root_item(schema, _by_class(labels, len(schema.class_domain)))
    # a node of the full data and its folds; an item's parent is its folds' parent per class, none at the root
    batches = [((grouped, available, 0, {}), range(len(labels)))]
    while batches:
        item, folds = batches.pop()
        by_class, available, depth, parents = item
        counts = [*map(len, by_class)]
        n = sum(counts) - 1  # every fold's node size
        of_class = {}  # a class -> the folds whose held-out row is of it
        for i in folds:
            of_class.setdefault(labels[i], []).append(i)
        dists = {}  # a class -> its folds' node distribution, their children's parent
        tables = None  # counted once the first fold goes on
        cols = [columns[p] for p in available]
        winners = {}  # a winner's position -> the folds it splits
        for c, class_folds in of_class.items():
            fold_counts = [*counts]
            fold_counts[c] -= 1
            dists[c], leaf = stop(fold_counts, available, depth, parents.get(c))
            if leaf is not None:
                for i in class_folds:
                    predicted[i] = leaf.label
                continue
            if tables is None:
                tables = count(by_class, available)
            key_rows = []  # per table, the key of it less one cell of this class, by the cell's value
            for full, column in zip(tables, cols):
                row_keys = [None] * len(full)
                for v in {column[i] for i in class_folds}:
                    table = [*full]  # less the cell; only that row is copied
                    row = [*table[v]]
                    row[c] -= 1
                    table[v] = tuple(row)
                    if (key := memo.get(contents := tuple(table))) is None:
                        key = memo[contents] = node_scores([table], fold_counts, n, ratio)[0]
                    row_keys[v] = key
                key_rows.append(row_keys)
            for i in class_folds:
                best = _choose([row_keys[column[i]] for row_keys, column in zip(key_rows, cols)], available)
                winners.setdefault(best, []).append(i)
        for best, group in winners.items():
            children = split(item, dists, best)
            column = columns[best]
            reached = {}  # a value -> the folds whose row has it
            for i in group:
                reached.setdefault(column[i], []).append(i)
            batches += [(children[v], reached_folds) for v, reached_folds in reached.items()]
    matrix = _confusion(schema.class_domain, _class_labels(dataset), predicted)
    return LooResult(matrix.accuracy, matrix)
