"""Frozen copy of the original partition-based ID3 scoring, growth and rules.

Test-only, and a deliberate duplicate, like ``verify``'s oracle: the
count-table core in ``gradetree.metrics``/``gradetree.tree``/``gradetree.rules``
must reproduce it exactly, float for float and tie for tie. It scores by
building a validated ``Dataset`` per domain value (``partition``), sums in
domain order, and recounts rule support with a full scan per leaf. Do not
"simplify" it towards the production code; its independence is the check.
"""

from __future__ import annotations

import math

from gradetree.dataset import Dataset, class_distribution, partition
from gradetree.metrics import AttributeScore
from gradetree.rules import Rule
from gradetree.tree import Criterion, DecisionTree, Internal, Leaf, TreeConfig

_SLACK = 1e-12


def entropy(dist) -> float:
    if dist.total == 0:
        return 0.0
    h = 0.0
    for count in dist.counts.values():
        if count:
            p = count / dist.total
            h -= p * math.log2(p)
    return h


def information_gain(dataset: Dataset, attribute: str) -> float:
    total = len(dataset)
    parent = entropy(class_distribution(dataset))
    weighted = 0.0
    for part in partition(dataset, attribute).values():
        if len(part):
            weighted += len(part) / total * entropy(class_distribution(part))
    gain = parent - weighted
    return 0.0 if -_SLACK < gain < 0 else gain


def split_information(dataset: Dataset, attribute: str) -> float:
    total = len(dataset)
    info = 0.0
    for part in partition(dataset, attribute).values():
        if len(part):
            frac = len(part) / total
            info -= frac * math.log2(frac)
    return info


def gain_ratio(dataset: Dataset, attribute: str) -> float:
    info = split_information(dataset, attribute)
    if info == 0.0:
        return 0.0
    return information_gain(dataset, attribute) / info


def score_all(dataset: Dataset) -> list[AttributeScore]:
    scores = []
    for name in dataset.schema.attribute_names:
        g = information_gain(dataset, name)
        s = split_information(dataset, name)
        scores.append(AttributeScore(name, g, s, g / s if s > 0 else 0.0))
    return scores


def _best_attribute(dataset: Dataset, available: list[str], criterion: Criterion) -> str:
    score = information_gain if criterion is Criterion.GAIN else gain_ratio
    best = None
    best_score = float("-inf")
    for name in dataset.schema.attribute_names:
        if name not in available:
            continue
        s = score(dataset, name)
        if s > best_score:
            best, best_score = name, s
    return best


def _grow(dataset: Dataset, available: list[str], depth: int, config: TreeConfig):
    dist = class_distribution(dataset)
    n = len(dataset)
    if config.min_leaf_support and n < config.min_leaf_support:
        return Leaf(dist.majority(), n, dist)
    if max(dist.counts.values()) == n:
        return Leaf(dist.majority(), n, dist)
    if not available or (config.max_depth is not None and depth >= config.max_depth):
        return Leaf(dist.majority(), n, dist)
    attribute = _best_attribute(dataset, available, config.criterion)
    remaining = [a for a in available if a != attribute]
    branches = {}
    parts = partition(dataset, attribute)
    for value in dataset.schema.domain(attribute):
        part = parts[value]
        if len(part) == 0:
            branches[value] = Leaf(dist.majority(), 0, dist)
        else:
            branches[value] = _grow(part, remaining, depth + 1, config)
    return Internal(attribute, branches)


def id3_build(dataset: Dataset, config: TreeConfig) -> DecisionTree:
    root = _grow(dataset, list(dataset.schema.attribute_names), 0, config)
    return DecisionTree(root, dataset.schema, config, len(dataset))


def extract_rules(tree: DecisionTree, training: Dataset) -> list[Rule]:
    rules = []

    def walk(node, path):
        if isinstance(node, Leaf):
            matching = [
                r for r in training.records if all(r.values[a] == v for a, v in path)
            ]
            support = len(matching)
            hits = sum(1 for r in matching if r.label == node.label)
            confidence = hits / support if support else 0.0
            rules.append(Rule(path, node.label, support, confidence))
            return
        for value in tree.schema.domain(node.attribute):
            walk(node.branches[value], path + ((node.attribute, value),))

    walk(tree.root, ())
    return rules
