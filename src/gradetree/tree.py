"""ID3 decision trees over categorical schemas.

Construction is the classic greedy recursion: pick the best-scoring
attribute among those unused on the current path, branch over its full
domain, and stop at pure subsets, exhausted attributes, or the depth
limit. Branches for unrepresented values become majority leaves carrying
the parent's distribution, so prediction is total and can always report
a confidence.

Growth reads the codes a ``Dataset`` built when it was validated
(``metrics.encode``): a column of domain-index codes per attribute and
one of label codes. A node is the list of row indices that reach it. One
pass counts its classes, one pass per candidate fills a value x class
table for ``metrics.table_scores``, and one pass splits the winner's rows
into its children's lists. Because a tree is grown from row indices,
leave-one-out grows every fold from the same codes, less one row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence, Union

from .dataset import AttributeSchema, ClassDistribution, Dataset, ValidationError
from .metrics import contingency, encode, table_scores

__all__ = [
    "Criterion",
    "TreeConfig",
    "Leaf",
    "Internal",
    "DecisionNode",
    "DecisionTree",
    "TreeStats",
    "id3_build",
    "predict",
    "tree_stats",
    "prune",
    "node_support",
    "node_distribution",
    "model_to_json_dict",
    "model_from_json_dict",
    "save_model",
    "load_model",
    "to_dot",
]

MODEL_FORMAT = "gradetree.model"
MODEL_VERSION = 1


class Criterion(Enum):
    GAIN = "gain"
    GAIN_RATIO = "gain-ratio"


@dataclass(frozen=True)
class TreeConfig:
    """Build parameters; ties always break toward the lowest schema index."""

    criterion: Criterion = Criterion.GAIN
    min_leaf_support: int = 0
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_leaf_support < 0:
            raise ValueError("min_leaf_support must be >= 0")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")


@dataclass(frozen=True)
class Leaf:
    """Terminal decision: predicted label plus the routed-record evidence.

    ``support`` is the number of training records routed here; it is 0 for
    leaves synthesized under empty branches, whose ``distribution`` is the
    parent subset's (kept so predictions stay confidence-bearing).
    """

    label: str
    support: int
    distribution: ClassDistribution


@dataclass(frozen=True)
class Internal:
    attribute: str
    branches: Mapping[str, "DecisionNode"]


DecisionNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class DecisionTree:
    root: DecisionNode
    schema: AttributeSchema
    config: TreeConfig
    training_size: int


class TreeStats(NamedTuple):
    leaves: int
    nodes: int
    depth: int


def id3_build(dataset: Dataset, config: TreeConfig | None = None) -> DecisionTree:
    """Grow a decision tree from a non-empty dataset."""
    if config is None:
        config = TreeConfig()
    if len(dataset) == 0:
        raise ValueError("cannot build a tree from an empty dataset")
    schema = dataset.schema
    columns, labels = encode(dataset, schema.attribute_names)
    root = _grow(schema, columns, labels, range(len(dataset)), config)
    return DecisionTree(root, schema, config, len(dataset))


def _grow(schema: AttributeSchema, columns: Sequence[Sequence[int]], labels: Sequence[int],
          rows: Sequence[int], config: TreeConfig) -> DecisionNode:
    """The root of the tree grown from ``rows`` (non-empty), given every
    attribute's code column in schema order and the label codes."""
    if not schema.attributes:
        raise ValueError("schema declares no predictor attributes")
    names = schema.attribute_names
    column_of = dict(zip(names, columns))
    domain_of = {a.name: a.domain for a in schema.attributes}
    classes = schema.class_domain
    score = 0 if config.criterion is Criterion.GAIN else 2  # index into table_scores

    def grow(rows, available: list[str], depth: int) -> DecisionNode:
        counts = [0] * len(classes)
        for r in rows:
            counts[labels[r]] += 1
        n = len(rows)
        dist = ClassDistribution(dict(zip(classes, counts)), n)
        if (
            (config.min_leaf_support and n < config.min_leaf_support)
            or max(counts) == n  # single class
            or not available
            or (config.max_depth is not None and depth >= config.max_depth)
        ):
            return Leaf(dist.majority(), n, dist)
        best = max(  # the first maximum in schema order wins ties
            available,
            key=lambda a: table_scores(
                contingency(column_of[a], labels, rows, len(domain_of[a]), len(classes))
            )[score],
        )
        column = column_of[best]
        parts = [[] for _ in domain_of[best]]
        for r in rows:
            parts[column[r]].append(r)
        remaining = [a for a in available if a != best]
        return Internal(best, {
            value: grow(part, remaining, depth + 1) if part else Leaf(dist.majority(), 0, dist)
            for value, part in zip(domain_of[best], parts)
        })

    return grow(rows, list(names), 0)


def node_support(node: DecisionNode) -> int:
    """Training records routed through this subtree."""
    if isinstance(node, Leaf):
        return node.support
    return sum(node_support(child) for child in node.branches.values())


def node_distribution(node: DecisionNode) -> ClassDistribution:
    """Class distribution of the records routed through this subtree.

    Zero-support leaves are skipped: their stored distribution belongs to
    the parent subset, not to records of their own.
    """
    if isinstance(node, Leaf):
        if node.support == 0:
            return ClassDistribution({c: 0 for c in node.distribution.counts}, 0)
        return node.distribution
    merged = None
    for child in node.branches.values():
        d = node_distribution(child)
        merged = d if merged is None else merged.merged(d)
    return merged


def predict(tree: DecisionTree, values: Mapping[str, str]) -> tuple[str, ClassDistribution]:
    """Route one example to a leaf; returns (label, distribution there).

    A missing branch (possible only in hand-edited models) falls back to
    the majority class at the deepest node reached.
    """
    node = tree.root
    while isinstance(node, Internal):
        try:
            value = values[node.attribute]
        except KeyError:
            raise KeyError(
                f"prediction input is missing attribute {node.attribute!r}"
            ) from None
        if value not in tree.schema.domain(node.attribute):
            raise ValidationError(
                f"column {node.attribute!r}: value {value!r} not in domain "
                f"{sorted(tree.schema.domain(node.attribute))}",
                column=node.attribute,
                value=value,
            )
        if value not in node.branches:
            dist = node_distribution(node)
            return dist.majority(), dist
        node = node.branches[value]
    return node.label, node.distribution


def _append_predictions(tree: DecisionTree, rows: list[list[str]]) -> None:
    """Append to each row, a list of cells in schema order, its predicted label and confidence.

    The tree is compiled once: an internal node becomes ``(position,
    {value: child})``, ``position`` being its attribute's index in schema
    order, and a leaf the list of its two output cells, the label and its
    confidence formatted ``.4f`` as ``predict``'s distribution gives it.

    Unlike ``predict``, the routing re-checks no value and needs no
    fallback for a missing branch: ``load_model`` requires every internal
    node's branches to cover its attribute's whole domain, and
    ``dataset._unlabeled_rows`` has checked every cell against that domain,
    so every lookup finds its child.
    """
    position = {name: i for i, name in enumerate(tree.schema.attribute_names)}

    def compile_node(node: DecisionNode):
        if isinstance(node, Leaf):
            dist = node.distribution
            confidence = dist.counts[node.label] / dist.total if dist.total else 0.0
            return [node.label, f"{confidence:.4f}"]
        return position[node.attribute], {v: compile_node(c) for v, c in node.branches.items()}

    table = compile_node(tree.root)
    for row in rows:
        node = table
        while type(node) is tuple:
            node = node[1][row[node[0]]]
        row += node


def tree_stats(tree: DecisionTree) -> TreeStats:
    """Leaf count, total node count, and depth (a lone leaf has depth 0)."""

    def walk(node: DecisionNode) -> TreeStats:
        if isinstance(node, Leaf):
            return TreeStats(1, 1, 0)
        leaves = nodes = depth = 0
        for child in node.branches.values():
            sub = walk(child)
            leaves += sub.leaves
            nodes += sub.nodes
            depth = max(depth, sub.depth)
        return TreeStats(leaves, nodes + 1, depth + 1)

    return walk(tree.root)


def prune(tree: DecisionTree, min_support: int) -> DecisionTree:
    """Replace every subtree routed fewer than ``min_support`` records by a
    majority leaf over that subtree's own distribution. Idempotent."""
    if min_support < 1:
        raise ValueError("min_support must be >= 1")

    def walk(node: DecisionNode) -> DecisionNode:
        if isinstance(node, Leaf):
            return node
        support = node_support(node)
        if support < min_support:
            dist = node_distribution(node)
            return Leaf(dist.majority(), support, dist)
        return Internal(node.attribute, {v: walk(c) for v, c in node.branches.items()})

    config = replace(
        tree.config, min_leaf_support=max(tree.config.min_leaf_support, min_support)
    )
    return DecisionTree(walk(tree.root), tree.schema, config, tree.training_size)


# --- persistence ------------------------------------------------------------


def _node_to_dict(node: DecisionNode) -> dict:
    if isinstance(node, Leaf):
        return {
            "kind": "leaf",
            "label": node.label,
            "support": node.support,
            "distribution": dict(node.distribution.counts),
        }
    return {
        "kind": "internal",
        "attribute": node.attribute,
        "branches": {v: _node_to_dict(c) for v, c in node.branches.items()},
    }


_JSON_TYPE_NAMES = {Mapping: "an object", str: "a string", int: "an integer", type(None): "null"}


def _field(doc: Mapping, key: str, kinds: tuple, where: str):
    """``doc[key]``, which must be present and of one of ``kinds``; no model field is a boolean."""
    if key not in doc:
        raise ValueError(f"{where} is missing key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(_JSON_TYPE_NAMES[k] for k in kinds)
        raise ValueError(f"{where} key {key!r} must be {expected}, not {type(value).__name__}")
    return value


def _node_from_dict(doc: Mapping, schema: AttributeSchema) -> DecisionNode:
    kind = doc.get("kind")
    if kind == "leaf":
        raw = _field(doc, "distribution", (Mapping,), "model leaf")
        unknown = set(raw) - set(schema.class_domain)
        if unknown:
            raise ValueError(f"model distribution names unknown classes {sorted(unknown)}")
        counts = {c: raw.get(c, 0) for c in schema.class_domain}
        if any(isinstance(n, bool) or not isinstance(n, int) for n in counts.values()):
            raise ValueError(f"model distribution counts must be integers: {dict(raw)}")
        dist = ClassDistribution(counts, sum(counts.values()))
        if _field(doc, "label", (str,), "model leaf") not in schema.class_domain:
            raise ValueError(f"model leaf label {doc['label']!r} not in class domain")
        return Leaf(doc["label"], _field(doc, "support", (int,), "model leaf"), dist)
    if kind == "internal":
        attribute = _field(doc, "attribute", (str,), "model node")
        domain = schema.domain(attribute)  # raises KeyError on unknown attribute
        branch_doc = _field(doc, "branches", (Mapping,), "model node")
        if set(branch_doc) != set(domain):
            raise ValueError(
                f"model branches for {attribute!r} do not cover its domain: "
                f"{sorted(branch_doc)} vs {sorted(domain)}"
            )
        branches = {v: _node_from_dict(_field(branch_doc, v, (Mapping,), "model branches"), schema)
                    for v in domain}
        return Internal(attribute, branches)
    raise ValueError(f"unknown model node kind {kind!r}")


def model_to_json_dict(tree: DecisionTree) -> dict:
    return {
        "format": MODEL_FORMAT,
        "format_version": MODEL_VERSION,
        "schema": tree.schema.to_json_dict(),
        "schema_digest": tree.schema.digest(),
        "config": {
            "criterion": tree.config.criterion.value,
            "min_leaf_support": tree.config.min_leaf_support,
            "max_depth": tree.config.max_depth,
        },
        "training_size": tree.training_size,
        "root": _node_to_dict(tree.root),
    }


def model_from_json_dict(doc: Mapping, schema: AttributeSchema | None = None) -> DecisionTree:
    """Rebuild a tree from its JSON document; a malformed document raises ValueError."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"model document must be an object, not {type(doc).__name__}")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} document")
    if doc.get("format_version") != MODEL_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    embedded = AttributeSchema.from_json_dict(_field(doc, "schema", (Mapping,), "model"))
    if embedded.digest() != doc.get("schema_digest"):
        raise ValueError("model schema digest does not match the embedded schema")
    if schema is not None and schema.digest() != embedded.digest():
        raise ValueError("model was trained against a differently shaped schema")
    config_doc = _field(doc, "config", (Mapping,), "model")
    config = TreeConfig(
        criterion=Criterion(_field(config_doc, "criterion", (str,), "model config")),
        min_leaf_support=_field(config_doc, "min_leaf_support", (int,), "model config"),
        max_depth=_field(config_doc, "max_depth", (int, type(None)), "model config"),
    )
    root = _node_from_dict(_field(doc, "root", (Mapping,), "model"), embedded)
    return DecisionTree(root, embedded, config, _field(doc, "training_size", (int,), "model"))


def save_model(tree: DecisionTree, path) -> None:
    """Write the canonical JSON encoding (sorted keys, two-space indent)."""
    text = json.dumps(model_to_json_dict(tree), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_model(path, schema: AttributeSchema | None = None) -> DecisionTree:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return model_from_json_dict(doc, schema)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:  # in the parser, or in _node_from_dict on a deep tree
        raise ValueError(f"{path}: model nested too deeply to read") from None


# --- DOT export -------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(tree: DecisionTree, graph_name: str = "decision_tree") -> str:
    """Render the tree as a Graphviz digraph (internal=box, leaf=ellipse)."""
    lines = [f"digraph {graph_name} {{", "  node [shape=box];"]
    counter = 0

    def walk(node: DecisionNode) -> int:
        nonlocal counter
        node_id = counter
        counter += 1
        if isinstance(node, Leaf):
            label = f"{_dot_escape(node.label)}\\nsupport={node.support}"
            lines.append(f'  n{node_id} [shape=ellipse, label="{label}"];')
        else:
            lines.append(f'  n{node_id} [label="{_dot_escape(node.attribute)}"];')
            for value, child in node.branches.items():
                child_id = walk(child)
                lines.append(f'  n{node_id} -> n{child_id} [label="{_dot_escape(value)}"];')
        return node_id

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
