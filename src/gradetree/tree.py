"""ID3 decision trees over categorical schemas.

Construction is greedy: pick the best-scoring attribute among those
unused on the current path, branch over its full domain, and stop at
pure subsets, exhausted attributes, or the depth limit. Branches for
unrepresented values become majority leaves carrying the parent's
distribution, so prediction is total and can always report a confidence.

Growth reads the codes a ``Dataset`` built when it was validated, its
``_codes``: a column of domain-index codes per attribute and one of
label codes. A node is the row indices that reach it, grouped by class;
the lists' lengths are its class counts. ``id3_build`` groups the root's
rows once (``metrics._by_class``), and each node's split hands its
children their rows already grouped. Every node counts its candidates'
value x class tables in one call of ``metrics.lane_counter``, the
package's one table counter: one sum of each class's rows. One
``metrics.node_scores`` call scores them all, from the node's class
entropy computed once. Growth is two steps (``_growth``): ``decide``
applies the stop rules or names the winner, and ``split`` fills every
child's class lists in one pass over each class's rows; ``id3_build``
decides, then splits. A node depends only on the nodes along its own
path, so leave-one-out grows no whole fold and never splits: it decides
down the held-out row's path, from the same codes less that row,
building only the child the row reaches. A fold root's tables are not
counted: each is the full table less that row's cell, handed to
``decide``. Folds repeat tables, so leave-one-out's ``decide`` scores
each distinct table once per call, alone, which gives the float it gets
among its node's candidates; a build's tables do not repeat, and
``id3_build`` scores each as counted.

A tree is its flat form (``_Flat``): nodes in preorder, branches in domain
order. Growth, model documents and pruning write it on an explicit stack
(``_preorder``); a hand-made root is flattened once (``_flatten``). Stats,
rules, model files, DOT, the router (``_route``), ``predict``, equality, ``repr``
and pickling read it; ``root`` is a view built from it (``_bottom_up``). No walk
of a tree recurses, nor does the model writer (``_model_text``). Only ``json.loads``
does, so model files hold ``MAX_MODEL_DEPTH`` levels.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .dataset import AttributeSchema, ClassDistribution, Dataset, ValidationError, _FrozenDict, _read_json, _write_text
from .metrics import _by_class, lane_counter, node_scores

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
# the deepest tree a model file holds: save_model writes on an explicit stack, but json.loads
# recurses twice per level and overflows near 495 levels at the default recursion limit
MAX_MODEL_DEPTH = 400


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
        object.__setattr__(self, "criterion", Criterion(self.criterion))  # "gain" reads as Criterion.GAIN
        if not _is_count(self.min_leaf_support):
            raise ValueError(f"min_leaf_support must be an integer >= 0, not {self.min_leaf_support!r}")
        if self.max_depth is not None and not (_is_count(self.max_depth) and self.max_depth >= 1):
            raise ValueError(f"max_depth must be None or an integer >= 1, not {self.max_depth!r}")


def _is_count(n) -> bool:
    """Whether ``n`` is an integer >= 0, and not a bool, as every count in a model file is."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


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
    """A test of one attribute; ``branches`` is a read-only copy of the mapping passed in."""

    attribute: str
    branches: Mapping[str, "DecisionNode"]

    def __post_init__(self):
        object.__setattr__(self, "branches", _FrozenDict(self.branches))


DecisionNode = Union[Leaf, Internal]


@dataclass(frozen=True, init=False)
class DecisionTree:
    """A tree over a schema, stored as its flat form; ``root`` may be passed as one. A hand-made root
    is flattened once, its nodes read as a model file's are (``_flatten``), and not kept: ``root`` is a view."""

    schema: AttributeSchema
    config: TreeConfig
    training_size: int
    _flat: _Flat

    __hash__ = None  # its flat form holds lists: a tree is unhashable on purpose

    def __init__(self, root: DecisionNode, schema: AttributeSchema, config: TreeConfig, training_size: int):
        flat = root if isinstance(root, _Flat) else _flatten(root, schema)
        vars(self).update(schema=schema, config=config, training_size=training_size, _flat=flat)
        _field(vars(self), "training_size", (int,), "model")  # as the model reader checks it

    def __reduce__(self):  # the flat form alone; a kept root view would pickle one frame per level
        return DecisionTree, (self._flat, self.schema, self.config, self.training_size)

    @property
    def root(self) -> DecisionNode:
        """The tree as ``Leaf`` and ``Internal`` nodes, built the first time it is read, then kept."""
        if "_root" not in vars(self):  # one view, however many threads build it
            attributes = self.schema.attributes
            vars(self).setdefault("_root", _bottom_up(self._flat, lambda leaf: leaf, lambda p, nodes: Internal(
                attributes[p].name, dict(zip(attributes[p].domain, nodes))))[0])
        return vars(self)["_root"]


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
    *columns, labels = dataset._codes
    decide, split, _ = _growth(schema, columns, labels, config)

    def expand(item):  # decide, then split
        node, best = decide(item)
        return (node, best, ()) if best < 0 else (None, best, split(item, node, best))

    root = _root_item(schema, _by_class(labels, len(schema.class_domain)))
    return DecisionTree(_preorder(root, expand), schema, config, len(dataset))


class _Flat(NamedTuple):
    """A tree as lists indexed by node id: ids in preorder, branches in domain order."""

    nodes: list  # a leaf is its own payload; an internal node's is None
    positions: list[int]  # the schema position of a node's attribute; -1 at a leaf
    children: list[list[int]]  # a node's child id per domain code


def _preorder(root, expand) -> _Flat:
    """The flat form of a tree given by its root item, expanded on an explicit stack:
    ``expand(item)`` returns the node's payload, its attribute's position (-1 at a
    leaf) and the items of its children in domain order."""
    nodes, positions, children = flat = _Flat([], [], [])
    stack = [(root, [0], 0)]  # an item, and the list and index its id goes to
    while stack:
        item, ids, code = stack.pop()
        ids[code] = len(nodes)
        node, position, items = expand(item)
        nodes.append(node)
        positions.append(position)
        children.append([0] * len(items))
        stack += items and [(items[k], children[-1], k) for k in reversed(range(len(items)))]
    return flat


def _bottom_up(flat: _Flat, leaf, internal) -> list:
    """Every node's value by node id, the root's first, combined from the leaves up:
    ``leaf(node)`` at a leaf, and ``internal(position, its children's values in domain order)`` elsewhere."""
    nodes, positions, children = flat
    results = [None] * len(nodes)
    for i in reversed(range(len(nodes))):
        p = positions[i]
        results[i] = leaf(nodes[i]) if p < 0 else internal(p, [results[c] for c in children[i]])
    return results


def _flatten(root: DecisionNode, schema: AttributeSchema) -> _Flat:
    """The flat form of a tree, read in one preorder pass as ``load_model`` reads its document, so the
    first node a model file could not hold (``_field``, ``_internal``, ``_leaf_from_dict``) is the ValueError.
    A branch that a hand-built tree lacks is a gap until the pass ends, then a leaf, with support 0, of
    its node's own majority and distribution (``_own``)."""
    predictors = {a.name: (p, a.domain) for p, a in enumerate(schema.attributes)}
    gap = Leaf("", 0, ClassDistribution(dict.fromkeys(schema.class_domain, 0), 0))  # a missing branch, for now

    def expand(item):  # the mapping holding a node, the node's key, and where that is
        container, name, place = item
        if name not in container:
            return gap, -1, ()
        if isinstance(node := container[name], Leaf):  # as save_model writes it and load_model reads it back
            if not isinstance(node.distribution, ClassDistribution):
                _field(vars(node), "distribution", (ClassDistribution,), "model leaf")
            return _leaf_from_dict(_leaf_to_dict(node), schema.class_domain), -1, ()
        node = _field(container, name, (Internal,), place)  # any other part is no node: "must be an object"
        attribute = _field(vars(node), "attribute", (str,), "model node")  # as the model reader checks it
        position, domain, branches = _internal(predictors, attribute, lambda: node.branches)
        return None, position, [(branches, v, "model branches") for v in domain]

    nodes, _, children = flat = _preorder(({"root": root}, "root", "model"), expand)
    if any(node is gap for node in nodes):  # no gap, no fold
        for (_, dist), ids in zip(_own(flat), children):  # a gap takes its parent's own distribution
            for i in (i for i in ids if nodes[i] is gap):
                nodes[i] = Leaf(dist.majority(), 0, dist)
    return flat


def _internal(predictors: Mapping, attribute, branches) -> tuple:
    """Position, domain, ``branches()`` of a node on a predictor, every branch in its domain; else ValueError."""
    if attribute not in predictors:
        raise ValueError(f"unknown attribute {attribute!r}")
    (position, domain), branches = predictors[attribute], branches()
    if outside := [v for v in branches if v not in domain]:
        raise ValueError(f"branches for {attribute!r} name values outside its domain: {outside}")
    return position, domain, branches


def _route(flat: _Flat, rows: Iterable[Sequence]) -> list[int]:
    """The id of the leaf each row reaches. A row holds a cell per attribute in schema
    order, each cell a domain code, or a value when ``flat.children`` maps values."""
    _, positions, children = flat
    reached = []
    for row in rows:
        i = 0
        while (p := positions[i]) >= 0:
            i = children[i][row[p]]
        reached.append(i)
    return reached


def _code_rows(dataset: Dataset) -> Iterator[tuple[int, ...]]:
    """Each record's domain codes, in schema order."""
    *columns, _ = dataset._codes
    return zip(*columns) if columns else repeat((), len(dataset))


def _class_labels(dataset: Dataset) -> list[str]:
    """Each record's class label, read from the label codes."""
    classes = dataset.schema.class_domain
    return [classes[c] for c in dataset._codes[-1]]


def _growth(schema: AttributeSchema, columns: Sequence[Sequence[int]], labels: Sequence[int],
            config: TreeConfig, score_node=node_scores):
    """The growth rule as two steps and its counter, given every attribute's code column in schema
    order and the label codes. ``decide(item, tables=None)`` gives a node's ``Leaf`` and -1 where
    growth stops, else its distribution and the winner's position; ``tables``, if given, are the
    node's tables over its available positions, counted elsewhere. ``split(item, dist, best)`` gives
    every child's item in domain order. ``count`` is the lane counter ``decide`` counts by (leave-one-out
    counts its full tables by it). ``score_node`` takes what ``node_scores`` takes and gives each
    candidate's key as it does (leave-one-out passes one that scores each distinct table once).
    An item (see ``_root_item``) is a node's rows grouped by class, the positions still available on
    its path, its depth and its parent's distribution, so a node depends only on the nodes along its
    own path. Items never change their lists: the lane counter sums a node's, and its split fills its children's."""
    if not schema.attributes:
        raise ValueError("schema declares no predictor attributes")
    sizes = [len(a.domain) for a in schema.attributes]
    classes = schema.class_domain
    ratio = config.criterion is Criterion.GAIN_RATIO
    count = lane_counter(columns, sizes, len(labels))

    def decide(item, tables=None):
        by_class, available, depth, parent = item
        counts = [*map(len, by_class)]
        n = sum(counts)
        # an empty branch becomes a leaf of its parent's majority and distribution
        dist = ClassDistribution(dict(zip(classes, counts)), n) if n else parent
        if (
            (config.min_leaf_support and n < config.min_leaf_support)
            or max(counts) == n  # single class, or none
            or not available
            or (config.max_depth is not None and depth >= config.max_depth)
        ):
            return Leaf(dist.majority(), n, dist), -1
        keys = score_node(tables or count(by_class, available), counts, n, ratio)
        return dist, available[keys.index(max(keys))]  # the first maximum in schema order wins ties

    def split(item, dist, best):
        by_class, available, depth, _ = item
        column = columns[best]
        parts = [[[] for _ in classes] for _ in range(sizes[best])]  # each child's rows, by class
        for c, rows in enumerate(by_class):
            for r in rows:
                parts[column[r]][c].append(r)
        remaining = [p for p in available if p != best]
        return [(part, remaining, depth + 1, dist) for part in parts]

    return decide, split, count


def _root_item(schema: AttributeSchema, by_class: Sequence[Sequence[int]]) -> tuple:
    """The growth item of a tree's root over rows grouped by class (not all empty), every attribute available."""
    return by_class, list(range(len(schema.attributes))), 0, None


def _subtree(node: DecisionNode) -> _Flat:
    """The flat form of a subtree read without a schema, every internal node at position 0.
    A part that is no node, or a leaf whose distribution or support is not one, is the ValueError
    ``DecisionTree`` gives for it (``_field``)."""

    def expand(item):  # the mapping holding a node, the node's key, and where that is
        container, name, place = item
        if isinstance(node := container[name], Leaf):  # the fields read, in the order DecisionTree checks them
            fields = {"distribution": node.distribution, "support": node.support}  # vars(node) would stay built
            _field(fields, "distribution", (ClassDistribution,), "model leaf")
            _field(fields, "support", (int,), "model leaf")
            return node, -1, ()
        node = _field(container, name, (Internal,), place)
        return None, 0, [(node.branches, v, "model branches") for v in node.branches]

    return _preorder(({"root": node}, "root", "model"), expand)


def node_support(node: DecisionNode) -> int:
    """Training records routed through this subtree: its leaves' supports, read as ``_subtree`` reads it."""
    flat = _subtree(node)
    return sum(n.support for n, p in zip(flat.nodes, flat.positions) if p < 0)


def _own_distribution(leaf: Leaf) -> ClassDistribution:
    if leaf.support == 0:  # the stored distribution belongs to the parent subset
        return ClassDistribution({c: 0 for c in leaf.distribution.counts}, 0)
    return leaf.distribution


def node_distribution(node: DecisionNode) -> ClassDistribution:
    """Class distribution of the records routed through this subtree, as ``_own`` sums it.

    Zero-support leaves are skipped: their stored distribution belongs to
    the parent subset, not to records of their own; a node with no leaf counts no class.
    """
    return _own(_subtree(node))[0][1]


def _own(flat: _Flat) -> list[tuple[int, ClassDistribution]]:
    """Each node's (support, own distribution) by node id, summed from its leaves: a support-0 leaf
    counts none, and an internal node merges its children's in order (a node with no branch, none)."""
    return _bottom_up(flat, lambda leaf: (leaf.support, _own_distribution(leaf)), lambda p, subs: (
        sum(s for s, _ in subs),
        reduce(ClassDistribution.merged, [d for _, d in subs] or [ClassDistribution({}, 0)])))


def predict(tree: DecisionTree, values: Mapping[str, str]) -> tuple[str, ClassDistribution]:
    """Route one example to a leaf of the flat form, as ``_route`` does; returns (label, distribution there)."""
    nodes, positions, children = tree._flat
    i = 0
    while (p := positions[i]) >= 0:
        attribute = tree.schema.attributes[p]
        try:
            value = values[attribute.name]
        except KeyError:
            raise KeyError(
                f"prediction input is missing attribute {attribute.name!r}"
            ) from None
        if value not in attribute.domain:
            raise ValidationError(
                f"column {attribute.name!r}: value {value!r} not in domain {sorted(attribute.domain)}",
                column=attribute.name,
                value=value,
            )
        i = children[i][attribute.domain.index(value)]
    return nodes[i].label, nodes[i].distribution


def _depth(flat: _Flat) -> int:
    """The levels below the root of a flat tree; a lone leaf has depth 0."""
    return _bottom_up(flat, lambda leaf: 0, lambda p, depths: 1 + max(depths))[0]


def tree_stats(tree: DecisionTree) -> TreeStats:
    """Leaf count, total node count, and depth (a lone leaf has depth 0) of the flat form."""
    return TreeStats(tree._flat.positions.count(-1), len(tree._flat.nodes), _depth(tree._flat))


def prune(tree: DecisionTree, min_support: int) -> DecisionTree:
    """Replace every subtree routed fewer than ``min_support`` records by a
    majority leaf over that subtree's own distribution. Idempotent."""
    # a count passes, and so does a negative integer, for the next check to word
    if not (_is_count(min_support) or isinstance(min_support, int) and min_support < 0):
        raise ValueError(f"min_support must be an integer >= 1, not {min_support!r}")
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    nodes, positions, children = tree._flat
    own = _own(tree._flat)

    def expand(i):  # a subtree routed too few records becomes a leaf
        support, dist = own[i]  # the records routed through node i, and their own distribution
        if positions[i] >= 0 and support < min_support:
            return Leaf(dist.majority(), support, dist), -1, ()
        return nodes[i], positions[i], children[i]

    config = replace(tree.config, min_leaf_support=max(tree.config.min_leaf_support, min_support))
    return DecisionTree(_preorder(0, expand), tree.schema, config, tree.training_size)


# --- persistence ------------------------------------------------------------


def _leaf_to_dict(leaf: Leaf) -> dict:
    return {"kind": "leaf", "label": leaf.label, "support": leaf.support,
            "distribution": dict(leaf.distribution.counts)}


def _node_to_dict(flat: _Flat, schema: AttributeSchema) -> dict:
    attributes = schema.attributes
    return _bottom_up(flat, _leaf_to_dict, lambda p, docs: {
        "kind": "internal", "attribute": attributes[p].name,
        "branches": dict(zip(attributes[p].domain, docs)),
    })[0]


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
    """The leaf of a model document, its distribution listing every class in domain order (a class
    it lacks reads 0). Each field is first tested as ``json`` reads it (a dict, exact ints >= 0, a str);
    only another value goes on to ``_field`` or ``_is_count``, which accept a non-dict Mapping or an int
    subclass, or word the error. The checks keep one order: distribution, classes, counts, label, support."""
    if type(raw := doc.get("distribution")) is not dict:  # json reads every object as a dict
        raw = _field(doc, "distribution", (Mapping,), "model leaf")
    if len(counts := {**dict.fromkeys(classes, 0), **raw}) > len(classes):  # an unknown class adds a key
        raise ValueError(f"model distribution names unknown classes {sorted({*counts} - {*classes}, key=str)}")
    values = counts.values()
    if not ({*map(type, values)} == {int} and min(values) >= 0 or all(map(_is_count, values))):
        raise ValueError(f"model distribution counts must be integers >= 0: {dict(raw)}")
    if type(label := doc.get("label")) is not str:
        label = _field(doc, "label", (str,), "model leaf")
    if label not in classes:
        raise ValueError(f"model leaf label {label!r} not in class domain")
    if type(support := doc.get("support")) is not int or support < 0:
        support = _field(doc, "support", (int,), "model leaf")
    return Leaf(label, support, ClassDistribution(counts, sum(values)))


def _node_from_dict(parent: Mapping, key: str, where: str, schema: AttributeSchema) -> _Flat:
    """The flat form of the tree whose document is ``parent[key]``, each node checked in preorder."""
    predictors = {a.name: (p, a.domain) for p, a in enumerate(schema.attributes)}
    classes = schema.class_domain

    def expand(item):  # the document holding a node, the node's key, and where that is
        container, name, place = item
        if type(doc := container.get(name)) is not dict:  # json reads every object as a dict
            doc = _field(container, name, (Mapping,), place)
        kind = doc.get("kind")
        if kind == "leaf":
            return _leaf_from_dict(doc, classes), -1, ()
        if kind == "internal":
            if type(attribute := doc.get("attribute")) is not str:
                attribute = _field(doc, "attribute", (str,), "model node")
            position, domain, branch_doc = _internal(
                predictors, attribute, lambda: _field(doc, "branches", (Mapping,), "model node"))
            if len(branch_doc) < len(domain):
                raise ValueError(
                    f"model branches for {attribute!r} do not cover its domain: "
                    f"{sorted(branch_doc)} vs {sorted(domain)}"
                )
            return None, position, [(branch_doc, v, "model branches") for v in domain]
        raise ValueError(f"unknown model node kind {kind!r}")

    return _preorder((parent, key, where), expand)


def _header(tree: DecisionTree) -> dict:
    """A model document's keys but ``root``."""
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
    }


def model_to_json_dict(tree: DecisionTree) -> dict:
    """The model document, nested as its file is; ``save_model`` writes its canonical text without building it."""
    return {**_header(tree), "root": _node_to_dict(tree._flat, tree.schema)}


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
    if schema is not None and schema != embedded:
        raise ValueError("model was trained against a differently shaped schema")
    config_doc = _field(doc, "config", (Mapping,), "model")
    config = TreeConfig(
        criterion=Criterion(_field(config_doc, "criterion", (str,), "model config")),
        min_leaf_support=_field(config_doc, "min_leaf_support", (int,), "model config"),
        max_depth=_field(config_doc, "max_depth", (int, type(None)), "model config"),
    )
    flat = _node_from_dict(doc, "root", "model", embedded)
    return DecisionTree(flat, embedded, config, _field(doc, "training_size", (int,), "model"))


def _within_depth(flat: _Flat, where: str = "") -> int:
    """The depth of a flat tree, which must be at most ``MAX_MODEL_DEPTH``; else ValueError."""
    if (depth := _depth(flat)) > MAX_MODEL_DEPTH:
        raise ValueError(f"{where}tree is {depth} levels deep; "
                         f"a model file holds at most {MAX_MODEL_DEPTH} levels")
    return depth


def _model_text(tree: DecisionTree, depth: int) -> str:
    """``json.dumps(model_to_json_dict(tree), indent=2, sort_keys=True)`` and a newline, written
    from the flat form on an explicit stack: each node's keys and branches in sorted order."""
    head = json.dumps({**_header(tree), "root": None}, indent=2, sort_keys=True)
    before, after = head.split('\n  "root": null')  # a raw newline ends a line, and no string holds one
    nodes, positions, children = tree._flat
    quote = encode_basestring_ascii
    names = [quote(a.name) for a in tree.schema.attributes]
    branches = [[(f"{quote(v)}: ", code) for v, code in sorted(zip(a.domain, range(len(a.domain))))]
                for a in tree.schema.attributes]
    pads = ["\n" + "  " * k for k in range(2 * depth + 4)]  # a node at depth d closes at pads[2d + 1]
    out = [before, '\n  "root": ']
    stack = [("", 0, 1)]  # text to write, then a node id (-1: none) and the pad its closing brace takes
    while stack:
        text, i, k = stack.pop()
        out.append(text)
        if i < 0:
            continue
        close, keys, inner = pads[k], pads[k + 1], pads[k + 2]
        if (p := positions[i]) < 0:
            leaf = nodes[i]
            counts = ",".join([f"{inner}{quote(c)}: {int.__repr__(n)}"
                               for c, n in sorted(leaf.distribution.counts.items())])
            out.append(f'{{{keys}"distribution": {{{counts}{keys}}},{keys}"kind": "leaf",{keys}"label": '
                       f'{quote(leaf.label)},{keys}"support": {int.__repr__(leaf.support)}{close}}}')
        else:
            out.append(f'{{{keys}"attribute": {names[p]},{keys}"branches": {{')
            stack.append((f'{keys}}},{keys}"kind": "internal"{close}}}', -1, 0))
            ids = children[i]
            stack += reversed([(f"{',' * bool(j)}{inner}{key}", ids[code], k + 2)
                               for j, (key, code) in enumerate(branches[p])])
    out.append(after + "\n")
    return "".join(out)


def save_model(tree: DecisionTree, path) -> None:
    """Write the canonical JSON encoding (sorted keys, two-space indent), replacing ``path``
    only once it is complete (``dataset._atomic_output``); a tree deeper than
    ``MAX_MODEL_DEPTH`` raises ValueError, and nothing is written."""
    _write_text(_model_text(tree, _within_depth(tree._flat)), path)


def load_model(path, schema: AttributeSchema | None = None) -> DecisionTree:
    """Read a model file; a malformed one, or one deeper than ``MAX_MODEL_DEPTH``, raises ValueError."""
    tree = model_from_json_dict(_read_json(path, ValueError), schema)
    _within_depth(tree._flat, f"{path}: ")  # the last check, after every other error in the document
    return tree


# --- DOT export -------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(tree: DecisionTree) -> str:
    """Render the tree as a Graphviz digraph (internal=box, leaf=ellipse). Node ``n<i>``
    is flat id ``i``, as ``_route`` returns, and each edge follows its child's subtree."""
    nodes, positions, children = tree._flat
    lines = ["digraph decision_tree {", "  node [shape=box];"]
    stack = [0]  # node ids, and edge lines to write once their child's subtree is written
    while stack:
        i = stack.pop()
        if isinstance(i, str):
            lines.append(i)
        elif positions[i] < 0:
            label = f"{_dot_escape(nodes[i].label)}\\nsupport={nodes[i].support}"
            lines.append(f'  n{i} [shape=ellipse, label="{label}"];')
        else:
            attribute = tree.schema.attributes[positions[i]]
            lines.append(f'  n{i} [label="{_dot_escape(attribute.name)}"];')
            for value, child in reversed([*zip(attribute.domain, children[i])]):
                stack += [f'  n{i} -> n{child} [label="{_dot_escape(value)}"];', child]
    lines.append("}")
    return "\n".join(lines) + "\n"
