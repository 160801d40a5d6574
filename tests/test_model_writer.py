"""``save_model`` writes the text ``json.dumps`` writes for the model document, byte for byte.

The writer walks the flat form on an explicit stack and never builds the nested
document, so it is checked against that document (``model_to_json_dict``) on random
hand-built trees: names and values with quotes, backslashes, control and non-ASCII
characters, domains whose sorted order is not their domain order, zero-support and
all-zero leaves, missing branches, and lone leaves.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gradetree.dataset import Attribute, AttributeSchema, ClassDistribution
from gradetree.tree import DecisionTree, Internal, Leaf, TreeConfig, load_model, model_to_json_dict, save_model

# every string json escapes in its own way, a few it leaves alone, and any other character but "\r"
CHARACTERS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "中", "\U0001f600",
                              "a", "B", "\u2028"]) | st.characters(exclude_characters="\r", exclude_categories=("Cs",))
TEXTS = st.text(CHARACTERS, min_size=1, max_size=4)


@st.composite
def schemas(draw) -> AttributeSchema:
    names = draw(st.lists(TEXTS, min_size=2, max_size=4, unique=True))
    domains = st.lists(TEXTS, min_size=1, max_size=4, unique=True)  # in drawn order, seldom sorted
    return AttributeSchema(tuple(Attribute(n, tuple(draw(domains))) for n in names[1:]),
                           Attribute(names[0], tuple(draw(domains))))


@st.composite
def leaves(draw, classes) -> Leaf:
    counts = draw(st.lists(st.integers(0, 3), min_size=len(classes), max_size=len(classes))
                  | st.just([0] * len(classes)))
    listed = draw(st.lists(st.sampled_from(classes), unique=True))  # a class left out reads as 0
    distribution = ClassDistribution({c: counts[classes.index(c)] for c in listed}, 0)
    return Leaf(draw(st.sampled_from(classes)), draw(st.integers(0, 3)), distribution)


@st.composite
def trees(draw) -> DecisionTree:
    """A hand-built tree at most three levels deep; a branch may be missing, and is filled as a model file's is."""
    schema = draw(schemas())
    classes = schema.class_domain

    def node(depth):
        if depth == 3 or draw(st.booleans()):
            return draw(leaves(classes))
        attribute = draw(st.sampled_from(schema.attributes))
        return Internal(attribute.name, {v: node(depth + 1) for v in attribute.domain if draw(st.integers(0, 4))})

    config = TreeConfig(criterion=draw(st.sampled_from(["gain", "gain-ratio"])),
                        min_leaf_support=draw(st.integers(0, 3)), max_depth=draw(st.none() | st.integers(1, 5)))
    return DecisionTree(node(0), schema, config, draw(st.integers(0, 10)))


@settings(max_examples=300, deadline=None)
@given(tree=trees())
def test_save_model_writes_the_json_dumps_text_of_the_model_document(tree):
    expected = json.dumps(model_to_json_dict(tree), indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(tree, path)
        assert path.read_bytes() == expected.encode("ascii")
        assert load_model(path) == tree


class Count(int):
    """An integer that prints as a word; ``json`` writes it as its value, ``int.__repr__``."""

    def __repr__(self):
        return "Count"

    __str__ = __repr__

    def __format__(self, spec):
        return "Count"


def test_the_text_follows_sorted_keys_not_domain_order_and_writes_integers_as_json_does(tmp_path):
    schema = AttributeSchema((Attribute('z"\\', ("b", "é", "a", "B")),), Attribute("Y", ("c1", "c0")))
    leaf = Leaf("c1", 0, ClassDistribution({"c1": 0, "c0": 0}, 0))
    counted = Leaf("c0", Count(2), ClassDistribution({"c0": Count(2)}, 2))
    for root in (leaf, Internal('z"\\', {"b": leaf, "a": counted})):
        tree = DecisionTree(root, schema, TreeConfig(), 2)
        save_model(tree, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text(encoding="ascii")
        assert text == json.dumps(model_to_json_dict(tree), indent=2, sort_keys=True) + "\n"
    assert '"attribute": "z\\"\\\\"' in text and '"\\u00e9": {' in text and "Count" not in text
    branches = [line.strip() for line in text.splitlines() if line.startswith(" " * 6 + '"') and line.endswith("{")]
    assert branches == ['"B": {', '"a": {', '"b": {', '"\\u00e9": {']
