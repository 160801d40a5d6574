"""The count-table core against the frozen partition-based builder.

Every comparison is exact ``==``: the two paths must add the same float
terms in the same order, or a near-tie between attributes could resolve
differently and change the tree.
"""

import itertools
import json
import random

import pytest

import reference_id3 as ref
from conftest import random_dataset
from gradetree.dataset import Attribute, AttributeSchema, Dataset, Record
from gradetree.metrics import information_gain, score_all
from gradetree.rules import extract_rules
from gradetree.tree import Criterion, TreeConfig, id3_build, model_to_json_dict

pytestmark = pytest.mark.slow

SEEDS = range(300)
CONFIGS = [
    TreeConfig(criterion=criterion, max_depth=max_depth, min_leaf_support=min_support)
    for criterion, max_depth, min_support in itertools.product(
        Criterion, (None, 2), (0, 3)
    )
]


def with_permuted_copy(dataset: Dataset, rng: random.Random) -> tuple[Dataset, str, str]:
    """Insert a copy of one attribute, with its domain order permuted, at a
    random schema position. Both split the records identically, so their
    scores differ, if at all, only by the order the parts are summed in."""
    attrs = list(dataset.schema.attributes)
    source = rng.choice(attrs)
    domain = list(source.domain)
    while tuple(domain) == source.domain:
        rng.shuffle(domain)
    copy = Attribute(f"{source.name}_copy", tuple(domain))
    attrs.insert(rng.randint(0, len(attrs)), copy)
    schema = AttributeSchema(tuple(attrs), dataset.schema.class_attribute)
    records = tuple(
        Record({**r.values, copy.name: r.values[source.name]}, r.label) for r in dataset.records
    )
    return Dataset(schema, records), source.name, copy.name


def assert_same_as_reference(dataset: Dataset) -> None:
    assert score_all(dataset) == ref.score_all(dataset)
    shapes = {}
    for config in CONFIGS:
        tree = id3_build(dataset, config)
        doc = model_to_json_dict(tree)
        assert doc == model_to_json_dict(ref.id3_build(dataset, config))
        # rules depend on the nodes only; check each distinct tree once
        shapes.setdefault(json.dumps(doc["root"], sort_keys=True), tree)
    for tree in shapes.values():
        assert extract_rules(tree, dataset) == ref.extract_rules(tree, dataset)


@pytest.mark.parametrize("contradiction_free", [True, False])
def test_random_datasets_match_the_reference(contradiction_free):
    for seed in SEEDS:
        assert_same_as_reference(
            random_dataset(random.Random(seed), contradiction_free=contradiction_free)
        )


def test_permuted_domain_copies_match_the_reference():
    order_decided = 0
    for seed in SEEDS:
        rng = random.Random(10_000 + seed)
        dataset, source, copy = with_permuted_copy(
            random_dataset(rng, contradiction_free=seed % 2 == 0), rng
        )
        assert_same_as_reference(dataset)
        if information_gain(dataset, source) != information_gain(dataset, copy):
            order_decided += getattr(id3_build(dataset).root, "attribute", None) in (source, copy)
    # in some of these tables the summation order alone chose the root split
    assert order_decided > 0


def test_bundled_fixture_matches_the_reference(students):
    assert_same_as_reference(students)
