import json
import random
import re
from pathlib import Path

import pytest

from conftest import make_dataset, random_dataset, tiny_schema
from gradetree.dataset import (
    Attribute,
    AttributeSchema,
    ClassDistribution,
    Dataset,
    Record,
    ValidationError,
    load_students,
)
from gradetree.rules import Rule, extract_rules, render_rules, rules_to_json
from gradetree.tree import DecisionTree, Internal, Leaf, TreeConfig, id3_build, prune, tree_stats

GOLDEN = Path(__file__).parent / "golden" / "fixture_rules.txt"

RULE_LINE = re.compile(
    r"^IF (TRUE|[A-Za-z0-9_]+ = '[^']*'( AND [A-Za-z0-9_]+ = '[^']*')*) "
    r"THEN [A-Za-z0-9_]+ = '[^']*' \[support=\d+, confidence=\d\.\d\d\]$"
)


def matches(rule, record):
    return all(record.values[a] == v for a, v in rule.conditions)


def test_single_leaf_tree_yields_one_unconditional_rule(students):
    uniform = Dataset(
        students.schema,
        tuple(Record(r.values, "First") for r in students.records),
    )
    tree = id3_build(uniform)
    rules = extract_rules(tree, uniform)
    assert len(rules) == 1
    assert rules[0].conditions == ()
    assert rules[0].consequent == "First"
    assert rules[0].support == 50
    assert rules[0].confidence == 1.0
    assert render_rules(rules, "ESM").startswith("IF TRUE THEN ESM = 'First' ")


def test_depth_one_tree_rules_partition_the_training_set():
    schema = AttributeSchema(
        (Attribute("A", ("p", "q", "r")),), Attribute("Y", ("c0", "c1", "c2"))
    )
    ds = make_dataset(
        schema,
        [(("p",), "c0"), (("p",), "c0"), (("q",), "c1"), (("r",), "c2")],
    )
    tree = id3_build(ds)
    rules = extract_rules(tree, ds)
    assert len(rules) == 3
    assert sum(r.support for r in rules) == len(ds)
    for rec in ds.records:
        assert sum(1 for rule in rules if matches(rule, rec)) == 1


def test_fixture_rules_against_golden_file(students, fixture_tree):
    rules = extract_rules(fixture_tree, students)
    assert render_rules(rules, "ESM") == GOLDEN.read_text()


def test_rendered_lines_have_the_expected_shape(students, fixture_tree):
    rules = extract_rules(fixture_tree, students)
    for line in render_rules(rules, "ESM").splitlines():
        assert RULE_LINE.match(line), line
        assert "THEN ESM = '" in line


def test_rule_count_equals_leaf_count(students, fixture_tree):
    rules = extract_rules(fixture_tree, students)
    assert len(rules) == tree_stats(fixture_tree).leaves
    pruned = prune(fixture_tree, 4)
    assert len(extract_rules(pruned, students)) == tree_stats(pruned).leaves


def test_unpruned_rules_are_mutually_exclusive_and_exhaustive(students, fixture_tree):
    rules = extract_rules(fixture_tree, students)
    for rec in students.records:
        assert sum(1 for rule in rules if matches(rule, rec)) == 1
    assert sum(r.support for r in rules) == 50


def test_rule_support_and_confidence_match_their_leaf(students, fixture_tree):
    def leaves_with_paths(node, path=()):
        if isinstance(node, Leaf):
            yield node, path
        else:
            for value in fixture_tree.schema.domain(node.attribute):
                yield from leaves_with_paths(
                    node.branches[value], path + ((node.attribute, value),)
                )

    rules = extract_rules(fixture_tree, students)
    for rule, (leaf, path) in zip(rules, leaves_with_paths(fixture_tree.root)):
        assert rule.conditions == path
        assert rule.consequent == leaf.label
        assert rule.support == leaf.support
        if rule.support:
            hits = sum(
                1 for r in students.records if matches(rule, r) and r.label == rule.consequent
            )
            assert rule.confidence == hits / rule.support
        else:
            assert rule.confidence == 0.0


def test_conditions_follow_path_order_root_first(students, fixture_tree):
    root_attr = fixture_tree.root.attribute
    for rule in extract_rules(fixture_tree, students):
        assert rule.conditions[0][0] == root_attr
        assert len({a for a, _ in rule.conditions}) == len(rule.conditions)


def test_pruned_rules_report_fractional_confidence(students, fixture_tree):
    pruned = prune(fixture_tree, 51)
    rules = extract_rules(pruned, students)
    assert len(rules) == 1
    assert rules[0].confidence == pytest.approx(15 / 50)


def test_schema_mismatch_is_rejected(students, fixture_tree):
    other = random_dataset(random.Random(3))
    with pytest.raises(ValueError, match="schema"):
        extract_rules(fixture_tree, other)


def test_value_changed_after_validation_names_its_cell(fixture_tree):
    ds = load_students()
    with pytest.raises(TypeError):
        ds.records[3].values["ATT"] = "Bogus"  # Record.values is read-only
    changed = Record({**ds.records[3].values, "ATT": "Bogus"}, ds.records[3].label)
    with pytest.raises(ValidationError, match=r"row 4, column 'ATT': value 'Bogus'") as info:
        extract_rules(fixture_tree, Dataset(ds.schema, ds.records[:3] + (changed,) + ds.records[4:]))
    assert (info.value.row, info.value.column, info.value.value) == (4, "ATT", "Bogus")


def test_a_leaf_shared_by_two_paths_is_counted_per_path():
    schema = tiny_schema(n_attrs=1)
    ds = make_dataset(schema, [(("a",), "c0"), (("a",), "c1"), (("b",), "c0")])
    leaf = Leaf("c0", 0, ClassDistribution({"c0": 0, "c1": 0}, 0))
    tree = DecisionTree(Internal("A0", {"a": leaf, "b": leaf}), schema, TreeConfig(), 3)
    rules = extract_rules(tree, ds)
    assert [(r.conditions, r.support, r.confidence) for r in rules] == [
        ((("A0", "a"),), 2, 0.5),
        ((("A0", "b"),), 1, 1.0),
    ]


def test_render_empty_rule_list_is_empty_text():
    assert render_rules([], "ESM") == ""


def test_render_conjunction_in_path_order():
    rule = Rule((("PSM", "First"), ("ATT", "Good")), "First", 5, 1.0)
    line = render_rules([rule], "ESM").rstrip("\n")
    assert line == ("IF PSM = 'First' AND ATT = 'Good' THEN ESM = 'First' "
                    "[support=5, confidence=1.00]")


def test_rules_to_json_round_trips(students, fixture_tree):
    rules = extract_rules(fixture_tree, students)
    doc = json.loads(rules_to_json(rules, "ESM"))
    assert len(doc) == len(rules)
    assert doc[0]["class"] == "ESM"
    first = rules[0]
    assert doc[0]["consequent"] == first.consequent
    assert doc[0]["support"] == first.support
    assert [
        (c["attribute"], c["value"]) for c in doc[0]["conditions"]
    ] == list(first.conditions)


def test_prune_property_on_generated_datasets():
    rng = random.Random(43)
    for _ in range(20):
        ds = random_dataset(rng, max_records=80)
        tree = id3_build(ds)
        rules = extract_rules(tree, ds)
        assert len(rules) == tree_stats(tree).leaves
        assert sum(r.support for r in rules) == len(ds)
        for rec in ds.records:
            assert sum(1 for rule in rules if matches(rule, rec)) == 1
        pruned = prune(tree, 3)
        assert prune(pruned, 3).root == pruned.root
        assert tree_stats(pruned).leaves <= tree_stats(tree).leaves
