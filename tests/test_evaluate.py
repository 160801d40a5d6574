import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import gradetree.evaluate
from conftest import make_dataset, random_dataset, tiny_schema
from gradetree.dataset import Attribute, AttributeSchema, Dataset, Record, class_distribution
from gradetree.evaluate import ConfusionMatrix, accuracy, confusion, leave_one_out
from gradetree.tree import (
    Criterion,
    DecisionTree,
    Internal,
    Leaf,
    TreeConfig,
    id3_build,
    model_to_json_dict,
    node_support,
    predict,
    prune,
)

# Baseline numbers for the bundled fixture, frozen from a run of the
# procedure itself (no published counterpart exists). Documented in the
# README.
FIXTURE_LOO_ACCURACY = 0.52


def constant_tree(schema, label, n=10):
    """A tree that always predicts `label` (trained on uniform data)."""
    values = {a.name: a.domain[0] for a in schema.attributes}
    ds = Dataset(schema, tuple(Record(values, label) for _ in range(n)))
    return id3_build(ds)


def test_accuracy_one_on_agreeing_data():
    schema = tiny_schema(classes=("First", "Fail"))
    tree = constant_tree(schema, "First")
    ds = make_dataset(schema, [(("a", "b"), "First")] * 4)
    assert accuracy(tree, ds) == 1.0


def test_accuracy_of_constant_classifier_is_the_label_fraction():
    schema = tiny_schema(classes=("First", "Fail"))
    tree = constant_tree(schema, "First")
    rows = [(("a", "a"), "First")] * 3 + [(("a", "b"), "Fail")] * 7
    ds = make_dataset(schema, rows)
    assert accuracy(tree, ds) == pytest.approx(0.3)


def test_unpruned_fixture_tree_is_perfect_on_training(students, fixture_tree):
    # the fixture has no contradictory duplicates, so the whole set applies
    assert accuracy(fixture_tree, students) == 1.0


def test_accuracy_rejects_empty_dataset(students, fixture_tree):
    with pytest.raises(ValueError):
        accuracy(fixture_tree, Dataset(students.schema, ()))


def test_confusion_of_perfect_classifier_is_diagonal(students, fixture_tree):
    matrix = confusion(fixture_tree, students)
    counts = class_distribution(students).counts
    for a in matrix.classes:
        for p in matrix.classes:
            assert matrix.counts[(a, p)] == (counts[a] if a == p else 0)
    assert matrix.total == 50
    assert matrix.accuracy == 1.0


def test_confusion_of_constant_classifier_has_one_column(students):
    uniform = Dataset(
        students.schema, tuple(Record(r.values, "First") for r in students.records)
    )
    tree = id3_build(uniform)
    matrix = confusion(tree, students)
    expected = {"First": 14, "Second": 15, "Third": 13, "Fail": 8}
    for a in matrix.classes:
        for p in matrix.classes:
            assert matrix.counts[(a, p)] == (expected[a] if p == "First" else 0)
    assert matrix.total == 50


def test_accuracy_equals_diagonal_fraction_exactly():
    rng = random.Random(47)
    for _ in range(15):
        ds = random_dataset(rng, max_records=60, contradiction_free=False)
        tree = id3_build(ds, TreeConfig(min_leaf_support=3))
        matrix = confusion(tree, ds)
        assert matrix.total == len(ds)
        assert accuracy(tree, ds) == matrix.accuracy


def test_confusion_render_is_deterministic(students, fixture_tree):
    m1 = confusion(fixture_tree, students)
    m2 = confusion(fixture_tree, students)
    assert m1.render() == m2.render()
    assert m1.to_json_dict() == m2.to_json_dict()


def test_leave_one_out_on_identical_records_is_perfect():
    schema = tiny_schema()
    ds = make_dataset(schema, [(("a", "b"), "c0"), (("a", "b"), "c0")])
    result = leave_one_out(ds)
    assert result.accuracy == 1.0


def test_leave_one_out_on_contradictory_pair_is_zero():
    schema = tiny_schema()
    ds = make_dataset(schema, [(("a", "b"), "c0"), (("a", "b"), "c1")])
    result = leave_one_out(ds)
    assert result.accuracy == 0.0


def test_leave_one_out_needs_two_records(students):
    with pytest.raises(ValueError):
        leave_one_out(Dataset(students.schema, students.records[:1]))


def test_fixture_leave_one_out_baseline(students):
    result = leave_one_out(students)
    assert result.accuracy == pytest.approx(FIXTURE_LOO_ACCURACY)
    assert result.confusion.total == 50
    assert result.confusion.accuracy == pytest.approx(result.accuracy)


# --- code-routed evaluation against tree.predict ----------------------------


def counted_with_predict(tree, dataset):
    """Accuracy and confusion counts from one ``tree.predict`` per record."""
    classes = dataset.schema.class_domain
    counts = {(a, p): 0 for a in classes for p in classes}
    hits = 0
    for rec in dataset.records:
        predicted = predict(tree, rec.values)[0]
        counts[(rec.label, predicted)] += 1
        hits += predicted == rec.label
    return hits / len(dataset), counts


def assert_evaluators_match_predict(tree, dataset):
    expected_accuracy, expected_counts = counted_with_predict(tree, dataset)
    assert accuracy(tree, dataset) == expected_accuracy
    matrix = confusion(tree, dataset)
    assert list(matrix.counts.items()) == list(expected_counts.items())


def leaf_of(tree, values):
    node = tree.root
    while isinstance(node, Internal):
        node = node.branches[values[node.attribute]]
    return node


def test_code_routed_evaluators_match_predict_on_random_trees():
    empty_branch_rows = 0
    for seed in range(50):
        rng = random.Random(seed)
        train = random_dataset(rng, max_records=60, contradiction_free=seed % 2 == 0)
        schema = train.schema
        domains = [a.domain for a in schema.attributes]
        # every combination of values (up to 400), so empty branches are reached too
        unseen = [
            Record(dict(zip(schema.attribute_names, values)), rng.choice(schema.class_domain))
            for values in itertools.islice(itertools.product(*domains), 400)
        ]
        evaluated = Dataset(schema, train.records + tuple(unseen))
        for max_depth, min_support in itertools.product((None, 2), (0, 3)):
            tree = id3_build(train, TreeConfig(max_depth=max_depth, min_leaf_support=min_support))
            assert_evaluators_match_predict(tree, evaluated)
            empty_branch_rows += sum(leaf_of(tree, r.values).support == 0 for r in evaluated)
    assert empty_branch_rows > 0  # support-0 leaves were reached


def with_branches_dropped(node, rng):
    """A copy of a subtree that leaves out some branches, more often empty ones; a node keeps one at least."""
    if isinstance(node, Leaf):
        return node
    kept = {v: child for v, child in node.branches.items() if rng.random() > (0.1 if node_support(child) else 0.5)}
    kept = kept or dict([next(iter(node.branches.items()))])
    return Internal(node.attribute, {v: with_branches_dropped(child, rng) for v, child in kept.items()})


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), drops=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_trees_are_equal_exactly_when_their_model_documents_are(seed, drops):
    rng = random.Random(seed)
    train = random_dataset(rng, max_records=40, contradiction_free=seed % 2 == 0)
    grown = id3_build(train, TreeConfig(max_depth=rng.choice((None, 2))))
    first, second = (
        DecisionTree(with_branches_dropped(grown.root, random.Random(d)), train.schema, grown.config, len(train))
        for d in drops
    )
    assert (first == second) == (model_to_json_dict(first) == model_to_json_dict(second))


def test_code_routed_evaluators_match_predict_on_the_pruned_fixture_tree(students, fixture_tree):
    pruned = prune(fixture_tree, 3)
    assert pruned != fixture_tree
    assert_evaluators_match_predict(pruned, students)


def test_code_routed_evaluators_keep_predicts_fallback_for_a_missing_branch():
    schema = tiny_schema(n_attrs=1, domain=("a", "b", "c"))
    dist = class_distribution(make_dataset(schema, [(("a",), "c1")] * 2 + [(("b",), "c0")]))
    lopsided = Internal("A0", {
        "a": Leaf("c1", 2, class_distribution(make_dataset(schema, [(("a",), "c1")] * 2))),
        "b": Leaf("c0", 1, class_distribution(make_dataset(schema, [(("b",), "c0")]))),
    })  # no "c" branch: predict falls back to the node's majority, c1
    tree = DecisionTree(lopsided, schema, TreeConfig(), dist.total)
    dataset = make_dataset(schema, [(("a",), "c1"), (("b",), "c1"), (("c",), "c1"), (("c",), "c0")])
    assert predict(tree, {"A0": "c"})[0] == "c1"
    assert_evaluators_match_predict(tree, dataset)
    assert accuracy(tree, dataset) == 0.5


def test_evaluators_reject_a_dataset_over_another_schema(fixture_tree):
    other = make_dataset(tiny_schema(), [(("a", "b"), "c0")])
    for evaluate in (accuracy, confusion):
        with pytest.raises(ValueError, match="dataset schema does not match the tree's schema"):
            evaluate(fixture_tree, other)


# --- leave-one-out against the per-fold Dataset path ------------------------


def leave_one_out_per_fold_dataset(dataset, config):
    """Leave-one-out as first written: a validated Dataset per fold, ``tree.predict`` per held-out record."""
    classes = dataset.schema.class_domain
    counts = {(a, p): 0 for a in classes for p in classes}
    hits = 0
    for i, held_out in enumerate(dataset.records):
        rest = dataset.records[:i] + dataset.records[i + 1:]
        tree = id3_build(Dataset(dataset.schema, rest), config)
        predicted = predict(tree, held_out.values)[0]
        counts[(held_out.label, predicted)] += 1
        hits += predicted == held_out.label
    return hits / len(dataset), ConfusionMatrix(classes, counts)


@pytest.mark.parametrize("contradiction_free", [True, False])
def test_leave_one_out_matches_the_per_fold_dataset_path(contradiction_free):
    for seed in range(30):
        dataset = random_dataset(random.Random(seed), max_records=40, contradiction_free=contradiction_free)
        if len(dataset) < 2:
            continue
        for criterion in Criterion:
            config = TreeConfig(
                criterion, max_depth=(None, 2)[seed % 2], min_leaf_support=(0, 3)[seed // 2 % 2]
            )
            result = leave_one_out(dataset, config)
            expected_accuracy, expected_matrix = leave_one_out_per_fold_dataset(dataset, config)
            assert result.accuracy == expected_accuracy
            assert list(result.confusion.counts.items()) == list(expected_matrix.counts.items())


def test_fixture_leave_one_out_is_exactly_the_baseline_with_the_same_matrix(students):
    result = leave_one_out(students)
    assert result.accuracy == FIXTURE_LOO_ACCURACY
    assert result.confusion == leave_one_out_per_fold_dataset(students, TreeConfig())[1]


@pytest.mark.parametrize("config", [TreeConfig(Criterion.GAIN_RATIO), TreeConfig(max_depth=2)],
                         ids=["gain-ratio", "max-depth-2"])
def test_fixture_leave_one_out_matches_the_per_fold_dataset_path(students, config):
    result = leave_one_out(students, config)
    assert tuple(result) == leave_one_out_per_fold_dataset(students, config)


def test_a_held_out_row_that_reaches_an_empty_branch_gets_the_fold_roots_majority():
    schema = AttributeSchema(
        (Attribute("A", ("a", "b", "c")), Attribute("B", ("x", "y"))), Attribute("Y", ("p", "q"))
    )
    rows = [(("a", "x"), "p"), (("a", "y"), "p"), (("b", "x"), "q"), (("b", "y"), "q"), (("c", "x"), "q")]
    dataset = make_dataset(schema, rows)
    # without (c, x, q) the fold splits on A, and c's part is empty: the
    # leaf there carries the fold root's 2-2 distribution, whose tie goes to p
    fold = id3_build(make_dataset(schema, rows[:-1]))
    assert fold.root.attribute == "A" and fold.root.branches["c"].support == 0
    result = leave_one_out(dataset)
    assert result.accuracy == 0.8
    assert result.confusion == leave_one_out_per_fold_dataset(dataset, TreeConfig())[1]
    assert result.confusion.counts == {("p", "p"): 2, ("p", "q"): 0, ("q", "p"): 1, ("q", "q"): 2}


def test_no_fold_expands_more_than_one_path(students, monkeypatch):
    folds = []

    def counting_expander(*args):
        expand = expander(*args)

        def counted(item):
            if item[2] == 0:  # a root item starts the next fold
                folds.append(0)
            folds[-1] += 1
            return expand(item)

        return counted

    expander = gradetree.evaluate._expander
    monkeypatch.setattr(gradetree.evaluate, "_expander", counting_expander)
    assert leave_one_out(students).accuracy == FIXTURE_LOO_ACCURACY
    assert len(folds) == len(students)
    assert max(folds) <= len(students.schema.attributes) + 1
    assert sum(folds) == 189  # the 50 whole fold trees hold 2,574 nodes
