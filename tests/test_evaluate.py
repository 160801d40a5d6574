import copy
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import gradetree.evaluate
import gradetree.tree
from conftest import (
    calls_everywhere, contingency, make_dataset, random_dataset, tiny_schema, wide_dataset, with_branches_dropped
)
from gradetree.dataset import Attribute, AttributeSchema, Dataset, Record, class_distribution
from gradetree.evaluate import ConfusionMatrix, accuracy, confusion, leave_one_out
from gradetree.metrics import _by_class, lane_counter, node_scores
from gradetree.tree import (
    Criterion,
    DecisionTree,
    Internal,
    Leaf,
    TreeConfig,
    _root_item,
    id3_build,
    model_to_json_dict,
    predict,
    prune,
    tree_stats,
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


def test_confusion_counts_are_read_only_and_a_matrix_pickles_and_copies_equal(students, fixture_tree):
    matrix = confusion(fixture_tree, students)
    with pytest.raises(TypeError):
        matrix.counts[("First", "First")] += 1000
    passed = {("p", "p"): 1}
    held = ConfusionMatrix(("p",), passed)
    passed[("p", "p")] = 7  # the matrix holds a copy of the mapping passed in
    assert held.total == 1 and matrix.total == 50
    result = leave_one_out(students)
    for value in (matrix, result):
        assert pickle.loads(pickle.dumps(value)) == value and copy.deepcopy(value) == value


@pytest.mark.parametrize("classes, counts", [
    ((), {}),  # no class: render had no width to take
    (("a", "a"), {("a", "a"): 1}),  # a repeated class
    (("a", "b"), {("a", "a"): 1, ("x", "y"): -3}),  # pairs of other classes: total -2, KeyError in accuracy
    (("a", "b"), {("a", "a"): 1, ("a", "b"): 0, ("b", "a"): 0}),  # a missing pair
    (("a", "b"), {("a", "a"): 1, ("a", "b"): 0, ("b", "a"): 0, ("b", "b"): 0, ("b", "c"): 0}),  # an extra pair
    (("a",), {("a", "a"): -1}),
    (("a",), {("a", "a"): 1.0}),
    (("a",), {("a", "a"): True}),  # no bool is a count, as in a model file
])
def test_a_confusion_matrix_refuses_counts_its_methods_cannot_read(classes, counts):
    with pytest.raises(ValueError):
        ConfusionMatrix(classes, counts)


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


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    criterion=st.sampled_from(Criterion),
    max_depth=st.sampled_from((None, 1, 2, 3)),
    min_leaf_support=st.integers(0, 4),
)
def test_leave_one_out_matches_the_per_fold_dataset_path_on_tables_of_repeated_records(
    seed, criterion, max_depth, min_leaf_support
):
    # a few distinct records, each drawn again and again, mostly with its own label: folds repeat tables
    rng = random.Random(seed)
    pool = random_dataset(rng, max_attributes=4, max_records=4, contradiction_free=False)
    classes = pool.schema.class_domain
    records = tuple(
        Record(kept.values, kept.label if rng.random() < 0.75 else rng.choice(classes))
        for kept in (rng.choice(pool.records) for _ in range(rng.randint(2, 30)))
    )
    dataset = Dataset(pool.schema, records)
    config = TreeConfig(criterion, min_leaf_support, max_depth)
    assert tuple(leave_one_out(dataset, config)) == leave_one_out_per_fold_dataset(dataset, config)


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


def recording_descent(monkeypatch):
    """Wrap the growth steps leave-one-out borrows: the lists of its count calls, as (rows grouped by class,
    positions, tables), of its split calls, as (item, winner, children), and of its stop calls' counts."""
    counted, splits, stops = [], [], []

    def lanes_counted(*args):
        count = lane_counter(*args)

        def tracked(by_class, positions):
            counted.append((by_class, [*positions], tables := count(by_class, positions)))
            return tables

        return tracked

    def recording_growth(*args):
        decide, split, count, stop = growth(*args)

        def recorded_split(item, dist, best):
            splits.append((item, best, children := split(item, dist, best)))
            return children

        def recorded_stop(counts, *rest):
            stops.append([*counts])
            return stop(counts, *rest)

        return decide, recorded_split, count, recorded_stop

    growth = gradetree.evaluate._growth
    monkeypatch.setattr(gradetree.tree, "lane_counter", lanes_counted)  # growth's, which leave-one-out borrows
    monkeypatch.setattr(gradetree.evaluate, "_growth", recording_growth)
    return counted, splits, stops


def is_full_data_node(columns, by_class):
    """Whether rows grouped by class are every row that has the values its rows all share: a node of the
    full data's rows, and not such a node less a held-out row."""
    rows = {r for group in by_class for r in group}
    shared = [(column, column[min(rows)]) for column in columns if len({column[r] for r in rows}) == 1]
    return rows == {r for r in range(len(columns[0])) if all(column[r] == v for column, v in shared)}


@pytest.mark.parametrize("criterion, counts, tables, splits, stops",
                         [(Criterion.GAIN, 23, 120, 29, 75), (Criterion.GAIN_RATIO, 29, 135, 45, 89)])
def test_leave_one_out_counts_splits_and_stops_the_bundled_table_as_pinned(
    students, monkeypatch, criterion, counts, tables, splits, stops
):
    config = TreeConfig(criterion)
    expected = leave_one_out_per_fold_dataset(students, config)
    counted, split_calls, stop_calls = recording_descent(monkeypatch)
    assert tuple(leave_one_out(students, config)) == expected
    *columns, _ = students._codes
    assert all(is_full_data_node(columns, by_class) for by_class, _, _ in counted)
    # the 50 fold paths hold 189 nodes under gain, each once decided, and 839 tables
    assert (len(counted), sum(len(t) for _, _, t in counted), len(split_calls), len(stop_calls)) == (
        counts, tables, splits, stops)


@pytest.mark.parametrize("criterion", list(Criterion))
@pytest.mark.parametrize("support, depth", [(0, None), (3, None), (0, 2), (3, 2)])
def test_leave_one_out_counts_each_full_data_node_its_folds_reach_once(
    students, monkeypatch, criterion, support, depth
):
    counted, split_calls, _ = recording_descent(monkeypatch)
    config = TreeConfig(criterion, support, depth)
    rng = random.Random(5)
    for dataset in [students] + [random_dataset(rng, contradiction_free=False) for _ in range(6)]:
        if len(dataset) < 2:
            continue
        expected = leave_one_out_per_fold_dataset(dataset, config)  # its builds count by growth's counter too
        counted.clear()
        split_calls.clear()
        assert tuple(leave_one_out(dataset, config)) == expected
        *columns, labels = dataset._codes
        if not counted:  # every fold stopped at the root
            continue
        (root, positions, _), *below = counted
        assert sorted(r for group in root for r in group) == [*range(len(labels))]
        assert positions == [*range(len(columns))]
        children = {id(child[0]): child for _, _, items in split_calls for child in items}
        for by_class, positions, _ in below:  # a node counted below the root is a child split from a counted node
            child = children.get(id(by_class))
            assert child is not None and child[0] is by_class and positions == child[1]
        counted_ids = [id(by_class) for by_class, _, _ in counted]
        assert len(set(counted_ids)) == len(counted_ids)  # no node is counted twice
        assert all(id(item[0]) in counted_ids for item, _, _ in split_calls)  # and none is split uncounted
        assert all(is_full_data_node(columns, by_class) for by_class, _, _ in counted)
        split_once = [(id(item[0]), best) for item, best, _ in split_calls]
        assert len(set(split_once)) == len(split_once)  # a node is split once per winner


@pytest.mark.parametrize("criterion, stats, loo", [(Criterion.GAIN, (35, 53, 5), 0.54),
                                                   (Criterion.GAIN_RATIO, (36, 56, 6), 0.48)])
def test_a_root_forced_onto_psm_grows_and_holds_out_as_pinned(students, monkeypatch, criterion, stats, loo):
    psm = students.schema.attribute_names.index("PSM")

    def forced(keys, available):  # every root that splits splits on PSM; every other node chooses as before
        return psm if len(available) == len(students.schema.attributes) else choose(keys, available)

    choose = gradetree.tree._choose
    monkeypatch.setattr(gradetree.tree, "_choose", forced)  # the tie rule id3_build decides by
    monkeypatch.setattr(gradetree.evaluate, "_choose", forced)  # and leave-one-out
    config = TreeConfig(criterion)
    tree = id3_build(students, config)
    assert tree.root.attribute == "PSM"
    assert tuple(tree_stats(tree)) == stats
    assert leave_one_out(students, config).accuracy == loo
    assert tuple(leave_one_out(students, config)) == leave_one_out_per_fold_dataset(students, config)


@pytest.mark.parametrize("criterion, distinct", [(Criterion.GAIN, 305), (Criterion.GAIN_RATIO, 364)])
def test_leave_one_out_scores_each_distinct_table_once(students, monkeypatch, criterion, distinct):
    scored = []

    def counted(tables, *args):
        tables = [*tables]
        scored.extend(tuple(map(tuple, table)) for table in tables)
        return node_scores(tables, *args)

    monkeypatch.setattr(gradetree.evaluate, "node_scores", counted)
    config = TreeConfig(criterion)
    assert tuple(leave_one_out(students, config)) == leave_one_out_per_fold_dataset(students, config)
    # the fold paths hold 839 tables under gain and 948 under gain ratio
    assert len(scored) == len(set(scored)) == distinct


@pytest.mark.parametrize("criterion", list(Criterion))
def test_one_leave_one_out_call_builds_one_lane_counter(students, monkeypatch, criterion):
    built = calls_everywhere(monkeypatch, lane_counter)
    result = leave_one_out(students, TreeConfig(criterion))
    assert len(built) == 1  # growth's: the full tables are counted by it too
    assert tuple(result) == leave_one_out_per_fold_dataset(students, TreeConfig(criterion))
    assert criterion is not Criterion.GAIN or result.accuracy == FIXTURE_LOO_ACCURACY



@pytest.mark.parametrize("seed", [None, 1, 2, 3])  # the bundled table, then random ones
def test_each_fold_scores_its_batch_s_tables_less_its_row_sharing_every_other_row(students, monkeypatch, seed):
    dataset = students if seed is None else random_dataset(random.Random(seed), contradiction_free=False)
    assert len(dataset) >= 2
    *columns, _ = dataset._codes
    sizes = [len(a.domain) for a in dataset.schema.attributes]
    counted, _, _ = recording_descent(monkeypatch)
    scored = []  # each scoring call's tables, class counts and size, and the count call before it

    def scoring(tables, counts, total, ratio):
        scored.append((tables := [*tables], [*counts], total, counted[-1]))
        return node_scores(tables, counts, total, ratio)

    monkeypatch.setattr(gradetree.evaluate, "node_scores", scoring)
    assert tuple(leave_one_out(dataset)) == leave_one_out_per_fold_dataset(dataset, TreeConfig())
    assert scored
    for (table,), counts, total, (by_class, positions, full) in scored:  # each table scored alone
        changed = {k: [v for v, (row, kept) in enumerate(zip(table, f)) if row is not kept]
                   for k, f in enumerate(full) if len(f) == len(table)}
        ((k, (v,)),) = [(k, rows) for k, rows in changed.items() if len(rows) == 1]  # one row copied, the rest shared
        less = [*map(len, by_class)]
        (c,) = [c for c, (node, fold) in enumerate(zip(less, counts)) if node != fold]
        column = columns[positions[k]]
        held_out = next(i for i in by_class[c] if column[i] == v)  # any such row leaves the same fold node
        fold = [[r for r in group if r != held_out] for group in by_class]
        assert counts == [*map(len, fold)] and total == sum(counts)
        assert [*map(list, table)] == contingency(column, fold, sizes[positions[k]])


@pytest.mark.slow
@pytest.mark.parametrize("criterion", list(Criterion))
def test_leave_one_out_matches_the_per_fold_dataset_path_where_folds_diverge_in_bulk(monkeypatch, criterion):
    dataset = wide_dataset(3, n_rows=300)
    config = TreeConfig(criterion, max_depth=4)
    schema = dataset.schema
    *columns, labels = dataset._codes
    full_winners = {}  # each internal node of the full data's tree, as its rows by class -> its winner
    decide, split, _, _ = gradetree.tree._growth(schema, columns, labels, config)
    items = [_root_item(schema, _by_class(labels, len(schema.class_domain)))]
    while items:
        node, best = decide(item := items.pop())
        if best >= 0:
            full_winners[tuple(map(tuple, item[0]))] = best
            items += split(item, node, best)
    _, split_calls, _ = recording_descent(monkeypatch)
    assert tuple(leave_one_out(dataset, config)) == leave_one_out_per_fold_dataset(dataset, config)
    # not vacuous: some batch sends its folds to two winners or more ...
    assert max(Counter(id(item[0]) for item, _, _ in split_calls).values()) >= 2
    # ... and some folds leave the full data's path below its root, where it splits on another attribute
    assert any(item[2] >= 1 and full_winners.get(tuple(map(tuple, item[0])), best) != best
               for item, best, _ in split_calls)
