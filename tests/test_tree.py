import copy
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import gradetree.tree
from conftest import make_dataset, naive_gain, random_dataset, tiny_schema
from gradetree.dataset import (
    Attribute,
    AttributeSchema,
    ClassDistribution,
    Dataset,
    Record,
    ValidationError,
    class_distribution,
    load_students,
)
from gradetree.evaluate import accuracy
from gradetree.rules import extract_rules
from gradetree.tree import (
    Criterion,
    DecisionTree,
    Internal,
    Leaf,
    TreeConfig,
    id3_build,
    load_model,
    model_to_json_dict,
    node_distribution,
    node_support,
    predict,
    prune,
    save_model,
    to_dot,
    tree_stats,
)


def relabel(dataset, label):
    return Dataset(
        dataset.schema,
        tuple(Record(r.values, label) for r in dataset.records),
    )


def walk_leaves(node, path=()):
    if isinstance(node, Leaf):
        yield node, path
    else:
        for value, child in node.branches.items():
            yield from walk_leaves(child, path + ((node.attribute, value),))


# --- construction ------------------------------------------------------------


def test_uniformly_labeled_data_builds_a_single_leaf(students):
    tree = id3_build(relabel(students, "First"))
    assert isinstance(tree.root, Leaf)
    assert tree.root.label == "First"
    assert tree.root.support == 50


def test_perfectly_separating_attribute_gives_depth_one_tree():
    schema = tiny_schema(n_attrs=2)
    ds = make_dataset(schema, [(("a", "a"), "c0"), (("b", "a"), "c1")])
    tree = id3_build(ds)
    assert isinstance(tree.root, Internal)
    assert tree.root.attribute == "A0"
    assert tree_stats(tree) == (2, 3, 1)
    labels = {v: leaf.label for v, leaf in tree.root.branches.items()}
    assert labels == {"a": "c0", "b": "c1"}


def test_fixture_root_is_argmax_of_recomputed_gains(students, fixture_tree):
    oracle = {a: naive_gain(students, a) for a in students.schema.attribute_names}
    expected_root = max(
        students.schema.attribute_names,
        key=lambda a: (oracle[a], -students.schema.attribute_names.index(a)),
    )
    assert isinstance(fixture_tree.root, Internal)
    assert fixture_tree.root.attribute == expected_root


def test_tie_break_prefers_lowest_schema_index():
    # A0 and A1 are identical columns, so their scores tie exactly
    schema = tiny_schema(n_attrs=2)
    ds = make_dataset(schema, [(("a", "a"), "c0"), (("b", "b"), "c1")])
    tree = id3_build(ds)
    assert tree.root.attribute == "A0"
    tree = id3_build(ds, TreeConfig(criterion=Criterion.GAIN_RATIO))
    assert tree.root.attribute == "A0"


def test_empty_branch_becomes_majority_leaf_with_parent_distribution():
    schema = AttributeSchema(
        (Attribute("A", ("a", "b", "never")), Attribute("B", ("x", "y"))),
        Attribute("Y", ("c0", "c1")),
    )
    ds = make_dataset(
        schema,
        [(("a", "x"), "c0"), (("a", "y"), "c0"), (("a", "x"), "c0"), (("b", "x"), "c1")],
    )
    tree = id3_build(ds)
    assert tree.root.attribute == "A"
    ghost = tree.root.branches["never"]
    assert isinstance(ghost, Leaf)
    assert ghost.support == 0
    assert ghost.label == "c0"  # majority of the parent's 4 records
    assert ghost.distribution == class_distribution(ds)


def test_build_rejects_empty_dataset_and_predictorless_schema(students):
    with pytest.raises(ValueError):
        id3_build(Dataset(students.schema, ()))
    bare = AttributeSchema((), Attribute("Y", ("c0", "c1")))
    ds = Dataset(bare, (Record({}, "c0"), Record({}, "c1")))
    with pytest.raises(ValueError):
        id3_build(ds)


def test_value_changed_after_validation_names_its_cell():
    ds = load_students()
    with pytest.raises(TypeError):
        ds.records[3].values["ATT"] = "Bogus"  # Record.values is read-only
    changed = Record({**ds.records[3].values, "ATT": "Bogus"}, ds.records[3].label)
    with pytest.raises(ValidationError, match=r"row 4, column 'ATT': value 'Bogus'") as info:
        id3_build(Dataset(ds.schema, ds.records[:3] + (changed,) + ds.records[4:]))
    assert (info.value.row, info.value.column, info.value.value) == (4, "ATT", "Bogus")


def test_max_depth_caps_the_tree(students):
    tree = id3_build(students, TreeConfig(max_depth=1))
    assert tree_stats(tree).depth <= 1
    assert isinstance(tree.root, Internal)
    for child in tree.root.branches.values():
        assert isinstance(child, Leaf)


def test_config_validation():
    for fields, message in [
        ({"min_leaf_support": -1}, "min_leaf_support must be an integer >= 0, not -1"),
        ({"max_depth": 0}, "max_depth must be None or an integer >= 1, not 0"),
        # fields that save_model wrote and load_model refused
        ({"min_leaf_support": True}, "min_leaf_support must be an integer >= 0, not True"),
        ({"min_leaf_support": 1.0}, "min_leaf_support must be an integer >= 0, not 1.0"),
        ({"max_depth": 2.5}, "max_depth must be None or an integer >= 1, not 2.5"),
        ({"max_depth": True}, "max_depth must be None or an integer >= 1, not True"),
        ({"criterion": "gini"}, "'gini' is not a valid Criterion"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TreeConfig(**fields)


def test_a_criterion_given_by_its_value_builds_as_its_member(tmp_path, students):
    assert TreeConfig(criterion="gain") == TreeConfig()
    assert TreeConfig(criterion="gain-ratio") == TreeConfig(Criterion.GAIN_RATIO)
    tree = id3_build(students, TreeConfig(criterion="gain"))
    assert tree == id3_build(students) and tree_stats(tree).leaves == 35
    save_model(tree, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json") == tree


# --- prediction ---------------------------------------------------------------


def test_single_leaf_predicts_its_label(students):
    tree = id3_build(relabel(students, "First"))
    label, dist = predict(tree, students.records[20].values)
    assert label == "First"
    assert dist.total == 50


def test_depth_one_tree_follows_the_branch():
    schema = tiny_schema(n_attrs=1, classes=("First", "Fail"))
    ds = make_dataset(schema, [(("a",), "First"), (("b",), "Fail")])
    tree = id3_build(ds)
    assert predict(tree, {"A0": "b"})[0] == "Fail"
    assert predict(tree, {"A0": "a"})[0] == "First"


def test_unpruned_tree_reproduces_every_training_label(students, fixture_tree):
    # the property holds on the contradiction-free subset; scan first
    seen = {}
    contradiction_free = []
    for rec in students.records:
        key = tuple(sorted(rec.values.items()))
        seen.setdefault(key, set()).add(rec.label)
    for rec in students.records:
        key = tuple(sorted(rec.values.items()))
        if len(seen[key]) == 1:
            contradiction_free.append(rec)
    assert len(contradiction_free) == 50  # the fixture has no contradictions
    for rec in contradiction_free:
        assert predict(fixture_tree, rec.values)[0] == rec.label


def test_predict_rejects_out_of_domain_value(fixture_tree):
    values = {a: d[0] for a, d in
              ((a.name, a.domain) for a in fixture_tree.schema.attributes)}
    values[fixture_tree.root.attribute] = "Stupendous"
    with pytest.raises(ValidationError):
        predict(fixture_tree, values)


def test_predict_requires_requested_attributes(fixture_tree):
    with pytest.raises(KeyError):
        predict(fixture_tree, {})


def test_predict_routes_a_loaded_model_on_its_flat_form_and_builds_no_root_view(tmp_path, students):
    path = tmp_path / "model.json"
    save_model(id3_build(students, TreeConfig(criterion=Criterion.GAIN_RATIO)), path)
    tree = load_model(path)
    predicted = [predict(tree, rec.values) for rec in students.records]
    root = tree.schema.attributes[tree._flat.positions[0]]
    with pytest.raises(KeyError) as missing:
        predict(tree, {})
    with pytest.raises(ValidationError) as outside:
        predict(tree, {**students.records[0].values, root.name: "Stupendous"})
    assert "_root" not in vars(tree)
    assert missing.value.args == (f"prediction input is missing attribute {root.name!r}",)
    err = outside.value
    assert (str(err), err.column, err.value) == (
        f"column {root.name!r}: value 'Stupendous' not in domain {sorted(root.domain)}", root.name, "Stupendous")
    walked = []
    for rec in students.records:  # the nested view, walked from its root
        node = tree.root
        while isinstance(node, Internal):
            node = node.branches[rec.values[node.attribute]]
        walked.append((node.label, node.distribution))
    assert predicted == walked


# --- stats ---------------------------------------------------------------------


def test_stats_of_single_leaf(students):
    tree = id3_build(relabel(students, "Fail"))
    assert tree_stats(tree) == (1, 1, 0)


def test_stats_of_depth_one_three_way_split():
    schema = AttributeSchema(
        (Attribute("A", ("p", "q", "r")),), Attribute("Y", ("c0", "c1", "c2"))
    )
    ds = make_dataset(schema, [(("p",), "c0"), (("q",), "c1"), (("r",), "c2")])
    assert tree_stats(id3_build(ds)) == (3, 4, 1)


def test_fixture_stats_and_support_conservation(students, fixture_tree):
    stats = tree_stats(fixture_tree)
    assert stats == (35, 52, 5)
    assert node_support(fixture_tree.root) == 50
    assert sum(leaf.support for leaf, _ in walk_leaves(fixture_tree.root)) == 50


# --- pruning -------------------------------------------------------------------


def test_prune_with_min_support_one_changes_nothing(fixture_tree):
    assert prune(fixture_tree, 1).root == fixture_tree.root
    with pytest.raises(ValueError, match="^min_support must be >= 1$"):
        prune(fixture_tree, 0)


def test_prune_above_training_size_collapses_to_majority_leaf(students, fixture_tree):
    pruned = prune(fixture_tree, 51)
    assert isinstance(pruned.root, Leaf)
    assert pruned.root.label == "Second"  # global majority, 15/50
    assert pruned.root.support == 50


def test_prune_keeps_nodes_at_exactly_the_threshold(fixture_tree):
    # support < min_support collapses; support == min_support survives
    pruned = prune(fixture_tree, 50)
    assert isinstance(pruned.root, Internal)
    for child in pruned.root.branches.values():
        assert isinstance(child, Leaf)


def test_prune_is_idempotent_and_shrinks_the_tree(students, fixture_tree):
    from gradetree.evaluate import accuracy

    for k in (2, 3, 5, 10):
        pruned = prune(fixture_tree, k)
        assert prune(pruned, k).root == pruned.root
        assert tree_stats(pruned).leaves <= tree_stats(fixture_tree).leaves
        assert accuracy(pruned, students) <= accuracy(fixture_tree, students)
    pruned3 = prune(fixture_tree, 3)
    assert tree_stats(pruned3) == (30, 44, 4)
    assert accuracy(pruned3, students) == pytest.approx(0.94)


def test_build_time_min_support_equals_post_hoc_prune(students):
    for k in (2, 3, 7, 20, 50):
        built = id3_build(students, TreeConfig(min_leaf_support=k))
        pruned = prune(id3_build(students), k)
        assert built == pruned


def test_pruned_leaf_keeps_subtree_distribution(students, fixture_tree):
    pruned = prune(fixture_tree, 51)
    assert pruned.root.distribution == class_distribution(students)


# --- frozen values ----------------------------------------------------------------


def test_trees_are_frozen_and_survive_pickle_and_deepcopy(fixture_tree):
    leaf = next(node for node, _ in walk_leaves(fixture_tree.root))
    with pytest.raises(TypeError):
        fixture_tree.root.branches["x"] = 1
    with pytest.raises(TypeError):
        leaf.distribution.counts["Fail"] = 99
    assert "x" not in fixture_tree.root.branches and leaf.distribution.counts["Fail"] != 99
    for copied in (pickle.loads(pickle.dumps(fixture_tree)), copy.deepcopy(fixture_tree)):
        assert copied == fixture_tree
        assert to_dot(copied) == to_dot(fixture_tree)


def test_trees_keep_copies_of_the_mappings_they_are_built_from():
    counts = {"c0": 1, "c1": 0}
    leaf = Leaf("c0", 1, ClassDistribution(counts, 1))
    branches = {"a": leaf, "b": leaf}
    node = Internal("A0", branches)
    counts["c0"] = 5
    branches["a"] = Leaf("c1", 0, leaf.distribution)
    assert leaf.distribution.counts == {"c0": 1, "c1": 0}
    assert node.branches["a"] is leaf


def test_a_root_view_survives_pickle_and_deepcopy(fixture_tree):
    root = fixture_tree.root
    assert isinstance(root, Internal)
    assert pickle.loads(pickle.dumps(root)) == root
    assert copy.deepcopy(root) == root


def test_a_missing_branch_equals_an_explicit_majority_leaf_of_its_node():
    schema = tiny_schema(n_attrs=1, domain=("a", "b", "c"))
    branches = {"a": Leaf("c1", 2, ClassDistribution({"c0": 0, "c1": 2}, 2)),
                "b": Leaf("c0", 1, ClassDistribution({"c0": 1, "c1": 0}, 1))}
    lacking = Internal("A0", branches)
    dist = node_distribution(lacking)
    explicit = Internal("A0", {**branches, "c": Leaf(dist.majority(), 0, dist)})
    first, second = (DecisionTree(root, schema, TreeConfig(), 3) for root in (lacking, explicit))
    assert first == second and model_to_json_dict(first) == model_to_json_dict(second)
    assert first.root == second.root


def test_a_hand_built_branch_outside_its_domain_is_refused():
    leaf = Leaf("c0", 1, ClassDistribution({"c0": 1, "c1": 0}, 1))
    stray = Leaf("c1", 5, ClassDistribution({"c0": 0, "c1": 5}, 5))
    root = Internal("A0", {"a": leaf, "b": leaf, "zzz": stray})
    with pytest.raises(ValueError, match=r"branches for 'A0' name values outside its domain: \['zzz'\]"):
        DecisionTree(root, tiny_schema(n_attrs=1), TreeConfig(), 6)


def test_a_hand_built_node_on_an_unknown_attribute_is_refused():
    leaf = Leaf("c0", 1, ClassDistribution({"c0": 1, "c1": 0}, 1))
    with pytest.raises(ValueError, match="^unknown attribute 'XYZ'$"):
        DecisionTree(Internal("XYZ", {"a": leaf}), tiny_schema(n_attrs=1), TreeConfig(), 1)


def node_doc(node) -> dict:
    """A hand-built node's model document, as save_model would write it, whatever the node holds."""
    if isinstance(node, Leaf):
        return {"kind": "leaf", "label": node.label, "support": node.support,
                "distribution": dict(node.distribution.counts)}
    return {"kind": "internal", "attribute": node.attribute,
            "branches": {v: node_doc(child) for v, child in node.branches.items()}}


FINE = Leaf("c0", 1, ClassDistribution({"c0": 1, "c1": 0}, 1))
# internal nodes over tiny_schema(n_attrs=1) that no model file may hold, with the one message both readers give
BAD_NODES = {
    "an unknown attribute": (Internal("XYZ", {"a": FINE, "b": FINE}), "unknown attribute 'XYZ'"),
    "the class attribute": (Internal("Y", {"c0": FINE, "c1": FINE}), "unknown attribute 'Y'"),
    "an attribute that is not a string": (Internal(0, {"a": FINE, "b": FINE}),
                                          "model node key 'attribute' must be a string, not int"),
    "a value outside the domain": (Internal("A0", {"a": FINE, "b": FINE, "zzz": FINE}),
                                   "branches for 'A0' name values outside its domain: ['zzz']"),
    "an outside value and a missing branch": (Internal("A0", {"zzz": FINE, "a": FINE}),
                                              "branches for 'A0' name values outside its domain: ['zzz']"),
}


@pytest.mark.parametrize("case", sorted(BAD_NODES))
def test_a_bad_internal_node_is_refused_alike_built_by_hand_and_read_from_a_model_file(tmp_path, case):
    node, message = BAD_NODES[case]
    schema = tiny_schema(n_attrs=1)
    doc = model_to_json_dict(DecisionTree(Internal("A0", {"a": FINE, "b": FINE}), schema, TreeConfig(), 2))
    for root in (node, Internal("A0", {"a": FINE, "b": node})):  # at the root, and under a node
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DecisionTree(root, schema, TreeConfig(), 2)
        doc["root"] = node_doc(root)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model_write(tmp_path, doc)


def test_a_deep_chain_lacking_a_branch_at_every_level_reads_each_leaf_at_most_twice(monkeypatch):
    levels = 400  # a chain: "a" is a leaf, "b" the chain below, "c" missing, or written out in the explicit twin
    lacking = explicit = Leaf("c1", 1, ClassDistribution({"c1": 1}, 1))
    counts = {"c0": 0, "c1": 1}  # the records routed through the chain below, level by level
    for i in range(levels):
        leaf = Leaf(f"c{i % 3 % 2}", 1, ClassDistribution({f"c{i % 3 % 2}": 1}, 1))
        counts[leaf.label] += 1
        dist = ClassDistribution(counts, sum(counts.values()))
        lacking = Internal("A0", {"a": leaf, "b": lacking})
        explicit = Internal("A0", {"a": leaf, "b": explicit, "c": Leaf(dist.majority(), 0, dist)})
    reads = []
    read = gradetree.tree._leaf_from_dict
    monkeypatch.setattr(gradetree.tree, "_leaf_from_dict", lambda *args: reads.append(args) or read(*args))
    schema = tiny_schema(n_attrs=1, domain=("a", "b", "c"))
    tree = DecisionTree(lacking, schema, TreeConfig(), levels + 1)
    assert tree_stats(tree).leaves == 2 * levels + 1
    assert len(reads) <= 2 * tree_stats(tree).leaves
    assert tree == DecisionTree(explicit, schema, TreeConfig(), levels + 1)


# leaves that save_model could write and load_model would refuse, with the reader's message
UNREADABLE_LEAVES = [
    (Leaf("zz", 1, ClassDistribution({"c0": 1, "c1": 0}, 1)), "model leaf label 'zz' not in class domain"),
    (Leaf("c0", 1, ClassDistribution({"c0": 1, "zz": 0}, 1)),
     "model distribution names unknown classes ['zz']"),
    (Leaf("c0", -1, ClassDistribution({"c0": 1, "c1": 0}, 1)),
     "model leaf key 'support' must be >= 0, not -1"),
    (Leaf("c0", 1, ClassDistribution({"c0": 1, "c1": -1}, 0)),
     "model distribution counts must be integers >= 0: {'c0': 1, 'c1': -1}"),
]


def test_a_hand_built_leaf_that_a_model_file_could_not_hold_is_refused_as_the_reader_refuses_it(tmp_path):
    schema = tiny_schema(n_attrs=1)
    fine = Leaf("c0", 1, ClassDistribution({"c0": 1, "c1": 0}, 1))
    doc = model_to_json_dict(DecisionTree(Internal("A0", {"a": fine, "b": fine}), schema, TreeConfig(), 2))
    for leaf, message in UNREADABLE_LEAVES:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DecisionTree(leaf, schema, TreeConfig(), 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):  # under a node, as in a file
            DecisionTree(Internal("A0", {"a": fine, "b": leaf}), schema, TreeConfig(), 2)
        doc["root"]["branches"]["b"] = {"kind": "leaf", "label": leaf.label, "support": leaf.support,
                                        "distribution": dict(leaf.distribution.counts)}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model_write(tmp_path, doc)


@pytest.mark.parametrize("size, message", [
    (-1, "model key 'training_size' must be >= 0, not -1"),
    (1.5, "model key 'training_size' must be an integer, not float"),
    (True, "model key 'training_size' must be an integer, not bool"),
])
def test_a_training_size_that_a_model_file_could_not_hold_is_refused(size, message):
    leaf = Leaf("c0", 1, ClassDistribution({"c0": 1, "c1": 0}, 1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DecisionTree(leaf, tiny_schema(n_attrs=1), TreeConfig(), size)


@st.composite
def hand_built_trees(draw):
    """A schema and a tree built by hand over it: leaves of any support, 0 included, whose
    distributions may list only some classes, in any order, with any total; nodes that may
    lack branches, and may test an attribute again below itself."""
    classes = draw(st.permutations(["c0", "c1", "c2"]))
    domains = draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True),
                            min_size=1, max_size=3))
    schema = AttributeSchema(tuple(Attribute(f"A{i}", tuple(d)) for i, d in enumerate(domains)),
                             Attribute("Y", tuple(classes)))
    counts = st.dictionaries(st.sampled_from(classes), st.integers(0, 5), max_size=3)

    def node(depth):
        if depth >= 3 or draw(st.booleans()):
            partial = draw(counts)
            total = draw(st.sampled_from([sum(partial.values()), draw(st.integers(0, 9))]))
            label, support = draw(st.sampled_from(classes)), draw(st.integers(0, 4))
            return Leaf(label, support, ClassDistribution(partial, total))
        p = draw(st.integers(0, len(domains) - 1))
        present = draw(st.lists(st.sampled_from(domains[p]), unique=True))
        return Internal(f"A{p}", {v: node(depth + 1) for v in present})

    return schema, node(0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hand")


@settings(max_examples=300, deadline=None)
@given(case=hand_built_trees(), training_size=st.integers(0, 20))
def test_a_hand_built_tree_reads_back_equal_and_saves_the_same_bytes(workdir, case, training_size):
    schema, root = case
    tree = DecisionTree(root, schema, TreeConfig(), training_size)
    save_model(tree, workdir / "model.json")
    loaded = load_model(workdir / "model.json")
    assert loaded == tree
    save_model(loaded, workdir / "again.json")
    assert (workdir / "again.json").read_bytes() == (workdir / "model.json").read_bytes()
    for leaf in filter(None, tree._flat.nodes):  # every class in domain order, and their sum
        assert tuple(leaf.distribution.counts) == schema.class_domain and leaf.label in schema.class_domain
        assert leaf.distribution.total == sum(leaf.distribution.counts.values())


# --- persistence ----------------------------------------------------------------


def test_model_round_trip_preserves_the_tree(tmp_path, students, fixture_tree):
    path = tmp_path / "model.json"
    save_model(fixture_tree, path)
    loaded = load_model(path)
    assert loaded == fixture_tree


def test_model_file_is_byte_stable(tmp_path, fixture_tree):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(fixture_tree, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_readers_take_the_stored_flat_form_and_build_no_root_view(tmp_path, monkeypatch, students):
    import gradetree.tree

    monkeypatch.setattr(gradetree.tree, "_flatten", lambda *args: pytest.fail("a tree was flattened"))
    path = tmp_path / "model.json"
    grown = id3_build(students)
    save_model(grown, path)
    loaded = load_model(path)
    for tree in (grown, loaded):
        save_model(tree, tmp_path / "again.json")
        tree_stats(tree)
        to_dot(tree)
        accuracy(tree, students)
        extract_rules(tree, students)
        pruned = prune(tree, 3)
        assert "_root" not in vars(tree) and "_root" not in vars(pruned)
    assert loaded == grown and (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_a_tree_built_from_a_root_flattens_it_once_and_views_its_flat_form(tmp_path, monkeypatch, fixture_tree):
    import gradetree.tree

    calls = []
    flatten = gradetree.tree._flatten
    monkeypatch.setattr(gradetree.tree, "_flatten", lambda *args: calls.append(1) or flatten(*args))
    root = fixture_tree.root
    tree = DecisionTree(root, fixture_tree.schema, fixture_tree.config, fixture_tree.training_size)
    save_model(tree, tmp_path / "model.json")
    tree_stats(tree)
    prune(tree, 1)
    assert len(calls) == 1
    assert tree.root == root and tree == fixture_tree


def test_load_model_checks_schema_digest(tmp_path, students, fixture_tree):
    path = tmp_path / "model.json"
    save_model(fixture_tree, path)
    # explicit schema with a different shape is rejected
    other = AttributeSchema(students.schema.attributes[:-1], students.schema.class_attribute)
    with pytest.raises(ValueError, match="differently shaped schema"):
        load_model(path, schema=other)
    # matching schema is accepted
    assert load_model(path, schema=students.schema) == fixture_tree


def test_load_model_rejects_tampering(tmp_path, fixture_tree):
    path = tmp_path / "model.json"
    save_model(fixture_tree, path)
    doc = json.loads(path.read_text())

    bad = dict(doc, schema_digest="0" * 64)
    with pytest.raises(ValueError, match="digest"):
        load_model_write(tmp_path, bad)

    bad = dict(doc, format="something.else")
    with pytest.raises(ValueError, match="not a"):
        load_model_write(tmp_path, bad)

    bad = dict(doc, format_version=99)
    with pytest.raises(ValueError, match="version"):
        load_model_write(tmp_path, bad)

    bad = json.loads(json.dumps(doc))
    branches = bad["root"]["branches"]
    branches.pop(next(iter(branches)))
    with pytest.raises(ValueError, match="cover"):
        load_model_write(tmp_path, bad)


def load_model_write(tmp_path, doc):
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(doc))
    return load_model(p)


# --- generated-dataset properties -------------------------------------------------


def assert_structural_invariants(tree, dataset):
    # no attribute repeats along any path
    def check_path(node, used):
        if isinstance(node, Leaf):
            return
        assert node.attribute not in used
        for child in node.branches.values():
            check_path(child, used | {node.attribute})

    check_path(tree.root, set())
    # branches cover their attribute's domain
    def check_domains(node):
        if isinstance(node, Leaf):
            return
        assert set(node.branches) == set(tree.schema.domain(node.attribute))
        for child in node.branches.values():
            check_domains(child)

    check_domains(tree.root)
    assert node_support(tree.root) == len(dataset)


def test_generated_contradiction_free_datasets_fit_perfectly():
    from gradetree.evaluate import accuracy

    rng = random.Random(31)
    for _ in range(40):
        ds = random_dataset(rng, max_records=120)
        tree = id3_build(ds)
        assert_structural_invariants(tree, ds)
        assert accuracy(tree, ds) == 1.0
        for k in (2, 5):
            pruned = prune(tree, k)
            assert_structural_invariants(pruned, ds)
            assert prune(pruned, k).root == pruned.root
            assert tree_stats(pruned).leaves <= tree_stats(tree).leaves


def test_gain_ratio_criterion_keeps_invariants():
    rng = random.Random(37)
    for _ in range(25):
        ds = random_dataset(rng, max_records=100, contradiction_free=False)
        tree = id3_build(ds, TreeConfig(criterion=Criterion.GAIN_RATIO))
        assert_structural_invariants(tree, ds)


def test_weighted_child_entropy_never_exceeds_parent_entropy():
    from gradetree.metrics import entropy

    rng = random.Random(41)
    for _ in range(25):
        ds = random_dataset(rng, max_records=100, contradiction_free=False)
        tree = id3_build(ds)

        def check(node, records):
            if isinstance(node, Leaf):
                return
            labels = [r.label for r in records]
            parent = entropy(class_distribution(Dataset(ds.schema, tuple(records))))
            weighted = 0.0
            for value, child in node.branches.items():
                routed = [r for r in records if r.values[node.attribute] == value]
                if routed:
                    weighted += (
                        len(routed)
                        / len(records)
                        * entropy(class_distribution(Dataset(ds.schema, tuple(routed))))
                    )
                check(child, routed)

            assert weighted <= parent + 1e-12

        check(tree.root, list(ds.records))


# --- DOT export --------------------------------------------------------------------


def test_dot_of_single_leaf(students):
    tree = id3_build(relabel(students, "First"))
    dot = to_dot(tree)
    assert dot.startswith("digraph ")
    assert dot.count("[shape=ellipse") == 1
    assert "->" not in dot


def test_dot_node_count_matches_tree_stats(fixture_tree):
    dot = to_dot(fixture_tree)
    stats = tree_stats(fixture_tree)
    declared = [line for line in dot.splitlines() if "label=" in line and "->" not in line]
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(declared) == stats.nodes
    assert len(edges) == stats.nodes - 1


# --- every view reads the one flat form --------------------------------------------


@pytest.mark.parametrize("order", ["ab", "bac"], ids=["missing-branch", "out-of-domain-order"])
def test_stats_rules_dot_and_model_files_agree_on_a_hand_built_tree(tmp_path, order):
    schema = tiny_schema(n_attrs=1, domain=("a", "b", "c"))
    rows = {"a": [(("a",), "c1")] * 2, "b": [(("b",), "c0")], "c": [(("c",), "c0")]}
    tree = DecisionTree(Internal("A0", {
        v: Leaf(rows[v][0][1], len(rows[v]), class_distribution(make_dataset(schema, rows[v]))) for v in order
    }), schema, TreeConfig(), sum(len(rows[v]) for v in order))
    dataset = make_dataset(schema, [row for part in rows.values() for row in part])
    saved = tmp_path / "model.json"
    save_model(tree, saved)
    back = load_model(saved)
    assert tree_stats(tree) == tree_stats(back) == (3, 4, 1)
    assert tree_stats(tree).leaves == len(extract_rules(tree, dataset))
    assert to_dot(tree) == to_dot(back)
