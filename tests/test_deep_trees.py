"""Trees deeper than the stack allows recursion to go.

On a one-hot table, where attribute ``A<i>`` is ``y`` only on row ``i``,
ID3 grows a chain: a table of ``2k`` attributes gives a tree ``k``
levels deep. Training at the real limit is slow, so each test here runs
on a tree of depth 201 with the recursion limit lowered to the current
stack depth plus 100 frames: a walk that recursed once per level would
raise ``RecursionError``. That holds for equality, ``repr``, pickling
and deepcopy too, which read a tree's flat form. Model files stay
depth-bound because ``json`` recurses; ``train`` stops growing one level
past ``MAX_MODEL_DEPTH``, refuses a tree deeper than that limit before it
writes, and every model it does write reads back.
"""

import contextlib
import copy
import csv
import io
import json
import pickle
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gradetree import tree as tree_module
from gradetree.cli import main
from gradetree.dataset import Attribute, AttributeSchema, ClassDistribution, Dataset, Record, dump_schema
from gradetree.evaluate import accuracy, confusion
from gradetree.rules import extract_rules
from gradetree.tree import (
    MAX_MODEL_DEPTH,
    DecisionTree,
    Internal,
    Leaf,
    TreeConfig,
    id3_build,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    node_distribution,
    node_support,
    prune,
    save_model,
    to_dot,
    tree_stats,
)

ATTRIBUTES = 402  # a chain of 201 levels
ROWS = ATTRIBUTES + 1


def one_hot(n_attributes, labels):
    """The one-hot table: row ``i`` is ``y`` in ``A<i>`` alone, and the last row in none."""
    names = [f"A{i}" for i in range(n_attributes)]
    schema = AttributeSchema(tuple(Attribute(a, ("n", "y")) for a in names), Attribute("Y", ("p", "q")))
    records = tuple(
        Record({a: "y" if i == r else "n" for i, a in enumerate(names)}, label)
        for r, label in enumerate(labels)
    )
    return Dataset(schema, records)


@contextlib.contextmanager
def shallow_stack(headroom=100):
    """Lower the recursion limit to the current stack depth plus ``headroom`` frames."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="module")
def deep():
    """The one-hot table with alternating labels, and its tree, grown at the usual limit."""
    dataset = one_hot(ATTRIBUTES, ["pq"[r % 2] for r in range(ROWS)])
    return dataset, id3_build(dataset)


def test_growth_does_not_recurse(deep):
    dataset, tree = deep
    with shallow_stack():
        grown = id3_build(dataset)
        dots = to_dot(grown), to_dot(tree)
    assert dots[0] == dots[1]


def test_stats_do_not_recurse(deep):
    _, tree = deep
    with shallow_stack():
        stats = tree_stats(tree)
    assert stats == (ATTRIBUTES // 2 + 1, ROWS, ATTRIBUTES // 2)


def test_support_and_distribution_do_not_recurse(deep):
    _, tree = deep
    with shallow_stack():
        support = node_support(tree.root)
        dist = node_distribution(tree.root)
    assert support == ROWS
    assert dict(dist.counts) == {"p": (ROWS + 1) // 2, "q": ROWS // 2}


def test_pruning_does_not_recurse(deep):
    _, tree = deep
    with shallow_stack():
        unchanged, shrunk = prune(tree, 1), prune(tree, ROWS - 100)
        dots = to_dot(unchanged), to_dot(tree)
        stats = tree_stats(shrunk)
        support = node_support(shrunk.root)
    assert dots[0] == dots[1]
    # the node at depth k of the chain is routed ROWS - k records, so depth 101 is the first to collapse
    assert stats == (102, 203, 101) and support == ROWS


def test_dot_export_does_not_recurse(deep):
    _, tree = deep
    with shallow_stack():
        dot = to_dot(tree)
    lines = dot.splitlines()
    assert len(lines) == 3 + ROWS + (ROWS - 1)  # header, nodes, edges, closing brace
    # the chain splits off the odd rows, and the root's "y" leaf is the last node in preorder
    assert lines[2] == '  n0 [label="A1"];' and lines[-2] == f'  n0 -> n{ROWS - 1} [label="y"];'


def test_rules_and_evaluation_do_not_recurse(deep):
    dataset, tree = deep
    with shallow_stack():
        rules = extract_rules(tree, dataset)
        acc = accuracy(tree, dataset)
        matrix = confusion(tree, dataset)
    assert len(rules) == ATTRIBUTES // 2 + 1
    assert sum(r.support for r in rules) == ROWS and {r.confidence for r in rules} == {1.0}
    assert max(len(r.conditions) for r in rules) == ATTRIBUTES // 2
    assert acc == 1.0 and matrix.accuracy == 1.0 and matrix.total == ROWS


def test_model_documents_do_not_recurse(deep):
    _, tree = deep
    with shallow_stack():
        back = model_from_json_dict(model_to_json_dict(tree))
        dots = to_dot(back), to_dot(tree)
    assert dots[0] == dots[1]


def test_equality_does_not_recurse(deep):
    dataset, tree = deep
    with shallow_stack():
        assert tree == id3_build(dataset)
        assert model_from_json_dict(model_to_json_dict(tree)) == tree
        # pruning keeps its threshold in the config, as build-time min_leaf_support
        for support in (1, ROWS - 100):
            assert prune(tree, support) == id3_build(dataset, TreeConfig(min_leaf_support=support))
        assert prune(tree, ROWS - 100) != tree


def kept_view(tree: DecisionTree) -> DecisionTree:
    """The same tree, built from its root, with its own root view already built and kept."""
    viewed = DecisionTree(tree.root, tree.schema, tree.config, tree.training_size)
    viewed.root  # builds the view, so the copies below start from a tree that keeps one
    return viewed


def test_repr_does_not_recurse_and_a_tree_stays_unhashable(deep):
    _, tree = deep
    viewed = kept_view(tree)
    with shallow_stack():
        text = repr(tree)
        assert repr(viewed) == text
    assert text.startswith("DecisionTree(schema=AttributeSchema(") and text.count("Leaf(") == ATTRIBUTES // 2 + 1
    with pytest.raises(TypeError):
        hash(tree)


def test_pickle_and_deepcopy_do_not_recurse(deep):
    _, tree = deep
    viewed = kept_view(tree)
    with shallow_stack():
        copies = [pickle.loads(pickle.dumps(t)) for t in (tree, viewed)] + [copy.deepcopy(t) for t in (tree, viewed)]
        assert all(c == tree for c in copies)
    assert all("_root" not in vars(c) for c in copies)


# --- the model depth limit, end to end ------------------------------------------


def write_table(base: Path, dataset: Dataset) -> tuple[Path, Path, Path]:
    """The table as a labeled CSV, its schema sidecar, and an unlabeled copy for ``predict``."""
    names = list(dataset.schema.attribute_names)
    labeled, schema, unlabeled = base / "table.csv", base / "table.schema.json", base / "inputs.csv"
    rows = [[rec.values[n] for n in names] for rec in dataset]
    for path, header, cells in ((labeled, names + ["Y"], [row + [rec.label] for row, rec in zip(rows, dataset)]),
                                (unlabeled, names, rows)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *cells])
    dump_schema(dataset.schema, schema)
    return labeled, schema, unlabeled


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reads_back(model: Path, labeled: Path, schema: Path, unlabeled: Path) -> None:
    for argv in (["predict", "--data", str(unlabeled)], ["rules", "--data", str(labeled), "--schema", str(schema)],
                 ["export-dot"]):
        code, out, err = run(argv + ["--model", str(model)])
        assert (code, err) == (0, "") and out, argv


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.sampled_from("pq"), min_size=2, max_size=10),
    limit=st.integers(min_value=1, max_value=4),
)
def test_train_exits_cleanly_and_what_it_writes_reads_back(labels, limit):
    dataset = one_hot(len(labels) - 1, labels)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tree_module, "MAX_MODEL_DEPTH", limit):
        base = Path(tmp)
        labeled, schema, unlabeled = write_table(base, dataset)
        model = base / "model.json"
        code, _, err = run(["train", "--data", str(labeled), "--schema", str(schema), "--out", str(model)])
        assert code in (0, 1, 2, 3)
        depth = tree_stats(id3_build(dataset)).depth
        if depth > limit:  # train stops growing one level past the limit
            assert code == 2 and not model.exists()
            assert err == (f"error: tree is {min(depth, limit + 1)} levels deep; "
                           f"a model file holds at most {limit} levels\n")
        else:
            assert code == 0
            reads_back(model, labeled, schema, unlabeled)


def test_a_tree_deeper_than_the_limit_is_refused_before_anything_is_written(tmp_path):
    dataset = one_hot(8, ["pq"[r % 2] for r in range(9)])
    labeled, schema, _ = write_table(tmp_path, dataset)
    model = tmp_path / "model.json"
    with mock.patch.object(tree_module, "MAX_MODEL_DEPTH", 3):
        code, out, err = run(["train", "--data", str(labeled), "--schema", str(schema), "--out", str(model)])
    assert (code, out) == (2, "") and not model.exists()
    assert "4 levels deep" in err and "at most 3 levels" in err and "Traceback" not in err
    with pytest.raises(ValueError, match="at most 3 levels"):
        with mock.patch.object(tree_module, "MAX_MODEL_DEPTH", 3):
            save_model(id3_build(dataset), model)
    assert not model.exists()


@pytest.mark.parametrize("limit", [1, 3, 19, 20])
def test_train_grows_no_node_deeper_than_one_level_past_the_limit(tmp_path, monkeypatch, limit):
    dataset = one_hot(40, ["pq"[r % 2] for r in range(41)])  # a chain 20 levels deep
    labeled, schema, _ = write_table(tmp_path, dataset)
    depths = []

    def recording_growth(*args):
        decide, *steps = growth(*args)

        def recorded(item):
            depths.append(item[2])
            return decide(item)

        return recorded, *steps

    growth = tree_module._growth
    monkeypatch.setattr(tree_module, "_growth", recording_growth)
    monkeypatch.setattr(tree_module, "MAX_MODEL_DEPTH", limit)
    model = tmp_path / "model.json"
    code, out, err = run(["train", "--data", str(labeled), "--schema", str(schema), "--out", str(model)])
    assert max(depths) == min(20, limit + 1)
    if limit < 20:
        assert (code, out) == (2, "") and not model.exists()
        assert err == f"error: tree is {limit + 1} levels deep; a model file holds at most {limit} levels\n"
    else:  # the cap was never reached, and the model keeps the config asked for: max_depth None
        assert code == 0 and load_model(model) == id3_build(dataset)


def chain(depth: int) -> DecisionTree:
    """A hand-written chain ``depth`` levels deep: ``A<i> = y`` leads to a ``p`` leaf, ``n`` on."""
    schema = one_hot(depth, []).schema
    node = Leaf("q", 1, ClassDistribution({"p": 0, "q": 1}, 1))
    for i in reversed(range(depth)):
        node = Internal(f"A{i}", {"n": node, "y": Leaf("p", 1, ClassDistribution({"p": 1, "q": 0}, 1))})
    return DecisionTree(node, schema, TreeConfig(), depth + 1)


def test_a_model_at_the_depth_limit_reads_back_at_the_default_recursion_limit(tmp_path):
    tree = chain(MAX_MODEL_DEPTH)
    assert tree_stats(tree).depth == MAX_MODEL_DEPTH
    labeled, schema, unlabeled = write_table(tmp_path, one_hot(MAX_MODEL_DEPTH, ["p"] * MAX_MODEL_DEPTH + ["q"]))
    model = tmp_path / "model.json"
    save_model(tree, model)
    reads_back(model, labeled, schema, unlabeled)
    code, out, _ = run(["predict", "--model", str(model), "--data", str(unlabeled)])
    assert [row[-2:] for row in csv.reader(io.StringIO(out))][1:] == [["p", "1.0000"]] * MAX_MODEL_DEPTH + [
        ["q", "1.0000"]]
    code, out, _ = run(["rules", "--model", str(model), "--data", str(labeled), "--schema", str(schema)])
    assert len(out.splitlines()) == MAX_MODEL_DEPTH + 1 and "support=0" not in out

    deeper = tmp_path / "deeper.json"
    with pytest.raises(ValueError, match=f"{MAX_MODEL_DEPTH + 1} levels deep; a model file holds at most "
                                         f"{MAX_MODEL_DEPTH} levels"):
        save_model(chain(MAX_MODEL_DEPTH + 1), deeper)
    assert not deeper.exists()


def test_a_model_at_the_depth_limit_is_written_without_recursion_and_reads_back_equal(tmp_path):
    tree, model = chain(MAX_MODEL_DEPTH), tmp_path / "model.json"
    with shallow_stack():
        save_model(tree, model)
    assert model.read_text(encoding="ascii") == json.dumps(model_to_json_dict(tree), indent=2, sort_keys=True) + "\n"
    assert load_model(model) == tree

    deeper = tmp_path / "deeper.json"
    with pytest.raises(ValueError) as refused:
        save_model(chain(MAX_MODEL_DEPTH + 1), deeper)
    assert str(refused.value) == (f"tree is {MAX_MODEL_DEPTH + 1} levels deep; "
                                  f"a model file holds at most {MAX_MODEL_DEPTH} levels")
    assert not deeper.exists() and [*tmp_path.iterdir()] == [model]
