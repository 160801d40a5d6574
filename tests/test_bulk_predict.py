"""``gradetree predict`` against ``tree.predict``, row for row.

The command routes whole files through a table compiled from the loaded
model; ``tree.predict`` is the per-example reference it must agree with,
label and confidence alike, on every row.
"""

import csv
import itertools
import random

from conftest import make_dataset, random_dataset, tiny_schema
from gradetree.cli import main
from gradetree.tree import Internal, id3_build, predict, save_model


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def run_predict(tmp_path, tree, header, rows):
    model, inputs, out = tmp_path / "model.json", tmp_path / "in.csv", tmp_path / "out.csv"
    save_model(tree, model)
    write_csv(inputs, header, rows)
    assert main(["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def reference(tree, header, rows):
    """The input in schema order, then ``tree.predict``'s label and confidence."""
    names = list(tree.schema.attribute_names)
    expected = [names + [tree.schema.class_name, "confidence"]]
    for row in rows:
        values = dict(zip(header, row))
        label, dist = predict(tree, values)
        confidence = dist.counts[label] / dist.total if dist.total else 0.0
        expected.append([values[n] for n in names] + [label, f"{confidence:.4f}"])
    return expected


def leaf_of(tree, values):
    node = tree.root
    while isinstance(node, Internal):
        node = node.branches[values[node.attribute]]
    return node


def test_bundled_model_on_bundled_rows(tmp_path, students):
    tree = id3_build(students)
    header = list(students.schema.attribute_names)
    rows = [[rec.values[n] for n in header] for rec in students]
    assert run_predict(tmp_path, tree, header, rows) == reference(tree, header, rows)


def test_header_out_of_schema_order(tmp_path, students):
    tree = id3_build(students)
    header = list(students.schema.attribute_names)
    random.Random(3).shuffle(header)
    assert header != list(students.schema.attribute_names)
    rows = [[rec.values[n] for n in header] for rec in students]
    assert run_predict(tmp_path, tree, header, rows) == reference(tree, header, rows)


def test_one_attribute_schema(tmp_path):
    schema = tiny_schema(n_attrs=1, domain=("a", "b", "c"), classes=("y", "n"))
    tree = id3_build(make_dataset(schema, [(("a",), "y"), (("a",), "n"), (("b",), "n")]))
    rows = [["a"], ["b"], ["c"], ["a"]]
    output = run_predict(tmp_path, tree, ["A0"], rows)
    assert output == reference(tree, ["A0"], rows)
    assert output[3] == ["c", "n", "0.6667"]  # an empty branch: the parent's distribution


def test_random_models_agree_with_predict_row_for_row(tmp_path):
    empty_branch_rows = 0
    for seed in range(50):
        rng = random.Random(seed)
        dataset = random_dataset(rng, max_records=60, contradiction_free=seed % 2 == 0)
        tree = id3_build(dataset)
        header = list(dataset.schema.attribute_names)
        domains = [a.domain for a in dataset.schema.attributes]
        rows = [list(r) for r in itertools.islice(itertools.product(*domains), 400)]
        rows += [[rng.choice(d) for d in domains] for _ in range(40)]
        order = list(range(len(header)))
        rng.shuffle(order)
        header = [header[i] for i in order]
        rows = [[row[i] for i in order] for row in rows]
        assert run_predict(tmp_path, tree, header, rows) == reference(tree, header, rows), seed
        empty_branch_rows += sum(leaf_of(tree, dict(zip(header, row))).support == 0 for row in rows)
    assert empty_branch_rows > 0  # support-0 leaves were exercised

