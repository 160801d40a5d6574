"""Column-first datasets: the code columns are a ``Dataset``'s state, and
its ``records`` are a view built only when read.

``load_csv`` encodes the rows it reads straight into code columns, and
``Dataset(schema, records)`` reaches the same columns through the same
encoder. Whatever only trains, scores, evaluates or writes a dataset
reads the codes, so it builds no ``Record``.
"""

import copy
import csv
import io
import pickle
import random
import sys
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_dataset as ref
from conftest import encode, random_dataset
from gradetree.cli import main
from gradetree.dataset import (
    Dataset,
    Record,
    ValidationError,
    class_distribution,
    dataset_to_csv,
    dump_csv,
    dump_schema,
    load_csv,
    load_schema,
)
from gradetree.evaluate import accuracy, confusion, leave_one_out
from gradetree.metrics import score_all
from gradetree.rules import extract_rules
from gradetree.tree import TreeConfig, id3_build


def as_lists(encoded):
    columns, labels = encoded
    return [list(c) for c in columns], list(labels)


@pytest.fixture
def seeded_table(tmp_path):
    """A seeded table written as a CSV and a schema sidecar, and its dataset."""
    dataset = random_dataset(random.Random(5), max_attributes=5, max_records=60)
    data, schema = tmp_path / "table.csv", tmp_path / "table.schema.json"
    dump_csv(dataset, data)
    dump_schema(dataset.schema, schema)
    return data, schema, dataset


@contextmanager
def building_no_record():
    """Fail the test at the first ``Record`` built inside, wherever it is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Record, "__post_init__", lambda record: pytest.fail(f"a Record was built: {record}"))
        yield


def test_training_scoring_rules_and_evaluation_build_no_record(seeded_table):
    data, schema_path, expected = seeded_table
    with building_no_record():
        dataset = load_csv(data, load_schema(schema_path))
        tree = id3_build(dataset, TreeConfig(max_depth=3))
        accuracy(tree, dataset)
        confusion(tree, dataset)
        leave_one_out(dataset, TreeConfig(max_depth=2))
        extract_rules(tree, dataset)
        score_all(dataset)
        class_distribution(dataset)
        assert dataset_to_csv(dataset) == data.read_text(encoding="utf-8")
        assert len(dataset) == len(expected)


@pytest.mark.parametrize("command", ["train", "rules", "gains"])
def test_cli_commands_on_a_table_build_no_record(seeded_table, tmp_path, capsys, command):
    data, schema_path, _ = seeded_table
    model = tmp_path / "model.json"
    table = ["--data", str(data), "--schema", str(schema_path)]
    assert main(["train", *table, "--out", str(model)]) == 0
    argv = {
        "train": ["train", *table, "--criterion", "gain-ratio", "--out", str(tmp_path / "again.json")],
        "rules": ["rules", "--model", str(model), *table],
        "gains": ["gains", *table],
    }[command]
    with building_no_record():
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_a_loaded_dataset_builds_its_records_once_and_stays_frozen(seeded_table):
    data, schema_path, expected = seeded_table
    dataset = load_csv(data, load_schema(schema_path))
    assert dataset.records is dataset.records
    assert dataset.records == expected.records
    assert list(dataset) == list(expected.records)
    for name in ("schema", "records", "_codes"):
        with pytest.raises(FrozenInstanceError):
            setattr(dataset, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(dataset, name)


def write_shuffled(dataset, path: Path, order, edit=None) -> None:
    """``dump_csv``'s file with its columns in ``order``; ``edit`` is an optional
    (data row, column index before shuffling, new cell)."""
    dump_csv(dataset, path)
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    if edit is not None:
        row, column, cell = edit
        rows[row][column] = cell
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([row[i] for i in order] for row in rows)
    path.write_text(out.getvalue(), encoding="utf-8")


def check_same_value(loaded, records):
    """``loaded`` behaves as ``Dataset(schema, records)`` does, before and after its view is read."""
    built = Dataset(loaded.schema, records)
    names = loaded.schema.attribute_names
    columns, labels = ref.encode(loaded.schema, records)
    for copied in (pickle.loads(pickle.dumps(loaded)), copy.deepcopy(loaded), loaded):
        assert copied == built and built == copied and not copied != built
        assert as_lists(encode(copied, names)) == (columns, labels)
        assert as_lists(encode(copied, names[::-1])) == (columns[::-1], labels)
        assert len(copied) == len(built)
        assert repr(copied) == repr(built)  # reads the view
        assert copied.records == built.records
    for copied in (pickle.loads(pickle.dumps(loaded)), copy.deepcopy(loaded)):  # the view read
        assert copied == built and repr(copied) == repr(built)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), contradiction_free=st.booleans())
def test_a_loaded_table_is_the_dataset_of_its_records(seed, contradiction_free):
    rng = random.Random(seed)
    base = random_dataset(rng, max_records=40, contradiction_free=contradiction_free)
    width = len(base.schema.attribute_names) + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_shuffled(base, path, rng.sample(range(width), width))
        loaded = load_csv(path, base.schema)
    check_same_value(loaded, list(base.records))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_bad_cell_or_label_in_a_file_raises_as_the_row_scan_does(seed, data):
    rng = random.Random(seed)
    base = random_dataset(rng, max_records=40)
    schema = base.schema
    width = len(schema.attribute_names) + 1
    row = data.draw(st.integers(1, len(base)), label="row")
    column = data.draw(st.integers(0, width - 1), label="column")  # the last is the label
    records = list(base.records)
    values, label = dict(records[row - 1].values), records[row - 1].label
    if column < width - 1:
        values[schema.attribute_names[column]] = "bad"
    else:
        label = "bad"
    records[row - 1] = Record(values, label)
    with pytest.raises(ValidationError) as expected:
        ref.check(schema, records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_shuffled(base, path, rng.sample(range(width), width), (row, column, "bad"))
        with pytest.raises(ValidationError) as raised:
            load_csv(path, schema)
    want, got = expected.value, raised.value
    assert str(got) == f"{path}: {want}"
    assert (got.row, got.column, got.value) == (want.row, want.column, want.value)


def test_threads_reading_a_new_view_at_once_all_get_the_same_records(seeded_table):
    data, schema_path, expected = seeded_table
    schema = load_schema(schema_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            dataset = load_csv(data, schema)
            views = []
            threads = [threading.Thread(target=lambda: views.append(dataset.records)) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(views) == 8
            assert all(view is dataset.records for view in views)
            assert dataset.records == expected.records
    finally:
        sys.setswitchinterval(interval)
