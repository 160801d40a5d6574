import contextlib
import copy
import csv
import functools
import io
import json
import operator
import os
import random
import re
import stat
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

import gradetree.dataset
from conftest import naive_gain, random_dataset
from gradetree.cli import main
from gradetree.dataset import (
    Attribute,
    AttributeSchema,
    ClassDistribution,
    Dataset,
    Record,
    ValidationError,
    dump_csv,
    fixture_paths,
    load_csv,
    load_students,
    load_unlabeled_csv,
)
from gradetree.tree import (
    MAX_MODEL_DEPTH,
    DecisionTree,
    Internal,
    Leaf,
    TreeConfig,
    id3_build,
    load_model,
    model_to_json_dict,
    predict,
    save_model,
    tree_stats,
)


@pytest.fixture()
def model_path(tmp_path, capsys):
    path = tmp_path / "model.json"
    assert main(["train", "--out", str(path)]) == 0
    capsys.readouterr()  # drop the train summary
    return path


# --- exit codes and usage -----------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["train", "--frobnicate"]) == 1


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["explode"]) == 1


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["predict"]) == 1


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    from gradetree import cli

    monkeypatch.setattr(cli._Parser, "__init__", lambda *args, **kwargs: pytest.fail("a parser was built"))
    assert main(["gains"]) == 0
    assert main(["explode"]) == 1


def test_nonexistent_data_file_is_a_data_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_training_on_header_only_csv_is_a_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\n")
    code = main(["train", "--data", str(empty), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_invalid_value_reports_row_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\n"
        "First,Good,Good,Yes,Yes,Excellent,Yes,First\n"
    )
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "row 1" in err and "ATT" in err and "Excellent" in err


# --- train ----------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--max-depth", "0"], ["--max-depth", "-2"], ["--max-depth", "x"],
    ["--min-support", "-1"], ["--min-support", "1.5"],
])
def test_train_rejects_a_bad_count_as_a_usage_error(tmp_path, capsys, argv):
    assert main(["train", *argv, "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gradetree train")
    assert f"argument {argv[0]}: expected an integer >= " in err
    assert not (tmp_path / "m.json").exists()

def test_train_summary_names_the_argmax_root(tmp_path, capsys, students):
    path = tmp_path / "model.json"
    assert main(["train", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    oracle = {a: naive_gain(students, a) for a in students.schema.attribute_names}
    expected_root = max(oracle, key=oracle.get)
    assert f"root attribute: {expected_root}" in out
    assert "training accuracy: 1.000" in out
    tree = load_model(path)
    assert tree.root.attribute == expected_root


def test_train_min_support_above_training_size_gives_majority_leaf(tmp_path, capsys):
    path = tmp_path / "stump.json"
    assert main(["train", "--min-support", "51", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "single leaf predicting 'Second'" in out
    tree = load_model(path)
    assert isinstance(tree.root, Leaf)
    assert tree.root.label == "Second"


def test_train_min_support_at_training_size_keeps_the_root_split(tmp_path):
    path = tmp_path / "depth1.json"
    assert main(["train", "--min-support", "50", "--out", str(path)]) == 0
    tree = load_model(path)
    assert isinstance(tree.root, Internal)
    assert all(isinstance(c, Leaf) for c in tree.root.branches.values())


def test_train_with_gain_ratio_criterion(tmp_path, capsys):
    path = tmp_path / "gr.json"
    assert main(["train", "--criterion", "gain-ratio", "--out", str(path)]) == 0
    assert load_model(path).config.criterion.value == "gain-ratio"


def test_train_honors_data_dir_env(tmp_path, monkeypatch, capsys):
    csv_path, schema_path = fixture_paths()
    (tmp_path / "students.csv").write_bytes(csv_path.read_bytes())
    (tmp_path / "students.schema.json").write_bytes(schema_path.read_bytes())
    monkeypatch.setenv("GRADETREE_DATA_DIR", str(tmp_path))
    assert main(["train", "--out", str(tmp_path / "m.json")]) == 0
    assert "trained on 50 records" in capsys.readouterr().out


# --- predict --------------------------------------------------------------------


def strip_labels(students, path):
    names = list(students.schema.attribute_names)
    lines = [",".join(names)]
    for rec in students.records:
        lines.append(",".join(rec.values[n] for n in names))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_predict_recovers_training_labels(tmp_path, capsys, students, model_path):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    header = out_lines[0].split(",")
    assert header[-2:] == ["ESM", "confidence"]
    assert len(out_lines) == 51
    for line, rec in zip(out_lines[1:], students.records):
        fields = line.split(",")
        assert fields[-2] == rec.label
        assert 0.0 < float(fields[-1]) <= 1.0


def test_predict_empty_input_gives_header_only(tmp_path, capsys, students, model_path):
    inputs = tmp_path / "none.csv"
    inputs.write_text(",".join(students.schema.attribute_names) + "\n")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines() == [",".join(students.schema.attribute_names) + ",ESM,confidence"]


def test_predict_single_strong_row(tmp_path, capsys, model_path):
    inputs = tmp_path / "one.csv"
    inputs.write_text(
        "PSM,CTG,SEM,ASS,GP,ATT,LW\nFirst,Good,Good,Yes,Yes,Good,Yes\n"
    )
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    label, confidence = line.split(",")[-2:]
    assert label == "First"
    assert 0.0 < float(confidence) <= 1.0


def test_predict_rejects_unknown_value(tmp_path, capsys, model_path):
    inputs = tmp_path / "bad.csv"
    inputs.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW\nFirst,Good,Good,Yes,Yes,Epic,Yes\n")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 2
    assert "Epic" in capsys.readouterr().err


def test_predict_rejects_missing_columns(tmp_path, capsys, model_path):
    inputs = tmp_path / "short.csv"
    inputs.write_text("PSM,CTG\nFirst,Good\n")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 2


def test_predict_rejects_an_empty_cell_as_a_missing_value(tmp_path, capsys, model_path):
    inputs = tmp_path / "hole.csv"
    inputs.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW\nFirst,Good,,Yes,Yes,Good,Yes\n")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 2
    assert "row 1, column 'SEM': missing value" in capsys.readouterr().err



def test_predict_reports_the_first_bad_cell_in_row_order(tmp_path, capsys, model_path):
    inputs = tmp_path / "bad.csv"
    inputs.write_text(
        "LW,ATT,GP,ASS,SEM,CTG,PSM\n"
        "Yes,Good,Yes,Yes,Good,Good,First\n"
        "Maybe,Good,Yes,Yes,Good,Good,Top\n"
        "Yes,Good,Yes,Yes,Good,Good,Top\n"
    )
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    domain = ["Fail", "First", "Second", "Third"]
    assert captured.err == f"error: {inputs}: row 2, column 'PSM': value 'Top' not in domain {domain}\n"

def test_predict_output_quotes_commas_and_reads_back(tmp_path, capsys):
    schema = AttributeSchema((Attribute("A", ("x,y", "z")),), Attribute("Y", ("p,q", "r")))
    dataset = Dataset(schema, (Record({"A": "x,y"}, "p,q"), Record({"A": "z"}, "r")))
    model = tmp_path / "commas.json"
    save_model(id3_build(dataset), model)
    inputs = tmp_path / "commas.csv"
    inputs.write_text('A\n"x,y"\nz\n')
    assert main(["predict", "--model", str(model), "--data", str(inputs)]) == 0
    out = capsys.readouterr().out
    assert list(csv.reader(io.StringIO(out))) == [
        ["A", "Y", "confidence"], ["x,y", "p,q", "1.0000"], ["z", "r", "1.0000"],
    ]


def test_saved_model_predicts_identically_to_in_memory_tree(tmp_path, students, model_path):
    from gradetree.tree import id3_build

    in_memory = id3_build(students)
    loaded = load_model(model_path)
    rng = random.Random(59)
    schema = students.schema
    for _ in range(200):
        values = {a.name: rng.choice(a.domain) for a in schema.attributes}
        mem_label, mem_dist = predict(in_memory, values)
        disk_label, disk_dist = predict(loaded, values)
        assert mem_label == disk_label
        assert mem_dist == disk_dist


# --- predict in chunks, output in one piece ----------------------------------------

GOOD_ROW = "First,Good,Good,Yes,Yes,Good,Yes"
BAD_VALUE_ROW = "First,Good,Good,Yes,Yes,Epic,Yes"
RAGGED_ROW = "First,Good,Good,Yes,Yes,Good"
EMPTY_CELL_ROW = "First,Good,,Yes,Yes,Good,Yes"


def write_inputs(path, rows):
    path.write_text("\n".join(["PSM,CTG,SEM,ASS,GP,ATT,LW", *rows]) + "\n")
    return path


def labeled_twin(inputs, labels=None):
    """A labeled CSV beside ``inputs``: each of its rows followed by the label ``labels``
    gives for its row number, or ``First``."""
    header, *rows = inputs.read_text().splitlines()
    labels = labels or {}
    twin = inputs.with_name(f"labeled-{inputs.name}")
    twin.write_text("\n".join([f"{header},ESM"] + [f"{row},{labels.get(n, 'First')}"
                                                    for n, row in enumerate(rows, start=1)]) + "\n")
    return twin


def first_error(monkeypatch, capsys, model_path, inputs, chunk_rows):
    """The error that ``load_unlabeled_csv`` raises and ``predict`` prints, the same
    for both, with the input read ``chunk_rows`` rows at a time; ``load_csv`` reports
    it at the same row and column of the input's labeled twin."""
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
    schema = load_model(model_path).schema
    with pytest.raises(ValidationError) as exc_info:
        load_unlabeled_csv(inputs, schema)
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 2
    assert capsys.readouterr() == ("", f"error: {exc_info.value}\n")
    err = exc_info.value
    with pytest.raises(ValidationError) as labeled:
        load_csv(labeled_twin(inputs), schema)
    assert (labeled.value.row, labeled.value.column, labeled.value.value) == (err.row, err.column, err.value)
    return err


@pytest.mark.parametrize("later", [RAGGED_ROW, EMPTY_CELL_ROW])
def test_a_bad_value_beats_a_reader_error_later_in_its_chunk(tmp_path, capsys, monkeypatch, model_path, later):
    inputs = write_inputs(tmp_path / "in.csv", [GOOD_ROW, BAD_VALUE_ROW, later, GOOD_ROW])
    err = first_error(monkeypatch, capsys, model_path, inputs, chunk_rows=4)
    assert (err.row, err.column, err.value) == (2, "ATT", "Epic")


@pytest.mark.parametrize("chunk_rows", [2, 4])
def test_a_reader_error_beats_a_bad_value_in_a_later_row(tmp_path, capsys, monkeypatch, model_path, chunk_rows):
    inputs = write_inputs(tmp_path / "in.csv", [GOOD_ROW, RAGGED_ROW, BAD_VALUE_ROW, GOOD_ROW])
    err = first_error(monkeypatch, capsys, model_path, inputs, chunk_rows)
    assert str(err) == f"{inputs}: row 2 has 6 fields, expected 7"


@pytest.mark.parametrize("bad_rows, reported", [((3, 4), 3), ((4, 7), 4), ((6,), 6)])
def test_bad_cells_at_chunk_seams_keep_their_row_numbers(tmp_path, capsys, monkeypatch, model_path,
                                                         bad_rows, reported):
    rows = [BAD_VALUE_ROW if n in bad_rows else GOOD_ROW for n in range(1, 8)]
    err = first_error(monkeypatch, capsys, model_path, write_inputs(tmp_path / "in.csv", rows), chunk_rows=3)
    assert (err.row, err.column) == (reported, "ATT")


@pytest.mark.parametrize("bad_rows, reported", [((3, 4), 3), ((4, 7), 4), ((6,), 6)])
def test_bad_labels_at_chunk_seams_keep_their_row_numbers(tmp_path, monkeypatch, students, bad_rows, reported):
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", 3)
    inputs = write_inputs(tmp_path / "in.csv", [GOOD_ROW] * 7)
    with pytest.raises(ValidationError) as exc_info:
        load_csv(labeled_twin(inputs, dict.fromkeys(bad_rows, "Distinction")), students.schema)
    assert (exc_info.value.row, exc_info.value.column, exc_info.value.value) == (reported, "ESM", "Distinction")


def test_load_csv_gives_the_same_dataset_in_any_chunk_size(tmp_path, monkeypatch):
    dataset = random_dataset(random.Random(14), max_attributes=5, max_records=60)
    data = tmp_path / "table.csv"
    dump_csv(dataset, data)
    for chunk_rows in (1, 7, 10, 4096):
        monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
        loaded = load_csv(data, dataset.schema)
        assert loaded._codes == dataset._codes
        assert loaded.records == dataset.records and loaded == dataset


@pytest.mark.parametrize("chunk_rows", [1, 7, 10])
def test_predict_output_is_the_same_in_any_chunk_size(tmp_path, capsys, monkeypatch, students, model_path,
                                                      chunk_rows):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    argv = ["predict", "--model", str(model_path), "--data", str(inputs)]
    assert main(argv) == 0
    whole, loaded = capsys.readouterr().out, load_unlabeled_csv(inputs, students.schema)
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    assert load_unlabeled_csv(inputs, students.schema) == loaded


def test_a_failing_predict_leaves_its_out_file_as_it_was(tmp_path, capsys, monkeypatch, model_path):
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", 2)  # two chunks are written before the bad row
    inputs = write_inputs(tmp_path / "in.csv", [GOOD_ROW] * 4 + [BAD_VALUE_ROW])
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier output\n")
    before = sorted(os.listdir(tmp_path))
    assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == before
    assert capsys.readouterr().out == ""


def test_predict_can_write_over_its_own_input(tmp_path, capsys, students, model_path):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 0
    expected = capsys.readouterr().out
    assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(inputs)]) == 0
    assert inputs.read_text() == expected
    assert sorted(os.listdir(tmp_path)) == ["inputs.csv", "model.json"]


def test_predict_output_mode_is_the_one_write_text_gives(tmp_path, capsys, students, model_path):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    kept.chmod(0o600)
    umask = os.umask(0o027)
    try:
        for out in (new, kept):
            assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640  # 0o666 under the umask, not mkstemp's 0o600
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600  # a file written over keeps its mode


def test_predict_writes_through_a_symlinked_out_file(tmp_path, capsys, students, model_path):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 0
    expected = capsys.readouterr().out
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("earlier output\n")
    link.symlink_to(real.name)
    assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_text() == expected


@pytest.mark.parametrize("name, error", [("absent/out.csv", "[Errno 2] No such file or directory"),
                                         ("directory", "[Errno 21] Is a directory")])
def test_a_bad_out_path_is_named_in_the_error(tmp_path, capsys, students, model_path, name, error):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    (tmp_path / "directory").mkdir()
    out = tmp_path / name
    assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}: {str(out)!r}\n")
    assert sorted(os.listdir(tmp_path)) == ["directory", "inputs.csv", "model.json"]


def test_train_replaces_its_out_file_rather_than_writing_into_it(tmp_path, capsys):
    model, link = tmp_path / "model.json", tmp_path / "link.json"
    model.write_text("earlier model\n")
    os.link(model, link)
    assert main(["train", "--out", str(model)]) == 0
    assert link.read_text() == "earlier model\n"
    expected = json.dumps(model_to_json_dict(id3_build(load_students())), indent=2, sort_keys=True) + "\n"
    assert model.read_text() == expected
    assert sorted(os.listdir(tmp_path)) == ["link.json", "model.json"]


@pytest.mark.parametrize("command", ["train", "predict", "rules", "gains", "verify", "export-dot"])
def test_every_command_refuses_an_empty_out_path(tmp_path, capsys, monkeypatch, students, model_path, command):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    model = ["--model", str(model_path)]
    argv = {"predict": [*model, "--data", str(inputs)], "rules": model, "export-dot": model}.get(command, [])
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # a temporary file for the empty path would land here or in its parent
    assert main([command, *argv, "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
    assert os.listdir(work) == []
    assert sorted(os.listdir(tmp_path)) == ["inputs.csv", "model.json", "work"]


def test_predict_writes_into_a_pipe_without_replacing_it(tmp_path, capsys, students, model_path):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs)]) == 0
    expected = capsys.readouterr().out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert received == [expected]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_predict_into_the_null_device_leaves_it_a_device(tmp_path, capsys, students, model_path):
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


# --- rules, gains, verify, export-dot ---------------------------------------------


def test_rules_command_matches_golden_file(tmp_path, capsys, model_path):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "fixture_rules.txt"
    assert main(["rules", "--model", str(model_path)]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_rules_json_output(tmp_path, capsys, model_path):
    assert main(["rules", "--model", str(model_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 35
    assert all(item["class"] == "ESM" for item in doc)


def test_gains_text_output(capsys):
    assert main(["gains"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8  # header + 7 attributes
    assert lines[0].split()[0] == "attribute"
    assert lines[1].startswith("PSM")


def test_gains_json_matches_metrics(capsys, students):
    from gradetree.metrics import score_all

    assert main(["gains", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    scores = score_all(students)
    assert [d["attribute"] for d in doc] == [s.attribute for s in scores]
    for d, s in zip(doc, scores):
        assert d["gain"] == s.gain
        assert d["split_information"] == s.split_information
        assert d["gain_ratio"] == s.gain_ratio


def test_verify_command_succeeds_and_is_deterministic(tmp_path):
    out1 = tmp_path / "report1.txt"
    out2 = tmp_path / "report2.txt"
    assert main(["verify", "--out", str(out1)]) == 0
    assert main(["verify", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "Entropy(S)" in text and "MISMATCH" in text


def test_verify_json_output(capsys):
    assert main(["verify", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["implementation_consistent"] is True
    assert doc["root"] == {"published": "PSM", "recomputed": "ATT", "verdict": "MISMATCH"}
    assert len(doc["rows"]) == 22


def test_verify_rejects_non_fixture_data(tmp_path, capsys, students):
    other = tmp_path / "other.csv"
    text = fixture_paths()[0].read_text().splitlines()
    other.write_text("\n".join(text[:-1]) + "\n")  # drop the last record
    assert main(["verify", "--data", str(other)]) == 2
    assert "fixture" in capsys.readouterr().err


# A deliberately small DOT checker, independent of the exporter: one
# digraph, balanced braces, and every statement a node default, a node
# declaration, or an edge between declared nodes.

NODE_DEFAULTS = re.compile(r"^node \[[^\]]*\];$")
NODE_DECL = re.compile(r"^(n\d+) \[(?:shape=\w+, )?label=\"(?:[^\"\\]|\\.)*\"\];$")
EDGE = re.compile(r"^(n\d+) -> (n\d+) \[label=\"(?:[^\"\\]|\\.)*\"\];$")


def check_dot(text):
    lines = text.splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    declared = set()
    edges = []
    for line in lines[1:-1]:
        line = line.strip()
        if NODE_DEFAULTS.match(line):
            continue
        decl = NODE_DECL.match(line)
        if decl:
            assert decl.group(1) not in declared, "node declared twice"
            declared.add(decl.group(1))
            continue
        edge = EDGE.match(line)
        assert edge, f"unparseable DOT statement: {line!r}"
        edges.append((edge.group(1), edge.group(2)))
    for src, dst in edges:
        assert src in declared and dst in declared
    return declared, edges


def test_export_dot_single_leaf(tmp_path, capsys):
    inputs = tmp_path / "uniform.csv"
    header = "PSM,CTG,SEM,ASS,GP,ATT,LW,ESM"
    row = "First,Good,Good,Yes,Yes,Good,Yes,First"
    inputs.write_text(header + "\n" + "\n".join([row] * 5) + "\n")
    model = tmp_path / "leaf.json"
    assert main(["train", "--data", str(inputs), "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["export-dot", "--model", str(model)]) == 0
    declared, edges = check_dot(capsys.readouterr().out)
    assert len(declared) == 1
    assert edges == []


def test_export_dot_fixture_model_parses_and_matches_stats(tmp_path, capsys, model_path):
    assert main(["export-dot", "--model", str(model_path)]) == 0
    declared, edges = check_dot(capsys.readouterr().out)
    stats = tree_stats(load_model(model_path))
    assert len(declared) == stats.nodes
    assert len(edges) == stats.nodes - 1


def test_module_entrypoint_runs_in_a_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gradetree", "gains"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].startswith("PSM")


# --- model documents and the input contract ----------------------------------------

def with_first_leaf(doc, **fields):
    """``doc`` with ``fields`` set on the leaf reached by each node's first branch."""
    node = doc["root"]
    while node["kind"] != "leaf":
        node = next(iter(node["branches"].values()))
    node.update(fields)
    return doc


MALFORMED_MODELS = {
    "a list": (lambda doc: [doc], "model document must be an object, not list"),
    "a list root": (lambda doc: {**doc, "root": []}, "model key 'root' must be an object, not list"),
    "a string max_depth": (
        lambda doc: {**doc, "config": {**doc["config"], "max_depth": "4"}},
        "'max_depth' must be an integer or null",
    ),
    "no training_size": (
        lambda doc: {k: v for k, v in doc.items() if k != "training_size"},
        "missing key 'training_size'",
    ),
    "a negative training_size": (
        lambda doc: {**doc, "training_size": -1},
        "model key 'training_size' must be >= 0, not -1",
    ),
    "a negative leaf support": (
        lambda doc: with_first_leaf(doc, support=-1),
        "model leaf key 'support' must be >= 0, not -1",
    ),
    "a negative leaf count": (
        lambda doc: with_first_leaf(doc, distribution={"Third": 5, "Fail": -3}),
        "model distribution counts must be integers >= 0: {'Third': 5, 'Fail': -3}",
    ),
    "a leaf label outside the class domain": (
        lambda doc: with_first_leaf(doc, label="Pass"),
        "model leaf label 'Pass' not in class domain",
    ),
    "a leaf distribution naming an unknown class": (
        lambda doc: with_first_leaf(doc, distribution={"Third": 5, "Pass": 1, "Absent": 0}),
        "model distribution names unknown classes ['Absent', 'Pass']",
    ),
}


@pytest.mark.parametrize("command", ["export-dot", "rules"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_document_is_a_data_error(tmp_path, capsys, model_path, command, case):
    breaks, message = MALFORMED_MODELS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(breaks(json.loads(model_path.read_text()))))
    assert main([command, "--model", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["export-dot", "rules", "predict"])
def test_a_model_node_naming_an_unknown_attribute_is_a_data_error(tmp_path, capsys, students, model_path, command):
    data = ["--data", str(strip_labels(students, tmp_path / "inputs.csv"))] if command == "predict" else []
    for name in ("XYZ", "ESM"):  # the class attribute is no predictor, so no node may test it
        doc = json.loads(model_path.read_text())
        doc["root"]["attribute"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main([command, "--model", str(bad), *data]) == 2
        assert capsys.readouterr().err == f"error: unknown attribute {name!r}\n"


@pytest.mark.parametrize("depth", [MAX_MODEL_DEPTH, MAX_MODEL_DEPTH + 1])
def test_a_model_file_deeper_than_the_limit_is_refused_when_read(tmp_path, capsys, depth):
    names = [f"A{i}" for i in range(depth)]
    schema = AttributeSchema(tuple(Attribute(a, ("n", "y")) for a in names), Attribute("Y", ("p", "q")))
    p = Leaf("p", 1, ClassDistribution({"p": 1, "q": 0}, 1))
    node = Leaf("q", 1, ClassDistribution({"p": 0, "q": 1}, 1))
    for name in reversed(names):  # a chain: "y" ends in a "p" leaf, "n" goes one level deeper
        node = Internal(name, {"n": node, "y": p})
    model = tmp_path / "chain.json"
    model.write_text(json.dumps(model_to_json_dict(DecisionTree(node, schema, TreeConfig(), depth + 1))))
    code, err = main(["export-dot", "--model", str(model)]), capsys.readouterr().err
    if depth > MAX_MODEL_DEPTH:
        message = f"{model}: tree is {depth} levels deep; a model file holds at most {MAX_MODEL_DEPTH} levels"
        assert (code, err) == (2, f"error: {message}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(model)
    else:
        assert (code, err) == (0, "") and tree_stats(load_model(model)).depth == depth


@pytest.mark.parametrize("name", ["PSM", "ESM"], ids=["predictor", "class"])
def test_a_schema_domain_that_is_not_an_array_is_a_data_error(tmp_path, capsys, name):
    doc = json.loads(fixture_paths()[1].read_text())
    for attribute in (*doc["attributes"], doc["class_attribute"]):
        if attribute["name"] == name:  # an object of the labels: its keys would read as the domain
            attribute["domain"] = dict.fromkeys(attribute["domain"], 0)
    sidecar = tmp_path / "schema.json"
    sidecar.write_text(json.dumps(doc))
    assert main(["gains", "--schema", str(sidecar)]) == 2
    assert capsys.readouterr().err == f"error: attribute {name!r}: domain must be a JSON array, not dict\n"


# every option that reads a JSON file, each ending in the flag that takes it
JSON_FILE_ARGV = [
    ["export-dot", "--model"], ["rules", "--model"], ["predict", "--data", "{inputs}", "--model"],
    ["train", "--out", "{base}/m.json", "--schema"], ["gains", "--schema"],
]


@pytest.mark.parametrize("argv", JSON_FILE_ARGV)
def test_json_nested_too_deeply_is_a_data_error(tmp_path, capsys, students, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    argv = [arg.format(inputs=inputs, base=tmp_path) for arg in argv]
    assert main(argv + [str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: ") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "predict"])
def test_undecodable_csv_is_a_data_error_naming_the_file(tmp_path, capsys, model_path, command):
    data = tmp_path / "latin1.csv"
    data.write_bytes("PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\nCaf\xe9\n".encode("latin-1"))
    argv = {
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.json")],
        "predict": ["predict", "--model", str(model_path), "--data", str(data)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {data}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("argv", JSON_FILE_ARGV)
def test_undecodable_model_or_schema_is_a_data_error_naming_the_file(tmp_path, capsys, students, argv):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "Caf\xe9"}'.encode("latin-1"))
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    argv = [arg.format(inputs=inputs, base=tmp_path) for arg in argv]
    assert main(argv + [str(latin1)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {latin1}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("argv", JSON_FILE_ARGV)
def test_an_integer_too_long_to_read_is_a_data_error_naming_the_file(tmp_path, capsys, students, argv):
    huge = tmp_path / "huge.json"  # more digits than int() converts, so json.loads raises ValueError
    huge.write_text('{"format": "gradetree.model", "training_size": 1' + "0" * 5000 + "}")
    inputs = strip_labels(students, tmp_path / "inputs.csv")
    argv = [arg.format(inputs=inputs, base=tmp_path) for arg in argv]
    assert main(argv + [str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {huge}: ") and "digits" in err

EXIT_CODES = {0, 1, 2, 3}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


@st.composite
def damaged_documents(draw, doc):
    """``doc`` with one value replaced by arbitrary JSON, or one key deleted."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(json_paths(doc))[1:]))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(doc).encode()


@st.composite
def near_csv_files(draw, columns, values):
    """CSV bytes whose header and cells are mostly, but not always, valid."""
    header = draw(st.permutations(columns) | st.lists(st.sampled_from(columns) | st.text(max_size=3)))
    cell = st.sampled_from(values) | st.text(max_size=3)
    width = st.lists(cell, min_size=max(len(header) - 1, 0), max_size=len(header) + 1)
    rows = draw(st.lists(width, max_size=4))
    out = io.StringIO()
    csv.writer(out).writerows([header] + rows)
    return draw(st.sampled_from(["", "\ufeff"])).encode() + out.getvalue().encode()


@pytest.fixture(scope="module")
def contract(tmp_path_factory, students):
    """A trained bundled model, its document, and predict input for it."""
    base = tmp_path_factory.mktemp("contract")
    model = base / "model.json"
    assert main(["train", "--out", str(model)]) == 0
    return base, model, json.loads(model.read_text()), strip_labels(students, base / "inputs.csv")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_model_file_gets_an_exit_code(contract, data):
    base, _, doc, inputs = contract
    model = base / "drawn.json"
    model.write_bytes(data.draw(st.binary(max_size=200) | damaged_documents(doc)))
    for argv in (["export-dot"], ["rules"], ["predict", "--data", str(inputs)]):
        assert main(argv + ["--model", str(model), "--out", str(base / "out")]) in EXIT_CODES


# the bundled model's document, as a saved model file holds it
BUNDLED_MODEL = json.loads(json.dumps(model_to_json_dict(id3_build(load_students()))))
model_names = st.sampled_from(
    sorted({k for path in json_paths(BUNDLED_MODEL) for k in path if isinstance(k, str)} | {"ESM", "XYZ"}))


def with_root(**fields):
    """The bundled model's document with ``fields`` set on its root node."""
    return {**BUNDLED_MODEL, "root": {**BUNDLED_MODEL["root"], **fields}}


@st.composite
def mutated_models(draw):
    """The bundled model's document with one to three keys replaced, deleted or renamed."""
    doc = copy.deepcopy(BUNDLED_MODEL)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(doc))[1:]))
        parent, key = functools.reduce(operator.getitem, path[:-1], doc), path[-1]
        how = draw(st.sampled_from(["replace", "delete", "rename"] if isinstance(parent, dict) else ["replace"]))
        if how == "replace":
            parent[key] = draw(model_names | json_values)
        elif how == "delete":
            del parent[key]
        else:
            parent[draw(model_names)] = parent.pop(key)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_models())
@example(doc=with_root(attribute="ESM"))  # the class attribute
@example(doc=with_root(attribute="XYZ"))
@example(doc=with_root(attribute=7))
@example(doc=with_root(attribute=None))
def test_a_mutated_model_document_is_a_tree_or_a_one_line_data_error(contract, doc):
    base, _, _, inputs = contract
    model = base / "mutated.json"
    model.write_text(json.dumps(doc))
    try:
        load_model(model)
    except ValueError:
        pass
    for argv in (["export-dot"], ["predict", "--data", str(inputs)]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--model", str(model), "--out", str(base / "out")])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_csv_file_gets_an_exit_code(contract, students, data):
    base, model, _, _ = contract
    schema = students.schema
    names = list(schema.attribute_names)
    values = sorted({v for a in schema.attributes for v in a.domain} | set(schema.class_domain))
    drawn = base / "drawn.csv"
    drawn.write_bytes(data.draw(st.binary(max_size=200) | near_csv_files(names + ["ESM"], values)))
    assert main(["train", "--data", str(drawn), "--out", str(base / "drawn.json")]) in EXIT_CODES
    drawn.write_bytes(data.draw(st.binary(max_size=200) | near_csv_files(names, values)))
    argv = ["predict", "--model", str(model), "--data", str(drawn), "--out", str(base / "out")]
    assert main(argv) in EXIT_CODES


# CSV's own characters, often; the schema refuses a carriage return
# (test_attribute_rejects_empty_domain_and_duplicate_labels)
label_chars = st.sampled_from(',"\n ') | st.characters(exclude_characters="\r", exclude_categories=("Cs",))
labels = st.lists(
    st.text(label_chars, min_size=1, max_size=4),
    min_size=1,
    max_size=3,
    unique=True,
)


@settings(max_examples=40, deadline=None)
@given(values=labels, classes=labels, data=st.data())
def test_predict_output_reads_back_with_csv_reader(contract, values, classes, data):
    base = contract[0]
    schema = AttributeSchema((Attribute("A", tuple(values)),), Attribute("Y", tuple(classes)))
    pairs = st.tuples(st.sampled_from(values), st.sampled_from(classes))
    records = tuple(Record({"A": v}, c) for v, c in data.draw(st.lists(pairs, min_size=1, max_size=6)))
    model, inputs, out = base / "labels.json", base / "labels.csv", base / "labels.out.csv"
    save_model(id3_build(Dataset(schema, records)), model)
    with open(inputs, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["A"]] + [[v] for v in values])
    assert main(["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["A", "Y", "confidence"]
    assert all(len(row) == 3 for row in parsed)
    assert [row[0] for row in parsed[1:]] == values
    assert all(row[1] in classes for row in parsed[1:])
