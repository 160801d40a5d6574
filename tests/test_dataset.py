import copy
import csv
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import reference_dataset as ref
from conftest import encode, make_dataset, random_dataset, tiny_schema
from gradetree.dataset import (
    Attribute,
    AttributeSchema,
    ClassDistribution,
    DEFAULT_GRADE_BANDS,
    Dataset,
    GradeBand,
    GradeBands,
    Record,
    SchemaError,
    ValidationError,
    _Codes,
    bin_marks,
    class_distribution,
    dataset_to_csv,
    dump_csv,
    fixture_paths,
    load_csv,
    load_schema,
    load_students,
    load_unlabeled_csv,
    partition,
)

FIXTURE_COUNTS = {"First": 14, "Second": 15, "Third": 13, "Fail": 8}


# --- schema -----------------------------------------------------------------


def test_schema_rejects_duplicate_attribute_names():
    with pytest.raises(SchemaError):
        AttributeSchema(
            (Attribute("A", ("x",)), Attribute("A", ("y",))),
            Attribute("Y", ("c",)),
        )


def test_schema_rejects_class_name_collision():
    with pytest.raises(SchemaError):
        AttributeSchema((Attribute("A", ("x",)),), Attribute("A", ("c",)))


def test_attribute_rejects_empty_domain_and_duplicate_labels():
    with pytest.raises(SchemaError, match="^attribute name must be non-empty$"):
        Attribute("", ("a",))
    with pytest.raises(SchemaError):
        Attribute("A", ())
    with pytest.raises(SchemaError):
        Attribute("A", ("x", "x"))
    with pytest.raises(SchemaError, match="is not a string without"):
        Attribute("A", ("x", "y\rz"))
    with pytest.raises(SchemaError):
        Attribute("A", ("x", 1))


@pytest.mark.parametrize("domain", ["First", {"First": 1, "Second": 2}], ids=["string", "object"])
@pytest.mark.parametrize("name", ["A", "Y"], ids=["predictor", "class"])
def test_a_schema_domain_that_is_not_an_array_is_rejected(name, domain):
    doc = {"attributes": [{"name": "A", "domain": ["x"]}], "class_attribute": {"name": "Y", "domain": ["c"]}}
    (doc["attributes"][0] if name == "A" else doc["class_attribute"])["domain"] = domain
    with pytest.raises(SchemaError, match=f"attribute '{name}': domain must be a JSON array, not "):
        AttributeSchema.from_json_dict(doc)


def test_schema_sidecar_round_trip(tmp_path, students):
    from gradetree.dataset import dump_schema

    path = tmp_path / "schema.json"
    dump_schema(students.schema, path)
    assert load_schema(path) == students.schema
    assert load_schema(path).digest() == students.schema.digest()
    assert load_schema(path).domain("PSM") == students.schema.domain("PSM")
    with pytest.raises(KeyError, match="^\"unknown attribute 'X'\"$"):
        students.schema.domain("X")


def test_schema_digest_changes_with_shape(students):
    other = AttributeSchema(students.schema.attributes[:-1], students.schema.class_attribute)
    assert other.digest() != students.schema.digest()


# --- fixture loading --------------------------------------------------------


def test_fixture_has_50_records_with_published_class_counts(students):
    assert len(students) == 50
    dist = class_distribution(students)
    assert dist.counts == FIXTURE_COUNTS
    assert dist.total == 50


def test_data_dir_env_override(tmp_path, monkeypatch):
    csv_path, schema_path = fixture_paths()
    (tmp_path / "students.csv").write_bytes(csv_path.read_bytes())
    (tmp_path / "students.schema.json").write_bytes(schema_path.read_bytes())
    monkeypatch.setenv("GRADETREE_DATA_DIR", str(tmp_path))
    assert fixture_paths()[0] == tmp_path / "students.csv"
    assert len(load_students()) == 50


# --- CSV loading ------------------------------------------------------------


def test_header_only_csv_gives_empty_dataset(tmp_path, students):
    path = tmp_path / "empty.csv"
    path.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\n")
    ds = load_csv(path, students.schema)
    assert len(ds) == 0
    assert class_distribution(ds).total == 0


def test_unknown_label_names_row_column_and_value(tmp_path, students):
    path = tmp_path / "bad.csv"
    path.write_text(
        "PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\n"
        "First,Good,Good,Yes,Yes,Good,Yes,First\n"
        "First,Good,Good,Yes,Yes,Excellent,Yes,First\n"
    )
    with pytest.raises(ValidationError) as exc_info:
        load_csv(path, students.schema)
    err = exc_info.value
    assert err.row == 2
    assert err.column == "ATT"
    assert err.value == "Excellent"
    assert "row 2" in str(err) and "Excellent" in str(err)


def test_missing_column_rejected(tmp_path, students):
    path = tmp_path / "missing.csv"
    path.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW\nFirst,Good,Good,Yes,Yes,Good,Yes\n")
    with pytest.raises(ValidationError, match="missing column"):
        load_csv(path, students.schema)


def test_unknown_column_rejected(tmp_path, students):
    path = tmp_path / "extra.csv"
    path.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW,ESM,AGE\n")
    with pytest.raises(ValidationError, match="unknown column"):
        load_csv(path, students.schema)


def test_duplicate_header_rejected(tmp_path, students):
    path = tmp_path / "dup.csv"
    path.write_text("PSM,PSM,SEM,ASS,GP,ATT,LW,ESM\n")
    with pytest.raises(ValidationError, match="duplicate header"):
        load_csv(path, students.schema)
    with pytest.raises(ValidationError, match="duplicate header column 'PSM'"):
        load_unlabeled_csv(path, students.schema)


def test_empty_file_rejected(tmp_path, students):
    path = tmp_path / "nothing.csv"
    path.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        load_csv(path, students.schema)


def test_ragged_row_rejected(tmp_path, students):
    path = tmp_path / "ragged.csv"
    path.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\nFirst,Good,Good\n")
    with pytest.raises(ValidationError, match="row 1"):
        load_csv(path, students.schema)


def test_oversized_field_is_a_validation_error(tmp_path, students):
    path = tmp_path / "huge.csv"
    path.write_text("PSM," + "x" * 200_000 + "\n")
    with pytest.raises(ValidationError, match="field larger than field limit"):
        load_csv(path, students.schema)


def test_byte_order_mark_is_skipped_by_both_loaders(tmp_path, students):
    path = tmp_path / "bom.csv"
    path.write_text(dataset_to_csv(students), encoding="utf-8-sig")
    assert load_csv(path, students.schema) == students
    unlabeled = tmp_path / "bom-unlabeled.csv"
    unlabeled.write_text(
        "PSM,CTG,SEM,ASS,GP,ATT,LW\nFirst,Good,Good,Yes,Yes,Good,Yes\n", encoding="utf-8-sig"
    )
    assert load_unlabeled_csv(unlabeled, students.schema)[0]["PSM"] == "First"


def test_column_order_is_irrelevant(tmp_path, students):
    header = ["ESM", "LW", "ATT", "GP", "ASS", "SEM", "CTG", "PSM"]
    lines = [",".join(header)]
    for rec in students.records:
        row = {**rec.values, "ESM": rec.label}
        lines.append(",".join(row[h] for h in header))
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join(lines) + "\n")
    assert load_csv(path, students.schema) == students


def test_missing_value_rejected_by_default(tmp_path, students):
    path = tmp_path / "hole.csv"
    path.write_text(
        "PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\nFirst,Good,Good,Yes,,Good,Yes,First\n"
    )
    with pytest.raises(ValidationError, match="missing value"):
        load_csv(path, students.schema)


def test_missing_token_still_faces_domain_validation(tmp_path, students):
    path = tmp_path / "hole.csv"
    path.write_text(
        "PSM,CTG,SEM,ASS,GP,ATT,LW,ESM\nFirst,Good,Good,Yes,,Good,Yes,First\n"
    )
    with pytest.raises(ValidationError) as exc_info:
        load_csv(path, students.schema, missing_token="?")
    assert exc_info.value.value == "?"


def test_missing_token_loads_when_declared(tmp_path):
    schema = AttributeSchema(
        (Attribute("A", ("x", "?")),), Attribute("Y", ("c0", "c1"))
    )
    path = tmp_path / "hole.csv"
    path.write_text("A,Y\n,c0\n")
    ds = load_csv(path, schema, missing_token="?")
    assert ds.records[0].values["A"] == "?"


def test_record_validation_rejects_missing_and_extra_attributes():
    schema = tiny_schema(n_attrs=2)
    with pytest.raises(ValidationError):
        Dataset(schema, (Record({"A0": "a"}, "c0"),))
    with pytest.raises(ValidationError):
        Dataset(schema, (Record({"A0": "a", "A1": "b", "A2": "a"}, "c0"),))
    with pytest.raises(ValidationError):
        Dataset(schema, (Record({"A0": "a", "A1": "b"}, "nope"),))


def with_edits(students, edits):
    """The bundled records, with ``edits`` {row: (changes to values, label or None)}
    applied to those 1-based rows; a value of None in the changes drops that key."""
    records = list(students.records)
    for row, (changes, label) in edits.items():
        values = {**records[row - 1].values, **changes}
        values = {k: v for k, v in values.items() if v is not None}
        records[row - 1] = Record(values, records[row - 1].label if label is None else label)
    return records


def domain_message(students, row, column, value):
    return f"row {row}, column {column!r}: value {value!r} not in domain {sorted(students.schema.domain(column))}"


FIRST_RECORD_ERROR_CASES = {
    # a bad cell in row 1 comes before a missing key in row 2
    "bad cell, then key mismatch": (
        {1: ({"PSM": "Top"}, None), 2: ({"CTG": None}, None)},
        1, "PSM", "Top", lambda s: domain_message(s, 1, "PSM", "Top"),
    ),
    # a missing key in row 1 comes before a bad label in row 2
    "key mismatch, then bad label": (
        {1: ({"CTG": None}, None), 2: ({}, "Distinction")},
        1, "", "", lambda s: "row 1: record attributes do not match schema (missing=['CTG'], unexpected=[])",
    ),
    # within a row the cells come before the label
    "bad cell and bad label in one row": (
        {3: ({"LW": "Maybe"}, "Distinction")},
        3, "LW", "Maybe", lambda s: domain_message(s, 3, "LW", "Maybe"),
    ),
    # within a row the cells are checked in schema order
    "two bad cells in one row": (
        {2: ({"LW": "Maybe", "SEM": "Superb"}, None)},
        2, "SEM", "Superb", lambda s: domain_message(s, 2, "SEM", "Superb"),
    ),
}


@pytest.mark.parametrize("case", sorted(FIRST_RECORD_ERROR_CASES))
def test_dataset_reports_the_first_error_in_row_order(students, case):
    edits, row, column, value, message = FIRST_RECORD_ERROR_CASES[case]
    with pytest.raises(ValidationError) as exc_info:
        Dataset(students.schema, with_edits(students, edits))
    err = exc_info.value
    assert (err.row, err.column, err.value) == (row, column, value)
    assert str(err) == message(students)


def test_record_values_are_read_only_and_datasets_pickle_and_deepcopy():
    values = {"A0": "a", "A1": "b"}
    rec = Record(values, "c0")
    with pytest.raises(TypeError):
        rec.values["A0"] = "b"
    values["A0"] = "b"
    assert rec.values == {"A0": "a", "A1": "b"}
    ds = load_students()
    assert pickle.loads(pickle.dumps(ds)) == ds
    assert copy.deepcopy(ds) == ds


def test_a_record_with_names_of_mixed_types_is_refused_with_the_mismatch_message():
    record = Record({"A0": "a", 1: "b", "z": "a"}, "c0")
    with pytest.raises(ValidationError) as exc_info:
        Dataset(tiny_schema(), [Record({"A0": "a", "A1": "b"}, "c1"), record])
    assert str(exc_info.value) == "row 2: record attributes do not match schema (missing=['A1'], unexpected=[1, 'z'])"
    assert exc_info.value.row == 2



def as_lists(encoded):
    columns, labels = encoded
    return [list(c) for c in columns], list(labels)


FAULTS = st.lists(
    st.tuples(st.sampled_from(["cell", "label", "missing", "extra"]), st.integers(0, 999), st.integers(0, 99)),
    max_size=3,
)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("row_scan")


def raised(call, *args):
    """The ValidationError ``call(*args)`` raises, as (message, row, column, value), or None."""
    try:
        call(*args)
    except ValidationError as exc:
        return str(exc), exc.row, exc.column, exc.value
    return None


def check_file_readers(directory, schema, records):
    """``records`` written by ``csv.writer`` as a labeled and a predictor-only CSV: ``load_csv``
    raises what the row scan raises on them, and ``load_unlabeled_csv`` what it raises on
    them with every label valid, each message after the file's name. The labeled file is also
    written with LF line ends, and with LF line ends and its last row's first cell quoted, so
    ``load_csv`` reads it by both of its paths, and each copy raises the same."""
    names = schema.attribute_names
    rows = [[*map(rec.values.__getitem__, names), rec.label] for rec in records]
    labeled, unlabeled, lf, quoted = (directory / f"{kind}.csv" for kind in ("labeled", "unlabeled", "lf", "quoted"))
    for path, lines, end in [(labeled, [[*names, schema.class_name], *rows], "\r\n"),
                             (lf, [[*names, schema.class_name], *rows], "\n"),
                             (unlabeled, [names, *(r[:-1] for r in rows)], "\r\n")]:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator=end).writerows(lines)
    head, last = lf.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)
    quoted.write_text(f'{head}\n"{last.replace(",", chr(34) + ",", 1)}\n', encoding="utf-8")
    valid = [Record(rec.values, schema.class_domain[0]) for rec in records]
    labeled_scan = raised(ref.check, schema, records)
    for load, path, scan in [(load_csv, labeled, labeled_scan), (load_csv, lf, labeled_scan),
                             (load_csv, quoted, labeled_scan),
                             (load_unlabeled_csv, unlabeled, raised(ref.check, schema, valid))]:
        assert raised(load, path, schema) == (scan and (f"{path}: {scan[0]}", *scan[1:]))
    if labeled_scan is None:
        assert load_csv(labeled, schema)._codes == load_csv(lf, schema)._codes == load_csv(quoted, schema)._codes


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), contradiction_free=st.booleans(), faults=FAULTS)
def test_dataset_raises_as_the_row_scan_does_or_keeps_the_naive_encoding(csv_dir, seed, contradiction_free, faults):
    base = random_dataset(random.Random(seed), max_records=40, contradiction_free=contradiction_free)
    schema = base.schema
    names = schema.attribute_names
    records = list(base.records)
    for kind, row, column in faults:
        row %= len(records)
        name = names[column % len(names)]
        values, label = dict(records[row].values), records[row].label
        if kind == "cell":
            values[name] = "bad"
        elif kind == "label":
            label = "bad"
        elif kind == "missing":
            values.pop(name, None)
        else:
            values["EXTRA"] = "v0"
        records[row] = Record(values, label)
    if {kind for kind, _, _ in faults} <= {"cell", "label"}:
        check_file_readers(csv_dir, schema, records)
    try:
        ref.check(schema, records)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as exc_info:
            Dataset(schema, records)
        err = exc_info.value
        assert (str(err), err.row, err.column, err.value) == (str(exc), exc.row, exc.column, exc.value)
        return
    dataset = Dataset(schema, records)
    columns, labels = ref.encode(schema, records)
    assert as_lists(encode(dataset, names)) == (columns, labels)
    assert as_lists(encode(dataset, names[::-1])) == (columns[::-1], labels)


def test_copies_of_a_dataset_are_equal_and_keep_its_encoding():
    datasets = [load_students()] + [random_dataset(random.Random(seed)) for seed in range(20)]
    for ds in datasets:
        names = ds.schema.attribute_names
        for copied in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
            assert copied == ds
            assert as_lists(encode(copied, names)) == as_lists(encode(ds, names))
            assert as_lists(encode(copied, names)) == ref.encode(ds.schema, ds.records)


# --- distributions and partitions -------------------------------------------


def test_class_distribution_includes_zero_count_labels():
    schema = tiny_schema()
    ds = make_dataset(schema, [(("a", "b"), "c0")])
    dist = class_distribution(ds)
    assert dist.counts == {"c0": 1, "c1": 0}
    assert dist.total == 1


def test_class_distribution_of_empty_dataset(students):
    dist = class_distribution(Dataset(students.schema, ()))
    assert dist.total == 0
    assert set(dist.counts.values()) == {0}


def test_merged_distributions_add_class_by_class_over_both_classes():
    merged = ClassDistribution({"c1": 2}, 2).merged(ClassDistribution({"c0": 3}, 3))
    assert (list(merged.counts.items()), merged.total, merged.majority()) == ([("c1", 2), ("c0", 3)], 5, "c0")
    full = ClassDistribution({"c0": 1, "c1": 0}, 1).merged(ClassDistribution({"c1": 4, "c0": 2}, 6))
    assert (list(full.counts.items()), full.total) == ([("c0", 3), ("c1", 4)], 7)


def test_partition_sizes_by_psm(students):
    parts = partition(students, "PSM")
    assert {v: len(d) for v, d in parts.items()} == {
        "First": 10, "Second": 16, "Third": 16, "Fail": 8,
    }


def test_partition_sizes_by_att(students):
    parts = partition(students, "ATT")
    assert {v: len(d) for v, d in parts.items()} == {
        "Good": 21, "Average": 15, "Poor": 14,
    }


def test_partition_of_empty_dataset(students):
    parts = partition(Dataset(students.schema, ()), "PSM")
    assert set(parts) == set(students.schema.domain("PSM"))
    assert all(len(d) == 0 for d in parts.values())


def test_partition_unknown_attribute(students):
    with pytest.raises(KeyError):
        partition(students, "AGE")


def test_partition_conserves_records(students):
    rng = random.Random(7)
    datasets = [students] + [random_dataset(rng, max_records=60) for _ in range(10)]
    for ds in datasets:
        for attr in ds.schema.attribute_names:
            parts = partition(ds, attr)
            assert sum(len(p) for p in parts.values()) == len(ds)
            recovered = [r for v in ds.schema.domain(attr) for r in parts[v].records]
            assert sorted(map(id, recovered)) == sorted(map(id, ds.records))


# --- round trips ------------------------------------------------------------


def test_bundled_csv_round_trips_byte_stably(students):
    csv_path, _ = fixture_paths()
    assert dataset_to_csv(students) == csv_path.read_text()


def test_dump_then_load_is_identity(tmp_path, students):
    rng = random.Random(11)
    for i, ds in enumerate([students] + [random_dataset(rng, max_records=40) for _ in range(10)]):
        path = tmp_path / f"rt{i}.csv"
        dump_csv(ds, path)
        assert load_csv(path, ds.schema) == ds


def test_dump_csv_streams_rows_rather_than_holding_the_text(tmp_path):
    rng = random.Random(5)
    attrs = tuple(Attribute(f"A{i}", tuple(f"value{j}" for j in range(4))) for i in range(20))
    schema = AttributeSchema(attrs, Attribute("Y", ("k0", "k1", "k2")))
    codes = [tuple(rng.randrange(4) for _ in range(5000)) for _ in attrs]
    dataset = Dataset(schema, _Codes([*codes, tuple(rng.randrange(3) for _ in range(5000))]))
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        dump_csv(dataset, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == dataset_to_csv(dataset)
    assert peak < path.stat().st_size  # about half a megabyte; the text at once is twice that


def test_fuzzed_rows_all_validate_or_are_rejected(tmp_path, students):
    rng = random.Random(13)
    schema = students.schema
    names = list(schema.attribute_names)
    for trial in range(25):
        rows = []
        for _ in range(rng.randint(1, 20)):
            rows.append(
                [rng.choice(schema.domain(n)) for n in names]
                + [rng.choice(schema.class_domain)]
            )
        corrupt = rng.random() < 0.5
        if corrupt:
            i = rng.randrange(len(rows))
            j = rng.randrange(len(names) + 1)
            rows[i][j] = "BOGUS"
        path = tmp_path / "fuzz.csv"
        path.write_text(
            ",".join(names + [schema.class_name])
            + "\n"
            + "\n".join(",".join(r) for r in rows)
            + "\n"
        )
        if corrupt:
            with pytest.raises(ValidationError):
                load_csv(path, schema)
        else:
            ds = load_csv(path, schema)
            for rec in ds.records:
                for n in names:
                    assert rec.values[n] in schema.domain(n)


def test_load_unlabeled_csv(tmp_path, students):
    path = tmp_path / "unlabeled.csv"
    path.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW\nFirst,Good,Good,Yes,Yes,Good,Yes\n")
    rows = load_unlabeled_csv(path, students.schema)
    assert rows == [
        {"PSM": "First", "CTG": "Good", "SEM": "Good", "ASS": "Yes",
         "GP": "Yes", "ATT": "Good", "LW": "Yes"}
    ]
    bad = tmp_path / "bad.csv"
    bad.write_text("PSM,CTG,SEM,ASS,GP,ATT,LW\nFirst,Good,Good,Yes,Yes,Sublime,Yes\n")
    with pytest.raises(ValidationError):
        load_unlabeled_csv(bad, students.schema)



FIRST_ERROR_CASES = {
    # a bad PSM cell in row 3 and a bad LW cell in row 2: row order decides
    "earlier row": (
        "PSM,CTG,SEM,ASS,GP,ATT,LW\n"
        "First,Good,Good,Yes,Yes,Good,Yes\n"
        "First,Good,Good,Yes,Yes,Good,Maybe\n"
        "Top,Good,Good,Yes,Yes,Good,Yes\n",
        2, "LW", "Maybe",
    ),
    # two bad cells in one row, LW first in the file: schema order decides
    "earlier schema column": (
        "LW,ATT,GP,ASS,SEM,CTG,PSM\n"
        "Yes,Good,Yes,Yes,Good,Good,First\n"
        "Maybe,Good,Yes,Yes,Good,Good,Top\n",
        2, "PSM", "Top",
    ),
}


@pytest.mark.parametrize("case", sorted(FIRST_ERROR_CASES))
def test_unlabeled_rows_report_the_first_bad_cell(tmp_path, students, case):
    text, row, column, value = FIRST_ERROR_CASES[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc_info:
        load_unlabeled_csv(path, students.schema)
    err = exc_info.value
    assert (err.row, err.column, err.value) == (row, column, value)
    domain = sorted(students.schema.domain(column))
    assert str(err) == f"{path}: row {row}, column {column!r}: value {value!r} not in domain {domain}"


def test_undecodable_csv_names_its_file(tmp_path, students):
    path = tmp_path / "latin1.csv"
    path.write_bytes("PSM,CTG,SEM,ASS,GP,ATT,LW\nCaf\xe9,Good,Good,Yes,Yes,Good,Yes\n".encode("latin-1"))
    for load in (load_csv, load_unlabeled_csv):
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
            load(path, students.schema)


def test_deeply_nested_schema_json_is_a_schema_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_schema(path)

# --- grade bands ------------------------------------------------------------


@pytest.mark.parametrize(
    "percent,expected",
    [(65, "First"), (50, "Second"), (20, "Fail"), (40, "Third"),
     (0, "Fail"), (36, "Third"), (45, "Second"), (60, "First"), (100, "First")],
)
def test_bin_marks(percent, expected):
    assert bin_marks(percent) == expected


@pytest.mark.parametrize("percent", [-0.5, 100.5, 200])
def test_bin_marks_rejects_out_of_range(percent):
    with pytest.raises(ValueError):
        bin_marks(percent)


@given(st.floats(min_value=0, max_value=100, allow_nan=False))
def test_bin_marks_total_and_band_membership(percent):
    label = bin_marks(percent)
    band = next(b for b in DEFAULT_GRADE_BANDS.bands if b.label == label)
    assert band.lower <= percent and (percent < band.upper or percent == 100)


def test_grade_bands_must_cover_0_to_100_without_gaps():
    with pytest.raises(SchemaError):
        GradeBands((GradeBand("low", 0, 50), GradeBand("high", 60, 100)))
    with pytest.raises(SchemaError):
        GradeBands((GradeBand("low", 10, 100),))
    with pytest.raises(SchemaError):
        GradeBands((GradeBand("low", 0, 50),))
    with pytest.raises(SchemaError, match="^grade bands must be non-empty$"):
        GradeBands(())
    with pytest.raises(SchemaError, match=r"^band 'none' is empty: \[0, 0\)$"):
        GradeBands((GradeBand("none", 0, 0), GradeBand("all", 0, 100)))
