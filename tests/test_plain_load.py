"""``load_csv``'s two read paths: a plain file read by string splits (``_plain_codes``), and
the csv path (``csv.reader`` and the row encoder) that reads the file again from its header
at the first doubt. Both must give the same codes, or the same error, and every error must
come from the csv path."""

import csv
import os
import random
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

import gradetree.dataset
from conftest import extra_peak
from gradetree.dataset import Attribute, AttributeSchema, ValidationError, dataset_to_csv, load_csv

BOM = "\ufeff".encode()
# plain labels, one as long as a lowered field size limit, and labels the plain path must
# leave to the csv reader: one the csv reader refuses on Python 3.10 but reads on 3.11 (NUL),
# the empty one, one longer than the lowered limit, and ones that csv.writer quotes
labels = st.sampled_from(["a", "b", "é", " a"] * 25 + ["abcd", "a\0", "", "abcde", 'q"', '"b"', "x,y"])
domains = st.lists(labels, min_size=1, max_size=4, unique=True)
line_kinds = st.sampled_from(["plain"] * 100 + ["bad value", "bad label", "empty cell", "quoted",
                                               "quoted comma", "short", "long", "blank", "huge",
                                               "undecodable", "nul"])
header_kinds = st.sampled_from(["schema order"] * 6 + ["reordered"] * 6
                               + ["duplicate", "missing", "unknown", "quoted"])
line_ends = st.sampled_from(["\n", "\r\n", "\r", "mixed"])
SMALL_LIMIT = 4  # a field size limit that the label "abcd" reaches and "abcde" passes


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def load_cases(draw):
    """A schema, the bytes of a labeled CSV for it, a ``missing_token`` and a field size limit."""
    predictors = tuple(Attribute(f"A{i}", tuple(draw(domains))) for i in range(draw(st.integers(0, 3))))
    schema = AttributeSchema(predictors, Attribute("Y", tuple(draw(domains))))
    columns = [*schema.attribute_names, schema.class_name]
    kind = draw(header_kinds)
    order = list(range(len(columns)))
    if kind != "schema order":
        order = draw(st.permutations(order))
    header = [columns[i] for i in order]
    if kind == "duplicate":
        header[-1] = header[0]
    elif kind == "missing":
        header.pop()
    elif kind == "unknown":
        header.append("EXTRA")
    limit = draw(st.sampled_from([SMALL_LIMIT, csv.field_size_limit()]))
    lines = [",".join([quoted(header[0]), *header[1:]] if kind == "quoted" else header)]
    for line_kind in draw(st.lists(line_kinds, max_size=8)):
        cells = {c: draw(st.sampled_from(schema.domain(c))) for c in columns}
        row = [cells[c] for c in header if c in cells]
        at = draw(st.integers(0, len(row) - 1)) if row else 0
        if line_kind == "bad value" and row:
            row[at] = "zz"
        elif line_kind == "bad label" and "Y" in header:
            row[header.index("Y")] = "zz"
        elif line_kind == "empty cell" and row:
            row[at] = ""
        elif line_kind == "quoted" and row:
            row[at] = quoted(row[at])
        elif line_kind == "quoted comma" and row:
            row[at] = quoted(row[at] + ",")
        elif line_kind == "short":
            row = row[:-1]
        elif line_kind == "long":
            row.append(row[0] if row else "a")
        elif line_kind == "blank":
            row = []
        elif line_kind == "huge" and row:
            row[at] = "y" * (limit + 1)
        elif line_kind == "nul" and row:
            row[at] += "\0"
        text = ",".join(row)
        lines.append(text.encode() + b"\xff" if line_kind == "undecodable" else text)
    end = draw(line_ends)
    data = BOM if draw(st.booleans()) else b""
    for i, line in enumerate(lines):
        last = i == len(lines) - 1
        ending = draw(st.sampled_from(["\n", "\r\n", "\r"])) if end == "mixed" else end
        if last and draw(st.booleans()):
            ending = ""  # no final newline
        data += (line if isinstance(line, bytes) else line.encode()) + ending.encode()
    if draw(st.integers(0, 7)) == 0:
        data += draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))  # a blank line at the end
    token = draw(st.sampled_from([None, "zz", *schema.class_domain, *(d for a in predictors for d in a.domain)]))
    return schema, data, token, limit


def outcome(path, schema, token):
    """The codes ``load_csv`` reads, or the error it raises as (message, row, column, value)."""
    try:
        return "codes", load_csv(path, schema, token)._codes
    except ValidationError as exc:
        return "error", str(exc), exc.row, exc.column, exc.value


def csv_reader_calls(monkeypatch):
    """A list that gains a list for each ``_read_rows`` call, which holds the first line it
    reads (its header) once that line is read."""
    calls, read_rows = [], gradetree.dataset._read_rows

    def spy(lines, *args):
        call = []
        calls.append(call)

        def first_kept():
            for line in lines:
                if not call:
                    call.append(line)
                yield line

        return read_rows(first_kept(), *args)

    monkeypatch.setattr(gradetree.dataset, "_read_rows", spy)
    return calls


@settings(max_examples=300, deadline=None)
@given(case=load_cases(), chunk_rows=st.sampled_from([2, gradetree.dataset._CHUNK_ROWS]))
@example(case=(AttributeSchema((), Attribute("Y", ("a", "b"))), b"Y\na\nb\r\na", None, SMALL_LIMIT), chunk_rows=2)
@example(case=(AttributeSchema((Attribute("A0", ("a", "b")),), Attribute("Y", ("a",))),
               b"A0,Y\nzz,a\n\xff\n", None, SMALL_LIMIT), chunk_rows=2)  # undecodable after a bad row
@example(case=(AttributeSchema((), Attribute("Y", ("a\0", "b"))), b"Y\nb\na\0\n", None, SMALL_LIMIT), chunk_rows=2)
@example(case=(AttributeSchema((Attribute("A0", ("", "a")),), Attribute("Y", ("a",))), b"A0,Y\n,a\n", None,
               SMALL_LIMIT), chunk_rows=2)  # an empty label, which the csv reader calls a missing value
@example(case=(AttributeSchema((), Attribute("Y", ("abcde", "a"))), b"Y\na\nabcde\n", None, SMALL_LIMIT), chunk_rows=2)
@example(case=(AttributeSchema((), Attribute("Y", ('"b"', "b"))), b'Y\nb\n"b"\n', None, SMALL_LIMIT), chunk_rows=2)
@example(case=(AttributeSchema((), Attribute('"Y"', ("a",))), b'"Y"\na\n', None, SMALL_LIMIT), chunk_rows=2)
@example(case=(AttributeSchema((Attribute("A0", ("a", "b")),), Attribute("Y", ("a", "b"))), b"A0,Y\na,b,a\nb\n", None,
               SMALL_LIMIT), chunk_rows=2)  # a long and a short row, whose cells add up to two rows
def test_the_plain_path_and_the_csv_path_load_the_same(tmp_path_factory, case, chunk_rows):
    schema, data, token, limit = case
    path = tmp_path_factory.mktemp("plain_load") / "table.csv"
    path.write_bytes(data)
    old_limit = csv.field_size_limit(limit)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
            patch.setattr(gradetree.dataset, "_plain_codes", lambda *args: None)
            expected = outcome(path, schema, token)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
            calls = csv_reader_calls(patch)
            assert outcome(path, schema, token) == expected
    finally:
        csv.field_size_limit(old_limit)
    assert len(calls) <= 1
    if expected[0] == "error":
        assert calls, "an error came from the plain path"


# --- which path a file takes ------------------------------------------------------


def wide_table(tmp_path, n_rows=5000):
    """A seeded table of ``n_rows`` rows and 20 attributes of 3 to 5 values, as the benchmark's, and its schema."""
    rng = random.Random(1)
    attributes = tuple(Attribute(f"A{i:02d}", tuple(f"v{j}" for j in range(3 + i % 3))) for i in range(20))
    schema = AttributeSchema(attributes, Attribute("CLASS", ("k0", "k1", "k2", "k3")))
    rows = [[rng.choice(a.domain) for a in attributes] + [rng.choice(schema.class_domain)] for _ in range(n_rows)]
    path = tmp_path / f"wide-{n_rows}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([[*schema.attribute_names, "CLASS"], *rows])
    return path, schema


def copies(path):
    """CRLF, CR, byte-order-marked and column-reversed copies of the LF CSV at ``path``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    reversed_lines = [",".join(line.split(",")[::-1]) for line in lines]
    texts = {"crlf": "\r\n".join(lines) + "\r\n", "cr": "\r".join(lines), "bom": "\ufeff" + "\n".join(lines) + "\n",
             "reordered": "\n".join(reversed_lines) + "\n"}
    for kind, text in texts.items():
        copy = path.with_name(f"{kind}-{path.name}")
        copy.write_bytes(text.encode())
        yield kind, copy


@pytest.mark.parametrize("chunk_rows", [2, gradetree.dataset._CHUNK_ROWS])
@pytest.mark.parametrize("table", ["bundled", "wide", "seam"])
def test_plain_files_never_reach_the_csv_reader(tmp_path, monkeypatch, students, table, chunk_rows):
    if table == "bundled":
        path, schema = tmp_path / "students.csv", students.schema
        path.write_text(dataset_to_csv(students))
    else:  # "seam": two full chunks of the default size, and one row in a third
        path, schema = wide_table(tmp_path, 5000 if table == "wide" else 2 * gradetree.dataset._CHUNK_ROWS + 1)
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradetree.dataset, "_plain_codes", lambda *args: None)
        expected = load_csv(path, schema)._codes
    calls = csv_reader_calls(monkeypatch)
    assert load_csv(path, schema)._codes == expected
    for kind, copy in copies(path):
        assert load_csv(copy, schema)._codes == expected, kind
    assert calls == []


@pytest.mark.parametrize("path_kind", ["plain", "csv"])
def test_a_load_holds_the_codes_once_beyond_one_chunk(tmp_path, monkeypatch, path_kind):
    # each code is an 8-byte pointer; a load that also held its codes as lists would
    # hold nearly one more copy of the 6,000 added rows' codes at its peak. Chunks of
    # 64 rows keep a chunk's cells, which do not grow with the table, below that copy.
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", 64)
    if path_kind == "csv":
        monkeypatch.setattr(gradetree.dataset, "_plain_codes", lambda *args: None)
    extra = []
    for n_rows in (2000, 8000):
        path, schema = wide_table(tmp_path, n_rows)
        extra.append(extra_peak(lambda: load_csv(path, schema)))
    assert extra[1] - extra[0] < 6000 * 21 * 8 / 4


@pytest.mark.parametrize("chunk_rows", [2, gradetree.dataset._CHUNK_ROWS])
def test_a_quoted_cell_in_the_last_row_reads_the_file_again_from_its_header(tmp_path, monkeypatch, students,
                                                                          chunk_rows):
    plain, path = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    text = dataset_to_csv(students)
    plain.write_text(text)
    head, last = text.rstrip("\n").rsplit("\n", 1)
    path.write_text(f'{head}\n"{last.replace(",", chr(34) + ",", 1)}\n')  # its first cell quoted
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
    calls = csv_reader_calls(monkeypatch)
    assert load_csv(path, students.schema) == students
    assert calls == [[text.split("\n", 1)[0] + "\n"]]
    assert load_csv(plain, students.schema)._codes == load_csv(path, students.schema)._codes


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_read_by_the_csv_reader_alone(tmp_path, monkeypatch, students):
    fifo = tmp_path / "students.fifo"
    os.mkfifo(fifo)
    text = dataset_to_csv(students)

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    calls = csv_reader_calls(monkeypatch)
    assert load_csv(fifo, students.schema) == students
    writer.join(timeout=10)
    assert calls == [[text.split("\n", 1)[0] + "\n"]]


def test_an_open_descriptor_is_read_by_the_csv_reader_alone(tmp_path, monkeypatch, students):
    path = tmp_path / "students.csv"
    text = dataset_to_csv(students)
    path.write_text(text)
    calls = csv_reader_calls(monkeypatch)
    assert load_csv(os.open(path, os.O_RDONLY), students.schema) == students  # load_csv closes it
    assert calls == [[text.split("\n", 1)[0] + "\n"]]
