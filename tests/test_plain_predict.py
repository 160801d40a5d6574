"""``predict``'s two read paths: plain lines, echoed through one compiled line pattern,
and the csv path (``csv.reader`` and the column check) that reads the file again from its
header once a line is not plain. Both must give the same exit code, error and bytes."""

import contextlib
import csv
import io
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gradetree.cli
import gradetree.dataset
from conftest import random_dataset, tiny_schema
from gradetree.cli import _alternation, _line_pattern, _plain, main
from gradetree.dataset import Attribute, AttributeSchema, ClassDistribution, Dataset, Record, dump_csv
from gradetree.tree import DecisionTree, Leaf, TreeConfig, id3_build, save_model

# prefix pairs, regular-expression metacharacters and non-ASCII letters
value_chars = st.sampled_from(["a", "b", ".", "*", "(", "\\", "|", "é", "字"])
domains = st.lists(st.text(value_chars, min_size=1, max_size=4), min_size=1, max_size=8, unique=True)


def near_misses(value):
    """Strings one edit from ``value``: a character dropped, added or changed."""
    for i in range(len(value) + 1):
        yield value[:i] + value[i + 1:]
        for char in ("a", "b", ".", "*", "(", "\\", "|", "é", "字", ","):
            yield value[:i] + char + value[i:]
            yield value[:i] + char + value[i + 1:]


@settings(max_examples=200, deadline=None)
@given(values=domains, others=st.lists(st.text(value_chars, max_size=5), max_size=10))
def test_an_alternation_matches_exactly_its_values(values, others):
    pattern = re.compile(_alternation(values))
    assert all(pattern.fullmatch(v) for v in values)
    for text in [*others, *(miss for v in values for miss in near_misses(v))]:
        assert bool(pattern.fullmatch(text)) == (text in values), text


def test_an_alternation_of_prefixes_and_metacharacters():
    pattern = re.compile(_alternation(["a", "ab", "abc", ".", "a*", "(", "\\", "|", "é"]))
    for text in ["a", "ab", "abc", ".", "a*", "(", "\\", "|", "é"]:
        assert pattern.fullmatch(text)
    for text in ["", "b", "abcd", "ac", "aa", "x", "a.", "**", "()", "\\\\", "e", "abc|"]:
        assert not pattern.fullmatch(text)


def test_plain_values_are_those_that_round_trip_unquoted():
    limit = csv.field_size_limit()
    for value in ["a", " a ", "a.b", "(*)", "\\", "é", "x" * limit]:
        assert _plain(value), value
    for value in ["", "a,b", 'a"b', '"', "a\nb", "\n", "x" * (limit + 1)]:
        assert not _plain(value), value


def test_a_schema_with_a_value_that_is_not_plain_has_no_line_pattern():
    plain = Attribute("A", ("x", "y"))
    big = 10 ** 9  # input bytes, enough to repay any pattern here
    assert _line_pattern(AttributeSchema((plain,), Attribute("Y", ("p,q", "r"))), big)  # labels are free
    for domain in [("x", "a,b"), ("x", 'a"b'), ("x", "a\nb"), ("x", "")]:
        schema = AttributeSchema((plain, Attribute("B", domain)), Attribute("Y", ("p",)))
        assert _line_pattern(schema, big) is None, domain
    assert _line_pattern(AttributeSchema((Attribute("A,B", ("x",)),), Attribute("Y", ("p",))), big) is None
    too_deep = Attribute("A", tuple("a" * k for k in range(1, 1000)))  # nested 999 groups deep
    assert _line_pattern(AttributeSchema((too_deep,), Attribute("Y", ("p",))), big) is None


def test_the_line_pattern_is_compiled_only_for_an_input_long_enough_to_repay_it():
    schema = AttributeSchema((Attribute("A", ("x", "yy")), Attribute("B", ("zzz",))), Attribute("Y", ("p",)))
    enough = 6 * gradetree.cli._INPUT_BYTES_PER_DOMAIN_CHAR  # six characters in the domains
    assert _line_pattern(schema, enough - 1) is None
    assert _line_pattern(schema, enough).fullmatch("yy,zzz\n")


# --- the two paths against each other ----------------------------------------------


def run(argv):
    """Exit code, standard error and the bytes of ``--out`` (None when it is not written),
    with the line pattern tried however short the input."""
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradetree.cli, "_INPUT_BYTES_PER_DOMAIN_CHAR", 0)
        code = main(argv)
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


def forced_csv_path(argv):
    """``run`` with every line read by the csv path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradetree.cli, "_line_pattern", lambda schema, input_bytes: None)
        return run(argv)


def both_paths(argv):
    """``predict``'s result, which must be the same with the csv path forced."""
    plain = run(argv)
    assert forced_csv_path(argv) == plain
    return plain


plain_values = st.text(st.sampled_from("ab.*é"), min_size=1, max_size=3)
# values csv.writer quotes, and the empty value: a schema holding one has no line pattern
other_values = st.sampled_from([",", "a,b", '"', 'a"b', "\n", "a\nb", ""])
plain_domains = st.lists(plain_values, min_size=1, max_size=4, unique=True)
schema_domains = st.lists(plain_values | other_values, min_size=1, max_size=4, unique=True)
BOM = "\ufeff".encode()
# three lines in four are plain, so that many a chunk of three is plain throughout
line_kinds = st.sampled_from(["plain"] * 27 + ["quoted", "crlf", "blank", "short", "long",
                                              "empty cell", "bad value", "undecodable", "bom"])


@st.composite
def predict_cases(draw):
    """A schema, training records over it, and the bytes of an input file for ``predict``."""
    n = draw(st.integers(1, 3))
    # the first attribute's values are plain, so the plain path is often taken; a domain
    # shared by every attribute lets a reordered line match the line pattern
    shared = draw(plain_domains) if draw(st.booleans()) else None
    attrs = tuple(Attribute(f"A{i}", tuple(shared or draw(schema_domains if i else plain_domains)))
                  for i in range(n))
    schema = AttributeSchema(attrs, Attribute("Y", tuple(draw(schema_domains))))
    row = st.tuples(*(st.sampled_from(a.domain) for a in attrs))
    records = [Record(dict(zip(schema.attribute_names, cells)), draw(st.sampled_from(schema.class_domain)))
               for cells in draw(st.lists(row, min_size=1, max_size=8))]
    order = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    header = [schema.attribute_names[i] for i in order]
    quoted = draw(st.lists(st.booleans(), min_size=n, max_size=n))  # a quoted name is read as it is
    lines = [",".join(f'"{name}"' if q else name for q, name in zip(quoted, header)).encode() + b"\n"]
    for kind in draw(st.lists(line_kinds, max_size=12)):
        cells = [draw(row)[i] for i in order]
        if kind == "empty cell":
            cells[draw(st.integers(0, n - 1))] = ""
        elif kind == "bad value":
            cells[draw(st.integers(0, n - 1))] = "zz"
        elif kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append(cells[0])
        text = io.StringIO()
        quoting = csv.QUOTE_ALL if kind == "quoted" else csv.QUOTE_MINIMAL
        csv.writer(text, lineterminator="\r\n" if kind == "crlf" else "\n", quoting=quoting).writerow(cells)
        line = b"\n" if kind == "blank" else text.getvalue().encode()
        if kind == "undecodable":
            line = line[:-1] + b"\xff\n"
        elif kind == "bom":
            line = BOM + line
        lines.append(line)
    data = b"".join(lines)
    if draw(st.booleans()):
        data = data.removesuffix(b"\n")
    if draw(st.booleans()):
        data = BOM + data
    return schema, records, data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("plain")


# a chunk of three plain lines echoed, then a CRLF line: the restart from the header, exit 0
RESTART_AFTER_A_CHUNK = (
    AttributeSchema((Attribute("A0", ("a", "b")),), Attribute("Y", ("p", "q"))),
    [Record({"A0": "a"}, "p"), Record({"A0": "b"}, "q")],
    b"A0\na\nb\na\nb\r\n",
)


@settings(max_examples=150, deadline=None)
@given(case=predict_cases())
@example(case=RESTART_AFTER_A_CHUNK)
def test_the_plain_path_and_the_csv_path_give_the_same_result(workdir, case):
    schema, records, data = case
    model, inputs, out = workdir / "model.json", workdir / "in.csv", workdir / "out.csv"
    save_model(id3_build(Dataset(schema, records)), model)
    inputs.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradetree.dataset, "_CHUNK_ROWS", 3)
        both_paths(["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)])


def test_a_model_with_no_predictors_writes_a_label_and_confidence_per_line(tmp_path):
    # every line of the input is empty, so a line pattern of no cells would match each one
    schema = AttributeSchema((), Attribute("Y", ("c0", "c1")))
    leaf = Leaf("c0", 3, ClassDistribution({"c0": 2, "c1": 1}, 3))
    model, inputs, out = tmp_path / "model.json", tmp_path / "in.csv", tmp_path / "out.csv"
    save_model(DecisionTree(leaf, schema, TreeConfig(), 3), model)
    inputs.write_text("\n\n\n\n")
    code, err, written = both_paths(["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)])
    assert (code, err) == (0, "")
    assert list(csv.reader(io.StringIO(written.decode()))) == [["Y", "confidence"]] + [["c0", "0.6667"]] * 3


# --- restart ----------------------------------------------------------------------


@pytest.fixture()
def dumped(tmp_path):
    """A model of a random table, and that table written by ``dump_csv`` without its class
    column, as ``predict`` input."""
    dataset = random_dataset(random.Random(7), max_attributes=6, max_records=200)
    model, table, inputs = tmp_path / "model.json", tmp_path / "table.csv", tmp_path / "in.csv"
    save_model(id3_build(dataset), model)
    dump_csv(dataset, table)
    inputs.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in table.read_text().splitlines()))
    return model, inputs, tmp_path / "out.csv"


@pytest.mark.parametrize("chunk_rows", [3, 4096])
def test_plain_input_never_reaches_the_csv_reader(monkeypatch, dumped, chunk_rows):
    model, inputs, out = dumped
    argv = ["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)]
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
    expected = forced_csv_path(argv)
    assert expected[:2] == (0, "")

    def refuse(*args):
        raise AssertionError("the csv path read a plain file")

    monkeypatch.setattr(gradetree.dataset, "_read_rows", refuse)
    assert run(argv) == expected


def large_domains(rng, attributes=3, words=200):
    """A schema of ``attributes`` domains of ``words`` words each, where every other word is
    the one before it with letters added, so half the words are prefixes of others."""
    letters = "abcdefghij.*"
    attrs = []
    for i in range(attributes):
        domain = []
        while len(domain) < words:
            word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
            longer = word + "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            if word not in domain and longer not in domain:
                domain += [word, longer]
        attrs.append(Attribute(f"A{i}", tuple(domain)))
    return AttributeSchema(tuple(attrs), Attribute("Y", ("p", "q", "r")))


def test_large_domains_of_prefixes_take_the_plain_path(tmp_path, monkeypatch):
    rng = random.Random(11)
    schema = large_domains(rng)
    domains = [a.domain for a in schema.attributes]
    records = [Record({a.name: rng.choice(a.domain) for a in schema.attributes}, rng.choice("pqr"))
               for _ in range(400)]
    model, inputs, out = tmp_path / "model.json", tmp_path / "in.csv", tmp_path / "out.csv"
    save_model(id3_build(Dataset(schema, records)), model)
    lines = [",".join(rng.choice(d) for d in domains) for _ in range(2000)]
    inputs.write_text("\n".join(["A0,A1,A2", *lines]) + "\n")
    argv = ["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)]
    expected = forced_csv_path(argv)
    assert expected[:2] == (0, "") and expected[2].count(b"\n") == 2001

    def refuse(*args):
        raise AssertionError("the csv path read a plain file")

    with monkeypatch.context() as patch:
        patch.setattr(gradetree.dataset, "_read_rows", refuse)
        assert run(argv) == expected
    # a word one letter short of a longer word, and one with a letter too many: each is refused
    short = next(w[:-1] for w in domains[0] if len(w) > 1 and w[:-1] not in domains[0])
    first = [d[0] for d in domains]
    for bad in (f"{short},{first[1]},{first[2]}", f"{first[0]},{first[1]}z,{first[2]}"):
        inputs.write_text("\n".join(["A0,A1,A2", *lines[:1500], bad, *lines[1500:]]) + "\n")
        code, err, written = both_paths(argv)
        assert (code, written) == (2, None) and "row 1501" in err, err


def spy_on_read_rows(monkeypatch):
    """The rows that each ``_read_rows`` call yields, a list per call."""
    calls, read_rows = [], gradetree.dataset._read_rows

    def spy(lines, columns, missing_token):
        calls.append(rows := [])
        for row in read_rows(lines, columns, missing_token):
            rows.append(list(row))  # predict appends its label and confidence to the row
            yield row

    monkeypatch.setattr(gradetree.dataset, "_read_rows", spy)
    return calls


def with_a_quoted_cell(inputs, row):
    """Rewrite ``inputs`` with the first cell of data row ``row`` quoted; return its rows' cells."""
    header, *lines = inputs.read_text().splitlines()
    cells = [line.split(",") for line in lines]
    lines[row - 1] = f'"{cells[row - 1][0]}",' + ",".join(cells[row - 1][1:])
    inputs.write_text("\n".join([header, *lines]) + "\n")
    return cells


def test_the_csv_path_restarts_from_the_header_at_a_quoted_cell(monkeypatch, dumped):
    model, inputs, out = dumped
    cells = with_a_quoted_cell(inputs, 5)  # rows 4-6 are its chunk; rows 1-3 were echoed
    argv = ["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)]
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", 3)
    expected = forced_csv_path(argv)
    assert expected[:2] == (0, "")
    calls = spy_on_read_rows(monkeypatch)
    code, err, written = run(argv)
    assert (code, err, written) == expected
    assert calls == [cells]  # one read, from the header, of every row
    assert written.count(written.split(b"\n", 1)[0] + b"\n") == 1


def test_the_csv_path_reads_a_reordered_header_from_the_start(monkeypatch, dumped):
    model, inputs, out = dumped
    header, *lines = inputs.read_text().splitlines()
    inputs.write_text("\n".join([",".join(reversed(header.split(","))),
                                 *(",".join(reversed(line.split(","))) for line in lines)]) + "\n")
    argv = ["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)]
    expected = forced_csv_path(argv)
    calls = spy_on_read_rows(monkeypatch)
    assert run(argv) == expected
    assert list(map(len, calls)) == [len(lines)]


def test_a_pipe_is_read_once_as_csv(monkeypatch, dumped):
    model, inputs, out = dumped
    with_a_quoted_cell(inputs, 5)  # past the first chunk of three rows
    data = inputs.read_bytes()
    assert len(data) < 65536  # the pipe holds it all, so it is written before predict reads it
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", 3)
    expected = run(["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)])
    assert expected[:2] == (0, "")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        argv = ["predict", "--model", str(model), "--data", f"/dev/fd/{read_end}", "--out", str(out)]
        assert run(argv) == expected
    finally:
        os.close(read_end)


@pytest.mark.parametrize("chunk_rows", [3, 4096])
@pytest.mark.parametrize("bad_row", [1, 1500, 2999, 3000])
def test_a_line_that_does_not_decode_is_raised_as_the_csv_path_raises_it(tmp_path, monkeypatch, chunk_rows, bad_row):
    schema = tiny_schema(n_attrs=3, domain=("value-a", "value-b"), classes=("c0", "c1"))
    names = schema.attribute_names
    dataset = Dataset(schema, [Record(dict(zip(names, ("value-a", "value-b", "value-a"))), "c0"),
                               Record(dict(zip(names, ("value-b", "value-b", "value-a"))), "c1")])
    model, inputs, out = tmp_path / "model.json", tmp_path / "in.csv", tmp_path / "out.csv"
    save_model(id3_build(dataset), model)
    rows = [b"value-a,value-b,value-a\n", b"value-b,value-b,value-b\n"] * 1500  # 72 kB, nine decoder blocks
    rows[bad_row - 1] = b"value-a,value-\xff,value-a\n"
    inputs.write_bytes(b"A0,A1,A2\n" + b"".join(rows))
    monkeypatch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)
    code, err, written = both_paths(["predict", "--model", str(model), "--data", str(inputs), "--out", str(out)])
    assert (code, written) == (2, None)
    assert err.startswith(f"error: {inputs}: 'utf-8' codec can't decode byte 0xff in position ")
