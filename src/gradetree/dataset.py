"""Schema-validated categorical datasets.

A dataset is a table over a closed categorical schema: every attribute
has a fixed, ordered domain of labels, and one attribute is designated
as the class. A ``Dataset`` holds the table as one tuple of codes, a
column of domain indices per attribute, then one of class indices; its
``records`` are a view built from them when first read. ``load_csv``
encodes the rows it reads straight into those columns, so a table only
trained on, scored or evaluated never builds a record. A plain labeled
file is read by string splits (``_plain_codes``); every other CSV, and a
labeled file found not plain, is read from its header by ``csv.reader``
through one chunk loop (``_chunks``), the only source of a read error.
Every row that loop reads, and every record, is checked by one encoder
(``_encode``). Every file the package writes goes
through one atomic writer (``_atomic_output``); ``dump_csv`` writes a row
at a time. The bundled 50-student table ships with the package
(``load_students``) together with its schema sidecar.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import stat
import sys
import tempfile
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "SchemaError",
    "ValidationError",
    "Attribute",
    "AttributeSchema",
    "Record",
    "Dataset",
    "ClassDistribution",
    "GradeBand",
    "GradeBands",
    "DEFAULT_GRADE_BANDS",
    "bin_marks",
    "class_distribution",
    "partition",
    "load_csv",
    "load_unlabeled_csv",
    "dump_csv",
    "dataset_to_csv",
    "load_schema",
    "dump_schema",
    "fixture_paths",
    "load_students",
    "DATA_DIR_ENV",
]

DATA_DIR_ENV = "GRADETREE_DATA_DIR"


class SchemaError(ValueError):
    """An attribute schema (or schema sidecar file) is malformed."""


class ValidationError(ValueError):
    """Data does not validate against its schema.

    Carries the offending location so callers can point at the exact
    cell: ``row`` is the 1-based data-row number (0 for header or
    schema-level problems), ``column`` the attribute name and ``value``
    the rejected label, when known.
    """

    def __init__(self, message: str, *, row: int = 0, column: str = "", value: str = ""):
        super().__init__(message)
        self.row = row
        self.column = column
        self.value = value


@dataclass(frozen=True)
class Attribute:
    """A named categorical attribute with a closed, ordered domain."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if not self.domain:
            raise SchemaError(f"attribute {self.name!r}: domain must be non-empty")
        # CSV output ends lines with "\n", under which csv.writer leaves a lone "\r" unquoted
        for text in (self.name, *self.domain):
            if not isinstance(text, str) or "\r" in text:
                raise SchemaError(f"attribute {self.name!r}: {text!r} is not a string without '\\r'")
        if len(set(self.domain)) != len(self.domain):
            raise SchemaError(f"attribute {self.name!r}: duplicate labels in domain {self.domain}")
        object.__setattr__(self, "domain", tuple(self.domain))


def _attribute_from_json(doc: Mapping) -> Attribute:
    name, domain = doc["name"], doc["domain"]
    if not isinstance(domain, list):  # tuple() would read a string's letters or an object's keys
        raise SchemaError(f"attribute {name!r}: domain must be a JSON array, not {type(domain).__name__}")
    return Attribute(name, tuple(domain))


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered predictor attributes plus a separately designated class attribute."""

    attributes: tuple[Attribute, ...]
    class_attribute: Attribute

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names: {names}")
        if self.class_attribute.name in names:
            raise SchemaError(
                f"class attribute {self.class_attribute.name!r} collides with a predictor name"
            )

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def class_name(self) -> str:
        return self.class_attribute.name

    @property
    def class_domain(self) -> tuple[str, ...]:
        return self.class_attribute.domain

    @cached_property
    def _domains(self) -> dict[str, tuple[str, ...]]:
        return {a.name: a.domain for a in (*self.attributes, self.class_attribute)}

    def domain(self, name: str) -> tuple[str, ...]:
        if name not in self._domains:
            raise KeyError(f"unknown attribute {name!r}")
        return self._domains[name]

    def to_json_dict(self) -> dict:
        return {
            "attributes": [{"name": a.name, "domain": list(a.domain)} for a in self.attributes],
            "class_attribute": {
                "name": self.class_attribute.name,
                "domain": list(self.class_attribute.domain),
            },
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "AttributeSchema":
        try:
            attrs = tuple(map(_attribute_from_json, doc["attributes"]))
            cls_attr = _attribute_from_json(doc["class_attribute"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema document: {exc}") from exc
        return cls(attrs, cls_attr)

    def digest(self) -> str:
        """Stable content hash; models embed it to detect schema mismatch."""
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _FrozenDict(dict):
    """The one read-only mapping of the package's frozen values: its mutators raise TypeError."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the mapping of a frozen value is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):  # as the frozenset of its items, so a value holding one hashes as it compares
        return hash(frozenset(self.items()))

    def __reduce__(self):  # pickle and deepcopy would fill a copy through the refused __setitem__
        return _FrozenDict, (dict(self),)


@dataclass(frozen=True)
class Record:
    """One labeled example: predictor values plus the class label.

    ``values`` holds a read-only copy of the mapping passed in, so a record
    cannot change after a ``Dataset`` has validated it.
    """

    values: Mapping[str, str]
    label: str

    def __post_init__(self):
        object.__setattr__(self, "values", _FrozenDict(self.values))


@dataclass(frozen=True)
class ClassDistribution:
    """Class label counts (all domain labels present, zeros included), read-only."""

    counts: Mapping[str, int]
    total: int

    def __init__(self, counts: Mapping[str, int], total: int):  # one call per node grown, so no __post_init__
        object.__setattr__(self, "counts", _FrozenDict(counts))
        object.__setattr__(self, "total", total)

    def majority(self) -> str:
        """Most frequent class; ties broken by class-domain order."""
        best = None
        best_count = -1
        for c, n in self.counts.items():
            if n > best_count:
                best, best_count = c, n
        return best

    def merged(self, other: "ClassDistribution") -> "ClassDistribution":
        """The class-by-class sum, over ``self``'s classes in order, then ``other``'s new ones."""
        counts = {c: self.counts.get(c, 0) + other.counts.get(c, 0) for c in {**self.counts, **other.counts}}
        return ClassDistribution(counts, self.total + other.total)


class _Codes(tuple):
    """A table's code columns, one per attribute in schema order, then the label codes, as
    ``load_csv`` reads them: a ``Dataset``'s only state, kept as its ``_codes``."""


@dataclass(frozen=True, init=False)
class Dataset:
    """A validated collection of records over an AttributeSchema.

    The only state is the codes, a ``_Codes`` tuple kept as ``_codes``: each
    attribute's column, in schema order, as indices into its domain, then
    the labels as indices into the class domain. Growth, scoring, rules,
    evaluation and ``dataset_to_csv`` read nothing else.
    ``records`` is a view of them, built the first time it is read and
    then kept; a dataset built from records keeps those records as its
    view. Either way a dataset is a frozen value that can be shared, and
    ``schema`` and ``records`` are its dataclass fields: equality, ``repr``
    and hashing read them, so they read the view.

    Records and ``load_csv``'s chunks reach the codes through one row
    encoder, ``_encode``: each record is first made the row ``load_csv``
    would read. An invalid record raises the ValidationError of the first
    bad row; within a row the attributes are checked first, then the cells
    in schema order, then the label (``_check_rows``).
    """

    schema: AttributeSchema
    records: tuple[Record, ...]  # its default is the property below, which reads the view

    def __init__(self, schema: AttributeSchema, records: Iterable[Record]):
        if not isinstance(records, _Codes):
            vars(self)["_records"] = records = tuple(records)
            records = _Codes(_encode(schema, _record_rows(schema, records)))
        vars(self).update(schema=schema, _codes=records)

    @property
    def records(self) -> tuple[Record, ...]:
        """The records, decoded from the codes the first time they are read, then kept."""
        try:
            return vars(self)["_records"]
        except KeyError:
            names = self.schema.attribute_names
            records = tuple(Record(dict(zip(names, row)), row[-1]) for row in _decoded_rows(self))
            return vars(self).setdefault("_records", records)  # one view, however many threads build it

    def __len__(self) -> int:
        return len(self._codes[-1])

    def __iter__(self):
        return iter(self.records)


def _record_rows(schema: AttributeSchema, records: Iterable[Record]) -> list[tuple[str, ...]]:
    """Each record as the row ``load_csv`` would read: its cells in schema order, then its label.
    At the first record whose names are not the schema's (it has as many, and each of the
    schema's), the rows before it are encoded first, so a bad cell or label among them is raised
    before the mismatch."""
    names = schema.attribute_names
    # itemgetter reads many keys fastest, but of one key it returns the bare value
    cells = itemgetter(*names) if len(names) > 1 else lambda values: tuple(map(values.__getitem__, names))
    rows = []
    for rec in records:
        values = rec.values
        if len(values) == len(names):
            try:
                rows.append((*cells(values), rec.label))
                continue
            except KeyError:
                pass
        _encode(schema, rows)
        expected, keys, n = set(names), values.keys(), len(rows) + 1
        raise ValidationError(
            f"row {n}: record attributes do not match schema "
            f"(missing={sorted(expected - keys, key=str)}, unexpected={sorted(keys - expected, key=str)})",
            row=n,
        )
    return rows


def _encode(schema: AttributeSchema, rows: Sequence[Sequence[str]], first: int = 1) -> list[tuple[int, ...]]:
    """The codes of a table given by its rows (cells in schema order, then the label, if the
    rows have one), as ``_Codes`` holds them. The rows are transposed and whole columns
    encoded at once, one at a time; only when one holds a value outside its domain are the
    rows scanned one by one (``_check_rows``), so the error names the first bad cell or
    label, its row numbered from ``first``."""
    domains = [a.domain for a in schema.attributes] + [schema.class_domain]
    try:
        return list(map(_codes, zip(*rows), domains)) or [()] * len(domains)
    except (KeyError, TypeError):  # TypeError: an unhashable value, which the scan meets too
        _check_rows(schema, rows, first)
        raise


def _decoded_rows(dataset: Dataset) -> Iterator[tuple[str, ...]]:
    """Each row's cells in schema order, its label last, read from the codes."""
    attributes = (*dataset.schema.attributes, dataset.schema.class_attribute)
    return zip(*(map(a.domain.__getitem__, codes) for a, codes in zip(attributes, dataset._codes)))


def _codes(values: Sequence[str], domain: Sequence[str]) -> tuple[int, ...]:
    """Each value's index in ``domain``; KeyError at a value outside it."""
    return _gather(values, {v: i for i, v in enumerate(domain)})


def _gather(keys: Sequence, table) -> tuple:
    """``table[key]`` for each of ``keys``, in order, as a tuple, read at C level. itemgetter
    reads many keys fastest, but of one key it returns the bare value, so that case is mapped."""
    return itemgetter(*keys)(table) if len(keys) > 1 else tuple(map(table.__getitem__, keys))


def _check_rows(schema: AttributeSchema, rows: Iterable[Sequence[str]], first: int) -> None:
    """Raise a ValidationError for the first cell or label outside its domain, rows numbered from ``first``."""
    checks = [(a.name, set(a.domain), "value {!r} not in domain") for a in schema.attributes]
    checks.append((schema.class_name, set(schema.class_domain), "label {!r} not in class domain"))
    for i, row in enumerate(rows, start=first):
        for (name, domain, text), value in zip(checks, row):  # a predictor-only row has no label
            if value not in domain:
                message = f"row {i}, column {name!r}: {text.format(value)} {sorted(domain)}"
                raise ValidationError(message, row=i, column=name, value=value)


def class_distribution(dataset: Dataset) -> ClassDistribution:
    """Count records per class label; zero-count labels are included."""
    classes = dataset.schema.class_domain
    counts = [0] * len(classes)
    for c in dataset._codes[-1]:
        counts[c] += 1
    return ClassDistribution(dict(zip(classes, counts)), len(dataset))


def partition(dataset: Dataset, attribute: str) -> dict[str, Dataset]:
    """Split by an attribute's value, keyed by every domain value.

    Parts for unrepresented values are empty datasets; every record lands
    in exactly one part.
    """
    domain = next(
        (a.domain for a in dataset.schema.attributes if a.name == attribute), None
    )
    if domain is None:
        raise KeyError(f"unknown attribute {attribute!r}")
    buckets: dict[str, list[Record]] = {v: [] for v in domain}
    for rec in dataset.records:
        buckets[rec.values[attribute]].append(rec)
    return {v: Dataset(dataset.schema, tuple(rows)) for v, rows in buckets.items()}


# --- grade-band binning -----------------------------------------------------


@dataclass(frozen=True)
class GradeBand:
    """Half-open percentage band [lower, upper); the topmost band closes at 100."""

    label: str
    lower: float
    upper: float


@dataclass(frozen=True)
class GradeBands:
    bands: tuple[GradeBand, ...]

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        if not self.bands:
            raise SchemaError("grade bands must be non-empty")
        if self.bands[0].lower != 0 or self.bands[-1].upper != 100:
            raise SchemaError("grade bands must cover [0, 100]")
        for prev, cur in zip(self.bands, self.bands[1:]):
            if prev.upper != cur.lower:
                raise SchemaError(
                    f"grade bands must be contiguous: {prev.label} ends at {prev.upper}, "
                    f"{cur.label} starts at {cur.lower}"
                )
        for b in self.bands:
            if not b.lower < b.upper:
                raise SchemaError(f"band {b.label!r} is empty: [{b.lower}, {b.upper})")

    def bin(self, percent: float) -> str:
        if not 0 <= percent <= 100:
            raise ValueError(f"percentage {percent!r} outside [0, 100]")
        for b in self.bands:
            if b.lower <= percent < b.upper:
                return b.label
        return self.bands[-1].label  # percent == 100


# The variable catalog defines the bands; [36, 40) follows the catalog's
# "Fail < 36" rather than the looser "< 40" given in the running text.
DEFAULT_GRADE_BANDS = GradeBands(
    (
        GradeBand("Fail", 0, 36),
        GradeBand("Third", 36, 45),
        GradeBand("Second", 45, 60),
        GradeBand("First", 60, 100),
    )
)


def bin_marks(percent: float, bands: GradeBands = DEFAULT_GRADE_BANDS) -> str:
    """Map a raw percentage in [0, 100] to its grade-band label."""
    return bands.bin(percent)


# --- CSV and sidecar I/O ----------------------------------------------------


# what reading a CSV raises; csv.Error: a field over csv.field_size_limit()
_READ_ERRORS = (ValidationError, csv.Error, UnicodeDecodeError)


@contextmanager
def _reading(path):
    """Re-raise an error in reading ``path``, one of ``_READ_ERRORS``, as a ValidationError that names it."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}", row=exc.row, column=exc.column, value=exc.value) from None
    except _READ_ERRORS as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _read_rows(lines: Iterable[str], columns: Sequence[str], missing_token: str | None):
    """Yield each data row that ``csv.reader`` reads from the lines of a CSV, as a list of
    cells in ``columns`` order.

    The header names each of ``columns`` once, in any order; rows are reordered
    only when it is not already in that order. An empty cell reads as
    ``missing_token``, or is rejected when that is None.
    """
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValidationError("file is empty (no header row)")
    seen = set()
    for col in header:
        if col in seen:
            raise ValidationError(f"duplicate header column {col!r}", column=col)
        seen.add(col)
    if missing := set(columns) - seen:
        raise ValidationError(f"missing column(s) {sorted(missing)}")
    if unknown := seen - set(columns):
        raise ValidationError(f"unknown column(s) {sorted(unknown)}")
    positions = None if header == list(columns) else [header.index(c) for c in columns]
    for row_no, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ValidationError(
                f"row {row_no} has {len(row)} fields, expected {len(header)}", row=row_no
            )
        if "" in row:
            if missing_token is None:
                col = header[row.index("")]
                raise ValidationError(
                    f"row {row_no}, column {col!r}: missing value", row=row_no, column=col
                )
            row = [v or missing_token for v in row]
        yield row if positions is None else [row[i] for i in positions]


def load_csv(path, schema: AttributeSchema, missing_token: str | None = None) -> Dataset:
    """Load a labeled CSV (header row; columns in any order) against a schema.

    Empty cells are rejected unless ``missing_token`` is given, in which
    case they are read as that label and still face domain validation:
    the load only succeeds if the token is declared in the domain. A plain
    regular file is read by string splits (``_plain_codes``); any other file,
    or one found not plain part-way, is read from its header by ``csv.reader``
    a chunk at a time (``_chunks``). So every error comes from the csv reader,
    and the error of a bad file is that of its first bad row, whatever its kind.

    Either path grows one list of codes per column; each is then made a tuple in
    turn and freed, so a load holds one chunk of cells and the codes, each once.
    """
    columns = schema.attribute_names + (schema.class_name,)
    codes = _plain_codes(path, schema, columns)
    if codes is None:
        codes = [[] for _ in columns]
        # only each chunk's codes are kept, so its rows are freed before the next chunk is read
        for chunk in map(itemgetter(1), _chunks(path, schema, columns, missing_token)):
            for column, part in zip(codes, chunk):
                column += part
    for i in range(len(codes)):
        codes[i] = tuple(codes[i])  # the list is freed here, before the next column's tuple is made
    return Dataset(schema, _Codes(codes))


# lines a reader reads and encodes at a time, and rows ``metrics.lane_counter`` packs at a time
_CHUNK_ROWS = 256


def _plain_codes(path, schema: AttributeSchema, columns: Sequence[str]) -> list[list[int]] | None:
    """The code columns of the labeled CSV at ``path`` when it is plain, else None.

    A plain file is a regular UTF-8 file named by a path (byte-order mark skipped) with no
    quote, whose header names each of ``columns`` once, in any order, and whose every line, read
    with universal newlines as ``csv.reader`` splits lines, holds one cell per column between
    commas, each a label of its column's domain. Such a file reads as ``csv.reader`` reads it:
    the schema has no empty label (an empty cell is a missing value), none with NUL (which
    ``csv.reader`` refuses before Python 3.11) and none longer than ``csv.field_size_limit()``.
    Each chunk of ``_CHUNK_ROWS`` lines is split into cells at once and encoded a column at a
    time onto the column's list of codes, so one chunk's lines and cells are held at a time.
    None at the first doubt, so the file is read again, and any error raised, by the csv
    reader; a descriptor or a pipe could not be read again, so it is not tried.
    """
    domains = [a.domain for a in schema.attributes] + [schema.class_domain]
    texts = [*columns, *chain(*domains)]
    if "" in texts or "\0" in "".join(texts) or max(map(len, texts)) > csv.field_size_limit():
        return None
    k, codes = len(columns), [[] for _ in columns]
    try:
        if isinstance(path, int) or not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, encoding="utf-8-sig") as source:
            line = next(source, "")
            header = line.removesuffix("\n").split(",")
            if '"' in line or len(header) != k or set(header) != set(columns):
                return None
            positions = list(map(header.index, columns))
            while lines := list(islice(source, _CHUNK_ROWS)):
                body = "".join(lines)
                if '"' in body or {*map(str.count, lines, repeat(","))} != {k - 1}:
                    return None
                cells, stop = body.replace("\n", ",").split(","), len(lines) * k
                for column, p, domain in zip(codes, positions, domains):
                    column += _codes(cells[p:stop:k], domain)
    except (OSError, ValueError, TypeError, KeyError):  # KeyError: a cell outside its domain
        return None  # the csv reader raises what it meets, as it would have from the start
    return codes


def _chunks(path, schema: AttributeSchema, columns: Sequence[str], missing_token: str | None) -> Iterator[tuple]:
    """Yield ``(rows, codes)`` for each chunk of up to ``_CHUNK_ROWS`` rows that ``_read_rows``
    reads from the UTF-8 CSV at ``path``, byte-order mark skipped: ``columns`` are the
    attribute names, then the class name in a labeled file, and ``codes`` are ``_encode``'s.
    This is the package's one csv reader: every error in reading a CSV is raised here. A
    chunk's rows are dropped when the next is read, so a caller that keeps only the codes
    holds one chunk of cells at a time.

    A row the reader rejects (ragged, or with an empty cell) is raised only after the rows
    before it are encoded, and ``_encode`` raises at the first bad cell or label (row 1 being
    the first after the header). So the error is that of the first bad row in the file.
    """
    with _reading(path), open(path, newline="", encoding="utf-8-sig") as source, \
            closing(_read_rows(source, columns, missing_token)) as rows:
        first = 1
        while True:
            chunk = []
            try:
                for row in islice(rows, _CHUNK_ROWS):
                    chunk.append(row)
            except _READ_ERRORS:
                _encode(schema, chunk, first)
                raise
            if not chunk:
                return
            yield chunk, _encode(schema, chunk, first)
            first += len(chunk)


def load_unlabeled_csv(path, schema: AttributeSchema) -> list[dict[str, str]]:
    """Load predictor-only rows (no class column) for prediction, one dict per row, read and checked
    as ``gradetree predict``'s CSV path reads its input (``_chunks``), at LF, CRLF or CR line ends."""
    names = schema.attribute_names
    return [dict(zip(names, row)) for rows, _ in _chunks(path, schema, names, None) for row in rows]


def _write_csv(dataset: Dataset, out) -> None:
    """Write ``dataset`` to the text file ``out`` in canonical form: schema column order,
    class last, LF endings; one row is held at a time."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*dataset.schema.attribute_names, dataset.schema.class_name])
    writer.writerows(_decoded_rows(dataset))


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize in canonical form: schema column order, class last, LF endings."""
    out = io.StringIO()
    _write_csv(dataset, out)
    return out.getvalue()


def dump_csv(dataset: Dataset, path) -> None:
    """Write ``dataset_to_csv``'s text to ``path`` through ``_atomic_output``, a row at a time."""
    with _atomic_output(path) as fh:
        _write_csv(dataset, fh)


def _read_json(path, error: type[Exception]):
    """The document in a UTF-8 JSON file; a file that does not decode or parse raises ``error`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:  # undecodable bytes, or an integer past sys.get_int_max_str_digits()
        raise error(f"{path}: {exc}") from None
    except RecursionError:  # the parser recurses once per level of nesting
        raise error(f"{path}: JSON nested too deeply to read") from None


@contextmanager
def _naming(out):
    """Re-raise an OSError as one about ``out``, not the temporary file beside it."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(out)) from None


@contextmanager
def _atomic_output(out):
    """A text file to write to, which reaches ``out``, or stdout when it is None, only
    once the block succeeds; if it raises, nothing is written.

    A new or regular ``out`` is replaced by a file made beside it, with the mode
    ``Path.write_text`` would give, or that of the file it replaces; a symlink is written
    through. Stdout and any other ``out``, such as ``/dev/null`` or a pipe (but not ``""``,
    which ``open`` refuses), are opened first and get the output copied from a spool file.
    """
    try:
        regular = out is not None and stat.S_ISREG(os.stat(out).st_mode)
    except FileNotFoundError:
        regular = out != ""  # not the working directory, which Path("") names
    if not regular:
        with open(out, "w", encoding="utf-8") if out is not None else nullcontext(sys.stdout) as sink, \
                tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, sink)
        return
    target = Path(out).resolve()
    temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    with _naming(out):
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        with _naming(out):
            if target.exists():
                shutil.copymode(target, temp)
            os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)  # already gone once moved into place


def _write_text(text: str, path) -> None:
    """Write ``text`` to ``path`` through ``_atomic_output``."""
    with _atomic_output(path) as fh:
        fh.write(text)


def load_schema(path) -> AttributeSchema:
    """Read a JSON schema sidecar (see README for the exact key names)."""
    return AttributeSchema.from_json_dict(_read_json(Path(path), SchemaError))


def dump_schema(schema: AttributeSchema, path) -> None:
    _write_text(json.dumps(schema.to_json_dict(), indent=2) + "\n", path)


# --- bundled fixture --------------------------------------------------------


def fixture_paths(data_dir: str | os.PathLike | None = None) -> tuple[Path, Path]:
    """Paths of the bundled students CSV and schema sidecar.

    ``data_dir`` (or the GRADETREE_DATA_DIR environment variable) overrides
    the packaged copies.
    """
    if data_dir is None:
        data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir is not None:
        base = Path(data_dir)
    else:
        base = Path(__file__).parent / "data"
    return base / "students.csv", base / "students.schema.json"


def load_students(data_dir: str | os.PathLike | None = None) -> Dataset:
    """Load the bundled 50-student dataset (or a copy from ``data_dir``)."""
    csv_path, schema_path = fixture_paths(data_dir)
    return load_csv(csv_path, load_schema(schema_path))
