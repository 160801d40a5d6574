"""The lane counter gives ``contingency``'s tables, and growth gives the same model when it counts by either.

``metrics.lane_counter`` is the package's one table counter: every node of a build or of a
leave-one-out fold path, ``score_all``, and leave-one-out's full tables (by its growth's
counter) count with it.
``contingency``, the naive counter in ``conftest``, is the reference the lanes are held to here."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import gradetree.dataset
import gradetree.tree
from conftest import contingency, extra_peak
from gradetree.dataset import Attribute, AttributeSchema, Dataset, Record
from gradetree.evaluate import leave_one_out
from gradetree.metrics import lane_counter
from gradetree.tree import Criterion, TreeConfig, id3_build, save_model


def by_class(labels, rows, n_classes):
    """The rows of each class, in the order given."""
    split = [[] for _ in range(n_classes)]
    for r in rows:
        split[labels[r]].append(r)
    return split


def assert_counts_as_contingency(columns, sizes, labels, n_classes, rows, positions):
    split = by_class(labels, rows, n_classes)
    tables = lane_counter(columns, sizes, len(labels))(split, positions)
    assert [[*map(list, table)] for table in tables] == [contingency(columns[p], split, sizes[p]) for p in positions]


@st.composite
def counted_tables(draw):
    """A table of codes (a one-value domain and one over 256 values among the sizes drawn), a subset
    of its rows that may lack some classes, and the positions whose tables are asked for."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 5, 257, 300]), min_size=1, max_size=4))
    n_classes = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 300))
    columns = [draw(st.lists(st.integers(0, size - 1), min_size=n_rows, max_size=n_rows)) for size in sizes]
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows))
    rows = sorted(draw(st.sets(st.integers(0, n_rows - 1), min_size=1)))
    positions = sorted(draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1)))
    return columns, sizes, labels, n_classes, rows, positions


def seam_table(n_rows):
    """A table of ``n_rows`` rows (a one-value domain and one over 256 values among its three),
    every row asked for, and every position."""
    sizes = [3, 1, 257]
    columns = [[r % size for r in range(n_rows)] for size in sizes]
    return columns, sizes, [r % 3 for r in range(n_rows)], 3, range(n_rows), [0, 1, 2]


@settings(max_examples=150, deadline=None)
@given(counted_tables(), st.sampled_from([3, gradetree.dataset._CHUNK_ROWS]))
# one and two rows: the counter reads each column through itemgetter, which of one key returns a bare value
@example(([[2], [0], [1]], [3, 1, 2], [1], 2, [0], [0, 1, 2]), gradetree.dataset._CHUNK_ROWS)
@example(([[2, 0], [0, 0], [1, 0]], [3, 1, 2], [1, 0], 2, [0, 1], [0, 1, 2]), gradetree.dataset._CHUNK_ROWS)
@example(([[2, 0], [0, 0], [1, 0]], [3, 1, 2], [1, 0], 2, [1], [2]), gradetree.dataset._CHUNK_ROWS)
# rows are packed a chunk at a time: one full chunk, and one more row alone in the next
@example(seam_table(256), 256)
@example(seam_table(257), 256)
def test_lane_tables_equal_contingency_tables(drawn, chunk_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)  # 3: drawn tables cross chunk seams
        assert_counts_as_contingency(*drawn)


@pytest.mark.parametrize("n_rows", [255, 256])
def test_one_value_holding_every_row_fills_its_lane_where_the_width_grows_to_two_bytes(n_rows):
    # 256 rows of one value and class overflow a one-byte lane into the next value's
    sizes = [3, 2, 4]
    columns = [[1] * n_rows, [0] * n_rows, [r % 4 for r in range(n_rows)]]
    labels = [0] * n_rows
    assert_counts_as_contingency(columns, sizes, labels, 2, range(n_rows), [0, 1, 2])
    assert_counts_as_contingency(columns, sizes, labels, 2, range(0, n_rows, 3), [0, 2])


@pytest.mark.parametrize("n_rows", [65_535, 65_536])
def test_one_attribute_counts_every_row_where_the_width_grows_to_four_bytes(n_rows):
    columns, labels = [[0] * n_rows], [1] * n_rows
    assert_counts_as_contingency(columns, [2], labels, 2, range(n_rows), [0])


def test_a_lane_set_up_holds_one_chunk_beyond_the_codes_and_the_packed_ints():
    # each code is an 8-byte pointer; a set-up that gathered every column whole would
    # hold nearly one more copy of the 6,000 added rows' codes at its peak
    rng = random.Random(3)
    sizes = [3 + i % 3 for i in range(20)]
    extra = []
    for n_rows in (2000, 8000):
        columns = [tuple(rng.randrange(size) for _ in range(n_rows)) for size in sizes]
        extra.append(extra_peak(lambda: lane_counter(columns, sizes, n_rows)))
    assert extra[1] - extra[0] < 6000 * 20 * 8 / 4


def wide_dataset(seed, n_rows=5000, n_attributes=20):
    """A seeded table whose label is a noisy function of three attributes, domains of 3 to 5 values."""
    rng = random.Random(seed)
    attributes = tuple(Attribute(f"A{i:02d}", tuple(f"v{j}" for j in range(3 + i % 3))) for i in range(n_attributes))
    classes = ("k0", "k1", "k2", "k3")
    relevant = rng.sample(range(n_attributes), 3)
    label_of = {}
    records = []
    for _ in range(n_rows):
        values = [rng.choice(a.domain) for a in attributes]
        label = label_of.setdefault(tuple(values[i] for i in relevant), rng.choice(classes))
        if rng.random() < 0.2:
            label = rng.choice(classes)
        records.append(Record(dict(zip((a.name for a in attributes), values)), label))
    return Dataset(AttributeSchema(attributes, Attribute("CLASS", classes)), tuple(records))


def contingency_counter(columns, sizes, n_rows):
    """A counter with ``lane_counter``'s signature that counts each table by ``contingency``,
    its rows as tuples, as the lanes give them."""
    return lambda by_class, positions: [[*map(tuple, contingency(columns[p], by_class, sizes[p]))]
                                        for p in positions]


def test_lanes_and_contingency_grow_the_same_model_files_and_leave_one_out(students, monkeypatch, tmp_path):
    wide = wide_dataset(11)
    configs = [TreeConfig(c, max_depth=d) for c in Criterion for d in (4, None)]
    results = []
    for name, counter in (("lanes", lane_counter), ("contingency", contingency_counter)):
        monkeypatch.setattr(gradetree.tree, "lane_counter", counter)  # leave-one-out's full tables too
        files = []
        for k, config in enumerate(configs):
            path = tmp_path / f"{name}.{k}.json"
            save_model(id3_build(wide, config), path)
            files.append(path.read_bytes())
        results.append((files, [leave_one_out(students, TreeConfig(c)) for c in Criterion]))
    assert results[0] == results[1]
    assert results[0][1][0].accuracy == 0.52
