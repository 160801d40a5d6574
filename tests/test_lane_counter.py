"""The lane counter gives ``contingency``'s tables, and growth gives the same model when it counts by either.

``metrics.lane_counter`` is the package's one table counter: every node of a build, every
node of the full data that leave-one-out's folds reach (by its growth's counter), and
``score_all`` count with it. It counts every row of its columns, packs each into one byte per
value, and sums a class's rows at most ``metrics._LANE_ROWS`` (255) at a time, so that no
one-byte lane overflows; its blocks' counts are added lane by lane.
``contingency``, the naive counter in ``conftest``, is the reference the lanes are held to here."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import gradetree.dataset
import gradetree.metrics
import gradetree.tree
from conftest import contingency, extra_peak, traced, wide_dataset
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
    tables = lane_counter(columns, sizes)(split, positions)
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


def one_class_table(n_rows):
    """A table of ``n_rows`` rows in which one value of every attribute and one class hold every
    row, every row asked for, and every position."""
    sizes = [3, 2, 4]
    columns = [[1] * n_rows, [0] * n_rows, [3] * n_rows]
    return columns, sizes, [0] * n_rows, 2, range(n_rows), [0, 1, 2]


CHUNK_ROWS, LANE_ROWS = gradetree.dataset._CHUNK_ROWS, gradetree.metrics._LANE_ROWS


@settings(max_examples=150, deadline=None)
@given(counted_tables(), st.sampled_from([3, CHUNK_ROWS]), st.sampled_from([3, LANE_ROWS]))
# one and two rows: the counter reads each column through itemgetter, which of one key returns a bare value
@example(([[2], [0], [1]], [3, 1, 2], [1], 2, [0], [0, 1, 2]), CHUNK_ROWS, LANE_ROWS)
@example(([[2, 0], [0, 0], [1, 0]], [3, 1, 2], [1, 0], 2, [0, 1], [0, 1, 2]), CHUNK_ROWS, LANE_ROWS)
@example(([[2, 0], [0, 0], [1, 0]], [3, 1, 2], [1, 0], 2, [1], [2]), CHUNK_ROWS, LANE_ROWS)
# rows are packed a chunk at a time: one full chunk, and one more row alone in the next
@example(seam_table(256), 256, LANE_ROWS)
@example(seam_table(257), 256, LANE_ROWS)
# a class's rows are summed a block at a time: one or two full blocks, and one more row alone in the next
@example(one_class_table(255), CHUNK_ROWS, 255)
@example(one_class_table(256), CHUNK_ROWS, 255)
@example(one_class_table(510), CHUNK_ROWS, 255)
@example(one_class_table(511), CHUNK_ROWS, 255)
def test_lane_tables_equal_contingency_tables(drawn, chunk_rows, lane_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradetree.dataset, "_CHUNK_ROWS", chunk_rows)  # 3: drawn tables cross chunk seams
        patch.setattr(gradetree.metrics, "_LANE_ROWS", lane_rows)  # 3: drawn classes cross block seams
        assert_counts_as_contingency(*drawn)


@pytest.mark.parametrize("n_rows", [255, 256])
def test_one_value_holding_every_row_fills_its_lane_across_the_first_block_seam(n_rows):
    # 256 rows of one value and class summed at once would overflow a one-byte lane into the next value's
    sizes = [3, 2, 4]
    columns = [[1] * n_rows, [0] * n_rows, [r % 4 for r in range(n_rows)]]
    labels = [0] * n_rows
    assert_counts_as_contingency(columns, sizes, labels, 2, range(n_rows), [0, 1, 2])
    assert_counts_as_contingency(columns, sizes, labels, 2, range(0, n_rows, 3), [0, 2])


@pytest.mark.parametrize("n_rows", [65_535, 65_536])
def test_one_attribute_counts_every_row_across_hundreds_of_block_seams(n_rows):
    columns, labels = [[0] * n_rows], [1] * n_rows
    assert_counts_as_contingency(columns, [2], labels, 2, range(n_rows), [0])


def test_a_lane_is_one_byte_on_both_sides_of_65536_rows():
    # a lane wide enough for every row's count would go from 2 to 4 bytes at 65,536 rows, and keep megabytes more
    rng = random.Random(5)
    sizes = [3, 4, 5]
    table = [tuple(rng.randrange(size) for _ in range(65_536)) for size in sizes]
    kept = []
    for n_rows in (65_535, 65_536):  # the same rows, and one more
        columns = [column[:n_rows] for column in table]
        kept.append(traced(lambda: lane_counter(columns, sizes))[0])
    assert kept[1] - kept[0] < 256


def test_a_lane_set_up_holds_one_chunk_beyond_the_codes_and_the_packed_ints():
    # each code is an 8-byte pointer; a set-up that gathered every column whole would
    # hold nearly one more copy of the 6,000 added rows' codes at its peak
    rng = random.Random(3)
    sizes = [3 + i % 3 for i in range(20)]
    extra = []
    for n_rows in (2000, 8000):
        columns = [tuple(rng.randrange(size) for _ in range(n_rows)) for size in sizes]
        extra.append(extra_peak(lambda: lane_counter(columns, sizes)))
    assert extra[1] - extra[0] < 6000 * 20 * 8 / 4


def contingency_counter(columns, sizes):
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
