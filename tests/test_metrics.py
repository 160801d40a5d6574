import math
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from conftest import contingency, make_dataset, naive_gain, naive_split_info, random_dataset, tiny_schema
from gradetree.dataset import Attribute, AttributeSchema, ClassDistribution, Dataset, class_distribution
from gradetree.metrics import (
    ImpurityKind,
    classification_error,
    count_entropy,
    entropy,
    gain_ratio,
    gini,
    impurity,
    information_gain,
    node_scores,
    score_all,
    split_information,
)

# Values recomputed from the bundled table with an independent tally
# script before this module was written; see also gradetree.verify.
ENTROPY_S = 1.963615306199356
ORACLE_GAIN = {
    "PSM": 0.4170359954604983,
    "CTG": 0.34837605305007235,
    "SEM": 0.224253317238992,
    "ASS": 0.21862811378635705,
    "GP": 0.04393555481942624,
    "ATT": 0.4519424292733485,
    "LW": 0.14154703637025223,
}
ORACLE_SPLIT = {
    "PSM": 1.9394705707972522,
    "CTG": 1.582683189255492,
    "SEM": 1.5475247721750747,
    "ASS": 0.9953784388202257,
    "GP": 0.9426831892554922,
    "ATT": 1.5609563153489607,
    "LW": 0.7601675029619657,
}


def dist(*counts):
    return ClassDistribution({f"c{i}": c for i, c in enumerate(counts)}, sum(counts))


counts_lists = st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=8).filter(
    lambda cs: sum(cs) > 0
)


# --- impurity indices -------------------------------------------------------


def test_entropy_of_fixture_distribution_matches_published_value(students):
    h = entropy(class_distribution(students))
    assert h == pytest.approx(1.964, abs=1e-3)
    assert h == pytest.approx(ENTROPY_S, abs=1e-12)


def test_pure_distribution_scores_zero_under_every_index():
    for kind in ImpurityKind:
        assert impurity(dist(17, 0, 0), kind) == 0.0


def test_uniform_four_class_values():
    d = dist(5, 5, 5, 5)
    assert entropy(d) == pytest.approx(2.0, abs=1e-12)
    assert gini(d) == pytest.approx(0.75, abs=1e-12)
    assert classification_error(d) == pytest.approx(0.75, abs=1e-12)


def test_gini_of_three_one_split():
    assert gini(dist(3, 1)) == pytest.approx(0.375, abs=1e-12)


def test_empty_distribution_scores_zero():
    d = ClassDistribution({"c0": 0, "c1": 0}, 0)
    for kind in ImpurityKind:
        assert impurity(d, kind) == 0.0


@given(counts_lists)
def test_impurity_bounds(counts):
    d = dist(*counts)
    n = sum(1 for c in counts if c > 0)  # >= 1 by the strategy filter
    assert 0.0 <= entropy(d) <= math.log2(n) + 1e-12
    assert 0.0 <= gini(d) <= 1 - 1 / n + 1e-12
    assert 0.0 <= classification_error(d) <= 1 - 1 / n + 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_maxima_agree_at_the_uniform_distribution(n):
    d = dist(*([6] * n))
    assert entropy(d) == pytest.approx(math.log2(n), abs=1e-12)
    assert gini(d) == pytest.approx(1 - 1 / n, abs=1e-12)
    assert classification_error(d) == pytest.approx(1 - 1 / n, abs=1e-12)
    assert gini(d) == pytest.approx(classification_error(d), abs=1e-12)


@given(counts_lists)
def test_label_permutation_leaves_impurities_unchanged(counts):
    rng = random.Random(42)
    shuffled = counts[:]
    rng.shuffle(shuffled)
    for kind in ImpurityKind:
        assert impurity(dist(*counts), kind) == pytest.approx(
            impurity(dist(*shuffled), kind), abs=1e-12
        )


# --- gain / split information / gain ratio ----------------------------------


def test_gain_of_att_matches_published_and_oracle(students):
    g = information_gain(students, "ATT")
    assert g == pytest.approx(0.451942, abs=1e-5)
    assert g == pytest.approx(ORACLE_GAIN["ATT"], abs=1e-9)


def test_gain_of_psm_matches_oracle_recomputation(students):
    assert information_gain(students, "PSM") == pytest.approx(ORACLE_GAIN["PSM"], abs=1e-9)


def test_every_fixture_gain_and_split_matches_frozen_oracle(students):
    for name in students.schema.attribute_names:
        assert information_gain(students, name) == pytest.approx(ORACLE_GAIN[name], abs=1e-9)
        assert split_information(students, name) == pytest.approx(ORACLE_SPLIT[name], abs=1e-9)


def test_constant_attribute_has_zero_gain_and_split():
    schema = tiny_schema(n_attrs=2)
    ds = make_dataset(schema, [(("a", "a"), "c0"), (("a", "b"), "c1")])
    assert information_gain(ds, "A0") == 0.0
    assert split_information(ds, "A0") == 0.0
    assert gain_ratio(ds, "A0") == 0.0


def test_four_equal_parts_have_split_information_two():
    schema = AttributeSchema(
        (Attribute("A", ("p", "q", "r", "s")),), Attribute("Y", ("c0", "c1"))
    )
    ds = make_dataset(schema, [(("p",), "c0"), (("q",), "c0"), (("r",), "c1"), (("s",), "c1")])
    assert split_information(ds, "A") == pytest.approx(2.0, abs=1e-12)


def test_fixture_gain_ratio_is_gain_over_split(students):
    for name in students.schema.attribute_names:
        expected = ORACLE_GAIN[name] / ORACLE_SPLIT[name]
        assert gain_ratio(students, name) == pytest.approx(expected, abs=1e-9)


def test_published_tables_internal_ratio_identity():
    # the published per-attribute ratio is the published gain over the
    # published split information
    assert 0.577036 / 1.386579 == pytest.approx(0.416158, abs=1e-5)


def test_unknown_attribute_and_empty_dataset_are_rejected(students):
    with pytest.raises(KeyError):
        information_gain(students, "AGE")
    with pytest.raises(ValueError, match="^unknown impurity kind: 'gini'$"):
        impurity(class_distribution(students), "gini")  # a kind's value, not the kind
    empty = Dataset(students.schema, ())
    for fn in (information_gain, split_information, gain_ratio):
        with pytest.raises(ValueError):
            fn(empty, "PSM")


# --- score_all ---------------------------------------------------------------


def test_score_all_returns_scores_in_schema_order(students):
    scores = score_all(students)
    assert [s.attribute for s in scores] == list(students.schema.attribute_names)
    for s in scores:
        assert s.gain == information_gain(students, s.attribute)
        assert s.split_information == split_information(students, s.attribute)
        assert s.gain_ratio == gain_ratio(students, s.attribute)


def test_score_all_singleton(students):
    scores = score_all(students, ["GP"])
    assert len(scores) == 1
    assert scores[0].attribute == "GP"
    assert scores[0].gain == pytest.approx(ORACLE_GAIN["GP"], abs=1e-9)
    assert scores[0].gain == pytest.approx(0.043936, abs=1e-5)


def test_score_all_rejects_empty_or_unknown(students):
    with pytest.raises(ValueError):
        score_all(students, [])
    with pytest.raises(KeyError):
        score_all(students, ["PSM", "AGE"])


def test_score_all_reads_any_iterable_of_names_once(students):
    names = ["LW", "PSM", "GP"]
    expected = score_all(students, names)
    assert [s.attribute for s in expected] == ["PSM", "GP", "LW"]  # schema order
    assert score_all(students, iter(names)) == expected
    assert score_all(students, (name for name in names)) == expected
    assert score_all(students, tuple(names)) == expected
    with pytest.raises(ValueError, match="no attributes to score"):
        score_all(students, iter([]))


def test_score_all_gives_the_exact_floats_of_the_reference_tables():
    # the same integers in the same order give the same floats, to the last bit
    rng = random.Random(41)
    for _ in range(20):
        ds = random_dataset(rng, max_records=120, contradiction_free=False)
        schema = ds.schema
        *columns, labels = ds._codes
        by_class = [[r for r, c in enumerate(labels) if c == k] for k in range(len(schema.class_domain))]
        tables = [contingency(column, by_class, len(a.domain)) for a, column in zip(schema.attributes, columns)]
        counts, n = [*map(len, by_class)], len(labels)
        scores = score_all(ds)
        assert [s.gain for s in scores] == node_scores(tables, counts, n)
        assert [s.gain_ratio for s in scores] == node_scores(tables, counts, n, ratio=True)
        assert [s.split_information for s in scores] == [count_entropy([*map(sum, t)], n) for t in tables]


def test_unknown_names_of_mixed_types_are_listed_in_the_key_error():
    ds = make_dataset(tiny_schema(), [(("a", "b"), "c0")])
    with pytest.raises(KeyError, match=re.escape("unknown attribute(s) [1, 'z']")):
        score_all(ds, ["A0", 1, "z"])


# --- dataset-level properties -------------------------------------------------


def test_gain_bounded_by_parent_entropy_on_random_datasets():
    rng = random.Random(23)
    for _ in range(30):
        ds = random_dataset(rng, max_records=80, contradiction_free=False)
        h = entropy(class_distribution(ds))
        for name in ds.schema.attribute_names:
            g = information_gain(ds, name)
            assert -1e-12 <= g <= h + 1e-12
            assert g == pytest.approx(naive_gain(ds, name), abs=1e-9)
            assert split_information(ds, name) == pytest.approx(
                naive_split_info(ds, name), abs=1e-9
            )


def test_ratio_times_split_recovers_gain():
    rng = random.Random(29)
    datasets = [random_dataset(rng, max_records=80, contradiction_free=False) for _ in range(20)]
    for ds in datasets:
        for s in score_all(ds):
            if s.split_information > 0:
                assert s.gain_ratio * s.split_information == pytest.approx(s.gain, abs=1e-12)
            else:
                assert s.gain_ratio == 0.0


def test_duplicating_every_record_changes_nothing(students):
    doubled = Dataset(students.schema, students.records + students.records)
    assert entropy(class_distribution(doubled)) == pytest.approx(ENTROPY_S, abs=1e-12)
    for name in students.schema.attribute_names:
        assert information_gain(doubled, name) == pytest.approx(
            information_gain(students, name), abs=1e-12
        )
        assert split_information(doubled, name) == pytest.approx(
            split_information(students, name), abs=1e-12
        )
        assert gain_ratio(doubled, name) == pytest.approx(
            gain_ratio(students, name), abs=1e-12
        )


def test_negative_rounding_noise_is_clamped_to_zero():
    # a perfectly uninformative two-value attribute keeps gain at exactly 0
    schema = tiny_schema(n_attrs=1)
    ds = make_dataset(
        schema,
        [(("a",), "c0"), (("a",), "c1"), (("b",), "c0"), (("b",), "c1")],
    )
    assert information_gain(ds, "A0") == 0.0
    # value a: 1 x c0, 3 x c1; value b: 5 x c0, 15 x c1. Its unclamped gain is -1.1e-16
    noisy = make_dataset(
        schema,
        [(("a",), "c0")] + [(("a",), "c1")] * 3 + [(("b",), "c0")] * 5 + [(("b",), "c1")] * 15,
    )
    assert information_gain(noisy, "A0") == 0.0
    assert gain_ratio(noisy, "A0") == 0.0


@st.composite
def node_tables(draw):
    """A node's class counts and its candidates' value x class tables: each table spreads every
    class's rows over its values, so its column sums are the counts; a value may get no row."""
    counts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4).filter(any))
    tables = []
    for n_values in draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)):
        table = [[0] * len(counts) for _ in range(n_values)]
        for c, count in enumerate(counts):
            for v in draw(st.lists(st.integers(0, n_values - 1), min_size=count, max_size=count)):
                table[v][c] += 1
        tables.append(table)
    return counts, tables


@given(node_tables())
@example(([6, 18], [[[1, 3], [5, 15]]]))  # the clamp test's table, whose unclamped gain is -1.1e-16
@example(([3, 4], [[[2, 1], [0, 0], [1, 3]]]))  # a zero row
@example(([4, 3], [[[0, 0], [4, 3]], [(4, 3), (0, 0)]]))  # one represented value, as lists and as tuples
@example(([5], [[[3], [2]], [[5], [0]]]))  # one class
def test_node_scores_equal_table_scores(drawn):
    # leave-one-out's memo keys a table's score by its contents: scored alone, with its node's
    # counts (its own column sums), a table must give the float it gets among the node's candidates
    counts, tables = drawn
    total = sum(counts)
    for table in tables:
        assert [*map(sum, zip(*table))] == counts
    for ratio in (False, True):
        alone = [node_scores([table], counts, total, ratio)[0] for table in tables]
        assert alone == node_scores(tables, counts, total, ratio)

