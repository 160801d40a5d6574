"""Impurity indices and attribute-selection criteria.

All logarithms are base 2 and 0*log2(0) is taken as 0, so a pure
distribution scores 0 under every index. The impurity of an empty
distribution is defined as 0, which keeps weighted sums over partitions
with empty parts well-formed.

Attribute scores come from counts, as in ID3 (Quinlan 1986): scoring
reads the domain-index codes a dataset built when it was validated, its
``_codes``, over rows given as one list per class (``_by_class``).
``lane_counter`` is the one table counter: it packs each row into one
int and tallies every asked attribute's value x class table at once, one
C-level sum per class, each table a list of value rows and each row a
tuple of class counts. Growth counts every node's tables with it, and
leave-one-out its full tables with growth's; ``score_all`` counts its
tables over all rows with it, once. ``node_scores`` is the one scorer:
it scores a node's candidate tables in one call, from the node's class
entropy computed once, and gives each table's gain, or its gain ratio. A
table's float depends only on its contents, so it is the same scored
alone or among other candidates. Every entropy, split information
included, goes through one primitive, ``count_entropy``, which sums in
the order given: class-domain order within an entropy, attribute-domain
order across parts. That order is fixed because builds break ties
between attributes on exact float equality: the same terms summed in
another order can differ in the last bit, and so choose another split.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from typing import Callable, Iterable, Sequence

from . import dataset as _dataset
from .dataset import ClassDistribution, Dataset, _gather

__all__ = [
    "ImpurityKind",
    "AttributeScore",
    "impurity",
    "entropy",
    "gini",
    "classification_error",
    "information_gain",
    "split_information",
    "gain_ratio",
    "score_all",
]

# negative values within this slack are treated as rounding noise and clamped
_SLACK = 1e-12


class ImpurityKind(Enum):
    ENTROPY = "entropy"
    GINI = "gini"
    CLASSIFICATION_ERROR = "classification-error"


def entropy(dist: ClassDistribution) -> float:
    """-sum p_j log2 p_j over the nonzero class probabilities."""
    return count_entropy(dist.counts.values(), dist.total)


def gini(dist: ClassDistribution) -> float:
    """1 - sum p_j^2; maximum 1 - 1/n at the uniform n-class distribution."""
    if dist.total == 0:
        return 0.0
    return 1.0 - sum((count / dist.total) ** 2 for count in dist.counts.values())


def classification_error(dist: ClassDistribution) -> float:
    """1 - max p_j; shares its maximum 1 - 1/n with the Gini index."""
    if dist.total == 0:
        return 0.0
    return 1.0 - max(dist.counts.values()) / dist.total


def impurity(dist: ClassDistribution, kind: ImpurityKind) -> float:
    if kind is ImpurityKind.ENTROPY:
        return entropy(dist)
    if kind is ImpurityKind.GINI:
        return gini(dist)
    if kind is ImpurityKind.CLASSIFICATION_ERROR:
        return classification_error(dist)
    raise ValueError(f"unknown impurity kind: {kind!r}")


def count_entropy(counts: Iterable[int], total: int) -> float:
    """-sum p log2 p with p = count / total over the nonzero counts, in order."""
    if total == 0:
        return 0.0
    h = 0.0
    for count in counts:
        if count:
            p = count / total
            h -= p * math.log2(p)
    return h


def _by_class(labels: Sequence[int], n_classes: int) -> list[list[int]]:
    """Row indices ``0 .. len(labels) - 1`` grouped by their class code, each group in row order."""
    groups = [[] for _ in range(n_classes)]
    for r, c in enumerate(labels):
        groups[c].append(r)
    return groups


def lane_counter(
    columns: Sequence[Sequence[int]], sizes: Sequence[int], n_rows: int
) -> Callable[[Sequence[Sequence[int]], Iterable[int]], list[list[tuple[int, ...]]]]:
    """A counter of value x class tables over rows ``0 .. n_rows - 1``, each attribute's
    codes in ``columns`` and its domain size in ``sizes``, in schema order.

    Each row becomes one int: a lane of ``width`` bytes for every value of every
    attribute, set to 1 at the row's own values. A lane holds any count up to
    ``n_rows``, so a sum of rows is every lane's count at once, none carrying into the
    next. ``count(by_class, positions)`` sums the rows listed per class, and returns the
    table of each position over those rows: a list of its values' rows in domain order,
    each a tuple of class counts in class order. The set-up is paid once per counter:
    growth builds one per build or leave-one-out call, and every node it expands counts
    its candidates in one ``count``, as do leave-one-out's full tables; ``score_all``
    builds one for a single ``count``. The rows are packed ``dataset._CHUNK_ROWS`` at a time,
    each chunk's value bytes gathered from a slice of every column, so the set-up holds one
    chunk beyond the codes and the packed ints.
    """
    order = sys.byteorder  # so ``memoryview.cast`` reads each lane as a native integer
    width = next(w for w in (1, 2, 4, 8) if 256**w > n_rows)
    form = next(f for f in "BHILQ" if struct.calcsize(f) == width)
    one = (1).to_bytes(width, order)
    blocks = [[bytes(v * width) + one + bytes((size - v - 1) * width) for v in range(size)] for size in sizes]
    ints, step = [], _dataset._CHUNK_ROWS
    for start in range(0, n_rows, step):
        # per row, a C-level join of each attribute's block for its value; no Python loop per cell
        row_blocks = zip(*[_gather(column[start:start + step], block) for block, column in zip(blocks, columns)])
        ints += map(int.from_bytes, map(b"".join, row_blocks), repeat(order))
    lanes = sum(sizes)
    ends = [*accumulate(sizes)]
    starts = [end - size for end, size in zip(ends, sizes)]

    def count(by_class, positions):
        sums = b"".join([sum(map(ints.__getitem__, rows)).to_bytes(lanes * width, order) for rows in by_class])
        flat = memoryview(sums).cast(form).tolist()  # class-major: a class's lanes, then the next class's
        cells = [*zip(*[flat[i:i + lanes] for i in range(0, len(flat), lanes)])]  # a lane's count per class
        return [cells[starts[p]:ends[p]] for p in positions]

    return count


def node_scores(
    tables: Iterable[Sequence[Sequence[int]]], counts: Sequence[int], total: int, ratio: bool = False
) -> list[float]:
    """Each candidate's gain at a node, or its gain ratio when ``ratio``, from its value x class
    table; ``counts`` are the node's class counts and ``total`` its size, which is every table's sum.

    The node's class entropy is computed once, and split information only for the ratio. The
    gain is clamped to 0 from below; a gain more negative than rounding slack cannot occur for
    a true entropy difference. The ratio is 0 on a zero split, which keeps an attribute with a
    single represented value out of argmax contention.
    """
    base = count_entropy(counts, total)
    keys = []
    for table in tables:
        sizes = [*map(sum, table)]
        weighted = 0.0
        for row, size in zip(table, sizes):
            if size:
                weighted += size / total * count_entropy(row, size)
        gain = base - weighted
        if -_SLACK < gain < 0:
            gain = 0.0
        if ratio:
            split = count_entropy(sizes, total)
            gain = gain / split if split else 0.0
        keys.append(gain)
    return keys


def information_gain(dataset: Dataset, attribute: str) -> float:
    """Expected entropy reduction from partitioning by the attribute."""
    return score_all(dataset, [attribute])[0].gain


def split_information(dataset: Dataset, attribute: str) -> float:
    """Entropy of the partition-size distribution; empty parts contribute 0."""
    return score_all(dataset, [attribute])[0].split_information


def gain_ratio(dataset: Dataset, attribute: str) -> float:
    """Information gain normalized by split information; 0 on a zero split."""
    return score_all(dataset, [attribute])[0].gain_ratio


@dataclass(frozen=True)
class AttributeScore:
    attribute: str
    gain: float
    split_information: float
    gain_ratio: float


def score_all(dataset: Dataset, available: Iterable[str] | None = None) -> list[AttributeScore]:
    """Score attributes (schema order): gain, split information, gain ratio.

    One ``lane_counter`` over the asked columns counts their tables over every row, grouped by
    class, and ``node_scores`` scores them; so each gain and ratio is the key a build compares at
    a root over these rows. ``available`` may be any iterable of names, read once."""
    schema = dataset.schema
    asked = set(schema.attribute_names if available is None else available)
    if not asked:
        raise ValueError("no attributes to score")
    unknown = asked - set(schema.attribute_names)
    if unknown:
        raise KeyError(f"unknown attribute(s) {sorted(unknown, key=str)}")
    if len(dataset) == 0:
        raise ValueError("cannot score attributes on an empty dataset")
    *columns, labels = dataset._codes
    n = len(labels)
    by_class = _by_class(labels, len(schema.class_domain))
    attributes, columns = zip(*[(a, column) for a, column in zip(schema.attributes, columns) if a.name in asked])
    tables = lane_counter(columns, [len(a.domain) for a in attributes], n)(by_class, range(len(columns)))
    counts = [*map(len, by_class)]
    gains, ratios = node_scores(tables, counts, n), node_scores(tables, counts, n, ratio=True)
    splits = [count_entropy([*map(sum, table)], n) for table in tables]
    return [*map(AttributeScore, (a.name for a in attributes), gains, splits, ratios)]
