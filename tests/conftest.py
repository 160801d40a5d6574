import gc
import random
import sys
import tracemalloc
from typing import Callable, Iterable, Sequence

import pytest

from gradetree.dataset import Attribute, AttributeSchema, Dataset, Record, load_students
from gradetree.tree import Internal, Leaf, node_support


@pytest.fixture(scope="session")
def students() -> Dataset:
    return load_students()


@pytest.fixture(scope="session")
def fixture_tree(students):
    from gradetree.tree import id3_build

    return id3_build(students)


def tiny_schema(n_attrs=2, domain=("a", "b"), classes=("c0", "c1")) -> AttributeSchema:
    attrs = tuple(Attribute(f"A{i}", tuple(domain)) for i in range(n_attrs))
    return AttributeSchema(attrs, Attribute("Y", tuple(classes)))


def make_dataset(schema: AttributeSchema, rows) -> Dataset:
    """rows: iterable of (values tuple in schema order, label)."""
    names = schema.attribute_names
    records = tuple(Record(dict(zip(names, vals)), label) for vals, label in rows)
    return Dataset(schema, records)


def encode(dataset: Dataset, names) -> tuple[list, tuple]:
    """The code columns ``names`` and the label codes of a dataset, read from its ``_codes``."""
    *columns, labels = dataset._codes
    position = dataset.schema.attribute_names.index
    return [columns[position(name)] for name in names], labels


def random_dataset(rng: random.Random, max_attributes=6, max_records=200,
                   contradiction_free=True) -> Dataset:
    """Random categorical dataset; duplicate predictor tuples share a label
    when contradiction_free is set."""
    n_attrs = rng.randint(1, max_attributes)
    attrs = tuple(
        Attribute(f"A{i}", tuple(f"v{j}" for j in range(rng.randint(2, 4))))
        for i in range(n_attrs)
    )
    classes = tuple(f"c{j}" for j in range(rng.randint(2, 5)))
    schema = AttributeSchema(attrs, Attribute("Y", classes))
    label_of = {}
    records = []
    for _ in range(rng.randint(1, max_records)):
        key = tuple(rng.choice(a.domain) for a in attrs)
        if contradiction_free:
            label = label_of.setdefault(key, rng.choice(classes))
        else:
            label = rng.choice(classes)
        records.append(Record(dict(zip(schema.attribute_names, key)), label))
    return Dataset(schema, tuple(records))


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


def with_branches_dropped(node, rng):
    """A copy of a subtree that leaves out some branches, more often empty ones; a node keeps one at least."""
    if isinstance(node, Leaf):
        return node
    kept = {v: child for v, child in node.branches.items() if rng.random() > (0.1 if node_support(child) else 0.5)}
    kept = kept or dict([next(iter(node.branches.items()))])
    return Internal(node.attribute, {v: with_branches_dropped(child, rng) for v, child in kept.items()})


def calls_everywhere(monkeypatch, function: Callable, record: Callable = lambda: None) -> list:
    """Wrap ``function`` under every binding of it in a loaded ``gradetree`` module (``from .x
    import y`` copies a binding), and return the list each call appends ``record()`` to."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(record())
        return function(*args, **kwargs)

    for name, module in [*sys.modules.items()]:
        if name.split(".")[0] == "gradetree":
            for attribute, value in [*vars(module).items()]:
                if value is function:
                    monkeypatch.setattr(module, attribute, wrapper)
    return calls


# Naive counting and scoring used as the in-test oracle; kept free of gradetree.metrics.


def contingency(column: Sequence[int], by_class: Sequence[Iterable[int]], n_values: int) -> list[list[int]]:
    """Value x class counts over rows given as one list per class, in domain and class order."""
    table = [[0] * len(by_class) for _ in range(n_values)]
    for c, rows in enumerate(by_class):
        for r in rows:
            table[column[r]][c] += 1
    return table


def naive_entropy(labels) -> float:
    import math

    n = len(labels)
    if n == 0:
        return 0.0
    tally = {}
    for lab in labels:
        tally[lab] = tally.get(lab, 0) + 1
    return sum(-(c / n) * math.log2(c / n) for c in tally.values())


def naive_gain(dataset: Dataset, attribute: str) -> float:
    labels = [r.label for r in dataset.records]
    groups = {}
    for r in dataset.records:
        groups.setdefault(r.values[attribute], []).append(r.label)
    weighted = sum(len(g) / len(labels) * naive_entropy(g) for g in groups.values())
    return naive_entropy(labels) - weighted


def naive_split_info(dataset: Dataset, attribute: str) -> float:
    import math

    n = len(dataset)
    groups = {}
    for r in dataset.records:
        groups.setdefault(r.values[attribute], []).append(1)
    return sum(-(len(g) / n) * math.log2(len(g) / n) for g in groups.values())


def traced(make: Callable[[], object]) -> tuple[int, int]:
    """The bytes ``make()``'s result keeps, and the bytes ``make()`` held at its peak, by ``tracemalloc``."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        result = make()  # held while the counts are read, so its memory counts as kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return kept - start, peak - start


def extra_peak(make: Callable[[], object]) -> int:
    """The bytes ``make()`` held at its peak beyond what its result keeps, by ``tracemalloc``."""
    kept, peak = traced(make)
    return peak - kept
