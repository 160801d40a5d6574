"""The package's frozen values: equal values hash equal, a pickle or a deepcopy gives back an equal
value, and no mapping a value holds, in its own fields or its parts', can be changed in place. A tree,
whose flat form holds lists, declares itself unhashable."""

import copy
import dataclasses
import operator
import pickle
from collections.abc import Mapping

import pytest
from hypothesis import given, strategies as st

from conftest import make_dataset, tiny_schema
from gradetree.dataset import ClassDistribution, Record
from gradetree.evaluate import ConfusionMatrix, LooResult
from gradetree.rules import Rule
from gradetree.tree import DecisionTree, Internal, Leaf
from gradetree.verify import PublishedResults

NAMES = st.sampled_from(["A0", "A1", "PSM", "ATT", 3])
LABELS = st.sampled_from(["a", "b", "First", "Fail"])
COUNTS = st.integers(0, 50)
FLOATS = st.floats(0, 3, allow_nan=False)


def built(kind, *parts):
    """A strategy of factories: each call of one builds a new ``kind`` from the same drawn parts, first
    calling each part that is a factory itself, so two calls give equal values that share no mapping."""
    return st.tuples(*parts).map(lambda args: lambda: kind(*[a() if callable(a) else a for a in args]))


distributions = built(lambda counts: ClassDistribution(counts, sum(counts.values())),
                      st.dictionaries(LABELS, COUNTS, max_size=4))
leaves = built(Leaf, LABELS, COUNTS, distributions)
branches = st.dictionaries(LABELS, leaves, max_size=3).map(lambda d: lambda: {v: f() for v, f in d.items()})
matrices = st.lists(LABELS, min_size=1, max_size=3, unique=True).map(tuple).flatmap(
    lambda classes: built(ConfusionMatrix, st.just(classes),
                          st.fixed_dictionaries({(a, p): COUNTS for a in classes for p in classes})))
tables = st.dictionaries(NAMES, FLOATS, max_size=4)
rows = st.tuples(st.tuples(*[st.sampled_from("ab")] * 2), st.sampled_from(["c0", "c1"]))  # over tiny_schema()

VALUES = {
    "Record": built(Record, st.dictionaries(NAMES, LABELS, max_size=4), LABELS),
    "ClassDistribution": distributions,
    "Leaf": leaves,
    "Internal": built(Internal, NAMES, branches),
    "Dataset": built(make_dataset, st.just(tiny_schema()), st.lists(rows, min_size=1, max_size=5)),
    "ConfusionMatrix": matrices,
    "LooResult": built(LooResult, FLOATS, matrices),
    "Rule": built(Rule, st.lists(st.tuples(NAMES, LABELS), max_size=3).map(tuple), LABELS, COUNTS, FLOATS),
    "PublishedResults": built(PublishedResults, FLOATS, tables, tables, tables, NAMES,
                              st.lists(st.text(max_size=10), max_size=3)),
}

MUTATORS = {
    "[k] = v": lambda m, k: operator.setitem(m, k, 0),
    "del": lambda m, k: operator.delitem(m, k),
    "update": lambda m, k: m.update({k: 0}),
    "setdefault": lambda m, k: m.setdefault(k, 0),
    "pop": lambda m, k: m.pop(k),
    "popitem": lambda m, k: m.popitem(),
    "clear": lambda m, k: m.clear(),
    "|=": lambda m, k: operator.ior(m, {k: 0}),
}


def held_mappings(value) -> list[Mapping]:
    """Every mapping a value holds: in its fields, its tuples' items and its mappings' values, at any depth."""
    found, stack = [], [value]
    while stack:
        part = stack.pop()
        if isinstance(part, Mapping):
            found.append(part)
            stack += part.values()
        elif dataclasses.is_dataclass(part):
            stack += [getattr(part, f.name) for f in dataclasses.fields(part)]
        elif isinstance(part, tuple):
            stack += part
    return found


@pytest.mark.parametrize("kind", VALUES)
@given(data=st.data())
def test_equal_values_hash_equal_and_a_pickle_or_deepcopy_gives_back_an_equal_value(kind, data):
    make = data.draw(VALUES[kind])
    value, same = make(), make()
    assert value == same and hash(value) == hash(same)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


@pytest.mark.parametrize("kind", VALUES)
@given(data=st.data())
def test_no_mapping_a_value_holds_can_be_changed_in_place(kind, data):
    make = data.draw(VALUES[kind])
    value = make()
    mappings = held_mappings(value)
    assert bool(mappings) == (kind != "Rule")
    assert {type(m) for m in mappings} <= {type(Record({}, "a").values)}  # one read-only type holds them all
    for mapping in mappings:
        before = dict(mapping)
        key = next(iter(mapping), "absent")
        for name, mutate in MUTATORS.items():
            with pytest.raises(TypeError):
                mutate(mapping, key)
            assert mapping == before, name
    assert value == make()


def test_a_tree_declares_itself_unhashable(fixture_tree):
    with pytest.raises(TypeError, match="DecisionTree"):
        hash(fixture_tree)
    assert DecisionTree.__hash__ is None
