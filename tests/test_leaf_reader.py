"""The model leaf reader, ``tree._leaf_from_dict``, against a frozen copy of its earlier
two-path form (``reference_leaf``): on any leaf document, both return the same leaf, counts
in the same order and of the same types, or raise the same error with the same message.

A document starts as a leaf the reader accepts, then takes up to three faults: an unknown
class, a count that is no count, a field left out, a field of another type, a label outside
the class domain, or a negative support. The distribution may be a dict, a read-only mapping
or another Mapping, and the document a dict or another Mapping."""

from collections.abc import Mapping
from types import MappingProxyType

from hypothesis import given, settings, strategies as st

import reference_leaf as ref
from gradetree.tree import _leaf_from_dict

CLASSES = ("c0", "c1", "c2")


class Count(int):
    """An int subclass: the reader takes it as a count or a support, and keeps it."""


class Name(str):
    """A str subclass: the reader takes it as a label, and keeps it."""


class Document(Mapping):
    """A Mapping that is no dict."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


COUNTS = st.integers(0, 5) | st.integers(0, 5).map(Count)
NO_COUNTS = st.sampled_from([True, False, -1, -3, 1.0, 2.5, None, "1"])
FIELDS = ["distribution", "label", "support"]
OTHER_TYPES = st.sampled_from([None, True, False, 0, 2, -1, 1.5, "c0", "zz", [], {}, ["c0"]])
FAULTS = ["unknown class", "no count", "missing field", "other type", "foreign label", "negative support"]
CONTAINERS = st.sampled_from([dict, MappingProxyType, Document])


@st.composite
def leaf_documents(draw) -> Mapping:
    listed = draw(st.lists(st.sampled_from(CLASSES), unique=True))  # a class left out reads 0
    counts = {c: draw(COUNTS) for c in listed}
    doc = {"kind": "leaf", "distribution": counts,
           "label": draw(st.sampled_from(CLASSES) | st.sampled_from(CLASSES).map(Name)), "support": draw(COUNTS)}
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        if fault == "unknown class":
            counts[draw(st.sampled_from(["zz", "C0", "", "c0 "]))] = draw(COUNTS | NO_COUNTS)
        elif fault == "no count":
            counts[draw(st.sampled_from(CLASSES))] = draw(NO_COUNTS)
        elif fault == "missing field":
            doc.pop(draw(st.sampled_from(FIELDS)), None)
        elif fault == "other type":
            doc[draw(st.sampled_from(FIELDS))] = draw(OTHER_TYPES)
        elif fault == "foreign label":
            doc["label"] = draw(st.sampled_from(["zz", "", "C0"]))
        else:
            doc["support"] = -draw(st.integers(1, 3))
    if doc.get("distribution") is counts:
        doc["distribution"] = draw(CONTAINERS)(counts)
    return draw(st.sampled_from([dict, Document]))(doc)


def outcome(read, doc):
    """The leaf ``read`` returns, with the types it keeps, or the type and message of its error."""
    try:
        leaf = read(doc, CLASSES)
    except Exception as exc:
        return type(exc), str(exc)
    counts = [(c, n, type(n)) for c, n in leaf.distribution.counts.items()]
    return leaf, type(leaf.label), type(leaf.support), counts


@settings(max_examples=600, deadline=None)
@given(doc=leaf_documents())
def test_the_leaf_reader_returns_or_refuses_as_the_frozen_two_path_reader_does(doc):
    assert outcome(_leaf_from_dict, doc) == outcome(ref._leaf_from_dict, doc)


ERRORS = ["is missing key", "must be an object", "must be a string", "must be an integer", "must be >= 0",
          "names unknown classes", "counts must be integers", "not in class domain"]


def as_json_reads_it(doc) -> bool:
    """Whether the frozen reader takes ``doc`` on its fast path."""
    raw = doc["distribution"]
    return (type(raw) is dict and raw.keys() == set(CLASSES) and {*map(type, raw.values())} == {int}
            and type(doc["label"]) is str and type(doc["support"]) is int)


def test_the_drawn_documents_reach_every_error_and_both_paths_of_the_frozen_reader():
    seen = set()

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(doc=leaf_documents())
    def collect(doc):
        result = outcome(ref._leaf_from_dict, doc)
        if result[0] is ValueError:
            seen.update(e for e in ERRORS if e in result[1])
        else:
            seen.add("fast path" if as_json_reads_it(doc) else "checked path")

    collect()
    assert seen == {*ERRORS, "fast path", "checked path"}
