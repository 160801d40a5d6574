"""Seeded inputs for the benchmark, and the naive references that check outputs.

Everything here is independent of gradetree: the generators write plain
CSV and schema JSON, and the references read plain rows and model JSON,
so a defect in the package cannot hide behind the code that checks it.

The table sizes are fixed; the seed only chooses cell values, which of
the attributes carry the label, the label function and the noise. Domain
sizes follow the attribute index and the label always depends on one
attribute of each size (3, 4 and 5 values), so every seed grows a tree of
about the same size and the cost of a run does not depend on the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WIDE_ROWS = 5000
WIDE_ATTRIBUTES = 20
WIDE_CLASSES = ("k0", "k1", "k2", "k3")
CLASS_NAME = "CLASS"
LABEL_NOISE = 0.2
PREDICT_ROWS = 50_000


def wide_schema_doc() -> dict:
    """Schema sidecar for the wide table: A00..A19 with 3, 4 or 5 values each."""
    return {
        "attributes": [
            {"name": f"A{i:02d}", "domain": [f"v{j}" for j in range(3 + i % 3)]}
            for i in range(WIDE_ATTRIBUTES)
        ],
        "class_attribute": {"name": CLASS_NAME, "domain": list(WIDE_CLASSES)},
    }


def wide_rows(seed: int) -> list[list[str]]:
    """WIDE_ROWS rows of predictor values followed by the class label.

    The label is a random function of three attributes, one of each
    domain size; LABEL_NOISE of the rows get a uniformly drawn label
    instead (which may equal the true one).
    """
    rng = random.Random(seed)
    domains = [a["domain"] for a in wide_schema_doc()["attributes"]]
    by_size = {}
    for i, domain in enumerate(domains):
        by_size.setdefault(len(domain), []).append(i)
    relevant = [rng.choice(by_size[size]) for size in sorted(by_size)]
    label_of = {}
    rows = []
    for _ in range(WIDE_ROWS):
        values = [rng.choice(domain) for domain in domains]
        key = tuple(values[i] for i in relevant)
        if key not in label_of:
            label_of[key] = rng.choice(WIDE_CLASSES)
        label = label_of[key]
        if rng.random() < LABEL_NOISE:
            label = rng.choice(WIDE_CLASSES)
        rows.append(values + [label])
    return rows


def predict_rows(seed: int) -> list[list[str]]:
    """PREDICT_ROWS unlabeled rows of uniformly drawn predictor values."""
    # a stream of its own, so the training table does not depend on it
    rng = random.Random(seed * 1_000_003 + 1)
    domains = [a["domain"] for a in wide_schema_doc()["attributes"]]
    return [[rng.choice(domain) for domain in domains] for _ in range(PREDICT_ROWS)]


def to_csv(header: list[str], rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def schema_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def wide_header(with_class: bool = True) -> list[str]:
    names = [a["name"] for a in wide_schema_doc()["attributes"]]
    return names + [CLASS_NAME] if with_class else names


# --- naive references -------------------------------------------------------


def _entropy(counts) -> float:
    n = sum(counts)
    return -sum(c / n * math.log2(c / n) for c in counts if c)


def naive_gains(rows: list[list[str]]) -> list[float]:
    """Information gain of every predictor column; the label is the last column."""
    labels = [row[-1] for row in rows]
    tally = {}
    for label in labels:
        tally[label] = tally.get(label, 0) + 1
    parent = _entropy(tally.values())
    gains = []
    for col in range(len(rows[0]) - 1):
        groups = {}
        for row in rows:
            group = groups.setdefault(row[col], {})
            group[row[-1]] = group.get(row[-1], 0) + 1
        weighted = sum(
            sum(g.values()) / len(rows) * _entropy(g.values()) for g in groups.values()
        )
        gains.append(parent - weighted)
    return gains


def walk_model(root: dict, values: dict[str, str]) -> str:
    """Label a model-JSON tree assigns to one example, read off the document."""
    node = root
    while node["kind"] == "internal":
        node = node["branches"][values[node["attribute"]]]
    return node["label"]


def leaves(node: dict):
    if node["kind"] == "leaf":
        yield node
    else:
        for child in node["branches"].values():
            yield from leaves(child)
