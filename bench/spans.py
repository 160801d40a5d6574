"""Spans around the calls into each gradetree layer, recorded from outside.

A ``Tracer`` wraps the public functions listed in ``TRACED``. Because
``from .x import y`` copies a binding, a function can be reachable under
several module globals (``partition`` is bound in ``dataset``, ``metrics``,
``tree`` and the package itself); ``install`` replaces every binding in
every loaded ``gradetree`` module and ``uninstall`` puts the originals
back, so an untraced operation runs the package exactly as shipped.
``Dataset`` construction (which is validation) is traced by wrapping
``Dataset.__init__`` on the class, which every binding shares.

Each span is ``[name, start, end, parent]``, with ``parent`` the index of
the enclosing span or -1. Spans are kept in memory until the caller
folds them with ``summary`` and clears them with ``reset``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

TRACED = (
    ("cli", "main"),
    ("evaluate", "leave_one_out"),
    ("evaluate", "accuracy"),
    ("verify", "verify_published"),
    ("rules", "extract_rules"),
    ("tree", "id3_build"),
    ("tree", "predict"),
    ("tree", "save_model"),
    ("tree", "load_model"),
    ("tree", "to_dot"),
    ("metrics", "information_gain"),
    ("metrics", "split_information"),
    ("metrics", "gain_ratio"),
    ("metrics", "score_all"),
    ("metrics", "entropy"),
    ("dataset", "load_csv"),
    ("dataset", "load_unlabeled_csv"),
    ("dataset", "load_schema"),
    ("dataset", "partition"),
    ("dataset", "class_distribution"),
)
DATASET_SPAN = "dataset.Dataset"
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TRACED) + (DATASET_SPAN,)
COUNTS = (
    ("dataset.Dataset.rows", "count"),
    ("dataset.revalidation_ratio", "ratio"),
    ("metrics.partitions_per_score", "ratio"),
    ("tree.nodes_grown", "count"),
)
# the per-layer metrics a traced run reports, with their units
LAYER_METRICS = (
    tuple((f"{name}.calls", "count") for name in SPAN_NAMES)
    + tuple((f"{name}.self_s", "s") for name in SPAN_NAMES)
    + COUNTS
    + (("trace.overhead_ratio", "ratio"),)
)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "gradetree" or name.startswith("gradetree."))
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.rows_validated = 0
        self.rows_loaded = 0
        self.trees = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_loaded(self, args, rows):
        self.rows_loaded += len(rows)

    def _count_validated(self, args, result):
        self.rows_validated += len(args[0].records)

    def _keep_tree(self, args, tree):
        self.trees.append(tree)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        after = {
            "dataset.load_csv": self._count_loaded,
            "dataset.load_unlabeled_csv": self._count_loaded,
            "tree.id3_build": self._keep_tree,
        }
        modules = _package_modules()
        for module_name, func in TRACED:
            name = f"{module_name}.{func}"
            original = getattr(sys.modules[f"gradetree.{module_name}"], func)
            wrapper = self._wrap(name, original, after.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        dataset_cls = sys.modules["gradetree.dataset"].Dataset
        original = dataset_cls.__init__
        self._patched.append((dataset_cls, "__init__", original))
        dataset_cls.__init__ = self._wrap(DATASET_SPAN, original, self._count_validated)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        # the wrappers hold ``self.spans`` itself, so clear it in place
        self.spans.clear()
        self._stack.clear()
        self.trees.clear()
        self.rows_validated = self.rows_loaded = 0

    def summary(self) -> dict[str, float]:
        """Calls, self time and total time per span name, plus the counts,
        for the spans so far."""
        from gradetree.tree import tree_stats

        calls = Counter()
        self_s = Counter()
        total_s = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            self_s[span[0]] += own
            total_s[span[0]] += span[2] - span[1]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        scored = calls["metrics.information_gain"] + calls["metrics.split_information"]
        out["dataset.Dataset.rows"] = self.rows_validated
        out["dataset.revalidation_ratio"] = (
            self.rows_validated / self.rows_loaded if self.rows_loaded else 0.0
        )
        out["metrics.partitions_per_score"] = (
            calls["dataset.partition"] / scored if scored else 0.0
        )
        out["tree.nodes_grown"] = sum(tree_stats(t).nodes for t in self.trees)
        return out


def median_summary(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several operations' summaries."""
    return {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
