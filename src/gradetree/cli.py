"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/validation/IO error,
3 verification hard failure (implementation disagrees with its oracle).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import stat
import sys
from contextlib import closing
from dataclasses import replace
from itertools import chain, islice, repeat

from . import dataset as _dataset
from . import tree as _tree
from .dataset import _atomic_output, _chunks, _write_text, fixture_paths, load_csv, load_schema
from .metrics import score_all
from .rules import extract_rules, render_rules, rules_to_json
from .tree import (
    DecisionTree,
    Leaf,
    TreeConfig,
    _route,
    id3_build,
    load_model,
    save_model,
    to_dot,
    tree_stats,
)
from .verify import verify_published

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int):
    """An argparse ``type`` accepting an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _add_data_args(parser):
    parser.add_argument(
        "--data",
        metavar="CSV",
        help="dataset CSV (default: bundled students.csv, GRADETREE_DATA_DIR honored)",
    )
    parser.add_argument(
        "--schema",
        metavar="JSON",
        help="schema sidecar (default: bundled students.schema.json)",
    )


def _add_output_args(parser):
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gradetree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="build a tree and save it as JSON")
    _add_data_args(p)
    p.add_argument("--criterion", choices=("gain", "gain-ratio"), default="gain")
    p.add_argument("--min-support", type=_int_at_least(0), default=0, metavar="N",
                   help="collapse subtrees routed fewer than N records")
    p.add_argument("--max-depth", type=_int_at_least(1), default=None, metavar="N")
    p.add_argument("--out", metavar="PATH", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict",
                       help="classify unlabeled CSV rows with a saved model")
    p.add_argument("--model", metavar="JSON", required=True)
    p.add_argument("--data", metavar="CSV", required=True,
                   help="input rows without the class column")
    p.add_argument("--out", metavar="PATH", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("rules",
                       help="extract IF-THEN rules from a saved model")
    p.add_argument("--model", metavar="JSON", required=True)
    _add_data_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("gains",
                       help="score every attribute: gain, split information, gain ratio")
    _add_data_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("verify",
                       help="audit the published tables against a recomputation")
    _add_data_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dot",
                       help="render a saved model as a Graphviz digraph")
    p.add_argument("--model", metavar="JSON", required=True)
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p.set_defaults(func=cmd_export_dot)

    return parser


def _load_dataset(args):
    default_csv, default_schema = fixture_paths()
    schema = load_schema(args.schema if args.schema else default_schema)
    return load_csv(args.data if args.data else default_csv, schema)


def _training_accuracy(tree) -> float:
    """``accuracy(tree, dataset)`` of a tree grown from ``dataset``, read from its leaves: each training
    row reaches the leaf whose support counted it. A support-0 leaf holds its parent's counts, not its own."""
    nodes, positions, _ = tree._flat
    correct = sum(leaf.distribution.counts[leaf.label] for leaf, p in zip(nodes, positions) if p < 0 and leaf.support)
    return correct / tree.training_size


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    config = TreeConfig(
        criterion=args.criterion,
        min_leaf_support=args.min_support,
        max_depth=args.max_depth,
    )
    # save_model refuses a tree deeper than a model file holds, so growth stops one level past that;
    # a tree within the limit never reached the cap, and is saved with the config asked for
    cap = _tree.MAX_MODEL_DEPTH + 1
    grown = id3_build(dataset, replace(config, max_depth=min(config.max_depth or cap, cap)))
    tree = DecisionTree(grown._flat, grown.schema, config, grown.training_size)
    save_model(tree, args.out)
    stats = tree_stats(tree)
    nodes, positions, _ = tree._flat  # node 0 is the root
    if positions[0] >= 0:
        root_line = f"root attribute: {tree.schema.attributes[positions[0]].name}"
    else:
        root_line = f"tree is a single leaf predicting {nodes[0].label!r}"
    acc = _training_accuracy(tree)
    print(f"trained on {len(dataset)} records (criterion={args.criterion}, "
          f"min_support={args.min_support})")
    print(root_line)
    print(f"leaves={stats.leaves} nodes={stats.nodes} depth={stats.depth}")
    print(f"training accuracy: {acc:.3f}")
    print(f"model written to {args.out}")
    return 0


def _leaf_cells(leaf: Leaf) -> list[str]:
    """A leaf's label and confidence, formatted as ``predict``'s distribution gives them."""
    dist = leaf.distribution
    return [leaf.label, f"{dist.counts[leaf.label] / dist.total if dist.total else 0.0:.4f}"]


def _csv_line(cells) -> str:
    """The line ``csv.writer`` writes for ``cells``, as ``predict`` writes its output."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def _plain(value: str) -> bool:
    """Whether ``csv.writer`` writes ``value`` unquoted and ``csv.reader`` reads that back as
    the one cell ``value``; an empty value, one over ``csv.field_size_limit()`` or one with a
    comma, a quote or a newline is not plain."""
    line = _csv_line([value])
    try:
        return line == value + "\n" and next(csv.reader([line])) == [value]
    except csv.Error:
        return False


def _alternation(values) -> str:
    """A regular expression that matches exactly ``values``, none of them empty: a trie of
    their characters, so a match tries one branch per character, however many values."""
    trie = {}
    for value in values:
        node = trie
        for char in value:
            node = node.setdefault(char, {})
        node[""] = None  # a value ends here
    order = [("", trie, -1)]  # (character, node, index of its parent), parents first
    for i, (_, node, _) in enumerate(order):
        order += [(char, child, i) for char, child in node.items() if char]
    branches = [[] for _ in order]
    for (char, node, parent), alternatives in zip(reversed(order), reversed(branches)):
        text = "|".join(reversed(alternatives))  # appended last child first
        if len(alternatives) > 1 or ("" in node and alternatives):
            text = f"(?:{text})" + "?" * ("" in node)
        if parent < 0:
            return text
        branches[parent].append(re.escape(char) + text)


# Building the line pattern costs 2.7 to 6.7 us per character of the domains, the most for
# large domains of random words, and the plain path saves 0.02 to 0.12 us per input byte,
# the least on long values of large domains. So the pattern is built only for an input
# this many bytes long per domain character, more than the 300 it took at worst to pay.
_INPUT_BYTES_PER_DOMAIN_CHAR = 512


def _line_pattern(schema, input_bytes: int) -> re.Pattern | None:
    """The pattern of a plain input line: a value of each attribute's domain, in schema order,
    each in a group of its own, separated by commas, then an optional newline. None when the
    schema has no predictor, a domain value or attribute name is not plain, the pattern is too
    deep to compile, or the input, of ``input_bytes``, is too short to repay compiling it."""
    domains = [a.domain for a in schema.attributes]
    if not domains or sum(map(len, chain(*domains))) * _INPUT_BYTES_PER_DOMAIN_CHAR > input_bytes:
        return None
    if not all(map(_plain, chain(schema.attribute_names, *domains))):
        return None
    try:
        return re.compile(",".join(f"({_alternation(domain)})" for domain in domains) + "\n?")
    except (re.error, RecursionError, OverflowError):
        return None


def _echo_plain(source, header: str, pattern: re.Pattern, view, suffixes: list[str], out) -> bool:
    """Copy the lines of ``source`` to ``out`` while they are plain: first ``header``, then
    chunks of ``dataset._CHUNK_ROWS`` lines that each ``pattern`` matches. Each line is routed
    through ``view`` on its match and written without its newline, then its leaf's suffix.
    Return True once the whole file is copied, or False at the first line that is not plain
    or does not decode, with the chunks before it already written to ``out``."""
    try:
        if next(source, None) != header:
            return False
        while lines := list(islice(source, _dataset._CHUNK_ROWS)):
            matches = list(map(pattern.fullmatch, lines))
            if not all(matches):
                return False
            ends = map(suffixes.__getitem__, _route(view, matches))
            out.write("".join(map(str.__add__, map(str.removesuffix, lines, repeat("\n")), ends)))
    except UnicodeDecodeError:
        return False
    return True


def cmd_predict(args) -> int:
    """Write the input rows in schema order, each followed by its predicted label and confidence.

    The input is read, checked, routed and written a chunk of rows at a time,
    so memory does not grow with the file. A regular file is copied while its
    lines are plain (the header names the attributes in schema order, and each
    line is a value of each domain, in that order, between commas, as
    ``_line_pattern`` matches; universal newlines end a line at LF, CRLF or CR,
    as ``csv.reader`` does): each line is checked by its match alone, routed
    on it and echoed with its leaf's label and confidence (``_echo_plain``). At
    its first line that is not plain, the output so far is discarded and the
    file is read again from its header as CSV and checked by the row encoder
    (``dataset._chunks``), as any other input is read from the start; each row
    is routed through the model's flat form, its child ids keyed by value.
    So every error comes from the CSV path, and it is that of the first bad
    row. The output reaches ``--out``, or stdout, only once every row is
    written (``dataset._atomic_output``).
    """
    tree = load_model(args.model)
    schema = tree.schema
    nodes, positions, children = flat = tree._flat
    cells = [_leaf_cells(node) if p < 0 else None for node, p in zip(nodes, positions)]
    by_value = flat._replace(children=[
        ids and dict(zip(schema.attributes[p].domain, ids)) for p, ids in zip(positions, children)])
    header = _csv_line([*schema.attribute_names, schema.class_name, "confidence"])
    # the input closes before the output is moved into place, which may be the same file
    with _atomic_output(args.out) as fh, open(args.data, encoding="utf-8-sig") as source:
        fh.write(header)
        info = os.fstat(source.fileno())  # only a regular file can be read a second time
        pattern = _line_pattern(schema, info.st_size) if stat.S_ISREG(info.st_mode) else None
        if pattern is not None:
            # a match's group p + 1 is cell p
            view = by_value._replace(positions=[p + 1 if p >= 0 else p for p in positions])
            suffixes = [leaf and "," + _csv_line(leaf) for leaf in cells]
            if _echo_plain(source, ",".join(schema.attribute_names) + "\n", pattern, view, suffixes, fh):
                return 0
            fh.seek(0)  # a temporary or spool file, never --out itself
            fh.truncate()
            fh.write(header)
        writer = csv.writer(fh, lineterminator="\n")
        with closing(_chunks(args.data, schema, schema.attribute_names, None)) as chunks:
            for rows, _ in chunks:
                for row, i in zip(rows, _route(by_value, rows)):
                    row += cells[i]
                writer.writerows(rows)
    return 0


def cmd_rules(args) -> int:
    tree = load_model(args.model)
    dataset = _load_dataset(args)
    render = rules_to_json if args.format == "json" else render_rules
    _write_text(render(extract_rules(tree, dataset), tree.schema.class_name), args.out)
    return 0


def cmd_gains(args) -> int:
    dataset = _load_dataset(args)
    scores = score_all(dataset)
    if args.format == "json":
        _write_text(json.dumps([vars(s) for s in scores], indent=2) + "\n", args.out)
    else:
        lines = [f"{'attribute':<12}{'gain':>12}{'split_info':>14}{'gain_ratio':>14}"]
        for s in scores:
            lines.append(
                f"{s.attribute:<12}{s.gain:>12.6f}{s.split_information:>14.6f}"
                f"{s.gain_ratio:>14.6f}"
            )
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    dataset = _load_dataset(args)
    report = verify_published(dataset)
    text = json.dumps(report.to_json_dict(), indent=2) + "\n" if args.format == "json" else report.render()
    _write_text(text, args.out)
    if not report.implementation_consistent:
        print("verification hard failure: implementation disagrees with oracle",
              file=sys.stderr)
        return 3
    return 0


def cmd_export_dot(args) -> int:
    tree = load_model(args.model)
    _write_text(to_dot(tree), args.out)
    return 0


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ValidationError and SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
