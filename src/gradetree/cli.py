"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/validation/IO error,
3 verification hard failure (implementation disagrees with its oracle).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import closing
from dataclasses import asdict

from .dataset import _atomic_output, _unlabeled_chunks, _write_text, fixture_paths, load_csv, load_schema
from .evaluate import accuracy
from .metrics import score_all
from .rules import extract_rules, render_rules, rules_to_json
from .tree import (
    Criterion,
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


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    config = TreeConfig(
        criterion=Criterion(args.criterion),
        min_leaf_support=args.min_support,
        max_depth=args.max_depth,
    )
    tree = id3_build(dataset, config)
    save_model(tree, args.out)
    stats = tree_stats(tree)
    nodes, positions, _ = tree._flat  # node 0 is the root
    if positions[0] >= 0:
        root_line = f"root attribute: {tree.schema.attributes[positions[0]].name}"
    else:
        root_line = f"tree is a single leaf predicting {nodes[0].label!r}"
    acc = accuracy(tree, dataset)
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


def cmd_predict(args) -> int:
    """Write the input rows in schema order, each followed by its predicted label and confidence.

    The input is read, checked, routed and written a chunk of rows at a time
    (``dataset._unlabeled_chunks``), so memory does not grow with the file;
    the error of a bad input is that of its first bad row. Each row is routed
    through the model's flat form, its child ids keyed by value rather than by
    domain code. The output reaches ``--out``, or stdout, only once every row
    is written (``dataset._atomic_output``).
    """
    tree = load_model(args.model)
    nodes, positions, children = flat = tree._flat
    cells = [_leaf_cells(node) if p < 0 else None for node, p in zip(nodes, positions)]
    attributes = tree.schema.attributes
    by_value = flat._replace(children=[
        ids and dict(zip(attributes[p].domain, ids)) for p, ids in zip(positions, children)])
    # the input closes before the output is moved into place, which may be the same file
    with _atomic_output(args.out) as fh, closing(_unlabeled_chunks(args.data, tree.schema)) as chunks:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*tree.schema.attribute_names, tree.schema.class_name, "confidence"])
        for rows in chunks:
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
        _write_text(json.dumps([asdict(s) for s in scores], indent=2) + "\n", args.out)
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
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # ValidationError and SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
