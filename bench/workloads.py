"""The three benchmark workloads and the checks on their outputs.

Each workload drives gradetree only through its public functions and
``gradetree.cli.main(argv)``, in process, as a closed loop with one
caller: an operation starts after the previous one (and its checks)
completed. ``setup`` makes the inputs from the seed and is timed;
``prepare`` computes the references the checks need and is not;
``operation(clock)`` returns the seconds each of its stages took on the
given clock; ``check`` returns one message per failed output check of
the last operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from pathlib import Path

import tables

GOLDEN_RULES = Path("tests/golden/fixture_rules.txt")
LOO_BASELINE = 0.52
RECOMPUTED_ROOT = "ATT"  # the paper publishes PSM; verify reports the mismatch
_SUPPORT = re.compile(r"\[support=(\d+), confidence=")


class Tally:
    """Operations attempted, and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``gradetree.cli.main(argv)`` with its standard streams captured."""
    from gradetree import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _exit_failures(results: dict[str, tuple[int, str]]) -> list[str]:
    return [
        f"{command} exited {code}: {output.strip()[-200:]}"
        for command, (code, output) in results.items()
        if code != 0
    ]


def check_rules_text(text: str, golden: str) -> list[str]:
    if text == golden:
        return []
    got, want = text.splitlines(), golden.splitlines()
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return [f"rules line {i} differs from the golden file: {g!r} != {w!r}"]
    return [f"rules output has {len(got)} lines, the golden file {len(want)}"]


def check_predictions(input_csv: Path, output_csv: Path, model_doc: dict,
                      expected_rows: int) -> list[str]:
    """Output parses with csv.reader, echoes its input, and every label equals
    the naive walk of the model document."""
    schema = model_doc["schema"]
    names = [a["name"] for a in schema["attributes"]]
    header = names + [schema["class_attribute"]["name"], "confidence"]
    failures = []
    with open(input_csv, newline="", encoding="utf-8") as fin, \
            open(output_csv, newline="", encoding="utf-8") as fout:
        inputs, outputs = csv.reader(fin), csv.reader(fout)
        in_header = next(inputs)
        if next(outputs, None) != header:
            return ["prediction output header is wrong"]
        rows = 0
        for row_no, (values, out) in enumerate(zip(inputs, outputs), start=1):
            rows += 1
            example = dict(zip(in_header, values))
            if out[:-2] != [example[n] for n in names]:
                failures.append(f"prediction row {row_no} does not echo its input")
            elif out[-2] != tables.walk_model(model_doc["root"], example):
                failures.append(f"prediction row {row_no}: label {out[-2]!r} is wrong")
            if len(failures) >= 5:
                return failures
        extra = sum(1 for _ in outputs)
    if rows + extra != expected_rows:
        failures.append(f"prediction output has {rows + extra} rows, expected {expected_rows}")
    return failures


def check_model_file(path: Path, rows: int) -> list[str]:
    """save -> load -> save is byte-identical, and leaf supports cover the rows."""
    from gradetree.tree import load_model, save_model

    failures = []
    again = path.with_suffix(".resaved.json")
    save_model(load_model(path), again)
    if again.read_bytes() != path.read_bytes():
        failures.append(f"{path.name}: save -> load -> save changed the bytes")
    doc = json.loads(path.read_text(encoding="utf-8"))
    support = sum(leaf["support"] for leaf in tables.leaves(doc["root"]))
    if support != rows or doc["training_size"] != rows:
        failures.append(f"{path.name}: leaf supports sum to {support}, expected {rows}")
    return failures


class Students:
    """The bundled 50-record table: leave-one-out plus a five-command CLI session."""

    name = "students"
    rows_per_operation = None

    def __init__(self, seed: int, workdir: Path):
        # the bundled table is fixed; the seed has nothing to choose
        self.model = workdir / "students.model.json"
        self.dot = workdir / "students.dot"

    def setup(self) -> None:
        from gradetree.dataset import fixture_paths, load_csv, load_schema

        self.csv, self.schema = fixture_paths()
        self.dataset = load_csv(self.csv, load_schema(self.schema))
        self.golden = GOLDEN_RULES.read_text(encoding="utf-8")

    def prepare(self) -> None:
        pass

    def operation(self, clock) -> dict[str, float]:
        from gradetree.evaluate import leave_one_out

        data = ["--data", str(self.csv), "--schema", str(self.schema)]
        session = {
            "train": ["train", *data, "--out", str(self.model)],
            "rules": ["rules", "--model", str(self.model), *data],
            "gains": ["gains", *data],
            "verify": ["verify", *data, "--format", "json"],
            "export-dot": ["export-dot", "--model", str(self.model), "--out", str(self.dot)],
        }
        t0 = clock()
        self.loo = leave_one_out(self.dataset)
        t1 = clock()
        self.results = {command: run_cli(argv) for command, argv in session.items()}
        t2 = clock()
        return {"loo_s": t1 - t0, "cli_session_s": t2 - t1}

    def check(self) -> list[str]:
        failures = _exit_failures(self.results)
        if self.loo.accuracy != LOO_BASELINE:
            failures.append(f"leave-one-out accuracy {self.loo.accuracy!r} != {LOO_BASELINE}")
        code, text = self.results["rules"]
        if code == 0:
            failures += check_rules_text(text, self.golden)
        code, text = self.results["verify"]
        if code == 0:
            root = json.loads(text)["root"]["recomputed"]
            if root != RECOMPUTED_ROOT:
                failures.append(f"verify recomputed root {root!r}, expected {RECOMPUTED_ROOT!r}")
        return failures


class TrainWide:
    """5,000 x 20 synthetic table: two depth-4 builds and rule extraction via the CLI."""

    name = "train-wide"
    rows_per_operation = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "wide.csv"
        self.schema = workdir / "wide.schema.json"
        self.models = {c: workdir / f"wide.{c}.json" for c in ("gain", "gain-ratio")}
        self.rules = workdir / "wide.rules.txt"
        self.first_bytes: dict[str, bytes] = {}

    def setup(self) -> None:
        rows = tables.wide_rows(self.seed)
        self.csv.write_text(tables.to_csv(tables.wide_header(), rows), encoding="utf-8")
        self.schema.write_text(tables.schema_json(tables.wide_schema_doc()), encoding="utf-8")

    def prepare(self) -> None:
        gains = tables.naive_gains(tables.wide_rows(self.seed))
        names = tables.wide_header(with_class=False)
        # a tie within rounding may go to either attribute
        self.best_roots = {names[i] for i, g in enumerate(gains) if g >= max(gains) - 1e-9}

    def operation(self, clock) -> dict[str, float]:
        data = ["--data", str(self.csv), "--schema", str(self.schema)]
        stages = {}
        self.results = {}
        for criterion, stage in (("gain", "train_gain_s"), ("gain-ratio", "train_ratio_s")):
            argv = ["train", *data, "--criterion", criterion, "--max-depth", "4",
                    "--out", str(self.models[criterion])]
            t0 = clock()
            self.results[f"train {criterion}"] = run_cli(argv)
            stages[stage] = clock() - t0
        argv = ["rules", "--model", str(self.models["gain"]), *data, "--out", str(self.rules)]
        t0 = clock()
        self.results["rules"] = run_cli(argv)
        stages["rules_s"] = clock() - t0
        return stages

    def check(self) -> list[str]:
        failures = _exit_failures(self.results)
        if failures:
            return failures
        for criterion, path in self.models.items():
            data = path.read_bytes()
            if self.first_bytes.setdefault(criterion, data) != data:
                failures.append(f"{criterion} model bytes differ from the first repetition")
            failures += check_model_file(path, tables.WIDE_ROWS)
        root = json.loads(self.models["gain"].read_text(encoding="utf-8"))["root"]
        if root.get("attribute") not in self.best_roots:
            failures.append(f"gain root {root.get('attribute')!r} is not the naive argmax "
                            f"{sorted(self.best_roots)}")
        lines = self.rules.read_text(encoding="utf-8").splitlines()
        support = sum(int(m.group(1)) for m in map(_SUPPORT.search, lines) if m)
        if len(lines) != sum(1 for _ in tables.leaves(root)) or support != tables.WIDE_ROWS:
            failures.append(f"rules: {len(lines)} lines with support {support} do not match "
                            "the model's leaves and rows")
        return failures


class PredictBulk:
    """CLI ``predict`` of 50,000 unlabeled rows through a depth-4 model of the wide table."""

    name = "predict-bulk"
    rows_per_operation = tables.PREDICT_ROWS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.train_csv = workdir / "wide.csv"
        self.schema = workdir / "wide.schema.json"
        self.model = workdir / "wide.model.json"
        self.input = workdir / "predict.csv"
        self.output = workdir / "predict.out.csv"

    def setup(self) -> None:
        from gradetree.dataset import load_csv, load_schema
        from gradetree.tree import TreeConfig, id3_build, save_model

        rows = tables.wide_rows(self.seed)
        self.train_csv.write_text(tables.to_csv(tables.wide_header(), rows), encoding="utf-8")
        self.schema.write_text(tables.schema_json(tables.wide_schema_doc()), encoding="utf-8")
        dataset = load_csv(self.train_csv, load_schema(self.schema))
        save_model(id3_build(dataset, TreeConfig(max_depth=4)), self.model)
        self.input.write_text(
            tables.to_csv(tables.wide_header(with_class=False), tables.predict_rows(self.seed)),
            encoding="utf-8",
        )

    def prepare(self) -> None:
        self.model_doc = json.loads(self.model.read_text(encoding="utf-8"))

    def operation(self, clock) -> dict[str, float]:
        argv = ["predict", "--model", str(self.model), "--data", str(self.input),
                "--out", str(self.output)]
        t0 = clock()
        self.result = run_cli(argv)
        return {"predict_s": clock() - t0}

    def check(self) -> list[str]:
        failures = _exit_failures({"predict": self.result})
        if failures:
            return failures
        return check_predictions(self.input, self.output, self.model_doc, tables.PREDICT_ROWS)


WORKLOADS = {w.name: w for w in (Students, TrainWide, PredictBulk)}
