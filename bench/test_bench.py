"""Tests of the benchmark itself: generators, span arithmetic, wrappers, checks.

    PYTHONPATH=src python -m pytest -q bench
"""

import sys
import time
from pathlib import Path

import pytest

import run
import tables
from spans import TRACED, Tracer, self_times
from workloads import Students, Tally, TrainWide, check_predictions, run_cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    run.import_gradetree()


def test_generators_are_deterministic_and_fixed_size():
    rows = tables.wide_rows(7)
    assert rows == tables.wide_rows(7)
    assert rows != tables.wide_rows(8)
    assert len(rows) == tables.WIDE_ROWS
    assert {len(r) for r in rows} == {tables.WIDE_ATTRIBUTES + 1}
    predict = tables.predict_rows(7)
    assert predict == tables.predict_rows(7)
    assert len(predict) == tables.PREDICT_ROWS
    assert len(tables.predict_rows(8)) == tables.PREDICT_ROWS


def test_same_seed_writes_byte_identical_files(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = TrainWide(3, tmp_path / "a"), TrainWide(3, tmp_path / "b")
    first.setup()
    second.setup()
    for name in ("wide.csv", "wide.schema.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a: the overlap is covered once
        ["c", 2.0, 3.0, 1],
        ["d", 9.0, 12.0, 0],   # runs past its parent: only [9, 10] is covered
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_traced_self_times_add_up_to_the_top_level_spans():
    from gradetree.dataset import load_students

    tracer = Tracer()
    tracer.install()
    try:
        load_students()
    finally:
        tracer.uninstall()
    top = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert sum(self_times(tracer.spans)) == pytest.approx(top)
    summary = tracer.summary()
    assert summary["dataset.load_csv.calls"] == 1
    assert summary["dataset.Dataset.calls"] == 1
    assert summary["dataset.revalidation_ratio"] == 1.0
    assert summary["tree.id3_build.calls"] == 0


def test_the_sampler_clock_leaves_out_the_sampling_time():
    sampler = run.SpeedSampler()
    with sampler:
        start, wall_start = sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall_start < 0.2:
            pass
        net, wall = sampler.clock() - start, time.perf_counter() - wall_start
    assert len(sampler.samples) >= 5
    assert net == pytest.approx(wall - sum(sampler.samples), abs=2e-3)
    assert run.at_reference_speed(1.0, 2 * run.REFERENCE_PASS_S) == 0.5


class Probe:
    """A workload whose operation records which ``partition`` it would call."""

    def operation(self, clock):
        import gradetree

        self.seen = {m: sys.modules[f"gradetree.{m}"].partition
                     for m in ("dataset", "metrics", "tree")}
        self.seen["gradetree"] = gradetree.partition
        return {"probe_s": 0.0}

    def check(self):
        return []


def test_wrappers_patch_every_binding_and_untraced_runs_install_none():
    import gradetree.dataset

    originals = {(m, f): getattr(sys.modules[f"gradetree.{m}"], f) for m, f in TRACED}
    original_init = gradetree.dataset.Dataset.__init__
    probe = Probe()

    run.attempt(probe)
    assert all(fn is gradetree.dataset.partition for fn in probe.seen.values())

    tracer = Tracer()
    run.attempt(probe, tracer)
    assert all(fn is not gradetree.dataset.partition for fn in probe.seen.values())
    assert len({id(fn) for fn in probe.seen.values()}) == 1

    tracer.install()
    try:
        loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "gradetree"]
        for module in loaded:
            for value in vars(module).values():
                assert not any(value is fn for fn in originals.values()), module
        assert gradetree.dataset.Dataset.__init__ is not original_init
    finally:
        tracer.uninstall()
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"gradetree.{m}"], f) is fn
    assert gradetree.dataset.Dataset.__init__ is original_init


def test_an_altered_rule_line_is_counted_as_failed(tmp_path):
    workload = Students(0, tmp_path)
    workload.setup()
    tally = Tally()
    workload.operation(time.perf_counter)
    tally.record(workload.check())
    assert tally.failed_ratio == 0

    workload.operation(time.perf_counter)
    code, text = workload.results["rules"]
    workload.results["rules"] = (code, text.replace("support=1,", "support=2,", 1))
    tally.record(workload.check())
    assert tally.failed_ratio == 0.5


def test_a_flipped_predicted_label_is_counted_as_failed(tmp_path):
    import json

    from gradetree.dataset import fixture_paths

    data, schema = fixture_paths()
    model, unlabeled, output = tmp_path / "m.json", tmp_path / "in.csv", tmp_path / "out.csv"
    assert run_cli(["train", "--data", str(data), "--schema", str(schema),
                    "--out", str(model)])[0] == 0
    lines = data.read_text(encoding="utf-8").splitlines()
    unlabeled.write_text("\n".join(",".join(line.split(",")[:-1]) for line in lines) + "\n",
                         encoding="utf-8")
    assert run_cli(["predict", "--model", str(model), "--data", str(unlabeled),
                    "--out", str(output)])[0] == 0
    doc = json.loads(model.read_text(encoding="utf-8"))
    tally = Tally()
    tally.record(check_predictions(unlabeled, output, doc, 50))
    assert tally.failed_ratio == 0

    rows = output.read_text(encoding="utf-8").splitlines()
    fields = rows[7].split(",")
    classes = doc["schema"]["class_attribute"]["domain"]
    fields[-2] = next(c for c in classes if c != fields[-2])
    rows[7] = ",".join(fields)
    output.write_text("\n".join(rows) + "\n", encoding="utf-8")
    failures = check_predictions(unlabeled, output, doc, 50)
    tally.record(failures)
    assert failures == ["prediction row 7: label %r is wrong" % fields[-2]]
    assert tally.failed_ratio == 0.5


def _run(cwd, *args):
    import subprocess

    argv = [sys.executable, str(ROOT / "bench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_run_prints_exactly_the_declared_metrics(trace, section):
    import json

    proc = _run(ROOT, "--workload", "students", "--seed", "1", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_a_run_without_the_program_fails_without_a_result(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "students", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
