"""Run one gradetree benchmark workload and print its metrics.

    python3 bench/run.py --workload students --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: gradetree is imported from ``./src``
and scratch files go to ``./.bench_work``. Workloads are ``students``,
``train-wide`` and ``predict-bulk`` (see workloads.py). The run sets the
workload up, then repeats its operation, checking every output, until
``--seconds`` have passed; set-up is timed again between operations.

The report names every metric with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones:
``op_s``, the median operation time, ``setup_s``, the median set-up
time, both in seconds at the reference speed (see ``SpeedSampler``; the
report also gives wall-clock seconds), and ``peak_rss_mb``, the
process's peak resident memory through set-up and the first operation. With ``--trace 1``
operations alternate between untraced and traced; the metrics are the
per-layer calls, self time and counts of the median traced operation
(spans.py), plus ``trace.overhead_ratio``, the median traced cost over
the median untraced one. The spans of the last
traced operation are written to ``.bench_work/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import COUNTS, LAYER_METRICS, SPAN_NAMES, Tracer, median_summary
from workloads import WORKLOADS, Tally

SETUP_MIN_REPS = 3
SETUP_SHARE = 0.25
WORK_DIR = Path(".bench_work")
SAMPLE_INTERVAL_S = 0.01
SAMPLE_LOOPS = 250
# seconds per reference loop of SAMPLE_LOOPS at the reference speed: about
# its time on a quiet core of the 2.1 GHz Xeon the benchmark was built on
REFERENCE_PASS_S = 1.5e-4


def import_gradetree() -> None:
    """Import gradetree from ./src, never from an installed copy."""
    src = Path.cwd() / "src"
    if not (src / "gradetree" / "__init__.py").is_file():
        sys.exit(f"error: no gradetree package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    os.environ.pop("GRADETREE_DATA_DIR", None)  # students reads the packaged table
    import gradetree.cli

    if Path(gradetree.cli.__file__).resolve().parent != (src / "gradetree").resolve():
        sys.exit(f"error: gradetree was imported from {gradetree.cli.__file__}, not {src}")


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, or the maximum
    while that percentile would still lie below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    q = math.floor(100 * (n - 10) / n)
    return f"p{q}", ordered[max(0, math.ceil(q * n / 100) - 1)]


def describe(values: list[float]) -> dict:
    label, value = tail(values)
    return {"median": statistics.median(values), "tail": label, "tail_value": value,
            "n": len(values)}


def timed(fn) -> tuple[float, float]:
    """Seconds ``fn()`` took, less sampling, and the reference time meanwhile."""
    sampler = SpeedSampler()
    with sampler:
        t0 = sampler.clock()
        fn()
        elapsed = sampler.clock() - t0
    return elapsed, sampler.reference


def at_reference_speed(seconds: float, reference: float) -> float:
    """Seconds measured while a reference loop took ``reference`` seconds,
    converted to seconds at the speed where it takes REFERENCE_PASS_S."""
    return seconds * REFERENCE_PASS_S / reference


def _reference_pass(loops: int) -> int:
    total = 0
    for i in range(loops):
        row = {"a": i, "b": i & 7, "c": "x"}
        key = (row["a"] & 3, row["b"])
        total += len({key, (i & 1, 0)}) + len([row, key])
    return total


class SpeedSampler:
    """Times a fixed pure-Python loop every SAMPLE_INTERVAL_S while code runs.

    The host this benchmark was built on can slow every instruction by half
    for minutes at a time, so wall-clock times wander from run to run. While
    an operation or a set-up runs, a SIGALRM handler times a short reference
    loop every SAMPLE_INTERVAL_S; ``clock`` is wall time minus the time
    spent in those samples. The time on that clock divided by the mean
    sample time is the cost in reference loops, which stays steady while
    the seconds wander; ``at_reference_speed`` turns it back into seconds.
    The samples take about 2% of the wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def clock(self) -> float:
        """Wall time, less the time spent sampling."""
        return time.perf_counter() - self.busy

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _reference_pass(SAMPLE_LOOPS)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.busy += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    @property
    def reference(self) -> float:
        """Mean seconds per reference loop while sampling."""
        return statistics.mean(self.samples)


def attempt(workload, tracer=None):
    """One operation and its checks: (stage timings or None, reference
    seconds during the operation, failures)."""
    try:
        sampler = SpeedSampler()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            with sampler:
                timings = workload.operation(sampler.clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return timings, sampler.reference, workload.check()
    except Exception as exc:  # a failed operation is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, None, [f"operation raised {type(exc).__name__}: {exc}"]


@dataclass
class Measurement:
    tally: object
    tracer: object
    setup_times: list = field(default_factory=list)  # (seconds, reference) per set-up
    untraced: list = field(default_factory=list)  # (stage timings, reference) per operation
    traced: list = field(default_factory=list)
    summaries: list = field(default_factory=list)  # Tracer.summary() per traced operation
    peak_rss_mb: float = 0.0


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Set the workload up, then run operations for ``seconds``.

    Set-up is timed again between operations whenever it has taken less
    than SETUP_SHARE of the time so far, and at least SETUP_MIN_REPS times
    in all: spread over the run, its median sees the same stretches of the
    host's speed as the operations do.
    """
    run = Measurement(Tally(), Tracer() if trace else None)
    tally, untraced, traced, tracer = run.tally, run.untraced, run.traced, run.tracer
    run.setup_times.append(timed(workload.setup))
    workload.prepare()
    started = time.perf_counter()
    deadline = started + seconds
    late = 0  # attempts after the deadline, still waiting for a first success
    while time.perf_counter() < deadline or not untraced or (trace and not traced):
        now = time.perf_counter()
        if now >= deadline:
            late += 1
            if late > 4:
                break
        if sum(wall for wall, _ in run.setup_times) < SETUP_SHARE * (now - started):
            run.setup_times.append(timed(workload.setup))
        use_tracer = tracer if trace and tally.attempted % 2 else None
        timings, reference, failures = attempt(workload, use_tracer)
        if not tally.attempted:
            # later operations only add allocator fragmentation, which varies
            # from run to run; a command-line user pays set-up and one operation
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.record(failures)
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        if timings is None:
            continue
        if use_tracer is None:
            untraced.append((timings, reference))
        else:
            traced.append((timings, reference))
            run.summaries.append({
                key: at_reference_speed(value, reference) if key.endswith("_s") else value
                for key, value in tracer.summary().items()
            })
    while len(run.setup_times) < SETUP_MIN_REPS:
        run.setup_times.append(timed(workload.setup))
    return run


def write_spans(tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for index, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="JSON",
                        help="also write every statistic of the run to this file")
    args = parser.parse_args(argv)

    import_gradetree()

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = measure(workload, args.seconds, bool(args.trace))
        if run.traced:
            write_spans(run.tracer, WORK_DIR / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally, untraced, traced = run.tally, run.untraced, run.traced
    if not untraced or (args.trace and not traced):
        print(f"error: every operation failed ({tally.attempted} attempted)", file=sys.stderr)
        return 1

    op_times = [at_reference_speed(sum(t.values()), ref) for t, ref in untraced]
    stages = untraced[0][0]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed_ratio,
        "setup_s": describe([at_reference_speed(*s) for s in run.setup_times]),
        "setup_wall_s": describe([wall for wall, _ in run.setup_times]),
        "op_s": describe(op_times),
        "op_wall_s": describe([sum(t.values()) for t, _ in untraced]),
        "reference_s": describe([ref for _, ref in untraced]),
        "stages": {stage: describe([at_reference_speed(t[stage], ref) for t, ref in untraced])
                   for stage in stages},
        "stages_wall": {stage: describe([t[stage] for t, _ in untraced]) for stage in stages},
        "peak_rss_mb": run.peak_rss_mb,
    }
    if workload.rows_per_operation:
        # the slow tail of the operation time is the low tail of the throughput
        stats = detail["op_s"]
        detail["rows_per_s"] = dict(
            stats, median=workload.rows_per_operation / stats["median"],
            tail="min" if stats["tail"] == "max" else f"p{100 - int(stats['tail'][1:])}",
            tail_value=workload.rows_per_operation / stats["tail_value"])

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"({tally.attempted} operations, {tally.failed} failed: "
             f"failed_ratio {tally.failed_ratio:.4f} ratio)"]
    rows = [("setup_s", detail["setup_s"], "s"), ("setup_wall_s", detail["setup_wall_s"], "s"),
            ("op_s", detail["op_s"], "s"), ("op_wall_s", detail["op_wall_s"], "s")]
    for stage, stats in detail["stages"].items():
        rows += [(stage, stats, "s"), (f"{stage[:-2]}_wall_s", detail["stages_wall"][stage], "s")]
    if "rows_per_s" in detail:
        rows.append(("predict_rows_per_s", detail["rows_per_s"], "rows/s"))
    rows.append(("reference_s", detail["reference_s"], "s"))
    for name, stats, unit in rows:
        lines.append(f"  {name:<20} {stats['median']:.6g} {unit}  (median, "
                     f"{stats['tail']} {stats['tail_value']:.6g}, n={stats['n']})")
    lines.append(f"  {'peak_rss_mb':<20} {detail['peak_rss_mb']:.6g} MiB")

    if args.trace:
        detail["traced_op_s"] = describe(
            [at_reference_speed(sum(t.values()), ref) for t, ref in traced])
        layers = median_summary(run.summaries)
        layers["trace.overhead_ratio"] = detail["traced_op_s"]["median"] / detail["op_s"]["median"]
        detail["layers"] = layers
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        lines.append(f"  per layer, median of {len(traced)} traced operations:")
        for name in SPAN_NAMES:
            lines.append(f"    {name:<34} calls {layers[name + '.calls']:>9g}"
                         f"  self {layers[name + '.self_s']:.6f} s"
                         f"  total {layers[name + '.total_s']:.6f} s")
        for name, unit in COUNTS:
            lines.append(f"    {name:<34} {layers[name]:.6g} {unit}")
        lines.append(f"    tracing overhead: traced op {detail['traced_op_s']['median']:.6g} s, "
                     f"untraced {detail['op_s']['median']:.6g} s: "
                     f"trace.overhead_ratio {layers['trace.overhead_ratio']:.4f}")
    else:
        metrics = {
            "op_s": {"value": detail["op_s"]["median"], "unit": "s"},
            "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": detail["peak_rss_mb"], "unit": "MiB"},
        }
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
