"""Run every workload untraced and traced, and print all metrics in one table.

    python3 bench/report.py --seed 1 --seconds 20 [--baseline bench/baseline.json]

Run it from the root of a checkout. Each workload and mode runs
bench/run.py in a child process of its own, so peak memory is per
workload. The table names every end-to-end metric with its unit,
including the per-stage timings (median, tail percentile and sample
count, at the reference speed and on the wall clock), the failed ratio,
the per-layer spans and counts, and the tracing overhead. ``--baseline`` also writes every statistic, with the
Python version, CPU count and git revision, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import WORK_DIR
from spans import COUNTS, SPAN_NAMES
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    detail = WORK_DIR / f"detail-{workload}-{trace}.json"
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return dict(json.loads(detail.read_text(encoding="utf-8")), result=result)


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def _timing(name: str, stats: dict, unit: str = "s") -> str:
    return (f"  {name:<22} {stats['median']:>12.6g} {unit:<7} median; "
            f"{stats['tail']} {stats['tail_value']:.6g}; n={stats['n']}")


def render(runs: dict) -> str:
    lines = []
    for workload, (plain, traced) in runs.items():
        lines.append(f"{workload}: {plain['failed']} of {plain['attempted']} operations "
                     f"failed, failed_ratio {plain['failed_ratio']:.4f} ratio")
        lines.append(_timing("setup_s", plain["setup_s"]))
        lines.append(_timing("setup_wall_s", plain["setup_wall_s"]))
        lines.append(_timing("op_s", plain["op_s"]))
        lines.append(_timing("op_wall_s", plain["op_wall_s"]))
        for stage, stats in plain["stages"].items():
            lines.append(_timing(stage, stats))
            lines.append(_timing(f"{stage[:-2]}_wall_s", plain["stages_wall"][stage]))
        if "rows_per_s" in plain:
            lines.append(_timing("predict_rows_per_s", plain["rows_per_s"], "rows/s"))
        lines.append(f"  {'peak_rss_mb':<22} {plain['peak_rss_mb']:>12.6g} MiB")
        ratio = traced["layers"]["trace.overhead_ratio"]
        lines.append(f"  tracing overhead: traced op {traced['traced_op_s']['median']:.6g} s, "
                     f"untraced op in the traced run {traced['op_s']['median']:.6g} s, "
                     f"in the untraced run {plain['op_s']['median']:.6g} s; "
                     f"trace.overhead_ratio {ratio:.4f}")
    names = list(runs)
    lines.append("")
    lines.append(f"{'per layer (median traced operation)':<40}"
                 + "".join(f"{n:>26}" for n in names))
    for span in SPAN_NAMES:
        for suffix, fmt in ((".calls", "{:>26g}"), (".self_s", "{:>24.6f} s")):
            lines.append(f"{span + suffix:<40}" + "".join(
                fmt.format(runs[n][1]["layers"][span + suffix]) for n in names))
    for name, unit in COUNTS:
        lines.append(f"{name + ' (' + unit + ')':<40}" + "".join(
            f"{runs[n][1]['layers'][name]:>26.6g}" for n in names))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--baseline", metavar="JSON", help="write every statistic here")
    args = parser.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    runs = {w: (run_once(w, args.seed, args.seconds, 0), run_once(w, args.seed, args.seconds, 1))
            for w in WORKLOADS}
    print(render(runs))
    if args.baseline:
        doc = {
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "git_revision": git_revision(),
            },
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {w: {"untraced": p, "traced": t} for w, (p, t) in runs.items()},
        }
        Path(args.baseline).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if all(p["failed"] == 0 and t["failed"] == 0 for p, t in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
