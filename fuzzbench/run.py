"""Fuzz-corpus benchmark for taserial.

    python3 fuzzbench/run.py --workload fuzz3 --seed 0 --seconds 30 --trace 0

Runs one workload (or `all` three) over consecutive fuzz seeds starting at
--seed, in this one process; the seed count follows from --seconds.  With
--trace 0 it measures the end-to-end metrics on an untraced pass, scaled to
a reference host speed (see pipeline.py).  With --trace 1 it runs the first
half of the seeds once untraced and once traced, and reports the per-layer
metrics.  Every metric is printed by name and unit, followed by the raw
corpus figures (corpus_s, run_s, check_s, sim_steps, ...) and, last, one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits with 1 when an output is wrong: a completed run is not
serializable, a decoded trace does not re-encode byte-identically, or the
traced run's traces differ from the untraced run's.  It exits with 2 when
taserial's sources are not next to this directory.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from pipeline import (WORKLOADS, BenchError, Report, measure_end_to_end,
                      measure_layers, n_seeds)

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json")
                  .read_text(encoding="utf-8"))
UNITS = {name: m["unit"] for name, m in SPEC["metrics"].items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    count = n_seeds(workload, seconds)
    if trace:
        # Each seed runs twice, so half of them fill the same time.
        return measure_layers(workload, seed, max(2, count // 2))
    return measure_end_to_end(workload, seed, count)


def print_report(report: Report, trace: bool) -> None:
    seeds = report.seeds
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {report.workload}: seeds {seeds.start}..{seeds.stop - 1} "
          f"({len(seeds)} runs), {kind}")
    for name, value in report.metrics.items():
        print(f"  {name:46s} {value:14.6g} {UNITS[name]}")
    for name in ("corpus_s", "run_s", "check_s", "sim_steps",
                 "budget_exhausted_frac", "unserializable", "steps_per_s",
                 "peak_rss_mb", "host_slowdown", "traced_corpus_s"):
        if name in report.info:
            print(f"  {name:46s} {report.info[name]:14.6g} {UNITS[name]}")
    print(f"  trace_sha256 {report.info.get('trace_sha256', '')}")
    if trace:
        for name in report.info["hooks_missing"]:
            print(f"  hook {name}: missing (0 calls)")
        shares = sorted(report.info["self_share"].items(), key=lambda kv: -kv[1])
        print("  traced self-time share of the corpus: " + ", ".join(
            f"{name} {share:.1%}" for name, share in shares[:8]))
    for problem in report.problems:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.workload == "all" else [bool(args.trace)]
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            for trace in modes:
                report = measure(name, args.seed, args.seconds, trace)
                print_report(report, trace)
                prefix = f"{name}." if args.workload == "all" else ""
                metrics.update({prefix + k: {"value": v, "unit": UNITS[k]}
                                for k, v in report.metrics.items()})
                attempted += report.attempted
                failed += report.failed
                correct = correct and not report.problems
    except BenchError as e:
        print(f"fuzzbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
