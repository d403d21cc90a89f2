"""A/B driver: alternating pairs of fuzzbench runs on two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload fuzz3,fuzz12,fuzz24 --pairs 10

PARENT and CHANGE are two checkouts of the repository, each in its own
directory.  Pair i runs `python3 fuzzbench/run.py --workload W --seed S
--seconds T --trace 0` once in each, for every listed workload W in turn;
the parent runs first in odd pairs and the change first in even ones, for
every workload, so a drift in machine load falls on both sides alike.
Before every run each tree's `src/**/__pycache__` is deleted, so `setup_s`
always starts from the same bytecode-cache state.

For each workload and each end-to-end metric named in the change's
BENCHMARK.json it prints both medians, the parent's IQR (third minus first
quartile, statistics.quantiles' exclusive method) and in how many pairs the
change is better, and whether every run of both sides wrote the same traces
(fuzzbench's trace_sha256).  It also prints the lines of each tree's
`src/` modules, per module and in total, so net lines and timings come from
one session.  `--json FILE` also writes every run, by workload, and the line
counts.  It uses the standard library only and imports nothing from either
tree.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence


def clear_bytecode(tree: Path) -> None:
    for cache in sorted((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def src_lines(tree: Path) -> Dict[str, int]:
    """Lines (newline characters, as wc -l counts them) of each Python
    module under tree's src/, by its path relative to src/."""
    src = tree / "src"
    return {p.relative_to(src).as_posix(): p.read_bytes().count(b"\n")
            for p in sorted(src.rglob("*.py"))}


def lines_report(parent: Dict[str, int], change: Dict[str, int]) -> str:
    rows = [f"{'src module':26s} {'parent':>7s} {'change':>7s} {'net':>6s}"]
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name, 0), change.get(name, 0)
        rows.append(f"{name:26s} {p:7d} {c:7d} {c - p:+6d}")
    p, c = sum(parent.values()), sum(change.values())
    rows.append(f"{'total':26s} {p:7d} {c:7d} {c - p:+6d}")
    return "\n".join(rows)


def run_once(tree: Path, trees: Sequence[Path], workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced fuzzbench run in tree, after clearing the bytecode of
    every tree in trees: its final JSON line."""
    for each in trees:
        clear_bytecode(each)
    out = subprocess.run(
        [sys.executable, "fuzzbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise SystemExit(f"ab: {tree}: fuzzbench exited {out.returncode}:\n"
                         f"{out.stderr}")
    result = json.loads(lines[-1])
    result["trace_sha256"] = [l.split()[1] for l in lines
                              if l.strip().startswith("trace_sha256")]
    return result


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(parent: List[Dict[str, float]], change: List[Dict[str, float]],
              metrics: Dict[str, str]) -> Dict[str, dict]:
    """Per metric (name -> "lower" or "higher" is better): both medians,
    the parent's quartiles and IQR, and the pairs the change wins; pair i
    is parent[i] against change[i], and a tie counts for neither."""
    out = {}
    for name, better in metrics.items():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        q1, q3 = quartiles(p)
        sign = 1 if better == "lower" else -1
        out[name] = {
            "parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
            "pairs_change_better": sum(sign * (b - a) < 0
                                       for a, b in zip(p, c)),
            "pairs": len(p),
        }
    return out


def report(summary: Dict[str, dict]) -> str:
    rows = [f"{'metric':22s} {'parent':>10s} {'change':>10s} {'change%':>8s} "
            f"{'p.IQR':>8s} {'wins':>6s}"]
    for name, s in summary.items():
        pct = 100 * (s["change_median"] / s["parent_median"] - 1)
        rows.append(f"{name:22s} {s['parent_median']:10.4g} "
                    f"{s['change_median']:10.4g} {pct:+8.2f} "
                    f"{s['parent_iqr']:8.3g} "
                    f"{s['pairs_change_better']:>3d}/{s['pairs']}")
    return "\n".join(rows)


def _values(result: dict, metrics) -> Dict[str, float]:
    row = {name: result["metrics"][name]["value"] for name in metrics}
    row.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"], trace_sha256=result["trace_sha256"])
    return row


def session(run: Callable[[str, str], dict], workloads: Sequence[str],
            pairs: int) -> Dict[str, Dict[str, list]]:
    """Alternating pairs: pair i runs every workload on both sides, the
    parent first in odd pairs; `run(side, workload)` gives one run's row.
    Returns each workload's rows by side."""
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(1, pairs + 1):
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        for w in workloads:
            for side in order:
                runs[w][side].append(dict(pair=i, **run(side, w)))
    return runs


def same_traces(runs: Dict[str, list]) -> bool:
    """Whether every run of both sides wrote the same traces."""
    hashes = {side: {tuple(r["trace_sha256"]) for r in rs}
              for side, rs in runs.items()}
    return hashes["parent"] == hashes["change"] and len(hashes["parent"]) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload.split(",")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = (args.parent, args.change)
    lines = {"parent": src_lines(args.parent), "change": src_lines(args.change)}

    def run(side: str, workload: str) -> dict:
        row = _values(run_once(getattr(args, side), trees, workload,
                               args.seed, args.seconds), metrics)
        print(f"{workload} {side}: "
              + " ".join(f"{row[m]:.4g}" for m in metrics), flush=True)
        return row

    runs = session(run, workloads, args.pairs)
    out = {}
    for w in workloads:
        summary = summarize(runs[w]["parent"], runs[w]["change"], metrics)
        equal = same_traces(runs[w])
        print(f"== {w}: {args.pairs} pairs, {args.seconds:g} s each")
        print(report(summary))
        print("trace_sha256 equal on both sides:", equal)
        out[w] = {"summary": summary, "trace_sha256_equal": equal,
                  "runs": runs[w]}
    print(lines_report(lines["parent"], lines["change"]))
    if args.json:
        args.json.write_text(json.dumps(
            {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
             "workloads": out,
             "src_lines": {side: {"total": sum(by_module.values()),
                                  "modules": by_module}
                           for side, by_module in lines.items()}},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
