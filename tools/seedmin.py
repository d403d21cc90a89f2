"""Per-seed minimum times of two checkouts, in one process.

    python3 tools/seedmin.py PARENT CHANGE --workload fuzz24 --rounds 6 \
        --seeds 0:30 --part run

PARENT and CHANGE are two checkouts of the repository.  taserial is
imported from each tree's `src/` in turn, in this one process, as fuzzbench
imports it; the two sets of modules then live side by side.  Every seed's
config is built by each tree's own `fuzz.random_config`, with the
parameters of the workload in CHANGE's `fuzzbench/pipeline.py`.  The
seeds default to those a 30-second fuzzbench run of the workload covers,
`0:max(2, round(seeds_per_s * 30))` from the same table: 0:1200 for fuzz3,
0:54 for fuzz12 and 0:30 for fuzz24.

Each round times every seed on both trees, the trees alternating which
goes first from seed to seed and from round to round, and keeps each
seed's minimum per tree: a drift in the host's speed then falls on both
trees alike, and the minimum drops the rounds a slow spell hit.  `--part
run` times `engine.run` plus `engine.trace_to_lines`, fuzzbench's run
section, on a config built afresh for every timed call, outside the timed
section: a program keeps its compiled rules, so a config run before would
skip compiling them, which fuzzbench pays once per seed.  `--part check`
times `engine.trace_from_lines` plus `checker.check_serializable` of the
tree's own trace, its check section; the decoder parses the programs, and
so compiles them, anew every time.  `--part setup` times the tree's own
`fuzz.random_config` of the seed, which fuzzbench's set-up calls once per
seed.  The parts but `run` take their trace from one run of the seed per
tree, outside every timed section.

It prints both sums of the minima, the median per-seed ratio (change over
parent), the number of seeds the change won, and whether both trees wrote
identical traces for every seed.  Then it prints every seed's two minima,
their difference and their ratio, by ratio, so the seed that moves the sums
can be named.  It uses the standard library only.
"""
from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Sequence


def import_tree(tree: Path) -> SimpleNamespace:
    """taserial's modules imported from tree's `src/`; whatever taserial
    `sys.modules` held before is put back afterwards."""
    src = str((tree / "src").resolve())
    held = {n: m for n, m in sys.modules.items()
            if n == "taserial" or n.startswith("taserial.")}
    for name in held:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        mods = SimpleNamespace(**{
            n: importlib.import_module(f"taserial.{n}")
            for n in ("engine", "checker", "fuzz", "wrapper")})
    finally:
        sys.path.remove(src)
        for name in [n for n in sys.modules
                     if n == "taserial" or n.startswith("taserial.")]:
            del sys.modules[name]
        sys.modules.update(held)
    if not Path(mods.engine.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"seedmin: taserial was imported from "
                         f"{mods.engine.__file__}, not {src}")
    return mods


#: The seconds of the fuzzbench run whose seeds `--seeds` defaults to.
DEFAULT_SECONDS = 30


def workload_entry(tree: Path, workload: str) -> dict:
    """The workload's entry in the literal `WORKLOADS` table of tree's
    `fuzzbench/pipeline.py`, read without running it."""
    path = tree / "fuzzbench" / "pipeline.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "WORKLOADS"):
            workloads = ast.literal_eval(node.value)
            if workload in workloads:
                return workloads[workload]
            raise SystemExit(f"seedmin: no workload {workload!r} in {path}")
    raise SystemExit(f"seedmin: no WORKLOADS table in {path}")


def workload_params(tree: Path, workload: str) -> dict:
    """The FuzzParams fields of the workload."""
    return workload_entry(tree, workload)["params"]


def default_seeds(tree: Path, workload: str) -> range:
    """The seeds a `DEFAULT_SECONDS` fuzzbench run of the workload covers."""
    per_s = workload_entry(tree, workload)["seeds_per_s"]
    return range(0, max(2, round(per_s * DEFAULT_SECONDS)))


def timer(mods, params: dict, part: str) -> Callable[[int], tuple]:
    """`time(seed)`: the seconds of one timed section on the seed's config,
    and the sha256 of the trace's lines."""
    fuzz, engine, checker = mods.fuzz, mods.engine, mods.checker
    lines: Dict[int, List[str]] = {}

    def configure(seed: int):
        return fuzz.random_config(seed, fuzz.FuzzParams(**params))

    def time(seed: int) -> tuple:
        config = None if part == "setup" else configure(seed)
        if part != "run" and seed not in lines:
            lines[seed] = engine.trace_to_lines(
                engine.run(config or configure(seed)))
        gc.collect()
        t0 = perf_counter()
        if part == "run":
            written = engine.trace_to_lines(engine.run(config))
        elif part == "check":
            written = lines[seed]
            checker.check_serializable(engine.trace_from_lines(written))
        else:
            configure(seed)
            written = lines[seed]
        took = perf_counter() - t0
        digest = hashlib.sha256()
        for line in written:
            digest.update(line.encode("utf-8") + b"\n")
        return took, digest.hexdigest()
    return time


def session(time: Dict[str, Callable[[int], tuple]], seeds: Sequence[int],
            rounds: int) -> Dict[str, Dict[int, tuple]]:
    """Per side ("parent", "change") and seed: the minimum seconds over the
    rounds and the trace digest.  Seed k of round r runs the parent first
    when k + r is even."""
    best: Dict[str, Dict[int, list]] = {"parent": {}, "change": {}}
    for r in range(rounds):
        for k, seed in enumerate(seeds):
            order = (["parent", "change"] if (k + r) % 2 == 0
                     else ["change", "parent"])
            for side in order:
                took, digest = time[side](seed)
                kept = best[side].get(seed)
                if kept is None:
                    best[side][seed] = [took, digest]
                elif kept[1] != digest:
                    raise SystemExit(f"seedmin: {side} wrote two traces for "
                                     f"seed {seed}")
                else:
                    kept[0] = min(kept[0], took)
    return {side: {s: tuple(v) for s, v in by_seed.items()}
            for side, by_seed in best.items()}


def summarize(best: Dict[str, Dict[int, tuple]]) -> dict:
    parent, change = best["parent"], best["change"]
    seeds = sorted(parent)
    return {
        "seeds": len(seeds),
        "parent_s": sum(parent[s][0] for s in seeds),
        "change_s": sum(change[s][0] for s in seeds),
        "median_ratio": statistics.median(change[s][0] / parent[s][0]
                                          for s in seeds),
        "seeds_won": sum(change[s][0] < parent[s][0] for s in seeds),
        "same_traces": all(parent[s][1] == change[s][1] for s in seeds),
    }


def report(s: dict) -> str:
    return "\n".join([
        f"parent sum of minima  {s['parent_s']:.4f} s",
        f"change sum of minima  {s['change_s']:.4f} s "
        f"({100 * (s['change_s'] / s['parent_s'] - 1):+.2f}%)",
        f"median seed ratio     {s['median_ratio']:.4f} "
        f"({100 * (s['median_ratio'] - 1):+.2f}%)",
        f"seeds the change won  {s['seeds_won']}/{s['seeds']}",
        f"identical traces      {s['same_traces']}"])


def seed_table(best: Dict[str, Dict[int, tuple]]) -> str:
    """One row per seed, the smallest ratio (change over parent) first:
    both minima and the change's difference in milliseconds."""
    parent, change = best["parent"], best["change"]
    rows = [f"{'seed':>8s} {'parent ms':>10s} {'change ms':>10s} "
            f"{'diff ms':>9s} {'ratio':>7s}"]
    for ratio, seed in sorted((change[s][0] / parent[s][0], s)
                              for s in parent):
        p, c = 1e3 * parent[seed][0], 1e3 * change[seed][0]
        rows.append(f"{seed:8d} {p:10.3f} {c:10.3f} {c - p:+9.3f} "
                    f"{ratio:7.4f}")
    return "\n".join(rows)


def seed_range(text: str) -> range:
    first, _, stop = text.partition(":")
    return range(int(first), int(stop))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seeds", type=seed_range, default=None,
                        help="A:B, the seeds A up to B-1 (default: those "
                             "of a 30-second fuzzbench run of the workload, "
                             "0:1200 for fuzz3, 0:54 for fuzz12, 0:30 for "
                             "fuzz24)")
    parser.add_argument("--part", choices=("run", "check", "setup"),
                        default="run")
    args = parser.parse_args(argv)
    if args.seeds is None:
        args.seeds = default_seeds(args.change, args.workload)
    if args.rounds < 1 or not args.seeds:
        parser.error("needs one round and one seed at least")
    params = workload_params(args.change, args.workload)
    time = {side: timer(import_tree(getattr(args, side)), params, args.part)
            for side in ("parent", "change")}
    best = session(time, args.seeds, args.rounds)
    print(f"== {args.workload}, seeds {args.seeds.start}:{args.seeds.stop}, "
          f"{args.rounds} rounds, part {args.part}")
    print(report(summarize(best)))
    print(seed_table(best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
