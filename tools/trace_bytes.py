"""Trace bytes per fuzzbench corpus, split into header, step and footer lines.

    python3 tools/trace_bytes.py TREE --workload fuzz3,fuzz12 --seeds 0:40

TREE is a checkout of the repository.  For each listed workload W this runs
one subprocess in TREE that builds the configs of seeds A to B-1 with W's
generator parameters (`WORKLOADS` in TREE's `fuzzbench/pipeline.py`), runs
each with TREE's `engine.run` and encodes it with its
`engine.trace_to_lines`.  Each line counts its UTF-8 bytes plus one for its
newline, as `write_trace` writes it: the first line is the header, the last
the footer, the others step lines.  A seed whose run raises counts under
`errors` and adds no bytes.

It prints one JSON object: per workload the traces, errors and the header,
step, footer and total bytes.  Run it on two checkouts to compare trace
sizes before and after a change of the trace format.  It uses the standard
library only and imports nothing from TREE itself.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

# Runs in TREE: argv is the workload, the first seed and the seed past the
# last; prints the counts as JSON.
_COUNT = """
import json, sys
sys.path[:0] = ["src", "fuzzbench"]
from pipeline import WORKLOADS
from taserial import asm, engine, fuzz

workload, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
params = fuzz.FuzzParams(**WORKLOADS[workload]["params"])
out = dict.fromkeys(["traces", "errors", "header", "step", "footer"], 0)
for seed in range(first, last):
    try:
        lines = engine.trace_to_lines(engine.run(
            fuzz.random_config(seed, params)))
    except asm.AsmError:
        out["errors"] += 1
        continue
    sizes = [len(line.encode("utf-8")) + 1 for line in lines]
    out["traces"] += 1
    out["header"] += sizes[0]
    out["step"] += sum(sizes[1:-1])
    out["footer"] += sizes[-1]
out["total"] = out["header"] + out["step"] + out["footer"]
print(json.dumps(out))
"""


def parse_seeds(text: str) -> range:
    first, sep, last = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"seeds {text!r} are not A:B")
    return range(int(first), int(last))


def corpus_bytes(tree: Path, workload: str, seeds: range) -> Dict[str, int]:
    """The counts of one workload's corpus, from a subprocess in tree."""
    out = subprocess.run(
        [sys.executable, "-c", _COUNT, workload, str(seeds.start),
         str(seeds.stop)], cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"trace_bytes: {tree}: {workload} exited "
                         f"{out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="A:B, the seeds A to B-1")
    args = parser.parse_args(argv)
    seeds = args.seeds
    print(json.dumps({
        "tree": str(args.tree), "seeds": f"{seeds.start}:{seeds.stop}",
        "workloads": {w: corpus_bytes(args.tree, w, seeds)
                      for w in args.workload.split(",")}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
