"""Sampled CPU shares of fuzzbench's run or check section, per function.

    python3 tools/sample.py --workload fuzz24 --part run --seeds 0:16

taserial is imported from TREE's `src/` (by default the checkout holding
this script), and every seed's config is built by TREE's own
`fuzz.random_config`, with the parameters of the workload in TREE's
`fuzzbench/pipeline.py`.  Only the seeds whose run completes are sampled.
`--part run` samples `engine.run` plus `engine.trace_to_lines` of a freshly
built config, as fuzzbench times them, rules compiled on first use
included; `--part check` samples `engine.trace_from_lines` plus
`checker.check_serializable` of the seed's trace.

`signal.setitimer(ITIMER_PROF)` interrupts this process every millisecond
of its CPU time (at the kernel's timer resolution, often 4 ms), and the
handler counts the stack it interrupted, if a section is running: one sample
for the top function's self share and, once, for the inclusive share of
every function on the stack.  The timer runs across all sections, so where
a sample falls does not depend on where a section starts.  The CPU time of
the garbage collector's passes within the sections, timed through
`gc.callbacks`, is `<gc>`'s share, and the samples share the rest.  A signal
is handled only between bytecodes, so the time of a C call goes to the
Python function that made it.  Unlike cProfile, this adds no cost per call,
which would inflate the share of call-heavy code.  The timer, the signal
handler and the gc callbacks are put back afterwards.

It prints, by inclusive share, every function at or above 0.5 percent:
its self share, its inclusive share and its name, `module.qualname`, with
the first line of a lambda or other nested code.  It uses the standard
library only, and samples only its own process.
"""
from __future__ import annotations

import argparse
import gc
import signal
import sys
from pathlib import Path
from time import process_time
from types import CodeType
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from seedmin import import_tree, seed_range, workload_params  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GC = "<gc>"
INTERVAL_S = 1e-3
LEAST_PCT = 0.5  # the least inclusive share printed

Section = Tuple[Callable[[object], object], object]


def _timed(work: Callable[[object], object], arg: object) -> None:
    """The frame every sampled stack starts at."""
    work(arg)


def code_name(code: CodeType) -> str:
    name = Path(code.co_filename).stem + "." + code.co_qualname
    if "<" in code.co_qualname:
        name += f":{code.co_firstlineno}"
    return name


class Sampler:
    """Samples by code object, self and inclusive, and the CPU seconds of
    the sections and of the collector's passes within them."""

    def __init__(self) -> None:
        self.self_n: Dict[CodeType, int] = {}
        self.incl_n: Dict[CodeType, int] = {}
        self.samples = 0
        self.section_s = 0.0
        self.gc_s = 0.0
        self.active = False
        self._begun = 0.0
        self._gc_start: Optional[float] = None

    def begin(self) -> None:
        self.active, self._begun = True, process_time()

    def end(self) -> None:
        self.active = False
        self.section_s += process_time() - self._begun

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = process_time() if self.active else None
        elif self._gc_start is not None:
            self.gc_s += process_time() - self._gc_start
            self._gc_start = None

    def on_signal(self, signum: int, frame) -> None:
        if not self.active:
            return
        if frame.f_code is Sampler.on_gc.__code__:
            if frame.f_locals["phase"] != "start":
                return  # it arrived during the pass, which gc_s times
            frame = frame.f_back  # it arrived before the pass began
        elif self._gc_start is not None:
            return  # a finalizer the pass runs
        stack, f = [], frame
        while f is not None:
            stack.append(f.f_code)
            if f.f_code is _timed.__code__:
                break
            f = f.f_back
        else:  # after the section returned
            return
        self.self_n[stack[0]] = self.self_n.get(stack[0], 0) + 1
        for code in set(stack):
            self.incl_n[code] = self.incl_n.get(code, 0) + 1
        self.samples += 1

    def shares(self) -> Dict[str, Tuple[float, float]]:
        """Name -> (self %, inclusive %) of the sections' CPU time: `<gc>`
        has the share gc_s timed, the samples share the rest, and the self
        shares sum to 100."""
        if not self.samples:
            return {}
        gc_share = 100 * self.gc_s / self.section_s
        per_sample = (100 - gc_share) / self.samples
        out: Dict[str, Tuple[float, float]] = {GC: (gc_share, gc_share)}
        for code, n in self.incl_n.items():
            name = code_name(code)
            own, incl = out.get(name, (0.0, 0.0))
            out[name] = (own + per_sample * self.self_n.get(code, 0),
                         incl + per_sample * n)
        return out


def sample(sections: Iterable[Section]) -> Sampler:
    """Run each section once under one running timer, sampling only inside
    the sections; the process's SIGPROF handler, its ITIMER_PROF timer and
    its gc callbacks are the same afterwards."""
    sampler = Sampler()
    handler = signal.signal(signal.SIGPROF, sampler.on_signal)
    timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    gc.callbacks.append(sampler.on_gc)
    try:
        for work, arg in sections:
            gc.collect()
            sampler.begin()
            try:
                _timed(work, arg)
            finally:
                sampler.end()
    finally:
        gc.callbacks.remove(sampler.on_gc)
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)
    return sampler


def sections(mods, params: dict, seeds: Sequence[int], part: str,
             rounds: int) -> Tuple[List[int], Iterable[Section]]:
    """The seeds whose run completes, and the sections to sample: for each
    round, one per completed seed.  A run's config is built when its
    section comes up, outside the section."""
    fuzz, engine, checker = mods.fuzz, mods.engine, mods.checker
    fuzz_params = fuzz.FuzzParams(**params)
    done, lines = [], {}
    for seed in seeds:
        trace = engine.run(fuzz.random_config(seed, fuzz_params))
        if trace.status == "done":
            done.append(seed)
            lines[seed] = engine.trace_to_lines(trace)
    if part == "run":
        return done, (
            (lambda config: engine.trace_to_lines(engine.run(config)),
             fuzz.random_config(seed, fuzz_params))
            for _ in range(rounds) for seed in done)
    return done, (
        (lambda text: checker.check_serializable(
            engine.trace_from_lines(text)), lines[seed])
        for _ in range(rounds) for seed in done)


def report(shares: Dict[str, Tuple[float, float]]) -> str:
    rows = [f"{'self%':>7s} {'incl%':>7s}  function"]
    for name, (own, incl) in sorted(shares.items(),
                                    key=lambda kv: (-kv[1][1], kv[0])):
        if incl >= LEAST_PCT:
            rows.append(f"{own:7.2f} {incl:7.2f}  {name}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--part", choices=("run", "check"), default="run")
    parser.add_argument("--seeds", type=seed_range, default=range(0, 12),
                        help="A:B, the seeds A up to B-1 (default 0:12)")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1 or not args.seeds:
        parser.error("needs one round and one seed at least")
    params = workload_params(args.tree, args.workload)
    done, todo = sections(import_tree(args.tree), params, args.seeds,
                          args.part, args.rounds)
    if not done:
        raise SystemExit("sample: no run completed")
    gc.collect()
    gc.freeze()  # what exists before the sections, as fuzzbench does
    try:
        sampler = sample(todo)
    finally:
        gc.unfreeze()
    print(f"== {args.workload}, part {args.part}, {len(done)} completed of "
          f"seeds {args.seeds.start}:{args.seeds.stop}, {args.rounds} "
          f"rounds, {sampler.samples} samples")
    print(report(sampler.shares()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
