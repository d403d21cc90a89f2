"""The fuzz-corpus pipeline the benchmark measures, and its metrics.

Per fuzz seed this does in memory what `taserial fuzz` plus
`taserial run --trace` and `taserial check FILE` do:

    config = fuzz.random_config(seed, params)       # set-up, before any run
    trace = engine.run(config)                      # \\ run_s
    lines = engine.trace_to_lines(trace)            # /
    decoded = engine.trace_from_lines(lines)        # \\ check_s
    verdict = checker.check_serializable(decoded)   # /

taserial is imported from the `src/` directory next to this one, never from
an installed copy.  Everything runs in this one process, without threads.

The end-to-end times are scaled to a reference host speed.  The shared hosts
this runs on switch between speeds that differ by up to 1.8x, for periods
from a fraction of a second to minutes, so raw wall times of identical runs
spread by more than half.  Around each timed section the benchmark times a
fixed pure-Python kernel that does not call taserial, and reports
`raw time * REFERENCE_KERNEL_S / kernel time`: the time the section would
take while the kernel runs at its reference speed.  Raw times are printed
beside them.
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Generator parameters (fields of taserial.fuzz.FuzzParams), the rate at
# which the untraced pipeline gets through seeds, and how many kernel runs
# make one host-speed sample (about 2% of a seed's time).  A run covers
# round(rate * --seconds) consecutive seeds, so it lasts about --seconds;
# the count depends only on the arguments, never on the clock.
WORKLOADS: Dict[str, dict] = {
    "fuzz3": {"params": {}, "seeds_per_s": 40.0, "kernel_runs": 1},
    "fuzz12": {"params": {"n_machines": 12, "n_shared": 16,
                          "max_steps_per_machine": 8, "domain_size": 8,
                          "step_budget": 2000},
               "seeds_per_s": 1.8, "kernel_runs": 10},
    "fuzz24": {"params": {"n_machines": 24, "n_shared": 24,
                          "domain_size": 16, "step_budget": 2000},
               "seeds_per_s": 1.0, "kernel_runs": 20},
}

SETUP_REPEATS = 7
# Seconds per kernel() run on a 2-core x86-64 VM in its fast state, Python
# 3.11 (the 5th percentile of 3000 runs).  Only its constancy matters.
REFERENCE_KERNEL_S = 620e-6


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no taserial sources)."""


def n_seeds(workload: str, seconds: float) -> int:
    return max(2, round(WORKLOADS[workload]["seeds_per_s"] * seconds))


def kernel():
    """Fixed work in the style of the pipeline: tuples, dicts, frozensets,
    sorting, JSON and blake2b.  It must never call taserial."""
    counts = {}
    for i in range(300):
        key = ("g%d" % (i % 23), (i % 11, i % 7))
        counts[key] = counts.get(key, 0) + i
    pairs = frozenset(counts.items())
    blob = json.dumps(sorted(counts.items()), separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8), len(pairs)


def host_speed(runs: int) -> float:
    """Seconds per kernel() run right now.  The garbage collector is off, so
    that the size of taserial's heap does not leak into the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(runs):
            kernel()
        return (perf_counter() - t0) / runs
    finally:
        if enabled:
            gc.enable()


def import_taserial() -> SimpleNamespace:
    """Import taserial afresh from ROOT/src, dropping any earlier import."""
    if not (SRC / "taserial" / "__init__.py").is_file():
        raise BenchError(f"no taserial sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "taserial" or n.startswith("taserial.")]:
        del sys.modules[name]
    importlib.import_module("taserial")
    mods = SimpleNamespace(**{
        n: importlib.import_module(f"taserial.{n}")
        for n in ("asm", "engine", "checker", "fuzz", "workloads")})
    if not Path(mods.engine.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"taserial was imported from {mods.engine.__file__}")
    return mods


def set_up(workload: str, seeds: range):
    """Import taserial and build every RunConfig; returns the seconds that
    took, the modules and the configs.

    What exists afterwards is frozen out of the garbage collector's view:
    `taserial fuzz` builds one config at a time, so the collector's full
    passes should not have to walk every config of the run."""
    gc.unfreeze()
    gc.collect()
    t0 = perf_counter()
    mods = import_taserial()
    configs = build_configs(mods, workload, seeds)
    took = perf_counter() - t0
    gc.collect()
    gc.freeze()
    return took, mods, configs


def build_configs(mods, workload: str, seeds: range) -> list:
    params = mods.fuzz.FuzzParams(**WORKLOADS[workload]["params"])
    return [mods.fuzz.random_config(s, params) for s in seeds]


@dataclass
class SeedResult:
    seed: int
    status: str = "error"
    steps: int = 0
    engine_s: float = 0.0  # engine.run
    run_s: float = 0.0     # engine.run + trace_to_lines
    check_s: float = 0.0   # trace_from_lines + check_serializable
    run_ref_s: float = 0.0    # run_s and check_s at the reference speed
    check_ref_s: float = 0.0
    serializable: bool = False
    digest: str = ""       # sha256 of the encoded trace
    roundtrip: Optional[bool] = None
    counts: Dict[str, int] = field(default_factory=dict)
    error: str = ""

    @property
    def problem(self) -> str:
        """Why this seed fails the correctness gate, or ''."""
        if self.error:
            return f"error: {self.error}"
        if self.status == "done" and not self.serializable:
            return "completed run is not serializable"
        if self.roundtrip is False:
            return "decoded trace does not re-encode byte-identically"
        return ""


def trace_counts(mods, trace) -> Dict[str, int]:
    """Controller and proper-step counts of one main run, from its trace."""
    count = mods.workloads.count_events
    machine_steps = [ms for rec in trace.steps for ms in rec.per_machine.values()]
    proper = sum(1 for ms in machine_steps if ms.proper)
    return {
        "grants": count(trace, "lock_grant"),
        "refusals": count(trace, "lock_refuse"),
        "victimizations": count(trace, "victimize"),
        "undos": count(trace, "undo"),
        "wait_steps": len(machine_steps) - proper,
        "proper": proper,
        "surviving": sum(len(s) for s in mods.checker.cleanse(trace).values()),
    }


def run_seed(mods, seed: int, config, inspect: bool,
             tracer: Optional[Tracer] = None,
             speed: Callable[[], float] = lambda: REFERENCE_KERNEL_S
             ) -> SeedResult:
    """The pipeline for one config, with host-speed samples before, between
    and after the run and check sections.  With `inspect`, also the
    round-trip gate and the trace counts, outside the timed sections; they
    call into taserial, so a traced run leaves them out."""
    engine, checker = mods.engine, mods.checker
    res = SeedResult(seed)
    if tracer is not None:
        tracer.begin(seed)
    try:
        k0 = speed()
        t0 = perf_counter()
        trace = engine.run(config)
        t1 = perf_counter()
        lines = engine.trace_to_lines(trace)
        t2 = perf_counter()
        k1 = speed()
        t2b = perf_counter()
        decoded = engine.trace_from_lines(lines)
        verdict = checker.check_serializable(decoded)
        t3 = perf_counter()
        k2 = speed()
    except mods.asm.AsmError as e:
        res.error = f"{type(e).__name__}: {e}"
    else:
        res.status, res.steps = trace.status, len(trace.steps)
        res.engine_s, res.run_s, res.check_s = t1 - t0, t2 - t0, t3 - t2b
        res.run_ref_s = res.run_s * 2 * REFERENCE_KERNEL_S / (k0 + k1)
        res.check_ref_s = res.check_s * 2 * REFERENCE_KERNEL_S / (k1 + k2)
        res.serializable = verdict.ok
        h = hashlib.sha256()
        for line in lines:
            h.update(line.encode("utf-8") + b"\n")
        res.digest = h.hexdigest()
        if inspect:
            res.roundtrip = engine.trace_to_lines(decoded) == lines
            res.counts = trace_counts(mods, trace)
    if tracer is not None:
        tracer.fold()
    return res


def corpus_digest(results: List[SeedResult]) -> str:
    """sha256 over the encoded traces of every seed, in seed order."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest.encode("ascii"))
    return h.hexdigest()


@dataclass
class Report:
    workload: str
    seeds: range
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _gate(report: Report, results: List[SeedResult]) -> None:
    report.attempted += len(results)
    for r in results:
        if r.problem:
            report.failed += 1
            report.problems.append(f"seed {r.seed}: {r.problem}")


def _corpus_info(results: List[SeedResult]) -> Dict[str, object]:
    done = [r for r in results if not r.error]
    return {
        "corpus_s": sum(r.run_s + r.check_s for r in done),
        "run_s": sum(r.run_s for r in done),
        "check_s": sum(r.check_s for r in done),
        "sim_steps": sum(r.steps for r in done),
        "budget_exhausted_frac":
            sum(r.status == "budget" for r in results) / len(results),
        "unserializable":
            sum(r.status == "done" and not r.serializable for r in done),
        "trace_sha256": corpus_digest(results),
    }


def measure_end_to_end(workload: str, first_seed: int, count: int,
                       setups: int = SETUP_REPEATS) -> Report:
    """Untraced run: `setups` set-ups, then one pass over the seeds."""
    seeds = range(first_seed, first_seed + count)
    report = Report(workload, seeds)
    runs = WORKLOADS[workload]["kernel_runs"]
    speed = lambda: host_speed(runs)
    setup_ref = []
    for _ in range(setups):
        mods = configs = None
        k0 = speed()
        took, mods, configs = set_up(workload, seeds)
        setup_ref.append(took * 2 * REFERENCE_KERNEL_S / (k0 + speed()))
    results = [run_seed(mods, s, c, inspect=True, speed=speed)
               for s, c in zip(seeds, configs)]
    _gate(report, results)
    done = [r for r in results if not r.error]
    # Check cost is taken over completed traces only, per proper step that
    # survives in the trace: the committed work the checker re-executes.
    # That sum is fixed by the programs, while traces that exhausted the
    # budget are long, cheap to reject and come in bursts of seeds.
    completed = [r for r in done
                 if r.status == "done" and r.counts["surviving"]]
    if not completed:
        report.problems.append("no run completed")
        return report
    report.metrics = {
        "run_us_per_step": statistics.median(
            1e6 * r.run_ref_s / r.steps for r in done),
        "check_us_per_proper": statistics.median(
            1e6 * r.check_ref_s / r.counts["surviving"] for r in completed),
        "setup_s": statistics.median(setup_ref),
    }
    report.info = _corpus_info(results)
    report.info["host_slowdown"] = statistics.median(
        r.run_s / r.run_ref_s for r in done)
    report.info["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report.info["steps_per_s"] = report.info["sim_steps"] / sum(
        r.engine_s for r in done)
    return report


def measure_layers(workload: str, first_seed: int, count: int) -> Report:
    """Each seed once untraced and once under the span tracer, the two in
    alternating order, so that drift in the host's speed hits both alike."""
    seeds = range(first_seed, first_seed + count)
    report = Report(workload, seeds)
    _, mods, configs = set_up(workload, seeds)
    solo = {"steps": 0, "proper": 0}

    def observe_solo(trace) -> None:
        solo["steps"] += len(trace.steps)
        solo["proper"] += sum(1 for rec in trace.steps
                              for ms in rec.per_machine.values() if ms.proper)

    tracer = Tracer(observers={"checker.run": observe_solo})
    with tracer:
        tracer.begin("set-up")
        traced_configs = build_configs(mods, workload, seeds)
        tracer.fold()
    gc.collect()
    gc.freeze()
    plain, traced = [], []
    for seed, config, traced_config in zip(seeds, configs, traced_configs):
        for traced_turn in ((False, True) if seed % 2 else (True, False)):
            if traced_turn:
                with tracer:
                    traced.append(run_seed(mods, seed, traced_config,
                                           inspect=False, tracer=tracer))
            else:
                plain.append(run_seed(mods, seed, config, inspect=True))
    _gate(report, plain)
    report.attempted += len(traced)
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            report.failed += 1
            report.problems.append(
                f"seed {a.seed}: traced run's trace differs from untraced")

    plain_info, traced_info = _corpus_info(plain), _corpus_info(traced)
    report.info = plain_info
    report.info["traced_corpus_s"] = traced_info["corpus_s"]
    report.info["hooks_missing"] = list(tracer.missing)
    report.info["self_share"] = {
        name: tracer.self_time[name] / traced_info["corpus_s"]
        for name in tracer.names if name != "fuzz.random_config"}
    report.metrics = layer_metrics(tracer, plain, solo,
                                   traced_info["corpus_s"] - plain_info["corpus_s"])
    return report


def layer_metrics(t: Tracer, plain: List[SeedResult], solo: Dict[str, int],
                  overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics.  Times are self times unless named inclusive.
    "per step" divides by every global step executed, the main runs' and
    the solo re-runs'; "per proper" by every proper machine-step of both."""
    done = [r for r in plain if not r.error]
    traces = len(done)
    main_steps = sum(r.steps for r in done)
    steps_all = main_steps + solo["steps"]
    proper_all = sum(r.counts["proper"] for r in done) + solo["proper"]
    counts = {k: sum(r.counts[k] for r in done)
              for k in ("grants", "refusals", "victimizations", "undos",
                        "wait_steps", "proper", "surviving")}

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(name):
        return ratio(1e6 * t.self_time[name], t.calls[name])

    def per_step_us(name, steps=steps_all):
        return ratio(1e6 * t.self_time[name], steps)

    def per_trace_ms(name, times=None):
        return ratio(1e3 * (times or t.self_time)[name], traces)

    return {
        "asm.yields.calls_per_proper": ratio(t.calls["asm.yields"], proper_all),
        "asm.yields.us": per_call_us("asm.yields"),
        "asm.with_updates.us_per_step": per_step_us("asm.State.with_updates"),
        "rwloc.rw_rule.calls_per_proper":
            ratio(t.calls["wrapper.rw_rule"], proper_all),
        "rwloc.rw_rule.us": per_call_us("wrapper.rw_rule"),
        "wrapper.wrapper_step.self_us": per_call_us("engine.wrapper_step"),
        "wrapper.terminated.us": per_call_us("wrapper.terminated"),
        "seeds.make_rng.calls_per_step":
            ratio(t.calls["engine.make_rng"], steps_all),
        "seeds.make_rng.us": per_call_us("engine.make_rng"),
        "controller.lock_handler.us_per_step":
            per_step_us("controller.lock_handler_step"),
        "controller.deadlock_handler.self_us_per_step":
            per_step_us("controller.deadlock_handler_step"),
        "controller.recovery.self_us_per_step":
            per_step_us("controller.recovery_step"),
        "controller.deadlocked.calls_per_step":
            ratio(t.calls["controller.deadlocked"], steps_all),
        "controller.deadlocked.us": per_call_us("controller.deadlocked"),
        "controller.locked_by.us_per_step":
            per_step_us("controller.LockTable.locked_by"),
        "controller.grants": counts["grants"],
        "controller.refusals": counts["refusals"],
        "controller.victimizations": counts["victimizations"],
        "controller.undos": counts["undos"],
        "controller.wait_steps": counts["wait_steps"],
        "controller.grant_ratio":
            ratio(counts["grants"], counts["grants"] + counts["refusals"]),
        "controller.useful_proper_ratio":
            ratio(counts["surviving"], counts["proper"]),
        "engine.steps_per_s": ratio(main_steps, sum(r.engine_s for r in done)),
        "engine.run.self_us_per_step": per_step_us("engine.run", main_steps),
        "engine.state_digest.us_per_step": per_step_us("engine.state_digest"),
        "engine.encode.ms_per_trace": per_trace_ms("engine.trace_to_lines"),
        "engine.decode.self_ms_per_trace": per_trace_ms("engine.trace_from_lines"),
        "dsl.parse_program.ms_per_trace":
            per_trace_ms("engine.parse_program", t.total),
        "checker.solo_run.ms_per_trace": per_trace_ms("checker.run", t.total),
        "checker.solo_steps_per_trace": ratio(solo["steps"], traces),
        "checker.cleanse.ms_per_trace": per_trace_ms("checker.cleanse"),
        "checker.equivalent.ms_per_trace": per_trace_ms("checker.equivalent"),
        "fuzz.random_config.ms":
            ratio(1e3 * t.total["fuzz.random_config"],
                  t.calls["fuzz.random_config"]),
        "tracer.overhead_s": overhead_s,
    }
