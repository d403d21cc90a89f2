"""End-to-end acceptance checks.

Each test exercises one headline property at full scale and prints a single
PASS/FAIL line with its measured numbers.
"""
import dataclasses
import hashlib
import random
import time

from taserial.anomaly import forged_lost_update_trace
from taserial.asm import (TRUE, Location, assign_choice_ids, update_locations,
                          yields)
from taserial.checker import (
    brute_force_serializable,
    check_serializable,
    cleanse,
)
from taserial.controller import LockInvariantViolation, LockTable
from taserial.engine import run, state_at, trace_from_lines, trace_to_lines
from taserial.fuzz import FuzzParams, random_body, random_config, random_state
from taserial.rwloc import rw_rule
from taserial.seeds import ChoiceResolver, derive_bytes
from taserial.workloads import (
    count_events,
    counter_config,
    full_victim_config,
    opposed_lock_config,
)

from reference import (
    check_lock_table,
    last_undo_step,
    r_holders,
    simulation_digest,
    w_holder,
)
from stepwise import cleanse_stepwise

N_FUZZ = 1000

_corpus_cache = {}


def fuzz_corpus():
    """Traces plus verdicts for the main fuzz sweep, computed once."""
    if "traces" not in _corpus_cache:
        t0 = time.monotonic()
        traces = []
        verdicts = []
        for seed in range(N_FUZZ):
            trace = run(random_config(seed))
            traces.append(trace)
            verdicts.append(check_serializable(trace))
        _corpus_cache["traces"] = traces
        _corpus_cache["verdicts"] = verdicts
        _corpus_cache["elapsed"] = time.monotonic() - t0
    return (_corpus_cache["traces"], _corpus_cache["verdicts"],
            _corpus_cache["elapsed"])


def report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_fuzzed_runs_serializable():
    traces, verdicts, elapsed = fuzz_corpus()
    committed = sum(1 for t in traces if t.status == "done")
    serializable = sum(1 for t, v in zip(traces, verdicts)
                       if t.status == "done" and v.ok)
    modes = {t.config.wait_mode for t in traces}
    ok = (committed == N_FUZZ and serializable == N_FUZZ
          and modes == {"retry", "suspend"} and elapsed < 120.0)
    report("criterion-1 serializability-at-scale", ok,
           f"{serializable}/{N_FUZZ} serializable, {committed} committed, "
           f"wait modes {sorted(modes)}, {elapsed:.1f}s")


def test_criterion_2_oracle_agreement():
    agree = 0
    total = 200
    for i in range(total):
        params = FuzzParams(n_machines=2 if i % 2 else 3)
        trace = run(random_config(10_000 + i, params))
        fast = check_serializable(trace).ok
        slow = brute_force_serializable(trace).ok
        agree += fast == slow
    forged = forged_lost_update_trace()
    both_reject = (not check_serializable(forged).ok
                   and not brute_force_serializable(forged).ok)
    ok = agree == total and both_reject
    report("criterion-2 oracle-agreement", ok,
           f"{agree}/{total} agreements, forged lost-update rejected by "
           f"both: {both_reject}")


def _replay_lock_table(trace):
    """Independent 2PL check: rebuild the lock table from trace events,
    require every grant to be compatible with the locks other machines hold,
    and validate the table after every step."""
    table = LockTable()
    checked = 0
    for rec in trace.steps:
        for ev in rec.events:
            kind, m = ev["kind"], ev["machine"]
            if kind == "lock_grant":
                pair = ev["locks"]
                for l in pair.r_loc | pair.w_loc:
                    others = {w_holder(table, l)} - {m, None}
                    if l in pair.w_loc:
                        others |= r_holders(table, l) - {m}
                    if others:
                        raise LockInvariantViolation(
                            f"step {rec.index}: {m} granted {l} held by "
                            f"{sorted(others)}")
                table.grant(m, pair)
            elif kind == "undo":
                table.release(m, ev["locks"])
            elif kind == "commit":
                table.release_all(m)
        check_lock_table(table)
        checked += 1
    return checked


def test_criterion_3_lock_invariant_every_step():
    traces, _, _ = fuzz_corpus()
    checked = 0
    for trace in traces:
        checked += _replay_lock_table(trace)
    report("criterion-3 2pl-safety", checked > 0,
           f"lock table valid after all {checked} recorded steps, "
           f"0 violations")


ONE_AND_TRUE = {
    "w": "machine w\nshared a/1\ninit pc_w() := 0\nterminated: pc_w() = 1\n"
         "rule: par { pc_w() := 1 ; a(1) := 5 }\n",
    "r": "machine r\nshared a/1\noutput y\ninit pc_r() := 0\n"
         "terminated: pc_r() = 1\nrule: par { pc_r() := 1 ; y() := a(true) }\n",
}


def test_lock_replay_keeps_one_and_true_apart():
    # w write-locks a(1) and r read-locks a(true): two locations, so the
    # grants do not conflict, although their payloads write [1] and [true].
    from taserial.dsl import parse_program
    from taserial.engine import RunConfig

    machines = [parse_program(t) for t in ONE_AND_TRUE.values()]
    for seed in range(20):
        trace = run(RunConfig(machines=machines, seed=seed))
        assert trace.status == "done"
        grants = {ev["machine"]: ev["locks"] for rec in trace.steps
                  for ev in rec.events if ev["kind"] == "lock_grant"}
        assert grants["w"].w_loc == {Location("a", (1,))}
        assert grants["r"].r_loc == {Location("a", (TRUE,))}
        assert _replay_lock_table(trace) == len(trace.steps)
        decoded = trace_from_lines(trace_to_lines(trace))
        assert _replay_lock_table(decoded) == len(trace.steps)


def test_criterion_4_full_victim_restores_state():
    acct_a = Location("acct_a", ())
    good = 0
    seeds = 100
    for seed in range(seeds):
        trace = run(full_victim_config(seed=seed))
        last = last_undo_step(trace, "alpha")
        if last is None or trace.status != "done":
            continue
        after = state_at(trace, last + 1)
        # every location the victim wrote before its full undo, restored
        # exactly (acct_a is its only shared write; pc_alpha its private one)
        restored = (after.get(acct_a) == trace.initial_values[acct_a]
                    and after.get(Location("pc_alpha", ()))
                    == trace.initial_values[Location("pc_alpha", ())])
        good += restored
    ok = good == seeds
    report("criterion-4 undo-exactness", ok,
           f"{good}/{seeds} seeds restore pre-registration values exactly")


def test_criterion_5_deadlock_resolution():
    good = 0
    seeds = 100
    for seed in range(seeds):
        trace = run(opposed_lock_config(seed=seed, max_steps=500))
        good += (trace.status == "done"
                 and count_events(trace, "victimize") >= 1
                 and sorted(trace.committed) == ["left", "right"]
                 and len(trace.steps) <= 500)
    ok = good == seeds
    report("criterion-5 deadlock-handling", ok,
           f"{good}/{seeds} seeds: >=1 victimization and both commits "
           f"within 500 steps")


def _rw_soundness(seed, allow_choose):
    params = FuzzParams()
    shared = ["g0", "g1", "g2"]
    rule = random_body(random.Random(seed), shared, params,
                       allow_choose=allow_choose)
    assign_choice_ids([rule])
    state = random_state(random.Random(seed + 1), shared, params)
    material = derive_bytes("acceptance-rw", seed, allow_choose)
    rw = rw_rule(rule, state, {}, ChoiceResolver(material))
    reads = set()
    updates = yields(rule, state, {}, ChoiceResolver(material),
                     on_read=lambda l, v: reads.add(l))
    return reads <= set(rw.reads) and update_locations(updates) == rw.writes


def test_criterion_6_rwloc_soundness():
    plain = sum(_rw_soundness(s, False) for s in range(500))
    chosen = sum(_rw_soundness(s, True) for s in range(500))
    ok = plain == 500 and chosen == 500
    report("criterion-6 rwloc-soundness", ok,
           f"choose-free {plain}/500, with-choose {chosen}/500")


def test_criterion_7_cleansing_confluence():
    traces = [run(full_victim_config(seed=s)) for s in range(50)]
    traces += [run(opposed_lock_config(seed=s)) for s in range(50)]
    assert all(count_events(t, "undo") >= 1 for t in traces)
    from taserial.checker import _undone_steps
    comparisons = 0
    good = 0
    idempotent = True
    for i, trace in enumerate(traces):
        base = cleanse(trace)
        for k in range(10):
            comparisons += 1
            good += cleanse_stepwise(trace, random.Random(i * 10 + k)) == base
        # nothing removable survives, so cleansing again changes nothing
        undone = _undone_steps(trace)
        for m, entries in base.items():
            if any((m, e.step_index) in undone for e in entries):
                idempotent = False
    ok = good == comparisons == 1000 and idempotent
    report("criterion-7 cleansing-confluence", ok,
           f"{good}/{comparisons} random-order cleansings agree, "
           f"idempotent: {idempotent}")


def test_criterion_8_replay_determinism():
    identical = 0
    pairs = 100
    for seed in range(pairs):
        config_lines = trace_to_lines(run(random_config(seed)))
        again = trace_to_lines(run(random_config(seed)))
        identical += config_lines == again
    ok = identical == pairs
    report("criterion-8 determinism", ok,
           f"{identical}/{pairs} (config, seed) pairs byte-identical on "
           f"re-run")


# Traces are byte-identical across engine changes unless TRACE_VERSION is
# bumped.  Each corpus has two pins.  The simulation pin is
# `reference.simulation_digest` of its traces, a form that no trace version
# defines.  It was recorded from an engine whose traces still matched the
# pins of versions 1 to 5, the version-1 pins having been taken before the
# per-step costs were made incremental, so it shows the simulation
# unchanged since.  The byte pin is the sha256 of the version-5 lines; a
# new trace version re-records the byte pins only.
SIMULATION_DEFAULT_0_999 = (
    "9a4d3ba9c532a746be92fbcd49b9054bd5e5a56505c822baafd4b4b4167509e4")
GOLDEN_V5_DEFAULT_0_999 = (
    "7fa95cc838e7b3a67188ddeb98a4a4c9838ba0b179c45df41e67a347a64c669b")
SIMULATION_12_MACHINES_0_3 = (
    "22865d764b7240ce2bc2b518dd5b4b91c934c3a3e29897bd592ec0efa0027f80")
GOLDEN_V5_12_MACHINES_0_3 = (
    "6e29b3651aff926a119cc6c389599f888782cdee6c83fa0daa6e00c3aa6f24f7")


def _traces_sha256(traces):
    """One sha256 over every line `trace_to_lines` writes of the traces, in
    order, each line followed by a newline."""
    h = hashlib.sha256()
    for trace in traces:
        for line in trace_to_lines(trace):
            h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _report_pins(name, traces, pins, detail):
    traces = list(traces)
    got = (simulation_digest(traces), _traces_sha256(traces))
    report(name, got == pins,
           f"sha256 of {detail}: simulation {got[0]}, version 5 {got[1]}")


def test_golden_traces_default_fuzz_corpus():
    traces, _, _ = fuzz_corpus()
    _report_pins("golden default-corpus traces", traces,
                 (SIMULATION_DEFAULT_0_999, GOLDEN_V5_DEFAULT_0_999),
                 f"seeds 0-{N_FUZZ - 1}")


def test_golden_traces_12_machines():
    params = FuzzParams(n_machines=12, n_shared=16, max_steps_per_machine=8,
                        domain_size=8, step_budget=2000)
    _report_pins("golden 12-machine traces",
                 (run(random_config(s, params)) for s in range(4)),
                 (SIMULATION_12_MACHINES_0_3, GOLDEN_V5_12_MACHINES_0_3),
                 "seeds 0-3")


# Pins for the modes the two pins above leave out, taken from the engine
# before waiting machines were skipped without a wrapper step: the
# interleaved run mode over the default corpus, and the hand-written
# workloads in both wait modes and both run modes, each also run solo as
# the checker re-runs it.
SIMULATION_INTERLEAVE_0_199 = (
    "128154b27c9b9ec166b4e0ec4b8f20b651e6351191109f30e4a41e4e02882578")
GOLDEN_V5_INTERLEAVE_0_199 = (
    "7656cf91ad2994cceaba647621fc78be65a882db8e17587cf80934b8f1a9a419")
SIMULATION_HAND_WRITTEN = (
    "b8321e55edf9685f4846817416bbd201dafebb032c9c009db00302dc8f57662a")
GOLDEN_V5_HAND_WRITTEN = (
    "343d430d19c79580c85a8a23d774e614df5a65e63bc7e1a5f80d31a55943e08a")


def test_golden_traces_interleave_mode():
    traces = (run(dataclasses.replace(random_config(s), run_mode="interleave"))
              for s in range(200))
    _report_pins("golden interleave-mode traces", traces,
                 (SIMULATION_INTERLEAVE_0_199, GOLDEN_V5_INTERLEAVE_0_199),
                 "seeds 0-199")


# Pins for the paths that skipping blocked machines and one-option draws
# touch, taken from the engine before either was skipped: the 24-machine
# workload, each seed in both wait modes, and the default corpus in
# interleave mode in the wait mode `random_config` does not pick, so that
# with the interleave pin above every seed runs in both.
SIMULATION_24_MACHINES_0_2 = (
    "5a79a84f290eb57dcd16deffdddd36ff5adc0f8d16d4bf9acba3b56ea5660064")
GOLDEN_V5_24_MACHINES_0_2 = (
    "5d37e1175d7270cd4896893c8c16017b509a1afd33578b73a66860fe383e2aa0")
SIMULATION_INTERLEAVE_OTHER_WAIT_0_199 = (
    "9025d6ff07d5b6699b89a541763ab34836fe964f84ee565e152b64178f69df44")
GOLDEN_V5_INTERLEAVE_OTHER_WAIT_0_199 = (
    "31e63f22f8e8cbd5eb3268aca98068bf6c9566a0d4bbf5ab429fb5d2fa7f56eb")

PARAMS_24 = FuzzParams(n_machines=24, n_shared=24, domain_size=16,
                       step_budget=2000)


def test_golden_traces_24_machines_both_wait_modes():
    traces = (run(dataclasses.replace(random_config(s, PARAMS_24),
                                      wait_mode=wait_mode))
              for wait_mode in ("retry", "suspend") for s in range(3))
    _report_pins("golden 24-machine traces", traces,
                 (SIMULATION_24_MACHINES_0_2, GOLDEN_V5_24_MACHINES_0_2),
                 "seeds 0-2, retry then suspend")


def test_golden_traces_interleave_mode_other_wait_mode():
    other = {"retry": "suspend", "suspend": "retry"}

    def config(seed):
        c = random_config(seed)
        return dataclasses.replace(c, run_mode="interleave",
                                   wait_mode=other[c.wait_mode])

    _report_pins("golden interleave-mode traces, other wait mode",
                 (run(config(s)) for s in range(200)),
                 (SIMULATION_INTERLEAVE_OTHER_WAIT_0_199,
                  GOLDEN_V5_INTERLEAVE_OTHER_WAIT_0_199), "seeds 0-199")


def _hand_written_traces():
    for seed in range(10):
        for wait_mode in ("retry", "suspend"):
            for run_mode in ("sync", "interleave"):
                modes = dict(wait_mode=wait_mode, run_mode=run_mode)
                configs = [
                    counter_config(3, 2, seed=seed, **modes),
                    counter_config(4, 3, seed=seed,
                                   registration={"m1": 2, "m3": 5}, **modes),
                    opposed_lock_config(seed=seed, **modes),
                    full_victim_config(seed=seed, **modes),
                ]
                for config in configs:
                    yield run(config)
                    yield run(config, only=[config.machine_ids[-1]])


def test_golden_traces_hand_written_workloads():
    _report_pins("golden hand-written traces", _hand_written_traces(),
                 (SIMULATION_HAND_WRITTEN, GOLDEN_V5_HAND_WRITTEN),
                 "counter/opposed/full-victim seeds 0-9")
