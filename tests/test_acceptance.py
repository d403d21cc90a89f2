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

from reference import check_lock_table, last_undo_step, r_holders, w_holder
from stepwise import cleanse_stepwise
from trace_v1 import v1_lines
from trace_v2 import v2_lines
from trace_v3 import v3_lines
from trace_v4 import v4_lines

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
                for l in pair.all_locations():
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
# bumped.  Each corpus has five pins: its version-1 to version-4 traces, as
# the writers in `trace_v1` to `trace_v4` make them from the current runs,
# and its current (version-5) traces.  The version-1 pins were taken from
# the engine before the per-step costs were made incremental
# (delta-maintained digest, shared deadlock pass), the version-2 pins from
# the engine that still hashed every step's state, the version-3 pins from
# the engine that still wrote tagged values, and the version-4 pins from the
# engine whose header still copied the seed and the initial state, so they
# show the simulation unchanged since.
GOLDEN_DEFAULT_0_999 = (
    "fd962cefae13a3e6c450b257a5f660c95e8f7764a084879239e670588ca88f18")
GOLDEN_12_MACHINES_0_3 = (
    "31096f3556ba1a8688d919f03699f5ce8a2904d9bddd003e21c9cffd69245a31")
GOLDEN_V2_DEFAULT_0_999 = (
    "0b03475cdacd28b5afbfd7b50f833834353e9a6d8531e3186c3b4de5af1ed0bd")
GOLDEN_V2_12_MACHINES_0_3 = (
    "882bc72f36cda1f4a9adfe25978828ad2ac896195e6044488de52662329fe2b8")
GOLDEN_V3_DEFAULT_0_999 = (
    "baa9596e589afd49015dce51dc9bee971124b46ad83815cd5563b01854500ce5")
GOLDEN_V4_DEFAULT_0_999 = (
    "102b2d94feecd090041e6dd36f9eff4301984cc8cf8a691a4574904f5a3e4dea")
GOLDEN_V5_DEFAULT_0_999 = (
    "7fa95cc838e7b3a67188ddeb98a4a4c9838ba0b179c45df41e67a347a64c669b")
GOLDEN_V3_12_MACHINES_0_3 = (
    "d3a4f4dcce018e182e092095e92c02bb5c1d3aef2a6d13f563abd322a3957784")
GOLDEN_V4_12_MACHINES_0_3 = (
    "c6649b8b4b6726e005da568839d87f9a58a99e2a201338865d0c580fc9358979")
GOLDEN_V5_12_MACHINES_0_3 = (
    "6e29b3651aff926a119cc6c389599f888782cdee6c83fa0daa6e00c3aa6f24f7")


def _traces_sha256(traces, encode=trace_to_lines):
    """One sha256 over every encoded line of the traces, in order, each line
    followed by a newline."""
    h = hashlib.sha256()
    for trace in traces:
        for line in encode(trace):
            h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _report_pins(name, traces, pins, detail):
    traces = list(traces)
    got = tuple(_traces_sha256(traces, write) for write in (
        v1_lines, v2_lines, v3_lines, v4_lines, trace_to_lines))
    report(name, got == pins,
           f"sha256 of {detail}: version 1 {got[0]}, version 2 {got[1]}, "
           f"version 3 {got[2]}, version 4 {got[3]}, version 5 {got[4]}")


def test_golden_traces_default_fuzz_corpus():
    traces, _, _ = fuzz_corpus()
    _report_pins("golden default-corpus traces", traces,
                 (GOLDEN_DEFAULT_0_999, GOLDEN_V2_DEFAULT_0_999,
                  GOLDEN_V3_DEFAULT_0_999,
                  GOLDEN_V4_DEFAULT_0_999,
                  GOLDEN_V5_DEFAULT_0_999), f"seeds 0-{N_FUZZ - 1}")


def test_golden_traces_12_machines():
    params = FuzzParams(n_machines=12, n_shared=16, max_steps_per_machine=8,
                        domain_size=8, step_budget=2000)
    _report_pins("golden 12-machine traces",
                 (run(random_config(s, params)) for s in range(4)),
                 (GOLDEN_12_MACHINES_0_3, GOLDEN_V2_12_MACHINES_0_3,
                  GOLDEN_V3_12_MACHINES_0_3,
                  GOLDEN_V4_12_MACHINES_0_3,
                  GOLDEN_V5_12_MACHINES_0_3), "seeds 0-3")


# Pins for the modes the two pins above leave out, taken from the engine
# before waiting machines were skipped without a wrapper step: the
# interleaved run mode over the default corpus, and the hand-written
# workloads in both wait modes and both run modes, each also run solo as
# the checker re-runs it.
GOLDEN_INTERLEAVE_0_199 = (
    "629d71ea6a8e0d7f5bdbe05bdea253cb1992bb967f2c4775680cb23ce85d7668")
GOLDEN_HAND_WRITTEN = (
    "63707c8f2c999632b97ce66c9e554a03d80b3c1b32ff58aee6147483b94017f0")
GOLDEN_V2_INTERLEAVE_0_199 = (
    "02453db80ae695f99b2bf5688198895ea9b125a99bb98d80087eff487e9269de")
GOLDEN_V2_HAND_WRITTEN = (
    "3e444aabb1c57df31afb253359882345631a0b467f5fdad92e78dfd6aafce2c6")
GOLDEN_V3_INTERLEAVE_0_199 = (
    "2eee0a1a4fdf69a6b86e9cda3d5bcd1a58b6a21722b458489e5266e53848e1de")
GOLDEN_V4_INTERLEAVE_0_199 = (
    "0cf32dfe70d4b9e4ebacc30f959eaca58fb112b86442037738f11283c120a51f")
GOLDEN_V5_INTERLEAVE_0_199 = (
    "7656cf91ad2994cceaba647621fc78be65a882db8e17587cf80934b8f1a9a419")
GOLDEN_V3_HAND_WRITTEN = (
    "1f5a13038345cd6251f8ab9f461d514db69f4c0b7395e4ae4e8dab4547dc7a45")
GOLDEN_V4_HAND_WRITTEN = (
    "547965419944f7b8bf5503f4b020e3b29a6d6a4ff864eedcfb10b44d990fa865")
GOLDEN_V5_HAND_WRITTEN = (
    "343d430d19c79580c85a8a23d774e614df5a65e63bc7e1a5f80d31a55943e08a")


def test_golden_traces_interleave_mode():
    traces = (run(dataclasses.replace(random_config(s), run_mode="interleave"))
              for s in range(200))
    _report_pins("golden interleave-mode traces", traces,
                 (GOLDEN_INTERLEAVE_0_199, GOLDEN_V2_INTERLEAVE_0_199,
                  GOLDEN_V3_INTERLEAVE_0_199,
                  GOLDEN_V4_INTERLEAVE_0_199,
                  GOLDEN_V5_INTERLEAVE_0_199), "seeds 0-199")


# Pins for the paths that skipping blocked machines and one-option draws
# touch, taken from the engine before either was skipped: the 24-machine
# workload, each seed in both wait modes, and the default corpus in
# interleave mode in the wait mode `random_config` does not pick, so that
# with the interleave pin above every seed runs in both.
GOLDEN_24_MACHINES_0_2 = (
    "50932dec7c9beefccc1fd790359905c5b3ccca0757944a5af3155b95f7e0674d")
GOLDEN_INTERLEAVE_OTHER_WAIT_0_199 = (
    "ae6dec62b4486972da0d9a999b27b5ee52a5b7da42da2c864dff25462755246f")
GOLDEN_V2_24_MACHINES_0_2 = (
    "d44e0701e03f8662bc156bb7009c188d0881b3363118a84c27e0f8d9363f84b6")
GOLDEN_V2_INTERLEAVE_OTHER_WAIT_0_199 = (
    "1faafff8dfa1f087f508f1a32999e5d3acc8684ea5ba45c71dc21da5688683f5")
GOLDEN_V3_24_MACHINES_0_2 = (
    "8336e0fc190880381f4ebaa03309dfff8fc3089ede6638a0a791f2e22457678a")
GOLDEN_V4_24_MACHINES_0_2 = (
    "246ac500e89f359a43b47adb620d8be10e0c9092f118d6848f8c0a1fedb3a7d4")
GOLDEN_V5_24_MACHINES_0_2 = (
    "5d37e1175d7270cd4896893c8c16017b509a1afd33578b73a66860fe383e2aa0")
GOLDEN_V3_INTERLEAVE_OTHER_WAIT_0_199 = (
    "6691c2110b7bb2f37cd2982c1194af3617e096be7e940f178ec5c611efb197d4")
GOLDEN_V4_INTERLEAVE_OTHER_WAIT_0_199 = (
    "92c6c0e3fba3d0bca9f8afa664f0f4b06ec8247b9a874853d263a02f22337927")
GOLDEN_V5_INTERLEAVE_OTHER_WAIT_0_199 = (
    "31e63f22f8e8cbd5eb3268aca98068bf6c9566a0d4bbf5ab429fb5d2fa7f56eb")

PARAMS_24 = FuzzParams(n_machines=24, n_shared=24, domain_size=16,
                       step_budget=2000)


def test_golden_traces_24_machines_both_wait_modes():
    traces = (run(dataclasses.replace(random_config(s, PARAMS_24),
                                      wait_mode=wait_mode))
              for wait_mode in ("retry", "suspend") for s in range(3))
    _report_pins("golden 24-machine traces", traces,
                 (GOLDEN_24_MACHINES_0_2, GOLDEN_V2_24_MACHINES_0_2,
                  GOLDEN_V3_24_MACHINES_0_2,
                  GOLDEN_V4_24_MACHINES_0_2,
                  GOLDEN_V5_24_MACHINES_0_2),
                 "seeds 0-2, retry then suspend")


def test_golden_traces_interleave_mode_other_wait_mode():
    other = {"retry": "suspend", "suspend": "retry"}

    def config(seed):
        c = random_config(seed)
        return dataclasses.replace(c, run_mode="interleave",
                                   wait_mode=other[c.wait_mode])

    _report_pins("golden interleave-mode traces, other wait mode",
                 (run(config(s)) for s in range(200)),
                 (GOLDEN_INTERLEAVE_OTHER_WAIT_0_199,
                  GOLDEN_V2_INTERLEAVE_OTHER_WAIT_0_199,
                  GOLDEN_V3_INTERLEAVE_OTHER_WAIT_0_199,
                  GOLDEN_V4_INTERLEAVE_OTHER_WAIT_0_199,
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
                 (GOLDEN_HAND_WRITTEN, GOLDEN_V2_HAND_WRITTEN,
                  GOLDEN_V3_HAND_WRITTEN,
                  GOLDEN_V4_HAND_WRITTEN,
                  GOLDEN_V5_HAND_WRITTEN),
                 "counter/opposed/full-victim seeds 0-9")
