import inspect
import json
import re
from dataclasses import replace

import pytest

from taserial import controller, engine
from taserial.asm import FALSE, TRUE, Location, State
from taserial.checker import check_serializable
from taserial.dsl import parse_program, print_program
from taserial.engine import (
    CHOICES,
    RECORD_KEYS,
    ConfigError,
    MalformedTrace,
    RunConfig,
    decode_value,
    effect_event,
    encode_value,
    load_trace,
    run,
    state_at,
    state_digest,
    trace_from_lines,
    trace_to_lines,
    write_trace,
    UNDEF,
)
from taserial.fuzz import FuzzParams, random_config
from taserial.wrapper import ACTIVE, WAIT_LOCKS
from taserial.workloads import (
    count_events,
    counter_config,
    full_victim_config,
    last_undo_step,
    opposed_lock_config,
)


def loc(f, *args):
    return Location(f, tuple(args))


def test_solo_skip_machine_commits_immediately():
    prog = parse_program("machine a terminated: true rule: skip")
    trace = run(RunConfig(machines=[prog], seed=0, max_steps=10))
    assert trace.status == "done"
    assert trace.committed == ["a"]
    assert count_events(trace, "commit") == 1


def test_counter_workload_sums_increments():
    trace = run(counter_config(n_machines=3, steps=2, seed=1))
    assert trace.status == "done"
    assert trace.final_values[loc("total")] == 6
    assert sorted(trace.committed) == ["m0", "m1", "m2"]


def test_budget_exhaustion_reported():
    trace = run(counter_config(seed=1, max_steps=2))
    assert trace.status == "budget"
    assert trace.committed == []


def test_registration_schedule_delays_entry():
    config = counter_config(n_machines=2, steps=1, seed=0,
                            registration={"m1": 6})
    trace = run(config)
    regs = {ev["machine"]: rec.index for rec in trace.steps
            for ev in rec.events if ev["kind"] == "register"}
    assert regs["m0"] == 0 and regs["m1"] == 6
    assert trace.status == "done"


def test_duplicate_machine_names_rejected():
    prog = parse_program("machine a terminated: true rule: skip")
    with pytest.raises(ConfigError):
        RunConfig(machines=[prog, prog])


def test_conflicting_inits_rejected():
    a = parse_program("machine a shared x init x() := 1 terminated: true rule: skip")
    b = parse_program("machine b shared x init x() := 2 terminated: true rule: skip")
    with pytest.raises(ConfigError):
        RunConfig(machines=[a, b]).initial_state()


def test_closed_system_warning():
    a = parse_program("machine a monitored ghost terminated: true rule: skip")
    b = parse_program("machine b terminated: true rule: skip")
    config = RunConfig(machines=[a, b])
    warnings = config.closed_system_warnings()
    assert any("ghost" in w for w in warnings)


def test_deadlock_workload_victimizes_and_completes():
    trace = run(opposed_lock_config(seed=0))
    assert trace.status == "done"
    assert count_events(trace, "victimize") >= 1
    assert sorted(trace.committed) == ["left", "right"]


def test_full_victim_restores_pre_registration_state():
    trace = run(full_victim_config(seed=0))
    last = last_undo_step(trace, "alpha")
    assert last is not None
    after = state_at(trace, last + 1)
    assert after.get(loc("acct_a")) == 5
    assert after.get(loc("pc_alpha")) == 0
    assert trace.status == "done"


def test_state_at_folds_deltas():
    trace = run(counter_config(seed=3))
    assert state_at(trace, 0).values == trace.initial_values
    assert state_at(trace, len(trace.steps)).values == trace.final_values


def test_rerun_is_byte_identical():
    for seed in (0, 5, 9):
        config = random_config(seed)
        a = trace_to_lines(run(config))
        b = trace_to_lines(run(random_config(seed)))
        assert a == b


def test_trace_round_trip(tmp_path):
    trace = run(opposed_lock_config(seed=2))
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    again = load_trace(str(path))
    assert trace_to_lines(again) == trace_to_lines(trace)
    assert again.committed == trace.committed
    assert again.final_values == trace.final_values


def test_truncated_trace_is_malformed():
    lines = trace_to_lines(run(counter_config(seed=0)))
    with pytest.raises(MalformedTrace):
        trace_from_lines(lines[:-1])
    with pytest.raises(MalformedTrace):
        trace_from_lines(lines[1:])
    with pytest.raises(MalformedTrace):
        trace_from_lines(["not json"])


def test_value_encoding_keeps_types():
    for v in (0, 1, -3, TRUE, FALSE, "sym", UNDEF):
        w = decode_value(encode_value(v))
        assert type(w) is type(v) and w == v
    assert encode_value(TRUE) == ["b", True] and encode_value(1) == ["i", 1]
    for v in (True, False, 1.0, None):
        with pytest.raises(TypeError):
            encode_value(v)


@pytest.mark.parametrize("payload", [
    ["s", 0], ["i", "0"], ["x", 0], ["i", False], ["b", 1], ["s"], ["u", 0],
    "i0", None, ["i", 0, 0]])
def test_value_decoding_is_exact(payload):
    with pytest.raises(MalformedTrace):
        decode_value(payload)


def test_encoding_keeps_one_and_true_apart():
    pairs = {(loc("a", 1), 5), (loc("a", TRUE), 6), (loc("x"), TRUE)}
    lines = engine.encode_pairs(pairs)
    assert lines == [[["a", [["b", True]]], ["i", 6]],
                     [["a", [["i", 1]]], ["i", 5]],
                     [["x", []], ["b", True]]]
    assert set(engine.decode_pairs(lines)) == pairs


def test_interleave_mode_runs_and_serializes():
    config = random_config(4)
    config.run_mode = "interleave"
    config.max_steps = 1000
    trace = run(config)
    assert trace.status == "done"
    assert check_serializable(trace).ok


# x steps until y's flag is set; y sets it once.  Run serially, x after y
# terminates at once, and x before y never terminates.
FLAG_READER = """\
machine x
shared flag a
init a() := 0
init flag() := 0
terminated: flag() = 1
rule: a() := a() + 1
"""
FLAG_WRITER = """\
machine y
shared flag a
init flag() := 0
init a() := 0
init pc_y() := 0
terminated: pc_y() = 1
rule: par { pc_y() := pc_y() + 1 ; flag() := 1 }
"""


@pytest.mark.parametrize("run_mode", ["sync", "interleave"])
@pytest.mark.parametrize("wait_mode", ["retry", "suspend"])
def test_termination_test_of_a_shared_flag_serializes(wait_mode, run_mode):
    """A termination test that reads a shared location holds its read lock,
    so y cannot set the flag between x's steps and x's test: every run that
    completes is serializable (x holding the lock and never terminating
    exhausts the budget instead)."""
    programs = [parse_program(FLAG_READER), parse_program(FLAG_WRITER)]
    done = 0
    for seed in range(20):
        config = RunConfig(machines=programs, seed=seed, wait_mode=wait_mode,
                           run_mode=run_mode)
        trace = trace_from_lines(trace_to_lines(run(config)))
        if trace.status == "done":
            done += 1
            assert check_serializable(trace).ok, seed
    assert done


def test_sync_and_interleave_share_choice_streams():
    # same machine observes the same choose witnesses in both modes because
    # the material depends on its own proper-step count, not global time
    config = counter_config(seed=6)
    sync = run(config)
    config2 = counter_config(seed=6)
    config2.run_mode = "interleave"
    config2.max_steps = 600
    inter = run(config2)
    assert inter.status == "done"
    assert sync.final_values[loc("total")] == inter.final_values[loc("total")]


# -- incremental state digest ------------------------------------------------


def _assert_hashes_match_states(trace):
    """Every step's recorded hash is the reference digest of the state after
    it, rebuilt from the initial state as `state_at` does."""
    state = state_at(trace, 0)
    for i, rec in enumerate(trace.steps):
        state = state.with_updates(rec.delta())
        assert rec.state_hash == state_digest(state), f"step {i}"
    assert state == state_at(trace, len(trace.steps))
    assert state.values == trace.final_values


@pytest.mark.parametrize("seed", range(40))
def test_step_hashes_equal_reference_digest_3_machines(seed):
    _assert_hashes_match_states(run(random_config(seed)))


@pytest.mark.parametrize("seed", range(2))
def test_step_hashes_equal_reference_digest_12_machines(seed):
    params = FuzzParams(n_machines=12, n_shared=16, max_steps_per_machine=8,
                        domain_size=8, step_budget=600)
    _assert_hashes_match_states(run(random_config(seed, params)))


def _follow(initial, deltas):
    """Apply hand-built deltas to a state and to the incremental digest, and
    compare the two after each."""
    state = State(initial, (0, 1))
    digest = engine._StateDigest(state.values)
    assert digest.hexdigest() == state_digest(state)
    for delta in deltas:
        delta = frozenset(delta)
        state = state.with_updates(delta)
        digest.update(delta)
        assert digest.hexdigest() == state_digest(state), sorted(delta, key=repr)
    return state


def test_digest_follows_undef_then_rewrite():
    x, y = loc("x"), loc("y")
    state = _follow({x: 1, y: 2}, [
        {(x, UNDEF)},
        {(x, UNDEF), (y, 3)},       # undef of an absent location
        {(x, 4)},
        {(x, UNDEF), (y, UNDEF)},   # empty state
        {(y, 5)},
    ])
    assert state.values == {y: 5}


def test_digest_follows_int_bool_changes():
    x = loc("x")
    _follow({x: 1}, [{(x, TRUE)}, {(x, 1)}, {(x, FALSE)}, {(x, 0)},
                     {(x, "s")}, {(x, TRUE)}])


def test_digest_keeps_int_and_bool_locations_apart():
    f_true, f_one = loc("f", TRUE), loc("f", 1)
    assert f_true != f_one
    state = _follow({f_true: 5, loc("g"): 0}, [
        {(f_one, 7)},
        {(f_one, 8), (loc("a"), 1)},
        {(f_one, UNDEF)},
        {(f_one, 9)},
        {(f_true, 10)},
    ])
    assert state.values == {f_true: 10, f_one: 9, loc("g"): 0, loc("a"): 1}


def test_engine_no_longer_digests_whole_states(monkeypatch):
    def forbidden(state):
        raise AssertionError("run called state_digest")

    monkeypatch.setattr(engine, "state_digest", forbidden)
    assert run(counter_config(3, 2)).status == "done"


# -- shared deadlock search and lazy streams -----------------------------------


def test_one_deadlock_search_per_controller_step(monkeypatch):
    calls = []
    original = controller.deadlocked

    def counting(cs):
        calls.append(1)
        return original(cs)

    monkeypatch.setattr(controller, "deadlocked", counting)
    trace = run(opposed_lock_config(seed=3))
    assert count_events(trace, "victimize") >= 1
    assert len(calls) == len(trace.steps)


FUZZ_12 = FuzzParams(n_machines=12, n_shared=16, max_steps_per_machine=8,
                    domain_size=8, step_budget=2000)
FUZZ_24 = FuzzParams(n_machines=24, n_shared=24, domain_size=16,
                     step_budget=2000)


@pytest.mark.parametrize("run_mode,every_step", [("sync", False),
                                                 ("interleave", False),
                                                 ("interleave", True)])
def test_kept_wait_graph_matches_reference_on_fuzz_corpora(monkeypatch,
                                                           run_mode,
                                                           every_step):
    """The engine's incremental deadlock search agrees with a fresh search
    of `wait_edges` at each search, and with `every_step` also after every
    step: in interleave mode the controller does not act every step, so its
    own searches see the changes of several steps at once.  At every lock
    handler step, each waiting machine's kept out-set is its blockers, the
    holders of locks that conflict with its pair.
    The seeds alternate the two wait modes."""
    searches = []
    waiting = []
    original = controller.deadlocked
    real_handler = controller.lock_handler_step

    def compared(cs):
        dead = original(cs)
        assert dead == controller._cycle_members(controller.wait_edges(cs))
        searches.append(bool(dead))
        return dead

    def handler(cs, rng, policy, wait_mode, waits_for):
        blocked = {}
        for m, r in cs.requests.items():
            if r.status != controller.GRANTED:
                waiting.append(wait_mode)
                blocked[m] = cs.locks.conflicts(m, r.pair)
        assert waits_for == {m: b for m, b in blocked.items() if b}
        return real_handler(cs, rng, policy, wait_mode, waits_for)

    def checked(cs):
        compared(cs)
        real_invariants(cs)

    real_invariants = controller.ControllerState.check_invariants
    monkeypatch.setattr(controller, "deadlocked", compared)
    monkeypatch.setattr(controller, "lock_handler_step", handler)
    if every_step:
        monkeypatch.setattr(controller.ControllerState, "check_invariants",
                            checked)
    corpora = [(None, range(200)), (FUZZ_12, range(4)), (FUZZ_24, range(3))]
    for params, seeds in corpora:
        for seed in seeds:
            run(replace(random_config(seed, params), run_mode=run_mode))
    assert sum(searches) > 100
    assert waiting.count("retry") > 1000 and waiting.count("suspend") > 1000


def test_controller_streams_seeded_only_when_drawn(monkeypatch):
    labels = []
    original = engine.make_rng

    def recording(*parts):
        labels.append(parts[1])
        return original(*parts)

    monkeypatch.setattr(engine, "make_rng", recording)
    run(counter_config(3, 2, lock_policy="fifo", commit_policy="lowest-id"))
    assert labels == []
    trace = run(counter_config(3, 2))
    assert labels
    draws = count_events(trace, "lock_grant") + count_events(trace, "lock_refuse")
    assert labels.count("lock") == draws
    assert labels.count("commit") == count_events(trace, "commit")


# -- reused analyses and the controller state a wrapper step reads -----------


def _typed(read_log):
    return sorted((repr(l), v, type(v).__name__) for l, v in read_log.items())


def _run_with_shortcuts_checked(monkeypatch, configs):
    """Run and check each config with every reused analysis, of any ordinal,
    compared to a fresh one; the traces must match those of the unpatched
    engine byte for byte.  `older` counts reuses of an ordinal below one
    analysed before, which only re-execution after an undo makes."""
    from taserial import wrapper

    counts = {ACTIVE: 0, WAIT_LOCKS: 0, "older": 0}
    real_analysis = wrapper._step_analysis

    def analysis(program, tcb, state, seed, ordinal):
        last = tcb.analyses.get(ordinal)
        rw, read_log = real_analysis(program, tcb, state, seed, ordinal)
        if last is not None and rw is last[2]:
            counts[tcb.ctl_state] += 1
            counts["older"] += max(tcb.analyses) > ordinal
            material = wrapper.choice_material(seed, tcb.machine_id, ordinal)
            fresh_rw, fresh_log = wrapper.analyse(program, state, material)
            assert rw == fresh_rw
            assert _typed(read_log) == _typed(fresh_log)
        return rw, read_log

    configs = list(configs)
    monkeypatch.setattr(wrapper, "_step_analysis", analysis)
    checked = []
    for config in configs:
        trace = run(config)
        if trace.status == "done":
            assert check_serializable(trace).ok
        checked.append(trace_to_lines(trace))
    monkeypatch.undo()
    assert checked == [trace_to_lines(run(c)) for c in configs]
    return counts


@pytest.mark.parametrize("run_mode", ["sync", "interleave"])
def test_shortcuts_match_full_steps_default_corpus(monkeypatch, run_mode):
    configs = (replace(random_config(s), run_mode=run_mode) for s in range(200))
    counts = _run_with_shortcuts_checked(monkeypatch, configs)
    assert counts[ACTIVE] and counts[WAIT_LOCKS]  # retry and grant reuse
    assert counts["older"]  # re-execution after undo


@pytest.mark.parametrize("run_mode", ["sync", "interleave"])
def test_shortcuts_match_full_steps_12_machines(monkeypatch, run_mode):
    params = FuzzParams(n_machines=12, n_shared=16, max_steps_per_machine=8,
                        domain_size=8, step_budget=2000)
    # seeds 0 and 1: retry and suspend
    configs = (replace(random_config(s, params), run_mode=run_mode)
               for s in range(2))
    counts = _run_with_shortcuts_checked(monkeypatch, configs)
    assert counts[ACTIVE] and counts[WAIT_LOCKS]
    assert counts["older"]  # re-execution after undo


def _controller_snapshot(cs):
    """Copies of what a wrapper step may read of the controller state."""
    return (dict(cs.requests), set(cs.victims), set(cs.commit_requests),
            {m: [(e.saved, e.locks, e.origin_step, e.ordinal) for e in h]
             for m, h in cs.histories.items()},
            {l: set(ms) for l, ms in cs.locks.r_locked.items()},
            dict(cs.locks.w_locked))


CONTROLLER_COMPONENTS = ("lock_handler_step", "commit_step",
                         "deadlock_handler_step", "recovery_step")


@pytest.mark.parametrize("run_mode", ["sync", "interleave"])
def test_wrapper_steps_leave_the_controller_state_unchanged(monkeypatch,
                                                             run_mode):
    """Every agent of the compute phase, each wrapper step and each of the
    four controller components, returns effects and changes nothing of the
    controller state: `apply_effect` alone does."""
    idle = []
    effects = {name: 0 for name in CONTROLLER_COMPONENTS}
    real_step = engine.wrapper_step

    def step(program, tcb, state, cs, *args):
        before = _controller_snapshot(cs)
        out = real_step(program, tcb, state, cs, *args)
        assert _controller_snapshot(cs) == before
        idle.append(out[0] is engine.IDLE_STEP)
        return out

    def component(name):
        real = getattr(controller, name)

        def computed(cs, *args):
            before = _controller_snapshot(cs)
            out = real(cs, *args)
            assert _controller_snapshot(cs) == before, name
            assert type(out) is list, name
            effects[name] += len(out)
            return out
        return computed

    monkeypatch.setattr(engine, "wrapper_step", step)
    for name in CONTROLLER_COMPONENTS:
        monkeypatch.setattr(controller, name, component(name))
    for s in range(40):
        run(replace(random_config(s), run_mode=run_mode))
    assert any(idle) and not all(idle)
    assert all(effects.values()), effects


def _with_machine_entry(lines, payload):
    """The trace lines with m0's first idle record replaced, and the number
    of that line (one past its step index)."""
    at = next(i for i, line in enumerate(lines)
              if '"m0":' + engine._IDLE_JSON in line)
    record = json.loads(lines[at])
    record["machines"]["m0"] = json.loads(payload)
    return lines[:at] + [json.dumps(record)] + lines[at + 1:], at


def test_idle_record_decodes_to_the_shared_step():
    lines = trace_to_lines(run(opposed_lock_config(seed=3)))
    assert any('"left":{"ctl":null,"proper":false,"reads":[],"updates":[]}'
               in line for line in lines)
    trace = trace_from_lines(lines)
    idle = [ms for rec in trace.steps for ms in rec.per_machine.values()
            if ms == engine.IDLE_STEP]
    assert idle and all(ms is engine.IDLE_STEP for ms in idle)
    assert trace_to_lines(trace) == lines


# Records close to the idle one, in place of m0's idle record in step 1
# (m0 waits for locks), each with what the decoder makes of it: the entry
# the decoded trace re-encodes to, or the MalformedTrace message.
NEAR_IDLE = [
    ('{"ctl":null,"proper":0,"reads":[],"updates":[]}',
     "step record 1: 'm0' has proper 0"),
    ('{"ctl":null,"proper":0.0,"reads":[],"updates":[]}',
     "step record 1: 'm0' has proper 0.0"),
    ('{"ctl":null,"proper":null,"reads":[],"updates":[]}',
     "step record 1: 'm0' has proper None"),
    ('{"ctl":null,"proper":true,"reads":[],"updates":[]}',
     '{"ctl":null,"proper":true,"reads":[],"updates":[]}'),
    ('{"ctl":[],"proper":false,"reads":[],"updates":[]}',
     "step record 1: 'm0' has ctl [] in control state 'wait-locks'"),
    ('{"ctl":false,"proper":false,"reads":[],"updates":[]}',
     "step record 1: 'm0' has ctl False in control state 'wait-locks'"),
    ('{"ctl":null,"proper":false,"reads":{},"updates":[]}',
     '{"ctl":null,"proper":false,"reads":[],"updates":[]}'),
    ('{"ctl":null,"proper":false,"reads":[],"updates":[],"x":1}',
     "step record 1: the record of 'm0' has the keys ['ctl', 'proper', "
     "'reads', 'updates', 'x'], not ['ctl', 'proper', 'reads', 'updates']"),
    ('{"ctl":null,"reads":[],"updates":[]}',
     "malformed trace record: KeyError('proper')"),
    ('{"ctl":null,"proper":false,"reads":[],"updates":null}',
     "malformed trace record: TypeError(\"'NoneType' object is not "
     "iterable\")"),
    ("[]", "malformed trace record: TypeError('list indices must be "
           "integers or slices, not str')"),
]


@pytest.mark.parametrize("payload,expected", NEAR_IDLE)
def test_near_idle_records_decode_as_before(payload, expected):
    lines, at = _with_machine_entry(
        trace_to_lines(run(counter_config(2, 1))), payload)
    assert at == 2
    try:
        trace = trace_from_lines(lines)
    except MalformedTrace as e:
        assert str(e) == expected
        return
    entry = trace.steps[at - 1].per_machine["m0"]
    assert entry is not engine.IDLE_STEP
    again = json.loads(trace_to_lines(trace)[at])["machines"]["m0"]
    assert json.dumps(again, sort_keys=True, separators=(",", ":")) == expected
    assert type(entry.proper) is type(json.loads(payload)["proper"])


def test_step_record_is_canonical_json():
    for config in (opposed_lock_config(seed=3), random_config(5)):
        for line in trace_to_lines(run(config)):
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":"))


@pytest.mark.parametrize("registration", [[1], {"m0": "x"}, {"m0": -1},
                                          {"zz": 1}, {"m0": True}])
def test_bad_registration_rejected(registration):
    with pytest.raises(ConfigError, match="registration"):
        counter_config(2, 1, registration=registration)


# -- blocks wider than the recursion limit ------------------------------------


def _wide_program_text(kind, n):
    """One step of a block of n assignments; in a `seq` each item adds one
    to its predecessor's value, so every x_i ends as i either way."""
    items = ["x0() := 0"] + [
        f"x{i}() := {i}" if kind == "par" else f"x{i}() := (x{i - 1}() + 1)"
        for i in range(1, n)]
    return ("machine wide\nterminated: x0() = 0\n"
            f"rule: {kind} {{ {' ; '.join(items)} }}\n")


@pytest.mark.parametrize("kind", ["par", "seq"])
def test_flat_block_of_5000_items_parses_prints_runs_and_round_trips(kind):
    n = 5000
    text = _wide_program_text(kind, n)
    prog = parse_program(text)
    assert len(prog.main_rule.items) == n
    assert print_program(prog) == text
    trace = run(RunConfig(machines=[prog], seed=0, max_steps=10))
    assert trace.status == "done"
    assert trace.final_values[loc(f"x{n - 1}")] == n - 1
    assert check_serializable(trace).ok
    lines = trace_to_lines(trace)
    assert trace_to_lines(trace_from_lines(lines)) == lines


# -- suspend mode: victims' requests are not answered ---------------------------

# Runs that ended in `EmptyHistory` while the lock handler still granted a
# victim's request in the step its wrapper withdrew it.
SUSPEND_VICTIM_SEEDS = [(FUZZ_24, 83), (FUZZ_12, 683)]


@pytest.mark.parametrize("params,seed", SUSPEND_VICTIM_SEEDS)
def test_suspend_victim_withdrawal_runs_and_checks(params, seed):
    config = random_config(seed, params)
    assert config.wait_mode == "suspend"
    trace = run(config)
    assert trace.status == "done"
    assert check_serializable(trace).ok
    lines = trace_to_lines(trace)
    assert trace_to_lines(trace_from_lines(lines)) == lines


def _assert_held_locks_covered(cs):
    """Each registered machine's held locks, kind by kind, are covered by
    its history entries' pairs plus its granted pair (read in the next
    step)."""
    for m in cs.histories:
        pairs = [e.locks for e in cs.histories[m]]
        r = cs.requests.get(m)
        if r is not None and r.status == controller.GRANTED:
            pairs.append(r.pair)
        held_r = {l for l, ms in cs.locks.r_locked.items() if m in ms}
        held_w = {l for l, w in cs.locks.w_locked.items() if w == m}
        assert held_r <= set().union(*[p.r_loc for p in pairs]), m
        assert held_w <= set().union(*[p.w_loc for p in pairs]), m


@pytest.mark.parametrize("seeds", [[(None, s) for s in range(200)],
                                   SUSPEND_VICTIM_SEEDS],
                         ids=["default-0-199", "suspend-victims"])
def test_held_locks_are_covered_by_history_every_step(monkeypatch, seeds):
    real = controller.ControllerState.check_invariants

    def check_invariants(cs):
        real(cs)
        _assert_held_locks_covered(cs)

    monkeypatch.setattr(controller.ControllerState, "check_invariants",
                        check_invariants)
    for params, seed in seeds:
        run(random_config(seed, params))


# -- trace events ----------------------------------------------------------------


def pair(r=(), w=()):
    return controller.LockPair(frozenset(loc(x) for x in r),
                               frozenset(loc(x) for x in w))


ENTRY = controller.HistoryEntry(saved=((loc("s"), 3), (loc("p"), 0)),
                                locks=pair(r=("y",), w=("x", "w")),
                                origin_step=5, ordinal=1)

EFFECT_EVENTS = [
    (("register", "a"), {"kind": "register", "machine": "a"}),
    (("lock_request", "a", pair(r=("x",))),
     {"kind": "lock_request", "machine": "a"}),
    (("grant", "a", pair(r=("y", "x"), w=("z",))),
     {"kind": "lock_grant", "machine": "a",
      "locks": {"r": [loc("x"), loc("y")], "w": [loc("z")]}}),
    (("refuse", "a", pair(w=("x",))),
     {"kind": "lock_refuse", "machine": "a",
      "locks": {"r": [], "w": [loc("x")]}}),
    (("withdraw_request", "a"), None),
    (("commit_request", "a"), None),
    (("append_history", "a", ENTRY), None),
    (("commit", "a"), {"kind": "commit", "machine": "a"}),
    (("victimize", "a"), {"kind": "victimize", "machine": "a"}),
    (("unvictimize", "a"), {"kind": "recovered", "machine": "a"}),
    (("undo", "a", ENTRY),
     {"kind": "undo", "machine": "a", "origin_step": 5,
      "locks": {"r": [loc("y")], "w": [loc("w"), loc("x")]},
      "restored": [(loc("s"), 3), (loc("p"), 0)]}),
]


def test_every_effect_kind_maps_to_its_event_or_none():
    for effect, event in EFFECT_EVENTS:
        assert effect_event(effect, {}) == event, effect[0]
    # The table names every kind `apply_effect` applies, and no other; the
    # codec's table lists exactly those with an event.
    applied = re.findall(r'kind == "(\w+)"',
                         inspect.getsource(controller.apply_effect))
    assert sorted(applied) == sorted(e[0] for e, _ in EFFECT_EVENTS)
    assert sorted(engine.EVENTS) == sorted(
        e[0] for e, event in EFFECT_EVENTS if event is not None)


def test_lock_payload_is_built_once_per_pair_and_run():
    payloads = {}
    first = effect_event(("grant", "a", pair(r=("y", "x"))), payloads)["locks"]
    again = effect_event(("refuse", "b", pair(r=("x", "y"))),
                         payloads)["locks"]
    assert again is first
    other_run = effect_event(("grant", "a", pair(r=("x", "y"))), {})
    assert other_run["locks"] == first and other_run["locks"] is not first


def test_lock_payload_writes_constants_as_json():
    pair_ = controller.LockPair(
        frozenset({loc("a", TRUE), loc("a", 1)}),
        frozenset({loc("b", FALSE, "s"), loc("c", UNDEF)}))
    payload = effect_event(("grant", "a", pair_), {})["locks"]
    assert json.dumps(payload, separators=(",", ":")) == (
        '{"r":[["a",[true]],["a",[1]]],'
        '"w":[["b",[false,"s"]],["c",[null]]]}')


@pytest.mark.parametrize("name,value", [(name, value)
                                        for name, values in CHOICES.items()
                                        for value in values])
def test_config_payload_round_trips(name, value):
    config = counter_config(registration={"m1": 2}, **{name: value})
    payload = config.to_payload()
    assert set(payload) == RECORD_KEYS["config"]
    assert RunConfig.from_payload(payload) == config
