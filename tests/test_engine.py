import hashlib
import inspect
import json
import re
from dataclasses import replace

import pytest

from taserial import controller, engine
from taserial.asm import FALSE, TRUE, Location
from taserial.checker import check_serializable
from taserial.dsl import parse_program, print_program
from taserial.engine import (
    CHOICES,
    RECORD_KEYS,
    ConfigError,
    MalformedTrace,
    RunConfig,
    effect_event,
    load_trace,
    plain_value,
    run,
    state_at,
    trace_from_lines,
    trace_to_lines,
    write_trace,
    UNDEF,
)
from taserial.fuzz import FuzzParams, random_config
from taserial.seeds import derive_bytes
from taserial.wrapper import (
    ACTIVE,
    DONE,
    IDLE_STEP,
    UNREGISTERED,
    WAIT_LOCKS,
    MachineCtl,
    blocked,
)
from taserial.workloads import (
    count_events,
    counter_config,
    full_victim_config,
    opposed_lock_config,
)

from reference import (
    cycle_members,
    last_undo_step,
    simulation_digest,
    wait_edges,
)
from trace_reference import encode_pairs
from test_wrapper import CHOOSER_IN_RULE


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


FOLD_PARAMS = {"fuzz3": FuzzParams(),
               "fuzz12": FuzzParams(n_machines=12, n_shared=16,
                                    max_steps_per_machine=8, domain_size=8,
                                    step_budget=600)}


@pytest.mark.parametrize("kind,seed", [("counter", 3)]
                         + [("fuzz3", s) for s in range(40)]
                         + [("fuzz12", s) for s in range(2)])
def test_state_at_folds_deltas(kind, seed):
    """The initial state, with every step's delta applied in turn, folds to
    `state_at` after the last step and to the final values."""
    config = (counter_config(seed=seed) if kind == "counter"
              else random_config(seed, FOLD_PARAMS[kind]))
    trace = run(config)
    state = state_at(trace, 0)
    assert state.values == trace.initial_values
    for rec in trace.steps:
        state = state.with_updates(rec.delta())
    assert state == state_at(trace, len(trace.steps))
    assert state.values == trace.final_values


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


def _shared_init(value) -> RunConfig:
    """A config whose header gives g() the value `value`, plain JSON as a
    trace writes it, decoded as `check` decodes a header's config."""
    payload = counter_config().to_payload()
    payload["shared_inits"] = [["g()", value]]
    return RunConfig.from_payload(payload)


def test_value_encoding_keeps_types():
    for v in (0, 1, -3, TRUE, FALSE, "sym", UNDEF):
        (written,) = counter_config(shared_inits=[(loc("g"), v)]
                                    ).to_payload()["shared_inits"]
        assert written == ["g()", plain_value(v)]
        ((_, w),) = _shared_init(written[1]).shared_inits
        assert type(w) is type(v) and w == v
    assert plain_value(TRUE) is True and plain_value(UNDEF) is None
    for v in (True, False, 1.0, None):
        with pytest.raises(TypeError):
            engine._Fragments().pairs([(loc("g"), v)])


@pytest.mark.parametrize("where", ["value", "argument"])
def test_run_rejects_a_python_bool_in_an_init(where):
    program = parse_program("machine m\ninit x(1) := 1\nterminated: true\n"
                            "rule: skip\n")
    program.inits[:] = [(Location("x", (True if where == "argument" else 1,)),
                         True if where == "value" else 1)]
    with pytest.raises(TypeError, match="not a machine value: True"):
        run(RunConfig([program]))


@pytest.mark.parametrize("payload", [
    ["s", 0], ["i", "0"], ["x", 0], ["i", False], ["b", 1], ["s"], ["u", 0],
    "i0", None, ["i", 0, 0]])
def test_value_decoding_is_exact(payload):
    """A value is plain JSON: a tagged one, as versions 1 to 3 wrote it, is
    malformed, a string is the symbol it spells and null is undef."""
    if type(payload) is list:
        with pytest.raises(MalformedTrace, match=re.escape(
                f"malformed value {payload!r}")):
            _shared_init(payload)
    else:
        ((_, value),) = _shared_init(payload).shared_inits
        expected = UNDEF if payload is None else payload
        assert type(value) is type(expected) and value == expected


def test_encoding_keeps_one_and_true_apart():
    pairs = {(loc("a", 1), 5), (loc("a", TRUE), 6), (loc("x"), TRUE)}
    lines = encode_pairs(pairs)
    assert lines == [["a(true)", 6], ["a(1)", 5], ["x()", True]]
    assert set(engine._Shared().pairs(lines, "pairs")) == pairs
    # The shared inits write the same notation, in the order given.
    config = counter_config(shared_inits=sorted(pairs, key=repr))
    payload = config.to_payload()
    assert payload["shared_inits"] == [["a(1)", 5], ["a(true)", 6],
                                       ["x()", True]]
    assert RunConfig.from_payload(payload).shared_inits == config.shared_inits


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


CHOOSER = """machine {name}
shared g
init pc_{name}() := 0
init g() := 0
terminated: pc_{name}() = 3
rule: par {{ pc_{name}() := pc_{name}() + 1 ; choose c with c < 4 do g() := c }}
"""


def test_a_second_config_sharing_a_program_leaves_the_first_alone():
    # Each program numbers its choose nodes once, from 0; the config only
    # offsets them.  Building another config from one of the programs must
    # change neither the first config's run nor what `check` makes of it.
    for seed in range(8):
        a, b = (parse_program(CHOOSER.format(name=n)) for n in "ab")
        config = RunConfig([a, b], seed=seed)
        before = trace_to_lines(run(config))
        RunConfig([b], seed=seed)
        after = trace_to_lines(run(config))
        assert after == before, seed
        assert check_serializable(trace_from_lines(after)).ok, seed


def test_choice_bases_count_the_choose_nodes_before_each_machine():
    # Given out of order; c's only choose node sits in a named rule.
    a, b, d = (parse_program(CHOOSER.format(name=n)) for n in "abd")
    c = parse_program(CHOOSER_IN_RULE.format(name="c"))
    plain = parse_program("machine e init pc_e() := 0 terminated: pc_e() = 1 "
                          "rule: pc_e() := 1")
    given = [d, plain, b, c, a]
    config = RunConfig(given)
    assert [p.choose_nodes for p in (a, b, c, d, plain)] == [1, 1, 1, 1, 0]
    assert config.choice_bases() == {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}
    assert config.machine_ids == ["a", "b", "c", "d", "e"]
    for program in config.machines:
        assert any(program is p for p in given)  # the caller's own


def test_a_solo_run_keeps_the_offsets_of_the_full_config():
    a, b = (parse_program(CHOOSER.format(name=n)) for n in "ab")
    other_a = parse_program(CHOOSER_IN_RULE.format(name="a"))
    differ = 0
    for seed in range(8):
        solo = trace_to_lines(run(RunConfig([a, b], seed=seed), only=["b"]))
        other = run(RunConfig([other_a, b], seed=seed), only=["b"])
        assert trace_to_lines(other)[1:] == solo[1:]  # the header differs
        alone = trace_to_lines(run(RunConfig([b], seed=seed)))
        differ += alone[1:] != solo[1:]
    assert differ


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


def test_state_updated_in_place_is_the_runs_own():
    """The engine updates its state in place.  That state is the run's own:
    a second run of the same config writes the same trace, the config's
    initial state is unchanged, and the trace keeps the initial and final
    values apart."""
    config = random_config(1, FUZZ_12)
    initial = config.initial_state()
    trace = run(config)
    assert config.initial_state() == initial
    assert trace.initial_values == initial.values
    assert trace.final_values != trace.initial_values
    assert trace_to_lines(run(config)) == trace_to_lines(trace)
    assert config.initial_state() == initial
    assert state_at(trace, len(trace.steps)).values == trace.final_values


def test_engine_no_longer_digests_whole_states(monkeypatch):
    def forbidden(*args):
        raise AssertionError("run hashed")

    monkeypatch.setattr(engine, "state_digest", forbidden)
    monkeypatch.setattr(engine, "_text_digest", forbidden)
    assert run(counter_config(3, 2)).status == "done"
    assert run(random_config(0, FUZZ_12)).steps


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
    holders of locks that conflict with its pair, and `cs.pending` holds
    the pending records in request order.
    Every step, the engine steps exactly those acting machines that were
    not `blocked` after the step before (or have just registered): its kept
    blocked set is `wrapper.blocked` of every live machine, all of which act
    in sync mode.  The seeds alternate the two wait modes."""
    searches = []
    waiting = []
    original = controller.deadlocked
    real_handler = controller.lock_handler_step
    real_acting, real_step = engine._acting, engine.wrapper_step
    tcbs, step = {}, {}

    def compared(cs):
        dead = original(cs)
        assert dead == cycle_members(wait_edges(cs))
        searches.append(bool(dead))
        return dead

    def handler(cs, draw, policy, wait_mode, waits_for):
        blocked = {}
        for m, r in cs.requests.items():
            if r.status != controller.GRANTED:
                waiting.append(wait_mode)
                blocked[m] = cs.locks.conflicts(m, r.pair)
        assert waits_for == {m: b for m, b in blocked.items() if b}
        assert list(cs.pending.items()) == [
            (m, r.pair) for m, r in cs.requests.items()
            if r.status == controller.PENDING]
        return real_handler(cs, draw, policy, wait_mode, waits_for)

    def new_tcb(machine_id, choice_base):
        tcb = tcbs[machine_id] = MachineCtl(machine_id=machine_id,
                                            choice_base=choice_base)
        return tcb

    def acting(run_mode, live, seed, index):
        machines, controller_acts = real_acting(run_mode, live, seed, index)
        joined = set(live) - step["live"]
        step["expected"] = set(machines) & (step["ready"] | joined)
        step["stepped"] = set()
        return machines, controller_acts

    def stepped(program, tcb, *args):
        step["stepped"].add(tcb.machine_id)
        return real_step(program, tcb, *args)

    def checked(cs):
        assert step["stepped"] == step["expected"]
        step["live"] = {m for m, tcb in tcbs.items()
                        if tcb.ctl_state not in (UNREGISTERED, DONE)}
        step["ready"] = {m for m in step["live"]
                         if not blocked(tcbs[m], cs, step["wait_mode"])}
        if every_step:
            compared(cs)
        real_invariants(cs)

    real_invariants = controller.ControllerState.check_invariants
    monkeypatch.setattr(controller, "deadlocked", compared)
    monkeypatch.setattr(controller, "lock_handler_step", handler)
    monkeypatch.setattr(controller.ControllerState, "check_invariants",
                        checked)
    monkeypatch.setattr(engine, "MachineCtl", new_tcb)
    monkeypatch.setattr(engine, "_acting", acting)
    monkeypatch.setattr(engine, "wrapper_step", stepped)
    corpora = [(None, range(200)), (FUZZ_12, range(4)), (FUZZ_24, range(3))]
    modes = set()
    for params, seeds in corpora:
        for seed in seeds:
            config = replace(random_config(seed, params), run_mode=run_mode)
            tcbs.clear()
            step.update(live=set(), ready=set(), wait_mode=config.wait_mode)
            run(config)
            modes.add(config.wait_mode)
    assert sum(searches) > 100 and modes == {"retry", "suspend"}
    assert waiting.count("retry") > 1000 and waiting.count("suspend") > 1000


def _recording_draws(monkeypatch):
    """Patch the engine to record each draw as (kind, index, n) and the
    kind of each seeded generator."""
    draws, seeded = [], []
    real_draw, real_rng = engine.draw, engine.make_rng

    def draw(seed, kind, index, n):
        draws.append((kind, index, n))
        return real_draw(seed, kind, index, n)

    def make_rng(*parts):
        seeded.append(parts[1])
        return real_rng(*parts)

    monkeypatch.setattr(engine, "draw", draw)
    monkeypatch.setattr(engine, "make_rng", make_rng)
    return draws, seeded


def test_controller_streams_seeded_only_when_drawn(monkeypatch):
    """A generator is seeded only for a draw among two or more options."""
    draws, seeded = _recording_draws(monkeypatch)
    run(counter_config(3, 2, lock_policy="fifo", commit_policy="lowest-id"))
    assert draws == [] and seeded == []
    trace = run(counter_config(3, 2))
    decisions = (count_events(trace, "lock_grant")
                 + count_events(trace, "lock_refuse"))
    choices = {kind: [n for k, _, n in draws if k == kind]
               for kind in ("lock", "commit")}
    assert len(choices["lock"]) == decisions
    assert len(choices["commit"]) == count_events(trace, "commit")
    for kind, ns in choices.items():
        assert seeded.count(kind) == sum(n >= 2 for n in ns), kind
    assert 0 < seeded.count("lock") < decisions  # one-option draws seed none


def test_a_one_option_draw_seeds_nothing(monkeypatch):
    seeded = []
    monkeypatch.setattr(engine, "make_rng",
                        lambda *parts: seeded.append(parts))
    assert [engine.draw(7, kind, 3, 1)
            for kind in ("interleave", "lock", "commit", "victim",
                         "recover")] == [0] * 5
    assert seeded == []
    monkeypatch.undo()
    assert engine.draw(7, "lock", 3, 5) == engine.make_rng(
        7, "lock", 3).randrange(5)


def _two_updates_per_part(*parts) -> bytes:
    """derive_bytes as first written: one update for each part's repr and
    one for its NUL."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return h.digest()


@pytest.mark.parametrize("parts", [
    (), (0,), (7, "lock", 3), (-1,), (-12345678901234567890, 2 ** 70),
    ("choice", "m0", 0), ("", "\x00", "é"), (1, "a", (2, "b", -3)),
    ((), ("x",), (-1, ("y", 0))), (5, "choice", "m12", 41),
])
def test_derive_bytes_hashes_as_two_updates_per_part(parts):
    assert derive_bytes(*parts) == _two_updates_per_part(*parts)


def test_each_draw_is_made_at_most_once_per_run(monkeypatch):
    """No (kind, index) is drawn twice in a run, so seeding a generator per
    draw, or none for a one-option draw, moves no other draw; every seeded
    generator belongs to a draw of two or more options."""
    draws, seeded = _recording_draws(monkeypatch)
    kinds = set()  # the kinds drawn, with one option or more
    for run_mode in ("sync", "interleave"):
        for params, seeds in [(None, range(100)), (FUZZ_12, range(2))]:
            for seed in seeds:
                del draws[:], seeded[:]
                run(replace(random_config(seed, params), run_mode=run_mode))
                keys = [(kind, index) for kind, index, _ in draws]
                assert len(set(keys)) == len(keys), (run_mode, seed)
                assert len(seeded) == sum(n >= 2 for _, _, n in draws)
                kinds.update(kind for kind, _, _ in draws)
    assert kinds == {"interleave", "lock", "commit", "victim", "recover"}


# -- reused analyses and the controller state a wrapper step reads -----------


def _typed(read_log):
    return sorted((repr(l), v, type(v).__name__) for l, v in read_log.items())


def _run_with_shortcuts_checked(monkeypatch, configs):
    """Run and check each config with every reused decision, of any ordinal,
    compared to a fresh termination test and analysis; the traces must match
    those of the unpatched engine byte for byte.  `older` counts reuses of
    an ordinal below one analysed before, which only re-execution after an
    undo makes."""
    from taserial import wrapper

    counts = {ACTIVE: 0, WAIT_LOCKS: 0, "older": 0}
    real_analysis = wrapper._step_analysis

    def analysis(program, tcb, state, seed, ordinal):
        last = tcb.analyses.get(ordinal)
        done, rw, read_log, needs = real_analysis(program, tcb, state, seed,
                                                  ordinal)
        if last is not None and tcb.analyses[ordinal] is last:
            counts[tcb.ctl_state] += 1
            counts["older"] += max(tcb.analyses) > ordinal
            tested = {}
            assert done is wrapper.terminated(program, state, tested)
            fresh_rw = None
            if done:
                assert rw is None and read_log is None
            else:
                material = wrapper.choice_material(seed, tcb.machine_id,
                                                   ordinal)
                fresh_rw, fresh_log = wrapper.analyse(program, state, material,
                                                      tcb.choice_base)
                assert rw == fresh_rw
                assert _typed(read_log) == _typed(fresh_log)
            assert needs == wrapper._lock_needs(program, fresh_rw, tested)
        return done, rw, read_log, needs

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
    machines = {"skipped": 0, "stepped": 0}
    effects = {name: 0 for name in CONTROLLER_COMPONENTS}
    real_step, real_blocked = engine.wrapper_step, engine.blocked

    def blocked(tcb, cs, wait_mode):
        before = _controller_snapshot(cs)
        out = real_blocked(tcb, cs, wait_mode)
        assert _controller_snapshot(cs) == before
        machines["skipped"] += out
        return out

    def step(program, tcb, state, cs, *args):
        before = _controller_snapshot(cs)
        out = real_step(program, tcb, state, cs, *args)
        assert _controller_snapshot(cs) == before
        machines["stepped"] += 1
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
    monkeypatch.setattr(engine, "blocked", blocked)
    for name in CONTROLLER_COMPONENTS:
        monkeypatch.setattr(controller, name, component(name))
    for s in range(40):
        run(replace(random_config(s), run_mode=run_mode))
    assert all(machines.values()), machines
    assert all(effects.values()), effects


def _without_idle_records(trace):
    return replace(trace, steps=[
        replace(rec, per_machine={m: ms for m, ms in rec.per_machine.items()
                                  if ms is not IDLE_STEP})
        for rec in trace.steps])


@pytest.mark.parametrize("run_mode", ["sync", "interleave"])
def test_skipping_blocked_machines_is_exact(monkeypatch, run_mode):
    """With the engine made to step every acting machine, as it did before
    it skipped blocked ones, the wrapper step of each machine `blocked`
    names is `IDLE_STEP` with no effects, and that of every other machine is
    not; and the run is the skipping engine's run once the idle records are
    dropped.  The seeds alternate the two wait modes."""
    from taserial import wrapper

    counts = {"skipped": 0, "stepped": 0}
    real_step = engine.wrapper_step

    def step(program, tcb, state, cs, seed, index, wait_mode):
        skip = wrapper.blocked(tcb, cs, wait_mode)
        out = real_step(program, tcb, state, cs, seed, index, wait_mode)
        assert (out == (IDLE_STEP, [])) == skip, (tcb, out)
        counts["skipped" if skip else "stepped"] += 1
        return out

    corpora = [(None, range(200)), (FUZZ_12, range(4)), (FUZZ_24, range(3))]
    configs = [replace(random_config(seed, params), run_mode=run_mode)
               for params, seeds in corpora for seed in seeds]
    with monkeypatch.context() as patch:
        patch.setattr(engine, "blocked", lambda tcb, cs, wait_mode: False)
        patch.setattr(engine, "wrapper_step", step)
        stepped_all = [_without_idle_records(run(c)) for c in configs]
    assert [trace_to_lines(t) for t in stepped_all] == [
        trace_to_lines(run(c)) for c in configs]
    assert counts["skipped"] > 1000 and counts["stepped"] > 1000, counts


def _with_machine_entry(lines, payload):
    """The trace lines with a record of m0 put into step 1, in which m0
    waits for locks and so has none."""
    record = json.loads(lines[2])
    assert record["index"] == 1 and "m0" not in record["machines"]
    record["machines"]["m0"] = json.loads(payload)
    return lines[:2] + [json.dumps(record)] + lines[3:]


def _round_trip_configs():
    for seed in range(6):
        yield random_config(seed)
        yield replace(random_config(seed), run_mode="interleave")
    yield random_config(1, FUZZ_12)
    for run_mode in ("sync", "interleave"):
        for wait_mode in ("retry", "suspend"):
            modes = dict(run_mode=run_mode, wait_mode=wait_mode)
            yield counter_config(4, 3, seed=2, registration={"m1": 2}, **modes)
            yield full_victim_config(seed=1, **modes)


@pytest.mark.parametrize("config", list(_round_trip_configs()))
def test_decoded_trace_keeps_the_runs_simulation_and_lines(config):
    """The decoded trace of a run holds all that the run simulated: its
    simulation digest and its lines are the run's, and so is its
    verdict."""
    trace = run(config)
    decoded = trace_from_lines(trace_to_lines(trace))
    assert simulation_digest([decoded]) == simulation_digest([trace])
    assert trace_to_lines(decoded) == trace_to_lines(trace)
    assert check_serializable(decoded) == check_serializable(trace)


# Records close to the idle one that version 1 wrote for a machine that
# waits, each put in as m0's record in step 1 (m0 waits for locks), with
# what the decoder makes of it: the entry the decoded trace re-encodes to,
# or the MalformedTrace message.
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
     "reads is not a list: {}"),
    ('{"ctl":null,"proper":false,"reads":[],"updates":[],"x":1}',
     "step record 1: the record of 'm0' has the keys ['ctl', 'proper', "
     "'reads', 'updates', 'x'], not ['ctl', 'proper', 'reads', 'updates']"),
    ('{"ctl":null,"reads":[],"updates":[]}',
     "malformed trace record: KeyError('proper')"),
    ('{"ctl":null,"proper":false,"reads":[],"updates":null}',
     "updates is not a list: None"),
    ("[]", "malformed trace record: TypeError('list indices must be "
           "integers or slices, not str')"),
]


@pytest.mark.parametrize("payload,expected", NEAR_IDLE)
def test_near_idle_records_decode_as_before(payload, expected):
    lines = _with_machine_entry(trace_to_lines(run(counter_config(2, 1))),
                                payload)
    try:
        trace = trace_from_lines(lines)
    except MalformedTrace as e:
        assert str(e) == expected
        return
    entry = trace.steps[1].per_machine["m0"]
    again = json.loads(trace_to_lines(trace)[2])["machines"]["m0"]
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
      "locks": pair(r=("x", "y"), w=("z",))}),
    (("refuse", "a", pair(w=("x",))),
     {"kind": "lock_refuse", "machine": "a", "locks": pair(w=("x",))}),
    (("withdraw_request", "a"), None),
    (("commit_request", "a"), None),
    (("append_history", "a", ENTRY), None),
    (("commit", "a"), {"kind": "commit", "machine": "a"}),
    (("victimize", "a"), {"kind": "victimize", "machine": "a"}),
    (("unvictimize", "a"), {"kind": "recovered", "machine": "a"}),
    (("undo", "a", ENTRY),
     {"kind": "undo", "machine": "a", "origin_step": 5,
      "locks": pair(r=("y",), w=("w", "x")),
      "restored": [(loc("s"), 3), (loc("p"), 0)]}),
]


def test_every_effect_kind_maps_to_its_event_or_none():
    for effect, event in EFFECT_EVENTS:
        assert effect_event(effect) == event, effect[0]
    # The table names every kind `apply_effect` applies, and no other; the
    # codec's table lists exactly those with an event.
    applied = re.findall(r'kind == "(\w+)"',
                         inspect.getsource(controller.apply_effect))
    assert sorted(applied) == sorted(e[0] for e, _ in EFFECT_EVENTS)
    assert sorted(engine.EVENTS) == sorted(
        e[0] for e, event in EFFECT_EVENTS if event is not None)


def test_lock_payload_writes_constants_as_json():
    pair_ = controller.LockPair(
        frozenset({loc("a", TRUE), loc("a", 1)}),
        frozenset({loc("b", FALSE, "s"), loc("c", UNDEF)}))
    trace = run(counter_config(1, 1))
    trace.steps[0].events.append(effect_event(("grant", "m0", pair_)))
    # Version 3 wrote the arguments as JSON, `{"r":[["a",[true]],["a",[1]]],
    # "w":[["b",[false,"s"]],["c",[null]]]}`; version 5 writes each location
    # as its text, in the same order.
    assert (',"locks":{"r":["a(true)","a(1)"],'
            '"w":["b(false,\'s)","c(undef)"]},"machine":"m0"}'
            ) in trace_to_lines(trace)[1]


@pytest.mark.parametrize("name,value", [(name, value)
                                        for name, values in CHOICES.items()
                                        for value in values])
def test_config_payload_round_trips(name, value):
    config = counter_config(registration={"m1": 2}, **{name: value})
    payload = config.to_payload()
    assert set(payload) == RECORD_KEYS["config"]
    assert RunConfig.from_payload(payload) == config
