import inspect
import re
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from taserial import wrapper
from taserial.asm import FALSE, TRUE, UNDEF, Location, State, loc_key
from taserial.controller import (
    EMPTY_LOCKS,
    GRANTED,
    PENDING,
    REFUSED,
    ControllerState,
    HistoryEntry,
    LockPair,
    Request,
)
from taserial.dsl import LOCATIONS, MachineProgram, parse_program
from taserial.engine import RunConfig
from taserial.wrapper import (
    ACTIVE,
    DONE,
    IDLE_STEP,
    TRANSITIONS,
    InvalidWrite,
    MachineCtl,
    WAIT_LOCKS,
    WAIT_RECOVERY,
    analyse,
    _by_location,
    _lock_needs,
    choice_material,
    overwritten_values,
    terminated,
    wrapper_step,
)


def loc(f, *args):
    return Location(f, tuple(args))


PROG_TEXT = """\
machine m
shared x
monitored sensor
output report
init x() := 0
init pc() := 0
terminated: pc() = 1
rule: par { pc() := pc() + 1 ; x() := x() + sensor() }
"""
PROG = parse_program(PROG_TEXT)


def controller(victim=False, request=None, held=EMPTY_LOCKS, ordinal=0,
               m="m"):
    """The controller state a step of machine m reads: whether m is a victim,
    its request record, the locks it holds and `ordinal` proper steps on its
    history."""
    cs = ControllerState()
    cs.histories[m] = [HistoryEntry(saved=(), locks=EMPTY_LOCKS,
                                      origin_step=i, ordinal=i)
                         for i in range(ordinal)]
    if victim:
        cs.victims.add(m)
    if request is not None:
        cs.requests[m] = request
    cs.locks.grant(m, held)
    return cs


def initial_state():
    return State({loc("x"): 0, loc("pc"): 0, loc("sensor"): 2})


def material():
    return choice_material(0, "m", 0)


def new_locks(cs):
    rw = analyse(PROG, initial_state(), material())[0]
    needs = _lock_needs(PROG, rw, ())
    return cs.locks.missing("m", needs.r_loc, needs.w_loc)


def test_new_locks_classifies_reads_and_writes():
    locks = new_locks(controller())
    assert locks.r_loc == frozenset({loc("x"), loc("sensor")})
    assert locks.w_loc == frozenset({loc("x")})


def test_new_locks_subtracts_held():
    held = LockPair(frozenset({loc("x"), loc("sensor")}), frozenset({loc("x")}))
    assert new_locks(controller(held=held)).is_empty()


def test_write_lock_needed_even_when_read_lock_held():
    locks = new_locks(controller(held=LockPair(frozenset({loc("x"),
                                                          loc("sensor")}))))
    assert locks == LockPair(frozenset(), frozenset({loc("x")}))


def test_overwritten_values_of_every_written_location():
    state = State({loc("x"): 41, loc("pc"): 3})
    saved = overwritten_values(state, frozenset({loc("x"), loc("pc"),
                                                 loc("new")}))
    assert saved == ((loc("new"), UNDEF), (loc("pc"), 3), (loc("x"), 41))


def test_active_requests_locks_then_steps_when_granted():
    tcb = MachineCtl("m")
    tcb.ctl_state = ACTIVE
    state = initial_state()
    out, effects = wrapper_step(PROG, tcb, state, controller(), 0, 0)
    assert out.ctl_change == (ACTIVE, WAIT_LOCKS)
    assert effects[0][0] == "lock_request"
    assert effects[0][1] == "m"
    requested = effects[0][2]

    tcb.ctl_state = WAIT_LOCKS
    cs = controller(request=Request(requested, GRANTED), held=requested)
    out2, effects2 = wrapper_step(PROG, tcb, state, cs, 0, 1)
    assert out2.proper
    assert (loc("x"), 2) in out2.updates
    kinds = [e[0] for e in effects2]
    assert kinds == ["append_history"]
    entry = effects2[0][2]
    assert entry.saved == ((loc("pc"), 0), (loc("x"), 0))
    assert entry.locks == requested
    assert entry.ordinal == 0 and entry.origin_step == 1


def test_refused_returns_to_active():
    tcb = MachineCtl("m")
    tcb.ctl_state = WAIT_LOCKS
    cs = controller(request=Request(LockPair(), REFUSED))
    out, effects = wrapper_step(PROG, tcb, initial_state(), cs, 0, 4)
    assert out.ctl_change == (WAIT_LOCKS, ACTIVE)
    assert effects == []  # the refusal is read, not consumed


def test_victim_observed_in_active_state():
    tcb = MachineCtl("m")
    tcb.ctl_state = ACTIVE
    out, effects = wrapper_step(PROG, tcb, initial_state(),
                                controller(victim=True), 0, 0)
    assert out.ctl_change == (ACTIVE, WAIT_RECOVERY)
    assert not effects


def test_suspended_waiter_withdraws_request_when_victimized():
    tcb = MachineCtl("m")
    tcb.ctl_state = WAIT_LOCKS
    cs = controller(victim=True, request=Request(LockPair(), PENDING))
    out, effects = wrapper_step(PROG, tcb, initial_state(), cs, 0, 0,
                                wait_mode="suspend")
    assert out.ctl_change == (WAIT_LOCKS, WAIT_RECOVERY)
    assert effects == [("withdraw_request", "m")]
    # in retry mode it just keeps waiting for the refusal
    tcb2 = MachineCtl("m")
    tcb2.ctl_state = WAIT_LOCKS
    out2, effects2 = wrapper_step(PROG, tcb2, initial_state(), cs, 0, 0)
    assert out2 is IDLE_STEP and effects2 == []


def test_waiting_machine_without_answer_idles():
    for wait_mode in ("retry", "suspend"):
        tcb = MachineCtl("m", ctl_state=WAIT_LOCKS)
        cs = controller(request=Request(LockPair(), PENDING))
        assert wrapper_step(PROG, tcb, initial_state(), cs, 0, 0,
                            wait_mode) == (IDLE_STEP, [])


def test_recovered_machine_resumes():
    tcb = MachineCtl("m")
    tcb.ctl_state = WAIT_RECOVERY
    out, effects = wrapper_step(PROG, tcb, initial_state(),
                                controller(victim=True), 0, 0)
    assert out is IDLE_STEP and effects == []
    out2, effects2 = wrapper_step(PROG, tcb, initial_state(), controller(),
                                  0, 1)
    assert out2.ctl_change == (WAIT_RECOVERY, ACTIVE)


def test_terminated_machine_requests_commit():
    tcb = MachineCtl("m")
    tcb.ctl_state = ACTIVE
    state = State({loc("pc"): 1, loc("x"): 2, loc("sensor"): 2})
    assert terminated(PROG, state)
    out, effects = wrapper_step(PROG, tcb, state, controller(), 0, 5)
    assert out.ctl_change == (ACTIVE, DONE)
    assert effects == [("commit_request", "m")]


FLAG_TEST = parse_program("""\
machine m
shared flag
init flag() := 0
init pc() := 0
terminated: flag() = 1
rule: pc() := pc() + 1
""")


def test_termination_test_runs_under_read_locks():
    flag = LockPair(frozenset({loc("flag")}))
    unset, set_ = (State({loc("flag"): v, loc("pc"): 0}) for v in (0, 1))
    tcb = MachineCtl("m", ctl_state=ACTIVE)
    # The step reads no shared location, but the test that let it run did.
    out, effects = wrapper_step(FLAG_TEST, tcb, unset, controller(), 0, 0)
    assert effects == [("lock_request", "m", flag)]
    out, effects = wrapper_step(FLAG_TEST, tcb, unset,
                                controller(held=flag), 0, 0)
    assert out.proper and effects[0][0] == "append_history"
    # Terminated without the lock: request it alone.
    out, effects = wrapper_step(FLAG_TEST, tcb, set_, controller(), 0, 1)
    assert out.ctl_change == (ACTIVE, WAIT_LOCKS)
    assert effects == [("lock_request", "m", flag)]
    # Granted: test again before stepping, keep the lock and go back to
    # active, which asks to commit now that the lock is held.
    tcb.ctl_state = WAIT_LOCKS
    cs = controller(request=Request(flag, GRANTED), held=flag)
    out, effects = wrapper_step(FLAG_TEST, tcb, set_, cs, 0, 2)
    assert out.ctl_change == (WAIT_LOCKS, ACTIVE) and not out.proper
    assert effects == [("append_history", "m",
                        HistoryEntry(saved=(), locks=flag))]
    tcb.ctl_state = ACTIVE
    out, effects = wrapper_step(FLAG_TEST, tcb, set_, controller(held=flag),
                                0, 3)
    assert out.ctl_change == (ACTIVE, DONE)
    assert effects == [("commit_request", "m")]


FLAG_AND_STEP = parse_program("""\
machine m
shared flag x
init flag() := 0
init x() := 0
init pc() := 0
terminated: flag() = 1
rule: par { pc() := pc() + 1 ; x() := x() + 1 }
""")


def _counted_tests(monkeypatch):
    """Every evaluation of `wrapper.terminated`, by its state."""
    calls = []
    real = wrapper.terminated

    def counted(program, state, reads=None):
        calls.append(state)
        return real(program, state, reads)
    monkeypatch.setattr(wrapper, "terminated", counted)
    return calls


def test_termination_test_is_cached_with_the_step(monkeypatch):
    # Refused, then granted, with no read changed: one test for the ordinal.
    tests = _counted_tests(monkeypatch)
    both = LockPair(frozenset({loc("flag"), loc("x")}), frozenset({loc("x")}))
    state = State({loc("flag"): 0, loc("x"): 0, loc("pc"): 0})
    tcb = MachineCtl("m", ctl_state=ACTIVE)
    out, effects = wrapper_step(FLAG_AND_STEP, tcb, state, controller(), 0, 0)
    assert effects == [("lock_request", "m", both)]
    tcb.ctl_state = WAIT_LOCKS
    out, effects = wrapper_step(FLAG_AND_STEP, tcb, state, controller(
        request=Request(both, REFUSED)), 0, 1)
    assert out.ctl_change == (WAIT_LOCKS, ACTIVE)
    tcb.ctl_state = ACTIVE
    out, effects = wrapper_step(FLAG_AND_STEP, tcb, state, controller(), 0, 2)
    assert effects == [("lock_request", "m", both)]
    tcb.ctl_state = WAIT_LOCKS
    out = _grant(FLAG_AND_STEP, tcb, state, both)
    assert out.proper and out.updates == frozenset({(loc("pc"), 1),
                                                    (loc("x"), 1)})
    assert len(tests) == 1


@pytest.mark.parametrize("answer", [REFUSED, GRANTED])
def test_a_changed_flag_runs_the_cached_test_again(monkeypatch, answer):
    # The flag is set between the request and the answer: the machine no
    # longer steps, and needs the flag's lock alone to ask to commit.
    tests = _counted_tests(monkeypatch)
    both = LockPair(frozenset({loc("flag"), loc("x")}), frozenset({loc("x")}))
    flag = LockPair(frozenset({loc("flag")}))
    unset = State({loc("flag"): 0, loc("x"): 0, loc("pc"): 0})
    set_ = unset.with_updates(frozenset({(loc("flag"), 1)}))
    tcb = MachineCtl("m", ctl_state=ACTIVE)
    wrapper_step(FLAG_AND_STEP, tcb, unset, controller(), 0, 0)
    tcb.ctl_state = WAIT_LOCKS
    if answer == GRANTED:
        out = _grant(FLAG_AND_STEP, tcb, set_, both)
        assert out.ctl_change == (WAIT_LOCKS, ACTIVE) and not out.proper
        held = both
    else:
        out, _ = wrapper_step(FLAG_AND_STEP, tcb, set_, controller(
            request=Request(both, REFUSED)), 0, 1)
        assert out.ctl_change == (WAIT_LOCKS, ACTIVE)
        tcb.ctl_state = ACTIVE
        out, effects = wrapper_step(FLAG_AND_STEP, tcb, set_, controller(),
                                    0, 2)
        assert effects == [("lock_request", "m", flag)]
        tcb.ctl_state = WAIT_LOCKS
        out = _grant(FLAG_AND_STEP, tcb, set_, flag)
        assert out.ctl_change == (WAIT_LOCKS, ACTIVE) and not out.proper
        held = flag
    assert len(tests) == 2
    tcb.ctl_state = ACTIVE
    out, effects = wrapper_step(FLAG_AND_STEP, tcb, set_,
                                controller(held=held), 0, 3)
    assert out.ctl_change == (ACTIVE, DONE)
    assert effects == [("commit_request", "m")]
    assert len(tests) == 2 and tcb.analyses == {}


def test_grant_after_state_drift_renegotiates():
    tcb = MachineCtl("m")
    tcb.ctl_state = WAIT_LOCKS
    # granted a lock pair that no longer covers the step's needs
    stale = LockPair(frozenset(), frozenset({loc("unrelated")}))
    cs = controller(request=Request(stale, GRANTED), held=stale)
    out, effects = wrapper_step(PROG, tcb, initial_state(), cs, 0, 2)
    assert out.ctl_change == (WAIT_LOCKS, ACTIVE)
    assert not out.proper
    kinds = [e[0] for e in effects]
    assert kinds == ["append_history"]
    entry = effects[0][2]
    assert entry.locks == stale and entry.saved == () and entry.ordinal is None


def test_transitions_are_the_changes_the_wrapper_steps_make():
    from taserial import wrapper
    source = inspect.getsource(wrapper_step)
    state = r"(ACTIVE|WAIT_LOCKS|WAIT_RECOVERY|DONE|UNREGISTERED)"
    made = {(getattr(wrapper, a), getattr(wrapper, b))
            for a, b in re.findall(rf"\({state}, {state}\)", source)}
    assert made == set(TRANSITIONS) and len(made) == len(TRANSITIONS)


def test_monitored_write_rejected():
    prog = parse_program("""\
machine bad
monitored sensor
terminated: false
rule: sensor() := 1
""")
    tcb = MachineCtl("bad")
    tcb.ctl_state = WAIT_LOCKS
    cs = controller(request=Request(EMPTY_LOCKS, GRANTED),
                    held=LockPair(frozenset({loc("sensor")})), m="bad")
    with pytest.raises(InvalidWrite):
        wrapper_step(prog, tcb, State(), cs, 0, 0)


def test_proper_steps_never_call_yields(monkeypatch):
    # The analysis already produced the update set; asm.yields stays the
    # spec the tests compare against, not a second pass.
    from taserial import asm
    from taserial.engine import run
    from taserial.fuzz import random_config
    from taserial.workloads import counter_config

    def forbidden(*args, **kwargs):
        raise AssertionError("a proper step called yields")

    monkeypatch.setattr(asm, "yields", forbidden)
    assert run(counter_config(3, 2)).status == "done"
    assert run(random_config(1)).status == "done"


@pytest.mark.parametrize("seed", [0, 3])
def test_run_and_check_compile_each_program_once(monkeypatch, seed):
    # Every wrapper step, every termination test and the checker's serial
    # run use the code cached on the program.
    from taserial import rwloc, wrapper
    from taserial.checker import check_serializable
    from taserial.engine import run
    from taserial.fuzz import random_config

    compiled = {"compile_rule": [], "compile_formula": []}
    for name, calls in compiled.items():
        def counting(source, *args, real=getattr(rwloc, name), calls=calls):
            calls.append(source)
            return real(source, *args)
        monkeypatch.setattr(rwloc, name, counting)
        monkeypatch.setattr(wrapper, name, counting)
    config = random_config(seed)
    trace = run(config)
    assert trace.status == "done" and check_serializable(trace).ok
    for name, field_name in (("compile_rule", "main_rule"),
                             ("compile_formula", "terminated")):
        assert sorted(map(id, compiled[name])) == sorted(
            id(getattr(p, field_name)) for p in config.machines)


def test_terminated_stops_early_like_eval_formula():
    # A true left side decides `or`, so the non-boolean atom's error is
    # dropped: eval_formula stops before it.
    from taserial.asm import eval_formula
    prog = parse_program("machine t terminated: pc() = 1 or flag() rule: skip")
    done = State({loc("pc"): 1, loc("flag"): 3})
    assert terminated(prog, done) is eval_formula(prog.terminated, done, {}) is True
    assert terminated(prog, State({loc("pc"): 0})) is False
    other = parse_program("machine u terminated: pc() = 0 rule: skip").terminated
    with pytest.raises(FrozenInstanceError):
        prog.terminated = other
    assert terminated(prog, done) is True
    assert terminated(replace(prog, terminated=other), done) is False


# -- reuse of the last analysis ------------------------------------------------


@pytest.fixture
def analyses(monkeypatch):
    """The analyses run (not reused), as (program, state) pairs."""
    from taserial import wrapper
    calls = []
    original = wrapper.analyse

    def counting(program, state, material, choice_base=0):
        calls.append((program, state))
        return original(program, state, material, choice_base)

    monkeypatch.setattr(wrapper, "analyse", counting)
    return calls


def _request(prog, tcb, state, seed=0):
    tcb.ctl_state = ACTIVE
    out, effects = wrapper_step(prog, tcb, state, controller(), seed, 0)
    assert out.ctl_change == (ACTIVE, WAIT_LOCKS)
    tcb.ctl_state = WAIT_LOCKS
    return effects[0][2]


def _grant(prog, tcb, state, pair, seed=0, ordinal=0):
    cs = controller(request=Request(pair, GRANTED), held=pair, ordinal=ordinal)
    return wrapper_step(prog, tcb, state, cs, seed, 1)[0]


def test_grant_reruns_analysis_when_a_read_changed(analyses):
    tcb = MachineCtl("m")
    pair = _request(PROG, tcb, initial_state())
    moved = initial_state().with_updates(frozenset({(loc("sensor"), 5)}))
    out = _grant(PROG, tcb, moved, pair)
    assert len(analyses) == 2
    assert out.proper and (loc("x"), 5) in out.updates
    assert (loc("sensor"), 5) in out.reads


def test_grant_reuses_analysis_when_values_are_restored(analyses):
    tcb = MachineCtl("m")
    pair = _request(PROG, tcb, initial_state())
    moved = initial_state().with_updates(frozenset({(loc("sensor"), 5)}))
    waiting, effects = wrapper_step(PROG, tcb, moved,
                                    controller(request=Request(pair, PENDING)),
                                    0, 1)
    assert waiting is IDLE_STEP and effects == []
    back = moved.with_updates(frozenset({(loc("sensor"), 2)}))  # A -> B -> A
    out = _grant(PROG, tcb, back, pair)
    assert len(analyses) == 1
    fresh = _grant(PROG, MachineCtl("m", ctl_state=WAIT_LOCKS),
                   initial_state(), pair)
    assert (out.updates, out.reads) == (fresh.updates, fresh.reads)
    assert out.proper and (loc("x"), 2) in out.updates


def test_reuse_is_keyed_on_the_seed(analyses):
    prog = parse_program("""\
machine m
shared x
init x() := 0
terminated: false
rule: choose c with c < 8 do x() := c
""")
    tcb = MachineCtl("m")
    pair = _request(prog, tcb, State({loc("x"): 0}), seed=0)
    _grant(prog, tcb, State({loc("x"): 0}), pair, seed=1)
    assert len(analyses) == 2


def test_reuse_is_keyed_on_the_ordinal(analyses):
    tcb = MachineCtl("m")
    pair = _request(PROG, tcb, initial_state())
    _grant(PROG, tcb, initial_state(), pair, ordinal=1)
    assert len(analyses) == 2


@pytest.mark.parametrize("name", [f.name for f in fields(MachineProgram)])
def test_assigning_a_program_field_raises(name):
    # The code compiled from a program is cached on it, unchecked: no field
    # may change once it is built.
    prog = parse_program(PROG_TEXT)
    with pytest.raises(FrozenInstanceError):
        setattr(prog, name, getattr(prog, name))


def test_read_value_of_another_type_reruns_analysis(analyses):
    # The logged read 1 no longer holds once flag() is true.
    prog = parse_program("""\
machine m
shared x flag
init x() := 0
terminated: false
rule: if flag() = 1 then x() := 1 else x() := 2
""")
    tcb = MachineCtl("m")
    pair = _request(prog, tcb, State({loc("x"): 0, loc("flag"): 1}))
    out = _grant(prog, tcb, State({loc("x"): 0, loc("flag"): TRUE}), pair)
    assert len(analyses) == 2
    assert out.updates == frozenset({(loc("x"), 2)})


# Every kind of argument, several per function, and several arities.
SORT_PAIRS = [(loc("x"), 1), (loc("arr", 3), 0), (loc("arr", -2), 1),
              (loc("arr", 10), 2), (loc("arr", "q"), 3), (loc("arr", "b"), 4),
              (loc("arr", TRUE), 5), (loc("arr", FALSE), 6),
              (loc("arr", UNDEF), 7), (loc("grid", 1, "q"), 8),
              (loc("grid", -1, TRUE), 9), (loc("grid", 1, FALSE), 10),
              (loc("grid", 1, UNDEF, 0), 11), (loc("a"), UNDEF)]


def test_by_location_sorts_by_loc_key_with_the_memo_cold_and_warm(
        cold_locations):
    expected = tuple(sorted(SORT_PAIRS, key=lambda p: loc_key(p[0])))
    shuffled = SORT_PAIRS[1::2] + SORT_PAIRS[::2]
    assert _by_location(iter(shuffled)) == expected  # cold
    assert {l: e[0] for l, e in cold_locations.items()} == {
        l: loc_key(l) for l, _ in SORT_PAIRS}
    for pairs in (SORT_PAIRS, SORT_PAIRS[::-1], shuffled):  # warm
        assert _by_location(pairs) == expected
    half = SORT_PAIRS[:7]
    cold_locations.clear()
    _by_location(half[::2])  # partly warm
    assert _by_location(half) == tuple(sorted(half,
                                              key=lambda p: loc_key(p[0])))
    assert _by_location([]) == ()


def test_a_memoized_location_leaves_the_bool_check_of_initial_state():
    _by_location([(loc("a", 1), 0)])
    # a(True) equals a(1), so the table would answer for it.
    assert LOCATIONS[loc("a", True)][0] == ("a", (("i", 1),))
    program = parse_program("machine m shared a/1 init a(1) := 0 rule: skip")
    config = RunConfig([program], shared_inits=[(loc("a", True), 1)])
    with pytest.raises(TypeError, match="not a machine value: True"):
        config.initial_state()


# -- lock classes per program, choice material only where a machine chooses --

def test_lock_classes_answer_as_classify():
    prog = parse_program(PROG_TEXT)
    read_locked, write_locked = wrapper._lock_classes(prog)
    for func in ("x", "sensor", "report", "pc", "other"):
        kind = prog.classify(func)
        assert (func in read_locked) == (kind in ("shared", "monitored"))
        assert (func in write_locked) == (kind in ("shared", "output"))


def test_building_programs_computes_no_lock_classes():
    from taserial.engine import run
    from taserial.fuzz import random_config

    config = random_config(0)
    programs = [parse_program(PROG_TEXT)] + config.machines
    assert not any("locks" in p.code for p in programs)
    assert run(config).status == "done"
    assert all("locks" in p.code for p in config.machines)


CHOOSER_IN_RULE = """\
machine {name}
shared g
init pc_{name}() := 0
init g() := 0
terminated: pc_{name}() = 3
rule pick(): choose c with c < 4 do g() := c
rule: par {{ pc_{name}() := pc_{name}() + 1 ; call pick() }}
"""


def _counted_material(monkeypatch):
    """Every call of `choice_material`, by its arguments."""
    calls = []
    real = wrapper.choice_material

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(wrapper, "choice_material", counted)
    return calls


def test_a_program_without_choose_derives_no_choice_material(monkeypatch):
    from taserial.checker import check_serializable
    from taserial.engine import run
    from taserial.workloads import counter_config

    calls = _counted_material(monkeypatch)
    for seed in range(4):
        config = counter_config(3, 2, seed=seed)
        assert not any(p.choose_nodes for p in config.machines)
        trace = run(config)
        assert trace.status == "done" and check_serializable(trace).ok
    assert calls == []


def test_a_choose_reached_by_call_derives_material_as_before(monkeypatch):
    """A program whose only choose node sits in a named rule derives choice
    material in a run and in its serial run, and picks the witnesses it
    picks when every analysis derives it."""
    from taserial.checker import build_serial_run, check_serializable
    from taserial.engine import run, trace_to_lines

    def config(seed):
        return RunConfig([parse_program(CHOOSER_IN_RULE.format(name=n))
                          for n in "ab"], seed=seed)

    calls = _counted_material(monkeypatch)
    picked = set()
    for seed in range(6):
        trace = run(config(seed))
        assert trace.status == "done" and check_serializable(trace).ok
        assert calls
        calls.clear()
        build_serial_run(trace, trace.committed)
        assert len(calls) == 6  # three proper steps per machine
        calls.clear()
        with monkeypatch.context() as always:
            always.setattr(wrapper, "step_material",
                           lambda program, *key: wrapper.choice_material(*key))
            assert trace_to_lines(run(config(seed))) == trace_to_lines(trace)
        picked.add(trace.final_values[loc("g")])
    assert len(picked) > 1
