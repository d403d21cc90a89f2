"""The trace writer assembles its lines from per-trace text fragments; it
must write exactly what the list-based reference writer writes."""
import pytest

from taserial import controller, engine
from taserial.asm import FALSE, TRUE, UNDEF, Location, State
from taserial.dsl import parse_program
from taserial.engine import (
    MachineStep,
    RunConfig,
    StepRecord,
    Trace,
    effect_event,
    run,
    state_digest,
    trace_from_lines,
    trace_to_lines,
)
from taserial.fuzz import FuzzParams, random_config
from taserial.workloads import counter_config, full_victim_config

from trace_reference import reference_lines
from trace_reference import state_digest as reference_digest


def loc(f, *args):
    return Location(f, tuple(args))


PROGRAM = parse_program("machine m0\nterminated: true\nrule: skip\n")


def _trace(steps, initial=None, final=None):
    """A hand-built trace of the one-machine config; only the writer reads
    it, so its steps need not be a run's."""
    return Trace(config=RunConfig([PROGRAM]),
                 initial_values=initial or {loc("x"): 0},
                 steps=steps, final_values=final or {loc("x"): 1},
                 status="done", committed=["m0"], registered=["m0"])


def _step(index, pairs, events=(), ctl_change=None):
    ms = MachineStep(updates=frozenset(pairs), reads=tuple(pairs),
                     ctl_change=ctl_change, proper=True)
    return StepRecord(index, {"m0": ms}, list(events))


VALUES = [0, 7, -3, 10, 9, 2 ** 70, "sym", "a b", "é", TRUE, FALSE, UNDEF]


def test_hand_built_values_and_locations_match_the_reference():
    pairs = [(loc("v", i), v) for i, v in enumerate(VALUES)]
    pairs += [(loc("a", 1), 5), (loc("a", TRUE), 6), (loc("a", FALSE), 7),
              (loc("a", "s"), 8), (loc("a", UNDEF), 9), (loc("z"), TRUE),
              (loc("b", 1, "s", TRUE), 1), (loc("b", 1, "s"), 2),
              (loc("b", 10), 3), (loc("b", 9), 4), (loc("b"), 5)]
    initial = dict(pairs)
    steps = [_step(0, pairs, ctl_change=("active", "wait-locks")),
             _step(1, [(loc("a", 1), UNDEF), (loc("a", TRUE), TRUE)]),
             _step(2, [])]
    trace = _trace(steps, initial=initial, final=initial)
    assert trace_to_lines(trace) == reference_lines(trace)


def test_duplicate_locations_sort_by_value_as_the_reference_does():
    # Only a forged record reads one location twice; the order still follows
    # the value key (9 before 10, false before true), not the text.
    pairs = [(loc("x"), 10), (loc("x"), 9), (loc("x"), TRUE), (loc("x"), FALSE),
             (loc("x"), "s"), (loc("x"), UNDEF)]
    ms = MachineStep(updates=frozenset(pairs), reads=tuple(pairs),
                     ctl_change=None, proper=True)
    trace = _trace([StepRecord(0, {"m0": ms}, [])])
    assert trace_to_lines(trace) == reference_lines(trace)


def test_events_undo_and_boolean_lock_arguments_match_the_reference():
    locks = controller.LockPair(
        frozenset({loc("a", TRUE), loc("a", 1), loc("g")}),
        frozenset({loc("b", FALSE, "s"), loc("c", 2, 3)}))
    entry = controller.HistoryEntry(
        saved=((loc("s", TRUE), 3), (loc("p"), FALSE), (loc("s", 1), "x")),
        locks=locks, origin_step=0, ordinal=1)
    lock_only = controller.HistoryEntry(saved=(), locks=locks,
                                        origin_step=None, ordinal=None)
    events = [effect_event(e) for e in [
        ("register", "m0"), ("lock_request", "m0", locks),
        ("grant", "m0", locks), ("refuse", "m0", locks),
        ("victimize", "m0"), ("undo", "m0", entry),
        ("undo", "m0", lock_only), ("unvictimize", "m0"), ("commit", "m0")]]
    trace = _trace([_step(0, [(loc("x"), 1)], events[:4]),
                    _step(1, [], events[4:])])
    assert trace_to_lines(trace) == reference_lines(trace)
    # An equal pair that is another object writes the same payload.
    again = [effect_event(("grant", "m0", controller.LockPair(
        frozenset(locks.r_loc), frozenset(locks.w_loc))))]
    trace = _trace([_step(0, [], events[2:3] + again)])
    assert trace_to_lines(trace) == reference_lines(trace)


FUZZ12 = FuzzParams(n_machines=12, n_shared=16, max_steps_per_machine=8,
                    domain_size=8, step_budget=600)


def _configs():
    for seed in range(12):
        for wait_mode in ("retry", "suspend"):
            for run_mode in ("sync", "interleave"):
                config = random_config(seed)
                config.wait_mode, config.run_mode = wait_mode, run_mode
                config.max_steps = 1000
                yield config
    yield random_config(0, FUZZ12)
    yield counter_config(seed=1, registration={"m2": 3})
    for wait_mode in ("retry", "suspend"):
        yield full_victim_config(seed=1, wait_mode=wait_mode)


def test_runs_and_their_decoded_traces_match_the_reference():
    for config in _configs():
        trace = run(config)
        lines = trace_to_lines(trace)
        assert lines == reference_lines(trace)
        decoded = trace_from_lines(lines)
        assert trace_to_lines(decoded) == reference_lines(decoded) == lines


def test_state_digest_matches_the_reference():
    for config in (random_config(3), random_config(1, FUZZ12)):
        trace = run(config)
        state = engine.state_at(trace, 0)
        assert state_digest(state) == reference_digest(state.values)
        for rec in trace.steps:
            state = state.with_updates(rec.delta())
            assert state_digest(state) == reference_digest(state.values)
    assert state_digest(State({}, (0,))) == reference_digest({})


@pytest.mark.parametrize("bad", [True, 1.0, None, False, 0.0])
@pytest.mark.parametrize("where", ["value", "argument"])
def test_a_python_bool_float_or_none_is_not_a_value(bad, where):
    """A memo keyed on the value alone would let True through after 1,
    since True == 1 and hash(True) == hash(1)."""
    good = [(loc("a", 1), 1), (loc("a", 0), 0), (loc("b"), 1), (loc("b"), 0)]
    forged = (loc("c"), bad) if where == "value" else (loc("a", bad), 1)
    trace = _trace([_step(0, good), _step(1, good + [forged])])
    with pytest.raises(TypeError, match="not a machine value"):
        trace_to_lines(trace)
    fragments = engine._Fragments()  # as one decoding hashes its states
    fragments.pairs(good)
    with pytest.raises(TypeError, match="not a machine value"):
        fragments.pairs([forged])


def test_a_symbol_argument_holding_a_comma_is_not_written():
    """`a('x,'y)` would read back as a('x, 'y): two arguments, not one."""
    trace = _trace([_step(0, [(loc("a", "x,'y"), 1)])])
    with pytest.raises(ValueError, match="holds a comma"):
        trace_to_lines(trace)
    assert engine.location_text(loc("a", "x", "y")) == "a('x,'y)"
