"""`Control` and `Replay`, the two monitors `trace_from_lines` hands each
decoded step record to, fed hand-built records with no JSON."""
import pytest

from taserial.asm import UNDEF, Location
from taserial.controller import EMPTY_LOCKS
from taserial.engine import (
    Control,
    MachineStep,
    MalformedTrace,
    Replay,
    StepRecord,
    Trace,
)
from taserial.workloads import counter_config

X = Location("x", ())
NONE = frozenset()
PROPER = MachineStep(NONE, (), None, True)


def _register(*machines):
    return [{"kind": "register", "machine": m} for m in machines]


def _trace(config, steps, final_values=None, status="budget", committed=()):
    return Trace(config, {}, steps, final_values or {}, status,
                 list(committed), config.machine_ids)


def _control(steps, **overrides):
    """A Control of m0, the one machine of a counter config, fed `steps`."""
    config = counter_config(1, 1, **overrides)
    control = Control(config, ["m0"])
    for rec in steps:
        control.step(rec)
    return control, config


def _undo(origin):
    return {"kind": "undo", "machine": "m0", "origin_step": origin,
            "locks": EMPTY_LOCKS, "restored": []}


# -- Control -----------------------------------------------------------------


def test_control_accepts_a_run_in_order():
    steps = [StepRecord(0, {"m0": PROPER}, _register("m0")),
             StepRecord(1, {"m0": MachineStep(NONE, (), ("active", "done"),
                                              False)}, []),
             StepRecord(2, {}, [{"kind": "commit", "machine": "m0"}])]
    control, config = _control(steps)
    control.finish(_trace(config, steps, status="done", committed=["m0"]))


def test_control_rejects_a_ctl_change_off_the_transitions():
    bad = MachineStep(NONE, (), ("active", "committed"), False)
    with pytest.raises(MalformedTrace, match=r"step record 0: 'm0' has ctl "
                       r"\['active', 'committed'\] in control state 'active'"):
        _control([StepRecord(0, {"m0": bad}, _register("m0"))])


def test_control_rejects_a_commit_before_done():
    with pytest.raises(MalformedTrace, match="step record 1: commit event of "
                       "m0 in control state 'active'"):
        _control([StepRecord(0, {"m0": PROPER}, _register("m0")),
                  StepRecord(1, {"m0": PROPER},
                             [{"kind": "commit", "machine": "m0"}])])


@pytest.mark.parametrize("origin,message", [
    (1, "names 1, not an earlier step to undo"),   # not yet taken
    (0, "names 0, not an earlier step to undo"),   # undone before
    (True, "names True, not an earlier step to undo"),
])
def test_control_rejects_an_undo_of_an_origin_it_cannot_undo(origin,
                                                             message):
    steps = [StepRecord(0, {"m0": PROPER}, _register("m0"))]
    if origin == 0:
        steps.append(StepRecord(1, {"m0": PROPER}, [_undo(0)]))
    steps.append(StepRecord(len(steps), {"m0": PROPER}, [_undo(origin)]))
    with pytest.raises(MalformedTrace, match=f"undo of m0 {message}"):
        _control(steps)


def test_control_rejects_a_register_outside_its_step():
    with pytest.raises(MalformedTrace, match="step record 0: m0 registers in "
                       "step 1"):
        _control([StepRecord(0, {"m0": PROPER}, _register("m0"))],
                 registration={"m0": 1})


def test_control_rejects_a_machine_with_no_register_event_by_its_step():
    steps = [StepRecord(0, {}, []), StepRecord(1, {}, [])]
    control, config = _control(steps, registration={"m0": 1})
    with pytest.raises(MalformedTrace, match="step record 1: no register "
                       "event of m0"):
        control.finish(_trace(config, steps))


@pytest.mark.parametrize("reads,updates", [
    (((X, 0),), NONE), ((), frozenset({(X, 99)}))])
def test_control_rejects_reads_or_updates_in_a_record_that_is_not_proper(
        reads, updates):
    done = MachineStep(updates, reads, ("active", "done"), False)
    with pytest.raises(MalformedTrace, match="step record 1: 'm0' has reads "
                       "or updates in a record that is not proper"):
        _control([StepRecord(0, {"m0": PROPER}, _register("m0")),
                  StepRecord(1, {"m0": done}, [])])


# -- Replay ------------------------------------------------------------------


def _replay(steps, initial=None):
    replay = Replay(initial or {})
    for rec in steps:
        replay.step(rec)
    return replay


def _reads(*pairs):
    return MachineStep(NONE, pairs, None, True)


def _writes(*pairs):
    return MachineStep(frozenset(pairs), (), None, True)


def test_replay_applies_updates_and_restores_and_drops_undef():
    replay = _replay([StepRecord(0, {"m0": _writes((X, 5))}, []),
                      StepRecord(1, {"m0": _reads((X, 5))}, []),
                      StepRecord(2, {}, [{"kind": "undo", "machine": "m0",
                                          "restored": [(X, UNDEF)]}])],
                     {X: 1})
    assert replay.values == {}


def test_replay_rejects_a_read_that_is_not_the_replayed_value():
    with pytest.raises(MalformedTrace, match=r'step record 0: m0 reads '
                       r'x\(\) 2, but the steps before leave 1$'):
        _replay([StepRecord(0, {"m0": _reads((X, 2))}, [])], {X: 1})


def test_replay_rejects_an_undef_read_of_a_location_that_is_set():
    with pytest.raises(MalformedTrace, match=r'm0 reads x\(\) null, but the '
                       r'steps before leave 1$'):
        _replay([StepRecord(0, {"m0": _reads((X, UNDEF))}, [])], {X: 1})


def test_replay_rejects_a_step_giving_a_location_two_values():
    with pytest.raises(MalformedTrace, match=r'step record 0 gives '
                       r'x\(\) two values'):
        _replay([StepRecord(0, {"m0": _writes((X, 1)), "m1": _writes((X, 2))},
                            [])])


def test_replay_rejects_a_final_state_that_is_not_the_result():
    config = counter_config(1, 1)
    steps = [StepRecord(0, {"m0": _writes((X, 1))}, [])]
    replay = _replay(steps)
    replay.finish(_trace(config, steps, {X: 1}))
    with pytest.raises(MalformedTrace, match=r'final_state gives '
                       r'x\(\) 2, but the steps leave 1$'):
        replay.finish(_trace(config, steps, {X: 2}))
