import json
import random
from dataclasses import replace

import pytest

from taserial.asm import UNDEF, Location

from taserial.anomaly import forged_lost_update_trace
from taserial.checker import (
    TooManyMachines,
    brute_force_serializable,
    build_serial_run,
    check_serializable,
    cleanse,
    equivalent,
)
from taserial.engine import (MalformedTrace, run, trace_from_lines,
                             trace_to_lines)
from taserial.fuzz import FuzzParams, random_config
from taserial.workloads import (
    counter_config,
    full_victim_config,
    opposed_lock_config,
)

from stepwise import cleanse_stepwise


def test_cleanse_keeps_only_proper_surviving_steps():
    trace = run(full_victim_config(seed=0))
    undone_origins = {ev["origin_step"]
                      for rec in trace.steps for ev in rec.events
                      if ev["kind"] == "undo" and ev["origin_step"] is not None}
    assert undone_origins  # the workload forces at least one undo
    sched = cleanse(trace)
    for m, entries in sched.items():
        for e in entries:
            assert e.step_index not in undone_origins
            assert e.updates or e.reads


def test_cleanse_stepwise_is_order_independent():
    trace = run(full_victim_config(seed=1))
    base = cleanse(trace)
    for k in range(10):
        assert cleanse_stepwise(trace, random.Random(k)) == base


def test_cleansing_is_idempotent():
    trace = run(full_victim_config(seed=2))
    sched = cleanse(trace)
    # nothing in a cleansed schedule is removable
    for entries in sched.values():
        kept = tuple(e for e in entries if e.updates or e.reads)
        assert kept == entries


def test_undo_of_unknown_origin_is_malformed():
    # The decoder checks undo origins; `cleanse` trusts a decoded trace.
    lines = trace_to_lines(run(full_victim_config(seed=0)))
    for i, line in enumerate(lines):
        record = json.loads(line)
        for ev in record.get("events", ()):
            if ev["kind"] == "undo" and ev["origin_step"] is not None:
                ev["origin_step"] = 10_000
                lines[i] = json.dumps(record)
                with pytest.raises(MalformedTrace, match="undo of"):
                    trace_from_lines(lines)
                return
    raise AssertionError("expected an undo event")


def test_equivalent_reports_first_divergence():
    trace = run(counter_config(seed=0))
    sched = cleanse(trace)
    assert equivalent(sched, sched, trace.registered) is None
    broken = dict(sched)
    m = trace.registered[0]
    broken[m] = sched[m][:-1]
    witness = equivalent(sched, broken, trace.registered)
    assert witness == {"machine": m, "kind": "length",
                       "left": len(sched[m]), "right": len(sched[m]) - 1}


def test_serial_run_matches_commit_order():
    trace = run(counter_config(seed=4))
    serial = build_serial_run(trace, trace.committed)
    assert equivalent(cleanse(trace), serial, trace.committed) is None


def _solo_parity_configs():
    for seed in range(200):
        yield random_config(seed)
    for seed in range(5):
        for wait_mode in ("retry", "suspend"):
            yield counter_config(seed=seed, wait_mode=wait_mode)
            yield opposed_lock_config(seed=seed, wait_mode=wait_mode)
            yield full_victim_config(seed=seed, wait_mode=wait_mode)


def test_bare_serial_run_matches_the_engine_solo_run():
    # The serial run executes the bare machine; running it alone through
    # the engine, under the controller, must give the same schedule.
    for config in _solo_parity_configs():
        trace = run(config)
        for m in trace.committed:
            bare = build_serial_run(trace, [m])[m]
            solo = run(config, only=[m])
            assert solo.status == "done"
            assert ([e.body() for e in bare]
                    == [e.body() for e in cleanse(solo)[m]]), (config.seed, m)


def test_step_witness_names_an_update_one_side_lacks():
    trace = run(counter_config(seed=0))
    sched = cleanse(trace)
    m = trace.registered[0]
    first = sched[m][0]
    ghost = Location("ghost", ())
    broken = dict(sched)
    broken[m] = (replace(first, updates=first.updates | {(ghost, UNDEF)}),
                 ) + sched[m][1:]
    witness = equivalent(sched, broken, trace.registered)
    assert witness == {"machine": m, "kind": "step", "position": 0,
                       "left_step": first.step_index, "what": "update",
                       "location": "ghost()", "right": None}
    json.dumps(witness)


def test_forged_lost_update_rejected_by_both():
    trace = forged_lost_update_trace()
    fast = check_serializable(trace)
    slow = brute_force_serializable(trace)
    assert not fast.ok and not slow.ok
    assert fast.witness is not None


def test_honest_runs_accepted_by_both():
    for seed in range(10):
        trace = run(random_config(seed))
        assert check_serializable(trace).ok
        assert brute_force_serializable(trace).ok


def test_uncommitted_survivors_fail_the_check():
    trace = run(counter_config(seed=1))
    trace.committed.remove("m0")  # pretend m0 never committed
    verdict = check_serializable(trace)
    assert not verdict.ok
    assert "m0" in verdict.reason


def test_brute_force_limits_machine_count():
    params = FuzzParams(n_machines=5, min_steps=1, max_steps_per_machine=1)
    trace = run(random_config(0, params))
    assert trace.status == "done"
    with pytest.raises(TooManyMachines):
        brute_force_serializable(trace)
