"""`trace_from_lines` decodes a trace one step line at a time into shared
objects, replays each step's delta and requires each recorded read to be
the value before its step and the footer's final state to be the result."""
import json
import re

import pytest

from taserial.asm import TRUE, UNDEF, Constant, Location
from taserial.controller import LockPair
from taserial import engine
from taserial.dsl import parse_program
from taserial.engine import (
    MalformedTrace,
    RunConfig,
    run,
    trace_from_lines,
    trace_to_lines,
)
from taserial.fuzz import FuzzParams, random_config
from taserial.workloads import full_victim_config

from test_trace_writer import _configs


def test_decoded_trace_equals_the_run():
    for config in _configs():
        trace = run(config)
        decoded = trace_from_lines(trace_to_lines(trace))
        assert decoded.steps == trace.steps
        assert (trace.initial_values, trace.final_values, trace.status,
                trace.committed, trace.registered) == (
            decoded.initial_values, decoded.final_values,
            decoded.status, decoded.committed, decoded.registered)


def _one_object_each(objects, key=lambda obj: obj):
    """Whether objects that are equal under `key` are one object."""
    seen = {}
    for obj in objects:
        if seen.setdefault(key(obj), obj) is not obj:
            return False
    return True


def _decoded_objects(trace):
    machine_steps = [ms for rec in trace.steps
                     for ms in rec.per_machine.values()]
    pairs = [p for ms in machine_steps for p in ms.updates | set(ms.reads)]
    pairs += [p for rec in trace.steps for ev in rec.events
              for p in ev.get("restored", ())]
    lock_pairs = [ev["locks"] for rec in trace.steps for ev in rec.events
                  if "locks" in ev]
    return machine_steps, pairs, lock_pairs


def _typed(obj):
    """A key that tells 1 from True, as JSON does."""
    return json.dumps(obj, sort_keys=True, default=repr)


@pytest.mark.parametrize("config", [
    random_config(0, FuzzParams(n_machines=12, n_shared=16,
                                max_steps_per_machine=8, domain_size=8,
                                step_budget=600)),
    full_victim_config(seed=1),
], ids=["fuzz12", "full-victim"])
def test_decoded_trace_shares_equal_objects(config):
    decoded = trace_from_lines(trace_to_lines(run(config)))
    machine_steps, pairs, lock_pairs = _decoded_objects(decoded)
    locations = [loc for loc, _ in pairs] + list(decoded.initial_values)
    locations += list(decoded.final_values)
    # Each shared init's location is the records' object for it.
    shared = [loc for loc, _ in decoded.config.shared_inits]
    assert bool(shared) == (config.shared_inits != [])
    assert set(shared) <= {loc for loc, _ in pairs}
    locations += shared
    assert len(set(map(id, locations))) < len(locations)
    assert _one_object_each(locations, _typed)
    assert _one_object_each(pairs, _typed)
    assert len(set(map(id, lock_pairs))) < len(lock_pairs)
    assert _one_object_each(lock_pairs)  # LockPair equality is exact
    assert len(set(map(id, machine_steps))) < len(machine_steps)


ONE_AND_TRUE = [
    "machine w\nshared a/1\ninit pc_w() := 0\nterminated: pc_w() = 1\n"
    "rule: par { pc_w() := 1 ; a(1) := 1 ; a(true) := true }\n",
    "machine p\nshared a/1\ninit pc_p() := 0\nterminated: pc_p() = 1\n"
    "rule: par { pc_p() := 1 ; y() := a(1) }\n",
    "machine q\nshared a/1\ninit pc_q() := 0\nterminated: pc_q() = 1\n"
    "rule: par { pc_q() := 1 ; y() := a(true) }\n",
]


def test_shared_objects_keep_one_and_true_apart():
    # a(1) and a(true) are two locations, 1 and true two values, and p's
    # and q's read locks two lock pairs.
    machines = [parse_program(text) for text in ONE_AND_TRUE]
    for seed in range(6):
        trace = run(RunConfig(machines=machines, seed=seed))
        decoded = trace_from_lines(trace_to_lines(trace))
        assert trace_to_lines(decoded) == trace_to_lines(trace)
        _, pairs, lock_pairs = _decoded_objects(decoded)
        locations = {loc for loc, _ in pairs}
        assert {Location("a", (1,)), Location("a", (TRUE,))} <= locations
        values = {(loc, v) for loc, v in pairs if loc.func == "a"}
        assert values >= {(Location("a", (1,)), 1),
                          (Location("a", (TRUE,)), TRUE)}
        reads = {p for p in lock_pairs if not p.w_loc}
        assert reads >= {LockPair(frozenset({Location("a", (1,))})),
                         LockPair(frozenset({Location("a", (TRUE,))}))}


def test_decoded_grants_keep_one_and_true_apart():
    # p's and q's read locks are written `{"r":[["a",[1]]],"w":[]}` and
    # `{"r":[["a",[true]]],"w":[]}`; decoded, they are two unequal pairs,
    # although `1 == True`.
    machines = [parse_program(text) for text in ONE_AND_TRUE]
    for seed in range(6):
        decoded = trace_from_lines(trace_to_lines(
            run(RunConfig(machines=machines, seed=seed))))
        grants = {ev["machine"]: ev["locks"] for rec in decoded.steps
                  for ev in rec.events if ev["kind"] == "lock_grant"}
        assert grants["p"] == LockPair(frozenset({Location("a", (1,))}))
        assert grants["q"] == LockPair(frozenset({Location("a", (TRUE,))}))
        assert grants["p"] != grants["q"]


def test_shared_machine_steps_differ_in_every_field():
    shared = engine._Shared()
    pair = (Location("x", ()), 1)
    fields = [(updates, reads, ctl, proper)
              for updates in ([], [pair]) for reads in ([], [pair])
              for ctl in (None, ("active", "wait-locks"))
              for proper in (False, True)]
    steps = [shared.step(*f) for f in fields for _ in range(2)]
    assert steps[::2] == steps[1::2]
    assert len(set(map(id, steps))) == len(fields) == 16
    assert [(s.updates, s.reads, s.ctl_change, s.proper)
            for s in steps[::2]] == [
        (frozenset(u), tuple(r), c, p) for u, r, c, p in fields]


COLON = parse_program("machine m0\nshared g\ninit pc() := 0\n"
                      "terminated: pc() = 1\nrule: par { pc() := 1 ; "
                      "h() := g() }\n")


def test_a_colon_in_a_string_of_a_step_line_decodes():
    # A step line's `:` count exceeds its keys only if a key is listed
    # twice or a string holds a `:`; the second case must still decode.
    config = RunConfig(machines=[COLON],
                       shared_inits=[(Location("g", ()), "a:b")])
    trace = run(config)
    lines = trace_to_lines(trace)
    assert any('"a:b"' in line for line in lines[1:-1])
    decoded = trace_from_lines(lines)
    assert trace_to_lines(decoded) == lines
    at = next(i for i, line in enumerate(lines[1:-1], 1) if '"a:b"' in line)
    lines[at] = lines[at].replace('"ctl":', '"proper":false,"ctl":', 1)
    with pytest.raises(MalformedTrace, match="duplicate key 'proper'"):
        trace_from_lines(lines)


UNDEF_WRITER = parse_program("machine m0\ninit pc() := 0\ninit x() := 1\n"
                             "terminated: pc() = 1\n"
                             "rule: par { pc() := 1 ; x() := undef }\n")


def test_an_undef_update_removes_the_location_from_the_replayed_state():
    trace = run(RunConfig(machines=[UNDEF_WRITER]))
    assert Location("x", ()) not in trace.final_values
    assert any(v is UNDEF for rec in trace.steps
               for ms in rec.per_machine.values() for _, v in ms.updates)
    decoded = trace_from_lines(trace_to_lines(trace))
    assert decoded.final_values == trace.final_values


SEQ_READER = parse_program("machine m0\ninit pc() := 0\ninit x() := 0\n"
                           "terminated: pc() = 1\nrule: par { pc() := 1 ; "
                           "seq { x() := 5 ; y() := x() + 1 } }\n")


def test_a_read_after_a_seq_write_records_the_value_before_the_step():
    # The seq's second item sees x() = 5, but the step reads x() from the
    # state before it; the replay requires exactly that value.
    trace = run(RunConfig(machines=[SEQ_READER]))
    (step,) = [ms for rec in trace.steps for ms in rec.per_machine.values()
               if ms.proper]
    assert (Location("x", ()), 0) in step.reads
    assert (Location("y", ()), 6) in step.updates
    lines = trace_to_lines(trace)
    assert trace_to_lines(trace_from_lines(lines)) == lines
    at = next(i for i, line in enumerate(lines) if '"proper":true' in line)
    lines[at] = lines[at].replace('["x()",0]', '["x()",5]')
    with pytest.raises(MalformedTrace, match=r'm0 reads x\(\) 5, but the '
                       r'steps before leave 0$'):
        trace_from_lines(lines)


# -- a location is its text, a value plain JSON ------------------------------

ARRAY_READER = parse_program(
    "machine m\nshared arr/1\ninit pc() := 0\nterminated: pc() = 1\n"
    "rule: par { pc() := 1 ; y() := arr(0) + arr(1) }\n")


def _array_reader_lines():
    """The trace of ARRAY_READER, whose config's shared inits give arr(0)
    and arr(1): step 1 grants read locks on both, and step 2 reads both."""
    lines = trace_to_lines(run(RunConfig([ARRAY_READER], shared_inits=[
        (Location("arr", (0,)), 0), (Location("arr", (1,)), 1)])))
    assert '"shared_inits":[["arr(0)",0],["arr(1)",1]]' in lines[0]
    assert '"locks":{"r":["arr(0)","arr(1)"],"w":[]}' in lines[2]
    assert '"reads":[["arr(0)",0],["arr(1)",1],' in lines[3]
    return lines


def _edited(lines, at, edit):
    """The lines with line `at` edited in place by `edit(record)`."""
    rec = json.loads(lines[at])
    edit(rec)
    lines[at] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return lines


def _edited_shared_inits(edit):
    """The lines of `_array_reader_lines` with the header's shared inits
    edited in place by `edit(shared_inits)`, and a matching config
    digest."""
    def header(rec):
        edit(rec["config"]["shared_inits"])
        rec["config_digest"] = engine.payload_digest(rec["config"])
    return _edited(_array_reader_lines(), 0, header)


#: Each text that is no location's text, with the text it stands for.
NON_CANONICAL = {"arr(01)": "arr(1)", "arr( 1)": "arr(1)", "arr(+1)": "arr(1)",
                 "arr(-0)": "arr(0)", "arr(undef)": "arr(1)",
                 "g0": "arr(0)", "1x()": "arr(1)"}


@pytest.mark.parametrize("text", sorted(NON_CANONICAL))
def test_a_non_canonical_location_text_in_a_pair_is_malformed(text):
    """A location text must print back to itself: `arr(01)` is not
    `arr(1)`'s text, although it would parse to the same location.  This
    holds in a record's pair and in a shared init of the header alike."""
    def edit(pairs):
        (entry,) = [p for p in pairs if p[0] == NON_CANONICAL[text]]
        entry[0] = text
    for lines in (
            _edited(_array_reader_lines(), 3,
                    lambda rec: edit(rec["machines"]["m"]["reads"])),
            _edited_shared_inits(edit)):
        with pytest.raises(MalformedTrace, match=re.escape(
                f"malformed location {text!r}")):
            trace_from_lines(lines)


def test_a_shared_init_as_version_4_wrote_it_is_malformed():
    # Version 4 wrote the shared inits tagged: `[["arr",[["i",0]]],["i",0]]`.
    def tag(pairs):
        pairs[0][0] = ["arr", [["i", 0]]]
    with pytest.raises(MalformedTrace, match=re.escape(
            "malformed location ['arr', [['i', 0]]]")):
        trace_from_lines(_edited_shared_inits(tag))

    def tag_value(pairs):
        pairs[0][1] = ["i", 0]
    with pytest.raises(MalformedTrace, match=re.escape(
            "malformed value ['i', 0]")):
        trace_from_lines(_edited_shared_inits(tag_value))


@pytest.mark.parametrize("text", sorted(NON_CANONICAL))
def test_a_non_canonical_location_text_in_a_lock_payload_is_malformed(text):
    def edit(rec):
        locks = rec["events"][0]["locks"]
        locks["r"][locks["r"].index(NON_CANONICAL[text])] = text
    lines = _edited(_array_reader_lines(), 2, edit)
    locks = json.loads(lines[2])["events"][0]["locks"]
    with pytest.raises(MalformedTrace, match=re.escape(
            f"lock_grant event of m has locks {locks!r}")):
        trace_from_lines(lines)


def test_texts_and_values_of_other_types_stay_apart():
    # a(1) and a(true), f('1) and f(1), and the values 1, true and '1 are
    # each two, in pairs and in lock payloads, in either order.
    shared = engine._Shared()
    texts = ["a(1)", "a(true)", "f('1)", "f(1)"]
    locations = [Location("a", (1,)), Location("a", (TRUE,)),
                 Location("f", ("1",)), Location("f", (1,))]
    for order in (texts, texts[::-1]):
        got = [loc for text in order
               for loc, _ in shared.pairs([[text, 1]], "reads")]
        assert got == [locations[texts.index(t)] for t in order]
        assert [type(loc.args[0]) for loc in got] == [
            type(locations[texts.index(t)].args[0]) for t in order]
    values = shared.pairs([["x()", 1], ["x()", True], ["x()", "1"]], "reads")
    assert [type(v) for _, v in values] == [int, Constant, str]
    assert [v for _, v in values] == [1, TRUE, "1"]
    first = shared.locks({"r": ["a(1)", "f('1)"], "w": []})
    second = shared.locks({"r": ["a(true)", "f(1)"], "w": []})
    assert first == LockPair(frozenset({locations[0], locations[2]}))
    assert second == LockPair(frozenset({locations[1], locations[3]}))
    assert first != second


@pytest.mark.parametrize("value", [1.0, 0.0, [1], {"i": 1}, [], {}])
def test_a_float_list_or_object_value_is_malformed(value):
    shared = engine._Shared()
    assert shared.pairs([["x()", 1], ["x()", 0]], "reads") == [
        (Location("x", ()), 1), (Location("x", ()), 0)]
    with pytest.raises(MalformedTrace, match=re.escape(
            f"malformed value {value!r}")):
        shared.pairs([["x()", value]], "reads")


@pytest.mark.parametrize("entry", [1, True, None, ["arr", [1]], {"r": 1}])
def test_a_non_string_entry_in_a_lock_payload_is_malformed(entry):
    def edit(rec):
        rec["events"][0]["locks"]["r"].append(entry)
    lines = _edited(_array_reader_lines(), 2, edit)
    with pytest.raises(MalformedTrace, match="lock_grant event of m has "
                                             "locks"):
        trace_from_lines(lines)
