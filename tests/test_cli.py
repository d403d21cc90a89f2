import json
import pathlib
import re

import pytest

from taserial.cli import main

DATA = pathlib.Path(__file__).parent / "data"

LEFT = """\
machine left
shared acct_a acct_b
init acct_a() := 0
init acct_b() := 0
init pc_left() := 0
terminated: pc_left() = 3
rule: par {
  pc_left() := pc_left() + 1 ;
  if pc_left() = 0 then acct_a() := acct_a() + 1
  else if pc_left() = 1 then skip
  else if pc_left() = 2 then acct_b() := acct_b() + acct_a()
  else skip
}
"""

RIGHT = LEFT.replace("left", "right").replace(
    "acct_a() := acct_a() + 1", "TMP").replace(
    "acct_b() := acct_b() + acct_a()", "acct_a() := acct_a() + acct_b()").replace(
    "TMP", "acct_b() := acct_b() + 1")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "left.tas").write_text(LEFT)
    (tmp_path / "right.tas").write_text(RIGHT)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "programs": ["left.tas", "right.tas"],
        "seed": 4,
        "max_steps": 500,
    }))
    return tmp_path


def test_run_writes_trace_and_exits_zero(workdir, capsys):
    trace_file = workdir / "out.jsonl"
    code = main(["run", str(workdir / "manifest.json"),
                 "--trace", str(trace_file)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "done"
    assert sorted(summary["committed"]) == ["left", "right"]
    assert summary["victimizations"] >= 1  # opposite lock orders deadlock
    assert trace_file.exists()


def test_run_budget_exhaustion_exits_two(workdir):
    assert main(["run", str(workdir / "manifest.json"), "--max-steps", "2"]) == 2


def test_run_missing_manifest_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1


def test_check_accepts_fresh_trace(workdir, capsys):
    trace_file = workdir / "out.jsonl"
    main(["run", str(workdir / "manifest.json"), "--trace", str(trace_file)])
    capsys.readouterr()
    assert main(["check", str(trace_file)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["serializable"] is True
    assert main(["check", str(trace_file), "--brute-force"]) == 0


def test_check_truncated_trace_exits_one(workdir, capsys):
    trace_file = workdir / "out.jsonl"
    main(["run", str(workdir / "manifest.json"), "--trace", str(trace_file)])
    lines = trace_file.read_text().splitlines()
    (workdir / "trunc.jsonl").write_text("\n".join(lines[:-1]))
    assert main(["check", str(workdir / "trunc.jsonl")]) == 1


def test_fuzz_small_batch(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--runs", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "aggregate:" in out
    assert out.count("run seed=") == 3


def test_fuzz_single_machine_trivial(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--runs", "1", "--machines", "1", "--seed", "0"]) == 0


def test_fuzz_seed_env_var(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TASERIAL_SEED", "42")
    main(["fuzz", "--runs", "1"])
    with_env = capsys.readouterr().out
    main(["fuzz", "--runs", "1", "--seed", "42"])
    with_flag = capsys.readouterr().out
    assert with_env == with_flag
    assert "seed=42" in with_env


def test_fuzz_self_test_rejects_forgery(capsys):
    assert main(["fuzz", "--self-test"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"commit_order_rejects": True, "brute_force_rejects": True}


# -- bad input exits 1 with a message ----------------------------------------


def _trace_records(tmp_path, config):
    """The records of the trace of a run of `config`, as `run --trace`
    writes it."""
    from taserial.engine import run, write_trace

    path = tmp_path / "trace.jsonl"
    write_trace(run(config), str(path))
    return [json.loads(line) for line in path.read_text().splitlines()]


def _fuzz_trace_lines(tmp_path, seed=3):
    from taserial.fuzz import random_config

    return _trace_records(tmp_path, random_config(seed))


def _check_records(tmp_path, records):
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return main(["check", str(path)])


def _forge_init(records, func, value):
    """Set the init of func() to `value`, plain JSON as the trace writes
    it, in every program of the header and in its shared inits, with a
    matching config digest, in each recorded read of func() up to the first
    step that writes it, and in the footer's final state if no step writes
    func(): a forged trace the decoder accepts."""
    from taserial.engine import payload_digest

    header = records[0]
    programs = header["config"]["programs"]
    for name, program in programs.items():
        programs[name] = re.sub(rf"^init {func}\(\) := \S+$",
                                f"init {func}() := {json.dumps(value)}",
                                program, flags=re.M)
    text = f"{func}()"
    for entry in header["config"]["shared_inits"]:
        if entry[0] == text:
            entry[1] = value
    header["config_digest"] = payload_digest(header["config"])
    for rec in records[1:-1]:
        for ms in rec["machines"].values():
            for read in ms["reads"]:
                if read[0] == text:
                    read[1] = value
        if any(u[0] == text for ms in rec["machines"].values()
               for u in ms["updates"]):
            return
    (entry,) = [e for e in records[-1]["final_state"] if e[0] == text]
    entry[1] = value


def test_check_solo_rerun_evaluation_error_exits_one(tmp_path, capsys):
    records = _fuzz_trace_lines(tmp_path)
    _forge_init(records, "g0", True)
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs integers" in err


def test_check_unknown_policy_in_header_exits_one(tmp_path, capsys):
    records = _fuzz_trace_lines(tmp_path)
    records[0]["config"]["lock_policy"] = "nonsense"
    assert _check_records(tmp_path, records) == 1
    assert "unknown lock policy 'nonsense'" in capsys.readouterr().err


def test_check_non_dict_step_machines_exits_one(tmp_path, capsys):
    records = _fuzz_trace_lines(tmp_path)
    records[1]["machines"] = [1]
    assert _check_records(tmp_path, records) == 1
    assert capsys.readouterr().err.startswith("malformed trace: ")


@pytest.mark.parametrize("field,value", [("programs", 5),
                                         ("programs", [5]),
                                         ("max_steps", "many")])
def test_run_bad_manifest_field_exits_one(workdir, capsys, field, value):
    manifest = json.loads((workdir / "manifest.json").read_text())
    manifest[field] = value
    (workdir / "bad.json").write_text(json.dumps(manifest))
    assert main(["run", str(workdir / "bad.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_check_tampered_config_digest_exits_one(tmp_path, capsys):
    records = _fuzz_trace_lines(tmp_path)
    records[0]["config_digest"] = "0" * 16
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and "config_digest" in err


def test_check_edited_program_text_exits_one(tmp_path, capsys):
    records = _fuzz_trace_lines(tmp_path)
    programs = records[0]["config"]["programs"]
    name = sorted(programs)[0]
    programs[name] += "init extra() := 1\n"
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and "config_digest" in err


# -- programs nested past the recursion limit --------------------------------

DEPTH = 3000
DEEP_PROGRAMS = {
    "parens": "rule: x() := " + "(" * DEPTH + "1" + ")" * DEPTH,
    "nots": "terminated: " + "not " * DEPTH + "x() = 1\nrule: skip",
    "par": "rule: " + "par { " * DEPTH + "skip" + " }" * DEPTH,
}


@pytest.mark.parametrize("kind", sorted(DEEP_PROGRAMS))
def test_run_deeply_nested_program_exits_one(tmp_path, capsys, kind):
    (tmp_path / "deep.tas").write_text(f"machine deep\n{DEEP_PROGRAMS[kind]}\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"programs": ["deep.tas"]}))
    assert main(["run", str(tmp_path / "manifest.json")]) == 1
    assert capsys.readouterr().err == "error: program nests too deeply\n"


def test_check_deeply_nested_program_in_header_exits_one(tmp_path, capsys):
    from taserial.engine import payload_digest

    records = _fuzz_trace_lines(tmp_path)
    config = records[0]["config"]
    name = sorted(config["programs"])[0]
    config["programs"][name] = f"machine {name}\n{DEEP_PROGRAMS['parens']}\n"
    records[0]["config_digest"] = payload_digest(config)
    assert _check_records(tmp_path, records) == 1
    assert capsys.readouterr().err == "error: program nests too deeply\n"


@pytest.mark.parametrize("registration", [[1], {"left": "x"}, {"left": -1},
                                          {"zz": 1}])
def test_run_bad_registration_exits_one(workdir, capsys, registration):
    manifest = json.loads((workdir / "manifest.json").read_text())
    manifest["registration"] = registration
    (workdir / "bad.json").write_text(json.dumps(manifest))
    assert main(["run", str(workdir / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "registration" in err


@pytest.mark.parametrize("flag,value", [("--locations", "0"),
                                        ("--machines", "0"),
                                        ("--machines", "-2"),
                                        ("--runs", "-1")])
def test_fuzz_bad_size_exits_one(capsys, tmp_path, monkeypatch, flag, value):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", flag, value, "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be at least")
    assert "run seed=" not in captured.out


def test_fuzz_zero_runs_is_fine(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--runs", "0", "--seed", "0"]) == 0
    assert "aggregate: runs=0" in capsys.readouterr().out


BAD_FIELDS = [("seed", "abc"), ("seed", [1]), ("seed", None), ("seed", True),
              ("domain_size", "x"), ("domain_size", 1.5),
              ("domain_size", True), ("max_steps", "x"), ("max_steps", 1.5),
              ("max_steps", 0), ("max_steps", True)]


@pytest.mark.parametrize("field,value", BAD_FIELDS)
def test_run_bad_config_field_type_exits_one(workdir, capsys, field, value):
    manifest = json.loads((workdir / "manifest.json").read_text())
    manifest[field] = value
    (workdir / "bad.json").write_text(json.dumps(manifest))
    assert main(["run", str(workdir / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("field,value", BAD_FIELDS)
def test_check_bad_config_field_type_in_header_exits_one(tmp_path, capsys,
                                                         field, value):
    from taserial.engine import payload_digest

    records = _fuzz_trace_lines(tmp_path)
    records[0]["config"][field] = value
    records[0]["config_digest"] = payload_digest(records[0]["config"])
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and field in err


@pytest.mark.parametrize("which", ["manifest", "program"])
def test_run_non_utf8_input_exits_one(workdir, capsys, which):
    target = workdir / ("manifest.json" if which == "manifest" else "left.tas")
    target.write_bytes(b"\xff\xfe" + target.read_bytes())
    assert main(["run", str(workdir / "manifest.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: not UTF-8 text")


def test_check_non_utf8_trace_exits_one(workdir, capsys):
    trace_file = workdir / "out.jsonl"
    main(["run", str(workdir / "manifest.json"), "--trace", str(trace_file)])
    capsys.readouterr()
    trace_file.write_bytes(trace_file.read_bytes() + b"\xff\n")
    assert main(["check", str(trace_file)]) == 1
    assert capsys.readouterr().err.startswith(
        f"malformed trace: {trace_file}: not UTF-8 text")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_run_max_steps_below_one_exits_one(workdir, capsys, value):
    assert main(["run", str(workdir / "manifest.json"),
                 "--max-steps", value]) == 1
    assert capsys.readouterr().err.startswith("error: max_steps must be >= 1")


def test_check_more_step_records_than_max_steps_exits_one(tmp_path, capsys):
    from taserial.engine import payload_digest

    records = _fuzz_trace_lines(tmp_path)
    records[0]["config"]["max_steps"] = len(records) - 3
    records[0]["config_digest"] = payload_digest(records[0]["config"])
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and "exceed max_steps" in err


# -- the serial run fails on an edited initial state and inits -------------

TAMPERED = """\
machine w
monitored sensor
init pc() := 0
init x() := 0
init a() := 0
init b() := 0
terminated: pc() = 1
rule: par {
  pc() := pc() + 1 ;
  if x() = 1 then sensor() := 1 else skip ;
  y() := a() ;
  y() := b()
}
"""


@pytest.mark.parametrize("func,value,code,message", [
    ("pc", True, 1, "needs integers"),                      # type mismatch
    ("x", 1, 1, "writes monitored location"),               # invalid write
    ("a", 1, 1, ""),                                        # clashing updates
    ("pc", 2, 3, "did not terminate"),                      # never terminates
])
def test_check_serial_run_from_edited_initial_state(tmp_path, capsys, func,
                                                    value, code, message):
    from taserial.dsl import parse_program
    from taserial.engine import RunConfig, run, trace_to_lines

    trace = run(RunConfig(machines=[parse_program(TAMPERED)], max_steps=20))
    assert trace.status == "done"
    records = [json.loads(line) for line in trace_to_lines(trace)]
    _forge_init(records, func, value)
    assert _check_records(tmp_path, records) == code
    out = capsys.readouterr()
    if code == 1:
        assert out.err.startswith("error: ") and message in out.err
    else:
        record = json.loads(out.out)
        assert record["serializable"] is False and message in record["reason"]


def test_check_names_the_lost_update(tmp_path, capsys):
    from taserial.anomaly import forged_lost_update_trace
    from taserial.engine import write_trace

    path = tmp_path / "forged.jsonl"
    write_trace(forged_lost_update_trace(), str(path))
    assert main(["check", str(path)]) == 3
    record = json.loads(capsys.readouterr().out)
    # b's first step read cell() = 0 in the trace, as a's did in the same
    # step, but 1 after a ran alone.
    assert record["witness"] == {
        "machine": "b", "kind": "step", "position": 0, "left_step": 2,
        "what": "read", "location": "cell()", "left": 0, "right": 1}


_WRITE_Q = """\
machine a
shared x
init x() := 0
init pc_a() := 0
terminated: pc_a() = 1
rule: par { pc_a() := 1 ; x() := 'q }
"""

_READ_X = """\
machine b
shared x
init x() := 0
init pc_b() := 0
terminated: pc_b() = 1
rule: par { pc_b() := 1 ; y() := x() + 1 }
"""


def test_check_names_machine_and_serial_step_of_an_evaluation_error(
        tmp_path, capsys):
    # The solo runs side by side, as in forged_lost_update_trace: b read
    # x() = 0, but after a runs alone x() is 'q and b's `x() + 1` fails.
    from taserial.dsl import parse_program
    from taserial.engine import (RunConfig, StepRecord, Trace, run, state_at,
                                 write_trace)

    config = RunConfig(machines=[parse_program(_WRITE_Q),
                                 parse_program(_READ_X)])
    solo_a, solo_b = run(config, only=["a"]), run(config, only=["b"])
    steps = [StepRecord(index=a.index,
                        per_machine={**a.per_machine, **b.per_machine},
                        events=[dict(ev) for ev in a.events + b.events])
             for a, b in zip(solo_a.steps, solo_b.steps)]
    trace = Trace(config=config, initial_values=dict(solo_a.initial_values),
                  steps=steps, final_values={}, status="done",
                  committed=["a", "b"], registered=["a", "b"])
    trace.final_values = state_at(trace, len(steps)).values
    path = tmp_path / "forged.jsonl"
    write_trace(trace, str(path))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: + needs integers, got 'q' (assigning y()) (machine b, serial "
        "step 0)\n")


def test_check_reads_out_of_order_name_no_location(tmp_path, capsys):
    # Same reads and values, listed in another order than the engine's: the
    # step differs, but no location does, so the record is malformed.
    records = _fuzz_trace_lines(tmp_path)
    index, m, step = [(rec["index"], m, ms) for rec in records[1:-1]
                      for m, ms in rec["machines"].items()
                      if ms["proper"] and len(ms["reads"]) > 1][-1]
    step["reads"].reverse()  # the last such step survives cleansing
    _check_malformed(tmp_path, capsys, records,
                     f"step record {index}: {m!r} has reads out of order")


# -- `registered` and `committed` name each machine once ---------------------


def _counter_trace_records(tmp_path, only=None):
    """The records of a counter_config(seed=1) trace, as the engine writes
    it."""
    from taserial.engine import run, write_trace
    from taserial.workloads import counter_config

    path = tmp_path / "counter.jsonl"
    trace = run(counter_config(seed=1), only=only)
    write_trace(trace, str(path))
    return [json.loads(line) for line in path.read_text().splitlines()]


def _check_malformed(tmp_path, capsys, records, message):
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and message in err


def test_check_machine_committed_twice_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    records[-1]["committed"].append("m0")
    _check_malformed(tmp_path, capsys, records, "committed names 'm0' twice")


def test_check_machine_not_in_the_config_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    records[0]["registered"].append("zzz")
    records[-1]["committed"].append("zzz")
    _check_malformed(tmp_path, capsys, records,
                     "registered names 'zzz' which is not in the config")


def test_check_unregistered_machine_committed_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path, only=["m0", "m1"])
    assert records[0]["registered"] == ["m0", "m1"]
    records[-1]["committed"].append("m2")
    _check_malformed(tmp_path, capsys, records,
                     "committed names 'm2' which is not registered")


def test_check_machine_registered_twice_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    records[0]["registered"].append("m0")
    _check_malformed(tmp_path, capsys, records, "registered names 'm0' twice")


# -- the footer agrees with the steps ------------------------------------------


def _budget_trace_records(tmp_path):
    from taserial.engine import run, write_trace
    from taserial.workloads import counter_config

    path = tmp_path / "budget.jsonl"
    write_trace(run(counter_config(seed=1, max_steps=2)), str(path))
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_check_accepts_a_true_budget_footer(tmp_path, capsys):
    records = _budget_trace_records(tmp_path)
    assert records[-1]["status"] == "budget" and len(records) == 4
    _check_records(tmp_path, records)
    assert "malformed" not in capsys.readouterr().err


@pytest.mark.parametrize("budget,status", [(False, "xyz"), (False, "budget"),
                                           (True, "done"), (True, None)])
def test_check_forged_footer_status_exits_one(tmp_path, capsys, budget,
                                              status):
    records = (_budget_trace_records(tmp_path) if budget
               else _counter_trace_records(tmp_path))
    records[-1]["status"] = status
    _check_malformed(tmp_path, capsys, records, f"status {status!r}")


def test_check_budget_footer_before_max_steps_exits_one(tmp_path, capsys):
    records = _budget_trace_records(tmp_path)
    del records[2]
    _check_malformed(tmp_path, capsys, records,
                     "status 'budget' with 0 of 3 machines committed in 1 "
                     "of 2 steps")


@pytest.mark.parametrize("position,index", [(0, 7), (1, 0), (0, "0"),
                                            (1, True)])
def test_check_forged_step_index_exits_one(tmp_path, capsys, position, index):
    records = _counter_trace_records(tmp_path)
    records[1 + position]["index"] = index
    _check_malformed(tmp_path, capsys, records,
                     f"step record {position} has index {index!r}")


def test_check_commit_order_not_of_the_commit_events_exits_one(tmp_path,
                                                              capsys):
    records = _counter_trace_records(tmp_path)
    order = records[-1]["committed"]
    assert len(order) == 3
    records[-1]["committed"] = order[::-1]
    _check_malformed(tmp_path, capsys, records,
                     f"committed {order[::-1]} is not the order of the "
                     f"commit events {order}")


# -- values are decoded exactly, and 1 is not true ----------------------------

FLAG = """\
machine m
init flag() := true
init n() := 0
terminated: n() = 1
rule: if flag() then n() := 1 else n() := 2
"""


@pytest.mark.parametrize("field", ["updates", "final_state"])
def test_check_object_in_place_of_a_pair_exits_one(tmp_path, capsys, field):
    # An object of two keys iterates as the pair of its keys: here as
    # ["x()", "q"], the pair it replaces.
    from taserial.dsl import parse_program
    from taserial.engine import RunConfig

    records = _trace_records(tmp_path, RunConfig(
        machines=[parse_program(_WRITE_Q)]))
    record = records[-1] if field == "final_state" else next(
        ms for rec in records[1:-1] for ms in rec["machines"].values()
        if ms["proper"])
    pairs = record[field]
    pairs[pairs.index(["x()", "q"])] = {"x()": 0, "q": 0}
    _check_malformed(tmp_path, capsys, records,
                     f"{field} entry is not a list: {{'x()': 0, 'q': 0}}")


def test_check_read_of_one_forged_for_true_exits_one(tmp_path, capsys):
    from taserial.dsl import parse_program
    from taserial.engine import RunConfig

    records = _trace_records(tmp_path, RunConfig(
        machines=[parse_program(FLAG)]))
    (step,) = [ms for rec in records[1:-1] for ms in rec["machines"].values()
               if ms["proper"]]
    (read,) = [r for r in step["reads"] if r[0] == "flag()"]
    assert read[1] is True
    read[1] = 1
    _check_malformed(tmp_path, capsys, records,
                     'm reads flag() 1, but the steps before leave true')


@pytest.mark.parametrize("value", [["s", 0], ["i", "0"], ["x", 0],
                                   ["i", False]])
def test_check_forged_value_tag_exits_one(tmp_path, capsys, value):
    # A value is plain JSON: a tagged one, of any tag, is none.
    records = _counter_trace_records(tmp_path)
    read = next(r for rec in records[1:-1] for ms in rec["machines"].values()
                if ms["proper"] for r in ms["reads"] if r[1] == 0)
    read[1] = value
    _check_malformed(tmp_path, capsys, records,
                     f"malformed value {value!r}")


def test_check_step_after_the_last_commit_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    last = records[-2]
    assert any(ev["kind"] == "commit" for ev in last["events"])
    records.insert(-1, {"type": "step", "index": last["index"] + 1,
                        "machines": {}, "events": []})
    _check_malformed(tmp_path, capsys, records, "status 'done'")


def test_check_accepts_a_trace_in_which_nothing_registered(tmp_path, capsys):
    records = _counter_trace_records(tmp_path, only=[])
    assert records[-1]["status"] == "done" and len(records) == 2
    assert _check_records(tmp_path, records) == 0


def test_run_names_the_machine_whose_own_updates_clash(tmp_path, capsys):
    (tmp_path / "m.tas").write_text(
        "machine m terminated: false rule: par { x() := 1 ; x() := 2 }")
    (tmp_path / "manifest.json").write_text(json.dumps({"programs": ["m.tas"]}))
    assert main(["run", str(tmp_path / "manifest.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 0: machine m writes clashing updates")
    assert "invariant violation" not in err


INDEXED = """\
machine {name}
shared a
init pc_{name}() := 0
terminated: pc_{name}() = 1
rule: par {{ pc_{name}() := 1 ; a({arg}) := 5 }}
"""


@pytest.mark.parametrize("arg,written", [("true", '"a(true)"'),
                                         ("1", '"a(1)"')])
def test_run_and_check_locks_on_an_indexed_location(tmp_path, capsys, arg,
                                                    written):
    for name in ("m0", "m1"):
        (tmp_path / f"{name}.tas").write_text(
            INDEXED.format(name=name, arg=arg))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"programs": ["m0.tas", "m1.tas"], "seed": 1}))
    trace_file = tmp_path / "t.jsonl"
    assert main(["run", str(tmp_path / "manifest.json"),
                 "--trace", str(trace_file)]) == 0
    grants = [ev for line in trace_file.read_text().splitlines()[1:-1]
              for ev in json.loads(line)["events"]
              if ev["kind"] == "lock_grant"]
    assert len(grants) == 2
    # A target is read too, so the write lock comes with a read lock.
    assert (f'"locks":{{"r":[{written}],"w":[{written}]}}'
            in trace_file.read_text())
    assert main(["check", str(trace_file)]) == 0


@pytest.mark.parametrize("location", [[7, []], ["x", 7], ["x"], "x",
                                      ["x", [], []]])
def test_check_forged_location_exits_one(tmp_path, capsys, location):
    # A location is its text: a list, as the tagged notation wrote it, or
    # a text without arguments in parentheses is none.
    records = _counter_trace_records(tmp_path)
    read = next(r for rec in records[1:-1] for ms in rec["machines"].values()
                if ms["proper"] for r in ms["reads"])
    read[0] = location
    _check_malformed(tmp_path, capsys, records,
                     f"malformed location {location!r}")


@pytest.mark.parametrize("state_hash", [5, None, "abc", '0123456789abcde"',
                                        "0123456789ABCDEF"])
def test_check_forged_state_hash_shape_exits_one(tmp_path, capsys,
                                                 state_hash):
    # Of any shape, a `state_hash` is a key the step records of this version
    # do not have.
    records = _counter_records(tmp_path)
    records[1]["state_hash"] = state_hash
    _check_malformed(tmp_path, capsys, records,
                     "step record 0 has the keys ['events', 'index', "
                     "'machines', 'state_hash', 'type']")


def test_check_version_three_step_with_a_state_hash_exits_one(tmp_path,
                                                               capsys):
    from taserial.engine import run, state_at, state_digest
    from taserial.workloads import counter_config

    # The `state_hash` versions 1 and 2 wrote: the digest of the state after
    # the step.
    state_hash = state_digest(state_at(run(counter_config(seed=1)), 1))
    records = _counter_records(tmp_path)
    records[0]["version"] = 3
    records[1]["state_hash"] = state_hash
    _check_malformed(tmp_path, capsys, records, "unsupported trace version 3")
    records = _counter_records(tmp_path)  # and version 5
    records[1]["state_hash"] = state_hash
    _check_keys_rejected(tmp_path, capsys, records)


# -- each recorded read is the replayed value before its step ----------------


def test_check_forged_read_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    assert records[3]["index"] == 2
    read = records[3]["machines"]["m2"]["reads"][0]
    assert read == ["pc_m2()", 0]
    read[1] = 7
    _check_malformed(tmp_path, capsys, records,
                     'step record 2: m2 reads pc_m2() 7, but the steps '
                     'before leave 0')


def test_check_forged_read_in_an_undone_step_exits_one(tmp_path, capsys):
    # Cleansing drops the undone step before the serial run compares reads,
    # so only the replay sees this forgery.
    records, _ = _victim_records(tmp_path)
    reads = records[4]["machines"]["alpha"]["reads"]
    location, value = reads[0]
    reads[0] = [location, value + 1]
    _check_malformed(tmp_path, capsys, records,
                     f"step record 3: alpha reads {location} {value + 1}, "
                     f"but the steps before leave {value}")


def test_check_read_is_undef_exactly_where_the_location_is_absent(tmp_path,
                                                                  capsys):
    records = _counter_trace_records(tmp_path)
    reads = records[3]["machines"]["m2"]["reads"]
    reads.append(["zz()", None])  # decodes; the serial run differs
    assert _check_records(tmp_path, records) == 3
    capsys.readouterr()
    reads[-1] = ["zz()", 0]
    _check_malformed(tmp_path, capsys, records,
                     'step record 2: m2 reads zz() 0, but the steps before '
                     'leave null')
    reads.pop()
    reads[0] = ["pc_m2()", None]
    _check_malformed(tmp_path, capsys, records,
                     'step record 2: m2 reads pc_m2() null, but the steps '
                     'before leave 0')


# -- a list in a record is a JSON list, not an object ------------------------


def _empty_state_records(tmp_path):
    """A one-machine trace whose states are empty."""
    from taserial.dsl import parse_program
    from taserial.engine import RunConfig

    return _trace_records(tmp_path, RunConfig(machines=[parse_program(
        "machine m\nterminated: true\nrule: skip\n")]))


@pytest.mark.parametrize("field", ["events", "reads", "updates", "restored",
                                   "shared_inits", "final_state"])
def test_check_object_in_place_of_a_list_exits_one(tmp_path, capsys, field):
    """`{}` iterates as an empty list, but does not decode as one; each
    list here is an empty one in the trace."""
    if field in ("shared_inits", "final_state"):
        records = _empty_state_records(tmp_path)
        record = records[0]["config"] if field == "shared_inits" else (
            records[-1])
    elif field == "restored":  # a lock-only undo restores nothing
        records, undo = _victim_records(tmp_path)
        record = dict(undo, origin_step=None, restored=[],
                      locks={"r": [], "w": []})
        records[8]["events"].append(record)
    else:
        records = _counter_trace_records(tmp_path)
        record = records[10]  # step 9: no events, no reads, no updates
        if field != "events":
            record = record["machines"]["m0"]
    assert record[field] == []
    record[field] = {}
    if field == "shared_inits":  # with a matching config digest
        from taserial.engine import payload_digest

        records[0]["config_digest"] = payload_digest(record)
    _check_malformed(tmp_path, capsys, records, f"{field} is not a list: {{}}")


# -- records of the wrong shape and forged fields ----------------------------


def _counter_records(tmp_path):
    from taserial.workloads import counter_config

    return _trace_records(tmp_path, counter_config(seed=1))


@pytest.mark.parametrize("value", [[], 7])
@pytest.mark.parametrize("end", [0, -1])
def test_check_first_or_last_line_not_an_object_exits_one(tmp_path, capsys,
                                                          end, value):
    records = _counter_records(tmp_path)
    records[end] = value
    assert _check_records(tmp_path, records) == 1
    assert capsys.readouterr().err.startswith("malformed trace: missing ")


@pytest.mark.parametrize("value", [[3], {"a": 1}])
@pytest.mark.parametrize("field", ["origin_step", "machine"])
def test_check_unhashable_undo_field_exits_one(tmp_path, capsys, field,
                                               value):
    from taserial.workloads import full_victim_config

    records = _trace_records(tmp_path, full_victim_config(seed=1))
    (undo,) = [ev for rec in records[1:-1] for ev in rec["events"]
               if ev["kind"] == "undo"]
    undo[field] = value
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and "undo " in err


def _first_proper(records):
    return next(ms for rec in records[1:-1]
                for ms in rec["machines"].values() if ms["proper"])


@pytest.mark.parametrize("value", ["yes", 1, None])
def test_check_forged_proper_exits_one(tmp_path, capsys, value):
    records = _counter_records(tmp_path)
    _first_proper(records)["proper"] = value
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and "has proper" in err


@pytest.mark.parametrize("value", [{"a": 1}, True, "active", ["active"],
                                   ["active", "nowhere"], [["active"], 1]])
def test_check_forged_ctl_exits_one(tmp_path, capsys, value):
    records = _counter_records(tmp_path)
    _first_proper(records)["ctl"] = value
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and "has ctl" in err


# -- events: kinds, fields, machines and undo origins --------------------------


@pytest.mark.parametrize("event,message", [
    ({"kind": "teleport", "machine": "m0"}, "no 'teleport' event has"),
    ({"kind": ["commit"], "machine": "m0"}, "no ['commit'] event has"),
    ({"machine": "m0"}, "no None event has the fields ['machine']"),
])
def test_check_unknown_event_kind_exits_one(tmp_path, capsys, event,
                                            message):
    records = _counter_records(tmp_path)
    records[1]["events"].append(event)
    _check_malformed(tmp_path, capsys, records, message)


@pytest.mark.parametrize("kind,edit", [
    ("lock_grant", lambda ev: ev.pop("locks")),
    ("lock_request", lambda ev: ev.update(locks={"r": [], "w": []})),
    ("commit", lambda ev: ev.update(at=3)),
])
def test_check_event_with_other_fields_exits_one(tmp_path, capsys, kind,
                                                 edit):
    records = _counter_records(tmp_path)
    ev = next(ev for rec in records[1:-1] for ev in rec["events"]
              if ev["kind"] == kind)
    edit(ev)
    _check_malformed(tmp_path, capsys, records,
                     f"no {kind!r} event has the fields {sorted(ev)}")


@pytest.mark.parametrize("machine", ["m2", "zzz", 7])
def test_check_event_of_an_unregistered_machine_exits_one(tmp_path, capsys,
                                                          machine):
    records = _counter_trace_records(tmp_path, only=["m0", "m1"])
    records[1]["events"].append({"kind": "victimize", "machine": machine})
    _check_malformed(tmp_path, capsys, records,
                     f"victimize event names {machine!r}, which is not "
                     f"registered")


def test_check_step_record_of_an_unregistered_machine_exits_one(tmp_path,
                                                                capsys):
    records = _counter_trace_records(tmp_path, only=["m0", "m1"])
    machines = records[1]["machines"]
    machines["m2"] = machines["m0"]
    _check_malformed(tmp_path, capsys, records,
                     "step record 0: machine 'm2' is not registered")


# -- control states: each event and record fits its machine's ----------------
# counter_config(seed=1): m2 changes to done in step 4 and commits in step 5;
# m0 waits for locks in steps 1 and 2.  Step i is records[i + 1].  The tests
# that forge idle records take version-1 input, which has them.

_IDLE = {"ctl": None, "proper": False, "reads": [], "updates": []}


@pytest.mark.parametrize("kind", ["lock_request", "victimize"])
@pytest.mark.parametrize("step", [5, 6])
def test_check_event_after_its_machines_commit_exits_one(tmp_path, capsys,
                                                         kind, step):
    records = _counter_trace_records(tmp_path)
    records[step + 1]["events"].append({"kind": kind, "machine": "m2"})
    _check_malformed(tmp_path, capsys, records,
                     f"step record {step}: {kind} event of m2 in control "
                     f"state 'committed'")


def test_check_record_after_its_machines_commit_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    records[7]["machines"]["m2"] = _IDLE
    _check_malformed(tmp_path, capsys, records,
                     "step record 6: 'm2' has a record in control state "
                     "'committed'")


def test_check_commit_without_a_change_to_done_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    assert records[5]["machines"]["m2"]["ctl"] == ["active", "done"]
    # A proper step in place of the change: a record must do one of them.
    records[5]["machines"]["m2"].update(ctl=None, proper=True)
    _check_malformed(tmp_path, capsys, records,
                     "step record 5: commit event of m2 in control state "
                     "'active'")


@pytest.mark.parametrize("ctl", [["done", "unregistered"],
                                 ["active", "wait-locks"],
                                 ["wait-locks", "done"]])
def test_check_ctl_change_not_from_the_current_state_exits_one(tmp_path,
                                                              capsys, ctl):
    records = _counter_trace_records(tmp_path)
    assert "m0" not in records[3]["machines"]  # m0 waits for locks
    records[3]["machines"]["m0"] = dict(_IDLE, ctl=ctl)
    _check_malformed(tmp_path, capsys, records,
                     f"step record 2: 'm0' has ctl {ctl!r} in control state "
                     f"'wait-locks'")


def _late_m2_records(tmp_path):
    """counter_config(seed=1) with m2 registering in step 3."""
    from taserial.workloads import counter_config

    return _trace_records(tmp_path,
                          counter_config(seed=1, registration={"m2": 3}))


def test_check_record_before_its_machines_register_event_exits_one(tmp_path,
                                                                   capsys):
    records = _late_m2_records(tmp_path)
    records[1]["machines"]["m2"] = _IDLE
    _check_malformed(tmp_path, capsys, records,
                     "step record 0: 'm2' has a record in control state "
                     "'unregistered'")


@pytest.mark.parametrize("machine,step,state", [("m2", 0, "unregistered"),
                                                ("m0", 1, "wait-locks")])
def test_check_register_event_out_of_place_exits_one(tmp_path, capsys,
                                                     machine, step, state):
    """An event before its machine's register event, and a second one."""
    records = _late_m2_records(tmp_path)
    kind = "lock_request" if state == "unregistered" else "register"
    records[step + 1]["events"].insert(0, {"kind": kind, "machine": machine})
    _check_malformed(tmp_path, capsys, records,
                     f"step record {step}: {kind} event of {machine} in "
                     f"control state {state!r}")


@pytest.mark.parametrize("step", [1, 5])
def test_check_register_event_not_in_its_registration_step_exits_one(
        tmp_path, capsys, step):
    from taserial.engine import payload_digest

    records = _late_m2_records(tmp_path)
    assert {"kind": "register", "machine": "m2"} in records[4]["events"]
    records[0]["config"]["registration"] = {"m2": step}
    records[0]["config_digest"] = payload_digest(records[0]["config"])
    _check_malformed(tmp_path, capsys, records,
                     f"step record 3: m2 registers in step {step}")


def test_check_registered_machine_without_its_register_event_exits_one(
        tmp_path, capsys):
    """Deleting m2's register event and records from a budget trace would
    hide its uncommitted steps from the checker."""
    records = _budget_trace_records(tmp_path)
    for rec in records[1:-1]:
        rec["events"] = [ev for ev in rec["events"] if ev["machine"] != "m2"]
        rec["machines"].pop("m2", None)
    _check_malformed(tmp_path, capsys, records,
                     "step record 0: no register event of m2")


def _victim_records(tmp_path):
    """full_victim_config(seed=1): alpha's proper step 3 is undone in step
    6; omega's step 2 and alpha's step 14 are proper, alpha's step 1 is not."""
    from taserial.workloads import full_victim_config

    records = _trace_records(tmp_path, full_victim_config(seed=1))
    (undo,) = [ev for rec in records[1:-1] for ev in rec["events"]
               if ev["kind"] == "undo"]
    assert (undo["machine"], undo["origin_step"]) == ("alpha", 3)
    assert records[7]["index"] == 6 and undo in records[7]["events"]
    return records, undo


@pytest.mark.parametrize("origin", [1, 2, 6, 14, -1, 3.0, True])
def test_check_undo_of_no_earlier_proper_step_exits_one(tmp_path, capsys,
                                                        origin):
    records, undo = _victim_records(tmp_path)
    undo["origin_step"] = origin
    _check_malformed(tmp_path, capsys, records,
                     f"step record 6: undo of alpha names {origin!r}, not an "
                     f"earlier step to undo")


@pytest.mark.parametrize("later", [False, True])
def test_check_step_undone_twice_exits_one(tmp_path, capsys, later):
    records, undo = _victim_records(tmp_path)
    records[8 if later else 7]["events"].append(dict(undo))
    _check_malformed(tmp_path, capsys, records,
                     "undo of alpha names 3, not an earlier step to undo")


def test_check_accepts_an_undo_of_a_lock_only_entry(tmp_path, capsys):
    records, undo = _victim_records(tmp_path)
    records[8]["events"].append(dict(undo, origin_step=None, restored=[],
                                     locks={"r": [], "w": []}))
    assert _check_records(tmp_path, records) == 0


# -- every record kind has exactly the keys the encoder writes ---------------


def _record_of_kind(records, kind):
    return {"header": lambda: records[0],
            "config": lambda: records[0]["config"],
            "step": lambda: records[1],
            "machine": lambda: _first_proper(records),
            "final": lambda: records[-1]}[kind]()


def _check_keys_rejected(tmp_path, capsys, records):
    from taserial.engine import payload_digest

    records[0]["config_digest"] = payload_digest(records[0]["config"])
    _check_malformed(tmp_path, capsys, records, "has the keys")


@pytest.mark.parametrize("kind", ["header", "config", "step", "machine",
                                  "final"])
def test_check_record_with_an_extra_key_exits_one(tmp_path, capsys, kind):
    records = _counter_records(tmp_path)
    _record_of_kind(records, kind)["zzz"] = 1
    _check_keys_rejected(tmp_path, capsys, records)


@pytest.mark.parametrize("kind,key", [
    ("header", "registered"), ("config", "run_mode"), ("config", "seed"),
    ("step", "events"), ("machine", "reads"), ("final", "final_state")])
def test_check_record_without_one_of_its_keys_exits_one(tmp_path, capsys,
                                                        kind, key):
    """No key has a default: a config without `run_mode` is not read as
    sync mode."""
    records = _counter_records(tmp_path)
    del _record_of_kind(records, kind)[key]
    _check_keys_rejected(tmp_path, capsys, records)


# -- settings: only `RunConfig`'s, each checked as given ---------------------


def test_run_misspelled_manifest_keys_exit_one(workdir, capsys):
    manifest = json.loads((workdir / "manifest.json").read_text())
    manifest.update(wait_mod="suspend", max_step=3)
    (workdir / "bad.json").write_text(json.dumps(manifest))
    assert main(["run", str(workdir / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "['max_step', 'wait_mod']" in err


def _check_forged_config(tmp_path, capsys, edit, message):
    from taserial.engine import payload_digest

    records = _counter_records(tmp_path)
    edit(records[0]["config"])
    records[0]["config_digest"] = payload_digest(records[0]["config"])
    _check_malformed(tmp_path, capsys, records, message)


def test_check_registration_as_a_list_exits_one(tmp_path, capsys):
    _check_forged_config(tmp_path, capsys,
                         lambda c: c.update(registration=[["m0", 0]]),
                         "registration must map machine names to steps")


def test_check_renamed_programs_key_exits_one(tmp_path, capsys):
    def rename(config):
        config["programs"]["zzz"] = config["programs"].pop("m0")

    _check_forged_config(tmp_path, capsys, rename,
                         "programs key 'zzz' holds machine 'm0'")


# -- lock payloads: the shape `trace_to_lines` writes ------------------------


@pytest.mark.parametrize("locks", [
    123,
    {"r": ["total()"]},
    {"r": ["total"], "w": []},
    {"r": ["7()"], "w": []},
    {"r": ["a(null)"], "w": []},
    {"r": [], "w": [], "x": []},
], ids=["int", "no-w", "one-element-entry", "non-string-function",
        "null-argument", "extra-key"])
def test_check_malformed_lock_payload_exits_one(tmp_path, capsys, locks):
    records = _counter_records(tmp_path)
    ev = next(ev for rec in records[1:-1] for ev in rec["events"]
              if ev["kind"] == "lock_grant")
    ev["locks"] = locks
    _check_malformed(tmp_path, capsys, records,
                     f"lock_grant event of {ev['machine']} has locks {locks!r}")


# -- only acting machines have records; shared inits once -----------------


def test_check_explicit_idle_record_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    assert "m0" not in records[2]["machines"]  # m0 waits for locks
    records[2]["machines"]["m0"] = _IDLE
    _check_malformed(tmp_path, capsys, records,
                     "step record 1: 'm0' has a record that neither steps "
                     "nor changes its control state")


def test_check_sync_step_without_an_active_machines_record_exits_one(
        tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    del records[1]["machines"]["m1"]
    _check_malformed(tmp_path, capsys, records,
                     "step record 0: no record of active machines ['m1']")


@pytest.mark.parametrize("shared,message", [
    ({"g0()": 1}, "shared_inits is not a list: {'g0()': 1}"),
    ([["g0()"]], "not enough values to unpack"),
    ([5], "cannot unpack non-iterable int object"),
    ([["g0()", ["i", 1]]], "malformed value ['i', 1]"),
    ([[["g0", []], 1]], "malformed location ['g0', []]"),
])
def test_check_shared_inits_not_pairs_exits_one(tmp_path, capsys, shared,
                                                message):
    _check_forged_config(tmp_path, capsys,
                         lambda c: c.update(shared_inits=shared), message)


def test_check_shared_init_listed_twice_exits_one(tmp_path, capsys):
    from taserial.engine import payload_digest

    records = _fuzz_trace_lines(tmp_path)
    shared = records[0]["config"]["shared_inits"]
    assert shared[0][0] == "g0()"
    shared.append(shared[0])
    records[0]["config_digest"] = payload_digest(records[0]["config"])
    _check_malformed(tmp_path, capsys, records,
                     "shared init of Location(func='g0', args=()) listed "
                     "twice")


def test_check_shared_init_conflicting_with_a_program_exits_one(tmp_path,
                                                                capsys):
    _check_forged_config(
        tmp_path, capsys,
        lambda c: c["shared_inits"].append(["total()", 5]),
        "conflicting initial values for Location(func='total', args=()): "
        "0 vs 5")


def test_check_header_without_shared_inits_exits_one(tmp_path, capsys):
    _check_forged_config(tmp_path, capsys, lambda c: c.pop("shared_inits"),
                         "the header's config has the keys")


def test_check_rejects_versions_one_to_four(tmp_path, capsys):
    """`check` reads the one version `run` writes: a trace of version 1 to
    4 exits 1 with one line that names its version, and no traceback.  Each
    `tests/data/trace_v<version>.jsonl` holds the header and final lines of
    `run(random_config(3))` as that version's writer wrote them."""
    for version in (1, 2, 3, 4):
        assert main(["check", str(DATA / f"trace_v{version}.jsonl")]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            f"malformed trace: unsupported trace version {version}: this "
            f"taserial reads version 5\n")


# -- bad input: huge integers, unwritable trace paths ------------------------


def test_check_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    path = tmp_path / "huge.jsonl"
    lines = [json.dumps(r) for r in records]
    lines[1] = lines[1].replace('"index": 0', '"index": ' + "9" * 5001)
    assert '"index": 999' in lines[1]
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: invalid JSON: ")


def test_run_integer_past_the_digit_limit_in_manifest_exits_one(workdir,
                                                                capsys):
    text = (workdir / "manifest.json").read_text()
    assert '"seed": 4' in text
    (workdir / "huge.json").write_text(
        text.replace('"seed": 4', '"seed": ' + "4" * 5001))
    assert main(["run", str(workdir / "huge.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workdir / 'huge.json'}: invalid JSON: ")


def test_run_trace_into_a_missing_directory_exits_one(workdir, capsys):
    path = workdir / "no" / "such" / "dir" / "t.jsonl"
    assert main(["run", str(workdir / "manifest.json"),
                 "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert not path.parent.exists()


def _deep_json():
    return "[" * 100000 + "]" * 100000


def test_check_deeply_nested_trace_line_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.jsonl"
    path.write_text(_deep_json() + "\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "malformed trace: invalid JSON: nests too deeply\n")


def test_run_deeply_nested_manifest_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"programs": ' + _deep_json() + "}")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: invalid JSON: nests too deeply\n")


def test_fuzz_failure_dump_into_a_directory_exits_three(capsys, tmp_path,
                                                        monkeypatch):
    """Seed 2 exhausts its budget; a directory stands where its trace would
    be dumped, so that seed reports the error and the next one still runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fuzz-fail-2.jsonl").mkdir()
    assert main(["fuzz", "--machines", "8", "--locations", "6", "--runs", "4",
                 "--seed", "0"]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("error: fuzz-fail-2.jsonl: ")
    assert "run seed=2: status=budget" in out and "run seed=3:" in out
    assert "aggregate: runs=4 failures=1 " in out
    assert (tmp_path / "fuzz-fail-2.jsonl").is_dir()


# -- interleave mode: one agent per step, the one the seed draws -------------


def _interleave_records(tmp_path):
    """counter_config(3, 2, seed=1) in interleave mode: m1 acts in step 0,
    m2 in step 3, and the controller grants locks in a later step."""
    from taserial.workloads import counter_config

    records = _trace_records(tmp_path, counter_config(3, 2, seed=1,
                                                      run_mode="interleave"))
    assert list(records[1]["machines"]) == ["m1"]
    assert list(records[4]["machines"]) == ["m2"]
    return records


def _controller_step(records):
    """The first step record with a lock grant: the controller acted in it."""
    return next(rec for rec in records[1:-1]
                if any(ev["kind"] == "lock_grant" for ev in rec["events"]))


def test_check_interleaved_step_with_two_records_exits_one(tmp_path, capsys):
    records = _interleave_records(tmp_path)
    records[1]["machines"]["m2"] = records[4]["machines"].pop("m2")
    _check_malformed(tmp_path, capsys, records,
                     "step record 0: records of ['m1', 'm2'], but only m1 "
                     "acts in it")


def test_check_interleaved_record_of_another_machine_exits_one(tmp_path,
                                                                capsys):
    records = _interleave_records(tmp_path)
    records[1]["machines"]["m0"] = records[1]["machines"].pop("m1")
    _check_malformed(tmp_path, capsys, records,
                     "step record 0: records of ['m0'], but only m1 acts in it")


@pytest.mark.parametrize("event", [
    {"kind": "lock_grant", "machine": "m1", "locks": {"r": [], "w": []}},
    {"kind": "lock_refuse", "machine": "m1", "locks": {"r": [], "w": []}},
    {"kind": "victimize", "machine": "m0"},
    {"kind": "recovered", "machine": "m2"},
    {"kind": "undo", "machine": "m1", "locks": {"r": [], "w": []},
     "origin_step": None, "restored": []},
    {"kind": "lock_request", "machine": "m0"},
], ids=lambda ev: ev["kind"] + "-" + ev["machine"])
def test_check_interleaved_event_of_another_agent_exits_one(tmp_path, capsys,
                                                            event):
    """A controller event, or another machine's lock request, in the step
    where m1 acted."""
    records = _interleave_records(tmp_path)
    records[1]["events"].append(event)
    _check_malformed(tmp_path, capsys, records,
                     f"step record 0: {event['kind']} event of "
                     f"{event['machine']}, but only m1 acts in it")


def test_check_interleaved_commit_in_a_machines_step_exits_one(tmp_path,
                                                               capsys):
    """The first commit moved into the next step in which a machine acted."""
    records = _interleave_records(tmp_path)
    at, commit = next((i, ev) for i, rec in enumerate(records[1:-1], 1)
                      for ev in rec["events"] if ev["kind"] == "commit")
    records[at]["events"].remove(commit)
    later = next(i for i in range(at + 1, len(records) - 1)
                 if records[i]["machines"])
    records[later]["events"].append(commit)
    (agent,) = records[later]["machines"]
    _check_malformed(tmp_path, capsys, records,
                     f"step record {later - 1}: commit event of "
                     f"{commit['machine']}, but only {agent} acts in it")


def test_check_interleaved_machine_record_in_a_controller_step_exits_one(
        tmp_path, capsys):
    records = _interleave_records(tmp_path)
    step = _controller_step(records)
    step["machines"]["m1"] = records[1]["machines"].pop("m1")
    _check_malformed(tmp_path, capsys, records,
                     f"step record {step['index']}: records of ['m1'], but "
                     f"only the controller acts in it")


def test_check_interleaved_lock_request_in_a_controller_step_exits_one(
        tmp_path, capsys):
    records = _interleave_records(tmp_path)
    step = _controller_step(records)
    step["events"].append({"kind": "lock_request", "machine": "m0"})
    _check_malformed(tmp_path, capsys, records,
                     f"step record {step['index']}: lock_request event of "
                     f"m0, but only the controller acts in it")


# -- duplicate keys, invalid JSON on any line, the replayed final state ------


def _counter_trace_text():
    from taserial.engine import run, trace_to_lines
    from taserial.workloads import counter_config

    return trace_to_lines(run(counter_config(3, 2, seed=1)))


def _check_lines(tmp_path, capsys, lines, message):
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and message in err, err


@pytest.mark.parametrize("line,old,new,key", [
    (0, '{"config":{', '{"config":{"seed":99,', "seed"),        # config
    (None, '{"events":', '{"index":7,"events":', "index"),     # step record
    (None, '"ctl":', '"proper":true,"ctl":', "proper"),       # machine record
    (None, '{"kind":', '{"machine":"m0","kind":', "machine"),  # event
    (None, '"r":[', '"w":[],"r":[', "w"),                     # lock payload
    (None, '"machines":{', '"machines":{"m0":{},', "m0"),     # machines
    (-1, '{"committed":', '{"status":"done","committed":', "status"),
])
def test_check_duplicate_key_exits_one(tmp_path, capsys, line, old, new, key):
    lines = _counter_trace_text()
    if line is None:  # a step line with a record of m0 and a lock event
        line = next(i for i, text in enumerate(lines[1:-1], 1)
                    if '"m0":' in text and '"locks"' in text)
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    _check_lines(tmp_path, capsys, lines,
                 f"invalid JSON: duplicate key '{key}'")


@pytest.mark.parametrize("where", ["header", "step", "final"])
def test_check_invalid_json_on_any_line_exits_one(tmp_path, capsys, where):
    lines = _counter_trace_text()
    at = {"header": 0, "step": len(lines) // 2, "final": -1}[where]
    lines[at] = lines[at][:-1] + ",}"
    _check_lines(tmp_path, capsys, lines, "invalid JSON: ")


def test_run_manifest_with_a_key_listed_twice_exits_one(workdir, capsys):
    text = (workdir / "manifest.json").read_text()
    (workdir / "twice.json").write_text(
        text.replace('"seed": 4', '"seed": 4, "seed": 5'))
    assert main(["run", str(workdir / "twice.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / 'twice.json'}: invalid JSON: duplicate key "
        f"'seed'\n")


def _final_entry(records, func):
    (entry,) = [e for e in records[-1]["final_state"] if e[0] == f"{func}()"]
    return entry


def test_check_forged_final_state_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    assert _final_entry(records, "pc_m0")[1] == 2
    _final_entry(records, "pc_m0")[1] = 999
    _check_malformed(tmp_path, capsys, records,
                     'final_state gives pc_m0() 999, but the steps leave 2')


def test_check_update_in_a_record_that_is_not_proper_exits_one(tmp_path,
                                                                capsys):
    # m1's change to done writes pc_m1() := 99, and the footer agrees: no
    # later read sees the write, and no serial run ends with that value.
    records = _counter_trace_records(tmp_path)
    m1 = records[10]["machines"]["m1"]
    assert (records[10]["index"], m1["ctl"], m1["proper"]) == (
        9, ["active", "done"], False)
    m1["updates"] = [["pc_m1()", 99]]
    _final_entry(records, "pc_m1")[1] = 99
    _check_malformed(tmp_path, capsys, records,
                     "step record 9: 'm1' has reads or updates in a record "
                     "that is not proper")


def test_check_final_state_with_a_location_more_or_less_exits_one(tmp_path,
                                                                 capsys):
    records = _counter_trace_records(tmp_path)
    records[-1]["final_state"].append(["zz()", 0])
    _check_malformed(tmp_path, capsys, records,
                     'final_state gives zz() 0, but the steps leave none')
    records = _counter_trace_records(tmp_path)
    records[-1]["final_state"].remove(_final_entry(records, "pc_m1"))
    _check_malformed(tmp_path, capsys, records,
                     'final_state gives pc_m1() none, but the steps leave 2')


def test_check_step_giving_a_location_two_values_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    at, ms = next((i, ms) for i, rec in enumerate(records[1:-1])
                  for ms in rec["machines"].values() if ms["updates"])
    (location, value) = ms["updates"][0]
    ms["updates"].append([location, value + 1])
    _check_malformed(tmp_path, capsys, records,
                     f"step record {at} gives {location} two values")


def test_check_final_state_follows_an_undo(tmp_path, capsys):
    # A full_victim run cut right after its first undo: the footer holds the
    # values the undo restored, so an undo that restores nothing is caught.
    from taserial.workloads import full_victim_config

    records = _trace_records(tmp_path, full_victim_config(seed=1))
    at = next(i for i, rec in enumerate(records[1:-1]) for ev in rec["events"]
              if ev["kind"] == "undo" and ev["restored"])
    records = _trace_records(tmp_path, full_victim_config(seed=1,
                                                          max_steps=at + 1))
    assert _check_records(tmp_path, records) == 3  # uncommitted steps
    capsys.readouterr()
    (undo,) = [ev for ev in records[-2]["events"] if ev["kind"] == "undo"]
    undo["restored"] = []
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: final_state gives ")


# -- bad programs name their source; oversized literals and domains ----------

LONG = "9" * 5000  # past the interpreter's int-string conversion limit
LONG_LITERALS = {
    "init": (f"machine a\ninit x() := {LONG}\nrule: skip\n", "2:13"),
    "rule": (f"machine a\nrule: x() := -{LONG}\n", "2:15"),
    "arity": (f"machine a\nshared x/{LONG}\nrule: skip\n", "2:10"),
}


def _manifest(tmp_path, programs, **settings):
    for name, text in programs.items():
        (tmp_path / name).write_text(text)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"programs": list(programs), **settings}))
    return str(path)


@pytest.mark.parametrize("where", sorted(LONG_LITERALS))
def test_run_oversized_integer_literal_exits_one(tmp_path, capsys, where):
    text, at = LONG_LITERALS[where]
    assert main(["run", _manifest(tmp_path, {"a.prog": text})]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'a.prog'}: {at}: integer literal of 5000 digits "
        f"is too long\n")


def test_check_oversized_integer_literal_in_header_exits_one(tmp_path, capsys):
    from taserial.engine import payload_digest

    records = _fuzz_trace_lines(tmp_path)
    config = records[0]["config"]
    name = sorted(config["programs"])[0]
    config["programs"][name] = f"machine {name}\nrule: x() := {LONG}\n"
    records[0]["config_digest"] = payload_digest(config)
    assert _check_records(tmp_path, records) == 1
    assert capsys.readouterr().err == (
        f"malformed trace: programs key {name!r}: 2:14: integer literal of "
        f"5000 digits is too long\n")


def test_run_parse_error_names_the_program_file(tmp_path, capsys):
    bad = "machine b\ninit pc_b() := 0\nrule: pc_b() := pc_b() +\n"
    path = _manifest(tmp_path, {"a.prog": "machine a\nrule: skip\n",
                                "b.prog": bad})
    assert main(["run", path]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'b.prog'}: 4:1: expected a term (at end)\n")


def test_run_program_error_names_the_program_file(tmp_path, capsys):
    path = _manifest(tmp_path, {"b.prog": "machine b\nrule: call zz()\n"})
    assert main(["run", path]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'b.prog'}: b: call to undeclared rule 'zz'\n")


def test_check_parse_error_names_the_programs_key(tmp_path, capsys):
    from taserial.engine import payload_digest

    records = _fuzz_trace_lines(tmp_path)
    config = records[0]["config"]
    name = sorted(config["programs"])[0]
    config["programs"][name] += "rule: x() := +\n"
    records[0]["config_digest"] = payload_digest(config)
    assert _check_records(tmp_path, records) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"malformed trace: programs key {name!r}: ")
    assert err.endswith(": expected a term (at '+')\n")


def _forbid_domain(monkeypatch):
    from taserial.engine import RunConfig

    def forbidden(self):
        raise AssertionError("built the domain")

    monkeypatch.setattr(RunConfig, "domain", forbidden)


def test_run_domain_size_above_the_bound_exits_one(tmp_path, capsys,
                                                   monkeypatch):
    from taserial.engine import MAX_DOMAIN_SIZE

    program = {"a.prog": "machine a\nterminated: x() = 1\nrule: x() := 1\n"}
    path = _manifest(tmp_path, program, domain_size=MAX_DOMAIN_SIZE)
    assert main(["run", path]) == 0
    path = _manifest(tmp_path, program, domain_size=MAX_DOMAIN_SIZE + 1)
    capsys.readouterr()
    _forbid_domain(monkeypatch)
    assert main(["run", path]) == 1
    assert capsys.readouterr().err == (
        f"error: domain_size must be at most {MAX_DOMAIN_SIZE}, "
        f"got {MAX_DOMAIN_SIZE + 1}\n")


def test_check_domain_size_above_the_bound_exits_one(tmp_path, capsys,
                                                     monkeypatch):
    from taserial.engine import MAX_DOMAIN_SIZE, payload_digest

    records = _fuzz_trace_lines(tmp_path)
    records[0]["config"]["domain_size"] = MAX_DOMAIN_SIZE + 1
    records[0]["config_digest"] = payload_digest(records[0]["config"])
    _forbid_domain(monkeypatch)
    assert _check_records(tmp_path, records) == 1
    assert capsys.readouterr().err == (
        f"malformed trace: domain_size must be at most {MAX_DOMAIN_SIZE}, "
        f"got {MAX_DOMAIN_SIZE + 1}\n")


DOUBLER = """\
machine d
init x() := 1
init n() := 0
terminated: n() = 14500
rule: par { x() := x() + x() ; n() := n() + 1 }
"""


@pytest.mark.parametrize("traced", [False, True])
def test_run_past_the_int_string_limit_exits_one(tmp_path, capsys, traced):
    # x doubles each step and passes sys.get_int_max_str_digits() digits
    # long before n reaches 14500: no trace could write it.
    (tmp_path / "d.tas").write_text(DOUBLER)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"programs": ["d.tas"], "max_steps": 20000}))
    trace = ["--trace", str(tmp_path / "t.jsonl")] if traced else []
    assert main(["run", str(tmp_path / "manifest.json"), *trace]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: + gives an integer of more than")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("traced", [False, True])
def test_run_past_the_int_string_limit_names_machine_and_step(tmp_path, capsys,
                                                              traced):
    from taserial.asm import INT_DIGITS

    # Step i doubles x() to 2 ** (i + 1); the first step to reach
    # 10 ** INT_DIGITS fails.
    step = (10 ** INT_DIGITS).bit_length() - 1
    (tmp_path / "d.tas").write_text(DOUBLER)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"programs": ["d.tas"], "max_steps": 20000}))
    trace = ["--trace", str(tmp_path / "t.jsonl")] if traced else []
    assert main(["run", str(tmp_path / "manifest.json"), *trace]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f" (assigning x()) (machine d, step {step})\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where,text", [
    ("value", "terminated: false\nrule: y() := x() + 1"),
    ("location", "terminated: false\nrule: a(x() + 1) := 1"),
    ("guard", "terminated: false\n"
              "rule: if x() + 1 = 2 then y() := 1 else skip"),
    ("termination test", "terminated: x() + 1 = 2\nrule: skip"),
])
def test_run_names_the_assigned_location_of_an_evaluation_error(
        tmp_path, capsys, where, text):
    # Only an error in an assignment's value names the location assigned.
    program = {"m.prog": f"machine m\ninit x() := 'q\n{text}\n"}
    assert main(["run", _manifest(tmp_path, program)]) == 1
    assigning = " (assigning y())" if where == "value" else ""
    assert capsys.readouterr().err == (
        f"error: + needs integers, got 'q'{assigning} (machine m, step 0)\n")
