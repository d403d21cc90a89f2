import json
import re

import pytest

from taserial.cli import main

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
    """Set the init of func() to the encoded `value` in every program of the
    header and in its initial state, with a matching config digest: a forged
    header the decoder accepts."""
    from taserial.engine import payload_digest

    header = records[0]
    text = "true" if value == ["b", True] else str(value[1])
    programs = header["config"]["programs"]
    for name, program in programs.items():
        programs[name] = re.sub(rf"^init {func}\(\) := \S+$",
                                f"init {func}() := {text}", program,
                                flags=re.M)
    header["config_digest"] = payload_digest(header["config"])
    (entry,) = [e for e in header["initial_state"] if e[0] == [func, []]]
    entry[1] = value


def test_check_solo_rerun_evaluation_error_exits_one(tmp_path, capsys):
    records = _fuzz_trace_lines(tmp_path)
    _forge_init(records, "g0", ["b", True])
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


# -- the header seed is the config seed --------------------------------------


@pytest.mark.parametrize("value", ["abc", None, True, "3", 3.0, 4])
def test_check_forged_header_seed_exits_one(tmp_path, capsys, value):
    records = _fuzz_trace_lines(tmp_path, seed=3)
    assert records[0]["seed"] == records[0]["config"]["seed"] == 3
    records[0]["seed"] = value
    assert _check_records(tmp_path, records) == 1
    assert capsys.readouterr().err.startswith("malformed trace: header seed")


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
    ("pc", ["b", True], 1, "needs integers"),               # type mismatch
    ("x", ["i", 1], 1, "writes monitored location"),        # invalid write
    ("a", ["i", 1], 1, ""),                                 # clashing updates
    ("pc", ["i", 2], 3, "did not terminate"),               # never terminates
])
def test_check_serial_run_from_edited_initial_state(tmp_path, capsys, func,
                                                    value, code, message):
    from taserial.dsl import parse_program
    from taserial.engine import RunConfig, run, write_trace

    path = tmp_path / "w.jsonl"
    trace = run(RunConfig(machines=[parse_program(TAMPERED)], max_steps=20))
    assert trace.status == "done"
    write_trace(trace, str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
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
    # b's first step read cell() = 0 in the trace, but 1 after a ran alone.
    assert record["witness"] == {
        "machine": "b", "kind": "step", "position": 0, "left_step": 7,
        "what": "read", "location": ["cell", []],
        "left": ["i", 0], "right": ["i", 1]}


def test_check_reads_out_of_order_name_no_location(tmp_path, capsys):
    # Same reads and values, listed in another order than the engine's: the
    # step differs, but no location does.
    records = _fuzz_trace_lines(tmp_path)
    step = [ms for rec in records[1:-1] for ms in rec["machines"].values()
            if ms["proper"] and len(ms["reads"]) > 1][-1]  # survives cleansing
    step["reads"].reverse()
    assert _check_records(tmp_path, records) == 3
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["kind"] == "step" and witness["what"] == "read"
    assert witness["location"] is None


# -- `registered` and `committed` name each machine once ---------------------


def _counter_trace_records(tmp_path, only=None):
    from taserial.engine import run, write_trace
    from taserial.workloads import counter_config

    path = tmp_path / "counter.jsonl"
    write_trace(run(counter_config(seed=1), only=only), str(path))
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


def test_check_read_of_one_forged_for_true_is_not_serializable(tmp_path,
                                                               capsys):
    from taserial.dsl import parse_program
    from taserial.engine import RunConfig, run, write_trace

    path = tmp_path / "flag.jsonl"
    write_trace(run(RunConfig(machines=[parse_program(FLAG)])), str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    (step,) = [ms for rec in records[1:-1] for ms in rec["machines"].values()
               if ms["proper"]]
    (read,) = [r for r in step["reads"] if r[0] == ["flag", []]]
    assert read[1] == ["b", True]
    read[1] = ["i", 1]
    assert _check_records(tmp_path, records) == 3
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["what"] == "read" and witness["location"] == ["flag", []]
    assert (witness["left"], witness["right"]) == (["i", 1], ["b", True])


@pytest.mark.parametrize("value", [["s", 0], ["i", "0"], ["x", 0],
                                   ["i", False]])
def test_check_forged_value_tag_exits_one(tmp_path, capsys, value):
    records = _counter_trace_records(tmp_path)
    read = next(r for rec in records[1:-1] for ms in rec["machines"].values()
                if ms["proper"] for r in ms["reads"] if r[1] == ["i", 0])
    read[1] = value
    _check_malformed(tmp_path, capsys, records,
                     f"malformed value {value!r}")


def test_check_step_after_the_last_commit_exits_one(tmp_path, capsys):
    records = _counter_trace_records(tmp_path)
    last = records[-2]
    assert any(ev["kind"] == "commit" for ev in last["events"])
    records.insert(-1, {"type": "step", "index": last["index"] + 1,
                        "machines": {}, "events": [],
                        "state_hash": last["state_hash"]})
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


@pytest.mark.parametrize("arg,written", [("true", '["a",[true]]'),
                                         ("1", '["a",[1]]')])
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
    # The encoder writes a state hash unescaped, so only a hex digest
    # decodes.
    records = _counter_trace_records(tmp_path)
    records[1]["state_hash"] = state_hash
    _check_malformed(tmp_path, capsys, records,
                     f"step record 0 has state hash {state_hash!r}")


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


@pytest.mark.parametrize("edit", ["value", "drop", "add"])
def test_check_forged_initial_state_exits_one(tmp_path, capsys, edit):
    records = _counter_records(tmp_path)
    initial = records[0]["initial_state"]
    if edit == "value":
        (entry,) = [e for e in initial if e[0] == ["total", []]]
        entry[1] = ["i", 5]
    elif edit == "drop":
        initial.pop()
    else:
        initial.append([["extra", []], ["i", 1]])
    assert _check_records(tmp_path, records) == 1
    assert capsys.readouterr().err.startswith(
        "malformed trace: initial_state is not")


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
# m0 waits for locks in steps 1 and 2.  Step i is records[i + 1].

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
    records[5]["machines"]["m2"]["ctl"] = None
    _check_malformed(tmp_path, capsys, records,
                     "step record 5: commit event of m2 in control state "
                     "'active'")


@pytest.mark.parametrize("ctl", [["done", "unregistered"],
                                 ["active", "wait-locks"],
                                 ["wait-locks", "done"]])
def test_check_ctl_change_not_from_the_current_state_exits_one(tmp_path,
                                                              capsys, ctl):
    records = _counter_trace_records(tmp_path)
    records[3]["machines"]["m0"]["ctl"] = ctl
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
    ("step", "state_hash"), ("machine", "reads"), ("final", "final_state")])
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


# -- lock payloads: the shape `_lock_payload` writes -------------------------


@pytest.mark.parametrize("locks", [
    123,
    {"r": [["total", []]]},
    {"r": [["total"]], "w": []},
    {"r": [[7, []]], "w": []},
    {"r": [["a", [None]]], "w": []},
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
