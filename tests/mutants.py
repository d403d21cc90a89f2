"""Mutants of the trace decoder and of the controller, each a monkeypatch.

A mutant is applied as a monkeypatch: the source of one function or method
with one snippet replaced, compiled in its module's namespace, or one table
entry changed.  A snippet that is not in the source exactly once fails the
patch, so a mutant cannot silently go stale when the code it breaks
changes.

A decoder mutant (`MUTANTS`) breaks one check of `engine.trace_from_lines`
(the header or step decoder, `Control` or `Replay`) or of the config it
decodes.  Its forgery is the input its check exists to reject: the
unmodified code rejects it, the mutated code accepts it.

A controller mutant (`CONTROLLER_MUTANTS`) breaks two-phase locking or the
kept wait graph.  The detectors (`DETECTORS`) look at the runs of a small
fuzz corpus, and each mutant names the detectors that kill it.
"""
import __future__
import inspect
import json
import textwrap
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from taserial import controller, engine, wrapper
from taserial.asm import AsmError, Location
from taserial.checker import check_serializable
from taserial.controller import LockInvariantViolation
from taserial.dsl import parse_program
from taserial.engine import (
    MalformedTrace,
    RunConfig,
    run,
    trace_from_lines,
    trace_to_lines,
)
from taserial.fuzz import random_config
from taserial.workloads import counter_config

from reference import cycle_members, wait_edges
from test_acceptance import _replay_lock_table
from test_trace_reader import _array_reader_lines, _edited


def patched(owner, name: str, *edits: Tuple[str, str]):
    """`owner.name` compiled from its source with each `(old, new)` edit
    made; `old` must occur exactly once."""
    fn = inspect.getattr_static(owner, name)
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert source.count(old) == 1, f"{name}: {old!r}"
        source = source.replace(old, new)
    code = compile(source, inspect.getsourcefile(fn), "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = {}
    exec(code, vars(inspect.getmodule(fn)), namespace)
    return namespace[name]


def replace(owner, name: str, *edits: Tuple[str, str]):
    """A mutant's patch: `owner.name` with the `edits` made."""
    def apply(monkeypatch):
        monkeypatch.setattr(owner, name, patched(owner, name, *edits))
    return apply


def both(*patches):
    """A mutant's patch made of several."""
    def apply(monkeypatch):
        for patch in patches:
            patch(monkeypatch)
    return apply


@dataclass(frozen=True)
class Mutant:
    name: str
    apply: Callable  # (monkeypatch) -> None
    forge: Callable  # () -> None, raising `rejects` when it rejects
    rejects: type = MalformedTrace


def _counter_lines():
    """The lines of a counter run."""
    return trace_to_lines(run(counter_config(3, 2, seed=1)))


def _edit_step(lines, test, edit):
    """The lines with the first step record for which `test(record)` holds
    edited in place by `edit(record)`, as canonical JSON."""
    for at in range(1, len(lines) - 1):
        rec = json.loads(lines[at])
        if test(rec):
            edit(rec)
            lines[at] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            return lines
    raise AssertionError("no step record to edit")


def _machines(rec):
    return list(rec["machines"].values())


def _forged_read():
    # The first recorded read, of a location the state holds, takes another
    # value.
    def edit(rec):
        read = next(ms for ms in _machines(rec) if ms["reads"])["reads"][0]
        read[1] += 100
    trace_from_lines(_edit_step(
        _counter_lines(),
        lambda r: any(ms["reads"] for ms in _machines(r)), edit))


def _forged_absent_read():
    # A read of a location no step or init gives a value, recorded as 1.
    def edit(rec):
        next(ms for ms in _machines(rec) if ms["proper"])["reads"].append(
            ["zz()", 1])
    trace_from_lines(_edit_step(
        _counter_lines(),
        lambda r: any(ms["proper"] for ms in _machines(r)), edit))


def _object_for_reads():
    def edit(rec):
        next(ms for ms in _machines(rec) if not ms["reads"])["reads"] = {}
    trace_from_lines(_edit_step(
        _counter_lines(),
        lambda r: any(not ms["reads"] for ms in _machines(r)), edit))


def _object_for_events():
    trace_from_lines(_edit_step(_counter_lines(), lambda r: not r["events"],
                                lambda r: r.update(events={})))


def _true_for_one():
    # Step 3 reads total() = 1, the value step 2 wrote; forged to true.
    def edit(rec):
        reads = rec["machines"]["m2"]["reads"]
        (read,) = [r for r in reads if r[0] == "total()"]
        assert read[1] == 1
        read[1] = True
    trace_from_lines(_edit_step(_counter_lines(), lambda r: r["index"] == 3,
                                edit))


def _non_canonical_text():
    # arr(01) stands for arr(1) in a read whose value is arr(1)'s.
    def edit(rec):
        reads = rec["machines"]["m"]["reads"]
        (read,) = [r for r in reads if r[0] == "arr(1)"]
        read[0] = "arr(01)"
    trace_from_lines(_edited(_array_reader_lines(), 3, edit))


def _relabelled_version():
    # A version-5 trace relabelled as version 4, whose header differs.
    lines = _counter_lines()
    lines[0] = lines[0].replace('"version":5}', '"version":4}')
    trace_from_lines(lines)


def _duplicate_key():
    # A machine record lists `proper` twice; the last value is the true one.
    lines = _counter_lines()
    at = next(i for i, line in enumerate(lines) if '"proper":true' in line)
    lines[at] = lines[at].replace('"proper":true', '"proper":false,'
                                  '"proper":true', 1)
    trace_from_lines(lines)


def _bool_init():
    program = parse_program("machine m\ninit x(1) := 1\nterminated: true\n"
                            "rule: skip\n")
    program.inits[:] = [(Location("x", (1,)), True)]
    run(RunConfig([program]))


def _update_in_a_record_that_is_not_proper():
    # m1's change to done in step 9 writes pc_m1() := 99, and the footer
    # agrees; no serial run ends with pc_m1() = 99.
    lines = _edit_step(
        _counter_lines(), lambda r: r["index"] == 9,
        lambda r: r["machines"]["m1"].update(updates=[["pc_m1()", 99]]))
    final = json.loads(lines[-1])
    for entry in final["final_state"]:
        if entry[0] == "pc_m1()":
            entry[1] = 99
    lines[-1] = json.dumps(final, sort_keys=True, separators=(",", ":"))
    trace_from_lines(lines)


READ_CHECK = "if values.get(loc, UNDEF) != v:"

MUTANTS = [
    Mutant("no read check",
           replace(engine.Replay, "step", (READ_CHECK, "if False:")),
           _forged_read),
    Mutant("undef reads unchecked",
           replace(engine.Replay, "step", (
               READ_CHECK, "if loc in values and values[loc] != v:")),
           _forged_absent_read),
    Mutant("no list check in _Shared.pairs",
           replace(engine._Shared, "pairs",
                   ("if type(payload) is not list:", "if False:")),
           _object_for_reads),
    Mutant("pair memo keyed without the value's type",
           replace(engine._Shared, "pairs",
                   ("key = (l, type(v), v)", "key = (l, v)")),
           _true_for_one),
    Mutant("location text not printed back",
           replace(engine, "_parse_location", (
               "return loc if print_location(loc) == text else None",
               "return loc")),
           _non_canonical_text),
    Mutant("no events list check",
           replace(engine, "_decode_step",
                   ("if type(events) is not list:", "if False:")),
           _object_for_events),
    Mutant("any version accepted",
           replace(engine, "_decode_header", (
               "if type(version) is not int or version != TRACE_VERSION:",
               "if False:")),
           _relabelled_version),
    Mutant("duplicate key not re-parsed",
           replace(engine, "_decode_step",
                   ('if line.count(":") != keys:', "if False:")),
           _duplicate_key),
    Mutant("no init type check",
           replace(engine.RunConfig, "initial_state", (
               "loc_key(loc), value_key(val)", "pass")),
           _bool_init, TypeError),
    Mutant("updates allowed in a record that is not proper",
           replace(engine.Control, "step",
                   ("elif ms.reads or ms.updates:", "elif False:")),
           _update_in_a_record_that_is_not_proper),
]


# -- controller mutants -------------------------------------------------------


@dataclass(frozen=True)
class ControllerMutant:
    name: str
    apply: Callable  # (monkeypatch) -> None
    killed_by: Tuple[str, ...]  # the `DETECTORS` that reject some run


@dataclass(frozen=True)
class WatchedRun:
    trace: Optional[engine.Trace]  # None when the run raised
    strays: int  # deadlock searches that kept another graph than the reference


def watched_run(config) -> WatchedRun:
    """Run the config, comparing after each deadlock search the kept wait
    graph and its cycle members with the reference's, derived from scratch
    by `reference.wait_edges`; a run that raises AsmError has no trace."""
    search = controller.deadlocked
    strays = 0

    def compared(cs):
        nonlocal strays
        dead = search(cs)
        edges = wait_edges(cs)
        kept = {(a, b) for a, bs in cs.wait_graph.out.items() for b in bs}
        strays += kept != edges or dead != cycle_members(edges)
        return dead

    controller.deadlocked = compared
    try:
        trace = run(config)
    except AsmError:
        trace = None
    finally:
        controller.deadlocked = search
    return WatchedRun(trace, strays)


def _unserializable(watched: WatchedRun) -> bool:
    trace = watched.trace
    return (trace is not None and trace.status == "done"
            and not check_serializable(trace).ok)


def _lock_conflict(watched: WatchedRun) -> bool:
    # The lock replay reads the decoded trace's lock pairs, as `check` would.
    if watched.trace is None:
        return False
    try:
        _replay_lock_table(trace_from_lines(trace_to_lines(watched.trace)))
    except LockInvariantViolation:
        return True
    return False


#: detector -> whether it rejects a watched run.  A run that raises is
#: killed by "run", and by the wait-graph reference when a search before
#: the raise kept another graph.
DETECTORS = {
    "serial oracle": _unserializable,
    "lock replay": _lock_conflict,
    "wait-graph reference": lambda watched: watched.strays > 0,
}

#: The corpus the controller mutants run on: default `random_config` seeds.
CORPUS_SEEDS = range(40)

CONTROLLER_MUTANTS = [
    ControllerMutant(
        "no read locks",
        replace(wrapper, "_lock_needs", (
            "rw.reads if l.func in read_locked", "rw.reads if False")),
        ("serial oracle",)),
    ControllerMutant(
        "writer beside readers",
        # The conflict rule, in both methods of the lock table that apply
        # it: a waiting writer is blocked by no reader.
        both(replace(controller.LockTable, "conflicts",
                     ("out.update(readers)", "pass")),
             replace(controller.LockTable, "blocks", (
                 "self._r_by.get(holder, _NO_LOCATIONS)", "_NO_LOCATIONS"))),
        ("serial oracle", "lock replay")),
    ControllerMutant(
        "locks released at commit request",
        replace(controller, "apply_effect", (
            "cs.commit_requests.add(machine)\n",
            "cs.commit_requests.add(machine)\n"
            "        cs.locks.release_all(machine)\n")),
        ("lock replay", "wait-graph reference")),
    ControllerMutant(
        "undo records no holder delta",
        replace(controller, "apply_effect", (
            "cs.locks.release(machine, pair)\n"
            "        g.moved(machine, pair.r_loc, pair.w_loc)\n",
            "cs.locks.release(machine, pair)\n")),
        ("run", "wait-graph reference")),
    ControllerMutant(
        "removed edge between cycle members keeps the cycle set",
        replace(controller, "deadlocked", (
            "_cycle_members(out, sources | dead)",
            "_cycle_members(out, sources) | dead")),
        ("run", "wait-graph reference")),
]


def kills() -> dict:
    """Over the corpus: the runs that completed, and per detector (and
    "run", for a run that raised) the runs it rejects."""
    out = dict.fromkeys(["done", "run", *DETECTORS], 0)
    for seed in CORPUS_SEEDS:
        watched = watched_run(random_config(seed))
        if watched.trace is None:
            out["run"] += 1
        else:
            out["done"] += watched.trace.status == "done"
        for name, rejects in DETECTORS.items():
            out[name] += rejects(watched)
    return out
