"""Serializability checking for recorded traces.

A trace is serializable when some serial execution (each machine running
alone, one after the other, in some order) is equivalent to it: every
machine performs the same proper, non-undone steps with the same reads and
the same update sets.  The constructive check runs the bare machines, without
the controller, one after the other in commit order and compares the
cleansed schedules.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .asm import (AsmError, EvalError, Location, State, UpdateSet, Value,
                  loc_key, record, require_consistent)
from .dsl import print_location
from .engine import MalformedTrace, Trace, plain_value
from .wrapper import analyse, checked_step, step_material, terminated

MAX_BRUTE_FORCE = 4


class TooManyMachines(AsmError):
    pass


class UncommittedMachine(AsmError):
    pass


@record
class ScheduleEntry:
    step_index: int  # the global step in a trace, the ordinal in a serial run
    updates: UpdateSet
    reads: Tuple[Tuple[Location, Value], ...]

    def body(self):
        """The comparison key: what happened, not when."""
        return (self.updates, self.reads)


CleanSchedule = Tuple[ScheduleEntry, ...]


@dataclass
class Verdict:
    ok: bool
    order: List[str] = field(default_factory=list)
    reason: str = ""
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def _undone_steps(trace: Trace) -> Set[Tuple[str, int]]:
    """(machine, global step index) of each proper step that was undone;
    `trace_from_lines` has checked each undo's origin."""
    return {(ev["machine"], ev["origin_step"]) for rec in trace.steps
            for ev in rec.events
            if ev["kind"] == "undo" and ev["origin_step"] is not None}


def cleanse(trace: Trace) -> Dict[str, CleanSchedule]:
    """Per-machine schedule with non-steps and undone steps removed.

    Two kinds of segments disappear: global steps where the machine did not
    perform a proper step (it waited, was refused, or changed control state
    only), and proper steps that a later recovery undid.
    """
    undone = _undone_steps(trace)
    out: Dict[str, List[ScheduleEntry]] = {m: [] for m in trace.registered}
    for rec in trace.steps:
        for m, ms in rec.per_machine.items():
            if ms.proper and (m, rec.index) not in undone:
                out[m].append(ScheduleEntry(rec.index, ms.updates, ms.reads))
    return {m: tuple(v) for m, v in out.items()}


def equivalent(a: Dict[str, CleanSchedule], b: Dict[str, CleanSchedule],
               machines: List[str]) -> Optional[dict]:
    """None when the cleansed schedules agree position-wise for every listed
    machine; otherwise a witness describing the first divergence."""
    for m in machines:
        sa, sb = a.get(m, ()), b.get(m, ())
        if len(sa) != len(sb):
            return {"machine": m, "kind": "length",
                    "left": len(sa), "right": len(sb)}
        for pos, (ea, eb) in enumerate(zip(sa, sb)):
            if ea.body() != eb.body():
                return {"machine": m, "kind": "step", "position": pos,
                        "left_step": ea.step_index, **_difference(m, ea, eb)}
    return None


def _difference(m: str, ea: ScheduleEntry, eb: ScheduleEntry) -> dict:
    """The first read, else the first update, whose location or value differs
    between two entries of machine m, named as a trace names them: the
    location's text and each side's value as plain JSON (none for a side
    that lacks it).  Entries that differ in no location are MalformedTrace."""
    for what, left, right in (("read", ea.reads, eb.reads),
                              ("update", ea.updates, eb.updates)):
        if left == right:
            continue
        lm, rm = dict(left), dict(right)
        for loc in sorted(lm.keys() | rm.keys(), key=loc_key):
            if loc not in lm or loc not in rm or lm[loc] != rm[loc]:
                out = {"what": what, "location": print_location(loc)}
                for side, values in (("left", lm), ("right", rm)):
                    if loc in values:
                        out[side] = plain_value(values[loc])
                return out
        raise MalformedTrace(f"step record {ea.step_index}: {m!r} has "
                             f"{what}s out of order or a location twice")


def build_serial_run(trace: Trace, order: List[str]) -> Dict[str, CleanSchedule]:
    """Run each bare machine, without the controller, in the given order,
    each from the state the previous one left; returns their schedules.  A
    machine that matches performs at most one proper step per trace step, so
    one still running after `max_steps` proper steps is UncommittedMachine.
    An EvalError names the machine and its serial step, the ordinal."""
    config = trace.config
    programs = {p.name: p for p in config.machines}
    bases = config.choice_bases()
    state = State(dict(trace.initial_values), config.domain())
    schedules: Dict[str, CleanSchedule] = {}
    for m in order:
        program, entries = programs[m], []
        try:
            while not terminated(program, state):
                ordinal = len(entries)
                if ordinal == config.max_steps:
                    raise UncommittedMachine(
                        f"{m} did not terminate within {ordinal} proper steps")
                rw, read_log = analyse(program, state, step_material(
                    program, config.seed, m, ordinal), bases[m])
                updates, reads = checked_step(program, m, rw, read_log)
                require_consistent(updates)
                state.update(updates)  # the serial run's own state: no copy
                entries.append(ScheduleEntry(ordinal, updates, reads))
        except EvalError as e:
            e.args = (f"{e} (machine {m}, serial step {len(entries)})",)
            raise
        schedules[m] = tuple(entries)
    return schedules


def _prelude(trace: Trace, limit: Optional[int] = None):
    """The commit order, the cleansed trace, and a rejecting verdict (else
    None) when a machine that did not commit kept surviving steps."""
    order = list(trace.committed)
    if limit is not None and len(order) > limit:
        raise TooManyMachines(
            f"{len(order)} committed machines; limit is {limit}")
    original = cleanse(trace)
    leftover = [m for m in trace.registered if m not in order
                and original.get(m)]
    if not leftover:
        return order, original, None
    return order, original, Verdict(
        False, order, reason=f"uncommitted machines performed surviving "
                             f"steps: {sorted(leftover)}")


def check_serializable(trace: Trace) -> Verdict:
    """Constructive check: the serial order is the commit order."""
    order, original, rejected = _prelude(trace)
    if rejected is not None:
        return rejected
    try:
        serial = build_serial_run(trace, order)
    except UncommittedMachine as e:
        return Verdict(False, order, reason=str(e))
    witness = equivalent(original, serial, order)
    if witness is None:
        return Verdict(True, order)
    return Verdict(False, order,
                   reason="no serial run in commit order matches",
                   witness=witness)


def brute_force_serializable(trace: Trace) -> Verdict:
    """Try every ordering of the committed machines."""
    order, original, rejected = _prelude(trace, MAX_BRUTE_FORCE)
    if rejected is not None:
        return rejected
    last_witness = None
    for perm in itertools.permutations(order):
        try:
            serial = build_serial_run(trace, list(perm))
        except UncommittedMachine:
            continue
        witness = equivalent(original, serial, list(perm))
        if witness is None:
            return Verdict(True, list(perm))
        last_witness = witness
    return Verdict(False, order, reason="no ordering matches",
                   witness=last_witness)
