"""Serializability checking for recorded traces.

A trace is serializable when some serial execution (each machine running
alone, one after the other, in some order) is equivalent to it: every
machine performs the same proper, non-undone steps with the same reads and
the same update sets.  The constructive check re-runs the machines solo in
commit order and compares the cleansed schedules.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .asm import AsmError, Location, State, UpdateSet, Value
from .engine import (
    MalformedTrace,
    RunConfig,
    Trace,
    run,
)

MAX_BRUTE_FORCE = 4


class TooManyMachines(AsmError):
    pass


class UncommittedMachine(AsmError):
    pass


@dataclass(frozen=True)
class ScheduleEntry:
    step_index: int
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


def _undone_steps(trace: Trace) -> Dict[str, Set[int]]:
    """Per machine, the global step indices whose proper step was undone."""
    proper_steps: Dict[str, Set[int]] = {m: set() for m in trace.registered}
    undone: Dict[str, Set[int]] = {m: set() for m in trace.registered}
    for rec in trace.steps:
        for m, ms in rec.per_machine.items():
            if m not in proper_steps:
                raise MalformedTrace(f"step {rec.index}: unregistered machine {m!r}")
            if ms.proper:
                proper_steps[m].add(rec.index)
        for ev in rec.events:
            if ev.get("kind") != "undo":
                continue
            m = ev.get("machine")
            origin = ev.get("origin_step")
            if m not in proper_steps:
                raise MalformedTrace(f"undo for unregistered machine {m!r}")
            if origin is None:
                continue  # lock-only history entry, nothing was executed
            if origin not in proper_steps[m] or origin >= rec.index:
                raise MalformedTrace(
                    f"step {rec.index}: undo of {m} names invalid origin {origin}")
            if origin in undone[m]:
                raise MalformedTrace(
                    f"step {rec.index}: step {origin} of {m} undone twice")
            undone[m].add(origin)
    return undone


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
            if ms.proper and rec.index not in undone[m]:
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
                        "left_step": ea.step_index, "right_step": eb.step_index}
    return None


def build_serial_run(trace: Trace, order: List[str]) -> Dict[str, CleanSchedule]:
    """Re-execute each machine alone, in the given order, each starting from
    the state the previous one left behind.  Returns the per-machine cleansed
    schedules of those solo runs."""
    config = _solo_config(trace.config)
    state = State(dict(trace.initial_values), config.domain())
    budget = 4 * trace.config.max_steps + 16
    schedules: Dict[str, CleanSchedule] = {}
    for m in order:
        solo = run(config, seed=trace.seed, max_steps=budget,
                   initial_state=state, only=[m])
        if solo.status != "done":
            raise UncommittedMachine(
                f"{m} did not commit within {budget} solo steps")
        schedules[m] = cleanse(solo)[m]
        state = State(dict(solo.final_values), config.domain())
    return schedules


def _solo_config(config: RunConfig) -> RunConfig:
    """Same programs and policies, immediate registration."""
    return RunConfig(
        machines=list(config.machines),
        domain_size=config.domain_size,
        registration={},
        wait_mode=config.wait_mode,
        lock_policy=config.lock_policy,
        commit_policy=config.commit_policy,
        victim_policy=config.victim_policy,
        run_mode="sync",
        seed=config.seed,
        max_steps=config.max_steps,
    )


def check_serializable(trace: Trace) -> Verdict:
    """Constructive check: the serial order is the commit order."""
    order = [m for m in trace.committed if m in trace.registered]
    original = cleanse(trace)
    leftover = [m for m in trace.registered if m not in order
                and original.get(m)]
    if leftover:
        return Verdict(False, order,
                       reason=f"uncommitted machines performed surviving "
                              f"steps: {sorted(leftover)}")
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
    order = [m for m in trace.committed if m in trace.registered]
    if len(order) > MAX_BRUTE_FORCE:
        raise TooManyMachines(
            f"{len(order)} committed machines; limit is {MAX_BRUTE_FORCE}")
    original = cleanse(trace)
    leftover = [m for m in trace.registered if m not in order
                and original.get(m)]
    if leftover:
        return Verdict(False, order,
                       reason=f"uncommitted machines performed surviving "
                              f"steps: {sorted(leftover)}")
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
