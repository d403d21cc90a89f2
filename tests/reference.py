"""Reference implementations the tests compare the program against.

Nothing in `taserial` calls these: each derives from scratch what the
program keeps incrementally, or reads a trace the way a test needs.
"""
import hashlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from taserial.asm import Location, loc_key, value_key
from taserial.controller import (
    GRANTED,
    ControllerState,
    LockInvariantViolation,
    LockTable,
)
from taserial.dsl import print_program
from taserial.engine import SETTINGS


def wait_edges(cs: ControllerState) -> FrozenSet[Tuple[str, str]]:
    """The wait relation that `controller.deadlocked` keeps up to date
    incrementally: m waits for n when a lock m still needs is held
    conflictingly by n.

    A machine's needed locks are the pair of its request unless that was
    granted (a refused machine re-requests the same locations until granted,
    including while it waits for recovery).
    """
    return frozenset(
        (m, n) for m, r in cs.requests.items() if r.status != GRANTED
        for n in cs.locks.conflicts(m, r.pair))


def cycle_members(edges: Iterable[Tuple[str, str]]) -> FrozenSet[str]:
    """The nodes on a cycle of the graph with these edges: each node that
    reaches itself, by one search from each node.  An oracle independent of
    `controller.deadlocked` and its incremental cycle search."""
    succ: Dict[str, List[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    out = set()
    for node in succ:
        seen = set()
        stack = [node]
        while stack and node not in seen:
            for n in succ.get(stack.pop(), ()):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        if node in seen:
            out.add(node)
    return frozenset(out)


def r_holders(table: LockTable, loc: Location) -> FrozenSet[str]:
    """The machines holding a read lock on `loc`."""
    return frozenset(table.r_locked.get(loc, ()))


def w_holder(table: LockTable, loc: Location) -> Optional[str]:
    """The machine holding the write lock on `loc`, if any."""
    return table.w_locked.get(loc)


def check_lock_table(table: LockTable) -> None:
    """A scan for a foreign reader beside each writer."""
    for loc, writer in table.w_locked.items():
        readers = table.r_locked.get(loc, set())
        if readers - {writer}:
            raise LockInvariantViolation(
                f"{loc} write-locked by {writer} but read-locked by "
                f"{sorted(readers - {writer})}")


def last_undo_step(trace, machine: str) -> Optional[int]:
    """Index of the last step that undid one of the machine's entries."""
    out = None
    for rec in trace.steps:
        for ev in rec.events:
            if ev.get("kind") == "undo" and ev.get("machine") == machine:
                out = rec.index
    return out


def simulation_digest(traces) -> str:
    """sha256 over what the runs simulated, in a form no trace version
    defines: per trace, the config's settings, programs (as
    `print_program` prints them) and shared inits; each step's index,
    machine records and events; the registered machines, the committed
    order, the status and the final values.  Locations and values are
    their `loc_key` and `value_key`, and every set and pair list is sorted
    by them, so the digest does not depend on `PYTHONHASHSEED`."""
    h = hashlib.sha256()
    for trace in traces:
        h.update(repr(_simulation(trace)).encode("utf-8") + b"\n")
    return h.hexdigest()


def _pairs(pairs) -> list:
    return sorted((loc_key(l), value_key(v)) for l, v in pairs)


def _event(ev: dict) -> list:
    form = dict(ev)
    if "locks" in ev:
        form["locks"] = [sorted(map(loc_key, ev["locks"].r_loc)),
                         sorted(map(loc_key, ev["locks"].w_loc))]
    if "restored" in ev:
        form["restored"] = _pairs(ev["restored"])
    return sorted(form.items())


def _simulation(trace) -> tuple:
    config = trace.config
    settings = {name: getattr(config, name) for name in SETTINGS}
    settings["registration"] = sorted(config.registration.items())
    return (
        sorted(settings.items()),
        [print_program(m) for m in config.machines],
        _pairs(config.shared_inits),
        [(rec.index,
          [(m, _pairs(ms.reads), _pairs(ms.updates), ms.ctl_change, ms.proper)
           for m, ms in sorted(rec.per_machine.items())],
          [_event(ev) for ev in rec.events]) for rec in trace.steps],
        trace.registered, trace.committed, trace.status,
        _pairs(trace.final_values.items()))
