"""Reference implementations the tests compare the program against.

Nothing in `taserial` calls these: each derives from scratch what the
program keeps incrementally, or reads a trace the way a test needs.
"""
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from taserial.asm import Location
from taserial.controller import (
    GRANTED,
    ControllerState,
    LockInvariantViolation,
    LockTable,
)


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
