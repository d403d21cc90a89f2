"""Reference implementations the tests compare the program against.

Nothing in `taserial` calls these: each derives from scratch what the
program keeps incrementally, or reads a trace the way a test needs.
"""
import itertools
from typing import FrozenSet, Iterable, Optional, Tuple

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
    """The nodes on a cycle of the graph with these edges, from its
    transitive closure by iterated squaring: an oracle independent of
    `controller.deadlocked` and its strongly-connected-components pass."""
    reach = set(edges)
    nodes = sorted({n for e in reach for n in e})
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(nodes, nodes):
            if (a, b) not in reach:
                if any((a, c) in reach and (c, b) in reach for c in nodes):
                    reach.add((a, b))
                    changed = True
    return frozenset(n for n in nodes if (n, n) in reach)


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
