"""Transaction controller: lock handler, commit, deadlock handler, recovery.

The controller owns the lock table, each machine's one lock request, the
victim set and the per-machine undo histories.  Each component computes one
step against a snapshot and returns its effects; the run engine has
`apply_effect` apply them, and the wrappers' effects, after every agent of a
global step has computed, mirroring the synchronous-parallel step semantics
of the wrapped machines.  `apply_effect` is the only code that changes the
controller state; registration is an effect too.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Set, Tuple)

from .asm import AsmError, Location, Value


class LockInvariantViolation(AsmError):
    """The two-phase-locking safety invariant failed (a bug if reachable)."""


class EmptyHistory(AsmError):
    """Undo requested for a machine with no recorded steps, or of an entry
    that is not its youngest."""


@dataclass(frozen=True)
class LockPair:
    r_loc: FrozenSet[Location] = frozenset()
    w_loc: FrozenSet[Location] = frozenset()

    def is_empty(self) -> bool:
        return not self.r_loc and not self.w_loc

    def all_locations(self) -> FrozenSet[Location]:
        return self.r_loc | self.w_loc


EMPTY_LOCKS = LockPair()
_NO_LOCATIONS: FrozenSet[Location] = frozenset()


@dataclass
class HistoryEntry:
    """Undo record for one proper step (last-in first-out).

    saved holds the overwritten value of every location the step wrote, by
    location.  Restoring the controlled values too, not only the shared and
    output ones, makes a recovered machine re-execute from exactly the state
    it had before the undone step, which the serializability argument needs.
    A lock-only entry (granted locks kept for backtracking) saves nothing
    and has no ordinal.
    """

    saved: Tuple[Tuple[Location, Value], ...]
    locks: LockPair
    origin_step: Optional[int] = None
    ordinal: Optional[int] = None


class LockTable:
    """Read/write lock ownership per location.

    Invariant: at most one writer per location, and a location with a writer
    has no other readers.  Multiple read locks may coexist.  `grant` keeps
    it: it refuses a conflicting lock before it changes the table, and no
    release can break it.  Beside the location maps, a per-machine index of
    the same locks answers `locked_by`, `missing` and `release_all` in time
    proportional to the locks held.
    """

    def __init__(self):
        self.r_locked: Dict[Location, Set[str]] = {}
        self.w_locked: Dict[Location, str] = {}
        self._r_by: Dict[str, Set[Location]] = defaultdict(set)
        self._w_by: Dict[str, Set[Location]] = defaultdict(set)

    def locked_by(self, machine: str) -> FrozenSet[Location]:
        return frozenset(self._r_by.get(machine, ())).union(
            self._w_by.get(machine, ()))

    def missing(self, machine: str, reads: FrozenSet[Location],
                writes: FrozenSet[Location]) -> LockPair:
        """The locks the machine still needs to read `reads` and write
        `writes`: a read needs a read or write lock, a write a write lock."""
        w_held = self._w_by.get(machine, ())
        return LockPair(reads.difference(self._r_by.get(machine, ()), w_held),
                        writes.difference(w_held))

    def conflicts(self, machine: str, locks: LockPair) -> Set[str]:
        """The other machines holding a lock that conflicts with `locks`: a
        write lock on any of its locations, or a read lock on one of its
        write locations."""
        w_locked, r_locked = self.w_locked, self.r_locked
        out: Set[str] = set()
        for l in locks.r_loc:
            w = w_locked.get(l)
            if w is not None:
                out.add(w)
        for l in locks.w_loc:
            w = w_locked.get(l)
            if w is not None:
                out.add(w)
            readers = r_locked.get(l)
            if readers:
                out.update(readers)
        out.discard(machine)
        return out

    def blocks(self, holder: str, locks: LockPair) -> bool:
        """Whether `conflicts` of `locks` counts `holder`, for a machine
        other than the holder."""
        w_held = self._w_by.get(holder, _NO_LOCATIONS)
        return not (w_held.isdisjoint(locks.r_loc)
                    and w_held.isdisjoint(locks.w_loc)
                    and self._r_by.get(holder, _NO_LOCATIONS).isdisjoint(
                        locks.w_loc))

    def grant(self, machine: str, locks: LockPair) -> None:
        """Give `machine` the locks, or raise LockInvariantViolation and
        change nothing when another machine holds a conflicting one."""
        others = self.conflicts(machine, locks)
        if others:
            raise LockInvariantViolation(
                f"{machine} granted {locks} against the locks of "
                f"{sorted(others)}")
        for l in locks.r_loc:
            self.r_locked.setdefault(l, set()).add(machine)
            self._r_by[machine].add(l)
        for l in locks.w_loc:
            self.w_locked[l] = machine
            self._w_by[machine].add(l)

    def unlock_r(self, loc: Location, machine: str) -> None:
        holders = self.r_locked.get(loc)
        if holders is not None and machine in holders:
            holders.discard(machine)
            if not holders:
                del self.r_locked[loc]
        self._r_by[machine].discard(loc)

    def unlock_w(self, loc: Location, machine: str) -> None:
        if self.w_locked.get(loc) == machine:
            del self.w_locked[loc]
            self._w_by[machine].discard(loc)

    def release(self, machine: str, locks: LockPair) -> None:
        """Release exactly the lock kinds in the pair.

        A write lock may be an upgrade whose read lock was acquired by an
        earlier step and must survive that step's undo.
        """
        for l in locks.r_loc:
            self.unlock_r(l, machine)
        for l in locks.w_loc:
            self.unlock_w(l, machine)

    def release_all(self, machine: str) -> None:
        for l in list(self._r_by.get(machine, ())):
            self.unlock_r(l, machine)
        for l in list(self._w_by.get(machine, ())):
            self.unlock_w(l, machine)


#: Request statuses (see `Request`).
PENDING = "pending"
GRANTED = "granted"
REFUSED = "refused"


class Request(NamedTuple):
    """A machine's one lock request and where it stands.

    pending: queued for the lock handler.  granted, refused: answered, or
    refused by a withdrawal.  Read, never consumed: a record stays until its
    machine requests again, asks to commit or commits.  All but granted feed
    the wait relation."""

    pair: LockPair
    status: str


class WaitGraph:
    """The wait relation (see `deadlocked`) and its cycle members, kept
    across calls of `deadlocked` (which alone updates it).

    `apply_effect` records what changed since the last call: in `changed`
    the machines whose needed locks it changed (the pair of a request not
    granted), in `holders` per machine the locations where a grant, an undo
    or a commit gave it locks or took them away.  `out` holds the machines
    each waiting machine waits for (non-empty sets only), `dead` the cycle
    members.
    """

    __slots__ = ("changed", "holders", "out", "dead")

    def __init__(self):
        self.changed: Set[str] = set()
        self.holders: Dict[str, Set[Location]] = {}
        self.out: Dict[str, Set[str]] = {}
        self.dead: FrozenSet[str] = frozenset()

    def moved(self, machine: str, *locations: FrozenSet[Location]) -> None:
        """Record that the machine's locks on these locations changed."""
        if any(locations):
            self.holders.setdefault(machine, set()).update(*locations)


@dataclass
class ControllerState:
    # machine -> its request, in request order (a new one goes to the back)
    requests: Dict[str, Request] = field(default_factory=dict)
    # machine -> the pair of its pending request, in request order
    pending: Dict[str, LockPair] = field(default_factory=dict, repr=False,
                                         compare=False)
    commit_requests: Set[str] = field(default_factory=set)
    victims: Set[str] = field(default_factory=set)
    locks: LockTable = field(default_factory=LockTable)
    histories: Dict[str, List[HistoryEntry]] = field(default_factory=dict)
    wait_graph: WaitGraph = field(default_factory=WaitGraph, repr=False,
                                  compare=False)

    def check_invariants(self) -> None:
        bad = [m for m in self.commit_requests
               if m in self.requests or m in self.victims]
        if bad:
            raise LockInvariantViolation(
                f"machines both committing and requesting/victimized: {sorted(bad)}")


def next_ordinal(history: List[HistoryEntry]) -> int:
    """One past the ordinal of the youngest proper entry."""
    for entry in reversed(history):
        if entry.ordinal is not None:
            return entry.ordinal + 1
    return 0


# ---------------------------------------------------------------------------
# Selection policies

#: A choice function: `draw(n)` picks an index below n.  The engine's draws
#: come from the run's seed; a bound `random.Random(...).randrange` fits too.
Draw = Callable[[int], int]


def _select_random(items, draw: Draw):
    return items[draw(len(items))]


#: Each picks one of the pending (machine, pair) requests, given in
#: request order.
LOCK_POLICIES = {
    "random": _select_random,
    "fifo": lambda reqs, draw: reqs[0],
    "lowest-id": lambda reqs, draw: min(reqs, key=lambda t: t[0]),
}

COMMIT_POLICIES = {
    "random": lambda ms, draw: _select_random(sorted(ms), draw),
    "lowest-id": lambda ms, draw: min(ms),
}


def _victims_shortest_history(candidates, histories, draw):
    return [min(sorted(candidates),
                key=lambda m: (len(histories.get(m, [])), m))]


VICTIM_POLICIES = {
    "shortest-history": _victims_shortest_history,
    "random": lambda cands, hists, draw: [_select_random(sorted(cands), draw)],
}


# ---------------------------------------------------------------------------
# Component steps


def lock_handler_step(cs: ControllerState, draw: Draw, policy: str,
                      wait_mode: str, waits_for: Dict[str, Set[str]]
                      ) -> List[tuple]:
    """Handle one pending lock request: grant it or (in retry mode) refuse
    it.  `waits_for` is `cs.wait_graph.out` as `deadlocked(cs)` leaves it, so
    a pending request can be granted iff its machine waits for nobody.

    In suspend mode a victim's request is not answered: its wrapper
    withdraws it in this same step, and a grant applied after the
    withdrawal would leave the victim holding locks no history entry
    covers."""
    reqs = list(cs.pending.items())
    if wait_mode == "suspend":
        reqs = [t for t in reqs
                if t[0] not in waits_for and t[0] not in cs.victims]
    if not reqs:
        return []
    machine, locks = LOCK_POLICIES[policy](reqs, draw)
    return [("refuse" if machine in waits_for else "grant", machine, locks)]


def commit_step(cs: ControllerState, draw: Draw,
                policy: str = "random") -> List[tuple]:
    """Commit one requesting machine: release every lock, drop it from the
    active set."""
    if not cs.commit_requests:
        return []
    return [("commit", COMMIT_POLICIES[policy](cs.commit_requests, draw))]


def deadlocked(cs: ControllerState) -> FrozenSet[str]:
    """Machines lying on a cycle of the wait relation: m waits for n when a
    lock m still needs is held conflictingly by n.  A machine's needed locks
    are the pair of its request unless that was granted (a refused machine
    re-requests the same locations until granted, including while it waits
    for recovery).  `tests/reference.py::wait_edges` derives the relation
    from scratch; this function keeps it up to date incrementally.

    The answer comes from `cs.wait_graph`, brought up to date from what
    changed since the last call.  The out-set of each machine in
    `cs.wait_graph.changed` is recomputed.  Every other waiting machine
    whose pair names a location in `cs.wait_graph.holders[h]` gains or
    loses the one edge to h, as h still blocks it or not.

    Then the cycle members are brought up to date.  A cycle that uses an
    added edge passes through that edge's source; a cycle that uses none
    was a cycle before, so its machines are old members.  So every cycle
    passes through a source or an old member, and one Tarjan pass from
    those roots (`_cycle_members`) finds the members.

    Contract: the controller state changes only through `apply_effect`.
    """
    g = cs.wait_graph
    touched, holders, out, dead = g.changed, g.holders, g.out, g.dead
    if not (touched or holders):
        return dead
    requests = cs.requests
    sources: Set[str] = set()  # the machines that gained an edge
    if holders:
        blocks = cs.locks.blocks
        for m, r in requests.items():
            if r.status == GRANTED or m in touched:
                continue
            r_loc, w_loc = r.pair.r_loc, r.pair.w_loc
            for h, locations in holders.items():
                if h == m or (locations.isdisjoint(r_loc)
                              and locations.isdisjoint(w_loc)):
                    continue
                waits = out.get(m, _NOBODY)
                if blocks(h, r.pair):
                    if h not in waits:
                        out.setdefault(m, set()).add(h)
                        sources.add(m)
                elif h in waits:
                    waits.discard(h)
                    if not waits:
                        del out[m]
        holders.clear()
    for m in touched:
        r = requests.get(m)
        before = out.pop(m, _NOBODY)
        after = (cs.locks.conflicts(m, r.pair)
                 if r is not None and r.status != GRANTED else _NOBODY)
        if after:
            out[m] = after
            if not after <= before:
                sources.add(m)
    touched.clear()
    if sources or dead:
        g.dead = _cycle_members(out, sources | dead)
    return g.dead


_NOBODY: FrozenSet[str] = frozenset()


def _cycle_members(out: Dict[str, Set[str]],
                   roots: Set[str]) -> FrozenSet[str]:
    """The machines of the graph `out` that lie on a cycle reachable from
    `roots`: the members of the strongly connected components of two or
    more machines, by one iterative pass of Tarjan's search (SIAM J.
    Comput. 1972).  No machine waits for itself."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []  # the machines of the components not yet closed
    closed: Set[str] = set()
    members: Set[str] = set()
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        # The search path: each machine, its depth on the stack and the
        # successors it has yet to walk.
        path = [(root, 0, iter(out.get(root, ())))]
        while path:
            node, depth, successors = path[-1]
            for n in successors:
                if n not in index:
                    index[n] = low[n] = len(index)
                    path.append((n, len(stack), iter(out.get(n, ()))))
                    stack.append(n)
                    break
                if n not in closed and index[n] < low[node]:
                    low[node] = index[n]
            else:
                path.pop()
                if low[node] < index[node]:
                    parent = path[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                else:
                    component = stack[depth:]
                    del stack[depth:]
                    closed.update(component)
                    if len(component) > 1:
                        members.update(component)
    return frozenset(members)


def deadlock_handler_step(cs: ControllerState, draw: Draw,
                          policy: str, dead: FrozenSet[str]) -> List[tuple]:
    """Victimize a subset of the deadlocked, not-yet-victimized machines.

    While a victim is still being recovered its cycle partners stay
    deadlocked; victimizing them too would undo both sides and usually
    recreate the same deadlock, so no new victim is picked until the
    current ones are off every cycle.

    `dead` is `deadlocked(cs)`."""
    if dead & cs.victims:
        return []
    candidates = dead - cs.victims
    if not candidates:
        return []
    chosen = VICTIM_POLICIES[policy](candidates, cs.histories, draw)
    return [("victimize", m) for m in sorted(chosen)]


def recovery_step(cs: ControllerState, draw: Draw,
                  dead: FrozenSet[str]) -> List[tuple]:
    """Pick one victim; un-victimize it if it is no longer deadlocked, else
    undo its youngest history entry, `("undo", machine, entry)`: the engine
    restores the values `entry.saved`, and the effect releases that step's
    locks.

    `dead` is `deadlocked(cs)`."""
    if not cs.victims:
        return []
    victims = sorted(cs.victims)
    machine = victims[draw(len(victims))]
    if machine not in dead:
        return [("unvictimize", machine)]
    history = cs.histories.get(machine, [])
    if not history:
        raise EmptyHistory(
            f"{machine} is deadlocked with an empty history; it should hold no locks")
    return [("undo", machine, history[-1])]


# ---------------------------------------------------------------------------
# Effect application (the engine calls this after the compute phase)


def apply_effect(cs: ControllerState, effect: tuple,
                 committed: List[str]) -> None:
    """Apply one effect `(kind, machine, ...)` of the engine (registration),
    a wrapper or a controller component; a commit also appends the machine
    to `committed`.  An effect that changes the machine's needed locks, the
    pair of a request not granted, adds the machine to
    `cs.wait_graph.changed`; a grant, an undo or a commit records the
    locations where the machine's locks changed in
    `cs.wait_graph.holders`.  `cs.pending` follows the pending records."""
    kind, machine = effect[0], effect[1]
    g, requests, pending = cs.wait_graph, cs.requests, cs.pending
    if kind == "append_history":
        cs.histories[machine].append(effect[2])
    elif kind == "lock_request":
        pair = effect[2]
        before = requests.pop(machine, None)  # to the back of request order
        requests[machine] = Request(pair, PENDING)
        pending.pop(machine, None)
        pending[machine] = pair
        if not _still_needs(before, pair):
            g.changed.add(machine)
    elif kind == "grant":
        pair = effect[2]
        cs.locks.grant(machine, pair)
        before = requests.get(machine)
        if before is not None and before.status != GRANTED:
            g.changed.add(machine)
        requests[machine] = Request(pair, GRANTED)
        pending.pop(machine, None)
        g.moved(machine, pair.r_loc, pair.w_loc)
    elif kind == "refuse":
        _refuse(cs, machine, effect[2])
    elif kind == "withdraw_request":
        # The pair keeps feeding the wait relation, also during recovery.
        _refuse(cs, machine, requests[machine].pair)
    elif kind == "commit_request":
        cs.commit_requests.add(machine)
        _drop_request(cs, machine)
    elif kind == "commit":
        g.moved(machine, cs.locks.locked_by(machine))
        cs.locks.release_all(machine)
        cs.commit_requests.discard(machine)
        _drop_request(cs, machine)
        committed.append(machine)
    elif kind == "victimize":
        cs.victims.add(machine)
    elif kind == "unvictimize":
        cs.victims.discard(machine)
    elif kind == "undo":
        history = cs.histories[machine]
        if not history or history[-1] is not effect[2]:
            raise EmptyHistory(f"{machine}: undo of an entry not its youngest")
        pair = history.pop().locks
        cs.locks.release(machine, pair)
        g.moved(machine, pair.r_loc, pair.w_loc)
    elif kind == "register":
        cs.histories[machine] = []
    else:
        raise ValueError(f"unknown effect {effect!r}")


def _refuse(cs: ControllerState, machine: str, pair: LockPair) -> None:
    """Record the machine's request for the pair as refused."""
    before = cs.requests.get(machine)
    cs.requests[machine] = Request(pair, REFUSED)
    cs.pending.pop(machine, None)
    if not _still_needs(before, pair):
        cs.wait_graph.changed.add(machine)


def _drop_request(cs: ControllerState, machine: str) -> None:
    """Drop the machine's request record, if any."""
    cs.pending.pop(machine, None)
    before = cs.requests.pop(machine, None)
    if before is not None and before.status != GRANTED:
        cs.wait_graph.changed.add(machine)


def _still_needs(before: Optional[Request], pair: LockPair) -> bool:
    """Whether a machine whose request record was `before` already needed
    the locks of `pair`: its request was for the pair and not granted."""
    return (before is not None and before.status != GRANTED
            and (before.pair is pair or before.pair.r_loc == pair.r_loc
                 and before.pair.w_loc == pair.w_loc))
