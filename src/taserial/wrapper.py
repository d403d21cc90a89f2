"""Per-machine transactional wrapper.

Wraps one machine in a small control-state machine that negotiates locks
with the controller before every step, and every termination test, touching
non-private locations, records undo information for each proper step, and
reacts to victimization by pausing until recovered.

Control states: "unregistered" -> "active" (at registration), then the
wrapper's `TRANSITIONS`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .asm import (
    UNDEF,
    AsmError,
    Location,
    State,
    UpdateSet,
    Value,
    record,
)
from .controller import (
    EMPTY_LOCKS,
    GRANTED,
    PENDING,
    REFUSED,
    ControllerState,
    HistoryEntry,
    LockPair,
    next_ordinal,
)
from .dsl import LOCATIONS, MachineProgram, location_entry
from .rwloc import Code, RwSet, compile_formula, compile_rule, rw_rule
from .seeds import ChoiceResolver, derive_bytes

UNREGISTERED = "unregistered"
ACTIVE = "active"
WAIT_LOCKS = "wait-locks"
WAIT_RECOVERY = "wait-recovery"
DONE = "done"

#: Every control-state change a wrapper step makes, as a trace's `ctl`
#: changes name them.  "done" means commit requested.
TRANSITIONS = (
    (ACTIVE, WAIT_LOCKS), (WAIT_LOCKS, ACTIVE),
    (ACTIVE, WAIT_RECOVERY), (WAIT_RECOVERY, ACTIVE),
    (WAIT_LOCKS, WAIT_RECOVERY), (ACTIVE, DONE),
)


class IllegalControlState(AsmError):
    pass


class InvalidWrite(AsmError):
    """A machine tried to write one of its monitored locations."""


@dataclass
class MachineCtl:
    """Mutable per-machine transactional bookkeeping owned by the run engine."""

    machine_id: str
    ctl_state: str = UNREGISTERED
    # The offset of the program's choose ids in the run: see
    # engine.RunConfig.choice_bases.
    choice_base: int = 0
    # ordinal -> (seed, log, done, RwSet, read log, lock needs) of the last
    # decision on that proper step, reused by `_step_analysis` while the
    # reads in its log are unchanged; emptied when the machine requests
    # commit.
    analyses: Dict[int, tuple] = field(default_factory=dict, repr=False,
                                       compare=False)


@record
class MachineStep:
    """What one machine did in a global step, as the trace records it."""

    updates: UpdateSet
    reads: Tuple[Tuple[Location, Value], ...]
    ctl_change: Optional[Tuple[str, str]]
    proper: bool


#: The step of a machine that does nothing: a machine waiting for an answer
#: to its lock request, or for its recovery.
IDLE_STEP = MachineStep(frozenset(), (), None, False)


#: Per transition, the step that only makes it.
_MOVES = {t: MachineStep(frozenset(), (), t, False) for t in TRANSITIONS}


def _moved(ctl_change: Tuple[str, str], *effects: tuple):
    """A step that only changes the control state, and its effects."""
    return _MOVES[ctl_change], list(effects)


def _main_code(program: MachineProgram) -> Code:
    """The program's main rule, compiled on first use."""
    code = program.code.get("main")
    if code is None:
        code = program.code["main"] = compile_rule(program.main_rule,
                                                   program.named_rules)
    return code


def analyse(program: MachineProgram, state: State, material: bytes,
            choice_base: int = 0):
    """One pass over the main rule: its reads (with values), writes and
    update set in this state.  A program with no choose node gets no choice
    resolver; one with some numbers them from `choice_base`."""
    read_log: Dict[Location, Value] = {}
    resolver = (ChoiceResolver(material, choice_base)
                if program.choose_nodes else None)
    rw = rw_rule(_main_code(program), state, {}, resolver, read_log=read_log)
    return rw, read_log


def _lock_classes(program: MachineProgram) -> tuple:
    """The names of the functions whose reads need a lock (shared and
    monitored) and of those whose writes need one (shared and output);
    computed on first use and kept with the program's code."""
    classes = program.code.get("locks")
    if classes is None:
        classes = program.code["locks"] = (
            program.shared | program.monitored,
            program.shared | program.output)
    return classes


def _lock_needs(program: MachineProgram, rw: Optional[RwSet],
                tested) -> LockPair:
    """The locks a step needs after a termination test that read `tested`:
    the test's and the step's shared and monitored reads, and the step's
    shared and output writes.  A terminated machine's `rw` is None."""
    read_locked, write_locked = _lock_classes(program)
    reads = [l for l in tested if l.func in read_locked]
    if rw is None:
        return LockPair(frozenset(reads))
    return LockPair(
        frozenset(reads + [l for l in rw.reads if l.func in read_locked]),
        frozenset([l for l in rw.writes if l.func in write_locked]))


def _step_analysis(program: MachineProgram, tcb: MachineCtl, state: State,
                   seed: int, ordinal: int):
    """The machine's decision on its next proper step, `ordinal`, in this
    state: `(done, rw, read_log, needs)`.  `done` is the termination test;
    `rw` and `read_log` are the step's `analyse`, both None once done; and
    `needs` is the `_lock_needs` of the test's and the step's locations.

    The last decision on the same ordinal is reused when it was made with
    the same seed and every location the test or the step read still holds
    the logged value, also after an undo rolled the machine back to that
    ordinal.  Those reads hold every location the decision depends on,
    assignment targets included, at its value before the step (a location
    written by an item of a `seq` block was logged as a target before a
    later item reads it), so a fresh one would decide the same.
    """
    last = tcb.analyses.get(ordinal)
    if last is not None and last[0] == seed:
        values = state.values
        for loc, v in last[1].items():
            if values.get(loc, UNDEF) != v:
                break
        else:
            return last[2:]
    log: Dict[Location, Value] = {}
    if terminated(program, state, log):
        decision = True, None, None, _lock_needs(program, None, log)
    else:
        rw, read_log = analyse(program, state,
                               step_material(program, seed, tcb.machine_id,
                                             ordinal), tcb.choice_base)
        decision = False, rw, read_log, _lock_needs(program, rw, log)
        log.update(read_log)
    tcb.analyses[ordinal] = (seed, log) + decision
    return decision


def _sort_key(pair: Tuple[Location, Value]) -> tuple:
    """The location's `asm.loc_key`, from the location table
    (`dsl.LOCATIONS`): every proper step sorts the same few locations again.
    The table answers for a(True) with a(1)'s entry; no run or serial run
    builds such a location."""
    entry = LOCATIONS.get(pair[0])
    if entry is None:
        entry = location_entry(pair[0])
    return entry[0]


def _by_location(pairs) -> Tuple[Tuple[Location, Value], ...]:
    return tuple(sorted(pairs, key=_sort_key))


def overwritten_values(state: State, writes: FrozenSet[Location]
                       ) -> Tuple[Tuple[Location, Value], ...]:
    """Current values of the locations about to be written."""
    values = state.values
    return _by_location([(l, values.get(l, UNDEF)) for l in writes])


def choice_material(seed: int, machine_id: str, ordinal: int) -> bytes:
    """Seed material for the machine's next proper step.

    Keyed by the count of proper steps performed (not the global step
    index), so a serial run or a post-undo re-execution resolves every
    choose rule the same way.
    """
    return derive_bytes(seed, "choice", machine_id, ordinal)


def step_material(program: MachineProgram, seed: int, machine_id: str,
                  ordinal: int) -> bytes:
    """`choice_material` for a program with a choose node; a program with
    none never picks, so it gets none."""
    if program.choose_nodes:
        return choice_material(seed, machine_id, ordinal)
    return b""


def terminated(program: MachineProgram, state: State,
               reads: Optional[Dict[Location, Value]] = None) -> bool:
    """The termination formula, evaluated like asm.eval_formula; the
    locations it reads go into `reads`."""
    code = program.code.get("terminated")
    if code is None:
        code = program.code["terminated"] = compile_formula(program.terminated)
    return code(state, {}, {} if reads is None else reads)


def blocked(tcb: MachineCtl, cs: ControllerState, wait_mode: str) -> bool:
    """Whether the machine waits for the controller and so performs no step:
    in wait-locks with its request pending, unless in suspend mode it is a
    victim (it must withdraw the request), or in wait-recovery while it is
    a victim."""
    ctl_state = tcb.ctl_state
    if ctl_state == WAIT_LOCKS:
        return (cs.requests[tcb.machine_id].status == PENDING
                and not (wait_mode == "suspend"
                         and tcb.machine_id in cs.victims))
    return ctl_state == WAIT_RECOVERY and tcb.machine_id in cs.victims


def wrapper_step(program: MachineProgram, tcb: MachineCtl, state: State,
                 cs: ControllerState, seed: int, step_index: int,
                 wait_mode: str = "retry") -> Tuple[MachineStep, List[tuple]]:
    """One transition of the control-state machine in Fig-style composition:
    the step the trace records and its effects.

    Reads the controller state of the same global step, as TA(M) reads
    TaCtl's locations, and changes neither it nor the state; lock requests,
    withdrawals, commit requests and history appends are returned as
    effects `(kind, machine, ...)` that the engine applies after every agent
    has computed.  Only the analyses kept on tcb for reuse are written.  A
    `blocked` machine gets `IDLE_STEP`; the engine does not step it.
    """
    m = tcb.machine_id
    if tcb.ctl_state == ACTIVE:
        if m in cs.victims:
            return _moved((ACTIVE, WAIT_RECOVERY))
        granted, change = EMPTY_LOCKS, None
    elif blocked(tcb, cs, wait_mode):
        return IDLE_STEP, []
    elif tcb.ctl_state == WAIT_LOCKS:
        granted, status = cs.requests[m]
        if status == REFUSED:
            return _moved((WAIT_LOCKS, ACTIVE))
        if status != GRANTED:
            # Pending, and a victim in suspend mode.  Without refusals there
            # is no trip through "active" where victimization is normally
            # observed; withdraw the pending request so no locks are granted
            # during recovery, and wait.
            return _moved((WAIT_LOCKS, WAIT_RECOVERY), ("withdraw_request", m))
        change = (WAIT_LOCKS, ACTIVE)
    elif tcb.ctl_state == WAIT_RECOVERY:
        return _moved((WAIT_RECOVERY, ACTIVE))
    else:
        raise IllegalControlState(f"{m} cannot step in {tcb.ctl_state}")
    # TA(M): ask to commit once M has terminated; take the step when every
    # lock it and the termination test need is held; else ask for the rest.
    ordinal = next_ordinal(cs.histories[m])
    done, rw, read_log, needs = _step_analysis(program, tcb, state, seed,
                                               ordinal)
    needed = cs.locks.missing(m, needs.r_loc, needs.w_loc)
    if not done and needed.is_empty():
        updates, reads = checked_step(program, m, rw, read_log)
        entry = HistoryEntry(saved=overwritten_values(state, rw.writes),
                             locks=granted, origin_step=step_index,
                             ordinal=ordinal)
        return (MachineStep(updates, reads, change, True),
                [("append_history", m, entry)])
    if change is not None:
        # The machine terminated, or the state moved between request and
        # grant and the step or the test now touches unlocked locations;
        # keep the granted locks on the undo history (so backtracking
        # releases them) and go on from active, which requests commit or
        # the missing locks.
        entry = HistoryEntry(saved=(), locks=granted)
        return _moved(change, ("append_history", m, entry))
    if not needed.is_empty():
        return _moved((ACTIVE, WAIT_LOCKS), ("lock_request", m, needed))
    tcb.analyses.clear()
    return _moved((ACTIVE, DONE), ("commit_request", m))


def checked_step(program: MachineProgram, machine_id: str, rw: RwSet,
                 read_log: Dict[Location, Value]):
    """The update set and the sorted reads a proper step records, once it is
    known to write no monitored location."""
    monitored = program.monitored
    for l in rw.writes:
        if l.func in monitored:
            raise InvalidWrite(f"{machine_id} writes monitored location {l}")
    return rw.updates, _by_location(read_log.items())
