"""Synchronous run engine composing wrapped machines with the controller.

Every global step: snapshot the world, let each registered machine's wrapper
that is not `blocked` and the four controller components compute against the
snapshot, union all update sets (asserting consistency), apply, record.  All
nondeterminism is resolved by `draw` from labeled streams derived from one
master seed, so a (config, seed) pair replays bit-for-bit.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from . import controller as ctl
from .asm import (
    AsmError,
    Constant,
    EvalError,
    FALSE,
    InconsistentUpdateSet,
    Location,
    State,
    TRUE,
    UNDEF,
    UpdateSet,
    Value,
    _clashes,
    consistent,
    loc_key,
    value_key,
)
from .dsl import (
    LOCATIONS,
    MachineProgram,
    ParseError,
    ProgramError,
    location_entry,
    parse_program,
    print_location,
    print_program,
)
from .seeds import make_rng
from .wrapper import (  # MachineStep is also engine's API
    ACTIVE,
    DONE,
    TRANSITIONS,
    UNREGISTERED,
    MachineCtl,
    MachineStep,
    blocked,
    wrapper_step,
)

TRACE_VERSION = 5


class RunError(AsmError):
    pass


class InconsistentGlobalUpdate(RunError):
    """The union of one step's update sets clashed; a controller bug."""


class ConfigError(RunError):
    pass


class UnknownMachine(RunError):
    pass


#: setting -> its allowed values, for each setting that is one of a few names
CHOICES = {
    "wait_mode": ("retry", "suspend"),
    "lock_policy": tuple(ctl.LOCK_POLICIES),
    "commit_policy": tuple(ctl.COMMIT_POLICIES),
    "victim_policy": tuple(ctl.VICTIM_POLICIES),
    "run_mode": ("sync", "interleave"),
}


#: The largest `domain_size`: every state holds its whole domain, so a
#: larger one would cost memory in proportion before the first step.
MAX_DOMAIN_SIZE = 1 << 16


@dataclass
class RunConfig:
    """Everything needed to reproduce a run except the master seed."""

    machines: List[MachineProgram]
    # Initial values of the config itself, in the order given: locations
    # that several programs share, written once instead of in each program.
    shared_inits: List[Tuple[Location, Value]] = field(default_factory=list)
    domain_size: int = 8
    registration: Dict[str, int] = field(default_factory=dict)
    wait_mode: str = "retry"
    lock_policy: str = "random"
    commit_policy: str = "random"
    victim_policy: str = "shortest-history"
    run_mode: str = "sync"
    seed: int = 0
    max_steps: int = 200

    def __post_init__(self):
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate machine names: {names}")
        for name, known in CHOICES.items():
            value = getattr(self, name)
            if not isinstance(value, str) or value not in known:
                raise ConfigError(f"unknown {name.replace('_', ' ')} {value!r}")
        for name in ("seed", "domain_size", "max_steps"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.domain_size < 1:
            raise ConfigError("domain size must be positive")
        if self.domain_size > MAX_DOMAIN_SIZE:
            raise ConfigError(f"domain_size must be at most {MAX_DOMAIN_SIZE}, "
                              f"got {self.domain_size}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if not isinstance(self.registration, dict):
            raise ConfigError(f"registration must map machine names to "
                              f"steps, got {self.registration!r}")
        for name, step in self.registration.items():
            if name not in names:
                raise ConfigError(f"registration names unknown machine {name!r}")
            if type(step) is not int or step < 0:
                raise ConfigError(f"registration step of {name!r} must be a "
                                  f"non-negative integer, got {step!r}")
        seen = set()
        for loc, _ in self.shared_inits:
            if loc in seen:
                raise ConfigError(f"shared init of {loc} listed twice")
            seen.add(loc)
        self.machines = sorted(self.machines, key=lambda m: m.name)

    @property
    def machine_ids(self) -> List[str]:
        return [m.name for m in self.machines]

    def choice_bases(self) -> Dict[str, int]:
        """Per machine, the offset the choice resolver adds to its choose
        ids, which each program numbers from 0: the count of choose nodes of
        the machines before it in name order."""
        bases, base = {}, 0
        for m in self.machines:
            bases[m.name], base = base, base + m.choose_nodes
        return bases

    def domain(self) -> Tuple[int, ...]:
        return tuple(range(self.domain_size))

    def initial_state(self) -> State:
        values: Dict[Location, Value] = {}
        for inits in [m.inits for m in self.machines] + [self.shared_inits]:
            for loc, val in inits:
                loc_key(loc), value_key(val)  # TypeError on a Python bool
                if loc in values and values[loc] != val:
                    raise ConfigError(
                        f"conflicting initial values for {loc}: "
                        f"{values[loc]!r} vs {val!r}")
                values[loc] = val
        return State(values, self.domain())

    def to_payload(self) -> dict:
        payload = {name: getattr(self, name) for name in SETTINGS}
        payload["programs"] = {m.name: print_program(m) for m in self.machines}
        payload["shared_inits"] = [[location_text(l), plain_value(v)]
                                   for l, v in self.shared_inits]
        return payload

    @classmethod
    def from_payload(cls, payload: dict,
                     shared: Optional["_Shared"] = None) -> "RunConfig":
        """The config `to_payload` wrote; the settings are checked as
        given, each `programs` key must name the program it holds, and the
        shared inits decode into `shared`, a trace's memos."""
        machines = []
        for name, text in payload["programs"].items():
            try:
                machines.append(parse_program(text))
            except (ParseError, ProgramError) as e:
                raise ConfigError(f"programs key {name!r}: {e}") from None
            if machines[-1].name != name:
                raise ConfigError(f"programs key {name!r} holds machine "
                                  f"{machines[-1].name!r}")
        return cls(machines, (shared or _Shared()).pairs(
            payload["shared_inits"], "shared_inits"),
                   **{name: payload[name] for name in SETTINGS})

    def closed_system_warnings(self) -> List[str]:
        """External locations should be owned (shared/output) by some other
        machine; violations undermine the serializability guarantee."""
        out = []
        for m in self.machines:
            others = [n for n in self.machines if n.name != m.name]
            for f in sorted(m.shared | m.monitored):
                if not any(f in (o.shared | o.output) for o in others):
                    out.append(f"{m.name}: external function {f!r} is not "
                               f"shared/output of any other machine")
            for f in sorted(m.output):
                if not any(f in (o.shared | o.monitored) for o in others):
                    out.append(f"{m.name}: output function {f!r} is not "
                               f"observed by any other machine")
        return out


#: The settings of a run: every `RunConfig` field but the machines and the
#: shared inits.
SETTINGS = tuple(f.name for f in fields(RunConfig)
                 if f.name not in ("machines", "shared_inits"))

# What `json.dumps(obj, sort_keys=True, separators=(",", ":"))` writes,
# without building an encoder per call.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _text_digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def payload_digest(payload: dict) -> str:
    """blake2b-64 of the canonical JSON of a config payload."""
    return _text_digest(_dump(payload))


@dataclass
class StepRecord:
    index: int
    per_machine: Dict[str, MachineStep]  # the machines that did not idle
    events: List[dict]

    def delta(self) -> UpdateSet:
        """All location updates applied in this step (machines + undo restores)."""
        out: set = set()
        for ms in self.per_machine.values():
            out |= ms.updates
        for ev in self.events:
            if ev["kind"] == "undo":
                out |= set(ev["restored"])
        return frozenset(out)


@dataclass
class Trace:
    config: RunConfig
    initial_values: Dict[Location, Value]
    steps: List[StepRecord]
    final_values: Dict[Location, Value]
    status: str  # "done" | "budget"
    committed: List[str]  # commit order
    registered: List[str]


# ---------------------------------------------------------------------------
# Canonical encoding (trace files and state hashing)


def location_text(loc: Location) -> str:
    """A location in a trace: its text in the program language,
    `dsl.print_location`.  A symbol argument holding a comma would read
    back as two arguments, so it is ValueError."""
    for a in loc.args:
        if type(a) is str and "," in a:
            raise ValueError(f"symbol argument {a!r} of {loc.func} holds a "
                             f"comma")
    return print_location(loc)


#: The JSON of the constants, where values are plain JSON.
_JSON_CONSTANTS = {TRUE: True, FALSE: False, UNDEF: None}


def plain_value(v: Value):
    """A value as plain JSON, as a trace writes it: the integer or string,
    or true, false or null for undef."""
    return _JSON_CONSTANTS[v] if type(v) is Constant else v


def _plain_value(payload) -> Value:
    """The value a plain JSON integer, string, boolean or null writes; any
    other JSON is MalformedTrace."""
    kind = type(payload)
    if kind is int or kind is str:
        return payload
    if kind is bool:
        return TRUE if payload else FALSE
    if payload is None:
        return UNDEF
    raise MalformedTrace(f"malformed value {payload!r}")


#: The types of machine values.  A bool or a float can equal an int, so a
#: memo keyed on a value or location checks the types it does not hash.
_VALUE_TYPES = (int, str, Constant)


def _written_location(loc: Location) -> Tuple[tuple, str, str]:
    """The location's entry in the location table (`dsl.LOCATIONS`): its
    sort key, its text and its JSON.  A bool, float or None argument raises
    TypeError, as in `value_key`, and a symbol argument holding a comma
    ValueError, as in `location_text`: equal locations share one entry,
    so `a(True)` would find the entry of `a(1)`."""
    for a in loc.args:
        kind = type(a)
        if kind not in _VALUE_TYPES:
            raise TypeError(f"not a machine value: {a!r}")
        if kind is str and "," in a:
            location_text(loc)  # raises ValueError
    return location_entry(loc)


class _Fragments:
    """The canonical JSON text of location/value pairs.  Per location its
    entry in the location table, per value its sort key and its tail
    `,value]`, built once per trace: a pair's text is the location's JSON
    plus a tail, and a list of pairs joins those texts with `,[`.  A
    location is its `location_text`, a value plain JSON."""

    __slots__ = ("tails",)

    def __init__(self):
        self.tails: Dict[Value, Tuple[tuple, str]] = {}

    def entries(self, pairs) -> List[Tuple[tuple, tuple, str]]:
        """Each pair's location key, value key and text without its `[`.  A
        bool, float or None value or argument raises TypeError, as in
        `value_key`."""
        locations, tails = LOCATIONS, self.tails
        out = []
        for loc, v in pairs:
            entry = locations.get(loc)
            if entry is None or loc.args:  # a(True) hits a(1): check args
                entry = _written_location(loc)
            tail = tails.get(v)
            if tail is None or type(v) not in _VALUE_TYPES:
                tail = tails[v] = self._tail(v)
            out.append((entry[0], tail[0], entry[2] + tail[1]))
        return out

    def _tail(self, v: Value) -> Tuple[tuple, str]:
        if type(v) is int:  # an int needs no JSON call
            return ("i", v), f",{v}]"
        return value_key(v), "," + _dump(plain_value(v)) + "]"  # a bool fails

    def locations(self, locations) -> str:
        """The JSON list of the locations, sorted."""
        entries = sorted([_written_location(loc) for loc in locations])
        return "[" + ",".join([entry[2] for entry in entries]) + "]"

    def pairs(self, pairs) -> str:
        """The JSON list of the pairs, sorted by location, then value."""
        if not pairs:
            return "[]"
        entries = self.entries(pairs)
        entries.sort()
        return "[[" + ",[".join([e[2] for e in entries]) + "]"


def encode_value(v: Value):
    """A value as versions 1 to 3 wrote it, with its type's tag:
    `["i",7]`, `["s","q"]`, `["b",true]` or `["u"]`."""
    kind = type(v)
    if kind is int:
        return ["i", v]
    if kind is str:
        return ["s", v]
    if kind is Constant:
        return ["u"] if v is UNDEF else ["b", v is TRUE]
    raise TypeError(f"not a machine value: {v!r}")


def state_digest(state: State) -> str:
    """blake2b-64 of the canonical JSON of the state's pairs sorted by
    location, each `[[name, [argument, ...]], value]` with every value as
    `encode_value` writes it: the `state_hash` that the step records of
    versions 1 and 2 carry.  Neither `run` nor `check` computes it."""
    return _text_digest(_dump([
        [[loc.func, [encode_value(a) for a in loc.args]], encode_value(v)]
        for loc, v in sorted(state.values.items(),
                             key=lambda pair: loc_key(pair[0]))]))


# ---------------------------------------------------------------------------
# The engine


def run(config: RunConfig, only: Optional[List[str]] = None) -> Trace:
    """Execute the composed system and record a full trace; `only`
    restricts which machines register."""
    seed = config.seed
    active_ids = config.machine_ids if only is None else list(only)
    programs = {p.name: p for p in config.machines}
    for m in active_ids:
        if m not in programs:
            raise UnknownMachine(m)
    order = sorted(active_ids)

    state = config.initial_state()
    initial_values = dict(state.values)

    cs = ctl.ControllerState()
    bases = config.choice_bases()  # of every machine, also in a solo run
    tcbs = {m: MachineCtl(machine_id=m, choice_base=bases[m])
            for m in active_ids}
    committed: List[str] = []
    steps: List[StepRecord] = []
    joining: Dict[int, List[str]] = {}  # step index -> machines registering
    for m in order:
        joining.setdefault(config.registration.get(m, 0), []).append(m)
    live: List[str] = []  # registered and not done, in name order
    waiting: Set[str] = set()  # the live machines that are `blocked`

    wait_mode = config.wait_mode
    status = "budget"
    for index in range(config.max_steps):
        events: List[dict] = []
        # Registration is the entry into the controller's supervision; the
        # history starts empty.
        if index in joining:
            for m in joining[index]:
                tcbs[m].ctl_state = ACTIVE
                ctl.apply_effect(cs, ("register", m), committed)
                events.append(effect_event(("register", m)))
            live = sorted(live + joining[index])

        # Each registered machine commits once.
        if len(committed) == len(tcbs):
            status = "done"
            break

        acting_machines, controller_acts = _acting(config.run_mode, live,
                                                   seed, index)

        # Compute phase: every agent reads the same snapshot.
        per_machine: Dict[str, MachineStep] = {}
        effects: List[tuple] = []
        updates: set = set()
        finished: List[str] = []
        for m in acting_machines:
            if m in waiting:  # it performs no step: no record
                continue
            tcb = tcbs[m]
            try:
                ms, eff = wrapper_step(programs[m], tcb, state, cs, seed,
                                       index, wait_mode)
            except EvalError as e:
                e.args = (f"{e} (machine {m}, step {index})",)
                raise
            per_machine[m] = ms
            if ms.ctl_change is not None:  # read by this machine alone
                tcb.ctl_state = ms.ctl_change[1]
                if tcb.ctl_state == DONE:
                    finished.append(m)
            updates |= ms.updates
            effects += eff
        if finished:
            live = [m for m in live if m not in finished]

        ctl_effects: List[tuple] = []
        if controller_acts:
            # One search brings the kept wait graph up to date; every
            # component reads that snapshot.
            dead = ctl.deadlocked(cs)
            ctl_effects += ctl.lock_handler_step(
                cs, partial(draw, seed, "lock", index), config.lock_policy,
                wait_mode, cs.wait_graph.out)
            ctl_effects += ctl.commit_step(
                cs, partial(draw, seed, "commit", index),
                config.commit_policy)
            ctl_effects += ctl.deadlock_handler_step(
                cs, partial(draw, seed, "victim", index),
                config.victim_policy, dead)
            ctl_effects += ctl.recovery_step(
                cs, partial(draw, seed, "recover", index), dead)
            updates.update(*[eff[2].saved for eff in ctl_effects
                             if eff[0] == "undo"])

        if updates:
            if not consistent(updates):
                raise _clash_error(index, per_machine)
            state.update(updates)  # the run's own state: no copy

        # Apply phase: the wrappers' effects, then the controller's.  The
        # trace records the controller's events, then the lock requests.
        named = set(per_machine)
        for eff in effects + ctl_effects:
            ctl.apply_effect(cs, eff, committed)
            named.add(eff[1])
        # `blocked` reads the machine's control state, which only its step
        # changes, and its request record and victim mark, which only an
        # effect naming it changes.
        for m in named:
            if blocked(tcbs[m], cs, wait_mode):
                waiting.add(m)
            else:
                waiting.discard(m)
        for eff in ctl_effects + effects:
            event = effect_event(eff)
            if event is not None:
                events.append(event)

        steps.append(StepRecord(index=index, per_machine=per_machine,
                                events=events))
        cs.check_invariants()
        if len(committed) == len(tcbs):
            status = "done"
            break

    return Trace(config=config, initial_values=initial_values,
                 steps=steps, final_values=dict(state.values), status=status,
                 committed=committed, registered=list(active_ids))


def _clash_error(index: int, per_machine: Dict[str, MachineStep]) -> AsmError:
    """The error for a step whose update sets clash: the first machine
    whose own update set clashes, else a clash between agents."""
    for m, ms in per_machine.items():
        clashes = _clashes(ms.updates)
        if clashes:
            return InconsistentUpdateSet(
                f"step {index}: machine {m} writes clashing updates to "
                f"{clashes}")
    return InconsistentGlobalUpdate(
        f"step {index}: clashing updates in global step")


def draw(seed: int, kind: str, index: int, n: int) -> int:
    """The run's one source of choices: an index below `n` for the draw of
    `kind` ("interleave", or a controller component: "lock", "commit",
    "victim", "recover") at step `index`.  A choice among one option is no
    choice, so it returns 0 and seeds nothing; any other draw seeds
    `make_rng(seed, kind, index)`.  A run draws each (kind, index) at most
    once, so no draw depends on another."""
    if n == 1:
        return 0
    return make_rng(seed, kind, index).randrange(n)


def _acting(run_mode: str, live: List[str], seed: int, index: int):
    """The machines that compute this step, and whether the controller
    does: all of them in sync mode, else one agent drawn for the step."""
    if run_mode == "sync":
        return live, True
    agents = live + ["<controller>"]
    chosen = agents[draw(seed, "interleave", index, len(agents))]
    if chosen == "<controller>":
        return [], True
    return [chosen], False


# ---------------------------------------------------------------------------
# State reconstruction


def state_at(trace: Trace, index: int) -> State:
    """State after `index` steps have been applied (0 = initial state)."""
    state = State(dict(trace.initial_values),
                  tuple(range(trace.config.domain_size)))
    for rec in trace.steps[:index]:
        state = state.with_updates(rec.delta())
    return state


# ---------------------------------------------------------------------------
# Trace files (line-delimited canonical JSON)


class MalformedTrace(AsmError):
    pass


#: effect kind -> the kind of the trace event it records and that event's
#: fields beside `kind` and `machine`; the decoder accepts exactly these.
EVENTS = {
    "register": ("register", ()),
    "lock_request": ("lock_request", ()),
    "grant": ("lock_grant", ("locks",)),
    "refuse": ("lock_refuse", ("locks",)),
    "commit": ("commit", ()),
    "victimize": ("victimize", ()),
    "unvictimize": ("recovered", ()),
    "undo": ("undo", ("locks", "origin_step", "restored")),
}
_EVENT_KEYS = {k: {"kind", "machine", *f} for k, f in EVENTS.values()}

#: record kind -> the keys `trace_to_lines` writes in it (`config`: the
#: header's config, as `RunConfig.to_payload` writes it; `machine`: a
#: machine's entry in a step record); the decoder accepts exactly these.
RECORD_KEYS = {
    "header": {"type", "version", "config", "config_digest", "registered"},
    "config": {"programs", "shared_inits", *SETTINGS},
    "step": {"type", "index", "events", "machines"},
    "machine": {"updates", "reads", "ctl", "proper"},
    "final": {"type", "status", "committed", "final_state"},
}


def effect_event(effect: tuple) -> Optional[dict]:
    """The trace event an effect records, or None; the `locks` of a lock
    event are the effect's own `LockPair`."""
    if effect[0] not in EVENTS:
        return None
    kind, fields = EVENTS[effect[0]]
    event = {"kind": kind, "machine": effect[1]}
    if kind == "undo":
        entry = effect[2]
        event.update(origin_step=entry.origin_step, locks=entry.locks,
                     restored=list(entry.saved))
    elif fields:
        event["locks"] = effect[2]
    return event


def trace_to_lines(trace: Trace) -> List[str]:
    """The trace as lines of canonical JSON (keys sorted, no spaces),
    assembled from text fragments: each location's from the location table
    (`dsl.LOCATIONS`), built once per process, and, built once per trace,
    each value's (`_Fragments`), each machine name and control change, and
    each lock pair's payload, which lists each kind's locations sorted.
    Events have the fields `EVENTS` gives."""
    fragments = _Fragments()
    pairs = fragments.pairs
    texts: Dict[object, str] = {None: "null"}  # name or ctl change -> JSON
    locks: Dict[ctl.LockPair, str] = {}  # lock pair -> its payload's JSON

    def text(obj) -> str:
        out = texts.get(obj)
        if out is None:
            out = texts[obj] = _dump(obj)
        return out

    def lock_text(pair: ctl.LockPair) -> str:
        out = locks.get(pair)
        if out is None:
            out = locks[pair] = ('{"r":' + fragments.locations(pair.r_loc)
                                 + ',"w":' + fragments.locations(pair.w_loc)
                                 + "}")
        return out

    def event(ev: dict) -> str:
        out = '{"kind":' + text(ev["kind"])
        if "locks" in ev:
            out += ',"locks":' + lock_text(ev["locks"])
        out += ',"machine":' + text(ev["machine"])
        if "restored" in ev:
            origin = ev["origin_step"]
            out += (',"origin_step":' + ("null" if origin is None
                                         else str(origin))
                    + ',"restored":' + pairs(ev["restored"]))
        return out + "}"

    def machine(m: str, ms: MachineStep) -> str:
        return (text(m) + ':{"ctl":' + text(ms.ctl_change or None)
                + ',"proper":' + ("true" if ms.proper else "false")
                + ',"reads":' + pairs(ms.reads)
                + ',"updates":' + pairs(ms.updates) + "}")

    # The header, with the config's canonical text encoded once for both
    # the config and its digest.
    config = _dump(trace.config.to_payload())
    lines = ['{"config":' + config + ',"config_digest":"' + _text_digest(config)
             + '","registered":' + _dump(list(trace.registered))
             + ',"type":"header","version":' + str(TRACE_VERSION) + '}']
    for rec in trace.steps:
        lines.append(
            '{"events":[' + ",".join([event(ev) for ev in rec.events])
            + '],"index":' + str(rec.index) + ',"machines":{'
            + ",".join([machine(m, ms)
                        for m, ms in sorted(rec.per_machine.items())])
            + '},"type":"step"}')
    lines.append('{"committed":' + _dump(list(trace.committed))
                 + ',"final_state":' + pairs(trace.final_values.items())
                 + ',"status":' + _dump(trace.status) + ',"type":"final"}')
    return lines


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_to_lines(trace):
            fh.write(line + "\n")


def _object(pairs: List[tuple]) -> dict:
    """A JSON object as a dict; a key listed twice is ValueError, where
    `json.loads` would keep the last value."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return out


#: `json.loads` for trace lines and manifests: a key listed twice in an
#: object is ValueError.
loads_json = json.JSONDecoder(object_pairs_hook=_object).decode


def _parse_line(line: str, loads=loads_json):
    try:
        return loads(line)
    except ValueError as e:  # also an integer past Python's digit limit
        raise MalformedTrace(f"invalid JSON: {e}") from None
    except RecursionError:
        raise MalformedTrace("invalid JSON: nests too deeply") from None


#: `json.loads` that keeps the last value of a key listed twice, for step
#: lines, whose keys `trace_from_lines` counts.
_loads_lax = json.JSONDecoder().decode


class _Shared:
    """The objects one trace holds many times, each distinct one decoded
    once: locations, location/value pairs, lock pairs and machine steps, in
    memos that live as long as one decoding.  A location is its text
    (`location_text`) and a value plain JSON.  Each memo is keyed on the
    JSON objects themselves, so each distinct location text is parsed once,
    and a pair or a lock payload seen before is one lookup: a pair by
    `(text, type(value), value)`, so `1` and `true` stay apart, a lock
    payload by its `r` and `w` lists as tuples of texts.  Only decoded
    payloads enter a memo, so a hit is a payload that decodes."""

    __slots__ = ("locations", "pair_memo", "lock_memo", "step_memo")

    def __init__(self):
        self.locations: Dict[str, Location] = {}  # text -> the location
        self.pair_memo: Dict[tuple, tuple] = {}  # text, type, value -> pair
        # the texts of the `r` and of the `w` list -> the lock pair
        self.lock_memo: Dict[tuple, ctl.LockPair] = {}
        # the decoded fields of a machine record -> its MachineStep
        self.step_memo: Dict[tuple, MachineStep] = {}

    def location(self, text) -> Location:
        """The location `text` writes, one object per distinct text; any
        other JSON is MalformedTrace."""
        loc = self.locations.get(text) if type(text) is str else None
        if loc is None:
            loc = _parse_location(text)
            if loc is None:
                raise MalformedTrace(f"malformed location {text!r}")
            self.locations[text] = loc
        return loc

    def pairs(self, payload, what: str) -> List[Tuple[Location, Value]]:
        """The location/value pairs `payload` lists, one tuple per distinct
        pair; `payload`, the trace's `what`, and its entries must be lists."""
        if type(payload) is not list:
            raise MalformedTrace(f"{what} is not a list: {payload!r}")
        memo = self.pair_memo
        out = []
        for entry in payload:
            l, v = entry
            if type(entry) is not list:  # an object of two keys unpacks too
                raise MalformedTrace(f"{what} entry is not a list: {entry!r}")
            key = (l, type(v), v)
            try:
                pair = memo[key]
            except KeyError:
                pair = memo[key] = (self.location(l), _plain_value(v))
            except TypeError:  # an unhashable location or value
                pair = (self.location(l), _plain_value(v))  # raises
            out.append(pair)
        return out

    def step(self, updates: list, reads: list,
             ctl_change: Optional[Tuple[str, str]],
             proper: bool) -> MachineStep:
        """One MachineStep per distinct machine record: most records only
        change a control state, and undone steps are taken again."""
        key = (tuple(updates), tuple(reads), ctl_change, proper)
        try:
            out = self.step_memo.get(key)
        except TypeError:  # an unhashable `ctl`, which `Control` rejects
            return MachineStep(frozenset(updates), key[1], ctl_change, proper)
        if out is None:
            out = self.step_memo[key] = MachineStep(
                frozenset(updates), key[1], ctl_change, proper)
        return out

    def locks(self, payload) -> Optional[ctl.LockPair]:
        """One `LockPair` per distinct lock payload, equal to the pair the
        run recorded.  None when `payload` is not of the shape
        `trace_to_lines` writes: `r` and `w`, each a list of location
        texts."""
        if type(payload) is not dict or payload.keys() != _LOCK_KINDS:
            return None
        r, w = payload["r"], payload["w"]
        if type(r) is not list or type(w) is not list:
            return None
        key = (tuple(r), tuple(w))
        try:
            return self.lock_memo[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable entry
            return None
        try:
            out = self.lock_memo[key] = ctl.LockPair(
                frozenset([self.location(text) for text in r]),
                frozenset([self.location(text) for text in w]))
        except MalformedTrace:
            return None
        return out


_LOCK_KINDS = {"r", "w"}


#: The function name of a location: an identifier, as the language lexes it.
_FUNCTION = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: The arguments that are no integer and no symbol.
_ARGUMENTS = {"true": TRUE, "false": FALSE}


def _parse_location(text) -> Optional[Location]:
    """The location whose `location_text` is `text`, or None: a function
    name, then its arguments in parentheses, separated by commas, each an
    integer, a symbol (`'` and its name) or `true` or `false`.  The
    location must print back to `text`, so `arr(01)`, `arr( 3)` and
    `arr(-0)` are none."""
    if type(text) is not str or text[-1:] != ")":
        return None
    func, paren, inner = text[:-1].partition("(")
    if not paren or _FUNCTION.fullmatch(func) is None:
        return None
    args = []
    for a in inner.split(",") if inner else ():
        if a in _ARGUMENTS:
            args.append(_ARGUMENTS[a])
        elif a[:1] == "'":
            args.append(a[1:])
        else:
            try:
                args.append(int(a))
            except ValueError:  # also past the int-string digit limit
                return None
    loc = Location(func, tuple(args))
    return loc if print_location(loc) == text else None


def _decode_header(lines: List[str]):
    """The trace's header, footer, config, the memos its records decode
    into and its initial values, those the config gives."""
    header = _parse_line(lines[0]) if lines else None
    if type(header) is not dict or header.get("type") != "header":
        raise MalformedTrace("missing header record")
    final = _parse_line(lines[-1])
    if type(final) is not dict or final.get("type") != "final":
        raise MalformedTrace("missing final record (truncated trace?)")
    version = header.get("version")
    if type(version) is not int or version != TRACE_VERSION:
        raise MalformedTrace(f"unsupported trace version {version!r}: this "
                             f"taserial reads version {TRACE_VERSION}")
    if header.keys() != RECORD_KEYS["header"]:
        raise _bad_keys(header, RECORD_KEYS["header"], "the header")
    if final.keys() != RECORD_KEYS["final"]:
        raise _bad_keys(final, RECORD_KEYS["final"], "the final record")
    payload = header["config"]
    if type(payload) is not dict or payload.keys() != RECORD_KEYS["config"]:
        raise _bad_keys(payload, RECORD_KEYS["config"], "the header's config")
    shared = _Shared()
    config = RunConfig.from_payload(payload, shared)
    if payload_digest(payload) != header["config_digest"]:
        raise MalformedTrace("config_digest does not match the config")
    initial = config.initial_state().values
    for loc in initial:  # the records' texts decode to the same objects
        shared.locations.setdefault(location_entry(loc)[1], loc)
    if len(lines) - 2 > config.max_steps:
        raise MalformedTrace(f"{len(lines) - 2} step records exceed "
                             f"max_steps {config.max_steps}")
    return header, final, config, shared, initial


def _decode_step(line: str, index: int, shared: _Shared) -> StepRecord:
    """Step record `index`; a list `ctl` becomes a tuple, any other is left
    to `Control`.  The pairs hook makes parsing a step line 40% slower, so
    `keys` counts the keys of the record's objects instead: each key in the
    text is followed by one `:`, and only a line with more `:` (a key listed
    twice, or a `:` in a string) is parsed again with `loads_json`."""
    rec = _parse_line(line, _loads_lax)
    if rec.get("type") != "step":
        raise MalformedTrace(f"unexpected record type {rec.get('type')!r}")
    if rec.keys() != RECORD_KEYS["step"]:
        raise _bad_keys(rec, RECORD_KEYS["step"], f"step record {index}")
    if type(rec["index"]) is not int or rec["index"] != index:
        raise MalformedTrace(f"step record {index} has index "
                             f"{rec['index']!r}")
    machines, events = rec["machines"], rec["events"]
    if type(events) is not list:
        raise MalformedTrace(f"step record {index}: events is not a list: "
                             f"{events!r}")
    keys = len(rec) + len(machines)
    for ev in events:  # checked against `EVENTS` and decoded in place
        kind = ev.get("kind")
        if type(kind) is not str or ev.keys() != _EVENT_KEYS.get(kind):
            raise MalformedTrace(f"step record {index}: no {kind!r} event "
                                 f"has the fields {sorted(ev)}")
        keys += len(ev)
        if "locks" in ev:
            locks = shared.locks(ev["locks"])
            if locks is None:
                raise MalformedTrace(f"step record {index}: {kind} event of "
                                     f"{ev['machine']} has locks "
                                     f"{ev['locks']!r}")
            keys += 2  # `r` and `w`
            ev["locks"] = locks
        if kind == "undo":
            ev["restored"] = shared.pairs(ev["restored"], "restored")
    per_machine = {}
    for m, ms in machines.items():
        keys += len(ms)
        proper, ctl = ms["proper"], ms["ctl"]
        if ms.keys() != RECORD_KEYS["machine"]:
            raise _bad_keys(ms, RECORD_KEYS["machine"],
                            f"step record {index}: the record of {m!r}")
        if type(proper) is not bool:
            raise MalformedTrace(f"step record {index}: {m!r} has proper "
                                 f"{proper!r}")
        per_machine[m] = shared.step(
            shared.pairs(ms["updates"], "updates"),
            shared.pairs(ms["reads"], "reads"),
            tuple(ctl) if type(ctl) is list else ctl, proper)
    if line.count(":") != keys:
        _parse_line(line)  # raises if a key is listed twice
    return StepRecord(index, per_machine, events)


#: Past its commit event; not a control state, so no record or event fits it.
_COMMITTED = "committed"

#: The control states in which a machine takes no step, so has no record.
_NO_RECORD = (UNREGISTERED, DONE, _COMMITTED)


class Control:
    """Checks TaCtl's control: each machine registers in its registration
    step, moves along `TRANSITIONS` and commits after `done`; an undo names
    a proper step of its machine not yet undone; a record that is not proper
    only changes the control state; the agents are those `_acting` draws."""

    def __init__(self, config: RunConfig, registered):
        self.config, self.commits = config, []
        self.registered = self._names(registered, "registered",
                                      config.machine_ids, "in the config")
        # per machine its control state, and its proper steps not undone
        self.ctl_of = dict.fromkeys(self.registered, UNREGISTERED)
        self.undoable = {m: set() for m in self.registered}
        self.active: Set[str] = set()  # the machines in control state active
        self.last_commit = 0  # the step count when the last commit was seen

    def step(self, rec: StepRecord) -> None:
        index, machines = rec.index, rec.per_machine
        for ev in rec.events:
            self._event(ev, index)
        # In sync mode every live machine acts, and an active one always
        # steps or changes its control state: only a waiting one idles.
        if self.config.run_mode == "sync":
            if not machines.keys() >= self.active:
                raise MalformedTrace(
                    f"step record {index}: no record of active machines "
                    f"{sorted(self.active - machines.keys())}")
        else:
            self._agent(rec)
        for m, ms in machines.items():
            state = self.ctl_of.get(m)
            if state is None:
                raise MalformedTrace(f"step record {index}: machine {m!r} is "
                                     f"not registered")
            if state in _NO_RECORD:
                raise MalformedTrace(f"step record {index}: {m!r} has a "
                                     f"record in control state {state!r}")
            move = ms.ctl_change
            if move is not None:
                if type(move) is not tuple or move not in TRANSITIONS or (
                        move[0] != state):
                    raise MalformedTrace(
                        f"step record {index}: {m!r} has ctl "
                        f"{list(move) if type(move) is tuple else move!r} in "
                        f"control state {state!r}")
                self.ctl_of[m] = move[1]
                (self.active.add if move[1] == ACTIVE
                 else self.active.discard)(m)
            elif not ms.proper:
                raise MalformedTrace(f"step record {index}: {m!r} has a "
                                     f"record that neither steps nor changes "
                                     f"its control state")
            if ms.proper:
                self.undoable[m].add(index)
            elif ms.reads or ms.updates:
                raise MalformedTrace(f"step record {index}: {m!r} has reads "
                                     f"or updates in a record that is not "
                                     f"proper")

    def _event(self, ev: dict, index: int) -> None:
        kind, m = ev["kind"], ev["machine"]
        if type(m) is not str or m not in self.ctl_of:
            raise MalformedTrace(f"step record {index}: {kind} event names "
                                 f"{m!r}, which is not registered")
        state = self.ctl_of[m]
        # Only an unregistered machine registers, only one that asked to
        # commit commits, and no event names a machine after its commit.
        if (state == _COMMITTED
                or (kind == "register") != (state == UNREGISTERED)
                or kind == "commit" and state != DONE):
            raise MalformedTrace(f"step record {index}: {kind} event of {m} "
                                 f"in control state {state!r}")
        if kind == "register":
            step = self.config.registration.get(m, 0)
            if index != step:
                raise MalformedTrace(f"step record {index}: {m} registers "
                                     f"in step {step}")
            self.ctl_of[m] = ACTIVE
            self.active.add(m)
        elif kind == "commit":
            self.ctl_of[m] = _COMMITTED
            self.commits.append(m)
            self.last_commit = index + 1
        elif kind == "undo":
            origin = ev["origin_step"]
            if origin is not None and (type(origin) is not int
                                       or origin not in self.undoable[m]):
                raise MalformedTrace(f"step record {index}: undo of {m} "
                                     f"names {origin!r}, not an earlier step "
                                     f"to undo")
            self.undoable[m].discard(origin)

    def _agent(self, rec: StepRecord) -> None:
        """In interleave mode only the agent `_acting` draws acts: a machine,
        with at most its own record and, beside registrations, its lock
        requests, or the controller, with no record and no lock request."""
        live = sorted(m for m, s in self.ctl_of.items() if s not in _NO_RECORD)
        acting, _ = _acting("interleave", live, self.config.seed, rec.index)
        agent = acting[0] if acting else None
        acts = f"but only {agent or 'the controller'} acts in it"
        if len(rec.per_machine) > 1 or rec.per_machine and (
                agent not in rec.per_machine):
            raise MalformedTrace(f"step record {rec.index}: records of "
                                 f"{sorted(rec.per_machine)}, {acts}")
        for ev in rec.events:
            kind = ev["kind"]
            if (kind == "lock_request" and ev["machine"] != agent
                    or agent and kind not in ("register", "lock_request")):
                raise MalformedTrace(f"step record {rec.index}: {kind} event "
                                     f"of {ev['machine']}, {acts}")

    def finish(self, trace: Trace) -> None:
        steps = len(trace.steps)
        for m in self.registered:
            step = self.config.registration.get(m, 0)
            if self.ctl_of[m] == UNREGISTERED and step < steps:
                raise MalformedTrace(f"step record {step}: no register event "
                                     f"of {m}")
        committed = self._names(trace.committed, "committed", self.registered,
                                "registered")
        if committed != self.commits:
            raise MalformedTrace(f"committed {committed} is not the order of "
                                 f"the commit events {self.commits}")
        done = len(committed) == len(self.registered)
        # A run stops at the step of the last commit, or at its budget.
        if (trace.status != ("done" if done else "budget") or steps
                != (self.last_commit if done else self.config.max_steps)):
            raise MalformedTrace(
                f"status {trace.status!r} with {len(committed)} of "
                f"{len(self.registered)} machines committed in {steps} of "
                f"{self.config.max_steps} steps")

    @staticmethod
    def _names(names, what: str, known: List[str], known_as: str) -> list:
        """The trace's `what` list, each name once and each one of `known`."""
        if not isinstance(names, list):
            raise MalformedTrace(f"{what} is not a list: {names!r}")
        for i, m in enumerate(names):
            if m not in known or m in names[:i]:
                raise MalformedTrace(f"{what} names {m!r} " + (
                    "twice" if m in known else f"which is not {known_as}"))
        return names


class Replay:
    """Replays the states: each recorded read is the value of its location
    (undef if absent) before its step; each step's delta applies as in
    `State.with_updates`, and the footer's final state is the last
    result."""

    def __init__(self, initial_values: dict):
        self.values = dict(initial_values)  # the state after the steps so far

    def step(self, rec: StepRecord) -> None:
        values, delta = self.values, []  # delta: updates and restores
        for m, ms in rec.per_machine.items():
            for loc, v in ms.reads:
                if values.get(loc, UNDEF) != v:
                    raise MalformedTrace(
                        f"step record {rec.index}: {m} reads "
                        f"{print_location(loc)} {_dump(plain_value(v))}, but "
                        f"the steps before leave "
                        f"{_dump(plain_value(values.get(loc, UNDEF)))}")
            delta += ms.updates
        for ev in rec.events:
            if ev["kind"] == "undo":
                delta += ev["restored"]
        if delta:
            updates = dict(delta)
            if len(updates) < len(delta) and not consistent(delta):
                raise MalformedTrace(
                    f"step record {rec.index} gives "
                    f"{print_location(_clashes(delta)[0])} two values")
            values.update(updates)
            if UNDEF in updates.values():
                for loc, v in updates.items():
                    if v is UNDEF:
                        del values[loc]

    def finish(self, trace: Trace) -> None:
        """The error names the first differing location, in canonical order."""
        final, replayed = trace.final_values, self.values
        if final != replayed:
            loc = min((l for l in final.keys() | replayed.keys()
                       if final.get(l) != replayed.get(l)), key=loc_key)
            given, left = (_dump(plain_value(d[loc])) if loc in d else "none"
                           for d in (final, replayed))
            raise MalformedTrace(f"final_state gives {print_location(loc)} "
                                 f"{given}, but the steps leave {left}")


def trace_from_lines(lines: List[str]) -> Trace:
    """The trace the lines encode, of version `TRACE_VERSION`; any other
    version is MalformedTrace.  One pass: after the header and the footer,
    each step line is decoded into the `_Shared` objects of the trace and
    handed to the monitors `Control` and `Replay`, which see the decoded
    footer last."""
    lines = [line for line in lines if line.strip()]
    try:
        header, final, config, shared, initial = _decode_header(lines)
        control = Control(config, header["registered"])
        replay = Replay(initial)
        steps = []
        for line in lines[1:-1]:
            rec = _decode_step(line, len(steps), shared)
            control.step(rec)
            replay.step(rec)
            steps.append(rec)
        trace = Trace(config, initial, steps,
                      dict(shared.pairs(final["final_state"], "final_state")),
                      final["status"], final["committed"], control.registered)
        control.finish(trace)
        replay.finish(trace)
        return trace
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as e:
        raise MalformedTrace(f"malformed trace record: {e!r}") from None


def _bad_keys(record, keys: Set[str], what: str) -> MalformedTrace:
    """The error for a record that is not an object with exactly `keys`."""
    if type(record) is not dict:
        return MalformedTrace(f"{what} is not an object: {record!r}")
    return MalformedTrace(f"{what} has the keys {sorted(record)}, not "
                          f"{sorted(keys)}")


def load_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise MalformedTrace(f"{path}: not UTF-8 text: {e}") from None
    return trace_from_lines(text.splitlines())
