"""Synchronous run engine composing wrapped machines with the controller.

Every global step: snapshot the world, let each registered machine's wrapper
and the four controller components compute against the snapshot, union all
update sets (asserting consistency), apply, record.  All nondeterminism is
resolved from labeled streams derived from one master seed, so a (config,
seed) pair replays bit-for-bit.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple

from . import controller as ctl
from .asm import (
    AsmError,
    Constant,
    FALSE,
    InconsistentUpdateSet,
    Location,
    State,
    TRUE,
    UNDEF,
    UpdateSet,
    Value,
    _clashes,
    assign_choice_ids,
    consistent,
    loc_key,
    value_key,
)
from .dsl import MachineProgram, parse_program, print_program
from .seeds import make_rng
from .wrapper import (  # MachineStep and IDLE_STEP are also engine's API
    ACTIVE,
    DONE,
    IDLE_STEP,
    TRANSITIONS,
    UNREGISTERED,
    MachineCtl,
    MachineStep,
    wrapper_step,
)

TRACE_VERSION = 1


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


@dataclass
class RunConfig:
    """Everything needed to reproduce a run except the master seed."""

    machines: List[MachineProgram]
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
        self.machines = sorted(self.machines, key=lambda m: m.name)
        rules = []
        for m in self.machines:
            rules.append(m.main_rule)
            rules.extend(n.body for _, n in sorted(m.named_rules.items()))
        assign_choice_ids(rules)

    @property
    def machine_ids(self) -> List[str]:
        return [m.name for m in self.machines]

    def domain(self) -> Tuple[int, ...]:
        return tuple(range(self.domain_size))

    def initial_state(self) -> State:
        values: Dict[Location, Value] = {}
        for m in self.machines:
            for loc, val in m.inits:
                if loc in values and values[loc] != val:
                    raise ConfigError(
                        f"conflicting initial values for {loc}: "
                        f"{values[loc]!r} vs {val!r}")
                values[loc] = val
        return State(values, self.domain())

    def to_payload(self) -> dict:
        payload = {name: getattr(self, name) for name in SETTINGS}
        payload["programs"] = {m.name: print_program(m) for m in self.machines}
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RunConfig":
        """The config `to_payload` wrote; the settings are checked as
        given, and each `programs` key must name the program it holds."""
        machines = []
        for name, text in payload["programs"].items():
            machines.append(parse_program(text))
            if machines[-1].name != name:
                raise ConfigError(f"programs key {name!r} holds machine "
                                  f"{machines[-1].name!r}")
        return cls(machines, **{name: payload[name] for name in SETTINGS})

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


#: The settings of a run: every `RunConfig` field but the machines.
SETTINGS = tuple(f.name for f in fields(RunConfig) if f.name != "machines")


def payload_digest(payload: dict) -> str:
    """blake2b-64 of the canonical JSON of a config payload."""
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


@dataclass
class StepRecord:
    index: int
    per_machine: Dict[str, MachineStep]
    events: List[dict]
    state_hash: str

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


def encode_value(v: Value):
    kind = type(v)
    if kind is int:
        return ["i", v]
    if kind is str:
        return ["s", v]
    if kind is Constant:
        return ["u"] if v is UNDEF else ["b", v is TRUE]
    raise TypeError(f"not a machine value: {v!r}")


def decode_value(payload) -> Value:
    """The value `encode_value` wrote; any other shape is MalformedTrace."""
    if type(payload) is list and len(payload) == 2:
        tag, v = payload
        kind = type(v)
        if kind is int and tag == "i" or kind is str and tag == "s":
            return v
        if kind is bool and tag == "b":
            return TRUE if v else FALSE
    elif payload == ["u"]:
        return UNDEF
    raise MalformedTrace(f"malformed value {payload!r}")


def encode_location(loc: Location):
    return [loc.func, [encode_value(a) for a in loc.args]]


def decode_location(payload) -> Location:
    """The location `encode_location` wrote; any other shape is
    MalformedTrace."""
    if type(payload) is list and len(payload) == 2:
        func, args = payload
        if type(func) is str and type(args) is list:
            return Location(func, tuple(decode_value(a) for a in args))
    raise MalformedTrace(f"malformed location {payload!r}")


def encode_pairs(pairs) -> list:
    return [[encode_location(l), encode_value(v)]
            for l, v in sorted(pairs, key=lambda p: (loc_key(p[0]), value_key(p[1])))]


def decode_pairs(payload):
    return [(decode_location(l), decode_value(v)) for l, v in payload]


def state_digest(state: State) -> str:
    """blake2b-64 of the canonical JSON of the state's sorted pairs."""
    blob = json.dumps(encode_pairs(state.values.items()),
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _value_json(v: Value) -> str:
    """`_encode_json(encode_value(v))`, an int without the JSON call."""
    if type(v) is int:
        return f'["i",{v}]'
    return _encode_json(encode_value(v))


class _StateDigest:
    """`state_digest` kept up to date from each step's delta.

    Holds one canonical JSON fragment `[location,value]` per location, and
    each location's encoded head `[location,`, so a step re-encodes only the
    values it wrote.  It re-sorts only when a location appears or disappears
    (is written undef), and re-hashes only when a fragment changed: a step
    that changes no location keeps the last digest.
    """

    __slots__ = ("entries", "heads", "order", "last")

    def __init__(self, values: Dict[Location, Value]):
        self.entries: Dict[Location, str] = {}
        self.heads: Dict[Location, str] = {}
        self.order: Optional[List[Location]] = None
        self.last: Optional[str] = None
        self.update(values.items())

    def update(self, delta) -> None:
        """Follow `State.with_updates(delta)`."""
        entries, heads = self.entries, self.heads
        for loc, val in delta:
            if val is UNDEF:
                if entries.pop(loc, None) is not None:
                    self.order = self.last = None
                continue
            head = heads.get(loc)
            if head is None:
                head = heads[loc] = "[" + _encode_json(encode_location(loc)) + ","
            entry = head + _value_json(val) + "]"
            old = entries.get(loc)
            if entry != old:
                if old is None:
                    self.order = None
                entries[loc] = entry
                self.last = None

    def hexdigest(self) -> str:
        if self.last is None:
            if self.order is None:
                self.order = sorted(self.entries, key=loc_key)
            entries = self.entries
            blob = "[" + ",".join([entries[l] for l in self.order]) + "]"
            self.last = hashlib.blake2b(blob.encode("utf-8"),
                                        digest_size=8).hexdigest()
        return self.last


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
    digest = _StateDigest(state.values)

    cs = ctl.ControllerState()
    payloads: Dict[ctl.LockPair, dict] = {}  # see `_lock_payload`
    tcbs = {m: MachineCtl(machine_id=m) for m in active_ids}
    committed: List[str] = []
    steps: List[StepRecord] = []
    joining: Dict[int, List[str]] = {}  # step index -> machines registering
    for m in order:
        joining.setdefault(config.registration.get(m, 0), []).append(m)
    live: List[str] = []  # registered and not done, in name order

    status = "budget"
    for index in range(config.max_steps):
        events: List[dict] = []
        # Registration is the entry into the controller's supervision; the
        # history starts empty.
        if index in joining:
            for m in joining[index]:
                tcbs[m].ctl_state = ACTIVE
                ctl.apply_effect(cs, ("register", m), committed)
                events.append(effect_event(("register", m), payloads))
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
            tcb = tcbs[m]
            ms, eff = wrapper_step(programs[m], tcb, state, cs, seed, index,
                                   config.wait_mode)
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
                cs, _Stream(seed, "lock", index), config.lock_policy,
                config.wait_mode, cs.wait_graph.out)
            ctl_effects += ctl.commit_step(
                cs, _Stream(seed, "commit", index), config.commit_policy)
            ctl_effects += ctl.deadlock_handler_step(
                cs, _Stream(seed, "victim", index), config.victim_policy, dead)
            ctl_effects += ctl.recovery_step(
                cs, _Stream(seed, "recover", index), dead)
            updates.update(*[eff[2].saved for eff in ctl_effects
                             if eff[0] == "undo"])

        delta = frozenset(updates)
        if not consistent(delta):
            raise _clash_error(index, per_machine)
        state = state.with_updates(delta)
        digest.update(delta)

        # Apply phase: the wrappers' effects, then the controller's.  The
        # trace records the controller's events, then the lock requests.
        for eff in effects + ctl_effects:
            ctl.apply_effect(cs, eff, committed)
        for eff in ctl_effects + effects:
            event = effect_event(eff, payloads)
            if event is not None:
                events.append(event)

        steps.append(StepRecord(index=index, per_machine=per_machine,
                                events=events, state_hash=digest.hexdigest()))
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


class _Stream:
    """A labeled `make_rng` stream, seeded on its first draw: most controller
    steps draw nothing.  The stream depends only on its parts, so seeding it
    late or never changes no draw."""

    __slots__ = ("parts", "rng")

    def __init__(self, *parts):
        self.parts = parts
        self.rng = None

    def randrange(self, *args) -> int:
        if self.rng is None:
            self.rng = make_rng(*self.parts)
        return self.rng.randrange(*args)


def _acting(run_mode: str, live: List[str], seed: int, index: int):
    """The machines that compute this step, and whether the controller
    does: all of them in sync mode, else one agent drawn for the step."""
    if run_mode == "sync":
        return live, True
    agents = live + ["<controller>"]
    rng = make_rng(seed, "interleave", index)
    chosen = agents[rng.randrange(len(agents))]
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
    "header": {"type", "version", "config", "config_digest", "seed",
               "registered", "initial_state"},
    "config": {"programs", *SETTINGS},
    "step": {"type", "index", "events", "machines", "state_hash"},
    "machine": {"updates", "reads", "ctl", "proper"},
    "final": {"type", "status", "committed", "final_state"},
}


def effect_event(effect: tuple, payloads: dict) -> Optional[dict]:
    """The trace event an effect records, or None."""
    if effect[0] not in EVENTS:
        return None
    kind, fields = EVENTS[effect[0]]
    event = {"kind": kind, "machine": effect[1]}
    if kind == "undo":
        entry = effect[2]
        event.update(origin_step=entry.origin_step,
                     locks=_lock_payload(entry.locks, payloads),
                     restored=list(entry.saved))
    elif fields:
        event["locks"] = _lock_payload(effect[2], payloads)
    return event


_JSON_CONSTANTS = {TRUE: True, FALSE: False, UNDEF: None}


def _lock_payload(locks: ctl.LockPair, payloads: dict) -> dict:
    """The pair's locations, each kind sorted, as v1 writes them: arguments
    untagged, and true, false and undef as JSON true, false and null.  Built
    once per pair and run in `payloads`, as refused and undone machines
    re-request the same pairs; the payload is shared, never mutated."""
    payload = payloads.get(locks)
    if payload is None:
        payload = payloads[locks] = {
            kind: [(l.func, tuple(_JSON_CONSTANTS.get(a, a) for a in l.args))
                   for l in sorted(ls, key=loc_key)]
            for kind, ls in (("r", locks.r_loc), ("w", locks.w_loc))}
    return payload


# What `json.dumps(obj, sort_keys=True, separators=(",", ":"))` writes,
# without building an encoder per call.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# What `state_digest` returns; the encoder writes it without escaping.
_HEX_DIGEST = re.compile("[0-9a-f]{16}").fullmatch

# `IDLE_STEP` as its trace record writes it, and the record decoded.
_IDLE_JSON = '{"ctl":null,"proper":false,"reads":[],"updates":[]}'
_IDLE_PAYLOAD = json.loads(_IDLE_JSON)


def _machine_step_json(ms: MachineStep) -> str:
    return _dump({
        "updates": encode_pairs(ms.updates),
        "reads": encode_pairs(ms.reads),
        "ctl": list(ms.ctl_change) if ms.ctl_change else None,
        "proper": ms.proper,
    })


def trace_to_lines(trace: Trace) -> List[str]:
    config = trace.config.to_payload()
    header = {
        "type": "header",
        "version": TRACE_VERSION,
        "config": config,
        "config_digest": payload_digest(config),
        "seed": trace.config.seed,
        "registered": list(trace.registered),
        "initial_state": encode_pairs(trace.initial_values.items()),
    }
    lines = [_dump(header)]
    # machine -> its `"name":` key and its idle record, built once per trace
    keyed: Dict[str, Tuple[str, str]] = {}
    for rec in trace.steps:
        parts = []
        for m, ms in sorted(rec.per_machine.items()):
            named = keyed.get(m)
            if named is None:
                key = _dump(m) + ":"
                named = keyed[m] = (key, key + _IDLE_JSON)
            parts.append(named[1] if ms is IDLE_STEP
                         else named[0] + _machine_step_json(ms))
        events = [dict(ev, restored=encode_pairs(ev["restored"]))
                  if "restored" in ev else ev for ev in rec.events]
        # The canonical record, keys in sorted order, assembled from parts;
        # the index is an int and the state hash a hex digest, so neither
        # needs a JSON call.
        lines.append('{"events":' + (_dump(events) if events else "[]")
                     + ',"index":' + str(rec.index)
                     + ',"machines":{' + ",".join(parts)
                     + '},"state_hash":"' + rec.state_hash
                     + '","type":"step"}')
    lines.append(_dump({
        "type": "final",
        "status": trace.status,
        "committed": list(trace.committed),
        "final_state": encode_pairs(trace.final_values.items()),
    }))
    return lines


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_to_lines(trace):
            fh.write(line + "\n")


def trace_from_lines(lines: List[str]) -> Trace:
    try:
        records = [json.loads(line) for line in lines if line.strip()]
    except json.JSONDecodeError as e:
        raise MalformedTrace(f"invalid JSON: {e}") from None
    if (not records or type(records[0]) is not dict
            or records[0].get("type") != "header"):
        raise MalformedTrace("missing header record")
    if type(records[-1]) is not dict or records[-1].get("type") != "final":
        raise MalformedTrace("missing final record (truncated trace?)")
    header, final = records[0], records[-1]
    if header.get("version") != TRACE_VERSION:
        raise MalformedTrace(f"unsupported trace version {header.get('version')!r}")
    if header.keys() != RECORD_KEYS["header"]:
        raise _bad_keys(header, "header", "the header")
    if final.keys() != RECORD_KEYS["final"]:
        raise _bad_keys(final, "final", "the final record")
    payload = header["config"]
    if type(payload) is not dict or payload.keys() != RECORD_KEYS["config"]:
        raise _bad_keys(payload, "config", "the header's config")
    try:
        config = RunConfig.from_payload(payload)
        if payload_digest(payload) != header["config_digest"]:
            raise MalformedTrace("config_digest does not match the config")
        seed = header["seed"]
        if type(seed) is not int or seed != config.seed:
            raise MalformedTrace(f"header seed {seed!r} is not the config "
                                 f"seed {config.seed}")
        initial_values = dict(decode_pairs(header["initial_state"]))
        if initial_values != config.initial_state().values:
            raise MalformedTrace("initial_state is not the state the config's "
                                 "inits give")
        if len(records) - 2 > config.max_steps:
            raise MalformedTrace(f"{len(records) - 2} step records exceed "
                                 f"max_steps {config.max_steps}")
        registered = _machine_names(header["registered"], "registered",
                                    config.machine_ids, "in the config")
        committed = _machine_names(final["committed"], "committed",
                                   registered, "registered")
        steps = []
        commits = []
        last_commit = 0  # the step count when the last commit was recorded
        # machine -> its proper steps so far that no undo has named
        undoable: Dict[str, Set[int]] = {m: set() for m in registered}
        # machine -> its control state: unregistered until its register
        # event, then moved by its records' `ctl` changes
        ctl_of = dict.fromkeys(registered, UNREGISTERED)
        for rec in records[1:-1]:
            if rec.get("type") != "step":
                raise MalformedTrace(f"unexpected record type {rec.get('type')!r}")
            if rec.keys() != RECORD_KEYS["step"]:
                raise _bad_keys(rec, "step", f"step record {len(steps)}")
            if type(rec["index"]) is not int or rec["index"] != len(steps):
                raise MalformedTrace(f"step record {len(steps)} has index "
                                     f"{rec['index']!r}")
            state_hash = rec["state_hash"]
            if type(state_hash) is not str or not _HEX_DIGEST(state_hash):
                raise MalformedTrace(f"step record {len(steps)} has state "
                                     f"hash {state_hash!r}")
            for ev in rec["events"]:
                _check_event(ev, len(steps), ctl_of, undoable,
                             config.registration)
                if ev["kind"] == "commit":
                    commits.append(ev["machine"])
                    last_commit = len(steps) + 1
            per_machine = {}
            for m, ms in rec["machines"].items():
                state = ctl_of.get(m)
                if state is None:
                    raise MalformedTrace(f"step record {len(steps)}: machine "
                                         f"{m!r} is not registered")
                if state in _NO_RECORD:
                    raise MalformedTrace(f"step record {len(steps)}: {m!r} "
                                         f"has a record in control state "
                                         f"{state!r}")
                # Only the exact record: `"proper":0` decodes as before.
                if ms == _IDLE_PAYLOAD and ms["proper"] is False:
                    per_machine[m] = IDLE_STEP
                    continue
                proper, ctl_change = ms["proper"], ms["ctl"]
                if ms.keys() != RECORD_KEYS["machine"]:
                    raise _bad_keys(ms, "machine", f"step record {len(steps)}: "
                                    f"the record of {m!r}")
                if type(proper) is not bool:
                    raise MalformedTrace(f"step record {len(steps)}: {m!r} "
                                         f"has proper {proper!r}")
                if ctl_change is not None:
                    if (type(ctl_change) is not list
                            or tuple(ctl_change) not in TRANSITIONS
                            or ctl_change[0] != state):
                        raise MalformedTrace(f"step record {len(steps)}: "
                                             f"{m!r} has ctl {ctl_change!r} "
                                             f"in control state {state!r}")
                    ctl_change = tuple(ctl_change)
                    ctl_of[m] = ctl_change[1]
                per_machine[m] = MachineStep(
                    updates=frozenset(decode_pairs(ms["updates"])),
                    reads=tuple(decode_pairs(ms["reads"])),
                    ctl_change=ctl_change,
                    proper=proper,
                )
                if proper:
                    undoable[m].add(len(steps))
            steps.append(StepRecord(rec["index"], per_machine, rec["events"],
                                    state_hash))
        for m in registered:
            step = config.registration.get(m, 0)
            if ctl_of[m] == UNREGISTERED and step < len(steps):
                raise MalformedTrace(f"step record {step}: no register event "
                                     f"of {m}")
        if committed != commits:
            raise MalformedTrace(f"committed {committed} is not the order of "
                                 f"the commit events {commits}")
        status, done = final["status"], len(committed) == len(registered)
        # A run stops at the step of the last commit, or at its budget.
        if (status != ("done" if done else "budget")
                or len(steps) != (last_commit if done else config.max_steps)):
            raise MalformedTrace(
                f"status {status!r} with {len(committed)} of "
                f"{len(registered)} machines committed in {len(steps)} of "
                f"{config.max_steps} steps")
        return Trace(
            config=config,
            initial_values=initial_values,
            steps=steps,
            final_values=dict(decode_pairs(final["final_state"])),
            status=status,
            committed=committed,
            registered=registered,
        )
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as e:
        raise MalformedTrace(f"malformed trace record: {e!r}") from None


#: Past its commit event; not a control state, so no record or event fits it.
_COMMITTED = "committed"

#: The control states in which a machine takes no step, so has no record.
_NO_RECORD = (UNREGISTERED, DONE, _COMMITTED)


def _bad_keys(record, kind: str, what: str) -> MalformedTrace:
    """The error for a record that is not an object with exactly the keys
    `RECORD_KEYS[kind]`."""
    if type(record) is not dict:
        return MalformedTrace(f"{what} is not an object: {record!r}")
    return MalformedTrace(f"{what} has the keys {sorted(record)}, not "
                          f"{sorted(RECORD_KEYS[kind])}")


def _check_event(ev: dict, index: int, ctl_of: Dict[str, str],
                 undoable: Dict[str, Set[int]],
                 registration: Dict[str, int]) -> None:
    """Check the event against `EVENTS`, its `locks` against the shape
    `_lock_payload` writes and its machine's control state, and decode an
    undo's restored values in place.  A register event must be in
    its machine's registration step and makes the machine active, a commit
    committed; an undo takes its origin out of `undoable`."""
    kind, m = ev.get("kind"), ev.get("machine")
    if type(kind) is not str or ev.keys() != _EVENT_KEYS.get(kind):
        raise MalformedTrace(f"step record {index}: no {kind!r} event has "
                             f"the fields {sorted(ev)}")
    if type(m) is not str or m not in ctl_of:
        raise MalformedTrace(f"step record {index}: {kind} event names "
                             f"{m!r}, which is not registered")
    state = ctl_of[m]
    # Only an unregistered machine registers, only one that asked to commit
    # commits, and no event names a machine after its commit.
    if (state == _COMMITTED or (kind == "register") != (state == UNREGISTERED)
            or kind == "commit" and state != DONE):
        raise MalformedTrace(f"step record {index}: {kind} event of {m} in "
                             f"control state {state!r}")
    if "locks" in ev and not _is_lock_payload(ev["locks"]):
        raise MalformedTrace(f"step record {index}: {kind} event of {m} has "
                             f"locks {ev['locks']!r}")
    if kind == "register":
        step = registration.get(m, 0)
        if index != step:
            raise MalformedTrace(f"step record {index}: {m} registers in "
                                 f"step {step}")
        ctl_of[m] = ACTIVE
    elif kind == "commit":
        ctl_of[m] = _COMMITTED
    elif kind == "undo":
        origin = ev["origin_step"]
        if origin is not None and (type(origin) is not int
                                   or origin not in undoable[m]):
            raise MalformedTrace(f"step record {index}: undo of {m} names "
                                 f"{origin!r}, not an earlier step to undo")
        undoable[m].discard(origin)
        ev["restored"] = decode_pairs(ev["restored"])


_LOCK_ARGUMENT_TYPES = (int, str, bool)


def _is_lock_payload(locks) -> bool:
    """Whether `locks` has the shape `_lock_payload` writes: `r` and `w`,
    each a list of `[function, arguments]`, each argument an int, a string
    or a boolean (no location has an undef argument).  Plain loops: `all`
    over generators took three times as long on fuzz24 traces."""
    if type(locks) is not dict or locks.keys() != {"r", "w"}:
        return False
    for entries in locks.values():
        if type(entries) is not list:
            return False
        for e in entries:
            if (type(e) is not list or len(e) != 2 or type(e[0]) is not str
                    or type(e[1]) is not list):
                return False
            for a in e[1]:
                if type(a) not in _LOCK_ARGUMENT_TYPES:
                    return False
    return True


def _machine_names(names, what: str, known: List[str],
                   known_as: str) -> List[str]:
    """The trace's `what` list, each name once and each one of `known`."""
    if not isinstance(names, list):
        raise MalformedTrace(f"{what} is not a list: {names!r}")
    for i, m in enumerate(names):
        if m not in known or m in names[:i]:
            raise MalformedTrace(f"{what} names {m!r} " + (
                "twice" if m in known else f"which is not {known_as}"))
    return names


def load_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise MalformedTrace(f"{path}: not UTF-8 text: {e}") from None
    return trace_from_lines(text.splitlines())
