"""A writer of version-3 trace files, the reference for the version-3 pins
and the input of the test that `check` rejects version 3.

Version 3 differs from version 4 (`trace_v4`) in its notation alone.  Each
location in the records, in `restored` and in the states is the list
`[<name>, [<value>, ...]]` and each value is tagged: `["i",7]`, `["s","q"]`,
`["b",true]` or `["u"]`, as the shared inits of both versions write them.
A lock payload lists each location as `[<name>, [<argument>, ...]]` with
untagged arguments, `true` and `false` as JSON booleans.  The writer
assembles each line from per-trace text fragments, as the engine's
version-3 writer did, so it shows that the engine still runs exactly as the
version-3 traces recorded it.
"""
from typing import Dict, List, Tuple

from taserial import controller as ctl
from taserial.asm import Location, loc_key, value_key
from taserial.engine import (
    MachineStep,
    Trace,
    _dump,
    _JSON_CONSTANTS,
    encode_value,
)

from trace_v4 import old_header, tagged_location


class TaggedPairs:
    """`pairs(...)`: the JSON list of location/value pairs in the tagged
    notation, sorted by location, then value; each location's and value's
    text is built once."""

    def __init__(self):
        self.heads: Dict[Location, Tuple[tuple, str]] = {}
        self.tails: Dict[tuple, Tuple[tuple, str]] = {}

    def __call__(self, pairs) -> str:
        entries = []
        for loc, v in pairs:
            head = self.heads.get(loc)
            if head is None:
                head = self.heads[loc] = (
                    loc_key(loc), "[" + _dump(tagged_location(loc)) + ",")
            tail = self.tails.get((type(v), v))
            if tail is None:
                tail = self.tails[type(v), v] = (
                    value_key(v), _dump(encode_value(v)) + "]")
            entries.append((head[0], tail[0], head[1] + tail[1]))
        entries.sort()
        return "[" + ",".join([e[2] for e in entries]) + "]"


def v3_lines(trace: Trace) -> List[str]:
    pairs = TaggedPairs()
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
            out = locks[pair] = _dump({
                kind: [[l.func, [_JSON_CONSTANTS.get(a, a) for a in l.args]]
                       for l in sorted(ls, key=loc_key)]
                for kind, ls in (("r", pair.r_loc), ("w", pair.w_loc))})
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

    lines = [old_header(trace, pairs, 3)]
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
