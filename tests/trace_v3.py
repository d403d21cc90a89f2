"""A writer of version-3 trace files, the reference for the version-3 pins
and the input of the test that `check` rejects version 3.

Version 3 differs from the current version in its notation alone.  Each
location in the records, in `restored` and in the states is the list
`[<name>, [<value>, ...]]` and each value is tagged: `["i",7]`, `["s","q"]`,
`["b",true]` or `["u"]`.  A lock payload lists each location as
`[<name>, [<argument>, ...]]` with untagged arguments, `true` and `false` as
JSON booleans.  This is the engine's version-3 writer, assembling each line
from the tagged text fragments the state digest still uses, so it shows
that the engine still runs exactly as the version-3 traces recorded it.
"""
from typing import Dict, List

from taserial import controller as ctl
from taserial.asm import loc_key
from taserial.engine import (
    MachineStep,
    Trace,
    _dump,
    _Fragments,
    _JSON_CONSTANTS,
    _text_digest,
)


def v3_lines(trace: Trace) -> List[str]:
    pairs = _Fragments(tagged=True).pairs
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

    config = _dump(trace.config.to_payload())
    lines = ['{"config":' + config + ',"config_digest":"' + _text_digest(config)
             + '","initial_state":' + pairs(trace.initial_values.items())
             + ',"registered":' + _dump(list(trace.registered))
             + ',"seed":' + str(trace.config.seed)
             + ',"type":"header","version":3}']
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
