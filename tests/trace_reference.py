"""The list-based trace writer, the reference for `engine.trace_to_lines`.

It builds each record as nested lists and dicts and runs the JSON encoder
once per record, the way the writer did before it assembled lines from text
fragments; the tests require both to write the same lines.
"""
import hashlib
import json
from typing import List

from taserial.asm import loc_key, value_key
from taserial.dsl import print_value
from taserial.engine import TRACE_VERSION, Trace, encode_value

_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _sorted(pairs) -> list:
    return sorted(pairs, key=lambda p: (loc_key(p[0]), value_key(p[1])))


def location_text(loc) -> str:
    """`f(a1,...,an)`, each argument as the language prints it."""
    return f"{loc.func}({','.join(print_value(a) for a in loc.args)})"


def plain_value(v):
    """A value as plain JSON: 1, "q", true, false or null."""
    tagged = encode_value(v)
    return None if tagged == ["u"] else tagged[1]


def encode_pairs(pairs) -> list:
    return [[location_text(l), plain_value(v)] for l, v in _sorted(pairs)]


def encode_locks(pair) -> dict:
    """A lock pair's payload: each kind's location texts, sorted."""
    return {kind: [location_text(l) for l in sorted(locs, key=loc_key)]
            for kind, locs in (("r", pair.r_loc), ("w", pair.w_loc))}


def state_digest(values) -> str:
    """The digest of the tagged pairs, as versions 1 and 2 hashed them."""
    tagged = [[[l.func, [encode_value(a) for a in l.args]], encode_value(v)]
              for l, v in _sorted(values.items())]
    blob = _dump(tagged).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def encode_event(ev: dict) -> dict:
    out = dict(ev)
    if "locks" in ev:
        out["locks"] = encode_locks(ev["locks"])
    if "restored" in ev:
        out["restored"] = encode_pairs(ev["restored"])
    return out


def reference_lines(trace: Trace) -> List[str]:
    payload = trace.config.to_payload()
    payload["shared_inits"] = [[location_text(l), plain_value(v)]
                               for l, v in trace.config.shared_inits]
    config = _dump(payload)
    lines = [_dump({
        "type": "header",
        "version": TRACE_VERSION,
        "config": payload,
        "config_digest": hashlib.blake2b(config.encode("utf-8"),
                                         digest_size=8).hexdigest(),
        "registered": list(trace.registered),
    })]
    for rec in trace.steps:
        lines.append(_dump({
            "type": "step",
            "index": rec.index,
            "events": [encode_event(ev) for ev in rec.events],
            "machines": {m: {
                "updates": encode_pairs(ms.updates),
                "reads": encode_pairs(ms.reads),
                "ctl": list(ms.ctl_change) if ms.ctl_change else None,
                "proper": ms.proper,
            } for m, ms in rec.per_machine.items()},
        }))
    lines.append(_dump({
        "type": "final",
        "status": trace.status,
        "committed": list(trace.committed),
        "final_state": encode_pairs(trace.final_values.items()),
    }))
    return lines
