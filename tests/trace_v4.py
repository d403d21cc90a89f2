"""A writer of version-4 trace files, the reference for the version-4 pins
and the input of the test that `check` rejects version 4.

Version 4 differs from the current version in its header alone.  The
header also carried `seed`, a copy of the config's, and `initial_state`,
the pairs of the state the config's inits give, sorted by location; and
the config's `shared_inits` wrote each location as
`[<name>, [<argument>, ...]]` and each value and argument with its type's
tag (`engine.encode_value`): `["i",7]`, `["s","q"]`, `["b",true]` or
`["u"]`.  The writer rebuilds that header and keeps the engine's step and
footer lines, so it shows that the engine still runs exactly as the
version-4 traces recorded it.
"""
from typing import Callable, List

from taserial.asm import Location
from taserial.engine import (
    Trace,
    _dump,
    _Fragments,
    _text_digest,
    encode_value,
    trace_to_lines,
)


def tagged_location(loc: Location) -> list:
    """A location as the shared inits of versions 3 and 4 wrote it."""
    return [loc.func, [encode_value(a) for a in loc.args]]


def old_header(trace: Trace, pairs: Callable, version: int) -> str:
    """The header of versions 3 and 4: the config with tagged shared inits,
    its digest, and the initial state as `pairs` writes it."""
    config = trace.config.to_payload()
    config["shared_inits"] = [[tagged_location(l), encode_value(v)]
                              for l, v in trace.config.shared_inits]
    text = _dump(config)
    return ('{"config":' + text + ',"config_digest":"' + _text_digest(text)
            + '","initial_state":' + pairs(trace.initial_values.items())
            + ',"registered":' + _dump(list(trace.registered))
            + ',"seed":' + str(trace.config.seed)
            + ',"type":"header","version":' + str(version) + '}')


def v4_lines(trace: Trace) -> List[str]:
    lines = trace_to_lines(trace)
    lines[0] = old_header(trace, _Fragments().pairs, 4)
    return lines
