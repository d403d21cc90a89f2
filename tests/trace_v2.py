"""A writer of version-2 trace files, the reference for the version-2 pins
and the input of the test that `check` rejects version 2.

Version 2 differs from version 3 (`trace_v3`) in one way: each step record
carries `state_hash`, the `state_digest` of the state after the step.  The
writer replays the states from the steps' deltas and adds each digest to
the version-3 line, so it shows that the engine still runs exactly as the
version-2 traces recorded it.
"""
from typing import List

from taserial.engine import Trace, state_at, state_digest

from trace_v3 import v3_lines

_STEP_END = ',"type":"step"}'
_HEADER_END = ',"type":"header","version":3}'


def v2_lines(trace: Trace) -> List[str]:
    lines = v3_lines(trace)
    assert lines[0].endswith(_HEADER_END)
    lines[0] = lines[0][:-len(_HEADER_END)] + ',"type":"header","version":2}'
    state = state_at(trace, 0)
    for at, rec in enumerate(trace.steps, 1):
        state = state.with_updates(rec.delta())
        # `state_hash` sorts between `machines` and `type`.
        assert lines[at].endswith(_STEP_END)
        lines[at] = (lines[at][:-len(_STEP_END)] + ',"state_hash":"'
                     + state_digest(state) + '"' + _STEP_END)
    return lines
