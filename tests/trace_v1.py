"""A writer of version-1 trace files, the reference for the version-1 pins
and the input of the test that `check` rejects version 1.

Version 1 differs from version 2 (`trace_v2`) in two ways: each program's
text holds the config's shared inits after its own, and every machine that
acted while waiting for locks or for its recovery has an idle record.  The
writer re-derives those records from the control states the records change
and the machines `engine._acting` lets act, so it shows that the engine
still runs exactly as the version-1 traces recorded it.
"""
import json
from dataclasses import replace
from typing import List

from taserial.dsl import print_value
from taserial.engine import Trace, _acting, payload_digest
from taserial.wrapper import ACTIVE, DONE, IDLE_STEP, UNREGISTERED

from trace_v2 import v2_lines

def v1_lines(trace: Trace) -> List[str]:
    config = trace.config
    ctl_of = dict.fromkeys(trace.registered, UNREGISTERED)
    steps = []
    for rec in trace.steps:
        for m in trace.registered:
            if config.registration.get(m, 0) == rec.index:
                ctl_of[m] = ACTIVE
        live = sorted(m for m, s in ctl_of.items()
                      if s not in (UNREGISTERED, DONE))
        acting, _ = _acting(config.run_mode, live, config.seed, rec.index)
        idle = [m for m in acting if m not in rec.per_machine]
        for m in acting:
            ms = rec.per_machine.get(m)
            if ms is not None and ms.ctl_change is not None:
                ctl_of[m] = ms.ctl_change[1]
        if idle:
            rec = replace(rec, per_machine={**rec.per_machine,
                                            **dict.fromkeys(idle, IDLE_STEP)})
        steps.append(rec)
    lines = v2_lines(replace(trace, steps=steps))
    header = json.loads(lines[0])
    payload = header["config"]
    del payload["shared_inits"]
    # A program's inits are the lines just before its termination test.
    inits = "".join(
        f"init {l.func}({', '.join(print_value(a) for a in l.args)}) := "
        f"{print_value(v)}\n" for l, v in config.shared_inits)
    payload["programs"] = {
        name: text.replace("\nterminated: ", "\n" + inits + "terminated: ", 1)
        for name, text in payload["programs"].items()}
    header.update(version=1, config_digest=payload_digest(payload))
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return lines
