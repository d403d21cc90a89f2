"""A forged trace exhibiting a lost update.

Two machines each increment the same shared cell once.  The forged trace
runs their solo schedules side by side, as if the controller had granted
both of them the write lock on the cell at once: both read the original
value, so one increment is lost.  Every recorded read is the value the steps
leave, so the trace decodes; no serial order reproduces those reads, which
makes this a fixed negative fixture for the serializability checkers.
"""
from __future__ import annotations

from .dsl import parse_program
from .engine import RunConfig, StepRecord, Trace, run, state_at

_INC = """\
machine {name}
shared cell
init cell() := 0
init pc_{name}() := 0
terminated: pc_{name}() = 1
rule: par {{ pc_{name}() := pc_{name}() + 1 ; cell() := cell() + 1 }}
"""


def lost_update_config(seed: int = 7) -> RunConfig:
    machines = [parse_program(_INC.format(name=n)) for n in ("a", "b")]
    return RunConfig(machines=machines, seed=seed, max_steps=60)


def forged_lost_update_trace(seed: int = 7) -> Trace:
    """Both machines' recorded steps read cell() = 0 and write cell() = 1,
    in the same global step; the final state is the one the steps leave."""
    config = lost_update_config(seed)
    solo_a = run(config, only=["a"])
    solo_b = run(config, only=["b"])  # also from cell = 0: the forgery
    assert solo_a.status == "done" and solo_b.status == "done"
    assert len(solo_a.steps) == len(solo_b.steps)
    steps = [StepRecord(index=a.index,
                        per_machine={**a.per_machine, **b.per_machine},
                        events=[dict(ev) for ev in a.events + b.events])
             for a, b in zip(solo_a.steps, solo_b.steps)]
    trace = Trace(
        config=config,
        initial_values=dict(solo_a.initial_values),
        steps=steps,
        final_values={},
        status="done",
        committed=["a", "b"],
        registered=["a", "b"],
    )
    trace.final_values = state_at(trace, len(steps)).values
    return trace
