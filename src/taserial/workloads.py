"""Hand-written workload fixtures.

These exist for tests and for quick command-line experiments: a plain
shared-counter workload, a guaranteed lock-order deadlock, and a variant
whose deadlock victim loses its entire history before recovering.
"""
from __future__ import annotations

from .dsl import parse_program
from .engine import RunConfig

COUNTER_MACHINE = """\
machine {name}
shared total
init total() := 0
init pc_{name}() := 0
terminated: pc_{name}() = {steps}
rule: par {{ pc_{name}() := pc_{name}() + 1 ; total() := total() + 1 }}
"""


def counter_config(n_machines: int = 3, steps: int = 2, seed: int = 0,
                   max_steps: int = 200, **overrides) -> RunConfig:
    """Every machine increments one shared counter a fixed number of times."""
    machines = [parse_program(COUNTER_MACHINE.format(name=f"m{i}", steps=steps))
                for i in range(n_machines)]
    return RunConfig(machines=machines, seed=seed, max_steps=max_steps,
                     **overrides)


# Two machines that take write locks on the same two accounts in opposite
# orders, with one private step in between so both first locks are held
# before either second request goes out.  Deadlock on every seed.
_OPPOSED = """\
machine {name}
shared acct_a acct_b
init acct_a() := 0
init acct_b() := 0
init pc_{name}() := 0
terminated: pc_{name}() = 3
rule: par {{
  pc_{name}() := pc_{name}() + 1 ;
  if pc_{name}() = 0 then {first}() := {first}() + 1
  else if pc_{name}() = 1 then skip
  else if pc_{name}() = 2 then {second}() := {second}() + {first}()
  else skip
}}
"""


def opposed_lock_config(seed: int = 0, max_steps: int = 500,
                        **overrides) -> RunConfig:
    machines = [
        parse_program(_OPPOSED.format(name="left", first="acct_a",
                                      second="acct_b")),
        parse_program(_OPPOSED.format(name="right", first="acct_b",
                                      second="acct_a")),
    ]
    return RunConfig(machines=machines, seed=seed, max_steps=max_steps,
                     **overrides)


# Same opposed shape, but each machine needs only two proper steps and the
# contested lock is taken by the very first one.  The victim therefore
# undoes everything it ever did before recovering.  Victim selection by
# shortest history breaks the tie by name, so "alpha" always loses.
_TWO_STEP = """\
machine {name}
shared acct_a acct_b
init acct_a() := 5
init acct_b() := 7
init pc_{name}() := 0
terminated: pc_{name}() = 2
rule: par {{
  pc_{name}() := pc_{name}() + 1 ;
  if pc_{name}() = 0 then {first}() := {first}() + 1
  else if pc_{name}() = 1 then {second}() := {second}() + {first}()
  else skip
}}
"""


def full_victim_config(seed: int = 0, max_steps: int = 500,
                       **overrides) -> RunConfig:
    overrides.setdefault("victim_policy", "shortest-history")
    machines = [
        parse_program(_TWO_STEP.format(name="alpha", first="acct_a",
                                       second="acct_b")),
        parse_program(_TWO_STEP.format(name="omega", first="acct_b",
                                       second="acct_a")),
    ]
    return RunConfig(machines=machines, seed=seed, max_steps=max_steps,
                     **overrides)


def count_events(trace, kind: str) -> int:
    return sum(1 for rec in trace.steps for ev in rec.events
               if ev.get("kind") == kind)
