"""Random workload generation.

Machines are generated as bounded step programs: a private counter advances
every proper step and selects one randomly generated body, so every machine
terminates after a fixed number of proper steps no matter how often it is
undone and re-run.  Generated bodies write each target location at most
once, keeping single-machine update sets consistent by construction.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .asm import (
    And,
    Apply,
    Assign,
    ChooseDo,
    Eq,
    Exists,
    ForallDo,
    Formula,
    If,
    Let,
    Location,
    Lt,
    Not,
    Or,
    Par,
    Rule,
    Seq,
    Skip,
    State,
    Term,
    Var,
)
from .dsl import MachineProgram
from .engine import RunConfig
from .seeds import make_rng

COUNTER = "pc"
SCRATCH = "q"
ARRAY = "arr"
BODY_DEPTH = 2  # nesting below which a body may open par, seq, forall, choose


@dataclass
class FuzzParams:
    n_machines: int = 3
    n_shared: int = 3
    min_steps: int = 2
    max_steps_per_machine: int = 4
    domain_size: int = 4
    step_budget: int = 250


class _BodyGen:
    """One generated step body; tracks written targets to avoid clashes."""

    def __init__(self, rng: random.Random, shared: List[str], params: FuzzParams,
                 scratch: str = SCRATCH):
        self.rng = rng
        self.shared = shared
        self.params = params
        self.scratch = scratch
        self.written: Set[Tuple[str, Tuple]] = set()
        self.used_array = False

    def term(self, bound: Tuple[str, ...], depth: int = 0) -> Term:
        rng = self.rng
        opts = ["lit", "shared", "scratch"]
        if bound:
            opts.append("var")
        if depth < 2:
            opts += ["sum", "sum"]
        pick = rng.choice(opts)
        if pick == "lit":
            return Apply(str(rng.randrange(0, self.params.domain_size)))
        if pick == "shared":
            return Apply(rng.choice(self.shared))
        if pick == "scratch":
            return Apply(self.scratch)
        if pick == "var":
            return Var(rng.choice(bound))
        op = rng.choice(["+", "-"])
        return Apply(op, (self.term(bound, depth + 1), self.term(bound, depth + 1)))

    def formula(self, bound: Tuple[str, ...], depth: int = 0) -> Formula:
        rng = self.rng
        opts = ["lt", "eq", "lt"]
        if depth < 1:
            opts += ["and", "or", "not"]
            if not bound:
                opts.append("exists")
        pick = rng.choice(opts)
        if pick == "lt":
            return Lt(self.term(bound), self.term(bound))
        if pick == "eq":
            return Eq(self.term(bound), self.term(bound))
        if pick == "and":
            return And(self.formula(bound, depth + 1), self.formula(bound, depth + 1))
        if pick == "or":
            return Or(self.formula(bound, depth + 1), self.formula(bound, depth + 1))
        if pick == "not":
            return Not(self.formula(bound, depth + 1))
        v = "z"
        return Exists(v, Eq(Var(v), Apply(rng.choice(self.shared))))

    def assign(self, bound: Tuple[str, ...]) -> Rule:
        """Assignment to a not-yet-written nullary target."""
        rng = self.rng
        pool = [(g, ()) for g in self.shared] + [(self.scratch, ())]
        pool += [(ARRAY, (rng.randrange(0, self.params.domain_size),))]
        pool = [t for t in pool if t not in self.written
                and not (t[0] == ARRAY and self.used_array)]
        if not pool:
            return Skip()
        func, args = rng.choice(pool)
        self.written.add((func, args))
        lhs = Apply(func, tuple(Apply(str(a)) for a in args))
        return Assign(lhs, self.term(bound))

    def rule(self, bound: Tuple[str, ...], depth: int, allow_choose: bool) -> Rule:
        rng = self.rng
        opts = ["assign", "assign", "assign", "if", "let", "skip"]
        if depth < BODY_DEPTH:
            opts += ["par", "seq"]
            if not self.used_array and not any(f == ARRAY for f, _ in self.written):
                opts.append("forall")
        if allow_choose and depth < BODY_DEPTH:
            opts.append("choose")
        pick = rng.choice(opts)
        if pick == "assign":
            return self.assign(bound)
        if pick == "skip":
            return Skip()
        if pick == "if":
            return If(self.formula(bound),
                      self.rule(bound, depth + 1, allow_choose),
                      self.rule(bound, depth + 1, allow_choose))
        if pick == "let":
            v = f"v{depth}"
            return Let(v, self.term(bound), self.rule(bound + (v,), depth + 1,
                                                      allow_choose))
        if pick in ("par", "seq"):
            block = Par if pick == "par" else Seq
            first = self.rule(bound, depth + 1, allow_choose)
            second = self.rule(bound, depth + 1, allow_choose)
            # A same-kind second item joins the block, so the program equals
            # the parse of its printed text.
            rest = second.items if type(second) is block else (second,)
            return block((first,) + rest)
        if pick == "forall":
            # The array function is written only here, indexed by the bound
            # variable, so iterations cannot clash with other assignments.
            self.used_array = True
            v = f"i{depth}"
            bound2 = bound + (v,)
            return ForallDo(v, Lt(Var(v), Apply(str(self.params.domain_size))),
                            Assign(Apply(ARRAY, (Var(v),)), self.term(bound2)))
        v = f"c{depth}"
        guard = Lt(Var(v), Apply(str(rng.randrange(1, self.params.domain_size + 1))))
        return ChooseDo(v, guard, self.rule(bound + (v,), depth + 1, allow_choose))


def random_body(rng: random.Random, shared: List[str], params: FuzzParams,
                allow_choose: bool = True, scratch: str = SCRATCH) -> Rule:
    return _BodyGen(rng, shared, params, scratch).rule((), 0, allow_choose)


def random_machine(rng: random.Random, name: str, shared: List[str],
                   params: FuzzParams, allow_choose: bool = True) -> MachineProgram:
    # Private locations live in the one global state space, so they carry the
    # machine name to keep machines from trampling each other.
    counter = f"pc_{name}"
    scratch = f"q_{name}"
    n_steps = rng.randint(params.min_steps, params.max_steps_per_machine)
    dispatch: Rule = Skip()
    for k in reversed(range(n_steps)):
        body = random_body(rng, shared, params, allow_choose, scratch)
        dispatch = If(Eq(Apply(counter), Apply(str(k))), body, dispatch)
    main = Par((Assign(Apply(counter), Apply("+", (Apply(counter), Apply("1")))),
                dispatch))
    inits = [(Location(counter, ()), 0), (Location(scratch, ()), 0)]
    return MachineProgram(
        name=name,
        shared=frozenset(shared) | {ARRAY},
        arities={ARRAY: 1},
        inits=inits,
        terminated=Eq(Apply(counter), Apply(str(n_steps))),
        main_rule=main,
    )


def random_config(seed: int, params: Optional[FuzzParams] = None) -> RunConfig:
    """A closed multi-machine workload: every external function of each
    machine is shared by all of them and initialized once, by the config."""
    params = params or FuzzParams()
    rng = make_rng(seed, "fuzz-config")
    shared = [f"g{i}" for i in range(params.n_shared)]
    machines = []
    for i in range(params.n_machines):
        machines.append(random_machine(rng, f"m{i}", shared, params))
    shared_inits = [(Location(g, ()), rng.randrange(0, params.domain_size))
                    for g in shared]
    shared_inits += [(Location(ARRAY, (i,)), rng.randrange(0, params.domain_size))
                     for i in range(params.domain_size)]
    registration = {m.name: rng.randrange(0, 3) for m in machines}
    return RunConfig(
        machines=machines,
        shared_inits=shared_inits,
        domain_size=params.domain_size,
        registration=registration,
        # Parity split keeps both waiting disciplines exercised equally over
        # any consecutive seed range.
        wait_mode="suspend" if seed % 2 else "retry",
        lock_policy=rng.choice(["random", "fifo", "lowest-id"]),
        commit_policy=rng.choice(["random", "lowest-id"]),
        victim_policy=rng.choice(["shortest-history", "random"]),
        seed=seed,
        max_steps=params.step_budget,
    )


def random_state(rng: random.Random, shared: List[str], params: FuzzParams) -> State:
    """Random state over the fuzz vocabulary with every location an int."""
    values = {Location(g, ()): rng.randrange(0, params.domain_size) for g in shared}
    values[Location(SCRATCH, ())] = rng.randrange(0, params.domain_size)
    values[Location(COUNTER, ())] = rng.randrange(0, params.domain_size)
    for i in range(params.domain_size):
        values[Location(ARRAY, (i,))] = rng.randrange(0, params.domain_size)
    return State(values, tuple(range(params.domain_size)))
