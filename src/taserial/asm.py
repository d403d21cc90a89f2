"""Abstract-state-machine programs: syntax, values, states and update-set semantics.

A machine state maps locations (function name + argument tuple) to values.
One machine step produces a finite update set; applying a consistent update
set yields the successor state.  Everything here is a pure function of its
inputs (plus an explicit choice resolver for `choose` rules), so evaluation
is deterministic and thread-safe.
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from itertools import repeat
from typing import (Callable, Dict, FrozenSet, NamedTuple, NoReturn, Optional,
                    Tuple, Union)


class AsmError(Exception):
    """Base class for machine-program errors."""


class EvalError(AsmError):
    """Raised when term/formula/rule evaluation fails."""


class UnboundVariable(EvalError):
    pass


class ArityMismatch(EvalError):
    pass


class TypeMismatch(EvalError):
    pass


class UndefArgument(EvalError):
    """A location argument evaluated to undef."""


class IntTooLarge(EvalError):
    """An integer result with more decimal digits than
    sys.get_int_max_str_digits() allows, which no trace could hold."""


class InconsistentUpdateSet(AsmError):
    """An update set assigns two distinct values to one location."""


class Constant:
    """A named value: undef, true or false.  Each is equal only to itself,
    so Python `==` and hashing are the machine's value equality, and pickle
    and deepcopy keep the object."""

    __slots__ = ("name", "key")

    def __init__(self, name: str, key: tuple):
        self.name = name
        self.key = key  # the value_key

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self) -> str:
        return self.name.upper()  # the module attribute


UNDEF = Constant("undef", ("u", 0))
FALSE = Constant("false", ("b", 0))
TRUE = Constant("true", ("b", 1))

#: Values are unbounded ints, interned symbol strings, true, false or undef.
Value = Union[int, str, Constant]


class Location(NamedTuple):
    func: str
    args: Tuple[Value, ...]


def value_key(v: Value) -> tuple:
    """Canonical sort key: booleans (false first), then integers, symbols
    and undef last."""
    kind = type(v)
    if kind is int:
        return ("i", v)
    if kind is str:
        return ("s", v)
    if kind is Constant:
        return v.key
    raise TypeError(f"not a machine value: {v!r}")


def loc_key(loc: Location) -> tuple:
    return (loc.func, tuple(value_key(a) for a in loc.args))


# ---------------------------------------------------------------------------
# Records


def _no_assignment(self, name: str, value) -> NoReturn:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def record(cls):
    """`cls` as a frozen dataclass with slots, built at the cost of its
    slots: its `__init__` stores each field through the field's slot
    descriptor, where a frozen dataclass's calls `object.__setattr__` by
    name, at about three times the cost.  Assigning any attribute raises
    FrozenInstanceError (the slotted dataclass's own `__setattr__` raises
    TypeError for a name that is no field); deleting a field, `==`,
    hashing, `repr`, defaults, pickling and deepcopy are the dataclass's
    own.  No field has a default factory."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = _no_assignment
    namespace, params, body = {}, [], []
    for f in fields(cls):
        namespace["_set_" + f.name] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace["_default_" + f.name] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"\n    _set_{f.name}(self, {f.name})")
    exec(f"def __init__(self, {', '.join(params)}):{''.join(body) or ' pass'}",
         namespace)
    cls.__init__ = namespace["__init__"]
    return cls


# ---------------------------------------------------------------------------
# Syntax


@record
class Var:
    name: str


@record
class Apply:
    func: str
    args: Tuple["Term", ...] = ()


Term = Union[Var, Apply]


@record
class Atom:
    pred: str
    args: Tuple[Term, ...] = ()


@record
class Not:
    sub: "Formula"


@record
class And:
    left: "Formula"
    right: "Formula"


@record
class Or:
    left: "Formula"
    right: "Formula"


@record
class Eq:
    left: Term
    right: Term


@record
class Lt:
    left: Term
    right: Term


@record
class Forall:
    var: str
    body: "Formula"


@record
class Exists:
    var: str
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Eq, Lt, Forall, Exists]


@record
class Skip:
    pass


@record
class Assign:
    lhs: Apply
    rhs: Term


@record
class If:
    guard: Formula
    then: "Rule"
    orelse: "Rule"


@record
class Let:
    var: str
    bind: Term
    body: "Rule"


@record
class ForallDo:
    var: str
    guard: Formula
    body: "Rule"


@dataclass(eq=True)
class ChooseDo:
    var: str
    guard: Formula
    body: "Rule"
    # Stable identifier used to couple the witness picked during location
    # analysis with the one picked during execution; numbered by
    # assign_choice_ids in a deterministic preorder pass, from 0 in each
    # program (dsl.MachineProgram).
    node_id: int = -1


@record
class Par:
    """`par { R ; ... }`: every item runs in the same state."""

    items: Tuple["Rule", ...]


@record
class Seq:
    """`seq { R ; ... }`: each item runs in the state its predecessors left."""

    items: Tuple["Rule", ...]


@record
class Call:
    rule: str
    args: Tuple[Term, ...] = ()


Rule = Union[Skip, Assign, If, Let, ForallDo, ChooseDo, Par, Seq, Call]


@record
class NamedRule:
    params: Tuple[str, ...]
    body: Rule


# ---------------------------------------------------------------------------
# Static functions

_INT_RE = re.compile(r"-?\d+\Z")
# name -> is_static(name), filled the first time a name is asked about.
_STATIC: Dict[str, bool] = dict.fromkeys(("+", "-", "true", "false", "undef"), True)


def is_static(name: str) -> bool:
    """True for built-in function symbols that are not locations.

    Built-ins: integer and symbol literals, true/false/undef, + and -.
    """
    known = _STATIC.get(name)
    if known is None:
        known = _STATIC[name] = (name.startswith("'")
                                 or _INT_RE.match(name) is not None)
    return known


def static_apply(name: str, vals: Tuple[Value, ...]) -> Value:
    if _INT_RE.match(name):
        if vals:
            raise ArityMismatch(f"literal {name} takes no arguments")
        return int(name)
    if name.startswith("'"):
        if vals:
            raise ArityMismatch(f"symbol {name} takes no arguments")
        return name[1:]
    if name in ("true", "false", "undef"):
        if vals:
            raise ArityMismatch(f"{name} takes no arguments")
        return {"true": TRUE, "false": FALSE, "undef": UNDEF}[name]
    if len(vals) != 2:
        raise ArityMismatch(f"{name} takes two arguments, got {len(vals)}")
    a, b = vals
    for v in (a, b):
        if type(v) is not int:
            raise TypeMismatch(f"{name} needs integers, got {v!r}")
    result = a + b if name == "+" else a - b
    if abs(result) < INT_BOUND:
        return result
    raise IntTooLarge(f"{name} gives an integer of more than {INT_DIGITS} "
                      f"digits, the limit of sys.get_int_max_str_digits()")


#: The int-string limit in force when taserial is imported
#: (sys.get_int_max_str_digits(); 0 means none), and the magnitude that no
#: integer result may reach under it (IntTooLarge).
INT_DIGITS = sys.get_int_max_str_digits()
INT_BOUND: Union[int, float] = 10 ** INT_DIGITS if INT_DIGITS else math.inf


# ---------------------------------------------------------------------------
# State and update sets

#: An update set is a frozenset of (Location, Value) pairs.
UpdateSet = FrozenSet[Tuple[Location, Value]]

EMPTY_UPDATES: UpdateSet = frozenset()


def consistent(updates: UpdateSet) -> bool:
    """No location receives two distinct values."""
    seen: Dict[Location, Value] = {}
    for loc, val in updates:
        if loc in seen and seen[loc] != val:
            return False
        seen[loc] = val
    return True


def update_locations(updates: UpdateSet) -> FrozenSet[Location]:
    return frozenset([loc for loc, _ in updates])


class State:
    """Finite location-to-value map with a declared finite quantifier domain.

    Reads of unmapped locations return undef.  with_updates builds a
    successor; `update` changes a state in place, which only its owner
    does.
    """

    __slots__ = ("values", "domain")

    def __init__(self, values: Optional[Dict[Location, Value]] = None,
                 domain: Tuple[Value, ...] = tuple(range(8))):
        if not domain:
            raise ValueError("state domain must be nonempty")
        if len(set(domain)) != len(domain):
            raise ValueError("state domain must be duplicate-free")
        self.values: Dict[Location, Value] = dict(values or {})
        self.domain = tuple(domain)

    def get(self, loc: Location) -> Value:
        return self.values.get(loc, UNDEF)

    def with_updates(self, updates: UpdateSet) -> "State":
        out = State.__new__(State)
        out.values = dict(self.values)
        out.domain = self.domain
        out.update(updates)
        return out

    def update(self, updates: UpdateSet) -> None:
        """Apply updates in place: to a state no one else holds, such as the
        private copy from with_updates, or the run engine's own state, which
        it updates after every step instead of copying it."""
        values = self.values
        for loc, val in updates:
            if val is UNDEF:
                values.pop(loc, None)
            else:
                values[loc] = val

    def items(self):
        return sorted(self.values.items(), key=lambda p: loc_key(p[0]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, State) and self.domain == other.domain
                and self.values == other.values)

    def __repr__(self) -> str:
        body = ", ".join(f"{l.func}{l.args!r}={v!r}" for l, v in self.items())
        return f"State({body})"


def require_consistent(updates: UpdateSet) -> None:
    """Raise InconsistentUpdateSet, naming the clashes, unless consistent."""
    if not consistent(updates):
        raise InconsistentUpdateSet(f"conflicting updates: {_clashes(updates)}")


def apply_updates(state: State, updates: UpdateSet) -> State:
    """Successor state for a consistent update set."""
    require_consistent(updates)
    return state.with_updates(updates)


def _clashes(updates: UpdateSet):
    seen: Dict[Location, Value] = {}
    out = []
    for loc, val in sorted(updates, key=lambda p: (loc_key(p[0]), value_key(p[1]))):
        if loc in seen and seen[loc] != val:
            out.append(loc)
        seen[loc] = val
    return out


# ---------------------------------------------------------------------------
# Evaluation

Env = Dict[str, Value]
OnRead = Optional[Callable[[Location, Value], None]]


def eval_term(t: Term, state: State, env: Env, on_read: OnRead = None) -> Value:
    """Value of a term; dynamic function symbols read the state's location map."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    vals = tuple(eval_term(a, state, env, on_read) for a in t.args)
    if is_static(t.func):
        return static_apply(t.func, vals)
    return _read_dynamic(t.func, vals, state, on_read)


def _read_dynamic(func: str, vals: Tuple[Value, ...], state: State,
                  on_read: OnRead) -> Value:
    loc = make_location(func, vals)
    val = state.get(loc)
    if on_read is not None:
        on_read(loc, val)
    return val


def make_location(func: str, vals: Tuple[Value, ...]) -> Location:
    for v in vals:
        if v is UNDEF:
            raise UndefArgument(f"undef argument for location {func}")
    return Location(func, vals)


def eval_formula(f: Formula, state: State, env: Env, on_read: OnRead = None) -> bool:
    """Classical two-valued semantics; quantifiers range over state.domain.

    An atom whose location holds undef counts as false.
    """
    if isinstance(f, Atom):
        vals = tuple(eval_term(a, state, env, on_read) for a in f.args)
        v = _read_dynamic(f.pred, vals, state, on_read)
        if v is TRUE:
            return True
        if v is FALSE or v is UNDEF:
            return False
        raise TypeMismatch(f"atom {f.pred} holds non-boolean {v!r}")
    if isinstance(f, Not):
        return not eval_formula(f.sub, state, env, on_read)
    if isinstance(f, And):
        return (eval_formula(f.left, state, env, on_read)
                and eval_formula(f.right, state, env, on_read))
    if isinstance(f, Or):
        return (eval_formula(f.left, state, env, on_read)
                or eval_formula(f.right, state, env, on_read))
    if isinstance(f, Eq):
        return (eval_term(f.left, state, env, on_read)
                == eval_term(f.right, state, env, on_read))
    if isinstance(f, Lt):
        a = eval_term(f.left, state, env, on_read)
        b = eval_term(f.right, state, env, on_read)
        for v in (a, b):
            if type(v) is not int:
                raise TypeMismatch(f"< needs integers, got {v!r}")
        return a < b
    if isinstance(f, Forall):
        return all(eval_formula(f.body, state, {**env, f.var: d}, on_read)
                   for d in state.domain)
    if isinstance(f, Exists):
        return any(eval_formula(f.body, state, {**env, f.var: d}, on_read)
                   for d in state.domain)
    raise TypeError(f"not a formula: {f!r}")


def guard_range(var: str, guard: Formula, state: State, env: Env,
                on_read: OnRead = None) -> list:
    """Domain elements satisfying the guard, in domain order."""
    return [d for d in state.domain
            if eval_formula(guard, state, {**env, var: d}, on_read)]


def yields(r: Rule, state: State, env: Env, resolver,
           rules: Optional[Dict[str, NamedRule]] = None,
           on_read: OnRead = None) -> UpdateSet:
    """Update set produced by one step of rule r in the given state.

    `resolver` supplies witnesses for choose rules (see taserial.seeds); the
    same resolver seed makes execution agree with the read/write-location
    analysis on every choice.
    """
    rules = rules or {}
    if isinstance(r, Skip):
        return EMPTY_UPDATES
    if isinstance(r, Assign):
        if not isinstance(r.lhs, Apply) or is_static(r.lhs.func):
            raise EvalError(f"assignment target must be a dynamic function: {r.lhs!r}")
        vals = tuple(eval_term(a, state, env, on_read) for a in r.lhs.args)
        loc = make_location(r.lhs.func, vals)
        return frozenset({(loc, eval_term(r.rhs, state, env, on_read))})
    if isinstance(r, If):
        branch = r.then if eval_formula(r.guard, state, env, on_read) else r.orelse
        return yields(branch, state, env, resolver, rules, on_read)
    if isinstance(r, Let):
        v = eval_term(r.bind, state, env, on_read)
        return yields(r.body, state, {**env, r.var: v}, resolver, rules, on_read)
    if isinstance(r, ForallDo):
        out: set = set()
        for d in guard_range(r.var, r.guard, state, env, on_read):
            out |= yields(r.body, state, {**env, r.var: d}, resolver, rules, on_read)
        return frozenset(out)
    if isinstance(r, ChooseDo):
        rng = guard_range(r.var, r.guard, state, env, on_read)
        if not rng:
            return EMPTY_UPDATES
        witness = rng[resolver.pick(r.node_id, len(rng))]
        return yields(r.body, state, {**env, r.var: witness}, resolver, rules, on_read)
    if isinstance(r, Par):
        out: set = set()
        for item in r.items:
            out |= yields(item, state, env, resolver, rules, on_read)
        return frozenset(out)
    if isinstance(r, Seq):
        # The first inconsistent item's update set ends the block.
        done: dict = {}  # the consistent items' updates, later writes winning
        s = state
        for item in r.items:
            u = yields(item, s, env, resolver, rules, on_read)
            if not consistent(u):
                return seq_merge(frozenset(done.items()), u)
            done.update(u)
            s = seq_advance(s, state, u)
        return frozenset(done.items())
    if isinstance(r, Call):
        return yields(expand_call(r, rules), state, env, resolver, rules, on_read)
    raise TypeError(f"not a rule: {r!r}")


def seq_advance(s: State, block_start: State, u: UpdateSet) -> State:
    """The state after u for the next item of a seq block begun in
    block_start: one copy per block, which later items update in place."""
    if s is block_start:
        return s.with_updates(u)
    s.update(u)
    return s


def seq_merge(u1: UpdateSet, u2: UpdateSet) -> UpdateSet:
    """Sequential composition of update sets; later writes win per location."""
    written = update_locations(u2)
    return frozenset(p for p in u1 if p[0] not in written) | u2


def expand_call(call: Call, rules: Dict[str, NamedRule]) -> Rule:
    """Inline a named-rule call, substituting argument terms for parameters."""
    try:
        named = rules[call.rule]
    except KeyError:
        raise EvalError(f"unknown rule {call.rule!r}") from None
    if len(named.params) != len(call.args):
        raise ArityMismatch(
            f"rule {call.rule} takes {len(named.params)} args, got {len(call.args)}")
    return substitute_rule(named.body, dict(zip(named.params, call.args)))


def substitute_term(t: Term, mapping: Dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    # map, not a generator: no frame of its own on deep terms
    return Apply(t.func, tuple(map(substitute_term, t.args, repeat(mapping))))


def substitute_formula(f: Formula, mapping: Dict[str, Term]) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(substitute_term(a, mapping) for a in f.args))
    if isinstance(f, Not):
        return Not(substitute_formula(f.sub, mapping))
    if isinstance(f, And):
        return And(substitute_formula(f.left, mapping),
                   substitute_formula(f.right, mapping))
    if isinstance(f, Or):
        return Or(substitute_formula(f.left, mapping),
                  substitute_formula(f.right, mapping))
    if isinstance(f, Eq):
        return Eq(substitute_term(f.left, mapping), substitute_term(f.right, mapping))
    if isinstance(f, Lt):
        return Lt(substitute_term(f.left, mapping), substitute_term(f.right, mapping))
    if isinstance(f, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        body = substitute_formula(f.body, inner) if inner else f.body
        return type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def substitute_rule(r: Rule, mapping: Dict[str, Term]) -> Rule:
    if not mapping:
        return r
    if isinstance(r, Skip):
        return r
    if isinstance(r, Assign):
        lhs = substitute_term(r.lhs, mapping)
        return Assign(lhs, substitute_term(r.rhs, mapping))
    if isinstance(r, If):
        return If(substitute_formula(r.guard, mapping),
                  substitute_rule(r.then, mapping),
                  substitute_rule(r.orelse, mapping))
    if isinstance(r, Let):
        inner = {k: v for k, v in mapping.items() if k != r.var}
        return Let(r.var, substitute_term(r.bind, mapping),
                   substitute_rule(r.body, inner))
    if isinstance(r, ForallDo):
        inner = {k: v for k, v in mapping.items() if k != r.var}
        return ForallDo(r.var, substitute_formula(r.guard, inner),
                        substitute_rule(r.body, inner))
    if isinstance(r, ChooseDo):
        inner = {k: v for k, v in mapping.items() if k != r.var}
        return ChooseDo(r.var, substitute_formula(r.guard, inner),
                        substitute_rule(r.body, inner), node_id=r.node_id)
    if isinstance(r, (Par, Seq)):
        return type(r)(tuple(substitute_rule(i, mapping) for i in r.items))
    if isinstance(r, Call):
        return Call(r.rule, tuple(substitute_term(a, mapping) for a in r.args))
    raise TypeError(f"not a rule: {r!r}")


def assign_choice_ids(rules: list) -> int:
    """Number the ChooseDo nodes in preorder from 0; returns their count."""
    next_id = 0
    todo = rules[::-1]  # a stack: the next node to visit is last
    while todo:
        r = todo.pop()
        kind = type(r)
        if kind is ChooseDo:
            r.node_id = next_id
            next_id += 1
            todo.append(r.body)
        elif kind is If:
            todo.append(r.orelse)
            todo.append(r.then)
        elif kind is Let or kind is ForallDo:
            todo.append(r.body)
        elif kind is Par or kind is Seq:
            todo += r.items[::-1]
    return next_id
