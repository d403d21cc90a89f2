"""Read and write locations of terms, formulae and rules, in one pass.

Each rule, term and formula is compiled once into nested Python closures
(closure generation: Feeley & Lapalme, "Using closures for code
generation", 1987).  Literals, symbols, true/false/undef and +/- are
resolved at compile time, so running the code interprets no syntax.  One
run of a compiled rule returns the step's update set and fills its read log,
which the rw_* entry points take from their caller (read_log) and fill in
place; the write set is the set of updated locations.

The analysis reads more than plain execution (asm.yields, the executable
spec) does: both sides of and/or, quantified formulae and forall/choose
guards over the whole domain, and the target location of every assignment.
Each item of a `seq` block runs in the state the items before it left, as
execution does.  Errors keep the spec's exception classes and are raised
when the code runs, never when it compiles; an operand or domain element
read after the result of its and/or or quantifier is decided raises
nothing, as the spec never evaluates it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional

from .asm import (
    And,
    Apply,
    Assign,
    Atom,
    Call,
    ChooseDo,
    EMPTY_UPDATES,
    Env,
    Eq,
    EvalError,
    Exists,
    Forall,
    ForallDo,
    FALSE,
    Formula,
    INT_BOUND,
    If,
    Let,
    Location,
    Lt,
    NamedRule,
    Not,
    Or,
    Par,
    Rule,
    Seq,
    Skip,
    State,
    TRUE,
    Term,
    TypeMismatch,
    UNDEF,
    UnboundVariable,
    UpdateSet,
    Value,
    Var,
    consistent,
    expand_call,
    is_static,
    make_location,
    seq_advance,
    seq_merge,
    static_apply,
    update_locations,
)
from .dsl import print_location


@dataclass(frozen=True)
class RwSet:
    reads: FrozenSet[Location]
    writes: FrozenSet[Location]
    updates: UpdateSet = EMPTY_UPDATES


ReadLog = Dict[Location, Value]

# Compiled code.  Terms and formulae run as code(state, env, log); rules as
# code(state, env, log, resolver) and return their update set.  Every read
# goes into log, which keeps the first value seen of each location.
Code = Callable


# -- terms ------------------------------------------------------------------


def _const(value: Value) -> Code:
    """Code returning value; its .value marks it as a constant."""
    def const(s, env, log):
        return value
    const.value = value
    return const


_NOT_CONST = object()


def _consts(codes) -> Optional[tuple]:
    """The values of compiled terms when all of them are constants."""
    vals = []
    for c in codes:
        v = getattr(c, "value", _NOT_CONST)
        if v is _NOT_CONST:
            return None
        vals.append(v)
    return tuple(vals)


# name -> the code of the argument-free application name(): a constant, or
# a read of Location(name, ()) from the state it runs in.  It depends on the
# name alone, so every occurrence in every program shares it.
_LEAVES: Dict[str, Code] = {}


def _term(t: Term) -> Code:
    if type(t) is Var:
        name = t.name

        def var(s, env, log):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None
        return var
    if not t.args:
        leaf = _LEAVES.get(t.func)
        if leaf is None:
            make = _static if is_static(t.func) else _read
            leaf = _LEAVES[t.func] = make(t.func, [])
        return leaf
    args = [_term(a) for a in t.args]
    if is_static(t.func):
        return _static(t.func, args)
    return _read(t.func, args)


def _static(func: str, args) -> Code:
    vals = _consts(args)
    if vals is not None:
        try:
            return _const(static_apply(func, vals))
        except EvalError:
            pass  # raise when run, like the spec
    if func in ("+", "-") and len(args) == 2:
        return _arith(func, *args)

    def static(s, env, log):
        return static_apply(func, tuple([a(s, env, log) for a in args]))
    return static


def _arith(func: str, a: Code, b: Code) -> Code:
    """x + y or x - y; static_apply raises on a non-integer operand and on
    a result of INT_BOUND or more in magnitude."""
    op = operator.add if func == "+" else operator.sub

    def arith(s, env, log):
        x = a(s, env, log)
        y = b(s, env, log)
        if type(x) is int and type(y) is int:
            r = op(x, y)
            if abs(r) < INT_BOUND:
                return r
        return static_apply(func, (x, y))
    return arith


# A location of constant arguments -> the code returning it, shared like
# _LEAVES: a program's code lives as long as the program, and one closure
# per assignment site would add to what the collector walks.
_PLACES: Dict[Location, Code] = {}


def _where(func: str, args) -> Code:
    """Code computing the location func(args), raising UndefArgument on
    undef; a location of constant arguments is built once."""
    vals = _consts(args)
    if vals is not None and UNDEF not in vals:
        loc = Location(func, vals)
        where = _PLACES.get(loc)
        if where is None:
            where = _PLACES[loc] = lambda s, env, log: loc
        return where
    return lambda s, env, log: make_location(
        func, tuple([a(s, env, log) for a in args]))


def _read(func: str, args) -> Code:
    where = _where(func, args)

    def read(s, env, log):
        at = where(s, env, log)
        v = s.values.get(at, UNDEF)
        log.setdefault(at, v)
        return v
    return read


# -- formulae ---------------------------------------------------------------


def _formula(f: Formula) -> Code:
    kind = type(f)
    if kind is Eq:
        return _eq(_term(f.left), _term(f.right))
    if kind is Lt:
        return _lt(_term(f.left), _term(f.right))
    if kind is And or kind is Or:
        return _connective(kind is And, _formula(f.left), _formula(f.right))
    if kind is Not:
        sub = _formula(f.sub)
        return lambda s, env, log: not sub(s, env, log)
    if kind is Atom:
        return _atom(f.pred, _read(f.pred, [_term(a) for a in f.args]))
    if kind is Forall or kind is Exists:
        return _quantifier(kind is Forall, f.var, _formula(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _atom(pred: str, read: Code) -> Code:
    def atom(s, env, log):
        v = read(s, env, log)
        if v is TRUE:
            return True
        if v is FALSE or v is UNDEF:
            return False
        raise TypeMismatch(f"atom {pred} holds non-boolean {v!r}")
    return atom


def _connective(is_and: bool, left: Code, right: Code) -> Code:
    def both(s, env, log):  # both sides are read
        if left(s, env, log) != is_and:
            _unneeded(right, s, env, log)
            return not is_and
        return right(s, env, log)
    return both


def _quantifier(is_forall: bool, var: str, body: Code) -> Code:
    """forall or exists, with the body read over the whole domain."""
    def every(s, env, log):
        rest = iter(s.domain)
        for d in rest:
            if body(s, {**env, var: d}, log) != is_forall:
                for d in rest:
                    _unneeded(body, s, {**env, var: d}, log)
                return not is_forall
        return is_forall
    return every


def _unneeded(code: Code, s, env, log) -> None:
    """Run a formula for its reads once the result is decided: the spec
    stops before it, so an error it raises is not the step's."""
    try:
        code(s, env, log)
    except EvalError:
        pass


def _eq(a: Code, b: Code) -> Code:
    return lambda s, env, log: a(s, env, log) == b(s, env, log)


def _lt(a: Code, b: Code) -> Code:
    def lt(s, env, log):
        x = a(s, env, log)
        y = b(s, env, log)
        if type(x) is int and type(y) is int:
            return x < y
        raise TypeMismatch("< needs integers, got "
                           + repr(y if type(x) is int else x))
    return lt


def _guard_range(var: str, guard: Code):
    """Code for the guard-satisfying domain elements, in domain order; the
    guard is read over the whole domain."""
    def domain_range(s, env, log):
        return [d for d in s.domain if guard(s, {**env, var: d}, log)]
    return domain_range


# -- rules ------------------------------------------------------------------


def _rule(r: Rule, rules: Dict[str, NamedRule]) -> Code:
    """Code for r, whose calls run the named rules in rules; a choose node's
    id is read when the code runs."""
    kind = type(r)
    if kind is Assign:
        return _assign(r.lhs, _term(r.rhs))
    if kind is If:
        return _if(r, rules)
    if kind is Par:
        return _par([_rule(i, rules) for i in r.items])
    if kind is Seq:
        return _seq([_rule(i, rules) for i in r.items])
    if kind is Skip:
        return lambda s, env, log, res: EMPTY_UPDATES
    if kind is Let:
        var, bind, body = r.var, _term(r.bind), _rule(r.body, rules)
        return lambda s, env, log, res: body(
            s, {**env, var: bind(s, env, log)}, log, res)
    if kind is ForallDo or kind is ChooseDo:
        make = _forall if kind is ForallDo else _choose
        return make(r, _guard_range(r.var, _formula(r.guard)),
                    _rule(r.body, rules))
    if kind is Call:
        return _call(r, rules)
    raise TypeError(f"not a rule: {r!r}")


def _assign(lhs: Term, rhs: Code) -> Code:
    if type(lhs) is not Apply or is_static(lhs.func):
        def bad_target(s, env, log, res):
            raise EvalError(f"assignment target must be a dynamic function: {lhs!r}")
        return bad_target
    where = _where(lhs.func, [_term(a) for a in lhs.args])

    def assign(s, env, log, res):
        at = where(s, env, log)
        log.setdefault(at, s.values.get(at, UNDEF))
        try:
            value = rhs(s, env, log)
        except EvalError as e:
            e.args = (f"{e} (assigning {print_location(at)})",)
            raise
        return frozenset(((at, value),))
    return assign


def _if(r: If, rules: Dict[str, NamedRule]) -> Code:
    """Each branch is compiled the first time it is taken."""
    guard = _formula(r.guard)
    then = orelse = None

    def if_(s, env, log, res):
        nonlocal then, orelse
        if guard(s, env, log):
            if then is None:
                then = _rule(r.then, rules)
            return then(s, env, log, res)
        if orelse is None:
            orelse = _rule(r.orelse, rules)
        return orelse(s, env, log, res)
    return if_


def _par(items: list) -> Code:
    def par(s, env, log, res):
        out: set = set()
        for code in items:
            out |= code(s, env, log, res)
        return frozenset(out)
    return par


def _seq(items: list) -> Code:
    """Each item runs in the state the items before it left; the first
    inconsistent item's update set, merged after theirs, ends the block."""
    *init, last = items

    def seq(state, env, log, res):
        done: dict = {}  # the consistent items' updates
        s = state
        for code in init:
            u = code(s, env, log, res)
            if not consistent(u):
                return seq_merge(frozenset(done.items()), u)
            done.update(u)
            s = seq_advance(s, state, u)
        return seq_merge(frozenset(done.items()), last(s, env, log, res))
    return seq


def _forall(r: ForallDo, domain_range: Code, body: Code) -> Code:
    var = r.var

    def forall(s, env, log, res):
        out: set = set()
        for d in domain_range(s, env, log):
            out |= body(s, {**env, var: d}, log, res)
        return frozenset(out)
    return forall


def _choose(r: ChooseDo, domain_range: Code, body: Code) -> Code:
    var = r.var

    def choose(s, env, log, res):
        rng = domain_range(s, env, log)
        if not rng:
            return EMPTY_UPDATES
        witness = rng[res.pick(r.node_id, len(rng))]
        return body(s, {**env, var: witness}, log, res)
    return choose


def _call(call: Call, rules: Dict[str, NamedRule]) -> Code:
    """Code for a call: asm.expand_call's expansion, compiled when the call
    first runs, as the spec expands it.  The expansion copies each choose
    node with its id: a program's ids are fixed when it is built."""
    body = None

    def call_(s, env, log, res):
        nonlocal body
        if body is None:
            body = _rule(expand_call(call, rules), rules)
        return body(s, env, log, res)
    return call_


# -- entry points -------------------------------------------------------------


def compile_rule(r: Rule, rules: Optional[Dict[str, NamedRule]] = None
                 ) -> Code:
    """The code of rule r, calling the named rules in rules."""
    return _rule(r, {} if rules is None else rules)


def compile_formula(f: Formula) -> Code:
    """The code of formula f: it reads what the analysis reads, and answers
    as asm.eval_formula does."""
    return _formula(f)


def rw_term(t: Term, state: State, env: Env,
            read_log: Optional[ReadLog] = None) -> RwSet:
    """Read locations of a term; its write location is the head application.
    A given read_log is filled in place."""
    log = {} if read_log is None else read_log
    writes: FrozenSet[Location] = frozenset()
    if isinstance(t, Apply) and not is_static(t.func):
        head = _where(t.func, [_term(a) for a in t.args])(state, env, log)
        log.setdefault(head, state.get(head))
        writes = frozenset({head})
    else:
        _term(t)(state, env, log)
    return RwSet(frozenset(log), writes)


def rw_formula(f: Formula, state: State, env: Env,
               read_log: Optional[ReadLog] = None) -> RwSet:
    """Read locations of a formula; formulae have no write locations.  A
    given read_log is filled in place."""
    log = {} if read_log is None else read_log
    _formula(f)(state, env, log)
    return RwSet(frozenset(log), frozenset())


def rw_rule(r, state: State, env: Env, resolver,
            rules: Optional[Dict[str, NamedRule]] = None,
            read_log: Optional[ReadLog] = None) -> RwSet:
    """Read and write locations and the update set of one step of rule r in
    the given state.  r is a Rule, compiled here with the named rules, or
    the code compile_rule returned for it.  A given read_log is filled in
    place: pass an empty one, since every location it holds counts as read."""
    code = r if callable(r) else compile_rule(r, rules)
    log = {} if read_log is None else read_log
    updates = code(state, env, log, resolver)
    return RwSet(frozenset(log), update_locations(updates), updates)
