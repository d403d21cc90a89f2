"""Machine-program text format: parser, printer and validation.

A program declares its location classes, initial values, a termination
formula and rules:

    machine counter
    shared total
    init total() := 0
    init steps() := 0
    terminated: steps() = 3
    rule:
      par { steps() := steps() + 1 ; total() := total() + 1 }

Bare identifiers denote bound variables inside let/forall/choose bodies and
nullary function applications elsewhere; nullary applications always print
with parentheses.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, List, NoReturn, Optional, Set, Tuple, Union

from .asm import (
    And,
    Apply,
    Assign,
    Atom,
    Call,
    ChooseDo,
    Constant,
    Eq,
    Exists,
    Forall,
    ForallDo,
    Formula,
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
    Term,
    Value,
    Var,
    assign_choice_ids,
    is_static,
    static_apply,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ProgramError(Exception):
    """Invalid machine program (bad declarations, arities, call graph)."""


KEYWORDS = {
    "machine", "shared", "monitored", "output", "init", "terminated", "rule",
    "skip", "if", "then", "else", "let", "in", "forall", "exists", "with",
    "do", "choose", "par", "seq", "call", "not", "and", "or",
    "true", "false", "undef",
}

# An operator, an identifier, an integer, `:` or `:=`: the frequent first.
_LEXEME = r"[(){};,./=<+\-']|[A-Za-z_][A-Za-z0-9_]*|\d+|:=?"
_LEXEME_RE = re.compile(_LEXEME)
# The `#` of a comment, or a character that is no whitespace or lexeme.
_ODD_RE = re.compile(r"[^\s\dA-Za-z_(){};,:./=<+\-']")
# The scan of a text that holds one.  Whitespace matches no alternative, so
# findall steps over it; a comment matches with both groups empty; a lexeme
# fills the first group and any other character the second.
_TOKEN_RE = re.compile(rf"#[^\n]*|({_LEXEME})|(\S)")


def _tokenize(text: str) -> List[str]:
    """The lexemes of `text` followed by a "" sentinel for its end; a
    character that starts no lexeme raises ParseError.

    A lexeme's kind is its first character: a digit starts an integer, a
    letter or `_` an identifier (`str.isidentifier`), anything else is an
    operator."""
    if _ODD_RE.search(text) is None:
        toks = _LEXEME_RE.findall(text)
    else:
        toks = [lex for lex, bad in _TOKEN_RE.findall(text)
                if lex or bad and _bad_character(text)]
    toks.append("")
    return toks


def _bad_character(text: str) -> NoReturn:
    m = next(m for m in _TOKEN_RE.finditer(text) if m.group(2))
    raise ParseError(f"unexpected character {m.group(2)!r}",
                     *_position(text, m.start()))


def _position(text: str, offset: int) -> Tuple[int, int]:
    """1-based line and column of `offset` in `text`."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


@dataclass(frozen=True)
class MachineProgram:
    """One machine: location classes, initialization, termination, rules;
    frozen, so the code cached on it never goes stale."""

    name: str
    shared: FrozenSet[str] = frozenset()
    monitored: FrozenSet[str] = frozenset()
    output: FrozenSet[str] = frozenset()
    arities: Dict[str, int] = field(default_factory=dict)
    inits: List[Tuple[Location, Value]] = field(default_factory=list)
    terminated: Formula = Eq(Apply("0"), Apply("0"))
    main_rule: Rule = Skip()
    named_rules: Dict[str, NamedRule] = field(default_factory=dict)
    # Compiled code of main_rule and terminated, filled once, on first use,
    # by the wrapper (see rwloc); not part of the program's identity.
    code: Dict[str, object] = field(default_factory=dict, init=False,
                                    repr=False, compare=False)
    # The choose nodes are numbered once, from 0, in preorder: the main
    # rule, then the named rules by name.  A run's config gives each machine
    # a choice_base, the count of choose nodes of the machines before it,
    # which the choice resolver adds to every id (see at_choice_base).
    choose_nodes: int = field(default=0, init=False, repr=False,
                              compare=False)
    choice_base: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "choose_nodes", assign_choice_ids(
            [self.main_rule]
            + [n.body for _, n in sorted(self.named_rules.items())]))

    def at_choice_base(self, base: int) -> "MachineProgram":
        """This program with the given choice_base; a copy, sharing the
        rules and the compiled code, unless it has that base already."""
        if base == self.choice_base:
            return self
        # Field by field: copy.copy would give the copy a materialized
        # __dict__, which makes every attribute read on it slower.
        program = object.__new__(MachineProgram)
        for f in fields(self):
            object.__setattr__(program, f.name, getattr(self, f.name))
        object.__setattr__(program, "choice_base", base)
        return program

    def classify(self, func: str) -> str:
        if func in self.shared:
            return "shared"
        if func in self.monitored:
            return "monitored"
        if func in self.output:
            return "output"
        return "controlled"

    def validate(self, calls: Dict[str, List[Tuple[str, int]]]) -> None:
        """`calls` maps each rule, "<main>" last, to its calls' names and arities."""
        for a, b in (("shared", "monitored"), ("shared", "output"),
                     ("monitored", "output")):
            overlap = getattr(self, a) & getattr(self, b)
            if overlap:
                raise ProgramError(
                    f"{self.name}: {sorted(overlap)} declared both {a} and {b}")
        rules = self.named_rules
        for callees in calls.values():
            for callee, arity in callees:
                if callee not in rules:
                    raise ProgramError(
                        f"{self.name}: call to undeclared rule {callee!r}")
                if len(rules[callee].params) != arity:
                    raise ProgramError(
                        f"{self.name}: wrong arity in call to {callee!r}")
        state: Dict[str, int] = {}
        for node in calls:
            _check_recursion(self.name, calls, node, state)


def _check_recursion(name: str, calls: Dict[str, List[Tuple[str, int]]],
                     node: str, state: Dict[str, int]) -> None:
    """Depth first from `node` through `calls`; state: 1 while a rule's
    calls are searched, 2 after.  (A closure calling itself would tie the
    program into a reference cycle that only the collector frees.)"""
    if state.get(node) == 1:
        raise ProgramError(f"{name}: recursive rule calls through {node!r}")
    if node not in state:
        state[node] = 1
        for callee, _ in calls[node]:
            _check_recursion(name, calls, callee, state)
        state[node] = 2


class _Leaves(dict):
    """A program's argument-free applications by name, each built once."""

    def __missing__(self, name: str) -> Apply:
        node = self[name] = Apply(name)
        return node


_SKIP = Skip()
_TERMS = (Apply, Var)
# The bound variables in scope, each with its node.
_Scope = Dict[str, Var]
_NO_VARS: _Scope = {}


class _Parser:
    """Recursive descent over the token list, terms and formulas by
    precedence climbing (Pratt, "Top down operator precedence", 1973).  Each
    parse method takes the index of its first token and returns what it
    parsed with the index of the token after it."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.leaves = _Leaves()
        self.calls: List[Tuple[str, int]] = []  # of the rule being parsed

    # -- token helpers ----------------------------------------------------

    def fail(self, message: str, i: int) -> NoReturn:
        tok = self.toks[i]
        raise ParseError(message + (f" (at {tok!r})" if tok else " (at end)"),
                         *_position(self.text, self._offset(i)))

    def _offset(self, index: int) -> int:
        """Offset in the text of token `index`, found by lexing it again."""
        for m in _TOKEN_RE.finditer(self.text):
            if m.group(1):
                if not index:
                    return m.start()
                index -= 1
        return len(self.text)

    def expect(self, text: str, i: int) -> int:
        if self.toks[i] != text:
            self.fail(f"expected {text!r}", i)
        return i + 1

    def ident(self, i: int) -> str:
        tok = self.toks[i]
        if not tok.isidentifier():
            self.fail("expected identifier", i)
        if tok in KEYWORDS:
            self.fail(f"keyword {tok!r} cannot be used as a name", i)
        return tok

    def _list(self, item, i: int, *args) -> Tuple[list, int]:
        """`( item, ... )`: the items, each parsed by `item(j, *args)`."""
        i = self.expect("(", i)
        items = []
        if self.toks[i] != ")":
            x, i = item(i, *args)
            items.append(x)
            while self.toks[i] == ",":
                x, i = item(i + 1, *args)
                items.append(x)
        return items, self.expect(")", i)

    # -- program ----------------------------------------------------------

    def program(self) -> MachineProgram:
        toks = self.toks
        name = self.ident(self.expect("machine", 0))
        i = 2
        classes: Dict[str, Set[str]] = {"shared": set(), "monitored": set(),
                                        "output": set()}
        arities: Dict[str, int] = {}
        inits: List[Tuple[Location, Value]] = []
        terminated = MachineProgram.terminated
        main_rule = None
        named_rules: Dict[str, NamedRule] = {}
        calls: Dict[str, List[Tuple[str, int]]] = {}
        while toks[i]:
            tok = toks[i]
            if tok in classes:
                names, i = self._name_list(i + 1, arities)
                classes[tok] |= names
            elif tok == "init":
                func = self.ident(i + 1)
                args, i = self._list(self._value_literal, i + 2)
                val, i = self._value_literal(self.expect(":=", i))
                inits.append((Location(func, tuple(args)), val))
            elif tok == "terminated":
                terminated, i = self.formula(self.expect(":", i + 1), _NO_VARS)
            elif tok == "rule":
                self.calls = []
                if toks[i + 1] == ":":
                    main_rule, i = self.rule(i + 2, _NO_VARS)
                    main_calls = self.calls
                else:
                    rname = self.ident(i + 1)
                    params, i = self._list(
                        lambda j: (self.ident(j), j + 1), i + 2)
                    body, i = self.rule(self.expect(":", i),
                                        {p: Var(p) for p in params})
                    if rname in named_rules:
                        self.fail(f"duplicate rule {rname!r}", i)
                    named_rules[rname] = NamedRule(tuple(params), body)
                    calls[rname] = self.calls
            else:
                self.fail("expected a program section", i)
        if main_rule is None:
            raise ParseError("program has no main rule", 1, 1)
        prog = MachineProgram(
            name=name, **{k: frozenset(v) for k, v in classes.items()},
            arities=arities, inits=inits, terminated=terminated,
            main_rule=main_rule, named_rules=named_rules)
        calls["<main>"] = main_calls
        prog.validate(calls)
        return prog

    def _name_list(self, i: int, arities: Dict[str, int]
                   ) -> Tuple[Set[str], int]:
        toks = self.toks
        names: Set[str] = set()
        while toks[i].isidentifier() and toks[i] not in KEYWORDS:
            name = toks[i]
            names.add(name)
            i += 1
            if toks[i] == "/":
                if not toks[i + 1].isdecimal():
                    self.fail("expected arity", i + 1)
                arity, i = self._integer(i + 1), i + 2
                prior = arities.get(name)
                if prior is not None and prior != arity:
                    self.fail(f"conflicting arity for {name}", i)
                arities[name] = arity
        if not names:
            self.fail("expected at least one function name", i)
        return names, i

    def _integer(self, i: int) -> int:
        """The integer literal at token i, once int() takes it."""
        tok = self.toks[i]
        try:
            return int(tok)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(f"integer literal of {len(tok)} digits is too long",
                             *_position(self.text, self._offset(i))) from None

    def _value_literal(self, i: int) -> Tuple[Value, int]:
        toks = self.toks
        tok = toks[i]
        if tok.isdecimal():
            return self._integer(i), i + 1
        if tok == "-" and toks[i + 1].isdecimal():
            return -self._integer(i + 1), i + 2
        if tok in ("true", "false", "undef"):
            return static_apply(tok, ()), i + 1
        if tok == "'":
            return self.ident(i + 1), i + 2
        self.fail("expected a literal value", i)

    # -- terms ------------------------------------------------------------

    def term(self, i: int, bound: _Scope, t: Optional[Term] = None,
             alone: bool = False) -> Tuple[Term, int]:
        """Primaries joined by `+`/`-`, to the left, or with `alone` one
        primary; `t` is the first primary, if parsed, and i the token after
        it."""
        toks, leaves = self.toks, self.leaves
        op, p = None, t
        while True:
            if p is None:
                tok = toks[i]
                if tok.isidentifier() and tok not in KEYWORDS:
                    if toks[i + 1] != "(":
                        p, i = bound.get(tok) or leaves[tok], i + 1
                    elif toks[i + 2] == ")":
                        p, i = leaves[tok], i + 3
                    else:
                        args, i = self._list(self.term, i + 1, bound)
                        p = Apply(tok, tuple(args))
                elif tok.isdecimal() or tok == "-" and toks[i + 1].isdecimal():
                    if tok == "-":
                        i += 1
                        tok = "-" + toks[i]
                    if tok not in leaves:
                        self._integer(i)
                    p, i = leaves[tok], i + 1
                elif tok == "(":
                    p, i = self.term(i + 1, bound)
                    if toks[i] != ")":
                        self.fail("expected ')'", i)
                    i += 1
                elif tok == "-":
                    p, i = self.term(i + 1, bound, alone=True)
                    p = Apply("-", (leaves["0"], p))
                elif tok == "'":
                    p, i = leaves["'" + self.ident(i + 1)], i + 2
                elif tok in ("true", "false", "undef"):
                    p, i = leaves[tok], i + 1
                else:
                    self.fail("expected a term", i)
            t = p if op is None else Apply(op, (t, p))
            op = toks[i]
            if alone or op != "+" and op != "-":
                return t, i
            p, i = None, i + 1

    # -- formulae ---------------------------------------------------------

    def formula(self, i: int, bound: _Scope,
                f=None) -> Tuple[Formula, int]:
        """Operands joined by `and`, which binds tighter, and by `or`, each
        to the left; `f` is the first operand, if parsed, and i the token
        after it."""
        toks = self.toks
        if f is None:
            f, i = self._formula_or_term(i, bound)
            f = self._as_formula(f, i)
        left = None  # the disjunction of the operands before f's conjunction
        op = toks[i]
        while op == "and" or op == "or":
            g, i = self._formula_or_term(i + 1, bound)
            g = self._as_formula(g, i)
            if op == "and":
                f = And(f, g)
            else:
                left = f if left is None else Or(left, f)
                f = g
            op = toks[i]
        return (f if left is None else Or(left, f)), i

    def _formula_or_term(self, i: int, bound: _Scope
                         ) -> Tuple[Union[Formula, Term], int]:
        """A negation, a quantifier, a comparison or a parenthesised formula;
        or a term that no `=` or `<` follows, left for the caller to read as
        an atom or as the parenthesised start of a comparison."""
        toks = self.toks
        tok = toks[i]
        if tok == "(":
            inner, i = self._formula_or_term(i + 1, bound)
            if toks[i] == "and" or toks[i] == "or":
                inner = self._as_formula(inner, i)
            if type(inner) not in _TERMS or toks[i] != ")":
                # A formula; after a bare term, the ")" expected here fails.
                f, i = self.formula(i, bound, inner)
                return f, self.expect(")", i)
            # A parenthesised term: the first primary of a term, which a
            # comparison may follow.
            t, i = self.term(i + 1, bound, inner)
        elif tok == "not":
            f, i = self._formula_or_term(i + 1, bound)
            return Not(self._as_formula(f, i)), i
        elif tok == "forall" or tok == "exists":
            var = self.ident(i + 1)
            body, i = self.formula(self.expect(".", i + 2),
                                   {**bound, var: Var(var)})
            return (Forall if tok == "forall" else Exists)(var, body), i
        else:
            t, i = self.term(i, bound)
        op = toks[i]
        if op == "=" or op == "<":
            right, i = self.term(i + 1, bound)
            return (Eq if op == "=" else Lt)(t, right), i
        return t, i

    def _as_formula(self, f: Union[Formula, Term], i: int) -> Formula:
        """f, or the formula that a term f standing alone denotes: `true`,
        `false` or an atom."""
        kind = type(f)
        if kind not in _TERMS:
            return f
        if kind is Apply:
            if f.func == "true":
                return Eq(self.leaves["0"], self.leaves["0"])
            if f.func == "false":
                return Not(Eq(self.leaves["0"], self.leaves["0"]))
            if not is_static(f.func):
                return Atom(f.func, f.args)
        self.fail("expected a comparison or atom", i)

    # -- rules ------------------------------------------------------------

    def rule(self, i: int, bound: _Scope) -> Tuple[Rule, int]:
        toks = self.toks
        tok = toks[i]
        if tok in KEYWORDS:
            if tok == "if":
                guard, i = self.formula(i + 1, bound)
                then, i = self.rule(self.expect("then", i), bound)
                if toks[i] != "else":
                    return If(guard, then, _SKIP), i
                orelse, i = self.rule(i + 1, bound)
                return If(guard, then, orelse), i
            if tok == "skip":
                return _SKIP, i + 1
            if tok == "let":
                var = self.ident(i + 1)
                bind, i = self.term(self.expect("=", i + 2), bound)
                body, i = self.rule(self.expect("in", i),
                                    {**bound, var: Var(var)})
                return Let(var, bind, body), i
            if tok == "forall" or tok == "choose":
                var = self.ident(i + 1)
                inner = {**bound, var: Var(var)}
                guard, i = self.formula(self.expect("with", i + 2), inner)
                body, i = self.rule(self.expect("do", i), inner)
                return (ForallDo if tok == "forall" else ChooseDo)(var, guard, body), i
            if tok == "par" or tok == "seq":
                item, i = self.rule(self.expect("{", i + 1), bound)
                items = [item]
                while toks[i] == ";":
                    item, i = self.rule(i + 1, bound)
                    items.append(item)
                i = self.expect("}", i)
                if len(items) == 1:
                    return item, i
                return (Par if tok == "par" else Seq)(tuple(items)), i
            if tok == "call":
                name = self.ident(i + 1)
                args, i = self._list(self.term, i + 2, bound)
                self.calls.append((name, len(args)))
                return Call(name, tuple(args)), i
        # An assignment; a keyword that starts no rule fails in it.
        lhs, i = self.term(i, bound)
        if type(lhs) is not Apply or is_static(lhs.func):
            self.fail("assignment target must be a function application", i)
        rhs, i = self.term(self.expect(":=", i), bound)
        return Assign(lhs, rhs), i  # type: ignore[arg-type]


def parse_program(text: str) -> MachineProgram:
    """Parse one machine program from DSL text."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Printing


def print_value(v: Value) -> str:
    kind = type(v)
    if kind is int:
        return str(v)
    if kind is str:
        return "'" + v
    if kind is Constant:
        return v.name
    raise TypeError(f"not a machine value: {v!r}")


def print_location(loc: Location) -> str:
    """A location as the language writes it, `f(a1,...,an)`, with no
    spaces: `g0()`, `arr(3)`, `f('q,true)`."""
    return loc.func + "(" + ",".join([print_value(a) for a in loc.args]) + ")"


def print_term(t: Term) -> str:
    if type(t) is Var:
        return t.name
    func, args = t.func, t.args
    if not args:
        return func if is_static(func) else func + "()"
    if len(args) == 2 and (func == "+" or func == "-"):
        return ("(" + print_term(args[0]) + " " + func + " "
                + print_term(args[1]) + ")")
    if is_static(func):
        return func
    return func + "(" + ", ".join([print_term(a) for a in args]) + ")"


def print_formula(f: Formula) -> str:
    kind = type(f)
    if kind is Eq:
        return print_term(f.left) + " = " + print_term(f.right)
    if kind is Lt:
        return print_term(f.left) + " < " + print_term(f.right)
    if kind is Atom:
        return f.pred + "(" + ", ".join([print_term(a) for a in f.args]) + ")"
    if kind is Or or kind is And:
        return ("(" + print_formula(f.left) + (") or (" if kind is Or else
                                               ") and (")
                + print_formula(f.right) + ")")
    if kind is Not:
        return "not (" + print_formula(f.sub) + ")"
    if kind is Exists or kind is Forall:
        return (("exists " if kind is Exists else "forall ") + f.var + " . ("
                + print_formula(f.body) + ")")
    raise TypeError(f"not a formula: {f!r}")


def print_rule(r: Rule) -> str:
    kind = type(r)
    if kind is Assign:
        return print_term(r.lhs) + " := " + print_term(r.rhs)
    if kind is If:
        return ("if " + print_formula(r.guard) + " then " + print_rule(r.then)
                + " else " + print_rule(r.orelse))
    if kind is Skip:
        return "skip"
    if kind is Par or kind is Seq:
        return (("par { " if kind is Par else "seq { ")
                + " ; ".join([print_rule(i) for i in r.items]) + " }")
    if kind is Let:
        return ("let " + r.var + " = " + print_term(r.bind) + " in "
                + print_rule(r.body))
    if kind is ChooseDo or kind is ForallDo:
        return (("choose " if kind is ChooseDo else "forall ") + r.var
                + " with " + print_formula(r.guard) + " do "
                + print_rule(r.body))
    if kind is Call:
        return ("call " + r.rule + "("
                + ", ".join([print_term(a) for a in r.args]) + ")")
    raise TypeError(f"not a rule: {r!r}")


def print_program(prog: MachineProgram) -> str:
    lines = ["machine " + prog.name]
    arities = prog.arities
    for label, names in (("shared", prog.shared), ("monitored", prog.monitored),
                         ("output", prog.output)):
        if names:
            lines.append(label + " " + " ".join([
                n + "/" + str(arities[n]) if n in arities else n
                for n in sorted(names)]))
    for loc, val in prog.inits:
        lines.append("init " + loc.func + "("
                     + ", ".join([print_value(a) for a in loc.args]) + ") := "
                     + print_value(val))
    lines.append("terminated: " + print_formula(prog.terminated))
    named = prog.named_rules
    for rname in sorted(named):
        lines.append("rule " + rname + "(" + ", ".join(named[rname].params)
                     + "): " + print_rule(named[rname].body))
    lines.append("rule: " + print_rule(prog.main_rule))
    return "\n".join(lines) + "\n"
