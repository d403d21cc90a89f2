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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from .asm import (
    And,
    Apply,
    Assign,
    Atom,
    Call,
    ChooseDo,
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
    UNDEF,
    Value,
    Var,
    is_static,
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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>:=|[(){};,:./=<+\-'])"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


@dataclass
class MachineProgram:
    """One machine: location classes, initialization, termination, rules."""

    name: str
    shared: FrozenSet[str] = frozenset()
    monitored: FrozenSet[str] = frozenset()
    output: FrozenSet[str] = frozenset()
    arities: Dict[str, int] = field(default_factory=dict)
    inits: List[Tuple[Location, Value]] = field(default_factory=list)
    terminated: Formula = Eq(Apply("0"), Apply("0"))
    main_rule: Rule = Skip()
    named_rules: Dict[str, NamedRule] = field(default_factory=dict)
    # Compiled code of main_rule and terminated, filled on first use by the
    # wrapper (see rwloc); not part of the program's identity.
    code: Dict[str, object] = field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def classify(self, func: str) -> str:
        if func in self.shared:
            return "shared"
        if func in self.monitored:
            return "monitored"
        if func in self.output:
            return "output"
        return "controlled"

    def validate(self) -> None:
        for a, b in (("shared", "monitored"), ("shared", "output"),
                     ("monitored", "output")):
            overlap = getattr(self, a) & getattr(self, b)
            if overlap:
                raise ProgramError(
                    f"{self.name}: {sorted(overlap)} declared both {a} and {b}")
        for names in (self.shared, self.monitored, self.output):
            for n in names:
                if is_static(n):
                    raise ProgramError(f"{self.name}: {n} is a built-in function")
        _check_call_graph(self.name, self.main_rule, self.named_rules)
        for loc, _ in self.inits:
            if is_static(loc.func):
                raise ProgramError(f"{self.name}: cannot initialize built-in {loc.func}")


def _check_call_graph(name: str, main: Rule, rules: Dict[str, NamedRule]) -> None:
    def callees(r: Rule, acc: Set[str]) -> None:
        if isinstance(r, Call):
            acc.add(r.rule)
            if r.rule not in rules:
                raise ProgramError(f"{name}: call to undeclared rule {r.rule!r}")
            if len(rules[r.rule].params) != len(r.args):
                raise ProgramError(f"{name}: wrong arity in call to {r.rule!r}")
        elif isinstance(r, If):
            callees(r.then, acc)
            callees(r.orelse, acc)
        elif isinstance(r, (Let, ForallDo, ChooseDo)):
            callees(r.body, acc)
        elif isinstance(r, Par):
            callees(r.left, acc)
            callees(r.right, acc)
        elif isinstance(r, Seq):
            callees(r.first, acc)
            callees(r.second, acc)

    graph: Dict[str, Set[str]] = {}
    for rname, named in rules.items():
        acc: Set[str] = set()
        callees(named.body, acc)
        graph[rname] = acc
    acc = set()
    callees(main, acc)
    graph["<main>"] = acc

    state: Dict[str, int] = {}  # 1 = visiting, 2 = done

    def visit(node: str) -> None:
        if state.get(node) == 2:
            return
        if state.get(node) == 1:
            raise ProgramError(f"{name}: recursive rule calls through {node!r}")
        state[node] = 1
        for nxt in graph.get(node, ()):
            visit(nxt)
        state[node] = 2

    for node in graph:
        visit(node)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message + (f" (at {tok.text!r})" if tok.text else " (at end)"),
                         tok.line, tok.column)

    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected identifier")
        if tok.text in KEYWORDS:
            self.fail(f"keyword {tok.text!r} cannot be used as a name")
        return self.next().text

    # -- program ----------------------------------------------------------

    def program(self) -> MachineProgram:
        self.expect("machine")
        prog = MachineProgram(name=self.ident())
        shared: Set[str] = set()
        monitored: Set[str] = set()
        output: Set[str] = set()
        saw_rule = False
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text in ("shared", "monitored", "output"):
                self.next()
                target = {"shared": shared, "monitored": monitored,
                          "output": output}[tok.text]
                target |= self._name_list(prog)
            elif tok.text == "init":
                self.next()
                prog.inits.append(self._init())
            elif tok.text == "terminated":
                self.next()
                self.expect(":")
                prog.terminated = self.formula(frozenset())
            elif tok.text == "rule":
                self.next()
                if self.at(":"):
                    self.next()
                    prog.main_rule = self.rule(frozenset())
                    saw_rule = True
                else:
                    rname = self.ident()
                    self.expect("(")
                    params: List[str] = []
                    if not self.at(")"):
                        params.append(self.ident())
                        while self.at(","):
                            self.next()
                            params.append(self.ident())
                    self.expect(")")
                    self.expect(":")
                    body = self.rule(frozenset(params))
                    if rname in prog.named_rules:
                        self.fail(f"duplicate rule {rname!r}")
                    prog.named_rules[rname] = NamedRule(tuple(params), body)
            else:
                self.fail("expected a program section")
        if not saw_rule:
            raise ParseError("program has no main rule", 1, 1)
        prog.shared = frozenset(shared)
        prog.monitored = frozenset(monitored)
        prog.output = frozenset(output)
        prog.validate()
        return prog

    def _name_list(self, prog: MachineProgram) -> Set[str]:
        names: Set[str] = set()
        while self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
            name = self.ident()
            names.add(name)
            if self.at("/"):
                self.next()
                tok = self.peek()
                if tok.kind != "int":
                    self.fail("expected arity")
                arity = int(self.next().text)
                prior = prog.arities.get(name)
                if prior is not None and prior != arity:
                    self.fail(f"conflicting arity for {name}")
                prog.arities[name] = arity
        if not names:
            self.fail("expected at least one function name")
        return names

    def _init(self) -> Tuple[Location, Value]:
        func = self.ident()
        self.expect("(")
        args: List[Value] = []
        if not self.at(")"):
            args.append(self._value_literal())
            while self.at(","):
                self.next()
                args.append(self._value_literal())
        self.expect(")")
        self.expect(":=")
        val = self._value_literal()
        return Location(func, tuple(args)), val

    def _value_literal(self) -> Value:
        tok = self.peek()
        if tok.kind == "int":
            return int(self.next().text)
        if tok.text == "-" and self.peek(1).kind == "int":
            self.next()
            return -int(self.next().text)
        if tok.text == "true":
            self.next()
            return True
        if tok.text == "false":
            self.next()
            return False
        if tok.text == "undef":
            self.next()
            return UNDEF
        if tok.text == "'":
            self.next()
            return self.ident()
        self.fail("expected a literal value")
        raise AssertionError  # unreachable

    # -- terms ------------------------------------------------------------

    def term(self, bound: FrozenSet[str]) -> Term:
        t = self._term_primary(bound)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._term_primary(bound)
            t = Apply(op, (t, rhs))
        return t

    def _term_primary(self, bound: FrozenSet[str]) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            return Apply(self.next().text)
        if tok.text == "-":
            self.next()
            inner = self.peek()
            if inner.kind == "int":
                return Apply("-" + self.next().text)
            return Apply("-", (Apply("0"), self._term_primary(bound)))
        if tok.text == "(":
            self.next()
            t = self.term(bound)
            self.expect(")")
            return t
        if tok.text == "'":
            self.next()
            sym = self.ident()
            return Apply("'" + sym)
        if tok.text in ("true", "false", "undef"):
            self.next()
            return Apply(tok.text)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            name = self.ident()
            if self.at("("):
                self.next()
                args: List[Term] = []
                if not self.at(")"):
                    args.append(self.term(bound))
                    while self.at(","):
                        self.next()
                        args.append(self.term(bound))
                self.expect(")")
                return Apply(name, tuple(args))
            if name in bound:
                return Var(name)
            return Apply(name)
        self.fail("expected a term")
        raise AssertionError

    # -- formulae ---------------------------------------------------------

    def formula(self, bound: FrozenSet[str]) -> Formula:
        f = self._conj(bound)
        while self.at("or"):
            self.next()
            f = Or(f, self._conj(bound))
        return f

    def _conj(self, bound: FrozenSet[str]) -> Formula:
        f = self._neg(bound)
        while self.at("and"):
            self.next()
            f = And(f, self._neg(bound))
        return f

    def _neg(self, bound: FrozenSet[str]) -> Formula:
        if self.at("not"):
            self.next()
            return Not(self._neg(bound))
        if self.at("forall") or self.at("exists"):
            kw = self.next().text
            var = self.ident()
            self.expect(".")
            body = self.formula(bound | {var})
            return Forall(var, body) if kw == "forall" else Exists(var, body)
        if self.at("true"):
            self.next()
            return Eq(Apply("0"), Apply("0"))
        if self.at("false"):
            self.next()
            return Not(Eq(Apply("0"), Apply("0")))
        if self.at("("):
            # Either a parenthesized formula or a parenthesized term followed
            # by a comparison; try the formula first.
            mark = self.pos
            self.next()
            try:
                f = self.formula(bound)
                self.expect(")")
                return f
            except ParseError:
                self.pos = mark
        return self._comparison(bound)

    def _comparison(self, bound: FrozenSet[str]) -> Formula:
        t = self.term(bound)
        if self.at("="):
            self.next()
            return Eq(t, self.term(bound))
        if self.at("<"):
            self.next()
            return Lt(t, self.term(bound))
        if isinstance(t, Apply) and not is_static(t.func):
            return Atom(t.func, t.args)
        self.fail("expected a comparison or atom")
        raise AssertionError

    # -- rules ------------------------------------------------------------

    def rule(self, bound: FrozenSet[str]) -> Rule:
        tok = self.peek()
        if tok.text == "skip":
            self.next()
            return Skip()
        if tok.text == "if":
            self.next()
            guard = self.formula(bound)
            self.expect("then")
            then = self.rule(bound)
            orelse: Rule = Skip()
            if self.at("else"):
                self.next()
                orelse = self.rule(bound)
            return If(guard, then, orelse)
        if tok.text == "let":
            self.next()
            var = self.ident()
            self.expect("=")
            bind = self.term(bound)
            self.expect("in")
            return Let(var, bind, self.rule(bound | {var}))
        if tok.text in ("forall", "choose"):
            self.next()
            var = self.ident()
            self.expect("with")
            guard = self.formula(bound | {var})
            self.expect("do")
            body = self.rule(bound | {var})
            if tok.text == "forall":
                return ForallDo(var, guard, body)
            return ChooseDo(var, guard, body)
        if tok.text in ("par", "seq"):
            self.next()
            self.expect("{")
            items = [self.rule(bound)]
            while self.at(";"):
                self.next()
                items.append(self.rule(bound))
            self.expect("}")
            ctor = Par if tok.text == "par" else Seq
            out = items[-1]
            for item in reversed(items[:-1]):
                out = ctor(item, out)  # type: ignore[arg-type]
            return out
        if tok.text == "call":
            self.next()
            name = self.ident()
            self.expect("(")
            args: List[Term] = []
            if not self.at(")"):
                args.append(self.term(bound))
                while self.at(","):
                    self.next()
                    args.append(self.term(bound))
            self.expect(")")
            return Call(name, tuple(args))
        lhs = self.term(bound)
        if not isinstance(lhs, Apply) or is_static(lhs.func):
            self.fail("assignment target must be a function application")
        self.expect(":=")
        return Assign(lhs, self.term(bound))  # type: ignore[arg-type]


def parse_program(text: str) -> MachineProgram:
    """Parse one machine program from DSL text."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Printing


def print_value(v: Value) -> str:
    if v is UNDEF:
        return "undef"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return str(v)
    return "'" + v


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t.func in ("+", "-") and len(t.args) == 2:
        return f"({print_term(t.args[0])} {t.func} {print_term(t.args[1])})"
    if is_static(t.func):
        if t.func.startswith("'"):
            return t.func
        return t.func
    return f"{t.func}({', '.join(print_term(a) for a in t.args)})"


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(print_term(a) for a in f.args)})"
    if isinstance(f, Not):
        return f"not ({print_formula(f.sub)})"
    if isinstance(f, And):
        return f"({print_formula(f.left)}) and ({print_formula(f.right)})"
    if isinstance(f, Or):
        return f"({print_formula(f.left)}) or ({print_formula(f.right)})"
    if isinstance(f, Eq):
        return f"{print_term(f.left)} = {print_term(f.right)}"
    if isinstance(f, Lt):
        return f"{print_term(f.left)} < {print_term(f.right)}"
    if isinstance(f, Forall):
        return f"forall {f.var} . ({print_formula(f.body)})"
    if isinstance(f, Exists):
        return f"exists {f.var} . ({print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


def print_rule(r: Rule) -> str:
    if isinstance(r, Skip):
        return "skip"
    if isinstance(r, Assign):
        return f"{print_term(r.lhs)} := {print_term(r.rhs)}"
    if isinstance(r, If):
        return (f"if {print_formula(r.guard)} then {print_rule(r.then)}"
                f" else {print_rule(r.orelse)}")
    if isinstance(r, Let):
        return f"let {r.var} = {print_term(r.bind)} in {print_rule(r.body)}"
    if isinstance(r, ForallDo):
        return f"forall {r.var} with {print_formula(r.guard)} do {print_rule(r.body)}"
    if isinstance(r, ChooseDo):
        return f"choose {r.var} with {print_formula(r.guard)} do {print_rule(r.body)}"
    if isinstance(r, Par):
        items = _spine(r, Par)
        return "par { " + " ; ".join(print_rule(i) for i in items) + " }"
    if isinstance(r, Seq):
        items = _spine(r, Seq)
        return "seq { " + " ; ".join(print_rule(i) for i in items) + " }"
    if isinstance(r, Call):
        return f"call {r.rule}({', '.join(print_term(a) for a in r.args)})"
    raise TypeError(f"not a rule: {r!r}")


def _spine(r: Rule, ctor) -> List[Rule]:
    """Flatten the right-leaning spine of a binary combinator."""
    items: List[Rule] = []
    while isinstance(r, ctor):
        items.append(r.left if ctor is Par else r.first)
        r = r.right if ctor is Par else r.second
    items.append(r)
    return items


def print_program(prog: MachineProgram) -> str:
    lines = [f"machine {prog.name}"]
    for label, names in (("shared", prog.shared), ("monitored", prog.monitored),
                         ("output", prog.output)):
        if names:
            rendered = []
            for n in sorted(names):
                if n in prog.arities:
                    rendered.append(f"{n}/{prog.arities[n]}")
                else:
                    rendered.append(n)
            lines.append(f"{label} {' '.join(rendered)}")
    for loc, val in prog.inits:
        args = ", ".join(print_value(a) for a in loc.args)
        lines.append(f"init {loc.func}({args}) := {print_value(val)}")
    lines.append(f"terminated: {print_formula(prog.terminated)}")
    for rname in sorted(prog.named_rules):
        named = prog.named_rules[rname]
        lines.append(f"rule {rname}({', '.join(named.params)}): {print_rule(named.body)}")
    lines.append(f"rule: {print_rule(prog.main_rule)}")
    return "\n".join(lines) + "\n"
