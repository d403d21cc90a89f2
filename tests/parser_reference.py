"""The recursive-descent parser that `dsl.parse_program` replaced, the
reference for it.

It parses each precedence level of a formula in its own method, reads
every token through a helper and finds the call graph by walking the rules;
the tests require both parsers to give equal programs, or the same
ParseError or ProgramError, for every text.  Where calls close more than
one cycle, the rule that its recursion error names depends on the order
of a set here, so on the hash seed.
"""
import re
from typing import Dict, FrozenSet, List, NoReturn, Optional, Set, Tuple, Union

from taserial.asm import (
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
    Value,
    Var,
    is_static,
    static_apply,
)
from taserial.dsl import KEYWORDS, MachineProgram, ParseError, ProgramError

# Whitespace matches no alternative, so findall steps over it; a comment
# matches with both groups empty; a lexeme fills the first group and any
# other character the second.
_TOKEN_RE = re.compile(
    r"#[^\n]*"
    r"|(\d+|[A-Za-z_][A-Za-z0-9_]*|:=|[(){};,:./=<+\-'])"
    r"|(\S)"
)


def _tokenize(text: str) -> List[str]:
    """The lexemes of `text` followed by a "" sentinel for its end; a
    character that starts no lexeme raises ParseError.

    A lexeme's kind is its first character: a digit starts an integer, a
    letter or `_` an identifier (`str.isidentifier`), anything else is an
    operator."""
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


def _validate(self: MachineProgram) -> None:
    """The checks of MachineProgram.validate, the call graph found by
    walking the rules."""
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
        elif isinstance(r, (Par, Seq)):
            for item in r.items:
                callees(item, acc)

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
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> str:
        return self.toks[self.pos + ahead]

    def next(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> NoReturn:
        tok = self.toks[self.pos]
        raise ParseError(message + (f" (at {tok!r})" if tok else " (at end)"),
                         *_position(self.text, self._offset(self.pos)))

    def _offset(self, index: int) -> int:
        """Offset in the text of token `index`, found by lexing it again."""
        for m in _TOKEN_RE.finditer(self.text):
            if m.group(1):
                if not index:
                    return m.start()
                index -= 1
        return len(self.text)

    def expect(self, text: str) -> None:
        if self.toks[self.pos] != text:
            self.fail(f"expected {text!r}")
        self.pos += 1

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def ident(self) -> str:
        tok = self.toks[self.pos]
        if not tok.isidentifier():
            self.fail("expected identifier")
        if tok in KEYWORDS:
            self.fail(f"keyword {tok!r} cannot be used as a name")
        self.pos += 1
        return tok

    def _list(self, item, *args) -> list:
        """`( item, ... )`: the items, each parsed by `item(*args)`."""
        self.expect("(")
        items = []
        if not self.at(")"):
            items.append(item(*args))
            while self.at(","):
                self.next()
                items.append(item(*args))
        self.expect(")")
        return items

    # -- program ----------------------------------------------------------

    def program(self) -> MachineProgram:
        self.expect("machine")
        name = self.ident()
        classes: Dict[str, Set[str]] = {"shared": set(), "monitored": set(),
                                        "output": set()}
        arities: Dict[str, int] = {}
        inits: List[Tuple[Location, Value]] = []
        terminated = MachineProgram.terminated
        main_rule = None
        named_rules: Dict[str, NamedRule] = {}
        while self.peek():
            tok = self.peek()
            if tok in classes:
                self.next()
                classes[tok] |= self._name_list(arities)
            elif tok == "init":
                self.next()
                inits.append(self._init())
            elif tok == "terminated":
                self.next()
                self.expect(":")
                terminated = self.formula(frozenset())
            elif tok == "rule":
                self.next()
                if self.at(":"):
                    self.next()
                    main_rule = self.rule(frozenset())
                else:
                    rname = self.ident()
                    params = self._list(self.ident)
                    self.expect(":")
                    body = self.rule(frozenset(params))
                    if rname in named_rules:
                        self.fail(f"duplicate rule {rname!r}")
                    named_rules[rname] = NamedRule(tuple(params), body)
            else:
                self.fail("expected a program section")
        if main_rule is None:
            raise ParseError("program has no main rule", 1, 1)
        prog = MachineProgram(
            name=name, **{k: frozenset(v) for k, v in classes.items()},
            arities=arities, inits=inits, terminated=terminated,
            main_rule=main_rule, named_rules=named_rules)
        _validate(prog)
        return prog

    def _name_list(self, arities: Dict[str, int]) -> Set[str]:
        names: Set[str] = set()
        while self.peek().isidentifier() and self.peek() not in KEYWORDS:
            name = self.ident()
            names.add(name)
            if self.at("/"):
                self.next()
                if not self.peek().isdecimal():
                    self.fail("expected arity")
                arity = int(self._integer())
                prior = arities.get(name)
                if prior is not None and prior != arity:
                    self.fail(f"conflicting arity for {name}")
                arities[name] = arity
        if not names:
            self.fail("expected at least one function name")
        return names

    def _init(self) -> Tuple[Location, Value]:
        func = self.ident()
        args = self._list(self._value_literal)
        self.expect(":=")
        val = self._value_literal()
        return Location(func, tuple(args)), val

    def _integer(self) -> str:
        """The integer literal at the current token, once int() takes it."""
        tok = self.peek()
        try:
            int(tok)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(f"integer literal of {len(tok)} digits is too long",
                             *_position(self.text, self._offset(self.pos))
                             ) from None
        self.pos += 1
        return tok

    def _value_literal(self) -> Value:
        tok = self.peek()
        if tok.isdecimal():
            return int(self._integer())
        if tok == "-" and self.peek(1).isdecimal():
            self.next()
            return -int(self._integer())
        if tok in ("true", "false", "undef"):
            return static_apply(self.next(), ())
        if tok == "'":
            self.next()
            return self.ident()
        self.fail("expected a literal value")

    # -- terms ------------------------------------------------------------

    def term(self, bound: FrozenSet[str], first: Optional[Term] = None) -> Term:
        """Primaries joined by `+`/`-`; `first` is the first one if parsed."""
        t = self._term_primary(bound) if first is None else first
        while self.peek() in ("+", "-"):
            op = self.next()
            t = Apply(op, (t, self._term_primary(bound)))
        return t

    def _term_primary(self, bound: FrozenSet[str]) -> Term:
        tok = self.peek()
        if tok.isdecimal():
            return Apply(self._integer())
        self.pos += 1
        if tok.isidentifier() and tok not in KEYWORDS:
            if self.at("("):
                return Apply(tok, tuple(self._list(self.term, bound)))
            if tok in bound:
                return Var(tok)
            return Apply(tok)
        if tok == "-":
            if self.peek().isdecimal():
                return Apply("-" + self._integer())
            return Apply("-", (Apply("0"), self._term_primary(bound)))
        if tok == "(":
            t = self.term(bound)
            self.expect(")")
            return t
        if tok == "'":
            return Apply("'" + self.ident())
        if tok in ("true", "false", "undef"):
            return Apply(tok)
        self.pos -= 1  # report the token that starts no term
        self.fail("expected a term")

    # -- formulae ---------------------------------------------------------

    def formula(self, bound: FrozenSet[str], first=None) -> Formula:
        """Disjunction of conjunctions; `first` is the first operand if parsed."""
        f = self._conj(bound, first)
        while self.at("or"):
            self.next()
            f = Or(f, self._conj(bound))
        return f

    def _conj(self, bound: FrozenSet[str], first=None) -> Formula:
        f = self._neg(bound) if first is None else first
        while self.at("and"):
            self.next()
            f = And(f, self._neg(bound))
        return f

    def _neg(self, bound: FrozenSet[str]) -> Formula:
        f = self._formula_or_term(bound)
        return self._as_formula(f) if isinstance(f, (Apply, Var)) else f

    def _formula_or_term(self, bound: FrozenSet[str]) -> Union[Formula, Term]:
        """A negation, a quantifier, a comparison or a parenthesised formula;
        or a term that no `=` or `<` follows, left for the caller to read as
        an atom or as the parenthesised start of a comparison."""
        tok = self.peek()
        if tok == "not":
            self.next()
            return Not(self._neg(bound))
        if tok in ("forall", "exists"):
            self.next()
            var = self.ident()
            self.expect(".")
            body = self.formula(bound | {var})
            return Forall(var, body) if tok == "forall" else Exists(var, body)
        if tok == "(":
            self.next()
            inner = self._formula_or_term(bound)
            if isinstance(inner, (Apply, Var)):
                if self.at(")"):
                    # A parenthesised term: the first primary of a term,
                    # which a comparison may follow.
                    self.next()
                    return self._comparison(bound, self.term(bound, inner))
                if self.peek() in ("and", "or"):
                    inner = self._as_formula(inner)
            # Anything else after a bare term fails on the ")" expected here.
            f = self.formula(bound, inner)
            self.expect(")")
            return f
        return self._comparison(bound, self.term(bound))

    def _comparison(self, bound: FrozenSet[str], t: Term) -> Union[Formula, Term]:
        op = self.peek()
        if op == "=" or op == "<":
            self.next()
            return (Eq if op == "=" else Lt)(t, self.term(bound))
        return t

    def _as_formula(self, t: Term) -> Formula:
        """The formula that a term standing alone denotes: `true`, `false`
        or an atom."""
        if isinstance(t, Apply):
            if t.func == "true":
                return Eq(Apply("0"), Apply("0"))
            if t.func == "false":
                return Not(Eq(Apply("0"), Apply("0")))
            if not is_static(t.func):
                return Atom(t.func, t.args)
        self.fail("expected a comparison or atom")

    # -- rules ------------------------------------------------------------

    def rule(self, bound: FrozenSet[str]) -> Rule:
        tok = self.peek()
        if tok == "skip":
            self.next()
            return Skip()
        if tok == "if":
            self.next()
            guard = self.formula(bound)
            self.expect("then")
            then = self.rule(bound)
            orelse: Rule = Skip()
            if self.at("else"):
                self.next()
                orelse = self.rule(bound)
            return If(guard, then, orelse)
        if tok == "let":
            self.next()
            var = self.ident()
            self.expect("=")
            bind = self.term(bound)
            self.expect("in")
            return Let(var, bind, self.rule(bound | {var}))
        if tok in ("forall", "choose"):
            self.next()
            var = self.ident()
            self.expect("with")
            guard = self.formula(bound | {var})
            self.expect("do")
            body = self.rule(bound | {var})
            if tok == "forall":
                return ForallDo(var, guard, body)
            return ChooseDo(var, guard, body)
        if tok in ("par", "seq"):
            self.next()
            self.expect("{")
            items = [self.rule(bound)]
            while self.at(";"):
                self.next()
                items.append(self.rule(bound))
            self.expect("}")
            if len(items) == 1:
                return items[0]
            return (Par if tok == "par" else Seq)(tuple(items))
        if tok == "call":
            self.next()
            name = self.ident()
            return Call(name, tuple(self._list(self.term, bound)))
        lhs = self.term(bound)
        if not isinstance(lhs, Apply) or is_static(lhs.func):
            self.fail("assignment target must be a function application")
        self.expect(":=")
        return Assign(lhs, self.term(bound))  # type: ignore[arg-type]


def parse_program(text: str) -> MachineProgram:
    """Parse one machine program from DSL text."""
    return _Parser(text).program()
