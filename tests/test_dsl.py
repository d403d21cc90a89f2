import gc
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import parser_reference
import printer_reference
import pytest

from taserial.asm import (
    And,
    Apply,
    Assign,
    Atom,
    Call,
    ChooseDo,
    Eq,
    Exists,
    FALSE,
    Forall,
    ForallDo,
    If,
    Let,
    Location,
    Lt,
    NamedRule,
    Not,
    Or,
    Par,
    Seq,
    Skip,
    TRUE,
    UNDEF,
    Var,
    assign_choice_ids,
)
from taserial.dsl import (
    KEYWORDS,
    MachineProgram,
    ParseError,
    ProgramError,
    parse_program,
    print_formula,
    print_program,
    print_rule,
    print_value,
)
from taserial.fuzz import FuzzParams, random_config

COUNTER_TEXT = """\
machine counter
shared total
init total() := 0
init steps() := 0
terminated: steps() = 3
rule:
  par { steps() := steps() + 1 ; total() := total() + 1 }
"""


def test_minimal_program():
    prog = parse_program("machine a terminated: true rule: skip")
    assert prog.name == "a"
    assert prog.main_rule == Skip()
    assert prog.terminated == Eq(Apply("0"), Apply("0"))


def test_counter_program_golden():
    prog = parse_program(COUNTER_TEXT)
    assert prog.shared == frozenset({"total"})
    assert prog.classify("steps") == "controlled"
    assert (Location("total", ()), 0) in prog.inits
    assert isinstance(prog.main_rule, Par)
    left = prog.main_rule.items[0]
    assert isinstance(left, Assign) and left.lhs == Apply("steps")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_program("machine a rule: if then skip")
    assert e.value.line == 1


def test_keyword_cannot_name_function():
    with pytest.raises(ParseError):
        parse_program("machine a shared if rule: skip")


def test_overlapping_classes_rejected():
    with pytest.raises(ProgramError):
        parse_program("machine a shared x monitored x rule: skip")


def test_undeclared_rule_call_rejected():
    with pytest.raises(ProgramError):
        parse_program("machine a rule: call missing()")
    with pytest.raises(ProgramError):
        parse_program("machine a rule tick(): skip "
                      "rule: seq { call tick() ; skip ; call missing() }")


# Recorded from the recursive-descent parser (tests/parser_reference.py),
# which found the calls by walking the rules.
@pytest.mark.parametrize("text,message", [
    ("machine a rule: call missing()",
     "a: call to undeclared rule 'missing'"),
    ("machine a rule f(x): skip rule: call f()",
     "a: wrong arity in call to 'f'"),
    ("machine a rule f(): call g(1) rule g(): skip rule: call f()",
     "a: wrong arity in call to 'g'"),
    ("machine a rule: call f() rule f(): call g()",
     "a: call to undeclared rule 'g'"),
    ("machine a rule loop(): call loop() rule: call loop()",
     "a: recursive rule calls through 'loop'"),
    ("machine a shared x output x monitored x rule: skip",
     "a: ['x'] declared both shared and monitored"),
])
def test_program_error_message(text, message):
    with pytest.raises(ProgramError) as e:
        parse_program(text)
    assert str(e.value) == message


def test_calls_of_a_replaced_main_rule_are_not_checked():
    assert parse_program("machine a rule: call missing() rule: skip"
                         ).main_rule == Skip()


def test_block_of_5000_calls_passes_validation():
    calls = " ; ".join(["call tick()"] * 5000)
    prog = parse_program(f"machine a rule tick(): skip rule: par {{ {calls} }}")
    assert len(prog.main_rule.items) == 5000


def test_recursive_rule_rejected():
    text = ("machine a "
            "rule loop(): call loop() "
            "rule: call loop()")
    with pytest.raises(ProgramError):
        parse_program(text)


def test_recursion_is_reported_at_the_same_rule_under_every_hash_seed():
    # a calls b, then c; b calls a and c calls itself.  The search follows
    # calls in text order, so it closes the cycle through a first.
    text = ("machine m rule a(): par { call b() ; call c() } "
            "rule b(): call a() rule c(): call c() rule: call a()")
    script = ("import sys\nfrom taserial.dsl import ProgramError, parse_program\n"
              "try:\n    parse_program(sys.argv[1])\n"
              "except ProgramError as e:\n    print(e)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in "0123":
        out = subprocess.run([sys.executable, "-c", script, text],
                             env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout == "m: recursive rule calls through 'a'\n"


def test_named_rule_call_round_trip():
    text = ("machine a shared x "
            "init x() := 1 "
            "rule bump(n): x() := x() + n "
            "rule: call bump(2)")
    prog = parse_program(text)
    assert prog.named_rules["bump"].params == ("n",)
    again = parse_program(print_program(prog))
    assert again.named_rules == prog.named_rules
    assert again.main_rule == prog.main_rule


def test_literals_and_symbols():
    text = ("machine a "
            "init mode() := 'idle "
            "init flag() := false "
            "init gap() := undef "
            "rule: if mode() = 'idle then flag() := true else skip")
    prog = parse_program(text)
    inits = dict(prog.inits)
    assert inits[Location("mode", ())] == "idle"
    assert inits[Location("flag", ())] is FALSE
    assert inits[Location("gap", ())] is UNDEF
    assert parse_program(print_program(prog)).main_rule == prog.main_rule
    assert [print_value(v) for v in (TRUE, FALSE, UNDEF, 1, "red")] == [
        "true", "false", "undef", "1", "'red"]
    with pytest.raises(TypeError):
        print_value(True)


def test_choose_and_quantifiers_round_trip():
    text = ("machine a shared pool "
            "rule: choose k with k < 3 do pool() := k")
    prog = parse_program(text)
    rule = prog.main_rule
    assert isinstance(rule, ChooseDo)
    again = parse_program(print_program(prog))
    # node ids are assigned later; compare modulo the id field
    assert print_program(again) == print_program(prog)


FUZZ12 = FuzzParams(n_machines=12, n_shared=16, max_steps_per_machine=8,
                    domain_size=8)
FUZZ24 = FuzzParams(n_machines=24, n_shared=24, domain_size=16)
GENERATED = [(range(40), FuzzParams()), (range(4), FUZZ12), (range(2), FUZZ24)]


def _generated_programs():
    for seeds, params in GENERATED:
        for seed in seeds:
            yield from random_config(seed, params).machines


def test_round_trip_on_generated_programs():
    for prog in _generated_programs():
        text = print_program(prog)
        again = parse_program(text)
        assert print_program(again) == text
        assert again.shared == prog.shared
        assert again.inits == prog.inits


def test_parsing_leaves_nothing_for_the_collector():
    # A self-calling closure, or a cycle through a program, would leave the
    # parse's objects for the collector, whose pauses then land elsewhere.
    texts = [print_program(prog) for prog in _generated_programs()]
    texts.append("machine a shared x init x() := 1 "
                 "rule bump(n): x() := x() + n "
                 "rule twice(n): seq { call bump(n) ; call bump(n) } "
                 "rule: choose k with k < 3 do call twice(k)")
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text in texts:
            parse_program(text)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _renumbered(prog):
    """The program with its choose ids numbered from 0, as a lone config
    would number them."""
    assign_choice_ids([prog.main_rule] + [n.body for _, n in
                                          sorted(prog.named_rules.items())])
    return prog


def test_parse_of_print_equals_program_on_generated_programs():
    count = 0
    for prog in _generated_programs():
        again = parse_program(print_program(prog))
        assert _renumbered(again) == _renumbered(prog)
        count += 1
    assert count == 40 * 3 + 4 * 12 + 2 * 24


# -- differential: the parser against the recursive-descent reference ---------

_LEXEME = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|:=|\S")


def _mutants(texts, count, seed=0):
    """`count` token-level edits of the texts, drawn with a fixed seed: a
    bad character, a comment, a token dropped, doubled, swapped with the
    next, replaced or cut off with what follows, or an unbalanced
    parenthesis."""
    rng = random.Random(seed)
    vocabulary = sorted({m.group() for t in texts for m in _LEXEME.finditer(t)}
                        | KEYWORDS)
    for n in range(count):
        text = texts[n % len(texts)]
        spans = [m.span() for m in _LEXEME.finditer(text)]
        k = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[k], spans[k + 1]
        edit = n % 9
        if edit == 0:
            insert = rng.choice(["@", "$", "\u00e9", "[", "\u00a0", "\u0663"])
            yield text[:a] + insert + text[a:]
        elif edit == 1:
            yield text[:a] + "# note ( @\n" + text[a:]
        elif edit == 2:
            yield text[:a] + text[b:]
        elif edit == 3:
            yield text[:b] + " " + text[a:b] + text[b:]
        elif edit == 4:
            yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        elif edit == 5:
            yield text[:a] + rng.choice(vocabulary) + text[b:]
        elif edit == 6:
            yield text[:rng.choice([a, b])]
        else:
            yield text[:a] + ("(" if edit == 7 else ")") + " " + text[a:]


def _outcome(parse, text):
    try:
        prog = parse(text)
    except (ParseError, ProgramError) as e:
        return type(e), str(e), getattr(e, "line", 0), getattr(e, "column", 0)
    return prog, repr(prog)


def test_parser_agrees_with_reference_on_generated_and_mutated_programs():
    texts = [print_program(prog) for prog in _generated_programs()]
    failed = 0
    for text in texts + list(_mutants(texts, 2000)):
        outcome = _outcome(parse_program, text)
        assert outcome == _outcome(parser_reference.parse_program, text), text
        failed += len(outcome) == 4
    # Most edits break the text, some keep it a program.
    assert 1000 < failed < 2000


def test_arity_annotations_survive_round_trip():
    text = "machine a shared arr/1 grid/2 rule: arr(0) := 1"
    prog = parse_program(text)
    assert prog.arities == {"arr": 1, "grid": 2}
    assert parse_program(print_program(prog)).arities == prog.arities


# -- error contract ------------------------------------------------------------

LONG = "9" * 5000  # past the interpreter's int-string conversion limit

# Message, line and column of ParseError on bad inputs, recorded from the
# parser before its token layer was rewritten.
BAD_INPUTS = [
    ('',
     "1:1: expected 'machine' (at end)", 1, 1),
    ('machine a rule: if then skip',
     "1:20: expected a term (at 'then')", 1, 20),
    ('machine a # note: $ is fine in a comment\nrule: x() := 1 @',
     "2:16: unexpected character '@'", 2, 16),
    ('machine a\nshared x\ninit x() := y\nrule: skip',
     "3:13: expected a literal value (at 'y')", 3, 13),
    ('machine a rule: par { skip ;',
     '1:29: expected a term (at end)', 1, 29),
    ('machine a rule: let in = 1 in skip',
     "1:21: keyword 'in' cannot be used as a name (at 'in')", 1, 21),
    ('machine a shared if rule: skip',
     "1:18: expected at least one function name (at 'if')", 1, 18),
    ('machine a shared arr/x rule: skip',
     "1:22: expected arity (at 'x')", 1, 22),
    ('machine a shared arr/1 arr/2 rule: skip',
     "1:30: conflicting arity for arr (at 'rule')", 1, 30),
    ('machine a shared x',
     '1:1: program has no main rule', 1, 1),
    ('machine a terminated: 1 rule: skip',
     "1:25: expected a comparison or atom (at 'rule')", 1, 25),
    ('machine a rule: 1 := 2',
     "1:19: assignment target must be a function application (at ':=')", 1, 19),
    ('machine a rule r(): skip rule r(): skip rule: skip',
     "1:41: duplicate rule 'r' (at 'rule')", 1, 41),
    ('machine a\n\trule:\tx() := ;',
     "2:15: expected a term (at ';')", 2, 15),
    ('machine 1',
     "1:9: expected identifier (at '1')", 1, 9),
    ('machine a rule: if x() = 1 skip',
     "1:28: expected 'then' (at 'skip')", 1, 28),
    ('machine a rule: if (1) then skip',
     "1:24: expected a comparison or atom (at 'then')", 1, 24),
    ('machine a\n# c\n  shared x/ 1 y/-1\nrule: skip',
     "3:17: expected arity (at '-')", 3, 17),
    ('machine a rule: x() := \u00e9',
     "1:24: unexpected character '\u00e9'", 1, 24),
    ("machine a init x() := 'if rule: skip",
     "1:24: keyword 'if' cannot be used as a name (at 'if')", 1, 24),
    ('machine a rule: x() := (1 + 2',
     "1:30: expected ')' (at end)", 1, 30),
    ('machine a terminated: not rule: skip',
     "1:27: expected a term (at 'rule')", 1, 27),
    ('machine a terminated: forall v x() = v rule: skip',
     "1:32: expected '.' (at 'x')", 1, 32),
    ('machine a rule: choose v with v < 2 skip',
     "1:37: expected 'do' (at 'skip')", 1, 37),
    # Recorded from the recursive-descent parser (tests/parser_reference.py).
    ('machine a x',
     "1:11: expected a program section (at 'x')", 1, 11),
    ('machine a terminated: x() < y() < z() rule: skip',
     "1:33: expected a program section (at '<')", 1, 33),
    ('machine',
     '1:8: expected identifier (at end)', 1, 8),
    ('machine a terminated x() = 1 rule: skip',
     "1:22: expected ':' (at 'x')", 1, 22),
    ('machine a rule r: skip',
     "1:17: expected '(' (at ':')", 1, 17),
    ('machine a rule r() skip rule: skip',
     "1:20: expected ':' (at 'skip')", 1, 20),
    ('machine a init x() = 1 rule: skip',
     "1:20: expected ':=' (at '=')", 1, 20),
    ('machine a init x := 1 rule: skip',
     "1:18: expected '(' (at ':=')", 1, 18),
    ('machine a init x(1 2) := 1 rule: skip',
     "1:20: expected ')' (at '2')", 1, 20),
    ("machine a init x() := '1 rule: skip",
     "1:24: expected identifier (at '1')", 1, 24),
    ('machine a init x() := -y rule: skip',
     "1:23: expected a literal value (at '-')", 1, 23),
    ('machine a rule: x() = 1',
     "1:21: expected ':=' (at '=')", 1, 21),
    ("machine a rule: x() := '1",
     "1:25: expected identifier (at '1')", 1, 25),
    ('machine a rule: x() := ()',
     "1:25: expected a term (at ')')", 1, 25),
    ('machine a rule: x() := - rule',
     "1:26: expected a term (at 'rule')", 1, 26),
    ('machine a rule: par skip }',
     "1:21: expected '{' (at 'skip')", 1, 21),
    ('machine a rule: par { skip skip }',
     "1:28: expected '}' (at 'skip')", 1, 28),
    ('machine a rule: seq { skip ; skip',
     "1:34: expected '}' (at end)", 1, 34),
    ('machine a rule: let v := 1 in skip',
     "1:23: expected '=' (at ':=')", 1, 23),
    ('machine a rule: let v = 1 skip',
     "1:27: expected 'in' (at 'skip')", 1, 27),
    ('machine a rule: forall v do skip',
     "1:26: expected 'with' (at 'do')", 1, 26),
    ('machine a rule: call f',
     "1:23: expected '(' (at end)", 1, 23),
    ('machine a rule: call f(1 2)',
     "1:26: expected ')' (at '2')", 1, 26),
    ('machine a rule: call 1()',
     "1:22: expected identifier (at '1')", 1, 22),
    ('machine a rule: x(1 2) := 1',
     "1:21: expected ')' (at '2')", 1, 21),
    ('machine a rule: let v = 1 in v := 2',
     "1:32: assignment target must be a function application (at ':=')",
     1, 32),
    ('machine a terminated: undef rule: skip',
     "1:29: expected a comparison or atom (at 'rule')", 1, 29),
    ('machine a terminated: (1 and x()) rule: skip',
     "1:26: expected a comparison or atom (at 'and')", 1, 26),
    ('machine a terminated: (x() + 1 rule: skip',
     "1:32: expected ')' (at 'rule')", 1, 32),
    ('machine a rule: if (x() then skip',
     "1:25: expected ')' (at 'then')", 1, 25),
    ('machine a terminated: exists 1 . x() rule: skip',
     "1:30: expected identifier (at '1')", 1, 30),
    ('machine a terminated: not not rule: skip',
     "1:31: expected a term (at 'rule')", 1, 31),
    # Past the interpreter's int-string conversion limit, at each place a
    # literal is read.
    pytest.param(f'machine a rule: x() := {LONG}',
                 '1:24: integer literal of 5000 digits is too long', 1, 24,
                 id="long-literal-in-term"),
    pytest.param(f'machine a rule: x() := -{LONG}',
                 '1:25: integer literal of 5000 digits is too long', 1, 25,
                 id="long-negative-literal-in-term"),
    pytest.param(f'machine a init x() := -{LONG} rule: skip',
                 '1:24: integer literal of 5000 digits is too long', 1, 24,
                 id="long-literal-in-init"),
    pytest.param(f'machine a shared x/{LONG} rule: skip',
                 '1:20: integer literal of 5000 digits is too long', 1, 20,
                 id="long-arity"),
    # A built-in name never reaches MachineProgram.validate: the parser
    # rejects it where a declared or initialized name is read.
    ('machine a shared true rule: skip',
     "1:18: expected at least one function name (at 'true')", 1, 18),
    ('machine a shared 3 rule: skip',
     "1:18: expected at least one function name (at '3')", 1, 18),
    ('machine a init undef() := 0 rule: skip',
     "1:16: keyword 'undef' cannot be used as a name (at 'undef')", 1, 16),
    ("machine a init 'a() := 0 rule: skip",
     '1:16: expected identifier (at "\'")', 1, 16),
]


@pytest.mark.parametrize("text,message,line,column", BAD_INPUTS)
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert (str(e.value), e.value.line, e.value.column) == (message, line, column)


# -- parentheses in formula position ------------------------------------------

X, Y, ONE, TWO = Apply("x"), Apply("y"), Apply("1"), Apply("2")
ALWAYS = Eq(Apply("0"), Apply("0"))


def _terminated(formula):
    return parse_program(f"machine a terminated: {formula} rule: skip").terminated


def _main(rule):
    return parse_program(f"machine a rule: {rule}").main_rule


# A parenthesised application that `=`, `<`, `+` or `-` follows is a term,
# not an atom.
@pytest.mark.parametrize("parse,text,expected", [
    (_terminated, "(x()) = 1", Eq(X, ONE)),
    (_terminated, "(x()) < 1", Lt(X, ONE)),
    (_main, "if (x()) = 1 then skip", If(Eq(X, ONE), Skip(), Skip())),
    (_main, "if (g(1)) + 1 = 2 then skip",
     If(Eq(Apply("+", (Apply("g", (ONE,)), ONE)), TWO), Skip(), Skip())),
], ids=["eq", "lt", "if-eq", "if-sum"])
def test_parenthesised_term_starts_a_comparison(parse, text, expected):
    assert parse(text) == expected


# Trees recorded from the parser that backtracked on `(`.
@pytest.mark.parametrize("text,expected", [
    ("((1)) = x()", Eq(ONE, X)),
    ("(x() + 1) = 2", Eq(Apply("+", (X, ONE)), TWO)),
    ("((x()) + 1) = 2", Eq(Apply("+", (X, ONE)), TWO)),
    ("(x() = 1) and y()", And(Eq(X, ONE), Atom("y"))),
    ("not (x())", Not(Atom("x"))),
    ("(true)", ALWAYS),
    ("(false) or (x())", Or(Not(ALWAYS), Atom("x"))),
    ("exists v . (v) = 1", Exists("v", Eq(Var("v"), ONE))),
    ("(-(x())) < 1", Lt(Apply("-", (Apply("0"), X)), ONE)),
    ("((x() = 1) or (y() < 2))", Or(Eq(X, ONE), Lt(Y, TWO))),
    ("(x() and y())", And(Atom("x"), Atom("y"))),
    ("(x() or y() = 1)", Or(Atom("x"), Eq(Y, ONE))),
    ("((x()) and (1 < y()))", And(Atom("x"), Lt(ONE, Y))),
])
def test_parenthesised_formulas_keep_their_trees(text, expected):
    assert _terminated(text) == expected


# Precedence and associativity, as README's "Program language" states them.
@pytest.mark.parametrize("text,expected", [
    ("x() - 1 - 2 = 0", Eq(Apply("-", (Apply("-", (X, ONE)), TWO)), Apply("0"))),
    ("x() < 1 + 2", Lt(X, Apply("+", (ONE, TWO)))),
    ("- x() + 1 = 2", Eq(Apply("+", (Apply("-", (Apply("0"), X)), ONE)), TWO)),
    ("x() or y() and 1 < 2", Or(Atom("x"), And(Atom("y"), Lt(ONE, TWO)))),
    ("x() and y() or x()", Or(And(Atom("x"), Atom("y")), Atom("x"))),
    ("x() or y() or x()", Or(Or(Atom("x"), Atom("y")), Atom("x"))),
    ("x() and y() and x()", And(And(Atom("x"), Atom("y")), Atom("x"))),
    ("not x() = 1 and y()", And(Not(Eq(X, ONE)), Atom("y"))),
    ("not not x() or y()", Or(Not(Not(Atom("x"))), Atom("y"))),
    ("exists v . v = 1 or x()", Exists("v", Or(Eq(Var("v"), ONE), Atom("x")))),
])
def test_precedence_and_associativity(text, expected):
    assert _terminated(text) == expected


def test_true_and_false_may_start_a_comparison():
    assert _terminated("true = x()") == Eq(Apply("true"), X)
    assert _terminated("(false) < x()") == Lt(Apply("false"), X)


def test_error_inside_parenthesised_formula_points_at_it():
    with pytest.raises(ParseError) as e:
        _terminated("(x() = 1")
    assert (str(e.value), e.value.line, e.value.column) == (
        "1:32: expected ')' (at 'rule')", 1, 32)


# -- differential: the printer against the isinstance-dispatched reference ----

EVERY_NODE_TEXT = """\
machine every
shared total arr/1 pool
monitored sensor/1 mode
output out/2
init total() := -3
init arr(2) := 'red
init mode() := undef
init pool() := true
init flag() := false
terminated: (not (total() = 1) and exists v . v < 2)
  or forall w . arr(w) = 'red or flag()
rule bump(n, m): total() := total() + n - m
rule twice(n): seq { call bump(n, -2) ; call bump(n, 'q) }
rule: seq { call twice(sensor(1)) ;
  par { let k = arr(0) in out(k, 'blue) := k ;
        forall j with j < 2 do arr(j) := false ;
        choose c with mode() = undef and pool() do skip } ;
  if flag() then skip else total() := 0 - - 1 }
"""

_X, _V = Apply("x"), Var("v")
# Shapes the parser never makes: static functions applied to arguments
# other than two, symbols and literals with arguments, empty blocks and
# argument-free calls and atoms.
PYTHON_BUILT = MachineProgram(
    "built", shared=frozenset({"f", "g"}), output=frozenset({"o"}),
    arities={"f": 3, "o": 0, "unused": 2},
    inits=[(Location("f", (1, "s", TRUE)), -5),
           (Location("g", (FALSE, UNDEF)), "t")],
    terminated=Not(Not(Or(Atom("p", (_V, Apply("1"))),
                          Forall("u", Exists("w", Atom("q")))))),
    main_rule=Seq((
        Assign(Apply("f", (_X, _V, Apply("'s"))),
               Apply("+", (Apply("-", (_X, _V, _X)),))),
        Assign(Apply("g"), Apply("+", (_X,))),
        Assign(Apply("g"), Apply("3", (_X, _V))),
        Assign(Apply("g"), Apply("'s", (_X,))),
        Assign(Apply("g"), Apply("true", (_X,))),
        Assign(Apply("g"), Apply("-", ())),
        Par(()), Seq(()), Call("r"),
        ForallDo("u", Atom("x"), ChooseDo("w", Eq(_V, _X), Call("r"))),
        Let("z", Apply("+", (_X, Apply("-", (_V, Apply("2"))))), Skip()))),
    named_rules={"r": NamedRule((), Par((Skip(),))),
                 "s": NamedRule(("a", "b", "c"), Seq((Skip(),)))})


def test_printer_agrees_with_reference():
    programs = list(_generated_programs())
    programs += [parse_program(EVERY_NODE_TEXT), PYTHON_BUILT]
    for prog in programs:
        assert print_program(prog) == printer_reference.print_program(prog)
    # Every node kind is there to be printed.
    every = print_program(programs[-2])
    for text in ("not (", ") and (", ") or (", "forall w . (", "exists v . (",
                 "call twice(sensor(1))", "rule bump(n, m): ", "let k = ",
                 "forall j with ", "choose c with ", "seq { ", "par { ",
                 "skip", ":= 'red", ":= undef", ":= true", ":= false",
                 ":= -3", "bump(n, -2)", "monitored mode sensor/1",
                 "output out/2", "(0 - -1)"):
        assert text in every
    built = print_program(PYTHON_BUILT)
    assert built.count("\n") == 9
    for part in (":= +", ":= 3", ":= 's", "par {  }", "seq {  }",
                 "call r()", "p(v, 1)", "rule s(a, b, c): seq { skip }",
                 "init f(1, 's, true) := -5", "output o/0"):
        assert part in built


@pytest.mark.parametrize("printer,node", [
    (print_formula, Skip()), (print_formula, _X), (print_rule, Atom("x")),
    (print_rule, _X), (print_formula, None), (print_rule, None)])
def test_printer_rejects_what_is_not_a_node_as_the_reference_does(printer,
                                                                   node):
    reference = getattr(printer_reference, printer.__name__)
    with pytest.raises(TypeError) as ours:
        printer(node)
    with pytest.raises(TypeError) as theirs:
        reference(node)
    assert str(ours.value) == str(theirs.value)
