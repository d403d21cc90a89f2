import pytest

from taserial.asm import (
    And,
    Apply,
    Assign,
    Atom,
    ChooseDo,
    Eq,
    Exists,
    FALSE,
    If,
    Location,
    Lt,
    Not,
    Or,
    Par,
    Skip,
    TRUE,
    UNDEF,
    Var,
    assign_choice_ids,
)
from taserial.dsl import (
    ParseError,
    ProgramError,
    parse_program,
    print_program,
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


def test_arity_annotations_survive_round_trip():
    text = "machine a shared arr/1 grid/2 rule: arr(0) := 1"
    prog = parse_program(text)
    assert prog.arities == {"arr": 1, "grid": 2}
    assert parse_program(print_program(prog)).arities == prog.arities


# -- error contract ------------------------------------------------------------

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


def test_true_and_false_may_start_a_comparison():
    assert _terminated("true = x()") == Eq(Apply("true"), X)
    assert _terminated("(false) < x()") == Lt(Apply("false"), X)


def test_error_inside_parenthesised_formula_points_at_it():
    with pytest.raises(ParseError) as e:
        _terminated("(x() = 1")
    assert (str(e.value), e.value.line, e.value.column) == (
        "1:32: expected ')' (at 'rule')", 1, 32)
