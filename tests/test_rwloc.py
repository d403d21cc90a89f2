import random

import pytest

from taserial.asm import (
    And,
    Apply,
    ArityMismatch,
    Assign,
    Atom,
    Call,
    ChooseDo,
    Eq,
    EvalError,
    Exists,
    Forall,
    ForallDo,
    If,
    Let,
    Location,
    Lt,
    NamedRule,
    Or,
    Par,
    Seq,
    Skip,
    State,
    TRUE,
    TypeMismatch,
    UNDEF,
    UnboundVariable,
    UndefArgument,
    Var,
    InconsistentUpdateSet,
    apply_updates,
    assign_choice_ids,
    consistent,
    update_locations,
    yields,
)
from taserial.dsl import parse_program, print_program
from taserial.checker import check_serializable
from taserial.engine import RunConfig, run, trace_to_lines
from taserial.fuzz import (
    FuzzParams,
    random_body,
    random_config,
    random_machine,
    random_state,
)
from taserial import rwloc
from taserial.rwloc import rw_formula, rw_rule, rw_term
from taserial.seeds import ChoiceResolver, derive_bytes


def loc(f, *args):
    return Location(f, tuple(args))


def res(tag=b"t"):
    return ChoiceResolver(tag)


def test_term_reads_args_and_head():
    s = State({loc("i"): 2, loc("a", 2): 7})
    rw = rw_term(Apply("a", (Apply("i"),)), s, {})
    assert rw.reads == frozenset({loc("i"), loc("a", 2)})
    assert rw.writes == frozenset({loc("a", 2)})


def test_static_terms_have_no_locations():
    rw = rw_term(Apply("+", (Apply("2"), Apply("3"))), State(), {})
    assert rw.reads == frozenset() and rw.writes == frozenset()


def test_formula_reads_but_never_writes():
    s = State({loc("x"): 1, loc("y"): 2})
    rw = rw_formula(Lt(Apply("x"), Apply("y")), s, {})
    assert rw.reads == frozenset({loc("x"), loc("y")})
    assert rw.writes == frozenset()


def test_quantified_formula_reads_whole_domain():
    s = State({loc("f", d): d for d in range(3)}, domain=(0, 1, 2))
    rw = rw_formula(Exists("d", Eq(Apply("f", (Var("d"),)), Apply("0"))), s, {})
    assert rw.reads == frozenset(loc("f", d) for d in range(3))


def test_if_reads_guard_and_taken_branch_only():
    s = State({loc("g"): 1, loc("a"): 5, loc("b"): 6})
    r = If(Eq(Apply("g"), Apply("1")),
           Assign(Apply("x"), Apply("a")),
           Assign(Apply("y"), Apply("b")))
    rw = rw_rule(r, s, {}, res())
    assert rw.reads == frozenset({loc("g"), loc("a"), loc("x")})
    assert rw.writes == frozenset({loc("x")})


def test_assign_read_set_includes_target_location():
    s = State({loc("x"): 0})
    rw = rw_rule(Assign(Apply("x"), Apply("1")), s, {}, res())
    assert loc("x") in rw.reads


def test_seq_analyses_second_rule_in_intermediate_state():
    # first sets i to 1, so the second writes a(1), not a(0)
    s = State({loc("i"): 0})
    r = Seq((Assign(Apply("i"), Apply("1")),
             Assign(Apply("a", (Apply("i"),)), Apply("0"))))
    rw = rw_rule(r, s, {}, res())
    assert loc("a", 1) in rw.writes
    assert loc("a", 0) not in rw.writes


def test_seq_skips_second_rule_when_first_is_inconsistent():
    clash = Par((Assign(Apply("x"), Apply("1")), Assign(Apply("x"), Apply("2"))))
    r = Seq((clash, Assign(Apply("y"), Apply("0"))))
    rw = rw_rule(r, State(), {}, res())
    assert loc("y") not in rw.writes


def test_choose_guard_reads_whole_domain_but_body_only_witness():
    s = State({loc("f", d): d for d in range(4)}, domain=(0, 1, 2, 3))
    r = ChooseDo("d", Lt(Var("d"), Apply("4")),
                 Assign(Apply("out"), Apply("f", (Var("d"),))), node_id=0)
    material = derive_bytes("witness-test")
    rw = rw_rule(r, s, {}, ChoiceResolver(material))
    # guard reads nothing here, body reads exactly one f cell
    body_reads = {l for l in rw.reads if l.func == "f"}
    assert len(body_reads) == 1
    # the same material yields the same witness at execution time
    u = yields(r, s, {}, ChoiceResolver(material))
    (written,) = [v for l, v in u if l.func == "out"]
    (read,) = body_reads
    assert read.args[0] == written


def test_forall_body_analysed_per_instance():
    s = State({}, domain=(0, 1, 2))
    r = ForallDo("d", Lt(Var("d"), Apply("2")),
                 Assign(Apply("a", (Var("d"),)), Var("d")))
    rw = rw_rule(r, s, {}, res())
    assert rw.writes == frozenset({loc("a", 0), loc("a", 1)})


def test_let_and_skip():
    s = State({loc("x"): 3})
    r = Let("v", Apply("x"), Skip())
    rw = rw_rule(r, s, {}, res())
    assert rw.reads == frozenset({loc("x")})
    assert rw.writes == frozenset()


def test_read_log_records_first_seen_value():
    s = State({loc("x"): 3})
    log = {}
    rw_rule(Assign(Apply("y"), Apply("x")), s, {}, res(), read_log=log)
    assert log[loc("x")] == 3
    assert log[loc("y")] is UNDEF  # lhs head counts as a read


def _soundness_case(seed, allow_choose):
    params = FuzzParams()
    shared = ["g0", "g1", "g2"]
    rng = random.Random(seed)
    r = random_body(rng, shared, params, allow_choose=allow_choose)
    assign_choice_ids([r])
    s = random_state(random.Random(seed + 1), shared, params)
    material = derive_bytes("soundness", seed, allow_choose)
    rw = rw_rule(r, s, {}, ChoiceResolver(material))
    reads = set()
    updates = yields(r, s, {}, ChoiceResolver(material),
                     on_read=lambda l, v: reads.add(l))
    assert reads <= set(rw.reads)
    assert update_locations(updates) == rw.writes


def test_soundness_against_instrumented_execution():
    for seed in range(60):
        _soundness_case(seed, False)
        _soundness_case(seed, True)


# -- the compiled analysis against the spec (asm.yields) ------------------------


def _spec_case(rule, state, material, rules=None):
    """Compare one compiled analysis against an instrumented yields run."""
    log = {}
    rw = rw_rule(rule, state, {}, ChoiceResolver(material), rules, read_log=log)
    reads = set()
    updates = yields(rule, state, {}, ChoiceResolver(material), rules,
                     on_read=lambda l, v: reads.add(l))
    assert rw.updates == updates
    assert reads <= set(log)
    assert rw.reads == frozenset(log)
    assert rw.writes == update_locations(rw.updates)


def _call_program(body):
    """A named rule whose parameter is read after the body, so the argument
    term is evaluated in the intermediate state (call by name)."""
    tail = If(Lt(Var("x"), Apply("3")),
              Assign(Apply("out", (Var("x"),)), Var("x")), Skip())
    rules = {"step": NamedRule(("x",), Seq((body, tail)))}
    main = Par((Call("step", (Apply("g0"),)),
                Call("step", (Apply("+", (Apply("g1"), Apply("1"))),))))
    assign_choice_ids([main, rules["step"].body])
    return main, rules


def test_compiled_analysis_matches_spec_on_random_bodies():
    params = FuzzParams()
    shared = ["g0", "g1", "g2"]
    for seed in range(500):
        for allow_choose in (False, True):
            body = random_body(random.Random(seed), shared, params,
                               allow_choose=allow_choose)
            assign_choice_ids([body])
            state = random_state(random.Random(seed + 1), shared, params)
            material = derive_bytes("compiled", seed, allow_choose)
            _spec_case(body, state, material)
            main, rules = _call_program(body)
            _spec_case(main, state, material, rules)


def _raised(fn):
    try:
        fn()
    except Exception as e:  # the class is what is compared
        return type(e)
    return None


ERROR_CASES = [
    (Assign(Apply("x"), Var("nope")), {}, UnboundVariable),
    (Assign(Apply("a", (Apply("missing"),)), Apply("1")), {}, UndefArgument),
    (Assign(Apply("x"), Apply("f", (Apply("undef"),))), {}, UndefArgument),
    (If(Atom("flag"), Skip(), Skip()), {loc("flag"): 3}, TypeMismatch),
    (If(Lt(Apply("b"), Apply("1")), Skip(), Skip()), {loc("b"): TRUE}, TypeMismatch),
    (If(Lt(Apply("true"), Apply("1")), Skip(), Skip()), {}, TypeMismatch),
    (Assign(Apply("x"), Apply("+", (Apply("b"), Apply("1")))), {loc("b"): TRUE},
     TypeMismatch),
    (Assign(Apply("x"), Apply("-", (Apply("true"), Apply("1")))), {}, TypeMismatch),
    (Assign(Apply("x"), Apply("+", (Apply("1"),))), {}, ArityMismatch),
    (Assign(Apply("x"), Apply("5", (Apply("1"),))), {}, ArityMismatch),
    (Assign(Apply("5"), Apply("1")), {}, EvalError),
    (Call("nowhere"), {}, EvalError),
    # and/or and quantifiers whose result the erring part would decide
    (If(Or(Eq(Apply("x"), Apply("1")), Lt(Apply("y"), Apply("1"))), Skip(),
        Skip()), {loc("x"): 0}, TypeMismatch),
    (If(And(Eq(Apply("x"), Apply("0")), Lt(Apply("y"), Apply("1"))), Skip(),
        Skip()), {loc("x"): 0}, TypeMismatch),
    (If(Exists("d", Lt(Apply("g", (Var("d"),)), Apply("1"))), Skip(), Skip()),
     {loc("g", 0): 5}, TypeMismatch),
    (If(Forall("d", Lt(Apply("g", (Var("d"),)), Apply("1"))), Skip(), Skip()),
     {loc("g", 0): 0}, TypeMismatch),
]


@pytest.mark.parametrize("rule,values,expected", ERROR_CASES)
def test_compiled_errors_match_spec(rule, values, expected):
    s = State(values)
    spec = _raised(lambda: yields(rule, s, {}, res()))
    compiled = _raised(lambda: rw_rule(rule, s, {}, res()))
    assert spec is expected
    assert compiled is expected


def _pick(guard):
    return If(guard, Assign(Apply("x"), Apply("1")), Assign(Apply("x"), Apply("2")))


VALUE_CASES = [
    # constants and locations holding bools, symbols and undef
    (_pick(Eq(Apply("b"), Apply("1"))), {loc("b"): TRUE}),
    (_pick(Eq(Apply("b"), Apply("true"))), {loc("b"): TRUE}),
    (_pick(Eq(Apply("true"), Apply("1"))), {}),
    (_pick(Eq(Apply("u"), Apply("undef"))), {}),
    (_pick(Eq(Apply("c"), Apply("'red"))), {loc("c"): "red"}),
    (_pick(Eq(Apply("c"), Apply("d"))), {loc("c"): 1, loc("d"): TRUE}),
    (_pick(Atom("flag")), {loc("flag"): TRUE}),
    (_pick(Atom("flag")), {}),
    (Assign(Apply("x"), Apply("-", (Apply("n"), Apply("3")))), {loc("n"): 1}),
    (Assign(Apply("x"), Apply("-", (Apply("3"), Apply("n")))), {loc("n"): 1}),
    (Assign(Apply("x"), Apply("+", (Apply("-2"), Apply("n")))), {loc("n"): 1}),
    (Assign(Apply("f", (Apply("true"),)), Apply("'red")), {}),
    (Assign(Apply("f", (Apply("n"), Apply("m"))), Apply("undef")),
     {loc("n"): 1, loc("m"): 2}),
    # and/or and quantifiers decided before the part that would raise
    (_pick(Or(Eq(Apply("x"), Apply("0")), Lt(Apply("y"), Apply("1")))),
     {loc("x"): 0}),
    (_pick(And(Eq(Apply("x"), Apply("1")), Lt(Apply("y"), Apply("1")))),
     {loc("x"): 0}),
    (_pick(Exists("d", Lt(Apply("g", (Var("d"),)), Apply("1")))),
     {loc("g", 0): 0}),
    (_pick(Forall("d", Lt(Apply("g", (Var("d"),)), Apply("1")))),
     {loc("g", 0): 5}),
]


@pytest.mark.parametrize("rule,values", VALUE_CASES)
def test_compiled_values_match_spec(rule, values):
    s = State(values)
    _spec_case(rule, s, b"values")


def test_decided_formula_reads_every_part_without_its_error():
    s = State({loc("x"): 0, loc("g", 0): 0}, domain=(0, 1, 2))
    decided = Or(Eq(Apply("x"), Apply("0")), Lt(Apply("y"), Apply("1")))
    assert rw_formula(decided, s, {}).reads == {loc("x"), loc("y")}
    some = Exists("d", Lt(Apply("g", (Var("d"),)), Apply("1")))
    assert rw_formula(some, s, {}).reads == {loc("g", d) for d in range(3)}


def test_run_of_a_decided_or_with_an_erring_right_side():
    # y() is undef, so `y() < 1` raises; the spec never evaluates it.
    prog = parse_program("""\
machine m
init x() := 0
init pc() := 0
terminated: pc() = 1
rule: if x() = 0 or y() < 1 then pc() := 1 else pc() := 1
""")
    assert yields(prog.main_rule, State({loc("x"): 0, loc("pc"): 0}), {},
                  res()) == {(loc("pc"), 1)}
    trace = run(RunConfig(machines=[prog]))
    assert trace.status == "done" and check_serializable(trace).ok
    (step,) = [ms for rec in trace.steps for ms in rec.per_machine.values()
               if ms.proper]
    assert step.updates == {(loc("pc"), 1)}
    assert [l for l, _ in step.reads] == [loc("pc"), loc("x"), loc("y")]


def test_call_arity_error_matches_spec():
    rules = {"r": NamedRule(("a",), Skip())}
    rule = Call("r", ())
    s = State()
    assert _raised(lambda: yields(rule, s, {}, res(), rules)) is ArityMismatch
    assert _raised(lambda: rw_rule(rule, s, {}, res(), rules)) is ArityMismatch


def test_choose_ids_are_read_when_the_code_runs():
    # Programs that already ran keep their compiled code; joining a second
    # RunConfig renumbers their choose nodes, and the code must follow.
    fresh = lambda m: parse_program(print_program(m))
    for seed in range(8):
        first = random_config(seed)
        run(first)
        extra = random_machine(random.Random(seed), "a0", ["g0", "g1", "g2"],
                               FuzzParams())
        joined = RunConfig(machines=[extra] + first.machines,
                           shared_inits=first.shared_inits,
                           domain_size=first.domain_size, seed=seed)
        reparsed = RunConfig(machines=[fresh(m) for m in joined.machines],
                             shared_inits=first.shared_inits,
                             domain_size=first.domain_size, seed=seed)
        assert (trace_to_lines(run(joined))[1:]
                == trace_to_lines(run(reparsed))[1:])


def test_read_log_keeps_first_value_across_seq():
    # a(i) and y are read before the first half writes them and again after
    s = State({loc("i"): 0, loc("y"): 1})
    r = Seq((Par((Assign(Apply("a", (Apply("i"),)), Apply("5")),
                  Assign(Apply("y"), Apply("2")))),
             Assign(Apply("z"), Apply("+", (Apply("a", (Apply("i"),)), Apply("y"))))))
    log = {}
    rw = rw_rule(r, s, {}, res(), read_log=log)
    assert log[loc("a", 0)] is UNDEF and log[loc("y")] == 1
    assert (loc("z"), 7) in rw.updates


# Named rules, each with its update set when g() = 0.  The compiled pass must
# give the spec's update sets, reads and errors, in states where the argument
# g() holds an integer, a symbol (an error where it is added to) or undef.
CALL_PROGRAMS = {
    "parameter-passed-into-a-second-call": ("""\
rule put(v): out(v) := v + 1
rule twice(w): par { call put(w) ; call put(w + 1) }
rule: call twice(g())
""", {(loc("out", 0), 1), (loc("out", 1), 2)}),
    "parameter-shadowed-by-forall-and-choose": ("""\
rule r(v): par {
  forall v with v < 2 do a(v) := v ;
  choose v with g() < v do b() := v ;
  c() := v + 1
}
rule: call r(g())
""", {(loc("a", 0), 0), (loc("a", 1), 1), (loc("b"), 3), (loc("c"), 1)}),
    "parameter-shadowed-by-let": ("""\
rule r(v): par { let v = 5 in inner() := v ; outer() := v }
rule: call r(g())
""", {(loc("inner"), 5), (loc("outer"), 0)}),
    "parameter-shadowed-in-a-guard": ("""\
rule r(v): par {
  if (exists v . a(v) = 1) or v = 2 then x() := v else y() := v ;
  forall d with forall v . v < d + 3 do z(d) := v + 1
}
rule: call r(g())
""", {(loc("x"), 0), (loc("z", 1), 1), (loc("z", 2), 1), (loc("z", 3), 1)}),
    "argument-reads-an-earlier-seq-write": ("""\
rule r(v): seq { g() := v + 1 ; out() := v }
rule: seq { g() := g() + 1 ; call r(g()) }
""", {(loc("g"), 2), (loc("out"), 2)}),
}


@pytest.mark.parametrize("name", sorted(CALL_PROGRAMS))
def test_call_expansion_matches_spec(name):
    text, updates = CALL_PROGRAMS[name]
    prog = parse_program("machine m\n" + text)
    rule, rules = prog.main_rule, prog.named_rules
    s = State({loc("g"): 0, loc("a", 1): 1}, domain=(0, 1, 2, 3))
    assert rw_rule(rule, s, {}, ChoiceResolver(b"call"), rules).updates == updates
    for g in (0, 1, 2, "q", UNDEF):
        s = State({loc("g"): g, loc("a", 1): 1}, domain=(0, 1, 2, 3))
        for material in (b"call", b"expansion"):
            spec = _raised(lambda: yields(rule, s, {}, ChoiceResolver(material),
                                          rules))
            if spec is None:
                _spec_case(rule, s, material, rules)
            else:
                assert spec is _raised(lambda: rw_rule(
                    rule, s, {}, ChoiceResolver(material), rules))


@pytest.mark.parametrize("a, b, c, updates", [
    ("x() := 1", "y() := (x() + 1)", "x() := (y() + z())",
     {(loc("x"), 5), (loc("y"), 2)}),
    # The inconsistent middle item ends the block: z is not written.
    ("x() := 1", "par { y() := x() ; y() := 2 }", "z() := 5",
     {(loc("x"), 1), (loc("y"), 1), (loc("y"), 2)}),
    # a(1) and a(true) are two locations.
    ("a(1) := 5", "a(true) := 6", "b() := 0",
     {(loc("a", 1), 5), (loc("a", TRUE), 6), (loc("b"), 0)}),
])
def test_seq_block_equals_nested_seqs(a, b, c, updates):
    flat = parse_program(f"machine m rule: seq {{ {a} ; {b} ; {c} }}").main_rule
    nested = parse_program(
        f"machine m rule: seq {{ {a} ; seq {{ {b} ; {c} }} }}").main_rule
    assert len(flat.items) == 3 and len(nested.items) == 2
    s = State({loc("z"): 3})

    def spec(r):
        reads = []
        u = yields(r, s, {}, res(), on_read=lambda l, v: reads.append((l, v)))
        return u, reads

    def compiled(r):
        log = {}
        rw = rw_rule(r, s, {}, res(), read_log=log)
        return rw.updates, rw.reads, rw.writes, list(log.items())

    assert spec(flat) == spec(nested)
    assert spec(flat)[0] == updates
    assert compiled(flat) == compiled(nested)
    assert compiled(flat)[0] == updates


def test_compiled_pass_keeps_one_and_true_apart():
    s = State({loc("b"): TRUE, loc("n"): 1})
    for block in ("par", "seq"):
        rule = parse_program(
            f"machine m rule: {block} {{ a(1) := 5 ; a(true) := 6 }}").main_rule
        assert rw_rule(rule, s, {}, res()).updates == frozenset(
            {(loc("a", 1), 5), (loc("a", TRUE), 6)})
    rule = parse_program(
        "machine m rule: par { if b() = 1 then x() := 1 else skip ; "
        "if b() = true then y() := 1 else skip ; "
        "if b() = n() then z() := 1 else skip }").main_rule
    assert rw_rule(rule, s, {}, res()).updates == frozenset({(loc("y"), 1)})


@pytest.mark.parametrize("items", ["x() := 1 ; x() := true",
                                   "x() := true ; x() := 1"])
def test_one_and_true_clash_in_both_evaluators(items):
    prog = parse_program(f"machine m terminated: false rule: par {{ {items} }}")
    clash = frozenset({(loc("x"), 1), (loc("x"), TRUE)})
    for updates in (yields(prog.main_rule, State(), {}, res()),
                    rw_rule(prog.main_rule, State(), {}, res()).updates):
        assert updates == clash and not consistent(updates)
        with pytest.raises(InconsistentUpdateSet):
            apply_updates(State(), updates)
    with pytest.raises(InconsistentUpdateSet, match="machine m"):
        run(RunConfig(machines=[prog]))


# -- the leaf table: one code per argument-free name ------------------------


def test_two_programs_share_the_code_of_g_and_read_their_own_state():
    p1 = parse_program("machine m1 rule: x() := g()").main_rule
    p2 = parse_program("machine m2 rule: y() := (g() + 1)").main_rule
    g1, g2 = p1.rhs, p2.rhs.args[0]
    assert g1 is not g2 and g1 == g2 == Apply("g")
    assert rwloc._term(g1) is rwloc._term(g2)
    s1, s2 = State({loc("g"): 1}), State({loc("g"): 7})
    log1, log2 = {}, {}
    assert rw_rule(p1, s1, {}, res(), read_log=log1).updates == {(loc("x"), 1)}
    assert rw_rule(p2, s2, {}, res(), read_log=log2).updates == {(loc("y"), 8)}
    assert log1[loc("g")] == 1 and log2[loc("g")] == 7
    assert rwloc._term(g1)(s2, {}, {}) == 7


@pytest.mark.parametrize("rhs", [(Var("xv"), Apply("xv")),
                                 (Apply("xv"), Var("xv"))])
def test_bound_name_and_location_of_the_same_name_never_share_code(rhs):
    # let xv = 10 in y() := xv + xv(), in both orders: the bound xv
    # is 10, the location xv() holds 3.
    rule = Let("xv", Apply("10"), Assign(Apply("y"), Apply("+", rhs)))
    s = State({loc("xv"): 3})
    log = {}
    rw = rw_rule(rule, s, {}, res(), read_log=log)
    assert rw.updates == {(loc("y"), 13)}
    assert log == {loc("xv"): 3, loc("y"): UNDEF}
    assert yields(rule, s, {}, res()) == rw.updates
    var, read = rwloc._term(Var("xv")), rwloc._term(Apply("xv"))
    assert var is not read
    assert var(s, {"xv": 10}, {}) == 10 and read(s, {"xv": 10}, {}) == 3


def test_literals_still_fold_to_constants():
    assert rwloc._term(Apply("3")).value == 3
    assert rwloc._term(Apply("-12")).value == -12
    assert rwloc._term(Apply("'red")).value == "red"
    assert rwloc._term(Apply("true")).value is TRUE
    assert rwloc._term(Apply("undef")).value is UNDEF
    assert rwloc._term(Apply("3")) is rwloc._term(Apply("3"))
    assert rwloc._term(Apply("+", (Apply("1"), Apply("2")))).value == 3
    assert not hasattr(rwloc._term(Apply("g")), "value")


@pytest.mark.parametrize("func", ["+", "-"])
def test_nullary_builtin_raises_when_run_not_when_compiled(func):
    code = rwloc._term(Apply(func))  # compiling raises nothing
    assert not hasattr(code, "value")
    with pytest.raises(ArityMismatch):
        code(State(), {}, {})
    rule = Assign(Apply("x"), Apply(func))
    s = State()
    assert _raised(lambda: yields(rule, s, {}, res())) is ArityMismatch
    assert _raised(lambda: rw_rule(rule, s, {}, res())) is ArityMismatch


# -- wide seq blocks ----------------------------------------------------------


def test_wide_seq_agrees_and_copies_the_state_once(monkeypatch):
    # a(i) := a(i - 1) + 1 for i in 1..4000: each item reads what the one
    # before it wrote, and every item writes its own location.
    n = 4000
    items = tuple(
        Assign(Apply("a", (Apply(str(i)),)),
               Apply("+", (Apply("a", (Apply(str(i - 1)),)), Apply("1"))))
        for i in range(1, n + 1))
    rule = Seq(items)
    s = State({loc("a", 0): 0, loc("b"): 5})
    copies = []
    with_updates = State.with_updates

    def counted(self, updates):
        copies.append(len(updates))
        return with_updates(self, updates)
    monkeypatch.setattr(State, "with_updates", counted)

    reads = []
    updates = yields(rule, s, {}, res(), on_read=lambda l, v: reads.append((l, v)))
    assert len(copies) <= 1
    copies.clear()
    log = {}
    rw = rw_rule(rule, s, {}, res(), read_log=log)
    assert len(copies) <= 1
    assert updates == rw.updates == {(loc("a", i), i) for i in range(1, n + 1)}
    assert reads == [(loc("a", i - 1), i - 1) for i in range(1, n + 1)]
    # each target is logged as read before its item writes it
    assert log == {loc("a", 0): 0, **{loc("a", i): UNDEF for i in range(1, n + 1)}}
    assert rw.writes == {loc("a", i) for i in range(1, n + 1)}
    # the block's private copy never reaches the caller's state
    assert s.values == {loc("a", 0): 0, loc("b"): 5}


def test_wide_seq_ends_at_its_first_inconsistent_item():
    items = [Assign(Apply("a", (Apply(str(i)),)), Apply(str(i))) for i in range(50)]
    clash = Par((Assign(Apply("a", (Apply("3"),)), Apply("7")),
                 Assign(Apply("a", (Apply("3"),)), Apply("8"))))
    rule = Seq(tuple(items) + (clash, Assign(Apply("z"), Apply("1"))))
    s = State()
    expected = ({(loc("a", i), i) for i in range(50) if i != 3}
                | {(loc("a", 3), 7), (loc("a", 3), 8)})
    assert yields(rule, s, {}, res()) == expected
    assert rw_rule(rule, s, {}, res()).updates == expected
    assert s.values == {}
