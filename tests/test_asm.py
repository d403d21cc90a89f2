import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from taserial.asm import (
    Apply,
    ArityMismatch,
    Assign,
    ChooseDo,
    Eq,
    EvalError,
    Exists,
    FALSE,
    Forall,
    ForallDo,
    If,
    InconsistentUpdateSet,
    Let,
    Location,
    Lt,
    Par,
    Seq,
    Skip,
    State,
    TRUE,
    TypeMismatch,
    UNDEF,
    UndefArgument,
    UnboundVariable,
    Var,
    apply_updates,
    assign_choice_ids,
    consistent,
    eval_formula,
    eval_term,
    is_static,
    seq_merge,
    static_apply,
    update_locations,
    value_key,
    yields,
)
from taserial.seeds import ChoiceResolver


def loc(f, *args):
    return Location(f, tuple(args))


def state(**kwargs):
    return State({loc(k): v for k, v in kwargs.items()})


class Fixed:
    """Choice resolver that always returns a fixed index."""

    def __init__(self, idx=0):
        self.idx = idx

    def pick(self, node_id, n):
        return min(self.idx, n - 1)


# -- values ----------------------------------------------------------------


@pytest.mark.parametrize("value", [UNDEF, TRUE, FALSE], ids=repr)
def test_named_values_survive_pickle_and_deepcopy(value):
    assert pickle.loads(pickle.dumps(value)) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value])[0] is value


def test_true_and_false_differ_from_one_and_zero():
    assert TRUE != 1 and 1 != TRUE
    assert FALSE != 0 and 0 != FALSE
    assert TRUE != FALSE and TRUE != UNDEF
    assert len({1, TRUE, 0, FALSE, UNDEF}) == 5
    assert 1 == 1 and TRUE == TRUE and UNDEF == UNDEF


def test_static_function_vocabulary():
    assert is_static("5") and is_static("-12") and is_static("+")
    assert is_static("true") and is_static("'red")
    assert not is_static("x") and not is_static("pc_m0")
    assert static_apply("7", ()) == 7
    assert static_apply("'red", ()) == "red"
    assert static_apply("+", (2, 3)) == 5
    assert static_apply("-", (2, 3)) == -1
    assert static_apply("true", ()) is TRUE
    assert static_apply("false", ()) is FALSE
    assert static_apply("undef", ()) is UNDEF


STATIC_NAMES = ["0", "5", "123456789012345678901234567890", "-12", "007", "-0",
                "'red", "'", "'a b", "true", "false", "undef", "+", "-",
                "x", "pc_m0", "g1", "True", "undefined", "5x", "x5", "--1",
                "+1", "1-"]


@pytest.mark.parametrize("name", STATIC_NAMES)
def test_is_static_gives_the_regex_answer_every_time(name):
    expected = (name in ("+", "-", "true", "false", "undef")
                or name.startswith("'")
                or re.fullmatch(r"-?\d+", name) is not None)
    assert is_static(name) is expected
    assert is_static(name) is expected


def test_static_apply_rejects_bools_in_arithmetic():
    with pytest.raises(TypeMismatch):
        static_apply("+", (TRUE, 1))
    with pytest.raises(ArityMismatch):
        static_apply("5", (1,))


# -- update sets -----------------------------------------------------------


def test_consistent_allows_duplicate_same_value():
    u = frozenset({(loc("x"), 1), (loc("x"), 1)})
    assert consistent(u)


def test_consistent_rejects_clash():
    u = frozenset({(loc("x"), 1), (loc("x"), 2)})
    assert not consistent(u)
    with pytest.raises(InconsistentUpdateSet):
        apply_updates(State(), u)


def test_apply_updates_and_undef_deletes():
    s = state(x=1)
    s2 = apply_updates(s, frozenset({(loc("x"), UNDEF), (loc("y"), 3)}))
    assert s2.get(loc("x")) is UNDEF
    assert loc("x") not in s2.values
    assert s2.get(loc("y")) == 3
    # original untouched
    assert s.get(loc("x")) == 1


def test_seq_merge_later_write_wins():
    u1 = frozenset({(loc("x"), 1), (loc("y"), 5)})
    u2 = frozenset({(loc("x"), 2)})
    merged = seq_merge(u1, u2)
    assert merged == frozenset({(loc("x"), 2), (loc("y"), 5)})


VALUES = [0, 1, TRUE, FALSE, "s"]


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([1, TRUE]),
                          st.sampled_from(VALUES)), max_size=6))
def test_consistent_matches_brute_force(pairs):
    # Locations and values are told apart by value_key, which never
    # confuses 1 with true.
    def key(loc):
        return (loc.func, [value_key(a) for a in loc.args])

    u = frozenset((loc(f, a), v) for f, a, v in pairs)
    brute = all(not (key(la) == key(lb) and value_key(va) != value_key(vb))
                for la, va in u for lb, vb in u)
    assert consistent(u) == brute


def test_seq_merge_keeps_one_and_true_apart():
    merged = seq_merge(frozenset({(loc("a", 1), 5), (loc("x"), 1)}),
                       frozenset({(loc("a", TRUE), 6), (loc("x"), TRUE)}))
    assert merged == frozenset({(loc("a", 1), 5), (loc("a", TRUE), 6),
                                (loc("x"), TRUE)})


def test_state_keeps_one_and_true_apart():
    s = State({loc("a", 1): 5}).with_updates(
        frozenset({(loc("a", TRUE), 6)}))
    assert s.get(loc("a", 1)) == 5 and s.get(loc("a", TRUE)) == 6
    assert State({loc("x"): 1}) != State({loc("x"): TRUE})


# -- terms and formulae ----------------------------------------------------


def test_eval_reads_state_and_defaults_to_undef():
    s = state(x=4)
    assert eval_term(Apply("x"), s, {}) == 4
    assert eval_term(Apply("y"), s, {}) is UNDEF


def test_unbound_variable_raises():
    with pytest.raises(UnboundVariable):
        eval_term(Var("v"), State(), {})


def test_undef_location_argument_raises():
    s = State()
    with pytest.raises(UndefArgument):
        eval_term(Apply("f", (Apply("missing"),)), s, {})


def test_quantifiers_range_over_domain():
    s = State({loc("f", 0): 1, loc("f", 1): 1}, domain=(0, 1))
    assert eval_formula(Forall("d", Eq(Apply("f", (Var("d"),)), Apply("1"))), s, {})
    s2 = State({loc("f", 0): 1}, domain=(0, 1, 2))
    assert not eval_formula(Forall("d", Eq(Apply("f", (Var("d"),)), Apply("1"))), s2, {})
    assert eval_formula(Exists("d", Eq(Apply("f", (Var("d"),)), Apply("1"))), s2, {})


def test_lt_requires_ints():
    s = state(b=TRUE)
    with pytest.raises(TypeMismatch):
        eval_formula(Lt(Apply("b"), Apply("1")), s, {})


# -- rules -----------------------------------------------------------------


def test_skip_yields_nothing():
    assert yields(Skip(), State(), {}, Fixed()) == frozenset()


def test_assign_with_dynamic_args():
    s = State({loc("i"): 2, loc("a", 2): 9})
    r = Assign(Apply("a", (Apply("i"),)), Apply("+", (Apply("a", (Apply("i"),)), Apply("1"))))
    assert yields(r, s, {}, Fixed()) == frozenset({(loc("a", 2), 10)})


def test_assign_rejects_static_target():
    with pytest.raises(EvalError):
        yields(Assign(Apply("5"), Apply("1")), State(), {}, Fixed())


def test_if_takes_one_branch():
    s = state(x=1)
    r = If(Eq(Apply("x"), Apply("1")),
           Assign(Apply("y"), Apply("1")),
           Assign(Apply("z"), Apply("1")))
    assert yields(r, s, {}, Fixed()) == frozenset({(loc("y"), 1)})


def test_let_binds_value_once():
    s = state(x=3)
    r = Let("v", Apply("x"), Assign(Apply("y"), Apply("+", (Var("v"), Var("v")))))
    assert yields(r, s, {}, Fixed()) == frozenset({(loc("y"), 6)})


def test_forall_unions_instances():
    s = State({}, domain=(0, 1, 2))
    r = ForallDo("d", Lt(Var("d"), Apply("2")),
                 Assign(Apply("a", (Var("d"),)), Var("d")))
    assert yields(r, s, {}, Fixed()) == frozenset({(loc("a", 0), 0), (loc("a", 1), 1)})


def test_choose_uses_resolver_and_empty_range_is_skip():
    s = State({}, domain=(0, 1, 2))
    r = ChooseDo("d", Lt(Var("d"), Apply("2")), Assign(Apply("y"), Var("d")),
                 node_id=0)
    assert yields(r, s, {}, Fixed(1)) == frozenset({(loc("y"), 1)})
    empty = ChooseDo("d", Lt(Var("d"), Apply("0")), Assign(Apply("y"), Var("d")),
                     node_id=0)
    assert yields(empty, s, {}, Fixed()) == frozenset()


def test_par_unions_and_can_clash():
    r = Par((Assign(Apply("x"), Apply("1")), Assign(Apply("x"), Apply("2"))))
    u = yields(r, State(), {}, Fixed())
    assert not consistent(u)


def test_yields_keeps_one_and_true_apart():
    one, true = Apply("1"), Apply("true")
    for items in ((one, true), (true, one)):
        u = yields(Par(tuple(Assign(Apply("x"), v) for v in items)),
                   State(), {}, Fixed())
        assert u == frozenset({(loc("x"), 1), (loc("x"), TRUE)})
        with pytest.raises(InconsistentUpdateSet):
            apply_updates(State(), u)
    for block in (Par, Seq):
        r = block((Assign(Apply("a", (one,)), Apply("5")),
                   Assign(Apply("a", (true,)), Apply("6"))))
        assert yields(r, State(), {}, Fixed()) == frozenset(
            {(loc("a", 1), 5), (loc("a", TRUE), 6)})
    s = State({loc("b"): TRUE})
    assert not eval_formula(Eq(Apply("b"), one), s, {})
    assert eval_formula(Eq(Apply("b"), true), s, {})


def test_seq_threads_intermediate_state():
    r = Seq((Assign(Apply("x"), Apply("1")),
             Assign(Apply("y"), Apply("+", (Apply("x"), Apply("1"))))))
    u = yields(r, state(x=0), {}, Fixed())
    assert u == frozenset({(loc("x"), 1), (loc("y"), 2)})


def test_seq_overwrites_first_write():
    r = Seq((Assign(Apply("x"), Apply("1")), Assign(Apply("x"), Apply("2"))))
    assert yields(r, State(), {}, Fixed()) == frozenset({(loc("x"), 2)})


def test_seq_stops_at_inconsistent_first_half():
    clash = Par((Assign(Apply("x"), Apply("1")), Assign(Apply("x"), Apply("2"))))
    r = Seq((clash, Assign(Apply("y"), Apply("3"))))
    u = yields(r, State(), {}, Fixed())
    assert update_locations(u) == frozenset({loc("x")})


def test_assign_choice_ids_preorder():
    inner = ChooseDo("b", Eq(Apply("0"), Apply("0")), Skip())
    outer = ChooseDo("a", Eq(Apply("0"), Apply("0")), inner)
    other = ChooseDo("c", Eq(Apply("0"), Apply("0")), Skip())
    n = assign_choice_ids([outer, other])
    assert (outer.node_id, inner.node_id, other.node_id) == (0, 1, 2)
    assert n == 3
    last = ChooseDo("d", Eq(Apply("0"), Apply("0")), Skip())
    # each call numbers from 0, inside par and seq blocks too
    assert assign_choice_ids([Par((Skip(), Seq((Skip(), Skip())), last))]) == 1
    assert last.node_id == 0


def test_choice_resolver_is_deterministic_per_occurrence():
    a = ChoiceResolver(b"seed")
    b = ChoiceResolver(b"seed")
    seq_a = [a.pick(0, 5) for _ in range(4)] + [a.pick(1, 3)]
    seq_b = [b.pick(0, 5) for _ in range(4)] + [b.pick(1, 3)]
    assert seq_a == seq_b
    # a fresh resolver restarts its occurrence counters
    assert ChoiceResolver(b"seed").pick(0, 5) == seq_a[0]
    other = [ChoiceResolver(b"other").pick(0, 1000)]
    assert other != [ChoiceResolver(b"seed").pick(0, 1000)]
