import inspect
import random
import re

import pytest

from taserial.asm import TRUE, Location
from taserial.controller import (
    ControllerState,
    EmptyHistory,
    LockInvariantViolation,
    LockTable,
    GRANTED,
    PENDING,
    REFUSED,
    Request,
    HistoryEntry,
    LockPair,
    apply_effect,
    commit_step,
    deadlock_handler_step,
    deadlocked,
    lock_handler_step,
    next_ordinal,
    recovery_step,
)

from reference import (check_lock_table, cycle_members, r_holders, w_holder,
                       wait_edges)


def loc(f, *args):
    return Location(f, tuple(args))


def pair(r=(), w=()):
    return LockPair(frozenset(loc(x) for x in r), frozenset(loc(x) for x in w))


def fresh(machines=("m0", "m1")):
    cs = ControllerState()
    for m in machines:
        apply_effect(cs, ("register", m), [])
    return cs


def draw():
    return random.Random(0).randrange


def request(cs, machine, locks):
    apply_effect(cs, ("lock_request", machine, locks), [])


def take(cs, machine, locks):
    """The machine requests the locks, is granted them and keeps them on
    its history, each through the effect the engine applies."""
    request(cs, machine, locks)
    apply_effect(cs, ("grant", machine, locks), [])
    apply_effect(cs, ("append_history", machine,
                      HistoryEntry(saved=(), locks=locks)), [])


def pending(cs):
    return [(m, r.pair) for m, r in cs.requests.items() if r.status == PENDING]


def handle_locks(cs, r, policy, wait_mode="retry"):
    """One lock handler step, given the wait graph as the engine keeps it."""
    deadlocked(cs)
    return lock_handler_step(cs, r, policy, wait_mode, cs.wait_graph.out)


# -- lock table ------------------------------------------------------------


def test_read_locks_are_shared():
    t = LockTable()
    t.grant("a", pair(r=("x",)))
    t.grant("b", pair(r=("x",)))
    assert r_holders(t, loc("x")) == frozenset({"a", "b"})
    check_lock_table(t)


def _conflicting_grant_violates(first, second):
    """Granting b `second` beside a's `first` raises and changes nothing."""
    t = LockTable()
    t.grant("a", first)
    with pytest.raises(LockInvariantViolation, match="against the locks of"):
        t.grant("b", second)
    check_lock_table(t)
    assert t.locked_by("a") == first.r_loc | first.w_loc
    assert t.locked_by("b") == frozenset()
    assert t.missing("b", first.r_loc | first.w_loc, first.w_loc) == LockPair(
        first.r_loc | first.w_loc, first.w_loc)
    assert t.r_locked == {l: {"a"} for l in first.r_loc}
    assert t.w_locked == {l: "a" for l in first.w_loc}


def test_write_lock_with_foreign_reader_violates():
    _conflicting_grant_violates(pair(r=("x",)), pair(w=("x",)))


def test_write_lock_with_foreign_writer_violates():
    _conflicting_grant_violates(pair(w=("x",)), pair(w=("x",)))
    _conflicting_grant_violates(pair(w=("x",)), pair(r=("y", "x")))


def test_check_finds_a_writer_beside_a_foreign_reader():
    t = LockTable()
    t.grant("a", pair(w=("x",)))
    t.r_locked[loc("x")] = {"b"}
    with pytest.raises(LockInvariantViolation):
        check_lock_table(t)


def test_upgrade_by_same_machine_is_fine():
    t = LockTable()
    t.grant("a", pair(r=("x",)))
    t.grant("a", pair(w=("x",)))
    check_lock_table(t)
    assert w_holder(t, loc("x")) == "a"


def test_release_pair_keeps_older_read_lock():
    # regression: undoing a write-upgrade step must not drop the read lock
    # acquired by an earlier, still-recorded step
    t = LockTable()
    t.grant("a", pair(r=("x",)))
    t.grant("a", pair(w=("x",)))
    t.release("a", pair(w=("x",)))
    assert w_holder(t, loc("x")) is None
    assert r_holders(t, loc("x")) == frozenset({"a"})


def test_lock_table_keeps_one_and_true_apart():
    one, true = loc("f", 1), loc("f", TRUE)
    t = LockTable()
    t.grant("a", LockPair(w_loc=frozenset({one})))
    t.grant("b", LockPair(w_loc=frozenset({true})))
    check_lock_table(t)
    assert (w_holder(t, one), w_holder(t, true)) == ("a", "b")
    t.release("b", LockPair(w_loc=frozenset({true})))
    assert (w_holder(t, one), w_holder(t, true)) == ("a", None)


def test_release_all_clears_both_kinds():
    t = LockTable()
    t.grant("a", pair(r=("x",), w=("y",)))
    t.release_all("a")
    assert t.locked_by("a") == frozenset()


# -- grant rules -----------------------------------------------------------


def test_blockers_cases():
    t = LockTable()
    t.grant("m1", pair(w=("x",), r=("y",)))
    assert t.conflicts("m0", pair(r=("x",))) == {"m1"}  # W elsewhere
    assert t.conflicts("m0", pair(w=("y",))) == {"m1"}  # their R blocks our W
    assert not t.conflicts("m0", pair(r=("y",)))  # shared read ok
    assert not t.conflicts("m1", pair(w=("x",)))  # own lock


def test_lock_handler_grants_or_refuses():
    cs = fresh()
    cs.locks.grant("m1", pair(w=("x",)))
    request(cs, "m0", pair(r=("x",)))
    assert handle_locks(cs, draw(), "fifo") == [("refuse", "m0", pair(r=("x",)))]
    cs2 = fresh()
    request(cs2, "m0", pair(r=("x",)))
    assert handle_locks(cs2, draw(), "fifo") == [("grant", "m0", pair(r=("x",)))]


def test_lock_handler_reads_the_wait_graph_it_is_given():
    cs = fresh()
    request(cs, "m0", pair(r=("x",)))
    assert lock_handler_step(cs, draw(), "fifo", "retry",
                             {"m0": {"m1"}})[0][0] == "refuse"
    assert lock_handler_step(cs, draw(), "fifo", "suspend", {"m0": {"m1"}}) == []
    assert lock_handler_step(cs, draw(), "fifo", "retry", {})[0][0] == "grant"


def test_suspend_mode_never_refuses():
    cs = fresh()
    cs.locks.grant("m1", pair(w=("x",)))
    request(cs, "m0", pair(r=("x",)))
    assert handle_locks(cs, draw(), "fifo", wait_mode="suspend") == []


def test_suspend_mode_does_not_answer_a_victims_grantable_request():
    # A victim's wrapper withdraws its pending request in the same step, so
    # a grant would leave it holding locks no history entry covers.
    cs = fresh()
    request(cs, "m0", pair(r=("x",)))
    cs.victims.add("m0")
    assert handle_locks(cs, draw(), "fifo", wait_mode="suspend") == []
    request(cs, "m1", pair(r=("y",)))
    assert handle_locks(cs, draw(), "random", wait_mode="suspend") == [
        ("grant", "m1", pair(r=("y",)))]
    # Retry mode answers victims: their wrappers read the refusal first.
    assert handle_locks(cs, draw(), "fifo", wait_mode="retry") == [
        ("grant", "m0", pair(r=("x",)))]


def test_grant_effect_updates_tables_and_flags():
    cs = fresh()
    request(cs, "m0", pair(r=("x",)))
    effects = handle_locks(cs, draw(), "fifo")
    apply_effect(cs, effects[0], [])
    assert pending(cs) == []
    assert cs.requests["m0"] == Request(pair(r=("x",)), GRANTED)
    assert r_holders(cs.locks, loc("x")) == frozenset({"m0"})


def test_commit_releases_everything():
    cs = fresh()
    cs.locks.grant("m0", pair(r=("x",), w=("y",)))
    cs.commit_requests.add("m0")
    committed = []
    effects = commit_step(cs, draw(), "lowest-id")
    assert effects == [("commit", "m0")]
    apply_effect(cs, effects[0], committed)
    assert committed == ["m0"]
    assert "m0" not in cs.commit_requests
    assert cs.locks.locked_by("m0") == frozenset()


def _scan_locked_by(table, machine):
    return frozenset({l for l, ms in table.r_locked.items() if machine in ms}
                     | {l for l, m in table.w_locked.items() if m == machine})


def _scan_w_locked_by(table, machine):
    return frozenset(l for l, m in table.w_locked.items() if m == machine)


def test_lock_index_matches_table_scan():
    r = random.Random(11)
    machines = ["m0", "m1", "m2", "m3"]
    locations = [loc(f"x{i}") for i in range(6)]
    everywhere = frozenset(locations)

    def some():
        return frozenset(l for l in locations if r.random() < 0.3)

    def grant(m, locks):
        """Grant what does not conflict; a conflicting grant raises and
        changes nothing."""
        if table.conflicts(m, locks):
            with pytest.raises(LockInvariantViolation):
                table.grant(m, locks)
        else:
            table.grant(m, locks)

    ops = 0
    for _ in range(40):
        table = LockTable()
        for _ in range(60):
            m = r.choice(machines)
            kind = r.randrange(6)
            if kind in (0, 1):
                grant(m, LockPair(some(), some()))
            elif kind == 2:
                # write upgrade over the machine's own read locks
                own = [l for l, ms in table.r_locked.items() if m in ms]
                grant(m, LockPair(frozenset(),
                                  frozenset(own[:r.randint(0, len(own))])))
            elif kind == 3:
                table.release(m, LockPair(some(), some()))
            elif kind == 4:
                l = r.choice(locations)
                if r.random() < 0.5:
                    table.unlock_r(l, m)
                else:
                    table.unlock_w(l, m)
            else:
                table.release_all(m)
            ops += 1
            for n in machines:
                assert table.locked_by(n) == _scan_locked_by(table, n)
                assert table.missing(n, everywhere, everywhere) == LockPair(
                    everywhere - _scan_locked_by(table, n),
                    everywhere - _scan_w_locked_by(table, n))
    assert ops == 2400


# -- deadlock --------------------------------------------------------------


def _cs_with_edges(edge_list):
    machines = sorted({n for e in edge_list for n in e})
    cs = fresh(machines)
    wanted = {}
    for i, (a, b) in enumerate(edge_list):
        l = loc(f"e{i}")
        cs.locks.grant(b, LockPair(frozenset(), frozenset({l})))
        wanted.setdefault(a, set()).add(l)
    for a, ls in wanted.items():
        request(cs, a, LockPair(frozenset(ls)))
    return cs


@pytest.mark.parametrize("edge_list,expect_cycle", [
    ([("a", "b"), ("b", "a")], True),
    ([("a", "b"), ("b", "c")], False),
    ([("a", "b"), ("b", "c"), ("c", "a")], True),
    ([("a", "a")], False),  # cannot wait for own lock, edge never forms
    ([("a", "b"), ("b", "c"), ("c", "b")], True),
])
def test_deadlock_matches_closure_oracle(edge_list, expect_cycle):
    cs = _cs_with_edges([e for e in edge_list if e[0] != e[1]])
    edges = wait_edges(cs)
    oracle = cycle_members(edges)
    assert deadlocked(cs) == oracle
    assert bool(oracle) == expect_cycle


@pytest.mark.parametrize("by", ["waiter", "holder"])
@pytest.mark.parametrize("edge_list,removed,expect", [
    # two disjoint 2-cycles: the second stays
    ([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")], ("a", "b"),
     {"c", "d"}),
    # a figure eight: the other loop stays
    ([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")], ("a", "b"),
     {"b", "c"}),
    # a 3-cycle with a chord: the smaller cycle stays
    ([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")], ("b", "c"),
     {"a", "c"}),
])
def test_deadlock_after_a_removal_matches_closure_oracle(edge_list, removed,
                                                         expect, by):
    """An edge between two cycle members is removed, by its waiter asking
    without the location or by its holder undoing the step that locked it:
    the cycles that do not use it stay."""
    edge_list = [e for e in edge_list if e != removed] + [removed]
    cs = fresh(sorted({n for e in edge_list for n in e}))
    wanted = {}
    for i, (a, b) in enumerate(edge_list):
        take(cs, b, pair(w=(f"e{i}",)))
        wanted.setdefault(a, set()).add(f"e{i}")
    for a, ls in wanted.items():
        request(cs, a, pair(r=ls))
    assert deadlocked(cs) == cycle_members(wait_edges(cs))
    a, b = removed
    if by == "waiter":
        request(cs, a, pair(r=wanted[a] - {f"e{len(edge_list) - 1}"}))
    else:
        apply_effect(cs, ("undo", b, cs.histories[b][-1]), [])
    assert removed not in wait_edges(cs)
    assert deadlocked(cs) == cycle_members(wait_edges(cs)) == expect


@pytest.mark.parametrize("edge_list,added,expect", [
    # b waits for a; a, on the 2-cycle {a, c}, now also waits for b
    ([("a", "c"), ("c", "a"), ("b", "a")], ("a", "b"), {"a", "b", "c"}),
    # a chain e -> b -> a into the 2-cycle {a, c}; a now waits for e
    ([("a", "c"), ("c", "a"), ("e", "b"), ("b", "a")], ("a", "e"),
     {"a", "b", "c", "e"}),
    # two 2-cycles, c also waits for a; a now waits for c: nothing new
    ([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("c", "a")],
     ("a", "c"), {"a", "b", "c", "d"}),
])
def test_deadlock_after_an_addition_matches_closure_oracle(edge_list, added,
                                                           expect):
    """A cycle member re-requests so that it also waits for a machine that
    already reaches it: the component grows by what reaches the member."""
    edge_list = edge_list + [added]
    cs = fresh(sorted({n for e in edge_list for n in e}))
    wanted = {}
    for i, (a, b) in enumerate(edge_list):
        take(cs, b, pair(w=(f"e{i}",)))
        wanted.setdefault(a, set()).add(f"e{i}")
    a = added[0]
    for m, ls in wanted.items():
        request(cs, m, pair(r=ls - {f"e{len(edge_list) - 1}"}))
    assert deadlocked(cs) == cycle_members(wait_edges(cs))
    assert a in deadlocked(cs)
    assert added not in wait_edges(cs)
    request(cs, a, pair(r=wanted[a]))
    assert added in wait_edges(cs)
    assert deadlocked(cs) == cycle_members(wait_edges(cs)) == expect


def test_wait_edges_require_active_status():
    cs = _cs_with_edges([("a", "b")])
    assert wait_edges(cs) == frozenset({("a", "b")})
    p = cs.requests["a"].pair
    apply_effect(cs, ("refuse", "a", p), [])
    assert wait_edges(cs) == frozenset({("a", "b")})  # refused still waits
    # A granted record waits for nobody.  (A grant beside b's lock raises,
    # so the status is written directly.)
    cs.requests["a"] = Request(p, GRANTED)
    assert wait_edges(cs) == frozenset()


def test_random_wait_graphs_match_oracle():
    r = random.Random(7)
    for _ in range(200):
        # Up to 24 machines, the largest benchmark shape; expected out-degree
        # from sparse (mostly acyclic) to dense (one big component).
        n = r.randint(2, 24)
        nodes = [f"m{i}" for i in range(n)]
        p = min(1.0, r.uniform(0.3, 3.0) / n)
        edge_list = [(x, y) for x in nodes for y in nodes
                     if x != y and r.random() < p]
        cs = _cs_with_edges(edge_list)
        assert deadlocked(cs) == cycle_members(wait_edges(cs))


def test_long_cycle_and_chain_need_no_recursion():
    n = 3000
    cycle = [f"c{i}" for i in range(n)]
    chain = [f"h{i}" for i in range(n)]
    edges = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
    edges += [(chain[i], chain[i + 1]) for i in range(n - 1)]
    edges.append((chain[-1], cycle[0]))  # the chain waits on the cycle
    cs = _cs_with_edges(edges)
    assert deadlocked(cs) == frozenset(cycle)


class _CountingOut(dict):
    """A wait graph's out-sets, counting how often one is looked up."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_many_waiters_on_a_long_chain_cost_linear_time():
    """2000 machines start waiting for the head of a 2000-machine chain that
    an earlier call found: the search looks up each machine's out-set a
    bounded number of times, not once per waiter and link."""
    n = 2000
    chain = [f"h{i}" for i in range(n)]
    waiters = [f"w{i}" for i in range(n)]
    cs = fresh(chain + waiters)
    for i, h in enumerate(chain):
        take(cs, h, pair(w=(f"x{i}",)))
    for i, h in enumerate(chain[:-1]):
        request(cs, h, pair(r=(f"x{i + 1}",)))
    assert deadlocked(cs) == frozenset()
    for w in waiters:
        request(cs, w, pair(r=("x0",)))
    out = cs.wait_graph.out = _CountingOut(cs.wait_graph.out)
    assert deadlocked(cs) == frozenset()
    assert len(out) == 2 * n - 1
    edges = sum(map(len, out.values()))
    assert out.lookups <= 2 * (2 * n + edges)


def test_shared_deadlock_set_gives_same_results():
    cs = _cs_with_edges([("a", "b"), ("b", "a"), ("c", "a")])
    cs.histories["a"] = [HistoryEntry(saved=(), locks=pair())]
    dead = deadlocked(cs)
    assert dead == {"a", "b"}


def test_victimize_one_per_cycle():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    cs.histories["a"] = [HistoryEntry(saved=(), locks=pair())]
    cs.histories["b"] = []
    effects = deadlock_handler_step(cs, draw(), "shortest-history",
                                    deadlocked(cs))
    assert effects == [("victimize", "b")]  # shortest history loses
    apply_effect(cs, effects[0], [])
    # no new victim while recovery of the first is pending
    assert deadlock_handler_step(cs, draw(), "shortest-history",
                                 deadlocked(cs)) == []


# -- the wait-for graph kept across calls -----------------------------------


def _reference(cs):
    return cycle_members(wait_edges(cs))


def assert_out_sets_are_blockers(cs):
    """The kept out-sets are the blockers (the holders of conflicting locks)
    of every waiting machine, and absent for every other machine."""
    waiting = {m: cs.locks.conflicts(m, r.pair)
               for m, r in cs.requests.items() if r.status != GRANTED}
    assert cs.wait_graph.out == {m: b for m, b in waiting.items() if b}


def _random_op(r, cs, machines, locations, committed):
    """One controller-state change of a random kind, applied as an effect
    the way the engine applies it, in any order the effects allow."""
    active = sorted(cs.histories.keys() - set(committed))
    kind = r.choice((0, 0, 0, 1, 1, 2, 3, 4, 5, 6))
    m = r.choice(active) if active else None
    if kind == 0 and m is not None:  # request
        some = r.sample(locations, r.randint(1, 2))
        writes = frozenset(l for l in some if r.random() < 0.6)
        pair = LockPair(frozenset(some) - writes, writes)
        apply_effect(cs, ("lock_request", m, pair), committed)
    elif kind in (1, 2) and pending(cs):  # grant or refuse
        n, pair = r.choice(pending(cs))
        if cs.locks.conflicts(n, pair):
            apply_effect(cs, ("refuse", n, pair), committed)
        else:
            apply_effect(cs, ("grant", n, pair), committed)
            apply_effect(cs, ("append_history", n,
                              HistoryEntry(saved=(), locks=pair)), committed)
    elif kind == 3 and m in cs.requests:  # withdraw
        apply_effect(cs, ("withdraw_request", m), committed)
    elif kind == 4 and m is not None and r.random() < 0.3:  # commit
        apply_effect(cs, ("commit", m), committed)
    elif kind == 5 and m is not None and cs.histories[m]:  # undo
        apply_effect(cs, ("undo", m, cs.histories[m][-1]), committed)
    elif kind == 6:  # registration
        idle = [n for n in machines if n not in cs.histories]
        if idle:
            apply_effect(cs, ("register", r.choice(idle)), committed)


# Each seed kills a Tarjan pass that lowers a low-link through a machine of
# a closed component; seeds 0, 8, 10 and 11 also kill one that does not pass
# a machine's low-link up to its parent.
@pytest.mark.parametrize("seed", [5, 0, 8, 10, 11])
def test_kept_wait_graph_matches_reference_under_random_changes(seed):
    r = random.Random(seed)
    compared = dead_seen = 0
    for _ in range(60):
        machines = [f"m{i}" for i in range(r.randint(2, 10))]
        locations = [loc(f"x{i}") for i in range(r.randint(3, 8))]
        cs = fresh(machines[:r.randint(1, len(machines))])
        committed = []
        for _ in range(150):
            _random_op(r, cs, machines, locations, committed)
            # Let changes pile up between some searches, as in interleave
            # mode, where the controller does not act every step.
            assert list(cs.pending.items()) == pending(cs)
            if r.random() < 0.6:
                dead = deadlocked(cs)
                assert dead == _reference(cs)
                assert_out_sets_are_blockers(cs)
                compared += 1
                dead_seen += bool(dead)
    assert compared > 5000 and dead_seen > 200


def test_kept_wait_graph_follows_request_effects():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    assert deadlocked(cs) == {"a", "b"}
    pair_a, free = cs.requests["a"].pair, pair(w=("free",))
    request(cs, "a", free)
    apply_effect(cs, ("grant", "a", free), [])
    assert deadlocked(cs) == frozenset()
    request(cs, "a", pair_a)
    apply_effect(cs, ("refuse", "a", pair_a), [])
    assert deadlocked(cs) == {"a", "b"}
    apply_effect(cs, ("commit_request", "b"), [])  # drops b's request
    assert deadlocked(cs) == frozenset()


def test_kept_wait_graph_follows_lock_table_changes():
    """A grant, an undo and a commit change which machines hold x; the kept
    graph follows each, also for a, whose own request never changes."""
    cs = fresh(("a", "b", "c"))
    take(cs, "a", pair(w=("y",)))
    take(cs, "b", pair(w=("x",)))
    request(cs, "a", pair(r=("x",)))
    request(cs, "b", pair(r=("y",)))
    assert deadlocked(cs) == {"a", "b"}
    apply_effect(cs, ("undo", "b", cs.histories["b"][-1]), [])  # b drops x
    assert deadlocked(cs) == frozenset()
    assert cs.wait_graph.out == {"b": {"a"}}
    take(cs, "c", pair(r=("x",)))  # a read lock blocks no read
    assert deadlocked(cs) == frozenset()
    assert cs.wait_graph.out == {"b": {"a"}}
    take(cs, "c", pair(w=("x",)))  # the upgrade blocks a
    assert deadlocked(cs) == frozenset()
    assert cs.wait_graph.out == {"a": {"c"}, "b": {"a"}}
    apply_effect(cs, ("commit", "c"), [])
    assert deadlocked(cs) == frozenset()
    assert cs.wait_graph.out == {"b": {"a"}}


def test_wait_graph_keeps_one_and_true_apart():
    # m1 holds f(1) and waits for f(true); m0 holds f(true) and waits for
    # f(2): nobody waits for m1, so there is no cycle.
    cs = fresh(("m0", "m1", "m2"))
    cs.locks.grant("m1", LockPair(w_loc=frozenset({loc("f", 1)})))
    cs.locks.grant("m0", LockPair(w_loc=frozenset({loc("f", TRUE)})))
    cs.locks.grant("m2", LockPair(w_loc=frozenset({loc("f", 2)})))
    request(cs, "m1", LockPair(r_loc=frozenset({loc("f", TRUE)})))
    request(cs, "m0", LockPair(r_loc=frozenset({loc("f", 2)})))
    assert deadlocked(cs) == frozenset()
    assert cs.wait_graph.out == {"m1": {"m0"}, "m0": {"m2"}}


def _held(table):
    """Per machine, the kind of lock it holds on each location."""
    out = {}
    for l, ms in table.r_locked.items():
        for m in ms:
            out.setdefault(m, {})[l] = "r"
    for l, m in table.w_locked.items():
        out.setdefault(m, {})[l] = out.get(m, {}).get(l, "") + "w"
    return out


def _needs(request):
    return None if request is None or request.status == GRANTED else request.pair


def test_an_effect_marks_a_machine_iff_its_needed_locks_change():
    """Each effect kind is applied at least once.  An effect adds a machine
    to `wait_graph.changed` if and only if it changes the machine's pair or
    whether its request is granted.  A grant, an undo and a commit record
    in `wait_graph.holders`, by machine, the locations where that machine's
    locks changed; no other effect records any."""
    entry = HistoryEntry(saved=(), locks=pair(w=("y",)))
    effects = [  # and whether each marks its machine
        (("register", "c"), False),
        (("lock_request", "a", pair(r=("x",))), True),
        (("refuse", "a", pair(r=("x",))), False),
        (("lock_request", "a", pair(r=("x",))), False),  # the refused pair
        (("withdraw_request", "a"), False),
        (("lock_request", "a", pair(w=("y",))), True),
        (("grant", "a", pair(w=("y",))), True),
        (("append_history", "a", entry), False),
        (("victimize", "a"), False),
        (("unvictimize", "a"), False),
        (("undo", "a", entry), False),
        (("lock_request", "a", pair(w=("z",))), True),  # was granted
        (("grant", "a", pair(w=("z",))), True),
        (("commit_request", "a"), False),  # drops a granted record
        (("commit", "a"), False),
        (("lock_request", "b", pair(w=("q",))), True),
        (("refuse", "b", pair(w=("q",))), False),
        (("commit_request", "b"), True),  # drops a refused record
        (("commit", "b"), False),
    ]
    cs = _blocked_by_b()
    for effect, marks in effects:
        before, held = dict(cs.requests), _held(cs.locks)
        cs.wait_graph.changed.clear()
        cs.wait_graph.holders.clear()
        apply_effect(cs, effect, [])
        needs_changed = {m for m in before.keys() | cs.requests.keys()
                         if _needs(before.get(m)) != _needs(cs.requests.get(m))}
        assert cs.wait_graph.changed == needs_changed, effect
        assert needs_changed == ({effect[1]} if marks else set()), effect
        now = _held(cs.locks)
        moved = {m: {l for l in held.get(m, {}).keys() | now.get(m, {}).keys()
                     if held.get(m, {}).get(l) != now.get(m, {}).get(l)}
                 for m in held.keys() | now.keys()}
        assert cs.wait_graph.holders == {m: ls for m, ls in moved.items()
                                         if ls}, effect
        if effect[0] in ("grant", "undo", "commit"):
            assert cs.wait_graph.holders, effect
    assert cs.histories["c"] == []
    applied = re.findall(r'kind == "(\w+)"', inspect.getsource(apply_effect))
    assert {e[0] for e, _ in effects} == set(applied)


# -- one request record per machine, changed by effects ----------------------


def _blocked_by_b():
    """a and b active; b holds the write lock on x."""
    cs = fresh(("a", "b"))
    cs.locks.grant("b", pair(w=("x",)))
    return cs


def _record_and_edges(cs, machine):
    assert deadlocked(cs) == _reference(cs)
    return cs.requests.get(machine), wait_edges(cs)


def test_lock_request_effect_queues_a_pending_record():
    cs = _blocked_by_b()
    apply_effect(cs, ("lock_request", "a", pair(r=("x",))), [])
    assert _record_and_edges(cs, "a") == (Request(pair(r=("x",)), PENDING),
                                          {("a", "b")})
    assert pending(cs) == [("a", pair(r=("x",)))]


def test_read_refusal_and_withdrawn_request_keep_waiting():
    for answer in (("refuse", "a", pair(r=("x",))), ("withdraw_request", "a")):
        cs = _blocked_by_b()
        request(cs, "a", pair(r=("x",)))
        apply_effect(cs, answer, [])
        assert _record_and_edges(cs, "a") == (
            Request(pair(r=("x",)), REFUSED), {("a", "b")})
        assert pending(cs) == []


def test_read_grant_keeps_the_record_out_of_the_wait_relation():
    cs = _blocked_by_b()
    request(cs, "a", pair(w=("y",)))
    apply_effect(cs, ("grant", "a", pair(w=("y",))), [])
    assert _record_and_edges(cs, "a") == (Request(pair(w=("y",)), GRANTED),
                                          frozenset())
    assert w_holder(cs.locks, loc("y")) == "a"
    assert pending(cs) == []


def test_commit_request_effect_drops_the_record():
    cs = _blocked_by_b()
    request(cs, "a", pair(r=("x",)))
    apply_effect(cs, ("refuse", "a", pair(r=("x",))), [])
    apply_effect(cs, ("commit_request", "a"), [])
    assert _record_and_edges(cs, "a") == (None, frozenset())
    assert cs.commit_requests == {"a"}
    cs.check_invariants()


def test_append_history_effect_keeps_the_record_and_sets_the_ordinal():
    cs = _blocked_by_b()
    request(cs, "a", pair(r=("x",)))
    record = cs.requests["a"]
    assert next_ordinal(cs.histories["a"]) == 0
    proper = HistoryEntry(saved=(), locks=pair(), origin_step=3, ordinal=0)
    lock_only = HistoryEntry(saved=(), locks=pair(w=("z",)))
    apply_effect(cs, ("append_history", "a", proper), [])
    assert next_ordinal(cs.histories["a"]) == 1
    apply_effect(cs, ("append_history", "a", lock_only), [])
    assert cs.histories["a"] == [proper, lock_only]
    assert next_ordinal(cs.histories["a"]) == 1  # lock-only: no ordinal
    assert cs.requests["a"] is record
    assert _record_and_edges(cs, "a")[1] == {("a", "b")}
    apply_effect(cs, ("undo", "a", lock_only), [])
    assert next_ordinal(cs.histories["a"]) == 1
    apply_effect(cs, ("undo", "a", proper), [])
    assert next_ordinal(cs.histories["a"]) == 0


def test_unknown_effect_kind_is_an_error():
    cs = _blocked_by_b()
    with pytest.raises(ValueError, match="unknown effect"):
        apply_effect(cs, ("lock_requested", "a", pair(r=("x",))), [])
    assert cs.requests == {}


def _requests_out_of_id_order():
    """m2, m0 and m3 request in that order; m0 is refused, reads the
    refusal and asks again, so it moves to the back: m2, m3, m0."""
    cs = fresh(("m0", "m1", "m2", "m3"))
    for m in ("m2", "m0", "m3"):
        request(cs, m, pair(w=(f"x{m}",)))
    apply_effect(cs, ("refuse", "m0", pair(w=("xm0",))), [])
    assert [m for m, _ in pending(cs)] == ["m2", "m3"]
    request(cs, "m0", pair(w=("xm0",)))
    return cs


def test_lock_policies_select_by_request_order_or_id():
    cs = _requests_out_of_id_order()
    queue = ["m2", "m3", "m0"]
    assert [m for m, _ in pending(cs)] == queue

    def picked(policy, r):
        ((kind, machine, locks),) = handle_locks(cs, r, policy)
        assert kind == "grant" and locks == pair(w=(f"x{machine}",))
        return machine

    assert picked("fifo", draw()) == "m2"
    assert picked("lowest-id", draw()) == "m0"
    picks = [picked("random", random.Random(s).randrange) for s in range(12)]
    assert picks == [queue[random.Random(s).randrange(3)] for s in range(12)]
    assert set(picks) == set(queue)


# -- recovery --------------------------------------------------------------


def test_recovery_unvictimizes_when_cycle_gone():
    cs = fresh(("a",))
    cs.victims.add("a")
    assert recovery_step(cs, draw(), deadlocked(cs)) == [("unvictimize", "a")]


def test_recovery_undoes_youngest_entry():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    cs.victims.add("a")
    old = HistoryEntry(saved=((loc("s"), 1),), locks=pair(w=("old",)),
                       origin_step=2, ordinal=0)
    young = HistoryEntry(saved=((loc("p"), 0), (loc("s"), 3)),
                         locks=pair(w=("new",)), origin_step=5, ordinal=1)
    cs.histories["a"] = [old, young]
    cs.locks.grant("a", young.locks)
    effects = recovery_step(cs, draw(), deadlocked(cs))
    assert effects == [("undo", "a", young)]
    assert effects[0][2] is young  # the engine restores young.saved
    apply_effect(cs, effects[0], [])
    assert cs.histories["a"] == [old]
    assert w_holder(cs.locks, loc("new")) is None
    with pytest.raises(EmptyHistory):  # young is no longer the youngest
        apply_effect(cs, effects[0], [])


def test_deadlocked_victim_with_no_history_is_an_error():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    cs.victims.add("a")
    cs.histories["a"] = []
    with pytest.raises(EmptyHistory):
        recovery_step(cs, draw(), deadlocked(cs))


def test_invariant_flags_commit_while_requesting():
    cs = fresh()
    apply_effect(cs, ("commit_request", "m0"), [])
    request(cs, "m0", pair(r=("x",)))
    with pytest.raises(LockInvariantViolation):
        cs.check_invariants()
