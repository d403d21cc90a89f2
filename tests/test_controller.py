import itertools
import random

import pytest

from taserial.asm import Location
from taserial.controller import (
    ControllerState,
    EmptyHistory,
    LockInvariantViolation,
    LockTable,
    GRANTED,
    _cycle_members,
    apply_effect,
    blockers,
    cannot_be_granted,
    commit_step,
    deadlock_handler_step,
    deadlocked,
    lock_handler_step,
    recovery_step,
    wait_edges,
    PENDING,
    REFUSED,
)
from taserial.wrapper import HistoryEntry, LockPair


def loc(f, *args):
    return Location(f, tuple(args))


def pair(r=(), w=()):
    return LockPair(frozenset(loc(x) for x in r), frozenset(loc(x) for x in w))


def fresh(machines=("m0", "m1")):
    cs = ControllerState()
    for m in machines:
        cs.transact.add(m)
        cs.histories[m] = []
    return cs


def rng():
    return random.Random(0)


# -- lock table ------------------------------------------------------------


def test_read_locks_are_shared():
    t = LockTable()
    t.grant("a", pair(r=("x",)))
    t.grant("b", pair(r=("x",)))
    assert t.r_holders(loc("x")) == frozenset({"a", "b"})
    t.check()


def test_write_lock_with_foreign_reader_violates():
    t = LockTable()
    t.grant("a", pair(r=("x",)))
    t.grant("b", pair(w=("x",)))
    with pytest.raises(LockInvariantViolation):
        t.check()


def test_upgrade_by_same_machine_is_fine():
    t = LockTable()
    t.grant("a", pair(r=("x",)))
    t.grant("a", pair(w=("x",)))
    t.check()
    assert t.w_holder(loc("x")) == "a"


def test_release_pair_keeps_older_read_lock():
    # regression: undoing a write-upgrade step must not drop the read lock
    # acquired by an earlier, still-recorded step
    t = LockTable()
    t.grant("a", pair(r=("x",)))
    t.grant("a", pair(w=("x",)))
    t.release("a", pair(w=("x",)))
    assert t.w_holder(loc("x")) is None
    assert t.r_holders(loc("x")) == frozenset({"a"})


def test_release_all_clears_both_kinds():
    t = LockTable()
    t.grant("a", pair(r=("x",), w=("y",)))
    t.release_all("a")
    assert t.locked_by("a") == frozenset()


# -- grant rules -----------------------------------------------------------


def test_cannot_be_granted_cases():
    cs = fresh()
    cs.locks.grant("m1", pair(w=("x",), r=("y",)))
    assert cannot_be_granted("m0", pair(r=("x",)), cs)  # W elsewhere
    assert cannot_be_granted("m0", pair(w=("y",)), cs)  # their R blocks our W
    assert not cannot_be_granted("m0", pair(r=("y",)), cs)  # shared read ok
    assert not cannot_be_granted("m1", pair(w=("x",)), cs)  # own lock


def test_committed_holders_do_not_block():
    cs = fresh(("m0",))
    cs.locks.grant("ghost", pair(w=("x",)))  # not in transact
    assert not cannot_be_granted("m0", pair(r=("x",)), cs)


def test_lock_handler_grants_or_refuses():
    cs = fresh()
    cs.locks.grant("m1", pair(w=("x",)))
    cs.lock_requests.append((0, "m0", pair(r=("x",))))
    effects, events = lock_handler_step(cs, rng(), "fifo")
    assert effects[0][0] == "refuse"
    assert events[0]["kind"] == "lock_refuse"
    cs2 = fresh()
    cs2.lock_requests.append((0, "m0", pair(r=("x",))))
    effects2, _ = lock_handler_step(cs2, rng(), "fifo")
    assert effects2[0][0] == "grant"


def test_suspend_mode_never_refuses():
    cs = fresh()
    cs.locks.grant("m1", pair(w=("x",)))
    cs.lock_requests.append((0, "m0", pair(r=("x",))))
    effects, events = lock_handler_step(cs, rng(), "fifo", wait_mode="suspend")
    assert effects == [] and events == []


def test_grant_effect_updates_tables_and_flags():
    cs = fresh()
    cs.lock_requests.append((0, "m0", pair(r=("x",))))
    effects, _ = lock_handler_step(cs, rng(), "fifo")
    apply_effect(cs, effects[0], [])
    assert cs.lock_requests == []
    assert cs.granted["m0"] == pair(r=("x",))
    assert cs.locks.r_holders(loc("x")) == frozenset({"m0"})


def test_commit_releases_everything():
    cs = fresh()
    cs.locks.grant("m0", pair(r=("x",), w=("y",)))
    cs.commit_requests.add("m0")
    committed = []
    effects, events = commit_step(cs, rng(), "lowest-id")
    apply_effect(cs, effects[0], committed)
    assert committed == ["m0"]
    assert "m0" not in cs.transact
    assert cs.locks.locked_by("m0") == frozenset()
    assert events[0]["kind"] == "commit"


def _scan_locked_by(table, machine):
    return frozenset({l for l, ms in table.r_locked.items() if machine in ms}
                     | {l for l, m in table.w_locked.items() if m == machine})


def _scan_w_locked_by(table, machine):
    return frozenset(l for l, m in table.w_locked.items() if m == machine)


def test_lock_index_matches_table_scan():
    r = random.Random(11)
    machines = ["m0", "m1", "m2", "m3"]
    locations = [loc(f"x{i}") for i in range(6)]

    def some():
        return frozenset(l for l in locations if r.random() < 0.3)

    ops = 0
    for _ in range(40):
        table = LockTable()
        for _ in range(60):
            m = r.choice(machines)
            kind = r.randrange(6)
            if kind in (0, 1):
                table.grant(m, LockPair(some(), some()))
            elif kind == 2:
                # write upgrade over the machine's own read locks
                own = [l for l, ms in table.r_locked.items() if m in ms]
                table.grant(m, LockPair(frozenset(),
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
                assert table.w_locked_by(n) == _scan_w_locked_by(table, n)
    assert ops == 2400


def test_release_all_frees_locks_written_into_the_maps():
    t = LockTable()
    t.grant("m0", pair(r=("x",), w=("y",)))
    t.r_locked.setdefault(loc("z"), set()).add("m0")
    t.w_locked[loc("v")] = "m0"
    t.release_all("m0")
    assert t.r_locked == {} and t.w_locked == {}
    assert t.locked_by("m0") == frozenset()


# -- deadlock --------------------------------------------------------------


def _closure_cycle_members(edges):
    """Independent oracle: transitive closure by iterated squaring."""
    nodes = sorted({n for e in edges for n in e})
    reach = {(a, b) for a, b in edges}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(nodes, nodes):
            if (a, b) not in reach:
                if any((a, c) in reach and (c, b) in reach for c in nodes):
                    reach.add((a, b))
                    changed = True
    return frozenset(n for n in nodes if (n, n) in reach)


def _cs_with_edges(edge_list):
    machines = sorted({n for e in edge_list for n in e})
    cs = fresh(machines)
    for i, (a, b) in enumerate(edge_list):
        l = loc(f"e{i}")
        cs.locks.grant(b, LockPair(frozenset(), frozenset({l})))
        prior = cs.last_request.get(a, (pair(), PENDING))[0]
        merged = LockPair(prior.r_loc | {l}, prior.w_loc)
        cs.last_request[a] = (merged, PENDING)
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
    oracle = _closure_cycle_members(edges)
    assert deadlocked(cs) == oracle
    assert bool(oracle) == expect_cycle


def test_wait_edges_require_active_status():
    cs = _cs_with_edges([("a", "b")])
    assert wait_edges(cs) == frozenset({("a", "b")})
    p, _ = cs.last_request["a"]
    cs.last_request["a"] = (p, REFUSED)
    assert wait_edges(cs) == frozenset({("a", "b")})  # refused still waits
    cs.last_request["a"] = (p, "granted")
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
        assert deadlocked(cs) == _closure_cycle_members(wait_edges(cs))


def test_long_cycle_and_chain_need_no_recursion():
    n = 3000
    cycle = [f"c{i}" for i in range(n)]
    chain = [f"h{i}" for i in range(n)]
    edges = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
    edges += [(chain[i], chain[i + 1]) for i in range(n - 1)]
    edges.append((chain[-1], cycle[0]))  # the chain waits on the cycle
    cs = _cs_with_edges(edges)
    assert deadlocked(cs) == frozenset(cycle)


def test_shared_deadlock_set_gives_same_results():
    cs = _cs_with_edges([("a", "b"), ("b", "a"), ("c", "a")])
    cs.histories["a"] = [HistoryEntry(saved=(), locks=pair())]
    dead = deadlocked(cs)
    assert dead == {"a", "b"}


def test_victimize_one_per_cycle():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    cs.histories["a"] = [HistoryEntry(saved=(), locks=pair())]
    cs.histories["b"] = []
    effects, events = deadlock_handler_step(cs, rng(), "shortest-history",
                                            deadlocked(cs))
    assert effects == [("victimize", "b")]  # shortest history loses
    apply_effect(cs, effects[0], [])
    # no new victim while recovery of the first is pending
    effects2, _ = deadlock_handler_step(cs, rng(), "shortest-history",
                                        deadlocked(cs))
    assert effects2 == []


# -- the wait-for graph kept across calls -----------------------------------


def _reference(cs):
    return _cycle_members(wait_edges(cs))


def _random_op(r, cs, machines, locations, committed):
    """One controller-state change of a random kind, made the way the engine
    makes it, or by rewriting a `last_request` entry in place."""
    active = sorted(cs.transact)
    kind = r.choice((0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7))
    m = r.choice(active) if active else None
    if kind == 0 and m is not None:  # request
        some = r.sample(locations, r.randint(1, 2))
        writes = frozenset(l for l in some if r.random() < 0.6)
        pair = LockPair(frozenset(some) - writes, writes)
        cs.lock_requests = [t for t in cs.lock_requests if t[1] != m]
        cs.lock_requests.append((cs.next_order, m, pair))
        cs.next_order += 1
        cs.last_request[m] = (pair, PENDING)
    elif kind in (1, 2) and cs.lock_requests:  # grant or refuse
        order, n, pair = r.choice(cs.lock_requests)
        if cannot_be_granted(n, pair, cs):
            apply_effect(cs, ("refuse", order, n, pair), committed)
        else:
            apply_effect(cs, ("grant", order, n, pair), committed)
            cs.histories[n].append(HistoryEntry(saved=(), locks=pair))
    elif kind == 3 and m in cs.last_request:  # withdraw
        cs.lock_requests = [t for t in cs.lock_requests if t[1] != m]
        cs.last_request[m] = (cs.last_request[m][0], REFUSED)
    elif kind == 4 and m is not None and r.random() < 0.3:  # commit
        cs.lock_requests = [t for t in cs.lock_requests if t[1] != m]
        apply_effect(cs, ("commit", m), committed)
    elif kind == 5 and m is not None and cs.histories[m]:  # undo
        apply_effect(cs, ("undo", m), committed)
    elif kind == 6 and m in cs.last_request:  # rewritten in place
        pair = r.choice([cs.last_request[m][0],
                         LockPair(frozenset(r.sample(locations, 2)))])
        cs.last_request[m] = (pair, r.choice([PENDING, REFUSED, GRANTED]))
    elif kind == 7:  # registration
        idle = [n for n in machines if n not in cs.transact
                and n not in committed]
        if idle:
            n = r.choice(idle)
            cs.transact.add(n)
            cs.histories[n] = []


def test_kept_wait_graph_matches_reference_under_random_changes():
    r = random.Random(5)
    compared = dead_seen = 0
    for _ in range(60):
        machines = [f"m{i}" for i in range(r.randint(2, 10))]
        locations = [loc(f"x{i}") for i in range(r.randint(3, 8))]
        cs = fresh(machines[:r.randint(1, len(machines))])
        committed = []
        for _ in range(150):
            _random_op(r, cs, machines, locations, committed)
            for _, m, pair in cs.lock_requests:
                assert cannot_be_granted(m, pair, cs) == bool(
                    blockers(m, pair, cs))
            # Let changes pile up between some searches, as in interleave
            # mode, where the controller does not act every step.
            if r.random() < 0.6:
                dead = deadlocked(cs)
                assert dead == _reference(cs)
                compared += 1
                dead_seen += bool(dead)
    assert compared > 5000 and dead_seen > 200


def test_kept_wait_graph_sees_in_place_rewrites():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    assert deadlocked(cs) == {"a", "b"}
    pair_a, _ = cs.last_request["a"]
    cs.last_request["a"] = (pair_a, GRANTED)
    assert deadlocked(cs) == frozenset()
    cs.last_request["a"] = (pair_a, REFUSED)
    assert deadlocked(cs) == {"a", "b"}
    del cs.last_request["b"]
    assert deadlocked(cs) == frozenset()


def test_kept_wait_graph_follows_lock_table_changes():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    assert deadlocked(cs) == {"a", "b"}
    held = cs.locks.w_locked_by("b")
    cs.locks.release("b", LockPair(frozenset(), held))
    assert deadlocked(cs) == frozenset()
    cs.locks.grant("b", LockPair(held, frozenset()))  # a read lock blocks no read
    assert deadlocked(cs) == frozenset()
    cs.locks.grant("b", LockPair(frozenset(), held))
    assert deadlocked(cs) == {"a", "b"}


# -- recovery --------------------------------------------------------------


def test_recovery_unvictimizes_when_cycle_gone():
    cs = fresh(("a",))
    cs.victims.add("a")
    effects, events, restores = recovery_step(cs, rng(), deadlocked(cs))
    assert effects == [("unvictimize", "a")]
    assert events[0]["kind"] == "recovered"
    assert restores == frozenset()


def test_recovery_undoes_youngest_entry():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    cs.victims.add("a")
    old = HistoryEntry(saved=((loc("s"), 1),), locks=pair(w=("old",)),
                       origin_step=2, ordinal=0)
    young = HistoryEntry(saved=((loc("s"), 3),), locks=pair(w=("new",)),
                         private_saved=((loc("p"), 0),), origin_step=5, ordinal=1)
    cs.histories["a"] = [old, young]
    cs.locks.grant("a", young.locks)
    effects, events, restores = recovery_step(cs, rng(), deadlocked(cs))
    assert effects == [("undo", "a")]
    assert events[0]["origin_step"] == 5
    assert restores == frozenset({(loc("s"), 3), (loc("p"), 0)})
    apply_effect(cs, effects[0], [])
    assert cs.histories["a"] == [old]
    assert cs.locks.w_holder(loc("new")) is None


def test_deadlocked_victim_with_no_history_is_an_error():
    cs = _cs_with_edges([("a", "b"), ("b", "a")])
    cs.victims.add("a")
    cs.histories["a"] = []
    with pytest.raises(EmptyHistory):
        recovery_step(cs, rng(), deadlocked(cs))


def test_invariant_flags_commit_while_requesting():
    cs = fresh()
    cs.commit_requests.add("m0")
    cs.lock_requests.append((0, "m0", pair(r=("x",))))
    with pytest.raises(LockInvariantViolation):
        cs.check_invariants()
