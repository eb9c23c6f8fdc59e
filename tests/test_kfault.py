"""Counter-tree bookkeeping and the gate-operand oracles.

The per-gate predictions asserted here were computed by hand from the tree
rules (window population minus foreign frames during a fault round, frozen
round counts corrected by the auxiliaries one round later, plain headcounts
after that) before the tree code ran, using the same two runs the ring
golden tables cover.
"""

from __future__ import annotations

from itertools import islice

from ttpmem.checker import kfault_scenarios
from ttpmem.kfault import (
    CounterTree,
    counting_gate_checks,
    expected_counter_count,
    tree_gate_checks,
)
from ttpmem.ring import FaultSpec, IntegrationSpec, Ring, Scenario, SlotEvent

SINGLE_FAULT = Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({2})),))
CASCADE = Scenario(
    n=4, rounds=3,
    faults=(FaultSpec(0, frozenset({2, 3})), FaultSpec(2, frozenset())),
)


def gates(ring: Ring):
    checks = tree_gate_checks(ring)
    for c in checks:
        if not c.ok:
            print(f"slot {c.slot} s{c.sid}: predicted {c.predicted}, ring {c.actual}")
    return checks


def test_single_fault_gate_predictions():
    ring = Ring(SINGLE_FAULT).run()
    checks = gates(ring)
    assert [(c.slot, c.sid, c.predicted) for c in checks] == [
        (0, 0, (4, 0)),
        (1, 1, (3, 1)),
        (2, 2, (3, 1)),
        (3, 3, (2, 2)),
        (4, 0, (2, 1)),
        (5, 1, (1, 2)),
        (6, 2, (2, 0)),
        (8, 0, (2, 0)),
        (10, 2, (2, 0)),
    ]
    assert all(c.ok for c in checks)


def test_cascade_gate_predictions():
    ring = Ring(CASCADE).run()
    checks = gates(ring)
    assert [(c.slot, c.sid, c.predicted) for c in checks] == [
        (0, 0, (4, 0)),
        (1, 1, (3, 1)),
        (2, 2, (3, 1)),   # evaluated before the second fault strikes
        (3, 3, (2, 2)),
        (4, 0, (1, 2)),
        (5, 1, (1, 1)),
        (6, 2, (1, 0)),
        (10, 2, (1, 0)),
    ]
    assert all(c.ok for c in checks)


def test_counting_oracle_agrees_with_tree_on_one_fault():
    for scenario in (
        SINGLE_FAULT,
        Scenario(n=5, rounds=4, faults=(FaultSpec(2, frozenset({3, 4})),)),
        Scenario(n=5, rounds=4, faults=(FaultSpec(7, frozenset({0})),)),
    ):
        ring = Ring(scenario).run()
        simple = counting_gate_checks(ring)
        tree = tree_gate_checks(ring)
        assert [(c.slot, c.sid, c.predicted) for c in simple] == \
               [(c.slot, c.sid, c.predicted) for c in tree]
        assert all(c.ok for c in simple)


def fault_event(slot: int, owner: int, accepted: tuple) -> SlotEvent:
    return SlotEvent(
        slot=slot, owner=owner, owner_loc="agree", emitted=True,
        gate=None, departed=(), accepted=accepted,
    )


def test_four_fault_split_labels():
    # four synthetic splits on a five-station ring; the second fault hits
    # the same emitter again, the third a station of the untouched class
    tree = CounterTree(5)
    tree.observe(fault_event(0, 0, (1,)))
    tree.observe(fault_event(1, 0, ()))
    tree.observe(fault_event(2, 2, (3,)))
    tree.observe(fault_event(3, 1, ()))
    assert tree.label == {0: "1100", 1: "1001", 2: "0010", 3: "0010", 4: "0000"}
    leaves = tree.levels[-1]
    assert set(leaves) == {"1100", "1001", "1000", "0010", "0000"}
    # the class that emptied out is still carried, with population zero
    assert leaves["1000"][0] == 0
    assert [leaves[w][0] for w in ("1100", "1001", "0010", "0000")] == [1, 1, 2, 1]
    assert sum(c for c, _d in leaves.values()) == 5


def test_counter_budget_matches_tree_inventory():
    assert expected_counter_count(1) == 9
    assert expected_counter_count(2) == 18
    assert expected_counter_count(4) == 42

    ring = Ring(CASCADE).run()
    tree = CounterTree(4)
    for ev in ring.events:
        tree.observe(ev)
    assert len(tree.counters_in_use()) == expected_counter_count(2)

    tree = CounterTree(5)
    for i, (owner, accepted) in enumerate([(0, (1,)), (0, ()), (2, (3,)), (1, ())]):
        tree.observe(fault_event(i, owner, accepted))
    assert len(tree.counters_in_use()) == expected_counter_count(4)


def test_tree_counts_levels_per_fault():
    ring = Ring(SINGLE_FAULT).run()
    tree = CounterTree(4)
    for ev in ring.events:
        tree.observe(ev)
    assert len(tree.levels) == 1
    assert len(tree.counters_in_use()) == expected_counter_count(1)
    # frozen fault-round totals: two voucher frames, one rejecter frame
    assert tree.levels[0]["1"][1] == 2
    assert tree.levels[0]["0"][1] == 1


def test_tree_refuses_integrating_stations():
    scenario = Scenario(
        n=4, rounds=6,
        faults=(FaultSpec(0, frozenset()),),
        integrations=(IntegrationSpec(0, 8),),
    )
    ring = Ring(scenario).run()
    try:
        tree_gate_checks(ring)
        assert False, "integrating runs are outside the tree's scope"
    except ValueError:
        pass


def test_forked_tree_predicts_like_a_replay_of_the_fresh_run():
    # Feed a tree alongside the ring up to the cascade's second fault, fork
    # both there, and the fork's checks continue the fresh run's replay.
    ring = Ring(Scenario(n=4, rounds=3, faults=CASCADE.faults[:1]), record=False)
    tree = CounterTree(4)
    checks = []
    while ring.slot < CASCADE.faults[1].slot:
        ring.step()
        checks.append(tree.feed(ring.events[-1]))
    fork, forked_tree = ring.fork(CASCADE.faults[1]), tree.fork()
    while fork.slot < CASCADE.total_slots:
        fork.step()
        checks.append(forked_tree.feed(fork.events[-1]))
    assert [c for c in checks if c is not None] == tree_gate_checks(Ring(CASCADE).run())
    # The original tree saw nothing of the fork's slots.
    assert tree.fault_slots == [0] and forked_tree.fault_slots == [0, 2]


def test_tree_is_exact_after_two_faults_have_settled():
    # The sweep stops each k=2 run two rounds after its last fault; running
    # every n=4 chain to the horizon reaches the tree's headcount branch.
    runs = settled = 0
    for sc in kfault_scenarios(4, 2):
        runs += 1
        checks = tree_gate_checks(Ring(sc, record=False).run())
        assert all(c.ok for c in checks), sc
        settled += sum(c.slot >= sc.faults[-1].slot + 2 * sc.n for c in checks)
    assert runs == 664
    assert settled == 3086


def test_cached_sums_match_the_counters_at_every_slot():
    # predict_gate reads each level's total d and the departed stations from
    # caches that observe keeps; after every event they must equal what the
    # levels and the active set hold.  The k=3 chains include the recorded
    # mispredictions, which the caches must leave as they are.
    for n, k, count in ((4, 2, None), (5, 2, 300), (4, 3, 600)):
        for sc in islice(kfault_scenarios(n, k), count):
            tree = CounterTree(n)
            for ev in Ring(sc, record=False).run().events:
                tree.observe(ev)
                assert tree.dsum == [sum(d for _c, d in level.values())
                                     for level in tree.levels], sc
                assert sorted(tree.departed) == sorted(set(range(n)) - tree.active), sc
