"""Counter-tree bookkeeping and the gate-operand oracles.

The per-gate predictions asserted here were computed by hand from the tree
rules (window population minus foreign frames during a fault round, frozen
round counts corrected by the auxiliaries one round later, plain headcounts
after that) before the tree code ran, using the same two runs the ring
golden tables cover.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from ttpmem.checker import kfault_scenarios
from ttpmem.kfault import (
    CounterTree,
    counting_gate_checks,
    expected_counter_count,
    tree_gate_checks,
)
from ttpmem.protocol import Location
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


def test_the_counting_oracle_books_each_station_out_of_its_class_once():
    # The faulty sender s1 leaves at slot 3 and fails to rejoin at slot 16,
    # s2 fails its gate at slot 7 and its rejoin at slot 22: a station that
    # is already gone leaves no class again, so both settled vouchers still
    # hold (2, 0) at every gate after slot 16.
    sc = Scenario(n=5, rounds=8, faults=(FaultSpec(1, frozenset({0, 4})),),
                  integrations=(IntegrationSpec(1, 5), IntegrationSpec(2, 9)))
    ring = Ring(sc).run()
    assert ring.departures == [(3, 1, "second_check"), (7, 2, "gate"), (8, 3, "gate"),
                               (16, 1, "integ_gate"), (22, 2, "integ_gate")]
    checks = counting_gate_checks(ring)
    assert all(c.ok for c in checks)
    assert [c.predicted for c in checks if c.slot > 16] == [(2, 0)] * 9


def fault_event(slot: int, owner: int, accepted: tuple) -> SlotEvent:
    return SlotEvent(
        slot=slot, owner=owner, owner_loc=Location.ACTIVE_AGREE, emitted=True,
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
    assert expected_counter_count(0) == 0
    assert expected_counter_count(1) == 9
    assert expected_counter_count(2) == 18
    assert expected_counter_count(4) == 42

    for scenario, k in ((Scenario(n=4, rounds=2), 0), (CASCADE, 2)):
        tree = CounterTree(4)
        for ev in Ring(scenario).run().events:
            tree.observe(ev)
        assert len(tree.counters_in_use()) == expected_counter_count(k)

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


def reference_predict_gate(tree: CounterTree, sid: int, slot: int):
    """The tree's prediction in its per-station form: the fault round counts
    the working set station by station (the active ones, and the gone ones
    whose last frame is still in the window), and the settled branch counts
    the active stations by label.  The two middle branches are the tree's."""
    n = tree.n
    if not tree.fault_slots:
        return (n, 0)
    j = len(tree.fault_slots)
    w_s = tree.label[sid]
    cp = [slot - fs for fs in tree.fault_slots]
    if cp[-1] < n:  # the two branches that read each level's total d
        dsum = [sum(d for _c, d in level.values()) for level in tree.levels]

    if cp[0] < n:
        working = len(tree.active) + sum(
            1 for gone in set(range(n)) - tree.active if tree.last_emission[gone] > slot - n
        )
        foreign = sum(
            total - counters[w_s[:level]][1]
            for level, (counters, total) in enumerate(zip(tree.levels, dsum), start=1)
        )
        return (working - foreign, foreign)

    if cp[-1] < n:
        i = max(idx for idx in range(j) if cp[idx] >= n) + 1
        acc = sum(tree.levels[l - 1][w_s[:l]][1] for l in range(i, j + 1))
        acc -= sum(tree.aux_a[w] + tree.aux_f[w] for w in tree.aux_a if w[:i] == w_s[:i])
        fail = sum(dsum[l - 1] - tree.levels[l - 1][w_s[:l]][1] for l in range(i, j + 1))
        fail -= sum(tree.aux_a[w] + tree.aux_f[w] for w in tree.aux_a if w[:i] != w_s[:i])
        return (acc, fail)

    if cp[-1] < 2 * n:
        acc = tree.levels[-1][w_s][1] - tree.aux_f[w_s]
        fail = sum(d - tree.aux_f[w] for w, (_c, d) in tree.levels[-1].items() if w != w_s)
        return (acc, fail)

    same = sum(1 for a in tree.active if tree.label[a] == w_s)
    return (same, len(tree.active) - same)


class Unreadable(Mapping):
    """Stands in for a per-station map that a prediction must not read."""

    def __getitem__(self, key):
        raise AssertionError(f"predict_gate read a per-station map at {key!r}")

    def __iter__(self):
        raise AssertionError("predict_gate iterated a per-station map")

    def __len__(self):
        raise AssertionError("predict_gate sized a per-station map")


def test_gate_predictions_read_counters_and_the_owners_class_only():
    # Every chain of k=1..3 at n=4 and k=1..2 at n=5, run to its horizon so
    # that all four branches are reached.  At each gate predict_gate sees
    # only the counters, the owner's label and the owner itself as the
    # active set; it must still give the per-station reference's answer,
    # also on the k=3 chains the tree is known to mispredict.
    predictions = 0
    for n, k in ((4, 1), (4, 2), (4, 3), (5, 1), (5, 2)):
        for sc in kfault_scenarios(n, k):
            tree = CounterTree(n)
            for ev in Ring(sc, record=False).run().events:
                if ev.owner_loc.value in ("in", "agree", "disagree"):
                    assert ev.gate is not None, (sc, ev.slot)  # an active owner gates
                    want = reference_predict_gate(tree, ev.owner, ev.slot)
                    label, active, last = tree.label, tree.active, tree.last_emission
                    tree.label, tree.active = {ev.owner: label[ev.owner]}, {ev.owner}
                    tree.last_emission = Unreadable()
                    try:
                        assert tree.predict_gate(ev.owner, ev.slot) == want, (sc, ev.slot)
                    finally:
                        tree.label, tree.active, tree.last_emission = label, active, last
                    predictions += 1
                tree.observe(ev)
    assert predictions == 219298


def test_the_oracles_refuse_what_they_do_not_cover():
    # The closed form covers one fault only; the tree predicts gates of
    # active stations only.  s3 fails its gate at slot 3 of the single-fault
    # run, so from slot 4 on the tree has no gate to predict for it.
    with pytest.raises(ValueError, match="^counting_gate_checks applies to single-fault runs$"):
        counting_gate_checks(Ring(CASCADE).run())
    ring = Ring(SINGLE_FAULT).run()
    assert ring.departures[0] == (3, 3, "gate")
    tree = CounterTree(4)
    for ev in ring.events[:4]:
        tree.feed(ev)
    assert tree.predict_gate(0, 4) == ring.events[4].gate
    with pytest.raises(ValueError, match="^s3 is not active at slot 4$"):
        tree.predict_gate(3, 4)
