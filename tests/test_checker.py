"""State-space exploration, the six membership properties, and the
concrete-versus-abstract sweeps on small rings (the wide parameter ranges
run in the acceptance suite).

One finding is pinned here rather than hidden: with population-honest
bookkeeping on the guess-exit rollover (the convicted sender leaves c1 when
its vacated slot passes), the steady-voucher-count property P3 is simply
false in the tie case.  The winning class can lose its own sender — the
abstract witness ends in the guess-exit transition, and for six stations
the run is concretely realizable.  The property only looks provable if the
exit transition skips the class-counter decrement, and that variant leaks
population and breaks the simulation against the ring.  P4 and the
boundary-scoped properties survive.
"""

from __future__ import annotations

from copy import copy
from dataclasses import fields, is_dataclass, replace
from enum import Enum

import pytest

import ttpmem.checker as checker

from ttpmem.abstraction import (
    abstract_inputs_for_slot,
    abstract_successors,
    abstraction_map,
)
from ttpmem.checker import (
    PropertyVerdict,
    check_P1,
    check_P2,
    check_P3,
    check_P4,
    check_properties,
    cross_check,
    explore,
    x_values,
)
from ttpmem.kfault import CounterTree
from ttpmem.protocol import StationState
from ttpmem.ring import (
    FaultSpec,
    ResourceCap,
    Ring,
    Scenario,
    convergence,
    partition_classes,
)


def test_exploration_reaches_the_settled_ring():
    g = explore(4, 2)
    assert g.states[0].c_in == 4
    settled = [
        s for s in g.states
        if s.fault_seen and s.r == 2 and (s.c1 == 0 or s.c0 == 0)
    ]
    assert settled, "no stabilized state reachable"
    # every explored state has at least one successor: the ring never wedges
    for i, s in enumerate(g.states):
        assert g.edges[i], f"deadlocked state {s}"


def test_explored_paths_replay_from_the_start():
    g = explore(3, 2)
    for i in range(len(g.states)):
        path = g.path(i)
        assert len(path) <= len(g.states)
        if g.states[i].fault_seen:
            assert path[0] == "fault"


def test_x_value_scopes():
    assert x_values(5, "any") == [1, 2, 3, 4, 5]
    assert x_values(5, "majority") == [3, 4, 5]
    assert x_values(5, "tie") == []
    assert x_values(6, "tie") == [3]
    with pytest.raises(ValueError):
        x_values(4, "plurality")


def test_property_verdicts_on_small_rings():
    for n in (3, 4, 5, 6):
        verdicts = {v.prop: v for v in check_properties(n, "any")}
        for prop in ("P1", "P2", "P4", "P6", "P7"):
            print(verdicts[prop].report_line())
            assert verdicts[prop].holds, verdicts[prop].report_line()
        if n % 2 == 1:
            assert verdicts["P3"].holds  # no tie x exists: vacuous
        else:
            assert not verdicts["P3"].holds
            assert verdicts["P3"].witness[-1] == "r1_guess_exit_rollover"


def test_majority_keeps_every_voucher():
    g = explore(5, 3)
    boundary = [
        s for s in g.states if s.fault_seen and s.r == 0 and s.cp == s.n
    ]
    assert boundary
    assert all(s.c1 == 3 for s in boundary)
    assert check_P2(g).holds


def test_tie_race_is_decided_but_the_winner_still_thins():
    for n, x in ((4, 2), (6, 3)):
        g = explore(n, x)
        assert check_P1(g).holds
        assert check_P4(g).holds
        p3 = check_P3(g)
        assert not p3.holds
        assert p3.witness[0] == "fault"
        assert p3.witness[-1] == "r1_guess_exit_rollover"
        assert f"dropped to {x - 1}" in p3.detail


def test_the_p3_counterexample_is_concretely_realizable():
    # Six stations, tie: the sender's two successors reject (slots 1-2),
    # the other two vouchers sit at slots 3-4.  Both checks convict the
    # sender, so it leaves even though its class wins the round.
    sc = Scenario(n=6, rounds=4, faults=(FaultSpec(0, frozenset({3, 4})),))
    ring = Ring(sc)
    pre = abstraction_map(ring)
    taken = []
    trigger_seen = shrunk_after = False
    while ring.slot < sc.total_slots:
        slot = ring.slot
        ring.step()
        post = abstraction_map(ring)
        inp = abstract_inputs_for_slot(ring, slot)
        ev = ring.events[slot]
        match = [
            t for t in abstract_successors(pre, inp)
            if t.post == post and t.emits == ev.emitted
        ]
        assert match, f"slot {slot} not simulated"
        taken.append(match[0].name)
        if pre.fault_seen and pre.d1 == 3 and pre.d0 < 3:
            trigger_seen = True
        if trigger_seen and post.c1 != 3:
            shrunk_after = True
        pre = post
    assert (2, 0, "second_check") in ring.departures
    assert "r1_guess_exit_rollover" in taken
    assert trigger_seen and shrunk_after
    # convergence is untouched: the two surviving vouchers form the clique
    assert convergence(ring).single_clique
    assert partition_classes(ring) == {"1": (3, 4)}


def test_tie_constraint_is_vacuous_on_odd_rings():
    verdicts = check_properties(5, "tie")
    assert all(v.holds for v in verdicts)
    assert any("vacuous" in v.detail for v in verdicts)


def test_literal_guard_variant_changes_no_verdicts():
    for n in (3, 4, 5, 6):
        literal = {v.prop: v.holds for v in check_properties(n, "any",
                                                             literal_guard=True)}
        default = {v.prop: v.holds for v in check_properties(n, "any")}
        assert literal == default


def test_weak_gate_mutant_breaks_convergence():
    verdicts = {v.prop: v for v in check_properties(4, "any", weak_gate=True)}
    assert not verdicts["P1"].holds
    assert not verdicts["P7"].holds
    assert verdicts["P7"].witness, "failure must come with a path"
    assert verdicts["P7"].witness[0] == "fault"


def test_unbudgeted_mutant_overshoots_the_round():
    verdicts = {v.prop: v for v in check_properties(4, "any",
                                                    strengthened=False)}
    broken = [p for p, v in verdicts.items() if not v.holds and p != "P3"]
    assert broken, "dropping the d-guards should break more than P3"
    assert all(verdicts[p].witness for p in broken)


def test_report_lines_are_single_lines():
    v = PropertyVerdict("P1", 4, "any", False, ("fault", "r0_send_fault_round"),
                        "c1=c0=2 at round end")
    line = v.report_line()
    assert "\n" not in line
    assert "FAILS" in line and "witness=2" in line


def test_single_fault_sweep_is_exhaustive_and_clean():
    [result] = cross_check([4])
    assert result.runs == 4 * 2 ** 3
    assert result.shared_tails == 0
    for v in result.verdicts:
        print(v.report_line())
        assert v.holds
    assert {v.prop for v in result.verdicts} == {"NC", "CA", "SIM"}


def test_weak_gate_ring_fails_the_convergence_sweep():
    for k in (1, 2):
        [result] = cross_check([4], k=k, gate="weak")
        if k == 2:
            # chains whose second fault strikes a sender only the weak
            # gate lets through are part of the weak ring's sweep
            assert result.runs == 880
        nc = next(v for v in result.verdicts if v.prop == "NC")
        assert not nc.holds, f"k={k}"
        assert nc.witness, "a concrete counterexample scenario is expected"


def test_two_fault_sweep_is_clean_on_the_smallest_ring():
    [result] = cross_check([4], k=2)
    assert result.runs > 100
    for v in result.verdicts:
        print(v.report_line())
        assert v.holds


def test_two_fault_sweep_respects_its_budget():
    with pytest.raises(ResourceCap):
        cross_check([5], k=2, max_runs=10)


def test_sample_order_and_witness_of_the_three_fault_sweep():
    # The first chains of the walk are sampled in enumeration order; the
    # 125th is the first whose counter tree mispredicts (a recorded k=3
    # defect), and the witness names that chain and the gate.
    [clean] = cross_check([4], k=3, max_runs=124)
    assert all(v.holds for v in clean.verdicts)
    [result] = cross_check([4], k=3, max_runs=125)
    ca = next(v for v in result.verdicts if v.prop == "CA")
    assert not ca.holds
    assert ca.witness == ("n = 4", "rounds = 6", "fault slot=0 accept=",
                          "fault slot=3 accept=", "fault slot=5 accept=",
                          "slot 6 s2")
    assert ca.detail == "predicted (1, 3), ring held (1, 2)"


def test_a_mismatch_on_a_shared_prefix_names_the_first_chain_through_it(monkeypatch):
    # Skew the abstraction at slot 2 of the fault-free prefix: chains that
    # fault at slot 0 or 1 never run that prefix slot, so the witness is the
    # first chain that does, whose fault is at slot 2.
    real = checker.abstraction_map

    def skewed(ring):
        s = real(ring)
        return replace(s, tg=s.tg + 1) if ring.slot == 2 and not s.fault_seen else s

    monkeypatch.setattr(checker, "abstraction_map", skewed)
    [result] = cross_check([4])
    sim = next(v for v in result.verdicts if v.prop == "SIM")
    assert not sim.holds
    assert sim.witness == ("n = 4", "rounds = 4", "fault slot=2 accept=", "slot 1")


def test_shared_tails_judge_as_their_full_runs(monkeypatch):
    # A chain whose tail is taken from an earlier sibling is also run in
    # full, from a copy made before its fault slot: the full run must end in
    # the stored classes, clique verdict and active set, and meet the same
    # first mismatches.  The k=3 sweep runs on past its first CA mismatch,
    # so it also shares tails of chains whose counter tree was dropped.
    real = checker._tail
    reused = 0

    def checked(path, end, tails):
        nonlocal reused
        # What a step changes is copied; the rest is immutable.
        ring = copy(path.ring)
        ring.stations = [copy(st) for st in ring.stations]
        ring.labels, ring.events = list(ring.labels), list(ring.events)
        twin = checker._Path(ring, path.tree and path.tree.fork(), None, dict(path.bad))
        judged, bad, shared = real(path, end, tails)
        if shared:
            reused += 1
            full, full_bad, _ = real(twin, end, {})
            assert (full, full_bad) == (judged, bad), path.ring.scenario
        return judged, bad, shared

    monkeypatch.setattr(checker, "_tail", checked)
    for ns, k, gate, max_runs, shared in (
        ([4, 5], 2, "strict", None, [224, 2720]),
        ([4], 2, "weak", None, [408]),
        ([4], 3, "strict", 8000, [2560]),
    ):
        reused = 0
        results = cross_check(ns, k=k, max_runs=max_runs, gate=gate)
        assert [r.shared_tails for r in results] == shared
        assert reused == sum(shared)


def test_single_fault_sweeps_share_no_tail():
    assert [r.shared_tails for r in cross_check(range(3, 8))] == [0] * 5


def _other(value):
    """A value of the same shape as ``value`` that differs from it."""
    if isinstance(value, Enum):
        return next(m for m in type(value) if m is not value)
    if value is None:
        return 0
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return [_other(value[0])] + value[1:] if value else [0]
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _other(value[first])}
    if isinstance(value, set):
        return value ^ {-1}
    if is_dataclass(value):
        name = fields(value)[0].name
        return replace(value, **{name: _other(getattr(value, name))})
    raise TypeError(f"no other value for {value!r}")


def test_the_tail_key_covers_every_field():
    # Changing any one field of a station, the ring's labels, last frame or
    # slot, or any one attribute of the counter tree changes the key under
    # which sibling tails are shared, so a field added later cannot be left
    # out of it.
    sc = Scenario(n=5, rounds=5, faults=(FaultSpec(0, frozenset({1, 2})),
                                         FaultSpec(2, frozenset({1}))))
    ring = Ring(sc, record=False)
    tree = CounterTree(5)
    while ring.slot < 8:
        ring.step()
        tree.feed(ring.events[-1])
    assert tree.departed, "the key must also see a departure"
    names = {f.name for f in fields(StationState)}
    assert set(vars(ring.stations[1])) == names
    targets = [(ring.stations[1], name) for name in sorted(names)]
    targets += [(ring, name) for name in ("labels", "last_frame", "slot")]
    targets += [(tree, name) for name in sorted(vars(tree))]
    for obj, name in targets:
        keys = ring.state_key(), tree.state_key()
        value = getattr(obj, name)
        setattr(obj, name, _other(value))
        assert (ring.state_key(), tree.state_key()) != keys, name
        setattr(obj, name, value)
        assert (ring.state_key(), tree.state_key()) == keys, name
