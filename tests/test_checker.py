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

import hashlib
import re

from dataclasses import astuple
from itertools import islice
from pathlib import Path

import pytest

import ttpmem.checker as checker
import ttpmem.ring as ring_module

from ttpmem.abstraction import (
    abstract_init,
    abstract_successors,
    abstraction_map,
    fold_slot,
    start_tally,
)
from ttpmem.checker import (
    PropertyVerdict,
    StateGraph,
    check_properties,
    check_property,
    cross_check,
    explore,
    kfault_scenarios,
    x_values,
)
from ttpmem.kfault import CounterTree, GateCheck
from ttpmem.protocol import SoundnessError
from ttpmem.ring import (
    FaultSpec,
    ResourceCap,
    Ring,
    Scenario,
    convergence,
    partition_classes,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_exploration_reaches_the_settled_ring():
    g = explore(4, 2)
    assert g.states[0] == abstract_init(4)
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


# The explored graphs of each variant: (n, x), the numbers of states and
# edges, and the breadth-first path of the last state found.  The fixture
# was written by explored_graphs() from the automaton whose state also
# carried the slot clocks tg/sg and c_in, so the pin holds the graphs to
# that automaton's.
GRAPH_VARIANTS = (
    ("default", {}, range(3, 11)),
    ("weak_gate", {"weak_gate": True}, range(3, 11)),
    ("literal_guard", {"literal_guard": True}, range(3, 11)),
    ("unstrengthened", {"strengthened": False}, range(3, 8)),
)


def explored_graphs() -> str:
    lines = []
    for name, flags, ns in GRAPH_VARIANTS:
        for n in ns:
            for x in range(1, n + 1):
                g = explore(n, x, **flags)
                assert all(s.r <= 2 for s in g.states)
                # the derived slot position stays within the round, and the
                # classes never hold more stations than the ring
                assert all(1 <= s.cp <= n and s.cf >= 0 for s in g.states)
                lines.append(f"{name} n={n} x={x} states={len(g.states)} "
                             f"edges={sum(map(len, g.edges))} "
                             f"last={' '.join(g.path(len(g.states) - 1))}")
    return "\n".join(lines) + "\n"


def test_explored_graphs_are_pinned():
    assert explored_graphs() == (FIXTURES / "explored_graphs.txt").read_text()


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
    assert check_property("P2", g).holds


def test_tie_race_is_decided_but_the_winner_still_thins():
    for n, x in ((4, 2), (6, 3)):
        g = explore(n, x)
        assert check_property("P1", g).holds
        assert check_property("P4", g).holds
        p3 = check_property("P3", g)
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
    pre, tally = abstraction_map(ring), start_tally(ring.n)
    taken = []
    trigger_seen = shrunk_after = False
    while ring.slot < sc.total_slots:
        ring.step()
        ev = ring.events[-1]
        tally, post, inp = fold_slot(tally, ev)
        match = [
            t for t in abstract_successors(pre, inp)
            if t.post == post and t.emits == ev.emitted
        ]
        assert match, f"slot {ev.slot} not simulated"
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


def _successors_changed(change):
    """The automaton's successors with ``change`` applied to the post-state
    of every step taken after the fault."""
    successors = checker.abstract_successors

    def changed(s, inp, **flags):
        return [t._replace(post=change(t.post)) if s.fault_seen else t
                for t in successors(s, inp, **flags)]

    return changed


def test_exploration_refuses_a_step_past_a_class_budget(monkeypatch):
    # The population is kept, but the rejecters are booked one frame more
    # than they have members; only the budgeted automaton is held to that.
    monkeypatch.setattr(checker, "abstract_successors",
                        _successors_changed(lambda post: post._replace(d0=post.c0 + 1)))
    with pytest.raises(SoundnessError, match=r"^\w+ broke a counter bound: AbstractState\("):
        explore(4, 2)
    assert explore(4, 2, strengthened=False).states


def test_p3_holds_where_no_tie_race_is_decided():
    g = StateGraph(4, 2)
    g.add(abstract_init(4))
    assert check_property("P3", g) == PropertyVerdict("P3", 4, "x=2", True)


def test_exploration_refuses_an_empty_state_budget():
    # check_properties refuses it before calling explore, so explore's own
    # refusal is reached only directly.
    for budget in (0, -1):
        with pytest.raises(ValueError, match=f"^the state budget must be at least 1, "
                                             f"got {budget}$"):
            explore(4, 2, max_states=budget)
    with pytest.raises(ResourceCap, match="^exploration for n=4 x=2 passed 1 states$"):
        explore(4, 2, max_states=1)


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
        [result] = cross_check([4], k=k, weak_gate=True)
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


def _count_steps(monkeypatch):
    """Ring.step calls from now on; the first one also raises, so that a
    sweep that should not have started fails at once."""
    steps = []

    def step(ring):
        steps.append(ring.slot)
        raise AssertionError("a ring stepped")

    monkeypatch.setattr(Ring, "step", step)
    return steps


def test_a_single_fault_sweep_over_its_budget_is_refused_before_any_ring_runs(monkeypatch):
    # A single fault has n * 2**(n-1) chains: 32 at n=4, and 1,114,112 at
    # n=17, over the default budget of a million runs.
    steps = _count_steps(monkeypatch)
    for ns, max_runs, message in (
        ([17], None, "n=17 exceeded the budget of 1000000 runs"),
        ([3, 40], None, "n=40 exceeded"),  # 2**39 alone is over the budget
        ([3, 4, 5], 31, "n=4 exceeded the budget of 31 runs"),
    ):
        with pytest.raises(ResourceCap, match=message):
            cross_check(ns, k=1, max_runs=max_runs)
    assert steps == []
    monkeypatch.undo()
    assert [r.runs for r in cross_check([4], k=1, max_runs=32)] == [32]


def test_a_two_fault_sweep_over_the_default_budget_is_refused(monkeypatch):
    monkeypatch.setattr(checker, "RUN_BUDGET", 663)
    with pytest.raises(ResourceCap, match="n=4 exceeded the budget of 663 runs"):
        cross_check([4], k=2)
    monkeypatch.setattr(checker, "RUN_BUDGET", 664)
    assert [r.runs for r in cross_check([4], k=2)] == [664]


def test_order_and_witness_of_the_exhaustive_three_fault_sweep():
    # The k=3 walk at n=4 runs all 7,420 chains within the default budget,
    # and one run less is a budget overrun, not a shorter walk.  NC holds.
    # CA fails on the recorded k=3 counter-tree defect (ROADMAP item 1):
    # the witness is the first mispredicting chain in walk order, the 125th,
    # and names the gate.
    [result] = cross_check([4], k=3)
    assert result.runs == 7420
    nc, ca = result.verdicts
    assert nc.prop == "NC" and nc.holds
    assert ca.prop == "CA" and not ca.holds
    assert ca.witness == ("n = 4", "rounds = 6", "fault slot=0 accept=",
                          "fault slot=3 accept=", "fault slot=5 accept=",
                          "slot 6 s2")
    assert ca.detail == "predicted (1, 3), ring held (1, 2)"
    chain = next(islice(checker.kfault_scenarios(4, 3), 124, None))
    assert ca.witness[:-1] == tuple(ring_module.scenario_text(chain).splitlines())
    with pytest.raises(ResourceCap, match="^3-fault sweep for n=4 exceeded the "
                                          "budget of 7419 runs$"):
        cross_check([4], k=3, max_runs=7419)


def test_the_exhaustive_four_fault_sweep_converges():
    # The k=4 walk at n=4 runs all 56,092 chains and judges 16,272 of them
    # by a sibling's shared tail.  NC holds on every chain; CA is left
    # unpinned, as it reports the k >= 3 counter-tree defect (ROADMAP item 1).
    [result] = cross_check([4], k=4)
    assert (result.runs, result.shared_tails) == (56092, 16272)
    nc = result.verdicts[0]
    assert nc.prop == "NC" and nc.holds, nc.report_line()


def test_a_mismatch_on_a_shared_prefix_names_the_first_chain_through_it(monkeypatch):
    # Skew the abstraction at slot 2 of the fault-free prefix (the image the
    # fold gives after slot 1): chains that fault at slot 0 or 1 never run
    # that prefix slot, so the witness is the first chain that does, whose
    # fault is at slot 2.
    real = checker.fold_slot

    def skewed(tally, ev):
        tally, s, inp = real(tally, ev)
        return tally, s._replace(df=s.df + 1) if ev.slot == 1 and not s.fault_seen else s, inp

    monkeypatch.setattr(checker, "fold_slot", skewed)
    [result] = cross_check([4])
    sim = next(v for v in result.verdicts if v.prop == "SIM")
    assert not sim.holds
    assert sim.witness == ("n = 4", "rounds = 4", "fault slot=2 accept=", "slot 1")


def test_the_closed_form_mismatch_goes_ahead_of_the_trees(monkeypatch):
    # Both single-fault oracles mispredict on the first chain, the tree
    # already at slot 0: CA reports the closed form's first mismatch.
    monkeypatch.setattr(CounterTree, "predict_gate", lambda tree, sid, slot: (0, 0))
    monkeypatch.setattr(checker, "counting_gate_checks", lambda ring: [
        GateCheck(5, 2, (3, 0), (3, 0)), GateCheck(7, 1, (9, 9), (2, 1))])
    [result] = cross_check([3])
    ca = next(v for v in result.verdicts if v.prop == "CA")
    assert (ca.holds, ca.detail) == (False, "predicted (9, 9), ring held (2, 1)")
    assert ca.witness == ("n = 3", "rounds = 4", "fault slot=0 accept=", "slot 7 s1")


def test_a_single_fault_sweep_without_a_round_one_split_fails_nc(monkeypatch):
    # Were no chain still split one round after its fault, converging within
    # two rounds would show nothing: NC fails, with the ring size as witness.
    monkeypatch.setattr(checker, "partition_classes",
                        lambda ring: {"": tuple(ring.active_ids())})
    [result] = cross_check([4])
    nc, ca, sim = result.verdicts
    assert (nc.prop, nc.holds, nc.witness) == ("NC", False, ("n=4",))
    assert nc.detail == "no scenario was still split after one round; two-round claim untestable"
    assert nc.constraint == "k=1 exhaustive (32 runs, 0 round-1 splits)"
    assert ca.holds and sim.holds


def test_enumerating_the_chains_forks_a_ring_only_at_the_earlier_faults(monkeypatch):
    # kfault_scenarios judges no path, so no ring is forked for a chain's
    # last fault: one fork per chain of k-1 faults, and none for k=1.
    forks = []
    fork = Ring.fork
    monkeypatch.setattr(Ring, "fork", lambda ring, fault: forks.append(fault) or fork(ring, fault))
    for n, k, chains, forked in (*((n, 1, n << (n - 1), 0) for n in range(3, 8)),
                                 (4, 2, 664, 32), (5, 2, 4820, 80), (4, 3, 7420, 696)):
        forks.clear()
        assert sum(1 for _ in kfault_scenarios(n, k)) == chains, (n, k)
        assert len(forks) == forked, (n, k)


def test_shared_tails_judge_as_their_full_runs(monkeypatch):
    # Every chain that takes an earlier sibling's outcome is also run in
    # full, from a fresh ring on its own scenario with a fresh counter tree:
    # the full run must end in the classes, clique verdict and active set it
    # was given, and meet the same first mismatches.  The k=3 sweep runs on
    # past its first CA mismatch, after which it feeds a chain's tree only
    # up to its last fault; so does the full run of such a chain.
    real, fork = checker._chains, checker._Path.fork
    shared = []
    forked = []  # the path forked last: inside a judge, the one it runs

    def fork_kept(path, fault):
        forked[:] = [fork(path, fault)]
        return forked[0]

    def recording(root, k, judge):
        # id of each judged outcome -> (the outcome, its tree watched the
        # tail); holding the outcome keeps its id from being reused
        judged = {}

        def watched(path, fault):
            outcome = judge(path, fault)
            judged[id(outcome)] = (outcome, forked[0].tree is not None)
            return outcome

        yielded = set()
        for faults, outcome in real(root, k, watched):
            yield faults, outcome
            if id(outcome) in yielded:
                sc = Scenario(root.ring.n, k + 3, faults)
                shared.append((sc, *outcome, judged[id(outcome)][1]))
            yielded.add(id(outcome))

    monkeypatch.setattr(checker, "_chains", recording)
    monkeypatch.setattr(checker._Path, "fork", fork_kept)
    for ns, k, weak_gate, max_runs, counts in (
        ([4, 5], 2, False, None, [224, 2720]),
        ([4], 2, True, None, [408]),
        ([4], 3, False, 8000, [2560]),
    ):
        shared.clear()
        results = cross_check(ns, k=k, max_runs=max_runs, weak_gate=weak_gate)
        assert [r.shared_tails for r in results] == counts
        assert len(shared) == sum(counts)
        for sc, judged, bad, fed in shared:
            last = sc.faults[-1].slot
            full = checker._Path(Ring(sc, weak_gate=weak_gate, record=False),
                                 CounterTree(sc.n))
            while full.ring.slot < last + 2 * sc.n:
                if full.ring.slot == last and not fed:
                    full.tree = None
                full.advance()
            assert (convergence(full.ring), full.bad) == (judged, bad), sc


def test_single_fault_sweeps_share_no_tail():
    assert [r.shared_tails for r in cross_check(range(3, 8))] == [0] * 5


def _forks(chains):
    """The walk's fault tuples grouped by fork point, (earlier faults, last
    slot), each with its last faults in the walk's order."""
    forks = {}
    for faults in chains:
        *earlier, fault = faults
        forks.setdefault((tuple(earlier), fault.slot), []).append(fault)
    return forks.items()


def test_accept_sets_step_alike_exactly_when_they_agree_on_the_decisive_receivers():
    # At every last-fault fork point, each accept set is stepped from its
    # own fork: its stations, labels and slot event equal an earlier
    # sibling's exactly when the two accept the same decisive receivers.
    # Probing leaves the ring as it was.  On the k=2 walks the siblings that
    # step alike are the ones the sweep shares.
    for k, weak_gate, chains, shared in ((2, False, None, 224), (2, True, None, 408),
                                         (3, False, 600, None)):
        root = checker._Path(checker._root(4, k, weak_gate))
        walk = (faults for faults, _ in checker._chains(root, k, lambda path, fault: None))
        alike = 0
        for (earlier, slot), faults in _forks(islice(walk, chains)):
            ring = Ring(Scenario(4, k + 3, earlier), weak_gate=weak_gate,
                        record=False).run_until(slot)
            before = _ring_state(ring)
            decisive = ring.decisive_receivers()
            assert _ring_state(ring) == before
            assert decisive <= set(ring.active_ids()) - {slot % 4}
            stepped = []
            for fault in faults:
                child = ring.fork(fault)
                child.step()
                stepped.append((fault.accept & decisive, _ring_state(child)[:2],
                                child.events[-1]))
            for i, (group, state, event) in enumerate(stepped):
                for prev_group, prev_state, prev_event in stepped[:i]:
                    same = (state, event) == (prev_state, prev_event)
                    assert (group == prev_group) == same, (earlier, faults[i])
            alike += len(stepped) - len({group for group, _, _ in stepped})
        if shared is not None:
            assert alike == shared, (k, weak_gate)


def _ring_state(ring):
    return ([astuple(st) for st in ring.stations], list(ring.labels), list(ring.events),
            ring.slot, ring.last_frame, list(ring.warnings))


def test_each_single_fault_sweep_asks_the_automaton_once_per_distinct_step(monkeypatch):
    # SIM looks each slot's step up in the sweep's move table and asks
    # abstract_successors only for a (state, inputs) it has not met, while
    # the ring is still mapped at every slot: one fold step per slot the
    # sweep runs, and one population check at the end of each run.  Every
    # folded post-fault image's frames and silences this round add up to
    # the slots the ring has run since the round started.
    successors, fold, populations = (checker.abstract_successors, checker.fold_slot,
                                     checker.check_populations)
    calls = {"successors": 0, "map": 0}

    def counted_successors(*args, **kwargs):
        calls["successors"] += 1
        return successors(*args, **kwargs)

    def checked_fold(tally, ev):
        calls["map"] += 1
        tally, s, inp = fold(tally, ev)
        if s.fault_seen:  # the derived slot position, against the ring's clock
            assert s.cp == (ev.slot - tally.fault_slot) % tally.n + 1, (ev.slot, s)
        return tally, s, inp

    def counted_populations(ring, tally):
        calls["map"] += 1
        return populations(ring, tally)

    monkeypatch.setattr(checker, "abstract_successors", counted_successors)
    monkeypatch.setattr(checker, "fold_slot", checked_fold)
    monkeypatch.setattr(checker, "check_populations", counted_populations)
    for weak_gate, n, asked, slots, runs in (
        (False, 3, 36, 134, 12), (False, 4, 78, 467, 32), (False, 5, 146, 1444, 80),
        (False, 6, 272, 4133, 192), (False, 7, 396, 11206, 448),
        (True, 4, 75, 467, 32), (True, 5, 146, 1444, 80),
    ):
        calls.update(successors=0, map=0)
        [result] = cross_check([n], weak_gate=weak_gate)
        assert (calls["successors"], calls["map"]) == (asked, slots + runs), (weak_gate, n)
        assert next(v for v in result.verdicts if v.prop == "SIM").holds


def test_a_departure_missing_from_its_event_fails_the_sweep(monkeypatch):
    # Each second-check departure dropped from its SlotEvent: the station
    # still leaves, but the fold, which reads only events, keeps counting
    # it.  On the first chain the faulty sender s0 leaves so, and SIM fails
    # at its vacated slot; the tally still goes on to the run's end, where
    # the stations contradict it.  That is a fault of the map, not of the
    # automaton, so the sweep raises instead of reporting a SIM verdict.
    step = Ring.step

    def dropping(ring):
        step(ring)
        ev = ring.events[-1]
        kept = tuple(d for d in ev.departed if d[1] != "second_check")
        if kept != ev.departed:
            ring.events[-1] = ev._replace(departed=kept)

    monkeypatch.setattr(Ring, "step", dropping)
    with pytest.raises(SoundnessError, match=re.escape(
            "before slot 16 (faults: fault@0->{}) the map counts c0=3 c1=1, but the ring "
            "has 3 rejecters and 0 vouchers active")):
        cross_check([4])


def broken_rule_sweeps() -> str:
    """The report lines and witnesses of the k=1 sweeps for n=3..6 with the
    ``r0_send_later_round`` successors dropped from the automaton, strict
    gate then weak."""
    lines = []
    for gate, weak_gate in (("strict", False), ("weak", True)):
        for result in cross_check(range(3, 7), weak_gate=weak_gate):
            for v in result.verdicts:
                lines += [f"{gate} {v.report_line()}", *(f"  {w}" for w in v.witness)]
    return "\n".join(lines) + "\n"


def test_a_broken_rule_still_shows_after_a_clean_sweep(monkeypatch):
    # A clean sweep first: were its moves kept past the sweep, the broken
    # automaton's sweeps below would be judged against them and pass.  The
    # fixture was written by broken_rule_sweeps() from the checker that
    # asked the automaton at every slot.
    assert all(v.holds for r in cross_check(range(3, 7)) for v in r.verdicts)
    successors = checker.abstract_successors

    def broken(*args, **kwargs):
        return [t for t in successors(*args, **kwargs) if t.name != "r0_send_later_round"]

    monkeypatch.setattr(checker, "abstract_successors", broken)
    assert broken_rule_sweeps() == (FIXTURES / "broken_rule_sweeps.txt").read_text()


def test_sweeps_keep_their_work_and_their_gate_predictions(monkeypatch):
    # A faster sweep must not come from doing less: per sweep, the calls of
    # the ring and counter-tree steps stay as they are, and so does every
    # gate check the tree is fed, known k=3 mispredictions included (the
    # digest covers each (n, slot, sid, predicted, actual) in walk order).
    # Nor from copying more: a tree is forked only for a path that feeds it,
    # so after CA has failed the judge forks none.  A scenario is built for
    # each root ring, each fork and each failed check's witness, never for a
    # chain that only takes a sibling's tail.
    calls = {}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    for owner, name, key in ((Ring, "step", "step"), (Ring, "fork", "fork"),
                             (CounterTree, "fork", "tree_fork"),
                             (CounterTree, "observe", "observe"),
                             (CounterTree, "predict_gate", "predict_gate"),
                             (ring_module, "receive_step", "receive_step"),
                             (Scenario, "__init__", "__init__")):
        counted(owner, name, key)
    feed = CounterTree.feed
    digest = hashlib.sha256()

    def fed(tree, ev):
        c = feed(tree, ev)
        if c is not None:
            digest.update(repr((tree.n, c.slot, c.sid, c.predicted, c.actual)).encode())
        return c

    monkeypatch.setattr(CounterTree, "feed", fed)
    names = ("step", "fork", "observe", "predict_gate", "receive_step", "tree_fork")
    for ns, k, max_runs, work, sha in (
        ([4], 2, None, (3651, 472, 3651, 2851, 5345, 472), "3b1cac7a04bf8655"),
        ([5], 2, None, (21404, 2180, 21404, 17104, 41076, 2180), "11e9452dc900e629"),
        (range(3, 7), 1, None, (6178, 316, 6178, 4934, 15182, 316), "7563be34c73e627e"),
        ([4], 3, 7420, (41667, 5556, 3531, 3093, 47013, 789), "6738fc51413b8a5b"),
    ):
        calls.clear()
        digest = hashlib.sha256()
        results = cross_check(ns, k=k, max_runs=max_runs)
        assert tuple(calls[name] for name in names) == work, (list(ns), k)
        witnesses = sum(not v.holds for r in results for v in r.verdicts)
        assert calls["__init__"] == calls["fork"] + len(ns) + witnesses, (list(ns), k)
        assert digest.hexdigest()[:16] == sha, (list(ns), k)
