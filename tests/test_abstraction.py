"""Counter-automaton behaviour, and its agreement with mapped ring runs.

Expected abstract states for the mapped runs were worked out by hand from
the counter definitions (class populations from the labels, d-counters from
the slot outcomes of the current round) before running the map.
"""

from __future__ import annotations

from itertools import product
from typing import List

from ttpmem.abstraction import (
    AbstractInputs,
    AbstractState,
    AbstractTransition,
    abstract_init,
    abstract_inputs_for_slot,
    abstract_successors,
    abstraction_map,
    conserves_population,
)
from ttpmem.checker import explore, kfault_scenarios
from ttpmem.ring import FaultSpec, IntegrationSpec, Ring, Scenario


def names(transitions):
    return sorted(t.name for t in transitions)


def test_initial_state_counts_future_sender():
    s = abstract_init(4)
    assert s.c0 == 0 and s.cf == 0
    # the eventual faulty sender is pre-booked as a voucher that already sent
    assert s.c1 == 1 and s.d1 == 1
    assert s.cp == 1 and s.r == 0 and not s.fault_seen


def test_fault_transition_splits_population():
    s = abstract_init(4)
    out = abstract_successors(s, AbstractInputs(x=2))
    assert names(out) == ["fault"]
    post = out[0].post
    assert out[0].emits
    assert post.c1 == 2 and post.c0 == 2 and post.cf == 0
    assert post.fault_seen
    assert post.population() == 4


def test_a_fault_input_beyond_the_ring_is_refused():
    s = abstract_init(4)
    assert names(abstract_successors(s, AbstractInputs(x=4))) == ["fault"]
    for x in (5, -1):
        try:
            abstract_successors(s, AbstractInputs(x=x))
            assert False, f"x={x} should be refused"
        except ValueError as e:
            assert str(e) == f"fault input needs 1 <= x <= n, got x={x}"


def test_tick_is_a_self_loop():
    s = abstract_init(5)
    out = abstract_successors(s, AbstractInputs())
    assert names(out) == ["tick"]
    assert out[0].post == s


# A state one slot before the round boundary, matching the single-fault
# reference run with two vouchers and one rejecter left:
BOUNDARY = AbstractState(
    n=4, c0=1, c1=2, cf=1,
    cp=4, r=0, d0=1, d1=2, df=1,
    fault_seen=True,
)


def test_rollover_choices_without_g():
    out = abstract_successors(BOUNDARY, AbstractInputs())
    assert names(out) == ["idle_rollover", "r0_fail_rollover", "r1_send_rollover"]
    by_name = {t.name: t for t in out}
    send = by_name["r1_send_rollover"].post
    assert (send.cp, send.r, send.d1, send.d0, send.df) == (1, 1, 1, 0, 0)
    assert (send.c1, send.c0, send.cf) == (2, 1, 1)
    fail = by_name["r0_fail_rollover"].post
    assert (fail.c0, fail.cf, fail.df) == (0, 2, 1)
    for t in out:
        assert conserves_population(BOUNDARY, t.post), t.name


def test_g_input_turns_voucher_rollover_into_exit():
    out = abstract_successors(BOUNDARY, AbstractInputs(g=True))
    assert "r1_send_rollover" not in names(out)
    exit_t = next(t for t in out if t.name == "r1_guess_exit_rollover")
    assert not exit_t.emits
    post = exit_t.post
    assert (post.c1, post.cf, post.df) == (1, 2, 1)
    assert post.g_exit and post.r == 1


def test_failed_voucher_rollover_still_records_g():
    weak_voucher = BOUNDARY._replace(c0=2, c1=1, cf=1, d0=1, d1=1)
    out = abstract_successors(weak_voucher, AbstractInputs(g=True))
    t = next(t for t in out if t.name == "r1_fail_rollover")
    assert t.post.g_exit and t.post.c1 == 0


def test_budget_guard_stops_extra_sends():
    # both rejecters already sent this round: no further rejecter slot
    s = BOUNDARY._replace(cp=3, c0=2, c1=1, cf=1, d0=2, d1=1, df=0)
    out = abstract_successors(s, AbstractInputs())
    assert all(not t.name.startswith("r0_") for t in out)
    relaxed = abstract_successors(s, AbstractInputs(), strengthened=False)
    assert any(t.name.startswith("r0_") for t in relaxed)


REFERENCE = Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({2})),))


def test_map_of_reference_run_before_rollover():
    ring = Ring(REFERENCE).run_until(4)
    assert abstraction_map(ring) == AbstractState(
        n=4, c0=1, c1=2, cf=1,
        cp=4, r=0, d0=1, d1=2, df=1,
        fault_seen=True, g_exit=False,
    )


# Only s3 accepts the corrupted frame, so both successors of the sender
# reject it and the sender leaves at slot 2, before its own slot comes up.
CONVICTED = Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({3})),))


def test_map_defers_convicted_sender_until_its_slot():
    ring = Ring(CONVICTED).run_until(4)
    assert (0, "second_check") in [(sid, kind) for _, sid, kind in ring.departures]
    s = abstraction_map(ring)
    # the sender is long gone, but stays booked as a voucher until slot 4
    assert s.c1 == 1 and s.c0 == 2 and s.cf == 1
    assert (s.cp, s.r, s.d0, s.d1, s.df) == (4, 0, 2, 1, 1)
    assert not s.g_exit

    ring.run_until(5)
    s = abstraction_map(ring)
    assert s.c1 == 0 and s.cf == 2
    assert (s.cp, s.r, s.df) == (1, 1, 1)
    assert s.g_exit


def test_inputs_raise_g_exactly_at_senders_vacated_slot():
    ring = Ring(CONVICTED).run_until(5)
    assert abstract_inputs_for_slot(ring, 0) == AbstractInputs(x=2)
    assert abstract_inputs_for_slot(ring, 3) == AbstractInputs()
    assert abstract_inputs_for_slot(ring, 4) == AbstractInputs(g=True)


def simulate_whole_run(scenario: Scenario) -> list:
    """Map the ring before and after every slot and find a matching
    abstract transition; returns the transition names taken."""
    ring = Ring(scenario)
    pre = abstraction_map(ring)
    taken = []
    while ring.slot < scenario.total_slots:
        slot = ring.slot
        ring.step()
        post = abstraction_map(ring)
        inp = abstract_inputs_for_slot(ring, slot)
        ev = ring.events[slot]
        matches = [
            t for t in abstract_successors(pre, inp)
            if t.post == post and t.emits == ev.emitted
        ]
        if not matches:
            print(f"slot {slot}: no abstract step")
            print(f"  pre : {pre}")
            print(f"  post: {post}")
            print(f"  inputs: {inp}")
        assert matches, f"unsimulated slot {slot}"
        taken.append(matches[0].name)
        pre = post
    return taken


def test_reference_run_is_simulated_step_by_step():
    taken = simulate_whole_run(REFERENCE)
    assert taken[0] == "fault"
    assert taken[4] == "r1_send_rollover"
    assert "idle_slot" in taken


def test_convicted_sender_run_is_simulated_step_by_step():
    taken = simulate_whole_run(CONVICTED)
    # the sender's slot passes silently and flips the g_exit flag
    assert taken[4] == "r1_fail_rollover"


def test_map_is_undefined_beyond_its_scope():
    two_faults = Scenario(
        n=4, rounds=3,
        faults=(FaultSpec(0, frozenset({2, 3})), FaultSpec(2, frozenset())),
    )
    ring = Ring(two_faults).run_until(4)
    try:
        abstraction_map(ring)
        assert False, "two faults should not be mappable"
    except ValueError:
        pass

    integ = Scenario(
        n=4, rounds=6,
        faults=(FaultSpec(0, frozenset()),),
        integrations=(IntegrationSpec(0, 8),),
    )
    ring = Ring(integ).run_until(9)
    try:
        abstraction_map(ring)
        assert False, "integration should not be mappable"
    except ValueError:
        pass


def test_successor_and_mapped_states_keep_r_within_its_bound():
    # The rules and the map both bound r at 2 (= two or more rounds); a
    # state past it would make the explored graph grow with the horizon.
    states = []
    for n in range(3, 7):
        for x in range(1, n + 1):
            g = explore(n, x)
            states += g.states
            for s in g.states:
                for inp in (AbstractInputs(x=x), AbstractInputs(g=False),
                            AbstractInputs(g=True)):
                    states += [t.post for t in abstract_successors(s, inp)]
    for n in range(3, 6):
        for sc in kfault_scenarios(n, 1):
            ring = Ring(sc, record=False)
            states.append(abstraction_map(ring))
            while ring.slot < sc.total_slots:
                ring.step()
                states.append(abstraction_map(ring))
    for s in states:
        assert 0 <= s.r <= 2, s


# The automaton as first written: one branch per transition, each testing its
# full guard, kept as the reference that the mirrored rules must reproduce.
def reference_successors(
    s: AbstractState,
    inp: AbstractInputs,
    *,
    weak_gate: bool = False,
    strengthened: bool = True,
    literal_guard: bool = False,
) -> List[AbstractTransition]:
    """All slot-steps enabled at ``s`` under the given inputs."""

    def gate(acc_like: int, fail_like: int) -> bool:
        return acc_like >= fail_like if weak_gate else acc_like > fail_like

    def budget(d: int, c: int) -> bool:
        # d-strengthening: only c-d members of a class still have a slot
        # left this round.  The mutant drops the constraint.
        return d < c if strengthened else True

    def exhausted(d: int, c: int) -> bool:
        return d == c if strengthened else True

    out: List[AbstractTransition] = []

    def add(name: str, emits: bool, **changes) -> None:
        out.append(AbstractTransition(name, emits, s._replace(**changes)))

    # -- before the fault ---------------------------------------------------
    if not s.fault_seen:
        if inp.x:
            if not 1 <= inp.x <= s.n:
                raise ValueError(f"fault input needs 1 <= x <= n, got x={inp.x}")
            add("fault", True, c1=inp.x, c0=s.n - inp.x, fault_seen=True)
        else:
            add("tick", True)
        return out

    mid = s.cp < s.n
    roll = s.cp == s.n

    # -- rejecter-class slots ----------------------------------------------
    if s.c0 > 0:
        if mid and budget(s.d0, s.c0) and s.r == 0 and gate(s.c0 + s.c1, 2 * s.d1):
            add("r0_send_fault_round", True, cp=s.cp + 1, d0=s.d0 + 1)
        if mid and budget(s.d0, s.c0) and s.r == 0 and not gate(s.c0 + s.c1, 2 * s.d1):
            add("r0_fail_fault_round", False,
                cp=s.cp + 1, c0=s.c0 - 1, cf=s.cf + 1, df=s.df + 1)
        if mid and budget(s.d0, s.c0) and s.r > 0 and gate(s.c0, s.c1):
            add("r0_send_later_round", True, cp=s.cp + 1, d0=s.d0 + 1)
        if mid and budget(s.d0, s.c0) and s.r > 0 and not gate(s.c0, s.c1):
            add("r0_fail_later_round", False,
                cp=s.cp + 1, c0=s.c0 - 1, cf=s.cf + 1, df=s.df + 1)
        if roll and exhausted(s.d0, s.c0) and gate(s.c0, s.c1):
            add("r0_send_rollover", True,
                cp=1, r=min(s.r + 1, 2), d0=1, d1=0, df=0)
        if roll and exhausted(s.d0, s.c0) and not gate(s.c0, s.c1):
            add("r0_fail_rollover", False,
                cp=1, r=min(s.r + 1, 2), c0=s.c0 - 1, cf=s.cf + 1, d0=0, d1=0, df=1)

    # -- voucher-class slots -------------------------------------------------
    if s.c1 > 0:
        if mid and budget(s.d1, s.c1) and s.r == 0 and gate(s.c0 + s.c1, 2 * s.d0):
            add("r1_send_fault_round", True, cp=s.cp + 1, d1=s.d1 + 1)
        if mid and budget(s.d1, s.c1) and s.r == 0 and not gate(s.c0 + s.c1, 2 * s.d0):
            add("r1_fail_fault_round", False,
                cp=s.cp + 1, c1=s.c1 - 1, cf=s.cf + 1, df=s.df + 1)
        if mid and budget(s.d1, s.c1) and s.r > 0 and gate(s.c1, s.c0):
            # After a silent departure of the faulty sender at the rollover,
            # the first two slots of the new round belong to the stations
            # that rejected it back then; they cannot be voucher sends.
            if literal_guard or not (s.r == 1 and s.g_exit and s.cp in (1, 2)):
                add("r1_send_later_round", True, cp=s.cp + 1, d1=s.d1 + 1)
        if mid and budget(s.d1, s.c1) and s.r > 0 and not gate(s.c1, s.c0):
            add("r1_fail_later_round", False,
                cp=s.cp + 1, c1=s.c1 - 1, cf=s.cf + 1, df=s.df + 1)
        if roll and exhausted(s.d1, s.c1) and gate(s.c1, s.c0):
            if not (s.r == 0 and inp.g):
                add("r1_send_rollover", True,
                    cp=1, r=min(s.r + 1, 2), d1=1, d0=0, df=0)
            else:
                # The faulty sender's own slot, but both successor checks
                # convicted it during the round: it leaves without sending.
                add("r1_guess_exit_rollover", False,
                    cp=1, r=min(s.r + 1, 2), c1=s.c1 - 1, cf=s.cf + 1,
                    d1=0, d0=0, df=1, g_exit=True)
        if roll and exhausted(s.d1, s.c1) and not gate(s.c1, s.c0):
            # With g the sender was already convicted by its successors; the
            # slot is silent either way, but the flag still marks that the
            # two convicting stations own the next two slots.
            add("r1_fail_rollover", False,
                cp=1, r=min(s.r + 1, 2), c1=s.c1 - 1, cf=s.cf + 1, d1=0, d0=0, df=1,
                g_exit=s.g_exit or (s.r == 0 and inp.g))

    # -- slots of failed stations --------------------------------------------
    if s.cf > 0:
        if mid and budget(s.df, s.cf):
            add("idle_slot", False, cp=s.cp + 1, df=s.df + 1)
        if roll and exhausted(s.df, s.cf):
            add("idle_rollover", False, cp=1, r=min(s.r + 1, 2), df=1, d0=0, d1=0)

    return out


def test_successors_match_the_reference_rules_exhaustively():
    # Names, emits, posts and their order: explore's breadth-first witnesses
    # follow the order.  Every reachable state of every variant, also with
    # each other value of r (0, 1 or 2 = two or more).
    calls = 0
    for n, flags in product(range(3, 7), product((False, True), repeat=3)):
        flags = dict(zip(("weak_gate", "strengthened", "literal_guard"), flags))
        for x in range(1, n + 1):
            for s in explore(n, x, **flags).states:
                inputs = ((AbstractInputs(g=False), AbstractInputs(g=True)) if s.fault_seen
                          else (AbstractInputs(x=x),))
                states = [s._replace(r=r) for r in range(3)]
                for state, inp in product(states, inputs):
                    assert abstract_successors(state, inp, **flags) == \
                        reference_successors(state, inp, **flags), (state, inp, flags)
                    calls += 1
    assert calls > 100_000
