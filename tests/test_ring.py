"""Ring simulator tests.

The two reference runs (n=4 single asymmetric fault; n=4 fault cascade) are
frozen below as full per-slot tables — vector, acc, fail for every station —
and the simulator must reproduce them value for value.  The tables were
transcribed by hand before the simulator existed; nothing here was tuned to
the implementation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple
from pathlib import Path

import pytest

from ttpmem.checker import kfault_scenarios
from ttpmem.protocol import Location, SoundnessError, initial_station, vector_str
from ttpmem.ring import (
    FaultSpec,
    IntegrationSpec,
    Ring,
    Scenario,
    ScenarioError,
    convergence,
    parse_scenario,
    partition_classes,
    render_run_tables,
    scenario_text,
    trace_lines,
)

FIXTURES = Path(__file__).parent / "fixtures"

# n=4, fault at slot 0 (sender s0), only s2 receives the frame intact.
SINGLE_FAULT = Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({2})),))

# Expected (vector, acc, fail) per station after each slot.
SINGLE_FAULT_TABLES = {
    0: [("1111", 1, 0), ("0111", 3, 1), ("1111", 3, 0), ("0111", 1, 1)],
    1: [("1011", 1, 1), ("0111", 1, 0), ("1011", 3, 1), ("0111", 2, 1)],
    2: [("1011", 2, 1), ("0101", 1, 1), ("1011", 1, 0), ("0101", 2, 2)],
    3: [("1010", 2, 1), ("0100", 1, 1), ("1010", 1, 0), ("0000", 0, 0)],
    4: [("1010", 1, 0), ("0100", 1, 2), ("1010", 2, 0), ("0000", 0, 0)],
    5: [("1010", 1, 0), ("0000", 0, 0), ("1010", 2, 0), ("0000", 0, 0)],
}

# n=4, two-fault cascade: s0's frame reaches only s2 and s3; then s2's own
# frame at slot 2 reaches nobody intact.
CASCADE = Scenario(
    n=4, rounds=3,
    faults=(FaultSpec(0, frozenset({2, 3})), FaultSpec(2, frozenset())),
)

CASCADE_TABLES = {
    0: [("1111", 1, 0), ("0111", 3, 1), ("1111", 3, 0), ("1111", 2, 0)],
    1: [("1011", 1, 1), ("0111", 1, 0), ("1011", 3, 1), ("1011", 2, 1)],
    2: [("1001", 1, 2), ("0101", 1, 1), ("1011", 1, 0), ("1001", 2, 2)],
    3: [("1000", 1, 2), ("0100", 1, 1), ("1010", 1, 0), ("0000", 0, 0)],
}


def rows(ring: Ring, slot: int):
    rec = ring.records[slot]
    return [(vector_str(m, ring.n), a, f) for (m, a, f, _loc) in rec]


def test_single_fault_reference_tables():
    ring = Ring(SINGLE_FAULT).run()
    for slot, expected in SINGLE_FAULT_TABLES.items():
        got = rows(ring, slot)
        if got != expected:
            print(f"slot {slot}: expected {expected}")
            print(f"slot {slot}: got      {got}")
        assert got == expected, f"mismatch after slot {slot}"


def test_single_fault_departures_and_survivors():
    ring = Ring(SINGLE_FAULT).run()
    # s3 loses its gate on the tie 2 > 2 at slot 3; s1 on 1 > 2 at slot 5.
    assert ring.departures == [(3, 3, "gate"), (5, 1, "gate")]
    assert ring.active_ids() == [0, 2]
    assert all(
        vector_str(ring.station(i).member, 4) == "1010" for i in (0, 2)
    )
    assert convergence(ring).single_clique


def test_single_fault_classes():
    ring = Ring(SINGLE_FAULT)
    ring.run_until(3)
    assert partition_classes(ring) == {"0": (1, 3), "1": (0, 2)}
    ring.run_until(4)  # end of the fault round: s3 is gone, classes remain
    assert partition_classes(ring) == {"0": (1,), "1": (0, 2)}
    ring.run_until(8)  # end of round 2: one class left
    assert partition_classes(ring) == {"1": (0, 2)}


def test_label_and_vector_partitions_must_agree():
    ring = Ring(SINGLE_FAULT).run_until(4)
    ring.labels[0] = "0"  # s0 vouched for the fault; its vector says so
    with pytest.raises(SoundnessError, match="disagree with vector partition"):
        partition_classes(ring)
    # Either way round alone breaks the partition: one label over two
    # vectors (the vouchers' s0, s2 and the rejecter s1), and two labels
    # over one vector (the single class left after round 2).
    for slot, sid, label, message in (
        (4, 1, "1", "class labels {'1': [0, 1, 2]} disagree with vector partition "
                    "{5: [0, 2], 2: [1]}"),
        (8, 2, "", "class labels {'1': [0], '': [2]} disagree with vector partition "
                   "{5: [0, 2]}"),
    ):
        ring = Ring(SINGLE_FAULT).run_until(slot)
        ring.labels[sid] = label
        with pytest.raises(SoundnessError) as refused:
            partition_classes(ring)
        assert str(refused.value) == message


def test_cascade_reference_tables():
    ring = Ring(CASCADE).run()
    for slot, expected in CASCADE_TABLES.items():
        got = rows(ring, slot)
        if got != expected:
            print(f"slot {slot}: expected {expected}")
            print(f"slot {slot}: got      {got}")
        assert got == expected, f"mismatch after slot {slot}"


def test_cascade_classes_and_survivor():
    ring = Ring(CASCADE)
    ring.run_until(3)
    # Three classes after the second fault: the cascade sender alone kept
    # vouching for both frames.
    assert partition_classes(ring) == {"00": (1,), "10": (0, 3), "11": (2,)}
    ring.run()
    assert ring.departures == [(3, 3, "gate"), (4, 0, "gate"), (5, 1, "gate")]
    assert ring.active_ids() == [2]
    assert vector_str(ring.station(2).member, 4) == "0010"
    assert convergence(ring).single_clique


def test_fault_round_counters_audit():
    # Every gate decision during the reference runs compares acc>fail with
    # exactly the recorded operands.
    ring = Ring(SINGLE_FAULT).run()
    gates = [(ev.slot, ev.gate) for ev in ring.events if ev.gate is not None]
    # Failed stations run no gate, so slot 7 (s3) contributes nothing.
    assert gates[:7] == [
        (0, (4, 0)), (1, (3, 1)), (2, (3, 1)), (3, (2, 2)),
        (4, (2, 1)), (5, (1, 2)), (6, (2, 0)),
    ]


def stabilization(scenario: Scenario):
    """The classes one round after the last fault, and the convergence
    verdict two rounds after it."""
    last, n = scenario.faults[-1].slot, scenario.n
    ring = Ring(scenario, record=False)
    classes_r1 = partition_classes(ring.run_until(last + n))
    return classes_r1, convergence(ring.run_until(last + 2 * n))


def test_stabilization_report():
    classes_after_round1, after_round2 = stabilization(SINGLE_FAULT)
    assert len(classes_after_round1) == 2
    assert after_round2.converged
    assert after_round2.active == (0, 2)
    _, after_round2 = stabilization(CASCADE)
    assert after_round2.converged
    assert after_round2.active == (2,)


def test_rotational_stationarity():
    # The pre-fault regime is stationary: shifting the fault by a full round
    # replays the same post-fault behavior one round later.
    base = Scenario(n=5, rounds=4, faults=(FaultSpec(2, frozenset({3, 4})),))
    shifted = Scenario(n=5, rounds=5, faults=(FaultSpec(7, frozenset({3, 4})),))
    r1 = Ring(base).run()
    r2 = Ring(shifted).run()
    tail1 = r1.records[2:]
    tail2 = r2.records[7:]
    assert tail1 == tail2[: len(tail1)]


def test_trace_is_deterministic_and_fixed_format():
    ring1 = Ring(SINGLE_FAULT).run()
    ring2 = Ring(SINGLE_FAULT).run()
    assert trace_lines(ring1) == trace_lines(ring2)
    first = trace_lines(ring1)[0]
    assert first == (
        "slot=0 owner=s0 sent=1 "
        "s0[m=1111 a=1 f=0 loc=agree] s1[m=0111 a=3 f=1 loc=disagree] "
        "s2[m=1111 a=3 f=0 loc=agree] s3[m=0111 a=1 f=1 loc=disagree]"
    )


# The renderers as they were before each distinct station row was formatted
# once per call: every row of every slot through its own f-string.
def reference_trace_lines(ring):
    lines = []
    for ev, stations in zip(ring.events, ring.records):
        parts = [f"slot={ev.slot}", f"owner=s{ev.owner}", f"sent={int(ev.emitted)}"]
        for sid, (member, acc, fail, loc) in enumerate(stations):
            parts.append(f"s{sid}[m={vector_str(member, ring.n)} a={acc} f={fail} loc={loc}]")
        lines.append(" ".join(parts))
    return lines


def reference_tables(ring):
    def table(title, stations):
        rows = [title, "  station  vector  acc  fail  location"]
        rows += [f"  s{sid:<6}  {vector_str(member, ring.n):<6}  {acc:<3}  {fail:<4}  {loc}"
                 for sid, (member, acc, fail, loc) in enumerate(stations)]
        return "\n".join(rows)

    notes = {"listen": "silent (listening)", "failed": "silent (failed)"}
    initial = [initial_station(i, ring.n) for i in range(ring.n)]
    blocks = [table("initial state",
                    [(st.member, st.acc, st.fail, st.location.value) for st in initial])]
    for ev, stations in zip(ring.events, ring.records):
        note = "sent" if ev.emitted else notes.get(ev.owner_loc, "silent (gate failed)")
        blocks.append(table(f"after slot {ev.slot} - s{ev.owner} {note}", stations))
    return "\n\n".join(blocks) + "\n"


def test_renderers_match_the_per_row_reference():
    # Every chain of one fault at n=3..6 and of two faults at n=4, run to
    # the horizon, and the rejoin fixture; rendered one after another, so
    # rows of every ring size pass through the renderers in turn.
    scenarios = [sc for n in (3, 4, 5, 6) for sc in kfault_scenarios(n, 1)]
    scenarios += list(kfault_scenarios(4, 2))
    scenarios.append(parse_scenario((FIXTURES / "rejoin.scn").read_text()))
    assert len(scenarios) == 316 + 664 + 1
    for sc in scenarios:
        ring = Ring(sc).run()
        assert trace_lines(ring) == reference_trace_lines(ring), sc
        assert render_run_tables(ring) == reference_tables(ring), sc


def test_renderers_keep_nothing_from_a_ring_of_another_size():
    # s3 drops out of the n=4 ring, whose survivors then hold vector 0b0111
    # with the same counters and locations the n=3 ring's stations hold: the
    # two runs share rows, keyed alike, whose vectors print as 1110 and 111.
    small = Ring(Scenario(3, 4, (FaultSpec(0, frozenset({1, 2})),))).run()
    large = Ring(Scenario(4, 4, (FaultSpec(0, frozenset({1, 2})),))).run()

    def keys(ring):
        return {(sid, *row) for rec in ring.records for sid, row in enumerate(rec)}

    assert keys(small) & keys(large)
    for ring in (small, large, small):
        assert trace_lines(ring) == reference_trace_lines(ring)
        assert render_run_tables(ring) == reference_tables(ring)


def test_a_rejoiner_takes_the_label_of_the_class_whose_vector_it_shares():
    # Two classes are live when s0 re-enters at slot 12: s1 alone (label
    # 00) and s2, s3 (label 01).  s0's vector is s2 and s3's.
    ring = Ring(parse_scenario((FIXTURES / "rejoin_two_classes.scn").read_text()))
    ring.run_until(12)
    assert ring.labels[1:] == ["00", "01", "01"]
    assert ring.station(0).location is Location.INTEG_COUNTING
    ring.step()
    ev = ring.events[-1]
    assert (ev.owner, ev.owner_loc, ev.emitted) == (0, "counting", True)
    assert vector_str(ring.station(0).member, 4) == "1011"
    assert ring.labels == ["01", "00", "01", "01"]
    assert partition_classes(ring) == {"00": (1,), "01": (0, 2, 3)}
    assert convergence(ring.run()).classes == {"01": (0, 2, 3)}


def test_scenario_parse_roundtrip():
    text = """\
# cascade example
n = 4
rounds = 3
fault slot=0 accept=2,3
fault slot=2 accept=
"""
    sc = parse_scenario(text)
    assert sc == CASCADE
    assert parse_scenario(scenario_text(sc)) == sc


def test_scenario_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("n = 4\nrounds = 2\nfault accept=1\n")
    with pytest.raises(ScenarioError, match="does not set n"):
        parse_scenario("rounds = 2\n")
    with pytest.raises(ScenarioError, match="unknown setting"):
        parse_scenario("n = 4\nrounds = 2\nslots = 9\n")
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("n = 4\nrounds = 2\nfault slot=0 accept=a\n")
    for accept, problem in (("1,,2", "has an empty item"), ("1,", "has an empty item"),
                            (",", "has an empty item"), ("1,1", "names 1 twice")):
        with pytest.raises(ScenarioError, match=f"^line 3: accept list '{accept}' {problem}$"):
            parse_scenario(f"n = 4\nrounds = 2\nfault slot=0 accept={accept}\n")
    with pytest.raises(ScenarioError, match="line 4"):
        parse_scenario("n = 4\nrounds = 4\n# rejoin\nintegrate station=x slot=4\n")
    with pytest.raises(ScenarioError, match=r"line 3: unknown integrate argument\(s\) \['bogus'\]"):
        parse_scenario("n = 4\nrounds = 4\nintegrate station=3 slot=9 bogus=1\n")
    with pytest.raises(ScenarioError, match="line 4: n is already set on line 1"):
        parse_scenario("n = 4\nrounds = 4\n\nn = 5\n")
    with pytest.raises(ScenarioError, match="line 3: rounds is already set on line 1"):
        parse_scenario("rounds = 4\nn = 4\nrounds = 4\n")
    with pytest.raises(ScenarioError, match="line 3: fault gives accept= twice"):
        parse_scenario("n = 4\nrounds = 2\nfault slot=0 accept=2 accept=3\n")


def test_scenario_static_validation():
    with pytest.raises(ScenarioError, match="at least 3"):
        Scenario(n=2, rounds=2).validate()
    with pytest.raises(ScenarioError, match="own receiver"):
        Scenario(n=4, rounds=2, faults=(FaultSpec(1, frozenset({1})),)).validate()
    with pytest.raises(ScenarioError, match="strictly increasing"):
        Scenario(
            n=4, rounds=2,
            faults=(FaultSpec(2, frozenset()), FaultSpec(2, frozenset())),
        ).validate()
    # Sparse faults are admissible but flagged.
    warns = Scenario(
        n=4, rounds=6,
        faults=(FaultSpec(0, frozenset({2})), FaultSpec(9, frozenset())),
    ).warnings
    assert any("exceeds one round" in w for w in warns)
    # Gap warnings in fault order, then the horizon's.
    warns = Scenario(
        n=4, rounds=5,
        faults=(FaultSpec(0, frozenset({2})), FaultSpec(9, frozenset()),
                FaultSpec(14, frozenset())),
    ).warnings
    assert [w.split(";")[0] for w in warns] == [
        "gap of 9 slots between faults at 0 and 9 exceeds one round",
        "gap of 5 slots between faults at 9 and 14 exceeds one round",
        "horizon ends 20 slots in",
    ]


def test_fault_on_silent_slot_is_rejected():
    # After the single-fault run, s3 is silent at slot 7; striking that slot
    # is unrealizable.
    sc = Scenario(
        n=4, rounds=3,
        faults=(FaultSpec(0, frozenset({2})), FaultSpec(7, frozenset({0}))),
    )
    with pytest.raises(ScenarioError, match="silent"):
        Ring(sc).run()


def test_fault_accepter_must_be_receiving():
    sc = Scenario(
        n=4, rounds=3,
        faults=(FaultSpec(0, frozenset({2})), FaultSpec(6, frozenset({3}))),
    )
    with pytest.raises(ScenarioError, match="not receiving"):
        Ring(sc).run()


def test_reintegration_full_cycle():
    # s3 leaves during the reference run and starts listening at slot 8: it
    # copies the clique vector, keeps tracking, resets counters at its first
    # own slot a full round later (slot 15), counts one round of the
    # surviving pair, and re-enters at slot 19.
    sc = Scenario(
        n=4, rounds=5,
        faults=(FaultSpec(0, frozenset({2})),),
        integrations=(IntegrationSpec(station=3, slot=8),),
    )
    ring = Ring(sc).run()
    st3 = ring.station(3)
    assert st3.location.is_active
    assert ring.active_ids() == [0, 2, 3]
    # Everyone (including the returnee) acknowledges exactly the active set.
    assert convergence(ring).single_clique
    assert vector_str(st3.member, 4) == "1011"
    reentry = [ev for ev in ring.events if ev.owner == 3 and ev.emitted]
    assert [ev.slot for ev in reentry] == [19]
    # The merged ring is one class again.
    assert len(partition_classes(ring)) == 1


def test_reintegration_gate_failure_returns_to_failed():
    # A fresh fault during the returnee's counting round feeds it rejections:
    # its re-entry gate loses and it falls back to failed, zeroed.
    sc = Scenario(
        n=4, rounds=6,
        faults=(FaultSpec(0, frozenset({2})), FaultSpec(18, frozenset({0}))),
        integrations=(IntegrationSpec(station=3, slot=8),),
    )
    ring = Ring(sc).run()
    st3 = ring.station(3)
    assert st3.location is Location.FAILED
    assert (st3.member, st3.acc, st3.fail) == (0, 0, 0)
    assert (19, 3, "integ_gate") in ring.departures
    # The table notes follow s3 out, through listening and counting, and out.
    headers = [line for line in render_run_tables(ring).splitlines()
               if line.startswith("after slot") and " s3 " in line]
    assert headers == [
        "after slot 3 - s3 silent (gate failed)",
        "after slot 7 - s3 silent (failed)",
        "after slot 11 - s3 silent (listening)",
        "after slot 15 - s3 silent (listening)",
        "after slot 19 - s3 silent (gate failed)",
        "after slot 23 - s3 silent (failed)",
    ]


def test_every_single_fault_departure_rejoins_and_the_ring_converges():
    # Every chain of one fault at n=4..6 on an 8-round horizon; each station
    # that leaves rejoins, in a run of its own, at each of the 2n slots
    # after its departure.  At the horizon the ring has converged, and the
    # rejoiner is either active in the clique or back in failed.  Each one
    # that re-enters does so with its first frame, sent from counting; the
    # offsets of that slot from the integrate slot are pinned too.
    ends = {"clique": 0, "failed": 0}
    reentry = Counter()
    for n in (4, 5, 6):
        for sc in kfault_scenarios(n, 1):
            base = Ring(Scenario(n, 8, sc.faults), record=False).run()
            for ev in base.events:
                for sid, _ in ev.departed:
                    for slot in range(ev.slot + 1, ev.slot + 2 * n + 1):
                        rejoin = (IntegrationSpec(sid, slot),)
                        ring = Ring(Scenario(n, 8, sc.faults, rejoin), record=False).run()
                        judged = convergence(ring)
                        assert judged.converged, (sc.faults, rejoin)
                        if sid in judged.active:
                            ends["clique"] += 1
                            reentry[next(e.slot for e in ring.events if e.owner == sid
                                         and e.owner_loc == "counting" and e.emitted) - slot] += 1
                        else:
                            assert ring.station(sid).location is Location.FAILED
                            ends["failed"] += 1
    assert ends == {"clique": 6150, "failed": 366}
    assert sorted(reentry.items()) == [(8, 76), (9, 80), (10, 331), (11, 322), (12, 1047),
                                       (13, 1048), (14, 1026), (15, 774), (16, 738), (17, 708)]


def test_integration_requires_failed_station():
    sc = Scenario(
        n=4, rounds=4,
        integrations=(IntegrationSpec(station=2, slot=0),),
    )
    with pytest.raises(ScenarioError, match="not failed"):
        Ring(sc).run()


def test_no_fault_run_stays_in_steady_state():
    ring = Ring(Scenario(n=5, rounds=4)).run()
    assert ring.active_ids() == [0, 1, 2, 3, 4]
    assert convergence(ring).single_clique
    assert partition_classes(ring) == {"": (0, 1, 2, 3, 4)}
    # Counters cycle: after its own slot each station holds (1,0) and gains
    # one acceptance per later slot.
    for ev in ring.events:
        assert ev.emitted, f"steady state must never fall silent: {ev}"
        assert ev.gate is not None and ev.gate[1] == 0


def _state(ring: Ring):
    return ([astuple(st) for st in ring.stations], list(ring.labels),
            list(ring.events), list(ring.records), ring.slot)


@pytest.mark.parametrize("record", [True, False])
def test_fork_runs_like_a_fresh_ring_and_leaves_its_parent_alone(record):
    # Fork before the first fault, and between the cascade's two faults.
    for scenario in (SINGLE_FAULT, CASCADE):
        *earlier, fault = scenario.faults
        parent = Ring(Scenario(n=4, rounds=scenario.rounds, faults=tuple(earlier)),
                      record=record).run_until(fault.slot)
        before = _state(parent)
        fork = parent.fork(fault).run()
        fresh = Ring(scenario, record=record).run()
        assert fork.scenario == scenario
        assert fork.events == fresh.events
        assert fork.records == fresh.records
        assert fork.labels == fresh.labels
        assert _state(parent) == before
        # The parent runs on as if it had never been forked.
        assert parent.run().events == Ring(parent.scenario, record=record).run().events


def test_a_ring_and_its_fork_stop_at_the_horizon():
    # Both read the horizon fixed when the root ring was built: n * rounds.
    ring = Ring(Scenario(n=4, rounds=3), record=False)
    fork = ring.run_until(2).fork(FaultSpec(2, frozenset({0})))
    for r in (ring, fork):
        assert r.run().slot == r.horizon == 12
        with pytest.raises(IndexError, match="^scenario horizon exhausted$"):
            r.step()
        assert r.slot == 12 and len(r.events) == 12


def test_an_unknown_gate_is_refused():
    with pytest.raises(ValueError, match="^gate must be 'strict' or 'weak', got 'lenient'$"):
        Ring(SINGLE_FAULT, gate="lenient")


def test_fork_refuses_a_fault_that_has_already_run():
    ring = Ring(Scenario(n=4, rounds=3), record=False).run_until(3)
    with pytest.raises(ValueError, match="already run"):
        ring.fork(FaultSpec(2, frozenset()))


def test_fork_checks_the_added_fault_like_a_fresh_ring():
    # Every fork of the n=4, k=2 walk, also on horizons too short to judge
    # the old or the new last fault, so the horizon warning moves on.
    forks = [(sc.faults[:i], sc.faults[i], rounds)
             for sc in kfault_scenarios(4, 2)
             for i in (0, 1)
             for rounds in (sc.rounds, 3, 2)]
    # Faults more than a round apart draw the gap warning.
    far = (FaultSpec(0, frozenset({2})),)
    forks += [(far, FaultSpec(slot, frozenset()), rounds)
              for slot in (5, 6, 9) for rounds in (3, 4)]
    warned = set()
    for earlier, fault, rounds in forks:
        parent = Ring(Scenario(4, rounds, earlier), record=False).run_until(fault.slot)
        fork = parent.fork(fault)
        assert fork.warnings == Ring(fork.scenario).warnings
        warned.update(w.split()[0] for w in fork.warnings)
    assert warned == {"gap", "horizon"}

    # A fork that breaks a hard rule is refused as the fresh ring is.
    parent = Ring(Scenario(4, 3, (FaultSpec(5, frozenset({2})),)), record=False)
    for fault in (FaultSpec(12, frozenset()),     # past the horizon
                  FaultSpec(5, frozenset()),      # not after the last fault
                  FaultSpec(3, frozenset()),
                  FaultSpec(6, frozenset({4})),   # no such station
                  FaultSpec(6, frozenset({2}))):  # the sender itself
        extended = Scenario(4, 3, parent.scenario.faults + (fault,))
        with pytest.raises(ScenarioError) as fresh:
            Ring(extended)
        with pytest.raises(ScenarioError) as forked:
            parent.fork(fault)
        assert str(forked.value) == str(fresh.value), fault


def test_a_fork_of_a_parsed_scenario_keeps_its_lines():
    # The rejoin on line 4 is refused by the run, after the fork added a
    # fault that no line gave.
    sc = parse_scenario("n = 4\nrounds = 4\n# s2 never fails\nintegrate station=2 slot=9\n")
    ring = Ring(sc, record=False).fork(FaultSpec(1, frozenset({0, 2, 3})))
    assert ring.scenario.lines == sc.lines
    with pytest.raises(ScenarioError,
                       match=r"^line 4: integrate station=s2 slot=9: station is agree, not failed$"):
        ring.run()


def test_decisive_receivers_need_a_slot_a_fault_may_strike():
    # s3 loses its gate at slot 3 and starts to rejoin at slot 4, where s0
    # sends, and s1 loses its gate at slot 5: no fault may strike these
    # slots.  At slot 6 the listening s3 is a receiver like s0.
    sc = Scenario(4, 4, SINGLE_FAULT.faults, (IntegrationSpec(3, 4),))
    for slot in (3, 4, 5):
        ring = Ring(sc, record=False).run_until(slot)
        with pytest.raises(ValueError, match=f"slot {slot} is not"):
            ring.decisive_receivers()
    assert Ring(sc, record=False).run_until(6).decisive_receivers() == {0, 3}
