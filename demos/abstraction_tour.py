"""The counter abstraction, and what checking it actually uncovered.

Part 1 maps a concrete run onto the abstract counter automaton slot by
slot: the whole ring collapses to a handful of counters (class
populations, per-round send budgets, the slot within the round and the
rounds since the fault, kept as 0, 1 or 2 = two or more), and every concrete
step is matched by an abstract transition - the sweep in the test suite does
this for every single-fault scenario up to n=8.

Part 2 explores the automaton exhaustively and checks the membership
properties.  Five of the six hold everywhere.  The sixth - "after a decided
tie the winning class keeps exactly x vouchers" - is false on even rings,
and not because of abstraction slack: the winning class can convict its own
sender (both successor checks fail it), and the sender's exit is booked
when its vacated slot passes, after the property's trigger.  Part 3 replays
the six-station counterexample concretely.
"""

from __future__ import annotations

from ttpmem.abstraction import (
    abstract_inputs_for_slot,
    abstract_successors,
    abstraction_map,
)
from ttpmem.checker import check_properties
from ttpmem.ring import FaultSpec, Ring, Scenario, convergence, partition_classes


def fmt(s) -> str:
    return (f"c1={s.c1} c0={s.c0} cf={s.cf} cp={s.cp} r={s.r} "
            f"d1={s.d1} d0={s.d0} df={s.df}")


def part1_mapping() -> None:
    print("part 1: one concrete run, seen through the abstraction")
    print("=" * 70)
    scenario = Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({2})),))
    ring = Ring(scenario, record=False)
    pre = abstraction_map(ring)
    print(f"  start          {fmt(pre)}")
    while ring.slot < scenario.total_slots:
        slot = ring.slot
        ring.step()
        post = abstraction_map(ring)
        inp = abstract_inputs_for_slot(ring, slot)
        taken = [
            tr.name for tr in abstract_successors(pre, inp)
            if tr.post == post and tr.emits == ring.events[slot].emitted
        ]
        print(f"  slot {slot:>2} {taken[0]:<28} {fmt(post)}")
        pre = post
    print()


def part2_properties() -> None:
    print("part 2: exhaustive exploration, n=4..7")
    print("=" * 70)
    for n in (4, 5, 6, 7):
        for v in check_properties(n, "any"):
            print(" ", v.report_line())
    print()
    print("  P3's witness path below ends in the guess-exit rollover: the")
    print("  convicted sender of the winning tie class leaves c1 only when")
    print("  its empty slot comes around, one slot after the tie is decided.")
    p3 = next(v for v in check_properties(6, "any") if v.prop == "P3")
    print("  witness:", " -> ".join(p3.witness))
    print()


def part3_concrete_counterexample() -> None:
    print("part 3: the n=6 counterexample, concretely")
    print("=" * 70)
    scenario = Scenario(n=6, rounds=4, faults=(FaultSpec(0, frozenset({3, 4})),))
    print("  fault at slot 0, accepters {s3,s4}: the rejecters s1,s2 own the")
    print("  next two slots, so both implicit-acknowledgment checks convict")
    print("  the sender s0 even though s0's class wins the 3-vs-3 tie.")
    ring = Ring(scenario, record=False)
    for slot in range(2 * scenario.n + 1):
        pre = abstraction_map(ring)
        ring.step()
        post = abstraction_map(ring)
        if (pre.c1, pre.c0) != (post.c1, post.c0) or post.cp == post.n:
            print(f"  slot {slot:>2}: c1={post.c1} c0={post.c0} "
                  f"(d1={post.d1} d0={post.d0})")
    print(f"  departures: {ring.departures}")
    print(f"  classes now: {partition_classes(ring)}  "
          f"single clique: {convergence(ring).single_clique}")
    print("  the tie was decided at d1=3, d0=2 - yet c1 ended at 2, not 3:")
    print("  the steady-voucher-count claim fails while convergence survives.")


def main() -> None:
    part1_mapping()
    part2_properties()
    part3_concrete_counterexample()


if __name__ == "__main__":
    main()
