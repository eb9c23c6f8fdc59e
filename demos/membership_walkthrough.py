"""Walk through the four-station reference run, slot by slot.

One asymmetric fault at slot 0: s0 transmits, only s2 receives the frame
intact, s1 and s3 see a corrupted one.  The run shows every mechanism in
the membership service working together: implicit acknowledgment through
the next two senders, the accept/fail counters, the clique gate at a
station's own slot, and the two-round convergence to a single clique.
"""

from __future__ import annotations

from ttpmem.ring import (
    FaultSpec,
    Ring,
    Scenario,
    convergence,
    partition_classes,
    render_run_tables,
)

COMMENTS = {
    0: "s0 sends; s2 accepts, s1 and s3 reject and drop s0 from their vectors",
    1: "s1 sends with s0's bit cleared; s0 and s2 judge the frame wrong, s3 vouches",
    2: "s2's frame convicts nobody: both checks arrive, the split is now plain",
    3: "s3 hits its own slot with acc=2, fail=2 - the strict gate needs acc>fail, s3 leaves",
    4: "s0 sends again; only stations that still list s0 accept (s2)",
    5: "s1's turn: acc=1, fail=2, gate fails, s1 leaves - the rejecter class is gone",
    6: "s2 reacknowledges s0; the survivors' vectors agree from here on",
}


def main() -> None:
    scenario = Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({2})),))
    ring = Ring(scenario)

    print("single asymmetric fault, n=4: s0's frame reaches only s2 intact")
    print("=" * 68)
    while ring.slot < scenario.total_slots:
        t = ring.slot
        ring.step()
        if t in COMMENTS:
            print(f"\nslot {t}: {COMMENTS[t]}")
        if t == scenario.n - 1:
            print(f"  classes after round 1: {partition_classes(ring)}")
        if t == 2 * scenario.n - 1:
            print(f"  classes after round 2: {partition_classes(ring)}")
            print(f"  single clique: {convergence(ring).single_clique}")

    print()
    print("departures (slot, station, reason):", ring.departures)
    print("survivors:", ring.active_ids())
    print()
    print("full per-slot tables")
    print("=" * 68)
    print(render_run_tables(ring))


if __name__ == "__main__":
    main()
