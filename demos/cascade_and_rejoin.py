"""A second fault before the first has settled, then a station rejoining.

Part 1 replays the two-fault cascade: s0's frame reaches s2 and s3, and two
slots later s2's own frame reaches nobody intact.  The ring fragments into
three classes; the clique gate then removes stations one by one until only
s2 - the only station that vouched for both disputed frames - is left.

Part 2 re-integrates a departed station: it listens for one slot to pick up
a current membership vector, counts acknowledgments for a full round, and
re-enters at its own slot once its view demonstrably agrees with the ring.
"""

from __future__ import annotations

from ttpmem.protocol import vector_str
from ttpmem.ring import (
    FaultSpec,
    IntegrationSpec,
    Ring,
    Scenario,
    convergence,
    partition_classes,
)


def cascade() -> None:
    scenario = Scenario(
        n=4, rounds=3,
        faults=(FaultSpec(0, frozenset({2, 3})), FaultSpec(2, frozenset())),
    )
    print("part 1: fault cascade (s0 reaches s2,s3; then s2 reaches nobody)")
    print("=" * 68)
    ring = Ring(scenario)
    ring.run_until(3)
    print(f"classes after both faults: {partition_classes(ring)}")
    print("  '11' vouched for both frames, '10' only for the first,")
    print("  '00' for neither - three incompatible views of the ring")
    ring.run()
    print(f"departures: {ring.departures}")
    survivor = ring.active_ids()
    print(f"survivors: {survivor}")
    st = ring.station(survivor[0])
    print(f"s{st.sid}'s vector: {vector_str(st.member, 4)} - alone, and consistent")
    print()


def rejoin() -> None:
    scenario = Scenario(
        n=4, rounds=6,
        faults=(FaultSpec(0, frozenset({2})),),
        integrations=(IntegrationSpec(station=3, slot=4),),
    )
    print("part 2: s3 (convicted at slot 3) rejoins from slot 4")
    print("=" * 68)
    ring = Ring(scenario)
    locations = []
    while ring.slot < scenario.total_slots:
        ring.step()
        locations.append((ring.slot - 1, ring.station(3).location.value))
    changes = [
        (slot, loc) for i, (slot, loc) in enumerate(locations)
        if i == 0 or locations[i - 1][1] != loc
    ]
    for slot, loc in changes:
        print(f"  after slot {slot:>2}: s3 is {loc}")
    two_rounds = scenario.faults[-1].slot + 2 * scenario.n
    judged = convergence(Ring(scenario, record=False).run_until(two_rounds))
    print(f"active at the horizon: {ring.active_ids()}")
    vectors = {sid: vector_str(ring.station(sid).member, 4)
               for sid in ring.active_ids()}
    print(f"vectors: {vectors}")
    print(f"converged within two rounds of the fault: "
          f"{judged.converged}")


def main() -> None:
    cascade()
    rejoin()


if __name__ == "__main__":
    main()
