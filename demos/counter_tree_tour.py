"""The k-fault counter family: how many counters, and what they predict.

Every fault splits the stations that were in one class into vouchers ('1')
and rejecters ('0'), so k faults build a binary tree of class labels.  The
counting argument needs, per fault level i, a (population, sent-this-round)
counter pair per class, one slot clock per fault, and two auxiliary
window counters per current leaf - sum 2(i+1) + k + 2(k+1) over the levels,
i.e. 9, 18, 42 counters for k = 1, 2, 4.  That number is independent of n:
the whole point of counting stations instead of tracking them.

The tree doubles as a gate oracle: at every active station's own slot it
predicts the (acc, fail) pair the station holds, from counters alone.
"""

from __future__ import annotations

from itertools import islice

from ttpmem.checker import kfault_scenarios
from ttpmem.kfault import CounterTree, expected_counter_count, tree_gate_checks
from ttpmem.ring import FaultSpec, Ring, Scenario


def replay(scenario: Scenario) -> CounterTree:
    ring = Ring(scenario, record=False).run()
    tree = CounterTree(ring.n)
    for ev in ring.events:
        tree.observe(ev)
    return tree


def show_tree(scenario: Scenario) -> None:
    k = len(scenario.faults)
    tree = replay(scenario)
    print(f"  faults: {[str(f) for f in scenario.faults]}")
    for i, level in enumerate(tree.levels, start=1):
        cells = "  ".join(f"{w}:[C={c},d={d}]" for w, (c, d) in sorted(level.items()))
        print(f"  level {i}: {cells}")
    used = tree.counters_in_use()
    print(f"  counters in use: {len(used)} "
          f"(budget for k={k}: {expected_counter_count(k)})")
    print(f"  names: {', '.join(used)}")
    print()


def main() -> None:
    print("counter trees for one, two, and four faults")
    print("=" * 70)
    show_tree(Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({2})),)))
    show_tree(Scenario(
        n=4, rounds=3,
        faults=(FaultSpec(0, frozenset({2, 3})), FaultSpec(2, frozenset())),
    ))
    four = next(iter(islice(kfault_scenarios(5, 4), 1)))
    show_tree(four)

    print("gate predictions on the cascade run")
    print("=" * 70)
    ring = Ring(Scenario(
        n=4, rounds=3,
        faults=(FaultSpec(0, frozenset({2, 3})), FaultSpec(2, frozenset())),
    ), record=False).run()
    for c in tree_gate_checks(ring):
        mark = "ok" if c.ok else "MISMATCH"
        print(f"  slot {c.slot:>2} s{c.sid}: tree says acc={c.predicted[0]} "
              f"fail={c.predicted[1]}, ring holds acc={c.actual[0]} "
              f"fail={c.actual[1]}  {mark}")


if __name__ == "__main__":
    main()
