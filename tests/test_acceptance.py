"""Acceptance gate: one test per promised behavior, each printing a single
verdict line (run pytest with -s to see them all).

The steady-voucher tie property P3 gets special handling.  It is asserted at
full strength over n = 3..12 in its own test, marked as an expected failure:
under population-honest exit bookkeeping the property is genuinely false on
even rings — the winning tie class loses its convicted sender when the
sender's vacated slot passes, so the voucher count does not stay pinned at
x.  The six-station counterexample is replayed concretely in
test_checker.py.  The marker is strict: if P3 ever starts holding, this
file fails loudly and the claim must be re-examined.
"""

from __future__ import annotations

import time
from itertools import islice

import pytest

from ttpmem.checker import (
    check_properties,
    cross_check,
    kfault_scenarios,
)
from ttpmem.kfault import CounterTree, expected_counter_count
from ttpmem.protocol import vector_str
from ttpmem.ring import FaultSpec, Ring, Scenario

# -- frozen reference values (duplicated here on purpose: the gate stands on
#    its own feet, independent of the other test modules) ----------------------

# Admissible chains per ring size: one fault, n=3..8; two faults, n=4..7.
K1_RUNS = {3: 12, 4: 32, 5: 80, 6: 192, 7: 448, 8: 1024}
K2_RUNS = {4: 664, 5: 4820, 6: 24552, 7: 151256}
K3_RUNS = {4: 7420}

SINGLE_FAULT = Scenario(n=4, rounds=3, faults=(FaultSpec(0, frozenset({2})),))
SINGLE_FAULT_TABLES = {
    0: [("1111", 1, 0), ("0111", 3, 1), ("1111", 3, 0), ("0111", 1, 1)],
    1: [("1011", 1, 1), ("0111", 1, 0), ("1011", 3, 1), ("0111", 2, 1)],
    2: [("1011", 2, 1), ("0101", 1, 1), ("1011", 1, 0), ("0101", 2, 2)],
    3: [("1010", 2, 1), ("0100", 1, 1), ("1010", 1, 0), ("0000", 0, 0)],
    4: [("1010", 1, 0), ("0100", 1, 2), ("1010", 2, 0), ("0000", 0, 0)],
    5: [("1010", 1, 0), ("0000", 0, 0), ("1010", 2, 0), ("0000", 0, 0)],
}

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


def verdict(num, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def table_rows(ring: Ring, slot: int):
    rec = ring.records[slot]
    return [(vector_str(m, ring.n), a, f) for (m, a, f, _loc) in rec]


def tables_match(ring: Ring, expected) -> bool:
    ok = True
    for slot, want in expected.items():
        got = table_rows(ring, slot)
        if got != want:
            print(f"  slot {slot}: expected {want}")
            print(f"  slot {slot}: got      {got}")
            ok = False
    return ok


@pytest.fixture(scope="module")
def k1_sweeps():
    return {r.n: r for r in cross_check(range(3, 9))}


@pytest.fixture(scope="module")
def k2_sweeps():
    return {r.n: r for r in cross_check(range(4, 8), k=2)}


def test_criterion_1_single_fault_golden_trace():
    t0 = time.time()
    ring = Ring(SINGLE_FAULT).run()
    elapsed = time.time() - t0
    ok = tables_match(ring, SINGLE_FAULT_TABLES)
    ok = ok and ring.departures == [(3, 3, "gate"), (5, 1, "gate")]
    ok = ok and ring.active_ids() == [0, 2]
    ok = ok and elapsed < 1.0
    verdict(1, ok, f"single-fault reference run exact, six tables, "
                   f"departures s3 then s1, survivors s0,s2 ({elapsed:.3f}s)")


def test_criterion_2_cascade_golden_trace():
    t0 = time.time()
    ring = Ring(CASCADE).run()
    elapsed = time.time() - t0
    ok = tables_match(ring, CASCADE_TABLES)
    ok = ok and ring.active_ids() == [2]
    ok = ok and vector_str(ring.station(2).member, 4) == "0010"
    ok = ok and elapsed < 1.0
    verdict(2, ok, f"cascade reference run exact, s2 the lone survivor "
                   f"({elapsed:.3f}s)")


def test_criterion_3_two_round_convergence_exhaustive(k1_sweeps):
    bad = []
    runs = 0
    for n, result in k1_sweeps.items():
        runs += result.runs
        nc = next(v for v in result.verdicts if v.prop == "NC")
        if not nc.holds:
            bad.append(nc.report_line())
    runs_per_n = {n: result.runs for n, result in k1_sweeps.items()}
    if runs_per_n != K1_RUNS:
        bad.append(f"runs per n {runs_per_n}, expected {K1_RUNS}")
    for line in bad:
        print("  " + line)
    verdict(3, not bad, f"single clique two rounds after every fault, "
                        f"n=3..8 exhaustive ({runs} runs), with at least one "
                        f"round-1 split per n (bound is tight)")


def test_criterion_4_counting_oracle_zero_mismatches(k1_sweeps):
    bad = []
    for n, result in k1_sweeps.items():
        ca = next(v for v in result.verdicts if v.prop == "CA")
        if not ca.holds:
            bad.append(ca.report_line())
    for line in bad:
        print("  " + line)
    verdict(4, not bad, "gate operands equal the counting predictions at "
                        "every gate, n=3..8, zero mismatches")


def test_criterion_5_properties_on_the_explored_graphs():
    bad = []
    p3_vacuous = 0
    for n in range(3, 13):
        for v in check_properties(n, "any"):
            if v.prop == "P3":
                if n % 2 == 1:
                    p3_vacuous += 1
                continue  # the tie case is judged by the companion test
            if not v.holds:
                bad.append(v.report_line())
    for line in bad:
        print("  " + line)
    verdict(5, not bad, f"P1,P2,P4,P6,P7 hold for n=3..12 under their "
                        f"stated constraints (P3 tie case split out below; "
                        f"vacuous at the {p3_vacuous} odd sizes)")


@pytest.mark.xfail(
    strict=True,
    reason="P3 is false on even rings once the guess-exit transition "
           "conserves population: the winning tie class loses its "
           "convicted sender at the rollover (c1 drops from x to x-1) "
           "yet still wins the round.  Concrete n=6 realization: fault at "
           "slot 0 with accepters {s3,s4}; replayed in test_checker.py.",
)
def test_criterion_5_p3_steady_voucher_count_on_ties():
    bad = []
    for n in range(3, 13):
        p3 = next(v for v in check_properties(n, "any") if v.prop == "P3")
        if not p3.holds:
            bad.append(p3.report_line())
    for line in bad:
        print("  " + line)
    verdict("5 (P3 tie)", not bad, "voucher count stays at x after a decided "
                                   "tie, n=3..12")


def test_criterion_6_simulation_relation_zero_failures(k1_sweeps):
    bad = []
    for n, result in k1_sweeps.items():
        sim = next(v for v in result.verdicts if v.prop == "SIM")
        if not sim.holds:
            bad.append(sim.report_line())
    for line in bad:
        print("  " + line)
    verdict(6, not bad, "every concrete slot step of every 1-fault scenario "
                        "is matched by an abstract transition, n=3..8")


def test_criterion_7_two_fault_generalization(k2_sweeps):
    bad = []
    runs = 0
    for n, result in k2_sweeps.items():
        runs += result.runs
        for v in result.verdicts:
            if not v.holds:
                bad.append(v.report_line())
    runs_per_n = {n: result.runs for n, result in k2_sweeps.items()}
    if runs_per_n != K2_RUNS:
        bad.append(f"runs per n {runs_per_n}, expected {K2_RUNS}")
    # Three faults: every chain runs and converges.  CA is left out: the
    # counter tree mispredicts some k=3 gates, a known defect whose fix is
    # ROADMAP item 1.
    k3 = cross_check(list(K3_RUNS), k=3)
    runs3 = {r.n: r.runs for r in k3}
    if runs3 != K3_RUNS:
        bad.append(f"k=3 runs per n {runs3}, expected {K3_RUNS}")
    bad.extend(v.report_line() for r in k3 for v in r.verdicts
               if v.prop == "NC" and not v.holds)
    for line in bad:
        print("  " + line)
    verdict(7, not bad, f"two-fault sweeps n=4..7 ({runs} admissible "
                        f"placements): single clique two rounds after fault "
                        f"2, counter-tree oracle exact at every gate; "
                        f"three-fault sweep n=4 ({sum(runs3.values())} "
                        f"placements): single clique two rounds after fault 3")


def test_criterion_8_counter_budget_audit():
    audited = 0
    bad = []

    def audit(sc: Scenario, k: int) -> None:
        nonlocal audited
        ring = Ring(sc, record=False).run()
        tree = CounterTree(ring.n)
        for ev in ring.events:
            tree.observe(ev)
        used = len(tree.counters_in_use())
        want = expected_counter_count(k)
        audited += 1
        if used != want:
            bad.append(f"k={k} {sc.faults}: {used} counters, budget {want}")

    for sc in kfault_scenarios(4, 1):
        audit(sc, 1)
    for sc in islice(kfault_scenarios(4, 2), 300):
        audit(sc, 2)
    for sc in islice(kfault_scenarios(5, 4), 25):
        audit(sc, 4)
    for line in bad:
        print("  " + line)
    verdict(8, not bad, f"counter count equals the budget formula "
                        f"(9/18/42 for k=1/2/4) on {audited} scenario trees")


def test_criterion_9_mutation_sensitivity():
    weak = {v.prop: v for v in check_properties(4, "any", weak_gate=True)}
    weak_broken = [p for p in ("P1", "P7")
                   if not weak[p].holds and weak[p].witness]
    [weak_sweep] = cross_check([4], gate="weak")
    weak_nc = next(v for v in weak_sweep.verdicts if v.prop == "NC")
    lax = {v.prop: v for v in check_properties(4, "any", strengthened=False)}
    lax_broken = [p for p in ("P1", "P7")
                  if not lax[p].holds and lax[p].witness]
    ok = bool(weak_broken) and not weak_nc.holds and bool(weak_nc.witness) \
        and bool(lax_broken)
    verdict(9, ok, f"gate weakened to >=: {'+'.join(weak_broken)} fail with "
                   f"witnesses and a concrete non-converging scenario; "
                   f"budget guards removed: {'+'.join(lax_broken)} fail")
