"""Property tests of the scenario parser and of the lines its errors carry,
and of the ring's convergence and the counter tree's gate predictions on random
fault chains.

Hypothesis runs derandomized and without an example database, so every run
of the suite draws the same examples.  The lines of a refused scenario are
checked against a scenario broken on purpose: a scenario that runs clean
gets exactly one bad directive, and the error must name that directive's
line in the file, and must read as the error of the same scenario built in
code with the line left off.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttpmem.kfault import tree_gate_checks
from ttpmem.protocol import Location, clique_gate
from ttpmem.ring import (
    FaultSpec,
    IntegrationSpec,
    Ring,
    Scenario,
    ScenarioError,
    convergence,
    parse_scenario,
    scenario_text,
)

deterministic = settings(derandomize=True, database=None, deadline=None)


@st.composite
def admissible_scenarios(draw) -> Scenario:
    """Statically valid scenarios: faults at increasing slots inside the
    horizon, each sparing its sender; rejoins of any station at any slot."""
    n = draw(st.integers(3, 8))
    rounds = draw(st.integers(1, 5))
    total = n * rounds
    slots = sorted(draw(st.sets(st.integers(0, total - 1), max_size=3)))
    faults = tuple(
        FaultSpec(slot, frozenset(draw(st.sets(
            st.sampled_from([i for i in range(n) if i != slot % n])))))
        for slot in slots)
    integrations = tuple(
        IntegrationSpec(draw(st.integers(0, n - 1)), draw(st.integers(0, total - 1)))
        for _ in range(draw(st.integers(0, 2))))
    return Scenario(n, rounds, faults, integrations)


@settings(deterministic, max_examples=100)
@given(admissible_scenarios())
def test_admissible_scenarios_round_trip(sc):
    parsed = parse_scenario(scenario_text(sc))
    assert parsed == sc
    # scenario_text writes n, rounds, the faults, then the rejoins.
    k = len(sc.faults)
    assert parsed.lines == {
        ("n", 0): 1, ("rounds", 0): 2,
        **{("fault", i): 3 + i for i in range(k)},
        **{("integrate", i): 3 + k + i for i in range(len(sc.integrations))},
    }


# Settings to start from, whole lines, most of them valid, and tokens to
# build lines of.
HEADERS = ("n = 4\nrounds = 3\n", "n = 5\nrounds = 4\n", "rounds = 2\n", "")
LINES = (
    "fault slot=0 accept=1", "fault slot=5 accept=", "fault accept=0,2 slot=2",
    "fault slot=6 accept=3", "integrate station=1 slot=5", "integrate station=0 slot=9",
    "integrate slot=11 station=3", "n = 3", "# note", "",
)
TOKENS = (
    "n", "rounds", "=", "4", "-1", "x", "#", "fault", "integrate", "slot=0",
    "slot=5", "slot=", "slot=x", "station=1", "station=", "accept=",
    "accept=1,2", "accept=,", "accept=9", "bogus=1",
)
fragments = st.tuples(
    st.sampled_from(HEADERS),
    st.lists(st.one_of(st.sampled_from(LINES),
                       st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join)),
             max_size=6).map("\n".join),
).map("".join)


@settings(deterministic, max_examples=150)
@given(fragments)
def test_directive_fragments_raise_only_scenario_errors(text):
    try:
        Ring(parse_scenario(text), record=False).run()
    except ScenarioError:
        pass


Directive = Tuple[str, object]  # ("n", 4), ("fault", FaultSpec(...)), ...


@st.composite
def clean_scenarios(draw) -> Scenario:
    """Scenarios that run clean: each fault strikes a slot whose owner sends
    and lists only stations that receive, and at most one station rejoins,
    failed when it starts, after the last fault."""
    n = draw(st.integers(3, 8))
    rounds = draw(st.integers(2, 5))
    total = n * rounds
    ring = Ring(Scenario(n, rounds), record=False)
    first = 0  # the first slot free for a fault
    for _ in range(draw(st.integers(0, 3))):
        if first >= total:
            break
        slot = draw(st.integers(first, min(first + n, total) - 1))
        owner = ring.run_until(slot).stations[slot % n]
        if not (owner.location.is_active and owner.acc > owner.fail):
            break
        receivers = [s.sid for s in ring.stations if s.location.is_receiving and s is not owner]
        accept = draw(st.sets(st.sampled_from(receivers))) if receivers else ()
        ring = ring.fork(FaultSpec(slot, frozenset(accept)))
        first = slot + 1
    sc = ring.scenario
    first = max(first, ring.slot)  # a slot whose owner could not send has run
    if first < total and draw(st.booleans()):
        slot = draw(st.integers(first, total - 1))
        failed = [s.sid for s in ring.run_until(slot).stations
                  if s.location is Location.FAILED]
        if failed:
            sc = Scenario(n, rounds, sc.faults,
                          (IntegrationSpec(draw(st.sampled_from(failed)), slot),))
    return sc


@st.composite
def broken_scenarios(draw) -> Tuple[List[Directive], int, str]:
    """The directives of a clean scenario, in file order, with one made bad:
    the directives, the index of the bad one and a piece of its message."""
    sc = draw(clean_scenarios())
    n, total = sc.n, sc.total_slots
    directives: List[Directive] = list(draw(st.permutations(
        [("n", n), ("rounds", sc.rounds)] + [("fault", f) for f in sc.faults]
        + [("integrate", ev) for ev in sc.integrations])))
    faults = [i for i, (key, _) in enumerate(directives) if key == "fault"]

    # Where each station is before each slot of the clean run, and who sends.
    ring = Ring(sc, record=False)
    before = []
    while ring.slot < total:
        before.append([s.location for s in ring.stations])
        ring.step()
    taken = {f.slot for f in sc.faults}
    rejoins = {(ev.station, ev.slot) for ev in sc.integrations}
    silent = [ev.slot for ev in ring.events if not ev.emitted and ev.slot not in taken]
    # A sender is never failed, so s is not the owner.
    unheard = [FaultSpec(t, frozenset({s})) for t in range(total)
               if ring.events[t].emitted and t not in taken
               for s in range(n) if before[t][s] is Location.FAILED and (s, t) not in rejoins]
    out_ids = st.sampled_from([-1, n, n + 3])
    out_slots = st.sampled_from([-1, total, total + 5])

    # Each kind of defect by a piece of the message it draws.
    kinds = ["at least 3 stations", "at least 1 round", "integration station",
             "integration slot", "not failed"]
    if faults:
        kinds += ["outside horizon", "accept id", "own receiver", "strictly increasing"]
    if silent:
        kinds.append("is silent")
    if unheard:
        kinds.append("not receiving")
    kind = draw(st.sampled_from(kinds))
    index: Optional[int] = None  # None: a new directive, on a line of its own
    if kind == "at least 3 stations":
        index = directives.index(("n", n))
        directive: Directive = ("n", draw(st.integers(-1, 2)))
    elif kind == "at least 1 round":
        index = directives.index(("rounds", sc.rounds))
        directive = ("rounds", draw(st.integers(-1, 0)))
    elif kind == "integration station":
        directive = ("integrate", IntegrationSpec(draw(out_ids),
                                                  draw(st.integers(0, total - 1))))
    elif kind == "integration slot":
        directive = ("integrate", IntegrationSpec(draw(st.integers(0, n - 1)),
                                                  draw(out_slots)))
    elif kind == "not failed":
        slot = draw(st.sampled_from([t for t in range(total)
                                     if any(loc is not Location.FAILED for loc in before[t])]))
        station = draw(st.sampled_from([s for s in range(n)
                                        if before[slot][s] is not Location.FAILED]))
        directive = ("integrate", IntegrationSpec(station, slot))
    elif kind == "strictly increasing":
        # A second fault on a taken slot: the one on the later line is refused.
        original = draw(st.sampled_from(faults))
        index = draw(st.integers(original + 1, len(directives)))
        directives.insert(index, directives[original])
        return directives, index, kind
    elif kind == "is silent":
        directive = ("fault", FaultSpec(draw(st.sampled_from(silent)), frozenset()))
    elif kind == "not receiving":
        directive = ("fault", draw(st.sampled_from(unheard)))
    else:
        index = draw(st.sampled_from(faults))
        f = directives[index][1]
        if kind == "outside horizon":
            f = FaultSpec(draw(out_slots), f.accept)
        elif kind == "accept id":
            f = FaultSpec(f.slot, f.accept | {draw(out_ids)})
        else:
            f = FaultSpec(f.slot, f.accept | {f.slot % n})
        directive = ("fault", f)
    if index is None:
        index = draw(st.integers(0, len(directives)))
        directives.insert(index, directive)
    else:
        directives[index] = directive
    return directives, index, kind


@st.composite
def scenario_files(draw, directives: List[Directive]) -> Tuple[str, List[int]]:
    """A file giving ``directives`` in order, keys in any order, with blank
    and comment lines between them; and the line of each directive."""
    rows: List[str] = []
    lines: List[int] = []
    for key, value in directives:
        rows += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=2))
        if key in ("n", "rounds"):
            rows.append(f"{key} = {value}")
        else:
            if key == "fault":
                args = [f"slot={value.slot}",
                        "accept=" + ",".join(str(i) for i in sorted(value.accept))]
                if not value.accept and draw(st.booleans()):
                    args.pop()
            else:
                args = [f"station={value.station}", f"slot={value.slot}"]
            rows.append(" ".join([key] + draw(st.permutations(args))))
        lines.append(len(rows))
    return "\n".join(rows) + "\n", lines


def _built(directives: List[Directive]) -> Scenario:
    """The scenario of ``directives`` built in code: faults by slot, in file
    order within a slot, rejoins in file order."""
    settings_ = dict(d for d in directives if d[0] in ("n", "rounds"))
    return Scenario(
        settings_["n"], settings_["rounds"],
        tuple(sorted((v for k, v in directives if k == "fault"), key=lambda f: f.slot)),
        tuple(v for k, v in directives if k == "integrate"))


def _refusal(scenario: Callable[[], Scenario]) -> str:
    with pytest.raises(ScenarioError) as refused:
        Ring(scenario(), record=False).run()
    return str(refused.value)


@settings(deterministic, max_examples=150)
@given(st.data())
def test_each_refusal_names_the_line_of_its_directive(data):
    directives, bad, kind = data.draw(broken_scenarios())
    text, lines = data.draw(scenario_files(directives))
    in_code = _refusal(lambda: _built(directives))
    assert kind in in_code and not in_code.startswith("line ")
    assert _refusal(lambda: parse_scenario(text)) == f"line {lines[bad]}: {in_code}"


@settings(deterministic, max_examples=200)
@given(st.data())
def test_random_fault_chains_converge_two_rounds_after_the_last(data):
    # Admissible chains as the sweeps enumerate them: the first fault in the
    # first round, each later one at most a round after its predecessor, on
    # a slot whose owner sends, accepted by a subset of the stations still
    # listening.  The sweeps are exhaustive only up to k=2.  The third fault
    # strikes by slot 3n-1, so six rounds hold two more after it.  NC and,
    # for up to two faults, CA are judged.
    n = data.draw(st.integers(3, 8), label="n")
    ring = Ring(Scenario(n, 6), record=False)
    first = 0
    for _ in range(data.draw(st.integers(1, 3), label="k")):
        slot = data.draw(st.integers(first, first + n - 1), label="slot")
        owner = ring.run_until(slot).stations[slot % n]
        assume(owner.location.is_active and clique_gate(owner))
        accept = frozenset(data.draw(st.sets(st.sampled_from(ring.active_ids())),
                                     label="accept") - {owner.sid})
        ring = ring.fork(FaultSpec(slot, accept))
        first = slot + 1
    judged = convergence(ring.run_until(slot + 2 * n))
    assert judged.converged and not judged.degenerate, ring.scenario
    # The counter tree predicts every gate up to here (CA), bar the known
    # mispredictions of some three-fault chains.
    if len(ring.scenario.faults) < 3:
        assert all(c.ok for c in tree_gate_checks(ring)), ring.scenario
