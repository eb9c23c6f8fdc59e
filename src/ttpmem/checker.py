"""Explicit-state checking of the counter abstraction, and cross-validation
of concrete runs against it.

``explore`` builds the reachable abstract state space for a fixed ring size
and voucher count (the slot-owner nondeterminism and the g input are both
branched); ``check_property`` then judges one property, a row of
``PROPERTIES``, over the graph, with a shortest violating path
reconstructed from the BFS tree:

* P1  at the end of the fault round the two classes never tie;
* P2  with a voucher majority, no voucher dies during the fault round;
* P3  once every voucher has sent while rejecters still lag (the tie race
      is decided), the voucher class never shrinks;
* P4  at that decision point the rejecters' gates can no longer pass;
* P6  from the second round boundary on, one class is extinct;
* P7  after two full rounds only one class remains, for good.

``cross_check`` is the one concrete sweep: for k faults it drives the ring
over every admissible fault chain of ``kfault_scenarios`` and judges the
two-round convergence claim (NC), the counter-tree predictions at every
gate (CA) and, for a single fault, the closed-form counting oracle and
per-slot simulation by the abstraction.
The chains come from one depth-first walk: a prefix that several chains
share runs once, and at every fault point the ring and a counter tree fed
event by event are forked, so the tree's predictions and the simulation
check are made once per shared slot and no run is replayed from slot 0.
The tails are shared too.  In the last fault's slot each receiver's step
reads only its own state and whether the frame reaches it clean; the
decisive receivers are those that a clean and a corrupted frame leave
apart (``Ring.decisive_receivers``).  Siblings whose accept sets agree on
them reach the same ring and tree, so the sweep's judge forks and runs
the first of them once for the group, and the walk yields that judgement
with every chain of the group.  A chain is its fault tuple: a scenario is
built from it only to word a failed check's witness.  On the fault-free
ring every receiver is decisive, so single-fault chains never share.

The simulation check folds each slot's event into a tally of the run
(``abstraction.fold_slot``), which gives the ring's abstract image after
the slot and the slot's inputs, and checks the tally against the ring's
stations at each run's end.  The fold reads the ring's events, never the
automaton, so the check stays independent of the automaton it checks; it
reads the automaton's moves from a table that lives for one sweep, keyed on
the (state, inputs) pairs themselves: ``abstract_successors`` is a pure
function of them, and a sweep meets few distinct ones (928 over the 17,384
slots of n=3..7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar)

from .abstraction import (
    G_INPUT,
    NO_INPUT,
    AbstractInputs,
    AbstractState,
    RingTally,
    abstract_init,
    abstract_successors,
    abstraction_map,
    check_populations,
    fold_slot,
    start_tally,
)
from .kfault import CounterTree, counting_gate_checks
from .kfault import tree_gate_checks  # noqa: F401  (bench/spans.py patches it here)
from .protocol import SoundnessError, clique_gate
from .ring import (
    Convergence,
    FaultSpec,
    ResourceCap,
    Ring,
    Scenario,
    convergence,
    partition_classes,
    scenario_text,
)


# Runs a sweep may make per ring size when no run budget is given: k=2 at
# n=8 (720,832 chains), k=3 at n=5 (148,120) and k=4 at n=4 (56,092) fit,
# k=1 from n=17 (n * 2**(n-1) chains) does not.
RUN_BUDGET = 1_000_000
# Abstract states an exploration may reach per (n, x) before it is refused.
STATE_BUDGET = 200_000


# -- abstract state-space exploration -----------------------------------------


class StateGraph:
    def __init__(self, n: int, x: int):
        self.n = n
        self.x = x
        self.states: List[AbstractState] = []
        self.index: Dict[AbstractState, int] = {}
        self.edges: List[List[Tuple[str, int]]] = []
        self.parent: List[Optional[Tuple[int, str]]] = []

    def add(self, s: AbstractState) -> Tuple[int, bool]:
        i = self.index.get(s)
        if i is not None:
            return i, False
        i = len(self.states)
        self.index[s] = i
        self.states.append(s)
        self.edges.append([])
        self.parent.append(None)
        return i, True

    def path(self, i: int) -> Tuple[str, ...]:
        names: List[str] = []
        while self.parent[i] is not None:
            i, name = self.parent[i]
            names.append(name)
        return tuple(reversed(names))


def explore(
    n: int,
    x: int,
    *,
    weak_gate: bool = False,
    strengthened: bool = True,
    literal_guard: bool = False,
    max_states: int = STATE_BUDGET,
) -> StateGraph:
    if max_states < 1:
        raise ValueError(f"the state budget must be at least 1, got {max_states}")
    flags = dict(weak_gate=weak_gate, strengthened=strengthened,
                 literal_guard=literal_guard)
    fault_input = (AbstractInputs(x=x),)
    g = StateGraph(n, x)
    g.add(abstract_init(n))
    frontier = [0]
    while frontier:
        if len(g.states) > max_states:
            raise ResourceCap(
                f"exploration for n={n} x={x} passed {max_states} states"
            )
        nxt: List[int] = []
        for i in frontier:
            s = g.states[i]
            seen_here = set()
            for inp in (NO_INPUT, G_INPUT) if s.fault_seen else fault_input:
                for tr in abstract_successors(s, inp, **flags):
                    post = tr.post
                    if (tr.name, post) in seen_here:
                        continue
                    seen_here.add((tr.name, post))
                    # per-round budgets keep the d-counters below the class
                    # populations; the unbudgeted mutant may not
                    if strengthened and not (
                        post.d0 <= post.c0 and post.d1 <= post.c1
                        and post.df <= post.cf and 1 <= post.cp <= n
                    ):
                        raise SoundnessError(f"{tr.name} broke a counter bound: {post}")
                    j, fresh = g.add(post)
                    g.edges[i].append((tr.name, j))
                    if fresh:
                        g.parent[j] = (i, tr.name)
                        nxt.append(j)
        frontier = nxt
    return g


# -- property verdicts ---------------------------------------------------------


@dataclass(frozen=True)
class PropertyVerdict:
    prop: str
    n: int
    constraint: str
    holds: bool
    witness: Tuple[str, ...] = ()
    detail: str = ""

    def report_line(self) -> str:
        verdict = "HOLDS" if self.holds else "FAILS"
        line = f"{self.prop} n={self.n} constraint={self.constraint} {verdict} witness={len(self.witness)}"
        if not self.holds and self.detail:
            line += f"  [{self.detail}]"
        return line


class Property(NamedTuple):
    """One row of ``PROPERTIES``: the x-values it is judged on (an
    ``x_values`` constraint), the states it judges, the detail it reports at
    a state at fault (a false value where the state is not), and whether it
    also judges every state reachable from those."""

    scope: str
    judges: Callable[[StateGraph, AbstractState], bool]
    fault: Callable[[StateGraph, AbstractState], object]
    reach: bool = False


def _fault_round_end(g: StateGraph, s: AbstractState) -> bool:
    return s.fault_seen and s.r == 0 and s.cp == s.n


def _decided_tie(g: StateGraph, s: AbstractState) -> bool:
    return s.fault_seen and s.d1 == g.x and s.d0 < g.x


# The six properties of the module docstring, in report order.
PROPERTIES: Dict[str, Property] = {
    "P1": Property("any", _fault_round_end,
                   lambda g, s: s.c1 == s.c0 and f"c1=c0={s.c1} at round end"),
    "P2": Property("majority", _fault_round_end,
                   lambda g, s: s.c1 != g.x and f"c1={s.c1} != x={g.x} at round end"),
    "P3": Property("tie", _decided_tie,
                   lambda g, s: s.c1 != g.x and f"c1 dropped to {s.c1}", reach=True),
    "P4": Property("tie", _decided_tie,
                   lambda g, s: s.c1 + s.c0 - 2 * s.d1 > 0
                   and f"rejecter gate margin {s.c1 + s.c0 - 2 * s.d1}"),
    "P6": Property("any", lambda g, s: s.fault_seen and s.r >= 1 and s.cp == s.n,
                   lambda g, s: s.c1 > 0 and s.c0 > 0 and f"c1={s.c1}, c0={s.c0} at boundary"),
    "P7": Property("any", lambda g, s: s.fault_seen and s.r >= 2,
                   lambda g, s: s.c1 > 0 and s.c0 > 0
                   and f"c1={s.c1}, c0={s.c0} after two rounds"),
}


def check_property(prop: str, g: StateGraph) -> PropertyVerdict:
    """Judge one row of ``PROPERTIES`` on one graph: the states it judges in
    index order, then, for a row that reaches, breadth first what they
    reach.  It fails at the first state at fault, with the state's
    exploration path plus this search's own steps to it as the witness."""
    row = PROPERTIES[prop]
    frontier = [i for i, s in enumerate(g.states) if row.judges(g, s)]
    # Each state met -> the state and step this search reached it by, if any.
    parent: Dict[int, Optional[Tuple[int, str]]] = dict.fromkeys(frontier)
    while frontier:
        nxt: List[int] = []
        for i in frontier:
            detail = row.fault(g, g.states[i])
            if detail:
                steps: List[str] = []
                while parent[i] is not None:
                    i, name = parent[i]
                    steps.append(name)
                return PropertyVerdict(prop, g.n, f"x={g.x}", False,
                                       g.path(i) + tuple(reversed(steps)), detail)
            if row.reach:
                for name, k in g.edges[i]:
                    if k not in parent:
                        parent[k] = (i, name)
                        nxt.append(k)
        frontier = nxt
    return PropertyVerdict(prop, g.n, f"x={g.x}", True)


def x_values(n: int, constraint: str) -> List[int]:
    if constraint == "any":
        return list(range(1, n + 1))
    if constraint == "majority":
        return [x for x in range(1, n + 1) if x > n - x]
    if constraint == "tie":
        return [n // 2] if n % 2 == 0 else []
    raise ValueError(f"unknown constraint {constraint!r}")


def check_properties(
    n: int,
    constraint: str = "any",
    *,
    weak_gate: bool = False,
    strengthened: bool = True,
    literal_guard: bool = False,
    max_states: int = STATE_BUDGET,
) -> List[PropertyVerdict]:
    """Every row of ``PROPERTIES`` for one ring size, each on the x-values
    that both ``constraint`` and its own scope admit; a row fails with its
    first failure in x order, and holds vacuously where it admits no x."""
    if max_states < 1:  # refused also where no x is admissible
        raise ValueError(f"the state budget must be at least 1, got {max_states}")
    graphs = {
        x: explore(n, x, weak_gate=weak_gate, strengthened=strengthened,
                   literal_guard=literal_guard, max_states=max_states)
        for x in x_values(n, constraint)
    }
    verdicts = []
    for prop, row in PROPERTIES.items():
        judged = [check_property(prop, graphs[x]) for x in x_values(n, row.scope) if x in graphs]
        failed = next((v for v in judged if not v.holds), None)
        verdicts.append(replace(failed, constraint=constraint) if failed else PropertyVerdict(
            prop, n, constraint, True, (), "" if judged else "no admissible x: vacuous"))
    return verdicts


# -- concrete sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    n: int
    runs: int
    verdicts: Tuple[PropertyVerdict, ...]
    # Chains whose tail was judged once, for an earlier sibling (see _sweep).
    shared_tails: int = 0


Mismatches = Dict[str, Tuple[str, str]]  # check -> (witness line, detail)


# One sweep's abstract moves: a pre-state and its inputs -> the frozenset of
# (post-state, emits) of the automaton's successors.
Moves = Dict[Tuple[AbstractState, AbstractInputs], frozenset]


@dataclass(slots=True)
class _Path:
    """One ring of the depth-first walk over fault chains, with what watches
    it slot by slot: the counter tree, fed each event as it happens and
    compared at each gate (CA); for a single fault the abstraction's state
    before the next slot and the tally that maps the ring onto it (SIM); and
    the first mismatch of each check met on this path, as (witness line,
    detail).  A fork copies all of it but the move table, which every path
    of a sweep shares, and the tally, which is immutable, so a slot that
    several chains share is run and judged once.

    SIM folds each slot's event into the tally (``fold_slot``) and looks the
    step up in the move table, which holds what ``abstract_successors`` gave
    for each (state, inputs) the sweep has met; that function is pure and a
    sweep has one gate, so the table only saves asking it twice.  The tally
    goes on past the path's first SIM failure, for the judge's check of it
    against the ring's stations at the run's end."""

    ring: Ring
    tree: Optional[CounterTree] = None
    pre: Optional[AbstractState] = None
    tally: Optional[RingTally] = None
    bad: Mismatches = field(default_factory=dict)
    moves: Moves = field(default_factory=dict)

    def fork(self, fault: FaultSpec) -> "_Path":
        return _Path(self.ring.fork(fault), self.tree and self.tree.fork(),
                     self.pre, self.tally, dict(self.bad), self.moves)

    def advance(self) -> None:
        ring = self.ring
        ring.step()
        ev = ring.events[-1]
        if self.tree is not None:
            c = self.tree.feed(ev)
            if c is not None and not c.ok and "CA" not in self.bad:
                self.bad["CA"] = (f"slot {c.slot} s{c.sid}",
                                  f"predicted {c.predicted}, ring held {c.actual}")
        if self.tally is None:
            return
        self.tally, post, inp = fold_slot(self.tally, ev)
        if self.pre is None:
            return  # SIM failed on this path: only the tally goes on, for the judge
        at = (self.pre, inp)
        moves = self.moves.get(at)
        if moves is None:
            moves = self.moves[at] = frozenset(
                (tr.post, tr.emits)
                for tr in abstract_successors(self.pre, inp, weak_gate=ring.weak_gate))
        if (post, ev.emitted) not in moves:
            self.bad["SIM"] = (f"slot {ev.slot}",
                               f"no abstract step {self.pre} -> {post} (inputs {inp})")
            post = None  # the path's first SIM failure is all it reports
        self.pre = post


Chain = Tuple[FaultSpec, ...]
J = TypeVar("J")


def _chains(root: _Path, k: int,
            judge: Callable[[_Path, FaultSpec], J]) -> Iterator[Tuple[Chain, J]]:
    """Every admissible chain of k faults, depth first from the fault-free
    ``root`` at slot 0: the first fault strikes a slot of the first round,
    each later one a slot at most one round after its predecessor whose
    owner actually sends, and each accept set ranges over the receivers
    still listening there.  A path is advanced to each candidate slot and
    forked there with every fault it admits, so each slot before a fault
    runs once however many chains share it.  For k=1 the pre-fault regime
    is rotationally stationary, so placing the fault in the first round is
    exhaustive.

    Yields each chain, in enumeration order, as its fault tuple and what
    ``judge`` made of it.  At the last fault, accept sets that agree on the
    slot's decisive receivers (``Ring.decisive_receivers``) step to the same
    ring and event, so on to the same counter tree: the walk hands the path
    (at the fault slot, not yet run) and the first fault of each such group
    to ``judge`` once, and yields the judgement for every chain of the
    group.  The judge forks the path if it runs the fault."""
    n = root.ring.n

    def extend(path: _Path) -> Iterator[Tuple[Chain, J]]:
        faults = path.ring.scenario.faults
        last = len(faults) + 1 == k
        first = faults[-1].slot + 1 if faults else 0
        for slot in range(first, first + n):
            while path.ring.slot < slot:
                path.advance()
            ring = path.ring
            owner = ring.stations[slot % n]
            if not (owner.location.is_active and clique_gate(owner, weak=ring.weak_gate)):
                continue  # silent slot: nothing to corrupt
            receivers = [sid for sid in ring.active_ids() if sid != owner.sid]
            decisive = ring.decisive_receivers() if last else None
            outcomes: Dict[frozenset, J] = {}  # by the decisive receivers accepted
            for r in range(len(receivers) + 1):
                for accept in combinations(receivers, r):
                    fault = FaultSpec(slot, frozenset(accept))
                    if not last:
                        yield from extend(path.fork(fault))
                        continue
                    group = fault.accept & decisive
                    if group not in outcomes:
                        outcomes[group] = judge(path, fault)
                    yield faults + (fault,), outcomes[group]

    return extend(root)


def _root(n: int, k: int, weak_gate: bool = False) -> Ring:
    return Ring(Scenario(n=n, rounds=k + 3), weak_gate=weak_gate, record=False)


def kfault_scenarios(n: int, k: int) -> Iterable[Scenario]:
    """Every admissible placement of k faults on a ring with the strict
    clique gate, in the sweep's order: the chains of ``_chains``, whose
    walk runs each prefix once and forks the ring at every fault."""
    root = _root(n, k)
    for faults, _ in _chains(_Path(root), k, lambda path, fault: None):
        yield replace(root.scenario, faults=faults)


def _over_budget(n: int, k: int, max_runs: int) -> ResourceCap:
    return ResourceCap(f"{k}-fault sweep for n={n} exceeded the budget of {max_runs} runs")


def _sweep(n: int, k: int, max_runs: int, weak_gate: bool) -> SweepResult:
    """Run every chain of ``kfault_scenarios(n, k)`` and judge convergence
    two rounds after the last fault (NC) and the counter tree at every gate
    (CA); single-fault runs go on to the horizon and are also judged by the
    closed-form counting oracle (CA) and, slot by slot, by the abstraction
    (SIM).  A mismatch on a prefix that chains share (see ``_chains``) is
    reported against the first chain, in enumeration order, through it.
    Every chain runs, at every k: a walk longer than ``max_runs`` raises.

    The walk calls ``judge`` once per group of siblings (chains of one
    fork: the same earlier faults and the same last fault slot) whose
    accept sets agree on that slot's decisive receivers: they reach the
    same ring and counter tree right after it (see ``_chains``).  The judge
    forks the path with the fault and runs the fault slot and the tail; its
    verdict and mismatches are exact for every chain of the group, as
    siblings also share the prefix and the fault slot's gate check.  Every
    chain is still counted, and a witness is built from its fault tuple
    when a check first fails on it.  On the fault-free ring every receiver
    is decisive, so a single fault's tail, which reads the whole history
    (the counting oracle, the abstraction's tally), is never shared."""
    runs = round1_splits = judged_tails = 0
    failed: Dict[str, Tuple[Tuple[str, ...], str]] = {}  # first (witness, detail)
    ring = _root(n, k, weak_gate)
    root = _Path(ring, CounterTree(n))
    if k == 1:
        root.pre, root.tally = abstraction_map(ring), start_tally(n)

    def judge(path: _Path, fault: FaultSpec) -> Tuple[Convergence, Mismatches]:
        nonlocal judged_tails, round1_splits
        judged_tails += 1
        # Checks that have already failed need not watch this run's tail.
        sim = (None, None) if "SIM" in failed else (path.pre, path.tally)
        path = _Path(path.ring, None if "CA" in failed else path.tree, *sim,
                     path.bad, path.moves).fork(fault)
        ring = path.ring
        last = ring.slot  # forked at its last fault, which has not run yet
        end = ring.horizon if k == 1 else last + 2 * n
        while ring.slot < end:
            path.advance()
            if k == 1 and ring.slot == last + n and len(partition_classes(ring)) > 1:
                round1_splits += 1
            if ring.slot == last + 2 * n:
                judged = convergence(ring)
        if path.tally is not None:  # a departure no event recorded fails the sweep
            check_populations(ring, path.tally)
        if k == 1 and "CA" not in failed:
            c = next((c for c in counting_gate_checks(ring) if not c.ok), None)
            if c is not None:  # the closed form's mismatch goes ahead of the tree's
                path.bad["CA"] = (f"slot {c.slot} s{c.sid}",
                                  f"predicted {c.predicted}, ring held {c.actual}")
        return judged, path.bad

    def witness(faults: Chain, extra: str) -> Tuple[str, ...]:
        sc = replace(root.ring.scenario, faults=faults)
        return tuple(scenario_text(sc).splitlines()) + (extra,)

    for faults, (judged, bad) in _chains(root, k, judge):
        if runs >= max_runs:
            raise _over_budget(n, k, max_runs)
        runs += 1
        if not judged.converged and "NC" not in failed:
            failed["NC"] = (
                witness(faults, f"classes at round-2 end: {judged.classes}"),
                "still partitioned two rounds after the last fault",
            )
        for prop in ("SIM", "CA"):
            if prop in bad and prop not in failed:
                extra, detail = bad[prop]
                failed[prop] = (witness(faults, extra), detail)
    scope = f"k={k} exhaustive ({runs} runs"
    if k == 1:
        scope += f", {round1_splits} round-1 splits"
        if round1_splits == 0:
            failed.setdefault("NC", ((f"n={n}",), "no scenario was still split after "
                                     "one round; two-round claim untestable"))
    scope += ")"
    return SweepResult(n=n, runs=runs, verdicts=tuple(
        PropertyVerdict(prop, n, scope, prop not in failed, *failed.get(prop, ((), "")))
        for prop in (("NC", "CA", "SIM") if k == 1 else ("NC", "CA"))
    ), shared_tails=runs - judged_tails)


def cross_check(
    n_values: Sequence[int],
    k: int = 1,
    max_runs: Optional[int] = None,
    weak_gate: bool = False,
) -> List[SweepResult]:
    """The concrete fault-chain sweep for each ring size; see ``_sweep``.
    Without ``max_runs`` a sweep may make ``RUN_BUDGET`` runs per ring
    size.  A single fault has exactly n * 2**(n-1) chains, so a ring size
    whose count exceeds the budget is refused before any ring runs."""
    if k < 1:
        raise ValueError(f"need at least one fault, got k={k}")
    if max_runs is None:
        max_runs = RUN_BUDGET
    elif max_runs < 1:
        raise ValueError(f"the run budget must be at least 1, got {max_runs}")
    # n << (n-1) is the k=1 chain count, and past the budget's bit length
    # 2**(n-1) alone exceeds it; a ring under 3 is left to Scenario.validate.
    # The first such n is found without listing ``n_values``, which may be a
    # huge range.
    over = k == 1 and next((n for n in n_values if n > 2 and (
        n > max_runs.bit_length() or n << (n - 1) > max_runs)), None)
    if over:
        raise _over_budget(over, k, max_runs)
    return [_sweep(n, k, max_runs, weak_gate) for n in n_values]
