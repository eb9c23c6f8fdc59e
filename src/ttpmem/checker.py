"""Explicit-state checking of the counter abstraction, and cross-validation
of concrete runs against it.

``explore`` builds the reachable abstract state space for a fixed ring size
and voucher count (the slot-owner nondeterminism and the g input are both
branched); properties are then scanned over the graph, with shortest
violating paths reconstructed from the BFS tree:

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
them reach the same ring and tree, so the walk forks the first of them,
asks the sweep's judge once for the group, and yields that judgement with
every chain of the group.  A chain is its fault tuple: a scenario is built
from it only to word a failed check's witness.  On the fault-free ring
every receiver is decisive, so single-fault chains never share.

The simulation check maps the ring afresh at every slot, so it stays
independent of the automaton it checks, but it reads the automaton's moves
from a table that lives for one sweep, keyed on the (state, inputs) pairs
themselves: ``abstract_successors`` is a pure function of them, and a sweep
meets few distinct ones (928 over the 17,384 slots of n=3..7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .abstraction import (
    G_INPUT,
    NO_INPUT,
    AbstractInputs,
    AbstractState,
    abstract_init,
    abstract_inputs_for_slot,
    abstract_successors,
    abstraction_map,
    conserves_population,
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
    max_states: int = 200_000,
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
                    if not conserves_population(s, post):
                        raise SoundnessError(f"{tr.name} loses stations: {s} -> {post}")
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


def _scan(prop: str, g: StateGraph, where: Callable[[AbstractState], bool],
          broken: Callable[[AbstractState], object]) -> PropertyVerdict:
    """``prop`` fails at the first state, in index order, that ``where``
    selects and ``broken`` finds at fault (it returns the detail, or a false
    value), with that state's breadth-first path as the witness."""
    for i, s in enumerate(g.states):
        detail = where(s) and broken(s)
        if detail:
            return PropertyVerdict(prop, g.n, f"x={g.x}", False, g.path(i), detail)
    return PropertyVerdict(prop, g.n, f"x={g.x}", True)


def _fault_round_end(s: AbstractState) -> bool:
    return s.fault_seen and s.r == 0 and s.cp == s.n


def _decided_tie(g: StateGraph, s: AbstractState) -> bool:
    return s.fault_seen and s.d1 == g.x and s.d0 < g.x


def check_P1(g: StateGraph) -> PropertyVerdict:
    """End of the fault round: the class sizes differ (no standing tie)."""
    return _scan("P1", g, _fault_round_end,
                 lambda s: s.c1 == s.c0 and f"c1=c0={s.c1} at round end")


def check_P2(g: StateGraph) -> PropertyVerdict:
    """Voucher majority: every voucher survives the fault round."""
    return _scan("P2", g, _fault_round_end,
                 lambda s: s.c1 != g.x and f"c1={s.c1} != x={g.x} at round end")


def check_P3(g: StateGraph) -> PropertyVerdict:
    """From any state where all x vouchers have sent this round and fewer
    rejecters have, the voucher class never shrinks again."""
    frontier = [i for i, s in enumerate(g.states) if _decided_tie(g, s)]
    local_parent: Dict[int, Tuple[int, str]] = {}
    seen = set(frontier)
    while frontier:
        nxt: List[int] = []
        for i in frontier:
            s = g.states[i]
            if s.c1 != g.x:
                names: List[str] = []
                j = i
                while j in local_parent:
                    j, name = local_parent[j]
                    names.append(name)
                witness = g.path(j) + tuple(reversed(names))
                return PropertyVerdict("P3", g.n, f"x={g.x}", False, witness,
                                       f"c1 dropped to {s.c1}")
            for name, k in g.edges[i]:
                if k not in seen:
                    seen.add(k)
                    local_parent[k] = (i, name)
                    nxt.append(k)
        frontier = nxt
    return PropertyVerdict("P3", g.n, f"x={g.x}", True)


def check_P4(g: StateGraph) -> PropertyVerdict:
    """At those decision states a rejecter's fault-round gate cannot pass."""
    return _scan("P4", g, lambda s: _decided_tie(g, s),
                 lambda s: s.c1 + s.c0 - 2 * s.d1 > 0
                 and f"rejecter gate margin {s.c1 + s.c0 - 2 * s.d1}")


def check_P6(g: StateGraph) -> PropertyVerdict:
    """At every later round boundary at least one class is extinct."""
    return _scan("P6", g, lambda s: s.fault_seen and s.r >= 1 and s.cp == s.n,
                 lambda s: s.c1 > 0 and s.c0 > 0 and f"c1={s.c1}, c0={s.c0} at boundary")


def check_P7(g: StateGraph) -> PropertyVerdict:
    """Two full rounds after the fault, exactly one class remains, forever."""
    return _scan("P7", g, lambda s: s.fault_seen and s.r >= 2,
                 lambda s: s.c1 > 0 and s.c0 > 0
                 and f"c1={s.c1}, c0={s.c0} after two rounds")


def _merge(prop: str, n: int, constraint: str,
           verdicts: Sequence[PropertyVerdict]) -> PropertyVerdict:
    for v in verdicts:
        if not v.holds:
            return replace(v, constraint=constraint)
    detail = "" if verdicts else "no admissible x: vacuous"
    return PropertyVerdict(prop, n, constraint, True, (), detail)


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
    max_states: int = 200_000,
) -> List[PropertyVerdict]:
    """All six properties for one ring size.  P2 is checked on the majority
    part of the x-range, P3/P4 on the tie part, P1/P6/P7 everywhere."""
    if max_states < 1:  # refused also where no x is admissible
        raise ValueError(f"the state budget must be at least 1, got {max_states}")
    xs = x_values(n, constraint)
    graphs = {
        x: explore(n, x, weak_gate=weak_gate, strengthened=strengthened,
                   literal_guard=literal_guard, max_states=max_states)
        for x in xs
    }
    majority, tie = ([x for x in x_values(n, c) if x in graphs] for c in ("majority", "tie"))
    return [
        _merge("P1", n, constraint, [check_P1(graphs[x]) for x in xs]),
        _merge("P2", n, constraint, [check_P2(graphs[x]) for x in majority]),
        _merge("P3", n, constraint, [check_P3(graphs[x]) for x in tie]),
        _merge("P4", n, constraint, [check_P4(graphs[x]) for x in tie]),
        _merge("P6", n, constraint, [check_P6(graphs[x]) for x in xs]),
        _merge("P7", n, constraint, [check_P7(graphs[x]) for x in xs]),
    ]


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
    before the next slot (SIM); and the first mismatch of each check met on
    this path, as (witness line, detail).  A fork copies all of it but the
    move table, which every path of a sweep shares, so a slot that several
    chains share is run and judged once.

    SIM maps the ring afresh at every slot and looks the step up in the move
    table, which holds what ``abstract_successors`` gave for each (state,
    inputs) the sweep has met.  That function is pure and a sweep has one
    gate, so the table only saves asking it twice; the map is never carried
    along, so SIM stays independent of the automaton it checks."""

    ring: Ring
    tree: Optional[CounterTree] = None
    pre: Optional[AbstractState] = None
    bad: Mismatches = field(default_factory=dict)
    moves: Moves = field(default_factory=dict)

    def fork(self, fault: FaultSpec) -> "_Path":
        return _Path(self.ring.fork(fault), self.tree and self.tree.fork(),
                     self.pre, dict(self.bad), self.moves)

    def advance(self) -> None:
        ring = self.ring
        ring.step()
        ev = ring.events[-1]
        if self.tree is not None:
            c = self.tree.feed(ev)
            if c is not None and not c.ok and "CA" not in self.bad:
                self.bad["CA"] = (f"slot {c.slot} s{c.sid}",
                                  f"predicted {c.predicted}, ring held {c.actual}")
        if self.pre is not None:
            post = abstraction_map(ring)
            inp = abstract_inputs_for_slot(ring, ev.slot)
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


def _chains(root: _Path, k: int, judge: Callable[[_Path], J]) -> Iterator[Tuple[Chain, J]]:
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
    ring and event, so on to the same counter tree: the walk forks the first
    chain of each such group, hands that path (its fault slot not yet run)
    to ``judge`` once, and yields the judgement for every chain of the
    group."""
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
                        outcomes[group] = judge(path.fork(fault))
                    yield faults + (fault,), outcomes[group]

    return extend(root)


def _root(n: int, k: int, gate: str) -> Ring:
    return Ring(Scenario(n=n, rounds=k + 3), gate=gate, record=False)


def kfault_scenarios(n: int, k: int) -> Iterable[Scenario]:
    """Every admissible placement of k faults on a ring with the strict
    clique gate, in the sweep's order: the chains of ``_chains``, whose
    walk runs each prefix once and forks the ring at every fault."""
    root = _root(n, k, "strict")
    for faults, _ in _chains(_Path(root), k, lambda path: None):
        yield replace(root.scenario, faults=faults)


def _over_budget(n: int, k: int, max_runs: int) -> ResourceCap:
    return ResourceCap(f"{k}-fault sweep for n={n} exceeded the budget of {max_runs} runs")


def _sweep(n: int, k: int, max_runs: int, gate: str) -> SweepResult:
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
    runs the fault slot and the tail and returns the verdict and
    mismatches, which are exact for every chain of the group, as siblings
    also share the prefix and the fault slot's gate check.  Every chain is
    still counted, and a witness is built from its fault tuple when a check
    first fails on it.  On the fault-free ring every receiver is decisive,
    so a single fault's tail, which reads the whole history (the counting
    oracle, the abstraction's inputs), is never shared."""
    runs = degenerate = round1_splits = judged_tails = 0
    failed: Dict[str, Tuple[Tuple[str, ...], str]] = {}  # first (witness, detail)
    ring = _root(n, k, gate)
    root = _Path(ring, CounterTree(n), abstraction_map(ring) if k == 1 else None)

    def judge(path: _Path) -> Tuple[Convergence, Mismatches]:
        nonlocal judged_tails, round1_splits
        judged_tails += 1
        # Checks that have already failed need not watch this run's tail.
        if "CA" in failed:
            path.tree = None
        if "SIM" in failed:
            path.pre = None
        ring = path.ring
        last = ring.slot  # forked at its last fault, which has not run yet
        end = ring.horizon if k == 1 else last + 2 * n
        while ring.slot < end:
            path.advance()
            if k == 1 and ring.slot == last + n and len(partition_classes(ring)) > 1:
                round1_splits += 1
            if ring.slot == last + 2 * n:
                judged = convergence(ring)
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
        degenerate += judged.degenerate  # vacuous clique, not success
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
    if degenerate:
        scope += f", {degenerate} degenerate"
    return SweepResult(n=n, runs=runs, verdicts=tuple(
        PropertyVerdict(prop, n, scope, prop not in failed, *failed.get(prop, ((), "")))
        for prop in (("NC", "CA", "SIM") if k == 1 else ("NC", "CA"))
    ), shared_tails=runs - judged_tails)


def cross_check(
    n_values: Sequence[int],
    k: int = 1,
    max_runs: Optional[int] = None,
    gate: str = "strict",
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
    return [_sweep(n, k, max_runs, gate) for n in n_values]
