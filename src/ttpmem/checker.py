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
over every admissible fault chain of ``kfault_scenarios`` (a bounded prefix
of them for k >= 3) and judges the two-round convergence claim (NC), the
counter-tree predictions at every gate (CA) and, for a single fault, the
closed-form counting oracle and per-slot simulation by the abstraction.
The chains come from one depth-first walk: a prefix that several chains
share runs once, and at every fault point the ring and a counter tree fed
event by event are forked, so the tree's predictions and the simulation
check are made once per shared slot and no run is replayed from slot 0.
The tails are shared too, for k >= 2: siblings (one fork, the last fault
at the same slot, different accept sets) that reach identical rings and
trees right after that slot have one judged tail between them.  A single
fault's tail reads the run's whole history, so it is never shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .abstraction import (
    AbstractInputs,
    AbstractState,
    _state,
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


# Chains a k >= 3 sweep runs when no run budget is given.
SAMPLE_CHAINS = 100


# -- abstract state-space exploration -----------------------------------------


def _canon(s: AbstractState) -> AbstractState:
    # tg/sg are write-only decorations; r only matters as 0 / 1 / >=2.
    # Built like the successors themselves, without ``replace``: explore
    # canonicalises every successor it makes.
    return _state({**s.__dict__, "tg": 0, "sg": 0, "r": min(s.r, 2)})


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
    g = StateGraph(n, x)
    init = _canon(abstract_init(n))
    g.add(init)
    frontier = [0]
    while frontier:
        if len(g.states) > max_states:
            raise ResourceCap(
                f"exploration for n={n} x={x} passed {max_states} states"
            )
        nxt: List[int] = []
        for i in frontier:
            s = g.states[i]
            if s.c_in > 0:
                input_choices: Iterable[AbstractInputs] = (
                    AbstractInputs(fault=True, x=x),
                )
            else:
                input_choices = (AbstractInputs(g=False), AbstractInputs(g=True))
            seen_here = set()
            for inp in input_choices:
                for tr in abstract_successors(s, inp, **flags):
                    post = _canon(tr.post)
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


def _scenario_witness(sc: Scenario, extra: str) -> Tuple[str, ...]:
    return tuple(scenario_text(sc).splitlines()) + (extra,)


Mismatches = Dict[str, Tuple[str, str]]  # check -> (witness line, detail)


@dataclass(slots=True)
class _Path:
    """One ring of the depth-first walk over fault chains, with what watches
    it slot by slot: the counter tree, fed each event as it happens and
    compared at each gate (CA); for a single fault the abstraction's state
    before the next slot (SIM); and the first mismatch of each check met on
    this path, as (witness line, detail).  A fork copies all of it, so a
    slot that several chains share is run and judged once."""

    ring: Ring
    tree: Optional[CounterTree] = None
    pre: Optional[AbstractState] = None
    bad: Mismatches = field(default_factory=dict)

    def fork(self, fault: FaultSpec) -> "_Path":
        return _Path(self.ring.fork(fault), self.tree and self.tree.fork(),
                     self.pre, dict(self.bad))

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
            if not any(
                tr.post == post and tr.emits == ev.emitted
                for tr in abstract_successors(self.pre, inp, weak_gate=ring.weak_gate)
            ):
                self.bad["SIM"] = (f"slot {ev.slot}",
                                   f"no abstract step {self.pre} -> {post} (inputs {inp})")
                post = None  # the path's first SIM failure is all it reports
            self.pre = post


def _chains(root: _Path, k: int) -> Iterator[_Path]:
    """Every admissible chain of k faults, depth first from the fault-free
    ``root`` at slot 0: the first fault strikes a slot of the first round,
    each later one a slot at most one round after its predecessor whose
    owner actually sends, and each accept set ranges over the receivers
    still listening there.  A path is advanced to each candidate slot and
    forked there with every fault it admits, so each slot before a fault
    runs once however many chains share it.  Yields each chain's path,
    forked at its last fault (that slot not yet run), in enumeration order.
    For k=1 the pre-fault regime is rotationally stationary, so placing the
    fault in the first round is exhaustive."""
    n = root.ring.n

    def extend(path: _Path) -> Iterator[_Path]:
        faults = path.ring.scenario.faults
        first = faults[-1].slot + 1 if faults else 0
        for slot in range(first, first + n):
            while path.ring.slot < slot:
                path.advance()
            ring = path.ring
            owner = ring.stations[slot % n]
            if not (owner.location.is_active and clique_gate(owner, weak=ring.weak_gate)):
                continue  # silent slot: nothing to corrupt
            receivers = [sid for sid in ring.active_ids() if sid != owner.sid]
            for r in range(len(receivers) + 1):
                for accept in combinations(receivers, r):
                    child = path.fork(FaultSpec(slot, frozenset(accept)))
                    if len(faults) + 1 == k:
                        yield child
                    else:
                        yield from extend(child)

    return extend(root)


Tails = Dict[tuple, Tuple[Convergence, Mismatches]]


def _tail(path: _Path, end: int, tails: Tails) -> Tuple[Convergence, Mismatches, bool]:
    """Run a chain's last fault slot, then its tail to ``end``; return its
    convergence there, its path's mismatches, and whether the two came from
    ``tails``: the outcomes of this fork's earlier chains, by their state
    right after the fault slot (the ring, and the counter tree or its
    absence).  A chain that reaches a new state runs on and adds its own."""
    path.advance()
    key = (path.ring.state_key(), None if path.tree is None else path.tree.state_key())
    outcome = tails.get(key)
    if outcome is not None:
        return outcome + (True,)
    while path.ring.slot < end:
        path.advance()
    outcome = tails[key] = (convergence(path.ring), path.bad)
    return outcome + (False,)


def _root(n: int, k: int, gate: str) -> Ring:
    return Ring(Scenario(n=n, rounds=k + 3), gate=gate, record=False)


def kfault_scenarios(n: int, k: int) -> Iterable[Scenario]:
    """Every admissible placement of k faults on a ring with the strict
    clique gate, in the sweep's order: the scenarios of ``_chains``, whose
    walk runs each prefix once and forks the ring at every fault."""
    for path in _chains(_Path(_root(n, k, "strict")), k):
        yield path.ring.scenario


def _sweep(n: int, k: int, max_runs: Optional[int], gate: str) -> SweepResult:
    """Run every chain of ``kfault_scenarios(n, k)`` and judge convergence
    two rounds after the last fault (NC) and the counter tree at every gate
    (CA); single-fault runs go on to the horizon and are also judged by the
    closed-form counting oracle (CA) and, slot by slot, by the abstraction
    (SIM).  A mismatch on a prefix that chains share (see ``_chains``) is
    reported against the first chain, in enumeration order, through it.
    Up to k=2 the sweep is exhaustive and overrunning ``max_runs``
    raises; beyond, the first ``max_runs`` (default ``SAMPLE_CHAINS``)
    chains are run.

    For k >= 2, siblings (chains of one fork: the same earlier faults and
    the same last fault slot, in a row in the walk) whose accept sets
    differ only in receivers that reject the frame anyway reach the same
    ring and counter tree right after that slot.  The first of them runs
    the 2n-1 slots of the tail; the others take its verdict and mismatches
    (see ``_tail``), which are exact, as siblings share the prefix and the
    fault slot's gate check.  Every chain is still counted and gets its own
    witness.  A single fault's tail is not shared: it reads the whole
    history (the counting oracle, the abstraction's inputs), and no two
    single-fault siblings reach the same state anyway."""
    exhaustive = k <= 2
    if not exhaustive and max_runs is None:
        max_runs = SAMPLE_CHAINS
    runs = degenerate = round1_splits = shared_tails = 0
    failed: Dict[str, Tuple[Tuple[str, ...], str]] = {}  # first (witness, detail)
    tails: Tails = {}  # of the fork ``tails_of``: its siblings come in a row
    tails_of = None
    ring = _root(n, k, gate)
    root = _Path(ring, CounterTree(n), abstraction_map(ring) if k == 1 else None)
    for path in _chains(root, k):
        if max_runs is not None and runs >= max_runs:
            if exhaustive:
                raise ResourceCap(
                    f"{k}-fault sweep for n={n} exceeded the budget of "
                    f"{max_runs} runs"
                )
            break
        runs += 1
        # Checks that have already failed need not watch this run's tail.
        if "CA" in failed:
            path.tree = None
        if "SIM" in failed:
            path.pre = None
        ring = path.ring
        sc = ring.scenario
        last = sc.faults[-1].slot
        if k == 1:
            while ring.slot < sc.total_slots:
                path.advance()
                if ring.slot == last + n and len(partition_classes(ring)) > 1:
                    round1_splits += 1
                if ring.slot == last + 2 * n:
                    judged = convergence(ring)
            if "CA" not in failed:
                c = next((c for c in counting_gate_checks(ring) if not c.ok), None)
                if c is not None:  # the closed form's mismatch goes ahead of the tree's
                    path.bad["CA"] = (f"slot {c.slot} s{c.sid}",
                                      f"predicted {c.predicted}, ring held {c.actual}")
            bad = path.bad
        else:
            if tails_of != (sc.faults[:-1], last):
                tails, tails_of = {}, (sc.faults[:-1], last)
            judged, bad, shared = _tail(path, last + 2 * n, tails)
            shared_tails += shared
        degenerate += judged.degenerate  # vacuous clique, not success
        if not judged.converged and "NC" not in failed:
            failed["NC"] = (
                _scenario_witness(sc, f"classes at round-2 end: {judged.classes}"),
                "still partitioned two rounds after the last fault",
            )
        for prop in ("SIM", "CA"):
            if prop in bad and prop not in failed:
                extra, detail = bad[prop]
                failed[prop] = (_scenario_witness(sc, extra), detail)
    scope = f"k={k} {'exhaustive' if exhaustive else 'sample'} ({runs} runs"
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
    ), shared_tails=shared_tails)


def cross_check(
    n_values: Sequence[int],
    k: int = 1,
    max_runs: Optional[int] = None,
    gate: str = "strict",
) -> List[SweepResult]:
    """The concrete fault-chain sweep for each ring size; see ``_sweep``."""
    if k < 1:
        raise ValueError(f"need at least one fault, got k={k}")
    if max_runs is not None and max_runs < 1:
        raise ValueError(f"the run budget must be at least 1, got {max_runs}")
    return [_sweep(n, k, max_runs, gate) for n in n_values]
