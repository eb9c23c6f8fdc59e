"""Counter tree for runs with several asymmetric faults, and the counting
oracles that predict every clique-gate comparison from bus-observable events.

The tree starts as the single class '' of all n stations, which the first
fault splits like any later one: each fault splits every existing class in
two (vouchers get label suffix '1', everyone else '0'), giving a binary
tree whose depth grows with the fault count.  A split relabels every
station, so every label is a key of the newest level and of its
auxiliaries, and no station leaves before the first fault: ``observe``
counts by label without a guard.  Per class the tree keeps a population
counter C_w and an emission counter d_w for the round that started at the
fault which created the level; the leaf level additionally carries two
auxiliary counters per class — d^A_w (emissions in the current window) and
d^F_w (slots where a class member's frame went missing from the window: its
gate failed, or it is gone and its last frame just aged out of the window).
They reset at every round boundary of any fault: ``observe`` zeroes them
once, at the end of the slot before the one that opens a fault's next round.

``predict_gate`` turns those counters into the (acc, fail) pair an active
station must hold when its own slot comes up, selecting the arithmetic by
the station's position relative to the fault rounds; each branch sums acc
and fail together in one pass over its counters.  It reads only the
counters and the owner's class, never another station, and the counters
see only observable slot outcomes, so agreement with a concrete run is a
genuine cross-check.  Two identities make that possible.  In the fault
round (slot t, cp0 = t - f1 < n), the n - cp0 slots of the window before
the first fault all carried a frame, the owner's own included, and every
frame since is counted once, in the d of the level open when it was sent:
acc = n - cp0 + sum_l d[w_s[:l]] and fail = sum_l sum_w d_w - sum_l d[w_s[:l]].
Once the classes have settled, a leaf's C has dropped at each departure,
so the pair is (C[w_s], sum_w C_w - C[w_s]).

``CounterTree.feed`` is the per-event step: predict the owner's gate from
the counters as they stand, then observe the event.  A tree fed alongside a
running ring forks with it, so a sweep feeds each shared prefix once.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .ring import Ring, SlotEvent


def expected_counter_count(k: int) -> int:
    """Closed form for the number of counters a k-fault tree needs: per
    level i one (C, d) pair for each of its i+1 classes, one elapsed-slots
    clock per fault, and the two auxiliaries for each of the k+1 leaves.
    Before the first fault the tree predicts (n, 0) from no counter at all."""
    if k == 0:
        return 0
    return sum(2 * (i + 1) for i in range(1, k + 1)) + k + 2 * (k + 1)


class CounterTree:
    def __init__(self, n: int):
        self.n = n
        self.fault_slots: List[int] = []
        # levels[i] (i = 0 for the first fault) maps label -> [C, d]
        self.levels: List[Dict[str, List[int]]] = []
        self.aux_a: Dict[str, int] = {}
        self.aux_f: Dict[str, int] = {}
        self.label: Dict[int, str] = {i: "" for i in range(n)}
        self.active: set = set(range(n))
        # Virtual pre-run emissions keep window arithmetic uniform.
        self.last_emission: Dict[int, int] = {i: i - n for i in range(n)}

    def fork(self) -> "CounterTree":
        """An independent copy, to be fed a different continuation."""
        clone = CounterTree.__new__(CounterTree)
        clone.n = self.n
        clone.fault_slots = list(self.fault_slots)
        clone.levels = [{w: list(cd) for w, cd in level.items()} for level in self.levels]
        clone.aux_a = dict(self.aux_a)
        clone.aux_f = dict(self.aux_f)
        clone.label = dict(self.label)
        clone.active = set(self.active)
        clone.last_emission = dict(self.last_emission)
        return clone

    # -- event intake --------------------------------------------------------

    def observe(self, ev: SlotEvent) -> None:
        slot, owner, owner_loc, emitted, _gate, departed, accepted = ev
        if not owner_loc.is_active and owner_loc.is_receiving:
            raise ValueError("counter tree is undefined while stations integrate")
        fault_slots = self.fault_slots
        if accepted is not None:
            self._split(slot, owner, accepted)
            self.last_emission[owner] = slot
        elif emitted:
            if fault_slots:
                w = self.label[owner]
                if slot < fault_slots[-1] + self.n:
                    self.levels[-1][w][1] += 1
                self.aux_a[w] += 1
            self.last_emission[owner] = slot
        elif owner not in self.active and self.last_emission[owner] == slot - self.n:
            # A gone station's slot, one round after its last frame: gaters'
            # windows lose that frame right now.
            self.aux_f[self.label[owner]] += 1
        # Departures (the owner's failed gate, or a sender convicted by its
        # successors' verdicts mid-slot) shrink the class populations.
        for sid, kind in departed:
            self.active.remove(sid)
            w = self.label[sid]
            self.levels[-1][w][0] -= 1
            if kind == "gate":
                self.aux_f[w] += 1
        # The next slot opens a fault's next round: its window starts afresh.
        if slot + 1 - self.n in fault_slots:
            for w in self.aux_a:
                self.aux_a[w] = 0
                self.aux_f[w] = 0

    def _split(self, slot: int, emitter: int, accepted: Tuple[int, ...]) -> None:
        self.fault_slots.append(slot)
        old_label = dict(self.label)
        vouched = set(accepted) | {emitter}
        for sid in self.label:
            self.label[sid] = old_label[sid] + ("1" if sid in vouched else "0")
        prev = self.levels[-1] if self.levels else {"": [self.n, 0]}
        new_level: Dict[str, List[int]] = {}
        for w, (c, _d) in prev.items():
            if w == old_label[emitter]:
                c1 = 1 + len(accepted)
                new_level[w + "1"] = [c1, 1]
                new_level[w + "0"] = [c - c1, 0]
            else:
                new_level[w + "0"] = [c, 0]
        self.levels.append(new_level)
        self.aux_a = {w: (1 if w == old_label[emitter] + "1" else 0) for w in new_level}
        self.aux_f = {w: 0 for w in new_level}

    def feed(self, ev: SlotEvent) -> Optional["GateCheck"]:
        """Take one slot of a run: if an active owner ran its gate, compare
        the operands with the tree's prediction, then observe the event.
        Returns that comparison, or None for a slot without an active gate."""
        check = None
        if ev.owner_loc.is_active:
            check = GateCheck(ev.slot, ev.owner, self.predict_gate(ev.owner, ev.slot),
                              ev.gate)
        self.observe(ev)
        return check

    # -- predictions ----------------------------------------------------------

    def predict_gate(self, sid: int, slot: int) -> Tuple[int, int]:
        """(acc, fail) an active station must hold at its gate this slot:
        each branch is one pass over the counters it reads."""
        if sid not in self.active:
            raise ValueError(f"s{sid} is not active at slot {slot}")
        fault_slots = self.fault_slots
        if not fault_slots:
            return (self.n, 0)
        n, levels, aux_f, w_s = self.n, self.levels, self.aux_f, self.label[sid]

        if slot - fault_slots[0] < n:
            # Window still contains every fault: its n - cp0 slots before the
            # first one all carried a frame the owner accepted, and each frame
            # since is counted in its level's d; foreign-class frames are fail.
            own = sent = 0
            for l, level in enumerate(levels, start=1):
                own += level[w_s[:l]][1]
                for _c, d in level.values():
                    sent += d
            return (n - slot + fault_slots[0] + own, sent - own)

        if slot - fault_slots[-1] < n:
            # Faults 1..i have aged out of the window, i+1..j are inside.
            i = 1
            while slot - fault_slots[i] >= n:
                i += 1
            acc = sent = 0
            for l, level in enumerate(levels[i - 1:], start=i):
                acc += level[w_s[:l]][1]
                for _c, d in level.values():
                    sent += d
            fail, prefix = sent - acc, w_s[:i]
            for w, a in self.aux_a.items():
                if w[:i] == prefix:
                    acc -= a + aux_f[w]
                else:
                    fail -= a + aux_f[w]
            return (acc, fail)

        leaves = levels[-1]
        if slot - fault_slots[-1] < 2 * n:
            # One full round past the last fault: the frozen round-one
            # counts, corrected by this round's missing frames.
            acc = leaves[w_s][1] - aux_f[w_s]
            fail = 0
            for w, (_c, d) in leaves.items():
                if w != w_s:
                    fail += d - aux_f[w]
            return (acc, fail)

        # Stabilized: the leaves' populations are the live headcounts.
        same = leaves[w_s][0]
        return (same, sum([c for c, _d in leaves.values()]) - same)

    # -- audits ----------------------------------------------------------------

    def counters_in_use(self) -> List[str]:
        names: List[str] = []
        for level, counters in enumerate(self.levels, start=1):
            for w in sorted(counters):
                names.append(f"C_{w}")
                names.append(f"d_{w}")
        for i in range(1, len(self.fault_slots) + 1):
            names.append(f"Cp({i})")
        for w in sorted(self.aux_a):
            names.append(f"dA_{w}")
            names.append(f"dF_{w}")
        return names


class GateCheck(NamedTuple):
    slot: int
    sid: int
    predicted: Tuple[int, int]
    actual: Tuple[int, int]

    @property
    def ok(self) -> bool:
        return self.predicted == self.actual


def tree_gate_checks(ring: Ring, tree: Optional[CounterTree] = None) -> List[GateCheck]:
    """Replay a completed run through a counter tree (a fresh one unless
    ``tree``, unfed, is given; it is left holding the whole run) and compare
    every active station's gate operands with the tree's prediction."""
    if tree is None:
        tree = CounterTree(ring.n)
    return [c for c in map(tree.feed, ring.events) if c is not None]


def counting_gate_checks(ring: Ring) -> List[GateCheck]:
    """Single-fault counting prediction, written as its own closed form
    (independent of :class:`CounterTree`): during the fault round a station
    holds acc = |W| - d_other / fail = d_other; afterwards the pair is the
    live headcount of its class versus the rest, kept per class as
    stations leave."""
    if len(ring.scenario.faults) != 1:
        raise ValueError("counting_gate_checks applies to single-fault runs")
    n = ring.n
    fault_slot = ring.scenario.faults[0].slot
    checks: List[GateCheck] = []
    active = set(range(n))
    last_emission = {i: i - n for i in range(n)}
    label: Dict[int, str] = {}
    d_by_class = {"1": 0, "0": 0}
    alive = {"1": 0, "0": 0}  # live headcount per class, from the fault on
    for ev in ring.events:
        slot = ev.slot
        if ev.owner_loc.is_active:
            if slot <= fault_slot:
                predicted = (n, 0)
            elif slot < fault_slot + n:
                mine = label[ev.owner]
                other = d_by_class["0" if mine == "1" else "1"]
                working = len(active) + sum(
                    1 for gone in label if gone not in active
                    and last_emission[gone] > slot - n
                )
                predicted = (working - other, other)
            else:
                same = alive[label[ev.owner]]
                predicted = (same, len(active) - same)
            checks.append(GateCheck(slot=slot, sid=ev.owner,
                                    predicted=predicted, actual=ev.gate))
        # bookkeeping
        if ev.accepted is not None:
            vouched = set(ev.accepted) | {ev.owner}
            label = {i: ("1" if i in vouched else "0") for i in range(n)}
            for a in active:
                alive[label[a]] += 1
            d_by_class["1"] += 1
            last_emission[ev.owner] = slot
        elif ev.emitted:
            if label and slot < fault_slot + n:
                d_by_class[label[ev.owner]] += 1
            last_emission[ev.owner] = slot
        for sid, _kind in ev.departed:
            if sid in active:  # a failed rejoiner leaves again, uncounted
                active.remove(sid)
                if label:
                    alive[label[sid]] -= 1
    return checks
