"""Counter abstraction of the single-fault ring.

Stations are anonymous here: the state keeps only population counters per
class (c_in = untouched by the fault, c1 = vouched for the faulty frame,
c0 = rejected it, cf = failed) plus progress counters within the current
round — d1/d0 = frames sent by each class since the round started, df =
slots that passed silently, cp = slots elapsed in the round, r = rounds
completed since the fault.  One abstract transition corresponds to one slot
of the concrete ring; the slot owner's class is the nondeterminism.

Inputs per step: ``fault`` (the asymmetric fault strikes now, splitting the
ring into x vouchers and n-x rejecters), and ``g`` (at the faulty station's
next own slot: both successor checks went against it, so it left silently
during the round instead of reaching its gate).

After the fault each class z (0 = rejecters, 1 = vouchers; o = the other)
has the same two rules.  Mid-round (cp < n, d_z < c_z) the slot's owner
sends if its clique gate passes and fails otherwise.  The gate shows up as
guard arithmetic: in the fault round a rejecter has acc = c0+c1-d1 and
fail = d1 when its slot comes up, so "acc > fail" is c0+c1 > 2*d_o (dually
for a voucher); from the next round on it is c_z > c_o.  At the rollover
(cp = n, d_z = c_z) the gate is c_z > c_o.  Only the vouchers add details:
the refined later-round guard (``literal_guard=True`` drops it) and the
g-exit at the rollover.  The d-guards pin each class's per-round slot
budget; dropping them (``strengthened=False``) and weakening the gate to >=
(``weak_gate=True``) are deliberate mutations used to show the checked
properties actually depend on these details.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .ring import Ring


@dataclass(frozen=True)
class AbstractState:
    n: int
    c_in: int   # stations the fault has not touched yet (pre-fault: all)
    c0: int     # active rejecters of the faulty frame
    c1: int     # active vouchers (the faulty sender included)
    cf: int     # failed stations
    cp: int     # slot position within the current round, 1..n
    r: int      # completed rounds since the fault
    d0: int     # rejecter-class frames sent this round
    d1: int     # voucher-class frames sent this round
    df: int     # silent slots this round
    tg: int     # global slot counter mod n, 1..n (decoration)
    sg: int     # faulty station's slot index, 0 = not yet known (decoration)
    fault_seen: bool = False
    g_exit: bool = False  # the faulty sender left via its successors' verdict

    def population(self) -> int:
        return self.c_in + self.c0 + self.c1 + self.cf


def _state(fields: Dict[str, object]) -> AbstractState:
    """An ``AbstractState`` holding ``fields``, which must name every field.
    The SIM check builds one per slot and per successor, and filling the
    instance's dict costs a fraction of the frozen ``__init__`` (one
    ``object.__setattr__`` per field); the result equals and hashes like a
    constructed state."""
    s = object.__new__(AbstractState)
    s.__dict__.update(fields)
    return s


@dataclass(frozen=True)
class AbstractInputs:
    fault: bool = False
    g: bool = False
    x: int = 0  # vouchers created by the fault (sender included), 1..n


def abstract_init(n: int) -> AbstractState:
    # d1 = c1 = 1 before the fault: the future faulty sender is counted as
    # having sent this round, so the fault slot itself needs no special
    # progress bookkeeping.
    return AbstractState(
        n=n, c_in=n, c0=0, c1=1, cf=0,
        cp=1, r=0, d0=0, d1=1, df=0,
        tg=1, sg=0, fault_seen=False, g_exit=False,
    )


@dataclass(frozen=True)
class AbstractTransition:
    name: str
    emits: bool
    post: AbstractState


def abstract_successors(
    s: AbstractState,
    inp: AbstractInputs,
    *,
    weak_gate: bool = False,
    strengthened: bool = True,
    literal_guard: bool = False,
) -> List[AbstractTransition]:
    """All slot-steps enabled at ``s`` under the given inputs: at most one
    for each class that owns stations, rejecters first, then vouchers, then
    failed stations."""
    base = {**s.__dict__, "tg": s.tg % s.n + 1}
    out: List[AbstractTransition] = []

    def add(name: str, emits: bool, **changes) -> None:
        out.append(AbstractTransition(name, emits, _state({**base, **changes})))

    # -- before the fault ---------------------------------------------------
    if s.c_in > 0:
        if inp.fault:
            if not 1 <= inp.x <= s.n:
                raise ValueError(f"fault input needs 1 <= x <= n, got x={inp.x}")
            add("fault", True,
                sg=s.tg, c_in=0, c1=inp.x, c0=s.n - inp.x, fault_seen=True)
        else:
            add("tick", True)
        return out

    mid = s.cp < s.n
    roll = s.cp == s.n

    # -- rejecter-class, then voucher-class slots: the same two rules ---------
    for z, o in ("0", "1"), ("1", "0"):
        c, d, c_other = base["c" + z], base["d" + z], base["c" + o]
        if c == 0:
            continue
        # d-strengthening: only c-d members of a class still have a slot
        # left this round.  The mutant drops the constraint.
        if mid and (d < c or not strengthened):
            if s.r == 0:
                phase, acc, fail = "fault_round", s.c0 + s.c1, 2 * base["d" + o]
            else:
                phase, acc, fail = "later_round", c, c_other
            if not (acc > fail or (weak_gate and acc == fail)):
                add(f"r{z}_fail_{phase}", False,
                    cp=s.cp + 1, cf=s.cf + 1, df=s.df + 1, **{"c" + z: c - 1})
            # After a silent departure of the faulty sender at the rollover,
            # the first two slots of the new round belong to the stations
            # that rejected it back then; they cannot be voucher sends.
            elif literal_guard or not (z == "1" and s.r == 1 and s.g_exit and s.cp in (1, 2)):
                add(f"r{z}_send_{phase}", True, cp=s.cp + 1, **{"d" + z: d + 1})
        elif roll and (d == c or not strengthened):
            # At the faulty sender's own slot, with g both successor checks
            # convicted it during the round: it leaves without sending.  The
            # slot is silent either way, and the flag marks that the two
            # convicting stations own the next two slots.
            g_exit = z == "1" and s.r == 0 and inp.g
            passes = c > c_other or (weak_gate and c == c_other)
            if passes and not g_exit:
                add(f"r{z}_send_rollover", True,
                    cp=1, r=s.r + 1, df=0, **{"d" + z: 1, "d" + o: 0})
            else:
                add("r1_guess_exit_rollover" if passes else f"r{z}_fail_rollover",
                    False, cp=1, r=s.r + 1, cf=s.cf + 1, d0=0, d1=0, df=1,
                    g_exit=s.g_exit or g_exit, **{"c" + z: c - 1})

    # -- slots of failed stations --------------------------------------------
    if s.cf > 0:
        if mid and (s.df < s.cf or not strengthened):
            add("idle_slot", False, cp=s.cp + 1, df=s.df + 1)
        if roll and (s.df == s.cf or not strengthened):
            add("idle_rollover", False, cp=1, r=s.r + 1, df=1, d0=0, d1=0)

    return out


def conserves_population(pre: AbstractState, post: AbstractState) -> bool:
    """Post-fault slot steps move stations between classes, never lose them."""
    if not post.fault_seen:
        return True
    if not pre.fault_seen:  # the fault step itself re-bases the population
        return post.population() == pre.n
    return post.population() == pre.population()


# -- concrete-to-abstract map -------------------------------------------------


def _fault_slot(ring: Ring) -> Optional[int]:
    """Slot of the scenario's first fault once the ring has run it."""
    faults = ring.scenario.faults
    return faults[0].slot if faults and faults[0].slot < ring.slot else None


def _sender_exit(ring: Ring, fault_slot: int) -> Optional[int]:
    """Slot in the fault round at which the faulty sender left on its
    successors' verdict, if it did."""
    exit_kind = (fault_slot % ring.n, "second_check")
    for t in range(fault_slot + 1, min(fault_slot + ring.n, ring.slot)):
        departed = ring.events[t].departed
        if departed and exit_kind in departed:
            return t
    return None


def abstraction_map(ring: Ring) -> AbstractState:
    """Counter view of the ring's current state (before slot ``ring.slot``).

    Defined for runs with at most one fault and no integrating stations.
    The faulty sender is counted as a voucher until its own next slot even
    if both successor checks already convicted it — the silent departure is
    only booked at the slot where its sending would have been due, which is
    exactly when the abstract g-branch fires.

    The map stays a pure function of the ring, recomputed at every slot in
    one pass over the stations and index scans of the events: deriving the
    state afresh from the concrete ring, not carrying it along the run, is
    what keeps the simulation check independent of the automaton it checks.
    """
    n, sigma, labels = ring.n, ring.slot, ring.labels
    faults = ring.scenario.faults
    if len(faults) > 1 and faults[1].slot < sigma:
        raise ValueError("abstraction is defined for at most one fault")
    c1 = c0 = 0
    for st in ring.stations:
        if st.location.is_active:
            # Every station got a label bit at the fault (none before it);
            # the first says its class.
            bit = labels[st.sid][:1]
            c1 += bit == "1"
            c0 += bit == "0"
        elif st.location.is_receiving:
            raise ValueError("abstraction is undefined while stations integrate")

    tg = sigma % n + 1
    fault_slot = _fault_slot(ring)
    if fault_slot is None:
        return replace(abstract_init(n), tg=tg)

    exit_slot = _sender_exit(ring, fault_slot)
    cf = n - c1 - c0
    if exit_slot is not None and sigma <= fault_slot + n:
        c1 += 1
        cf -= 1

    r, cp = divmod(sigma - 1 - fault_slot, n)  # slots completed after the fault slot
    events = ring.events
    d0 = d1 = df = 0
    for t in range(fault_slot + n * r, sigma):
        ev = events[t]
        if not ev.emitted:
            df += 1
        elif labels[ev.owner][0] == "1":
            d1 += 1
        else:
            d0 += 1

    return _state({
        "n": n, "c_in": 0, "c0": c0, "c1": c1, "cf": cf,
        "cp": cp + 1, "r": r, "d0": d0, "d1": d1, "df": df,
        "tg": tg, "sg": fault_slot % n + 1, "fault_seen": True,
        "g_exit": exit_slot is not None and sigma > fault_slot + n,
    })


def abstract_inputs_for_slot(ring: Ring, slot: int) -> AbstractInputs:
    """Inputs the abstract automaton consumes for the ring's given slot."""
    fault_slot = _fault_slot(ring)
    if fault_slot is None or slot < fault_slot:
        return AbstractInputs()
    if slot == fault_slot:
        return AbstractInputs(fault=True, x=1 + len(ring.events[fault_slot].accepted))
    g = slot == fault_slot + ring.n and _sender_exit(ring, fault_slot) is not None
    return AbstractInputs(g=g)
