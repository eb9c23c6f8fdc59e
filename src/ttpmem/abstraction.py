"""Counter abstraction of the single-fault ring.

Stations are anonymous here: the state keeps only the counters that the
rules read.  Before the fault nothing changes from slot to slot, so the
state is one fixed point.  After it the state holds population counters
per class (c1 = vouched for the faulty frame, c0 = rejected it) plus
progress counters within the current round — d1/d0 = frames sent by each
class since the round started, df = slots that passed silently, r =
rounds completed since the fault, kept as 0, 1 or 2 (= two or more), the
only distinctions the rules draw.  The graph is therefore finite by
construction.  Derived, not stored, as every rule would have to keep them in
step: cf = n - c0 - c1 failed stations (no step loses a station) and cp =
d0 + d1 + df, the slot position in the round (each slot is a frame or a
silence).  One abstract transition corresponds to one slot of the concrete
ring; the slot owner's class is the nondeterminism.  States, inputs and
transitions are named tuples: a state is its vector of stored counters and
flags, and it hashes and compares as that tuple.

Inputs per step: ``x`` (when at least 1, the asymmetric fault strikes now,
splitting the ring into x vouchers and n-x rejecters), and ``g`` (at the
faulty station's next own slot: both successor checks went against it, so
it left silently during the round instead of reaching its gate).

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

The concrete-to-abstract map reads a ring's slot events, never the rules
above: ``fold_slot`` folds one event into a small tally of the run and
gives the ring's abstract image after that slot and the slot's inputs, and
``abstraction_map`` is that fold over a whole run, checked against the
ring's stations.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .protocol import SoundnessError
from .ring import Ring, SlotEvent


class AbstractState(NamedTuple):
    n: int
    c0: int     # active rejecters of the faulty frame
    c1: int     # active vouchers (the faulty sender included)
    r: int      # completed rounds since the fault: 0, 1 or 2 (= two or more)
    d0: int     # rejecter-class frames sent this round
    d1: int     # voucher-class frames sent this round
    df: int     # silent slots this round
    fault_seen: bool = False
    g_exit: bool = False  # the faulty sender left via its successors' verdict

    @property
    def cf(self) -> int:  # failed stations
        return self.n - self.c0 - self.c1

    @property
    def cp(self) -> int:  # slot position within the current round, 1..n
        return self.d0 + self.d1 + self.df


class AbstractInputs(NamedTuple):
    g: bool = False
    x: int = 0  # vouchers the fault creates now (sender included), 1..n; 0: no fault


# The inputs of every slot but the fault slot and the faulty sender's next
# own one; records are immutable, so these are shared.
NO_INPUT = AbstractInputs()
G_INPUT = AbstractInputs(g=True)


def abstract_init(n: int) -> AbstractState:
    # d1 = c1 = 1 before the fault: the future faulty sender is counted as
    # having sent this round, so the fault slot itself needs no special
    # progress bookkeeping.  c0 = n-1 keeps cf at 0 until the fault re-books both.
    return AbstractState(
        n=n, c0=n - 1, c1=1, r=0, d0=0, d1=1, df=0,
        fault_seen=False, g_exit=False,
    )


class AbstractTransition(NamedTuple):
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
    base = s._asdict()
    out: List[AbstractTransition] = []

    def add(name: str, emits: bool, **changes) -> None:
        out.append(AbstractTransition(name, emits, s._replace(**changes)))

    # -- before the fault ---------------------------------------------------
    if not s.fault_seen:
        if inp.x:
            if not 1 <= inp.x <= s.n:
                raise ValueError(f"fault input needs 1 <= x <= n, got x={inp.x}")
            add("fault", True, c1=inp.x, c0=s.n - inp.x, fault_seen=True)
        else:
            add("tick", True)  # a self-loop: nothing the rules read changes
        return out

    mid = s.cp < s.n
    roll = s.cp == s.n
    r_next = min(s.r + 1, 2)  # the rules tell apart only rounds 0, 1 and later

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
                add(f"r{z}_fail_{phase}", False, df=s.df + 1, **{"c" + z: c - 1})
            # After a silent departure of the faulty sender at the rollover,
            # the first two slots of the new round belong to the stations
            # that rejected it back then; they cannot be voucher sends.
            elif literal_guard or not (z == "1" and s.r == 1 and s.g_exit and s.cp in (1, 2)):
                add(f"r{z}_send_{phase}", True, **{"d" + z: d + 1})
        elif roll and (d == c or not strengthened):
            # At the faulty sender's own slot, with g both successor checks
            # convicted it during the round: it leaves without sending.  The
            # slot is silent either way, and the flag marks that the two
            # convicting stations own the next two slots.
            g_exit = z == "1" and s.r == 0 and inp.g
            passes = c > c_other or (weak_gate and c == c_other)
            if passes and not g_exit:
                add(f"r{z}_send_rollover", True,
                    r=r_next, df=0, **{"d" + z: 1, "d" + o: 0})
            else:
                add("r1_guess_exit_rollover" if passes else f"r{z}_fail_rollover",
                    False, r=r_next, d0=0, d1=0, df=1,
                    g_exit=s.g_exit or g_exit, **{"c" + z: c - 1})

    # -- slots of failed stations --------------------------------------------
    if s.cf > 0:
        if mid and (s.df < s.cf or not strengthened):
            add("idle_slot", False, df=s.df + 1)
        if roll and (s.df == s.cf or not strengthened):
            add("idle_rollover", False, r=r_next, df=1, d0=0, d1=0)

    return out


# -- concrete-to-abstract map -------------------------------------------------


class RingTally(NamedTuple):
    """What the map carries from one slot to the next, read off slot events
    alone: the live stations of each class (the faulty sender and its
    accepters are the vouchers; before the fault every station counts as a
    rejecter), the fault, this round's frames and silences, and the slot in
    the fault round at which the faulty sender left on its successors'
    verdict, if it did."""

    n: int
    c0: int     # live rejecters
    c1: int = 0  # live vouchers
    fault_slot: Optional[int] = None
    vouchers: frozenset = frozenset()  # ids, fixed at the fault
    d0: int = 0  # rejecter frames this round
    d1: int = 0  # voucher frames this round
    df: int = 0  # silent slots this round
    exit_slot: Optional[int] = None


def start_tally(n: int) -> RingTally:
    """The tally of a ring that has run no slot."""
    return RingTally(n, n)


def fold_slot(
    tally: RingTally, ev: SlotEvent,
) -> Tuple[RingTally, AbstractState, AbstractInputs]:
    """The tally after the slot ``ev`` records, the counter view of the ring
    after that slot, and the inputs the abstract automaton consumes for it.

    Defined for runs with at most one fault and no integrating stations.
    The faulty sender is counted as a voucher until its own next slot even
    if both successor checks already convicted it: the silent departure is
    only booked at the slot where its sending would have been due, which is
    exactly when the abstract g-branch fires."""
    slot, owner, owner_loc, emitted, _gate, departed, accepted = ev
    if not owner_loc.is_active and owner_loc.is_receiving:
        raise ValueError("abstraction is undefined while stations integrate")
    n, c0, c1, fault_slot, vouchers, d0, d1, df, exit_slot = tally
    inp = NO_INPUT
    if accepted is not None:
        if fault_slot is not None:
            raise ValueError("abstraction is defined for at most one fault")
        fault_slot, vouchers = slot, frozenset(accepted).union((owner,))
        c0, c1 = c0 - len(vouchers), len(vouchers)
        inp = AbstractInputs(x=c1)
    for sid, kind in departed:
        if sid not in vouchers:
            c0 -= 1
            continue
        c1 -= 1
        if sid == fault_slot % n and kind == "second_check" and slot < fault_slot + n:
            exit_slot = slot
    if fault_slot is None:
        return tally._replace(c0=c0), abstract_init(n), NO_INPUT

    r, pos = divmod(slot - fault_slot, n)  # rounds completed, slots before this one
    if not pos:  # this slot opens a round
        d0 = d1 = df = 0
    if not emitted:
        df += 1
    elif owner in vouchers:
        d1 += 1
    else:
        d0 += 1
    if exit_slot is not None and slot == fault_slot + n:
        inp = G_INPUT
    sigma = slot + 1
    image = AbstractState(
        n, c0, c1 + (exit_slot is not None and sigma <= fault_slot + n), min(r, 2),
        d0, d1, df, True, exit_slot is not None and sigma > fault_slot + n)
    return RingTally(n, c0, c1, fault_slot, vouchers, d0, d1, df, exit_slot), image, inp


def check_populations(ring: Ring, tally: RingTally) -> None:
    """Raise SoundnessError unless the tally that a fold has carried to
    ``ring.slot`` counts the ring's active stations of each class, by the
    first bit of their labels; a departure that no event recorded shows
    here.  Integrating stations are refused, as everywhere in the map."""
    counts = [0, 0]
    for st in ring.stations:
        if st.location.is_active:
            counts[ring.labels[st.sid][:1] == "1"] += 1
        elif st.location.is_receiving:
            raise ValueError("abstraction is undefined while stations integrate")
    if counts != [tally.c0, tally.c1]:
        faults = " ".join(map(str, ring.scenario.faults)) or "none"
        raise SoundnessError(
            f"before slot {ring.slot} (faults: {faults}) the map counts c0={tally.c0} "
            f"c1={tally.c1}, but the ring has {counts[0]} rejecters and {counts[1]} "
            "vouchers active")


def abstraction_map(ring: Ring) -> AbstractState:
    """Counter view of the ring's current state (before slot ``ring.slot``):
    ``fold_slot`` over the run's events, then ``check_populations``.

    The map reads the ring's history and stations, never the automaton, so
    the simulation check stays independent of the automaton it checks."""
    tally, image = start_tally(ring.n), abstract_init(ring.n)
    for ev in ring.events:
        tally, image, _inp = fold_slot(tally, ev)
    check_populations(ring, tally)
    return image
