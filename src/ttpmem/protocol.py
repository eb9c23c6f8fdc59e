"""Per-station state and rules of the TDMA membership protocol.

N stations share a broadcast bus in fixed slot order (slot t belongs to
station t mod N).  Every station keeps

* a membership vector: one bit per station, bit i = "I believe station i is
  operating".  A frame carries the sender's vector, and a receiver accepts a
  frame iff the received vector agrees with its own expectation (this
  equality test stands in for the CRC, which covers the vector).
* two counters: ``acc`` counts frames accepted since the station last sent,
  ``fail`` counts frames it rejected (or judged faulty) in the same window.

Acknowledgment is implicit: after sending, a station watches its first and
second successors' frames to find out whether its own frame was received
(its ``CheckPhase``, judged in ``receive_step``).  At every own slot the
clique-avoidance gate ``acc > fail`` decides whether the station may keep
sending; a station that loses the gate clears its vector and counters and
falls silent.

Functions here mutate a single :class:`StationState`; the slot/bus
choreography lives in :mod:`ttpmem.ring`.  ``receive_step`` is one rule:
each check phase names the vector it expects from the frame, and all phases
share one accept and one reject.  It runs for every receiver of every frame,
so it tests the bits inline (``|`` and ``&~`` on the sender's bit) instead
of calling ``with_bit``/``crc_correct``, and takes the common idle receiver
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional


class SoundnessError(RuntimeError):
    """An internal consistency check failed: the model contradicts itself."""


StationId = int

# A membership vector is an int bitmask; bit i (1 << i) is station i's bit.
MembershipVector = int


def full_vector(n: int) -> MembershipVector:
    return (1 << n) - 1


def with_bit(vector: MembershipVector, i: StationId, value: int) -> MembershipVector:
    if value:
        return vector | (1 << i)
    return vector & ~(1 << i)


def vector_str(vector: MembershipVector, n: int) -> str:
    """Render bit 0 first: station order left to right; bits at or above
    ``n`` are ignored.  One ``format`` call, reversed."""
    if not n:
        return ""
    return format(vector & ((1 << n) - 1), f"0{n}b")[::-1]


class Location(Enum):
    """Where a station is in its lifecycle."""

    ACTIVE_IN = "in"            # active, no fault observed yet
    ACTIVE_AGREE = "agree"      # active, sided with the faulty frame
    ACTIVE_DISAGREE = "disagree"  # active, rejected the faulty frame
    FAILED = "failed"           # silent, out of the membership
    INTEG_LISTEN = "listen"     # silent, rebuilding a vector from traffic
    INTEG_COUNTING = "counting"  # silent, counting toward the re-entry gate

    def __init__(self, value: str) -> None:
        # Plain attributes, set once per member: the step loop reads them
        # for every station of every slot.
        self.is_active = value in ("in", "agree", "disagree")
        # Stations that track traffic (active or integrating).
        self.is_receiving = value != "failed"


class CheckPhase(Enum):
    IDLE = "idle"
    AWAIT_FIRST = "await_first"    # next frame judges my own transmission
    AWAIT_SECOND = "await_second"  # first successor rejected me; second decides


class Frame(NamedTuple):
    sender: StationId
    vector: MembershipVector


@dataclass
class StationState:
    sid: StationId
    n: int
    member: MembershipVector
    acc: int
    fail: int
    location: Location
    check: CheckPhase = CheckPhase.IDLE
    first_succ: Optional[StationId] = None
    # Slot at which integration listening began (None unless integrating).
    listen_from: Optional[int] = None


def initial_station(sid: StationId, n: int) -> StationState:
    """Steady-state start: everyone active and mutually recognized.

    Station i last sent i+1 slots ago, so it has accepted the n-i-1 frames
    since then plus its own (acc = n-i), rejected nothing, and only station
    n-1 — whose frame was the most recent — is still awaiting its first
    successor's acknowledgment.
    """
    # Positional, in field order: with keywords the constructor takes 1.5x as long.
    return StationState(sid, n, full_vector(n), n - sid, 0, Location.ACTIVE_IN,
                        CheckPhase.AWAIT_FIRST if sid == n - 1 else CheckPhase.IDLE)


def crc_correct(frame: Frame, expected: MembershipVector, clean: bool) -> bool:
    """Frame-acceptance test: the CRC covers the membership vector, so a
    receiver's check passes iff the frame is uncorrupted and the sender's
    vector equals the receiver's expectation."""
    return clean and frame.vector == expected


def clique_gate(st: StationState, weak: bool = False) -> bool:
    """Clique-avoidance decision at the station's own slot.

    The sound gate requires strictly more agreement than disagreement;
    ``weak=True`` is the deliberately broken >= variant kept for mutation
    tests.
    """
    if weak:
        return st.acc >= st.fail
    return st.acc > st.fail


def begin_emission(st: StationState) -> Frame:
    """Reset the counting window and put a frame on the bus.

    The sender counts itself (acc=1) and starts watching for its first
    successor's acknowledgment.  Its own membership bit is set (relevant for
    a re-entering station whose bit was still 0).
    """
    st.member = with_bit(st.member, st.sid, 1)
    st.acc = 1
    st.fail = 0
    st.check = CheckPhase.AWAIT_FIRST
    st.first_succ = None
    return Frame(st.sid, st.member)


def leave_active(st: StationState) -> None:
    """Fall silent: clear the vector (own bit included) and both counters."""
    st.member = 0
    st.acc = 0
    st.fail = 0
    st.location = Location.FAILED
    st.check = CheckPhase.IDLE
    st.first_succ = None
    st.listen_from = None


class ReceiveEvent(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    LEAVE = "leave"  # second-check verdict: own transmission was faulty


# Bound once: receive_step runs for every receiver of every frame, and
# reading a member off its enum class costs several times a global name.
_IDLE, _AWAIT_FIRST, _AWAIT_SECOND = (
    CheckPhase.IDLE, CheckPhase.AWAIT_FIRST, CheckPhase.AWAIT_SECOND)
_ACCEPT, _REJECT, _LEAVE = ReceiveEvent.ACCEPT, ReceiveEvent.REJECT, ReceiveEvent.LEAVE


def receive_step(st: StationState, frame: Frame, clean: bool) -> ReceiveEvent:
    """Process a frame from another station (receiver is active or
    integrating).  The returned event tells the ring's bookkeeping whether
    the frame counted as agreement, disagreement, or triggered departure.
    A rejected successor is judged faulty; the next frame takes its place.
    """
    bit = 1 << frame.sender
    check = st.check
    if check is _IDLE:
        # No check pending; the sender's bit is set, so a re-entering sender passes.
        expect = st.member | bit
    else:
        base = st.member | bit
        mine = 1 << st.sid
        if check is _AWAIT_FIRST:
            # First-successor check: my bit 1 acknowledges me; 0 defers to the second.
            expect = base | mine
            if clean and frame.vector == base & ~mine:
                st.check, st.first_succ = _AWAIT_SECOND, frame.sender
        else:
            # Second-successor check: siding with me accepts, with the first convicts me.
            if st.first_succ is None:
                raise SoundnessError(f"s{st.sid} awaits a second successor without a first")
            theirs = 1 << st.first_succ
            if clean and frame.vector == (base & ~mine) | theirs:
                leave_active(st)
                return _LEAVE
            expect = (base | mine) & ~theirs
    if clean and frame.vector == expect:
        st.member |= bit
        st.acc += 1
        st.check = _IDLE
        st.first_succ = None
        return _ACCEPT
    st.member &= ~bit
    st.fail += 1
    return _REJECT


def start_integration(st: StationState, copied: MembershipVector, slot: int) -> None:
    """Failed -> listening: adopt a vector snapshot from the bus traffic.

    The re-entering station keeps its own bit at 0 until its gate passes.
    """
    st.member = with_bit(copied, st.sid, 0)
    st.location = Location.INTEG_LISTEN
    st.listen_from = slot
    st.acc = 0
    st.fail = 0


def reintegrate_step(st: StationState, slot: int, weak: bool = False) -> Optional[Frame]:
    """Advance an integrating station at its own slot.

    After at least one full listening round the counters are reset and the
    counting round begins; one round later the clique gate decides re-entry.
    Returns the re-entry frame if one is sent this slot, else None.
    """
    if st.location is Location.INTEG_LISTEN:
        if st.listen_from is None:
            raise SoundnessError(f"s{st.sid} listens without a start slot")
        if slot - st.listen_from >= st.n:
            st.acc = 0
            st.fail = 0
            st.location = Location.INTEG_COUNTING
        return None
    if st.location is Location.INTEG_COUNTING:
        if clique_gate(st, weak=weak):
            return begin_emission(st)
        leave_active(st)
        return None
    return None
