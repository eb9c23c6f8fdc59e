"""Unit tests for the per-station protocol rules."""

from __future__ import annotations

import pytest

from ttpmem.protocol import (
    CheckOutcome,
    CheckPhase,
    Frame,
    Location,
    ReceiveEvent,
    SoundnessError,
    StationState,
    begin_emission,
    check_first_successor,
    check_second_successor,
    clique_gate,
    crc_correct,
    full_vector,
    initial_station,
    receive_step,
    reintegrate_step,
    vector_str,
    with_bit,
)


def vec(bits: str) -> int:
    """Bit-string literal, station 0 leftmost."""
    return int(bits[::-1], 2)


def station(sid, n, member, acc, fail, check=CheckPhase.IDLE, first=None,
            location=Location.ACTIVE_IN) -> StationState:
    return StationState(sid=sid, n=n, member=vec(member), acc=acc, fail=fail,
                        location=location, check=check, first_succ=first)


def test_vector_helpers():
    assert full_vector(4) == 0b1111
    assert vector_str(vec("1011"), 4) == "1011"
    assert with_bit(vec("1011"), 1, 1) == vec("1111")
    assert with_bit(vec("1011"), 0, 0) == vec("0011")


def test_vector_str_matches_a_bit_by_bit_rendering_exhaustively():
    # Every vector below 2**(n+2): the two bits above n must not show.
    for n in range(11):
        for vector in range(1 << (n + 2)):
            expected = "".join("1" if vector >> i & 1 else "0" for i in range(n))
            assert vector_str(vector, n) == expected, (vector, n)


def test_crc_is_vector_equality_plus_integrity():
    f = Frame(sender=1, vector=vec("0111"))
    assert crc_correct(f, vec("0111"), clean=True)
    assert not crc_correct(f, vec("1111"), clean=True)
    # A corrupted frame never passes, even with matching content.
    assert not crc_correct(f, vec("0111"), clean=False)


def test_initial_station_counters():
    n = 4
    sts = [initial_station(i, n) for i in range(n)]
    assert [st.acc for st in sts] == [4, 3, 2, 1]
    assert all(st.fail == 0 for st in sts)
    assert all(st.member == full_vector(n) for st in sts)
    # Only the most recent sender is still awaiting its acknowledgment.
    assert [st.check for st in sts] == [
        CheckPhase.IDLE, CheckPhase.IDLE, CheckPhase.IDLE, CheckPhase.AWAIT_FIRST,
    ]


def test_clique_gate_strict_vs_weak():
    st = station(0, 4, "1111", 2, 2)
    assert not clique_gate(st)          # a tie must not pass
    assert clique_gate(st, weak=True)   # the broken variant lets it through
    st.acc, st.fail = 2, 1
    assert clique_gate(st)
    st.acc, st.fail = 0, 0
    assert not clique_gate(st)


def test_begin_emission_resets_window_and_sets_own_bit():
    st = station(2, 4, "1011", 3, 1)
    frame = begin_emission(st)
    assert (st.acc, st.fail) == (1, 0)
    assert st.check is CheckPhase.AWAIT_FIRST
    assert frame == Frame(sender=2, vector=vec("1011"))
    # A re-entering sender's own bit is raised by sending.
    st2 = station(2, 4, "1001", 3, 1)
    assert begin_emission(st2).vector == vec("1011")


def test_first_successor_acknowledges():
    # I sent with vector 1111; the next frame agrees and includes me.
    me = station(3, 4, "1111", 1, 0, check=CheckPhase.AWAIT_FIRST)
    out = check_first_successor(me, Frame(0, vec("1111")), clean=True)
    assert out is CheckOutcome.MEMBERSHIP


def test_first_successor_did_not_see_me():
    # The successor's vector matches mine except my own bit is down: it
    # missed my frame, so the second successor will arbitrate.
    me = station(0, 4, "1111", 1, 0, check=CheckPhase.AWAIT_FIRST)
    out = check_first_successor(me, Frame(1, vec("0111")), clean=True)
    assert out is CheckOutcome.SECOND_WAIT
    ev = receive_step(me, Frame(1, vec("0111")), clean=True)
    assert ev is ReceiveEvent.REJECT
    assert me.check is CheckPhase.AWAIT_SECOND and me.first_succ == 1
    assert (me.acc, me.fail) == (1, 1)
    assert vector_str(me.member, 4) == "1011"


def test_first_successor_itself_faulty():
    me = station(3, 4, "0111", 1, 1, check=CheckPhase.AWAIT_FIRST)
    # Frame disagrees with both readings of my own bit: the sender is the
    # faulty one; my wait continues with the next frame.
    out = check_first_successor(me, Frame(2, vec("1011")), clean=True)
    assert out is CheckOutcome.FIRST_FAULTED
    receive_step(me, Frame(2, vec("1011")), clean=True)
    assert me.check is CheckPhase.AWAIT_FIRST
    assert (me.acc, me.fail) == (1, 2)


def test_second_successor_sides_with_me():
    me = station(0, 4, "1011", 1, 1, check=CheckPhase.AWAIT_SECOND, first=1)
    out = check_second_successor(me, Frame(2, vec("1011")), clean=True, first=1)
    assert out is CheckOutcome.MEMBERSHIP
    ev = receive_step(me, Frame(2, vec("1011")), clean=True)
    assert ev is ReceiveEvent.ACCEPT
    assert (me.acc, me.fail) == (2, 1)
    assert me.check is CheckPhase.IDLE


def test_second_successor_convicts_me():
    # Both successors saw my frame as faulty: I must leave, zeroed.
    me = station(0, 4, "1011", 1, 1, check=CheckPhase.AWAIT_SECOND, first=1)
    frame = Frame(2, vec("0111"))  # sender vouches for s1, not for me
    out = check_second_successor(me, frame, clean=True, first=1)
    assert out is CheckOutcome.LEAVE
    ev = receive_step(me, frame, clean=True)
    assert ev is ReceiveEvent.LEAVE
    assert me.location is Location.FAILED
    assert (me.member, me.acc, me.fail) == (0, 0, 0)


def test_corrupted_frame_fails_every_check_variant():
    me = station(0, 4, "1011", 1, 1, check=CheckPhase.AWAIT_SECOND, first=1)
    # Content would convict me, but the frame is corrupted for this receiver:
    # the sender is judged faulty instead and the wait continues.
    ev = receive_step(me, Frame(2, vec("0111")), clean=False)
    assert ev is ReceiveEvent.REJECT
    assert me.location.is_active
    assert me.check is CheckPhase.AWAIT_SECOND
    assert (me.acc, me.fail) == (1, 2)


def test_plain_receive_accept_and_reject():
    me = station(3, 4, "1111", 2, 0)
    assert receive_step(me, Frame(1, vec("1111")), clean=True) is ReceiveEvent.ACCEPT
    assert (me.acc, me.fail) == (3, 0)
    assert receive_step(me, Frame(2, vec("1011")), clean=True) is ReceiveEvent.REJECT
    assert (me.acc, me.fail) == (3, 1)
    assert vector_str(me.member, 4) == "1101"


def test_plain_receive_restores_written_off_sender():
    # The sender's bit is raised before comparing, so a valid frame from a
    # station we had marked absent is accepted and the bit comes back.
    me = station(3, 4, "1101", 2, 0)
    ev = receive_step(me, Frame(2, vec("1111")), clean=True)
    assert ev is ReceiveEvent.ACCEPT
    assert vector_str(me.member, 4) == "1111"


def test_listening_station_needs_its_start_slot():
    me = station(3, 4, "1110", 0, 0, location=Location.INTEG_LISTEN)
    me.listen_from = None
    with pytest.raises(SoundnessError, match="listens without a start slot"):
        reintegrate_step(me, 7)


def test_listening_lasts_one_round_from_its_start():
    # Listening that starts in the station's own slot ends there one round
    # later: the counting round begins at slot 11, not a round after it.
    me = station(3, 4, "1110", 2, 1, location=Location.INTEG_LISTEN)
    me.listen_from = 7
    assert reintegrate_step(me, 7) is None
    assert me.location is Location.INTEG_LISTEN
    assert reintegrate_step(me, 11) is None
    assert (me.location, me.acc, me.fail) == (Location.INTEG_COUNTING, 0, 0)


def reference_receive(st: StationState, frame: Frame, clean: bool) -> ReceiveEvent:
    """The receive rules spelled out with ``with_bit`` and ``crc_correct``:
    the table below pins ``receive_step`` to them, bit for bit."""
    s, me = frame.sender, st.sid

    def accept() -> ReceiveEvent:
        st.member = with_bit(st.member, s, 1)
        st.acc += 1
        return ReceiveEvent.ACCEPT

    def reject() -> ReceiveEvent:
        st.member = with_bit(st.member, s, 0)
        st.fail += 1
        return ReceiveEvent.REJECT

    base = with_bit(st.member, s, 1)
    if st.check is CheckPhase.AWAIT_FIRST:
        if crc_correct(frame, with_bit(base, me, 1), clean):
            st.check = CheckPhase.IDLE
            return accept()
        if crc_correct(frame, with_bit(base, me, 0), clean):
            st.check, st.first_succ = CheckPhase.AWAIT_SECOND, s
        return reject()
    if st.check is CheckPhase.AWAIT_SECOND:
        first = st.first_succ
        if crc_correct(frame, with_bit(with_bit(base, me, 1), first, 0), clean):
            st.check, st.first_succ = CheckPhase.IDLE, None
            return accept()
        if crc_correct(frame, with_bit(with_bit(base, me, 0), first, 1), clean):
            st.member, st.acc, st.fail = 0, 0, 0
            st.location, st.check, st.first_succ = Location.FAILED, CheckPhase.IDLE, None
            return ReceiveEvent.LEAVE
        return reject()
    if crc_correct(frame, base, clean):
        return accept()
    return reject()


def test_receive_step_matches_the_reference_rules_exhaustively():
    n = 4
    phases = [(CheckPhase.IDLE, None), (CheckPhase.AWAIT_FIRST, None)]
    phases += [(CheckPhase.AWAIT_SECOND, first) for first in range(n)]
    cases = 0
    for sid in range(n):
        for check, first in phases:
            for member in range(1 << n):
                for vector in range(1 << n):
                    for sender in range(n):
                        for clean in (False, True):
                            got, want = (
                                StationState(sid, n, member, 2, 1, Location.ACTIVE_IN,
                                             check, first)
                                for _ in range(2)
                            )
                            frame = Frame(sender, vector)
                            case = (sid, check, first, member, vector, sender, clean)
                            assert receive_step(got, frame, clean) is \
                                reference_receive(want, frame, clean), case
                            assert got == want, case
                            cases += 1
    assert cases == n * len(phases) * 16 * 16 * n * 2
