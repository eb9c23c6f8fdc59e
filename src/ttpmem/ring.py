"""Synchronous N-station ring: slot choreography, fault injection, traces.

A scenario fixes the ring size, a horizon in rounds, a list of asymmetric
transmission faults (slot + the set of receivers that still get the frame
uncorrupted) and optional re-integration events.  :class:`Ring` executes it
slot by slot: the slot owner runs its clique gate and either broadcasts or
falls silent, receivers update vectors/counters per the protocol rules, and
every fault splits the current classes — the bookkeeping here tracks those
classes as bit-string labels ('1' appended for stations that vouched for the
faulty frame, '0' for everyone else).

``Ring.events`` is the run's history, one :class:`SlotEvent` per slot, and
every consumer (oracles, abstraction map, renderers) reads it there; with
``record=True``, ``Ring.records`` adds each slot's post-slot station
snapshot, which only the trace and table renderers print.

Scenario file format: one directive per line, each key given once, '#'
comments allowed.  The parsed :class:`Scenario` carries the line of each
directive, so every check, static or run-time, puts it in front of its error::

    n = 4
    rounds = 4
    fault slot=0 accept=2,3
    integrate station=3 slot=12

Trace format (one line per slot, fixed field order)::

    slot=0 owner=s0 sent=1 s0[m=1111 a=1 f=0 loc=agree] s1[...] ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .protocol import (
    Frame,
    Location,
    ReceiveEvent,
    SoundnessError,
    StationState,
    begin_emission,
    clique_gate,
    initial_station,
    leave_active,
    receive_step,
    reintegrate_step,
    start_integration,
    vector_str,
)


# Bound once: reading a member off the enum class costs more than the test.
_ACCEPT, _LEAVE = ReceiveEvent.ACCEPT, ReceiveEvent.LEAVE
_IN, _AGREE, _DISAGREE = Location.ACTIVE_IN, Location.ACTIVE_AGREE, Location.ACTIVE_DISAGREE
_FAILED, _COUNTING = Location.FAILED, Location.INTEG_COUNTING


Directive = Tuple[str, int]


class ScenarioError(ValueError):
    """Ill-formed or unrealizable scenario input."""


class ResourceCap(RuntimeError):
    """A run or a sweep would pass a fixed budget before finishing."""


# Station-slots (n stations in each of the n * rounds slots) one scenario
# may run: at the budget ``simulate`` takes 4.4 s and 298 MB peak RSS on a
# 2-vCPU host, and both grow linearly with the horizon.
HORIZON_BUDGET = 1_000_000


@dataclass(frozen=True)
class FaultSpec:
    """Asymmetric fault at ``slot``: only stations in ``accept`` receive the
    frame uncorrupted; every other receiver sees a corrupted frame."""

    slot: int
    accept: frozenset

    def __str__(self) -> str:
        ids = ",".join(f"s{i}" for i in sorted(self.accept))
        return f"fault@{self.slot}->{{{ids}}}"


@dataclass(frozen=True)
class IntegrationSpec:
    station: int
    slot: int


@dataclass(frozen=True)
class Scenario:
    """``lines``: the file line of each directive, keyed ``("n", 0)``,
    ``("rounds", 0)``, ``("fault", i)`` or ``("integrate", i)``; equality
    ignores it."""

    n: int
    rounds: int
    faults: Tuple[FaultSpec, ...] = ()
    integrations: Tuple[IntegrationSpec, ...] = ()
    lines: Dict[Directive, int] = field(default_factory=dict, compare=False, repr=False)

    @property
    def total_slots(self) -> int:
        return self.n * self.rounds

    def judgeable(self, slot: int) -> bool:
        """The horizon runs at least two full rounds past ``slot``."""
        return self.total_slots >= slot + 2 * self.n

    def refuse(self, message: str, directive: Directive, error=ScenarioError) -> Exception:
        """The error for ``directive``, with its line in front if known."""
        line = self.lines.get(directive)
        return error(message if line is None else f"line {line}: {message}")

    def validate(self) -> List[str]:
        """Static checks: raises ScenarioError on hard violations, ResourceCap
        on a horizon over budget; returns warnings of admissible oddities."""
        if self.n < 3:
            raise self.refuse(f"need at least 3 stations, got n={self.n}", ("n", 0))
        if self.rounds < 1:
            raise self.refuse(f"need at least 1 round, got rounds={self.rounds}",
                              ("rounds", 0))
        if self.n * self.total_slots > HORIZON_BUDGET:
            raise self.refuse(f"rounds = {self.rounds} gives {self.n} x {self.n} x "
                              f"{self.rounds} station-slots, over the budget of "
                              f"{HORIZON_BUDGET}", ("rounds", 0), ResourceCap)
        warnings: List[str] = []
        for i, f in enumerate(self.faults):
            directive = ("fault", i)
            if not 0 <= f.slot < self.total_slots:
                raise self.refuse(f"fault slot {f.slot} outside horizon "
                                  f"[0,{self.total_slots})", directive)
            if i:
                prev = self.faults[i - 1].slot
                if f.slot <= prev:
                    raise self.refuse("fault slots must be strictly increasing", directive)
                if f.slot - prev > self.n:
                    warnings.append(
                        f"gap of {f.slot - prev} slots between faults at {prev} and "
                        f"{f.slot} exceeds one round; counting predictions are not "
                        f"guaranteed there"
                    )
            owner = f.slot % self.n
            for sid in f.accept:
                if not 0 <= sid < self.n:
                    raise self.refuse(f"fault accept id s{sid} out of range", directive)
                if sid == owner:
                    raise self.refuse(f"fault at slot {f.slot}: sender s{owner} cannot be "
                                      "its own receiver", directive)
        if self.faults and not self.judgeable(self.faults[-1].slot):
            warnings.append(
                f"horizon ends {self.total_slots} slots in; less than two full rounds after "
                f"the last fault at slot {self.faults[-1].slot}, so stabilization cannot "
                f"be judged"
            )
        for i, ev in enumerate(self.integrations):
            if not 0 <= ev.station < self.n:
                raise self.refuse(f"integration station s{ev.station} out of range",
                                  ("integrate", i))
            if not 0 <= ev.slot < self.total_slots:
                raise self.refuse(f"integration slot {ev.slot} outside horizon",
                                  ("integrate", i))
        return warnings


def _ids(value: str) -> frozenset:
    return frozenset(int(x) for x in value.split(",") if x.strip() != "")


# Per directive: the spec it builds, its required integer keys, and its
# optional keys with the reader of each, which reads "" when the key is
# absent.  Optional values are read first.
_DIRECTIVES = {
    "fault": (FaultSpec, ("slot",), {"accept": _ids}),
    "integrate": (IntegrationSpec, ("station", "slot"), {}),
}


def _directive(keyword: str, parts: Sequence[str], lineno: int):
    """The spec a ``fault`` or ``integrate`` line gives: each key once, the
    required ones present, every value readable, no other key."""
    spec, required, optional = _DIRECTIVES[keyword]
    args: Dict[str, str] = {}
    for p in parts:
        if "=" not in p:
            raise ScenarioError(f"line {lineno}: expected key=value, got {p!r}")
        key, _, value = p.partition("=")
        if key in args:
            raise ScenarioError(f"line {lineno}: {keyword} gives {key}= twice")
        args[key] = value
    if not all(k in args for k in required):
        raise ScenarioError(f"line {lineno}: {keyword} needs "
                            + " and ".join(f"{k}=" for k in required))
    try:
        values = {k: read(args.get(k, "")) for k, read in optional.items()}
        values.update((k, int(args[k])) for k in required)
    except ValueError as e:
        raise ScenarioError(f"line {lineno}: {e}") from None
    extra = set(args) - set(required) - set(optional)
    if extra:
        raise ScenarioError(f"line {lineno}: unknown {keyword} argument(s) {sorted(extra)}")
    return spec(**values)


def parse_scenario(text: str) -> Scenario:
    """The scenario a file gives, carrying the line of each directive, so
    that every check, static or run-time, can name it."""
    settings: Dict[str, int] = {}
    specs: Dict[str, list] = {"fault": [], "integrate": []}  # (spec, line) each
    lines: Dict[Directive, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in specs:
            specs[tokens[0]].append((_directive(tokens[0], tokens[1:], lineno), lineno))
        elif "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                settings[key] = int(value.strip())
            except ValueError:
                raise ScenarioError(f"line {lineno}: {key} needs an integer, got {value.strip()!r}") from None
            if key not in ("n", "rounds"):
                raise ScenarioError(f"line {lineno}: unknown setting {key!r}")
            if (key, 0) in lines:
                raise ScenarioError(f"line {lineno}: {key} is already set on line "
                                    f"{lines[key, 0]}")
            lines[key, 0] = lineno
        else:
            raise ScenarioError(f"line {lineno}: cannot parse {line!r}")
    for key in ("n", "rounds"):
        if key not in settings:
            raise ScenarioError(f"scenario does not set {key}")
    # Stable, so duplicate slots keep their file order.
    specs["fault"].sort(key=lambda fault_line: fault_line[0].slot)
    for keyword, found in specs.items():
        lines.update(((keyword, i), lineno) for i, (_, lineno) in enumerate(found))
    scenario = Scenario(
        n=settings["n"], rounds=settings["rounds"],
        faults=tuple(f for f, _ in specs["fault"]),
        integrations=tuple(ev for ev, _ in specs["integrate"]),
        lines=lines,
    )
    scenario.validate()
    return scenario


def scenario_text(scenario: Scenario) -> str:
    lines = [f"n = {scenario.n}", f"rounds = {scenario.rounds}"]
    for f in scenario.faults:
        accept = ",".join(str(i) for i in sorted(f.accept))
        lines.append(f"fault slot={f.slot} accept={accept}")
    for ev in scenario.integrations:
        lines.append(f"integrate station={ev.station} slot={ev.slot}")
    return "\n".join(lines) + "\n"


StationsSnapshot = Tuple[Tuple[int, int, int, str], ...]  # (vector, acc, fail, loc)


def _snapshot(stations: Sequence[StationState]) -> StationsSnapshot:
    return tuple((st.member, st.acc, st.fail, st.location._value_) for st in stations)


@dataclass(frozen=True)
class SlotEvent:
    """One slot of the run's history, and the only per-slot log the ring
    keeps: everything the counting oracles and the abstraction map are
    allowed to see (no station-internal counters except the gate operands
    at the moment the gate runs).  ``accepted`` is set on fault slots only,
    so ``accepted is not None`` marks a fault."""

    slot: int
    owner: int
    owner_loc: str        # owner's location before the slot ran
    emitted: bool
    gate: Optional[Tuple[int, int]]  # (acc, fail) at gate evaluation
    departed: Tuple[Tuple[int, str], ...]  # (sid, 'gate'|'second_check'|'integ_gate')
    accepted: Optional[Tuple[int, ...]]  # receivers that accepted, fault slots only


class Ring:
    """One executable scenario instance.  ``step()`` runs a single slot;
    ``run()`` drives to the horizon."""

    def __init__(self, scenario: Scenario, gate: str = "strict", record: bool = True):
        if gate not in ("strict", "weak"):
            raise ValueError(f"gate must be 'strict' or 'weak', got {gate!r}")
        self.scenario = scenario
        self.warnings = scenario.validate()
        self.n = scenario.n
        self.weak_gate = gate == "weak"
        self.record = record
        self.stations: List[StationState] = [initial_station(i, self.n) for i in range(self.n)]
        self.labels: List[str] = [""] * self.n
        self.slot = 0
        self.last_frame: Optional[Frame] = None
        self.events: List[SlotEvent] = []
        self.records: List[StationsSnapshot] = []
        self._faults: Dict[int, FaultSpec] = {}
        for f in scenario.faults:
            self._faults[f.slot] = f
        # slot -> (index into scenario.integrations, station) of each rejoin
        self._integrations: Dict[int, List[Tuple[int, int]]] = {}
        for i, ev in enumerate(scenario.integrations):
            self._integrations.setdefault(ev.slot, []).append((i, ev.station))

    # -- queries -----------------------------------------------------------

    def active_ids(self) -> List[int]:
        return [st.sid for st in self.stations if st.location.is_active]

    def station(self, sid: int) -> StationState:
        return self.stations[sid]

    @property
    def departures(self) -> List[Tuple[int, int, str]]:
        """(slot, sid, kind) of every departure so far, read off ``events``."""
        return [(ev.slot, sid, kind) for ev in self.events for sid, kind in ev.departed]

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        t = self.slot
        if t >= self.scenario.total_slots:
            raise IndexError("scenario horizon exhausted")
        stations = self.stations
        owner = stations[t % self.n]
        fault = self._faults.get(t)

        for i, sid in self._integrations.get(t, ()):
            st = stations[sid]
            if st.location is not _FAILED:
                raise self.scenario.refuse(
                    f"integrate station=s{sid} slot={t}: station is {st.location.value}, not failed",
                    ("integrate", i),
                )
            # Set since slot 0, where s0 passes its gate and nobody is failed.
            start_integration(st, self.last_frame.vector, t)

        owner_loc = owner.location
        frame: Optional[Frame] = None
        gate_vals: Optional[Tuple[int, int]] = None
        departed: List[Tuple[int, str]] = []

        reentered = False
        if owner_loc.is_active:
            gate_vals = (owner.acc, owner.fail)
            if clique_gate(owner, weak=self.weak_gate):
                frame = begin_emission(owner)
            else:
                leave_active(owner)
                departed.append((owner.sid, "gate"))
        elif owner_loc.is_receiving:  # integrating
            counting = owner_loc is _COUNTING
            if counting:
                gate_vals = (owner.acc, owner.fail)
            frame = reintegrate_step(owner, t, weak=self.weak_gate)
            if frame is not None:
                owner.location = _IN
                reentered = True
            elif counting and owner.location is _FAILED:
                departed.append((owner.sid, "integ_gate"))

        if fault is not None:
            if frame is None:
                raise self.scenario.refuse(
                    f"fault at slot {t}: owner s{owner.sid} is silent, nothing to corrupt",
                    ("fault", self.scenario.faults.index(fault)),
                )
            for sid in fault.accept:
                if not stations[sid].location.is_receiving:
                    raise self.scenario.refuse(
                        f"fault at slot {t}: accept lists s{sid}, which is not receiving",
                        ("fault", self.scenario.faults.index(fault)),
                    )

        accepted: List[int] = []
        if frame is None:
            # A slot passed with no frame: every receiver clears the owner's
            # bit and touches no counter.
            keep = ~(1 << owner.sid)
            for st in stations:
                if st is not owner and st.location.is_receiving:
                    st.member &= keep
        else:
            self.last_frame = frame
            accept = None if fault is None else fault.accept
            for st in stations:
                if st is owner or not st.location.is_receiving:
                    continue
                ev = receive_step(st, frame, accept is None or st.sid in accept)
                if ev is _ACCEPT:
                    accepted.append(st.sid)
                elif ev is _LEAVE:
                    departed.append((st.sid, "second_check"))
            if fault is not None:
                vouched = set(accepted) | {owner.sid}
                for st in stations:
                    self.labels[st.sid] += "1" if st.sid in vouched else "0"
                    if st.location.is_active:
                        st.location = _AGREE if st.sid in vouched else _DISAGREE

        if reentered:
            # Classes may merge only now: receivers that accepted the
            # re-entry frame have restored the sender's bit.
            self._adopt_label(owner)

        # Filled in directly: the frozen __init__ spends a setattr per field.
        event = object.__new__(SlotEvent)
        event.__dict__.update(
            slot=t, owner=owner.sid, owner_loc=owner_loc._value_,
            emitted=frame is not None, gate=gate_vals, departed=tuple(departed),
            accepted=tuple(sorted(accepted)) if fault is not None else None)
        self.events.append(event)
        if self.record:
            self.records.append(_snapshot(stations))
        self.slot += 1

    def state_key(self) -> tuple:
        """What the next steps read that the steps so far have written:
        every field of every station, the class labels, the last frame and
        the slot.  Two rings of one scenario, or of scenarios that differ
        only in faults already run, step on alike from equal keys."""
        return (self.slot, self.last_frame, tuple(self.labels), tuple(
            # The enums by value: their own hash is a Python-level call.
            (st.sid, st.n, st.member, st.acc, st.fail, st.location._value_,
             st.check._value_, st.first_succ, st.listen_from)
            for st in self.stations))

    def _adopt_label(self, st: StationState) -> None:
        for other in self.stations:
            if other.sid != st.sid and other.location.is_active and other.member == st.member:
                self.labels[st.sid] = self.labels[other.sid]
                return

    def fork(self, fault: FaultSpec) -> "Ring":
        """A copy of this ring at its current slot whose scenario has one
        more fault, at this slot or later.  Run on, it produces the events
        and records that a fresh ring on the extended scenario would; this
        ring is left as it was."""
        if fault.slot < self.slot:
            raise ValueError(f"cannot fork at slot {self.slot} with a fault at "
                             f"slot {fault.slot}, which has already run")
        sc = self.scenario
        scenario = Scenario(sc.n, sc.rounds, sc.faults + (fault,), sc.integrations, sc.lines)
        warnings = scenario.validate()
        clone = Ring.__new__(Ring)
        # Containers a step changes are copied; the rest is immutable or
        # read-only, so it is shared.
        clone.__dict__.update(
            self.__dict__,
            scenario=scenario,
            warnings=warnings,
            stations=[StationState(st.sid, st.n, st.member, st.acc, st.fail,
                                   st.location, st.check, st.first_succ,
                                   st.listen_from) for st in self.stations],
            labels=list(self.labels),
            events=list(self.events),
            records=list(self.records),
            _faults={**self._faults, fault.slot: fault},
        )
        return clone

    def run_until(self, slot: int) -> "Ring":
        end = min(slot, self.scenario.total_slots)
        while self.slot < end:
            self.step()
        return self

    def run(self) -> "Ring":
        return self.run_until(self.scenario.total_slots)


# -- partitions and convergence -----------------------------------------------


def partition_classes(ring: Ring) -> Dict[str, Tuple[int, ...]]:
    """Group the currently active stations into classes.

    Classes are keyed by fault-history label; the grouping must coincide
    with grouping by membership-vector equality (internal soundness check —
    a divergence would mean the label bookkeeping and the protocol state
    disagree about who belongs together).
    """
    by_label: Dict[str, List[int]] = {}
    by_vector: Dict[int, List[int]] = {}
    for st in ring.stations:
        if st.location.is_active:
            by_label.setdefault(ring.labels[st.sid], []).append(st.sid)
            by_vector.setdefault(st.member, []).append(st.sid)
    label_groups = sorted(tuple(v) for v in by_label.values())
    vector_groups = sorted(tuple(v) for v in by_vector.values())
    if label_groups != vector_groups:
        raise SoundnessError(
            f"class labels {by_label} disagree with vector partition {by_vector}"
        )
    return {k: tuple(v) for k, v in sorted(by_label.items())}


@dataclass(frozen=True)
class Convergence:
    """The class structure of a ring at one instant and its verdict."""

    classes: Dict[str, Tuple[int, ...]]
    single_clique: bool
    active: Tuple[int, ...]

    @property
    def degenerate(self) -> bool:
        """Nobody left active: the clique is vacuous, not a success."""
        return not self.active

    @property
    def converged(self) -> bool:
        """A single clique and at most one class."""
        return self.single_clique and len(self.classes) <= 1


def convergence(ring: Ring) -> Convergence:
    """Judge the ring as it stands: its classes, who is still active, and
    whether the active stations form a single clique, i.e. hold identical
    vectors that acknowledge exactly the active set (the survivors fully
    recognize each other and nobody else).  An empty active set is
    vacuously a clique; reports must flag that case as degenerate rather
    than call it success."""
    active = [st for st in ring.stations if st.location.is_active]
    mask = sum(1 << st.sid for st in active)
    return Convergence(partition_classes(ring), all(st.member == mask for st in active),
                       tuple(st.sid for st in active))


# -- rendering ---------------------------------------------------------------


def trace_lines(ring: Ring) -> List[str]:
    lines = []
    for ev, stations in zip(ring.events, ring.records):
        parts = [f"slot={ev.slot}", f"owner=s{ev.owner}", f"sent={int(ev.emitted)}"]
        for sid, (member, acc, fail, loc) in enumerate(stations):
            parts.append(f"s{sid}[m={vector_str(member, ring.n)} a={acc} f={fail} loc={loc}]")
        lines.append(" ".join(parts))
    return lines


# A silent owner's note by its location before the slot; an active or
# counting owner that stays silent has failed its gate.
_SILENT_NOTES = {"listen": "silent (listening)", "failed": "silent (failed)"}


def render_table(ev: SlotEvent, stations: StationsSnapshot, n: int) -> str:
    note = "sent" if ev.emitted else _SILENT_NOTES.get(ev.owner_loc, "silent (gate failed)")
    return _table(f"after slot {ev.slot} - s{ev.owner} {note}", stations, n)


def _table(title: str, stations: StationsSnapshot, n: int) -> str:
    rows = [title, "  station  vector  acc  fail  location"]
    rows += [f"  s{sid:<6}  {vector_str(member, n):<6}  {acc:<3}  {fail:<4}  {loc}"
             for sid, (member, acc, fail, loc) in enumerate(stations)]
    return "\n".join(rows)


def render_run_tables(ring: Ring) -> str:
    initial = [initial_station(i, ring.n) for i in range(ring.n)]
    blocks = [_table("initial state", _snapshot(initial), ring.n)]
    blocks.extend(render_table(ev, stations, ring.n)
                  for ev, stations in zip(ring.events, ring.records))
    return "\n\n".join(blocks) + "\n"
