"""Synchronous N-station ring: slot choreography, fault injection, traces.

A scenario fixes the ring size, a horizon in rounds, a list of asymmetric
transmission faults (slot + the set of receivers that still get the frame
uncorrupted) and optional re-integration events.  :class:`Ring` executes it
slot by slot: the slot owner runs its clique gate and either broadcasts or
falls silent, receivers update vectors/counters per the protocol rules, and
every fault splits the current classes — the bookkeeping here tracks those
classes as bit-string labels ('1' appended for stations that vouched for the
faulty frame, '0' for everyone else).

``Ring.step`` takes a silent slot, a clean frame and a faulty frame as three
branches; only a faulty frame reads the accept set and splits the classes.
``Ring.events`` is the run's history, one :class:`SlotEvent` per slot, and
every consumer (oracles, abstraction map, renderers) reads it there; with
``record=True``, ``Ring.records`` adds each slot's post-slot station
snapshot, which only the trace and table renderers print.  Most of a run's
station rows repeat an earlier slot's, so each renderer formats a distinct
row once per call and reuses its text.

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
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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

    def validate(self) -> None:
        """Static checks: raises ScenarioError on hard violations, ResourceCap
        on a horizon over budget."""
        if self.n < 3:
            raise self.refuse(f"need at least 3 stations, got n={self.n}", ("n", 0))
        if self.rounds < 1:
            raise self.refuse(f"need at least 1 round, got rounds={self.rounds}",
                              ("rounds", 0))
        if self.n * self.total_slots > HORIZON_BUDGET:
            raise self.refuse(f"rounds = {self.rounds} gives {self.n} x {self.n} x "
                              f"{self.rounds} station-slots, over the budget of "
                              f"{HORIZON_BUDGET}", ("rounds", 0), ResourceCap)
        for i in range(len(self.faults)):
            self.check_fault(i)
        for i, ev in enumerate(self.integrations):
            if not 0 <= ev.station < self.n:
                raise self.refuse(f"integration station s{ev.station} out of range",
                                  ("integrate", i))
            if not 0 <= ev.slot < self.total_slots:
                raise self.refuse(f"integration slot {ev.slot} outside horizon",
                                  ("integrate", i))

    def check_fault(self, i: int) -> None:
        """Static checks of fault ``i`` against the horizon, the fault before
        it and the ring: raises ScenarioError on a hard violation."""
        f = self.faults[i]
        directive = ("fault", i)
        if not 0 <= f.slot < self.total_slots:
            raise self.refuse(f"fault slot {f.slot} outside horizon "
                              f"[0,{self.total_slots})", directive)
        if i and f.slot <= self.faults[i - 1].slot:
            raise self.refuse("fault slots must be strictly increasing", directive)
        owner = f.slot % self.n
        for sid in f.accept:
            if not 0 <= sid < self.n:
                raise self.refuse(f"fault accept id s{sid} out of range", directive)
            if sid == owner:
                raise self.refuse(f"fault at slot {f.slot}: sender s{owner} cannot be "
                                  "its own receiver", directive)

    @property
    def warnings(self) -> List[str]:
        """Admissible oddities: each fault more than a round after the one
        before it, in fault order, then a horizon that ends too early to
        judge the last fault."""
        warnings = [
            f"gap of {f.slot - prev.slot} slots between faults at {prev.slot} and "
            f"{f.slot} exceeds one round; counting predictions are not guaranteed there"
            for prev, f in zip(self.faults, self.faults[1:]) if f.slot - prev.slot > self.n
        ]
        if self.faults and not self.judgeable(self.faults[-1].slot):
            warnings.append(
                f"horizon ends {self.total_slots} slots in; less than two full rounds after "
                f"the last fault at slot {self.faults[-1].slot}, so stabilization cannot "
                f"be judged"
            )
        return warnings


def _ids(value: str) -> frozenset:
    """The ids of a comma-separated accept list, none of them empty or
    repeated; "" is the empty list."""
    ids: set = set()
    for item in value.split(",") if value else ():
        if not item:
            raise ValueError(f"accept list {value!r} has an empty item")
        i = int(item)
        if i in ids:
            raise ValueError(f"accept list {value!r} names {i} twice")
        ids.add(i)
    return frozenset(ids)


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
    return tuple([(st.member, st.acc, st.fail, st.location._value_) for st in stations])


def _copy(st: StationState) -> StationState:
    return StationState(st.sid, st.n, st.member, st.acc, st.fail, st.location, st.check,
                        st.first_succ, st.listen_from)


class SlotEvent(NamedTuple):
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
        scenario.validate()
        self.scenario = scenario
        self.n = scenario.n
        self.horizon = scenario.total_slots
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

    @property
    def warnings(self) -> List[str]:
        return self.scenario.warnings

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
        if t >= self.horizon:
            raise IndexError("scenario horizon exhausted")
        stations = self.stations
        owner = stations[t % self.n]
        fault = self._faults.get(t)

        if t in self._integrations:
            for i, sid in self._integrations[t]:
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

        accepted: Optional[Tuple[int, ...]] = None
        if frame is None:
            if fault is not None:
                raise self.scenario.refuse(
                    f"fault at slot {t}: owner s{owner.sid} is silent, nothing to corrupt",
                    ("fault", self.scenario.faults.index(fault)),
                )
            # A slot passed with no frame: every receiver clears the owner's
            # bit and touches no counter.
            keep = ~(1 << owner.sid)
            for st in stations:
                if st is not owner and st.location.is_receiving:
                    st.member &= keep
        elif fault is None:  # a clean frame: no class splits
            self.last_frame = frame
            for st in stations:
                if (st is not owner and st.location.is_receiving
                        and receive_step(st, frame, True) is _LEAVE):
                    departed.append((st.sid, "second_check"))
        else:  # a faulty frame, clean to the accept set only: every class splits
            for sid in fault.accept:
                if not stations[sid].location.is_receiving:
                    raise self.scenario.refuse(
                        f"fault at slot {t}: accept lists s{sid}, which is not receiving",
                        ("fault", self.scenario.faults.index(fault)),
                    )
            self.last_frame = frame
            got: List[int] = []  # in station order, so sorted
            for st in stations:
                if st is owner or not st.location.is_receiving:
                    continue
                ev = receive_step(st, frame, st.sid in fault.accept)
                if ev is _ACCEPT:
                    got.append(st.sid)
                elif ev is _LEAVE:
                    departed.append((st.sid, "second_check"))
            accepted, vouched = tuple(got), set(got) | {owner.sid}
            for st in stations:
                self.labels[st.sid] += "1" if st.sid in vouched else "0"
                if st.location.is_active:
                    st.location = _AGREE if st.sid in vouched else _DISAGREE

        if reentered:
            # Classes may merge only now: receivers that accepted the
            # re-entry frame have restored the sender's bit.
            self._adopt_label(owner)

        # Positional, in field order: with keywords the constructor takes 1.5x as long.
        self.events.append(SlotEvent(
            t, owner.sid, owner_loc._value_, frame is not None, gate_vals, tuple(departed),
            accepted))
        if self.record:
            self.records.append(_snapshot(stations))
        self.slot += 1

    def decisive_receivers(self) -> frozenset:
        """The receivers whose step in this slot a fault can change: those
        whose state after the frame, or whose ``ReceiveEvent``, differs
        between a clean and a corrupted copy.  A receiver's step reads only
        its own state and whether the frame reached it clean, so two faults
        here whose accept sets agree on these receivers step to the same
        stations, labels and ``SlotEvent``.  The slot must be one a fault
        may strike, an active owner's that passes its gate, with no rejoin
        starting in it.  Probed on copies: the ring is left as it was."""
        owner = self.stations[self.slot % self.n]
        if (self.slot in self._integrations or not owner.location.is_active
                or not clique_gate(owner, weak=self.weak_gate)):
            raise ValueError(f"slot {self.slot} is not an active owner's emission")
        frame = begin_emission(_copy(owner))
        decisive = []
        for st in self.stations:
            if st is not owner and st.location.is_receiving:
                clean, corrupted = _copy(st), _copy(st)
                if ((receive_step(clean, frame, True), clean)
                        != (receive_step(corrupted, frame, False), corrupted)):
                    decisive.append(st.sid)
        return frozenset(decisive)

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
        sc = self.scenario  # positional: ``dataclasses.replace`` takes twice as long
        scenario = Scenario(sc.n, sc.rounds, sc.faults + (fault,), sc.integrations, sc.lines)
        scenario.check_fault(len(scenario.faults) - 1)  # only the added fault is new
        # Containers a step changes are copied; the rest is immutable or
        # read-only, so it is shared.  Set one by one, in ``__init__``'s
        # order: reading or filling ``__dict__`` would make every later
        # attribute access on either ring slower.
        clone = Ring.__new__(Ring)
        clone.scenario, clone.n, clone.horizon = scenario, self.n, self.horizon
        clone.weak_gate = self.weak_gate
        clone.record, clone.stations = self.record, [_copy(st) for st in self.stations]
        clone.labels, clone.slot, clone.last_frame = list(self.labels), self.slot, self.last_frame
        clone.events, clone.records = list(self.events), list(self.records)
        clone._faults, clone._integrations = {**self._faults, fault.slot: fault}, self._integrations
        return clone

    def run_until(self, slot: int) -> "Ring":
        end = min(slot, self.horizon)
        while self.slot < end:
            self.step()
        return self

    def run(self) -> "Ring":
        return self.run_until(self.horizon)


# -- partitions and convergence -----------------------------------------------


def partition_classes(ring: Ring) -> Dict[str, Tuple[int, ...]]:
    """Group the currently active stations into classes.

    Classes are keyed by fault-history label; the grouping must coincide
    with grouping by membership-vector equality (internal soundness check —
    a divergence would mean the label bookkeeping and the protocol state
    disagree about who belongs together), that is, when each label has one
    vector and each vector one label.
    """
    by_label: Dict[str, List[int]] = {}
    vector_of, label_of = {}, {}  # label -> vector, vector -> label
    sound = True
    for st in ring.stations:
        if st.location.is_active:
            w, v = ring.labels[st.sid], st.member
            by_label.setdefault(w, []).append(st.sid)
            sound = sound and vector_of.setdefault(w, v) == v and label_of.setdefault(v, w) == w
    if not sound:  # the grouping by vector only words the error
        by_vector: Dict[int, List[int]] = {}
        for st in ring.stations:
            if st.location.is_active:
                by_vector.setdefault(st.member, []).append(st.sid)
        raise SoundnessError(f"class labels {by_label} disagree with vector partition "
                             f"{by_vector}")
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


def _station_rows(n: int, snapshots: Iterable[StationsSnapshot],
                  row: Callable[[int, str, int, int, str], str]) -> Iterator[List[str]]:
    """Each snapshot's stations as ``row(sid, vector, acc, fail, loc)``,
    formatting each distinct row once and each vector once per member.
    Both caches live for this call only: a vector's text depends on ``n``."""
    rows: Dict[Tuple[int, int, int, int, str], str] = {}
    vectors: Dict[int, str] = {}
    for stations in snapshots:
        out = []
        for sid, (member, acc, fail, loc) in enumerate(stations):
            key = (sid, member, acc, fail, loc)
            text = rows.get(key)
            if text is None:
                vector = vectors.get(member)
                if vector is None:
                    vector = vectors[member] = vector_str(member, n)
                text = rows[key] = row(sid, vector, acc, fail, loc)
            out.append(text)
        yield out


def trace_lines(ring: Ring) -> List[str]:
    rows = _station_rows(ring.n, ring.records, lambda sid, vector, acc, fail, loc:
                         f"s{sid}[m={vector} a={acc} f={fail} loc={loc}]")
    return [f"slot={ev.slot} owner=s{ev.owner} sent={int(ev.emitted)} " + " ".join(slot_rows)
            for ev, slot_rows in zip(ring.events, rows)]


# A silent owner's note by its location before the slot; an active or
# counting owner that stays silent has failed its gate.
_SILENT_NOTES = {"listen": "silent (listening)", "failed": "silent (failed)"}


def render_run_tables(ring: Ring) -> str:
    """The initial state's table, then one table per slot."""
    titles = ["initial state"] + [
        f"after slot {ev.slot} - s{ev.owner} "
        + ("sent" if ev.emitted else _SILENT_NOTES.get(ev.owner_loc, "silent (gate failed)"))
        for ev in ring.events]
    initial = _snapshot([initial_station(i, ring.n) for i in range(ring.n)])
    rows = _station_rows(ring.n, [initial, *ring.records], lambda sid, vector, acc, fail, loc:
                         f"  s{sid:<6}  {vector:<6}  {acc:<3}  {fail:<4}  {loc}")
    return "\n\n".join("\n".join([title, "  station  vector  acc  fail  location", *table])
                       for title, table in zip(titles, rows)) + "\n"
