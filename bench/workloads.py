"""The benchmark's three workloads: their inputs, one pass, and the known
answers every pass is judged against.

A pass is one complete verdict set: one ``cross_check`` call over the
workload's ring sizes, or one batch of CLI requests.  Each workload times
only the calls into the package; judging the verdicts happens after the
clock stops.  The first pass of a run is
judged against the known answers; every later pass must repeat it exactly,
and only a pass that does not counts again.  So a run's ``attempted`` and
``failed`` depend on its inputs alone, not on how many passes fit in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import ttpmem.checker as checker
import ttpmem.cli as cli
from ttpmem.protocol import Location
from ttpmem.ring import FaultSpec, IntegrationSpec, Ring, Scenario, scenario_text

# Exhaustive run counts (README, acceptance criteria 3 and 7).
K1_RUNS = {3: 12, 4: 32, 5: 80, 6: 192, 7: 448, 8: 1024}
K2_RUNS = {4: 664, 5: 4820, 6: 24552}


@dataclass
class Tally:
    """Verdicts judged against their known answers.  ``failed`` counts every
    verdict that differs; ``unexpected`` the ones that are not the recorded
    k>=3 counter-tree misprediction, which make the run incorrect."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    witness: Optional[str] = None

    def judge(self, ok: bool, what: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not known_defect:
            self.unexpected += 1
        if self.witness is None:
            self.witness = what


@dataclass
class Pass:
    seconds: float  # time spent inside the package's calls
    items: int      # runs judged, or scenarios replayed
    # Seconds per ring size, or per request grouped by verb.
    parts: Dict[str, List[float]] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)  # seconds per request


class SweepWorkload:
    """``cross_check(ns, k)``: exhaustive fault placements with the NC and
    CA verdicts, plus SIM for k=1.  No randomness: there are no inputs to
    generate, and the verdict lines of every pass must repeat those of the
    first."""

    item = "runs"

    def __init__(self, k: int, runs: Dict[int, int], props: Sequence[str]):
        self.k = k
        self.runs = runs
        self.props = tuple(props)
        self._lines: Optional[List[str]] = None

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def _first_pass(self, lines: List[str], tally: Tally) -> bool:
        """True on the first pass, which is then judged; a later pass must
        repeat its verdict lines and is a failed verdict if it does not."""
        if self._lines is None:
            self._lines = lines
            return True
        if lines != self._lines:
            tally.judge(False, "verdict lines differ between passes")
        return False

    def run_pass(self, tally: Tally) -> Pass:
        ns = sorted(self.runs)
        results, parts = [], {}
        try:
            for n in ns:
                t0 = time.perf_counter()
                results += checker.cross_check([n], k=self.k)
                parts[f"n={n}"] = [time.perf_counter() - t0]
        except Exception as e:  # count the whole set as failed, keep going
            tally.judge(False, f"cross_check k={self.k} raised {e!r}")
            return Pass(time.perf_counter() - t0, 0)
        by_n = {r.n: r for r in results}
        lines = [f"n={r.n} runs={r.runs}" for r in results]
        lines += [v.report_line() for r in results for v in r.verdicts]
        if self._first_pass(lines, tally):
            for n in ns:
                r = by_n.get(n)
                tally.judge(r is not None and r.runs == self.runs[n],
                            f"k={self.k} n={n}: runs {r and r.runs}, "
                            f"expected {self.runs[n]}")
                verdicts = {v.prop: v for v in (r.verdicts if r else ())}
                for prop in self.props:
                    v = verdicts.get(prop)
                    tally.judge(v is not None and v.holds,
                                v.report_line() if v else f"{prop} n={n} missing")
        return Pass(sum(ts[0] for ts in parts.values()), sum(r.runs for r in results), parts)


def _subset(rng: random.Random, ids: Sequence[int]) -> frozenset:
    return frozenset(i for i in ids if rng.random() < 0.5)


# Ring size, fault count and whether a failed station rejoins: every
# combination equally often, so that the work in a batch hardly depends on
# the seed.
SHAPES = tuple((n, k, rejoin) for n in range(4, 9) for k in (1, 2, 3)
               for rejoin in (False, True))


def generate_scenario(rng: random.Random, n: int, k: int, wants_rejoin: bool) -> Scenario:
    """A ring of n stations with up to k admissible faults at most one round
    apart (each later fault strikes a station that sends, and its accept set
    is drawn from the stations still listening), and, if wanted and some
    station has failed, one failed station that rejoins after the verdict
    horizon."""
    slot = rng.randrange(n)
    faults = [FaultSpec(slot, _subset(rng, [i for i in range(n) if i != slot]))]
    while len(faults) < k:
        prev = faults[-1].slot
        ring = Ring(Scenario(n=n, rounds=prev // n + 3, faults=tuple(faults)),
                    record=False)
        candidates = []
        for slot in range(prev + 1, prev + n + 1):
            ring.run_until(slot)
            owner = ring.station(slot % n)
            if owner.location.is_active and owner.acc > owner.fail:
                candidates.append(
                    (slot, [s for s in ring.active_ids() if s != owner.sid]))
        if not candidates:
            break
        slot, receivers = rng.choice(candidates)
        faults.append(FaultSpec(slot, _subset(rng, receivers)))
    horizon = faults[-1].slot + 2 * n
    sc = Scenario(n=n, rounds=horizon // n + 1, faults=tuple(faults))
    if not wants_rejoin:
        return sc
    ring = Ring(sc, record=False).run_until(horizon)
    failed = [st.sid for st in ring.stations if st.location is Location.FAILED]
    if not failed:
        return sc
    # Listening, counting and the re-entry gate take up to three rounds.
    join = IntegrationSpec(rng.choice(failed), horizon + rng.randrange(n))
    return Scenario(n=n, rounds=(join.slot + 4 * n) // n + 1,
                    faults=sc.faults, integrations=(join,))


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    faults: int


class ReplayWorkload:
    """A closed loop: one client calls ``cli.main`` on generated scenario
    files, each request after the previous one returns.  Every scenario gets
    ``simulate --tables`` and ``partition``; the ones without a rejoin also
    get ``kfault-oracle``.  Known answer: every request exits 0 and prints
    the same bytes on every pass."""

    item = "scenarios"

    def __init__(self, scenarios: int):
        self.count = scenarios
        self.requests: List[Request] = []
        self.scenarios: List[Scenario] = []
        self._digests: Optional[List[bytes]] = None

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        shapes = [SHAPES[i % len(SHAPES)] for i in range(self.count)]
        rng.shuffle(shapes)
        self.scenarios = [generate_scenario(rng, *shape) for shape in shapes]
        self.requests = []
        for i, sc in enumerate(self.scenarios):
            path = workdir / f"{i:04d}.scn"
            path.write_text(scenario_text(sc))
            verbs = [("simulate", "--tables"), ("partition",)]
            if not sc.integrations:
                verbs.append(("kfault-oracle",))
            for verb in verbs:
                self.requests.append(Request(
                    (verb[0], "--scenario", str(path)) + verb[1:], len(sc.faults)))

    def run_pass(self, tally: Tally) -> Pass:
        latencies: List[float] = []
        parts: Dict[str, List[float]] = {}
        results = []
        for req in self.requests:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(req.argv))
            except Exception as e:  # a crash is one failed request
                code = f"raised {e!r}"
            latencies.append(time.perf_counter() - t0)
            parts.setdefault(req.argv[0], []).append(latencies[-1])
            results.append((code, out.getvalue()))
        digests = [hashlib.sha256(f"{code}\n{text}".encode()).digest()
                   for code, text in results]
        if self._digests is not None:  # a later pass: it must repeat the first
            for i, req in enumerate(self.requests):
                if digests[i] != self._digests[i]:
                    tally.judge(False, f"{req.argv[0]} on scenario {i}: output "
                                "differs between passes")
            return Pass(sum(latencies), len(self.scenarios), parts, latencies)
        self._digests = digests
        for req, (code, text) in zip(self.requests, results):
            if code == 0:
                tally.judge(True, "")
            else:
                known = req.argv[0] == "kfault-oracle" and req.faults >= 3 and code == 1
                tally.judge(False, self._witness(req, code, text), known_defect=known)
        return Pass(sum(latencies), len(self.scenarios), parts, latencies)

    @staticmethod
    def _witness(req: Request, code, text: str) -> str:
        lines = [f"{req.argv[0]} on {Path(req.argv[2]).name} exited {code}"]
        lines += ["    " + l for l in Path(req.argv[2]).read_text().splitlines()]
        lines += ["    " + l for l in text.splitlines() if "MISMATCH" in l][:1]
        return "\n".join(lines)


def make(name: str):
    """The workload at the benchmark's size.  Passes are kept near two
    seconds, so that a run's median over more than a dozen of them is not
    at the mercy of a few seconds of contention; the run counts above also
    cover the full sizes (k=1 to n=8, k=2 to n=6)."""
    if name == "k1_sim":
        return SweepWorkload(1, {n: K1_RUNS[n] for n in range(3, 8)}, ("NC", "CA", "SIM"))
    if name == "k2_chain":
        return SweepWorkload(2, {n: K2_RUNS[n] for n in (4, 5)}, ("NC", "CA"))
    if name == "replay":
        return ReplayWorkload(300)
    raise ValueError(f"unknown workload {name!r}")
