"""Mutation checks: do the tests notice a one-line fault in ``src/``?

Each mutant below replaces one piece of text in one source file.  The runner
first checks, for every chosen mutant, that the old text occurs exactly once
and that the mutated file still compiles: a mutant that does not would be
killed by any import, whatever the tests check.  For each mutant it then
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the mutant there and runs one ``pytest -x`` on a fast selection of
tests (about 20 s on a 2-vCPU host).  A failing run kills the mutant; a
passing one lets it survive.  The unmutated copy is run first and must pass.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py 3 7        # mutants 3 and 7 only

Standard library only.  Pytest does not collect this file, and it is not
part of the tier-1 suite.  Exit code: 0 when every mutant is killed, 1 when
one survives, 2 when a mutant number is unknown, a mutant's old text does
not occur exactly once, a mutated file does not compile, or the unmutated
selection fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SELECTION = [
    "tests/test_kfault.py", "tests/test_protocol.py", "tests/test_ring.py",
    "tests/test_cli.py", "tests/test_checker.py", "tests/test_acceptance.py",
    "-k", "not criterion_7",
]

# (file under src/ttpmem, old text, new text, what the mutant breaks)
MUTANTS = [
    ("kfault.py", "return (n - slot + fault_slots[0] + own, sent - own)",
     "return (n - slot + fault_slots[0] - 1 + own, sent - own)",
     "fault round: one pre-fault frame too few in the window"),
    ("kfault.py", "for l, level in enumerate(levels, start=1):",
     "for l, level in enumerate(levels[:-1], start=1):",
     "fault round: the lineage sum drops the newest level"),
    ("kfault.py", "same = leaves[w_s][0]",
     "same = leaves[max(leaves)][0]",
     "settled: same-class headcount read from the wrong leaf"),
    ("kfault.py", "c1 = 1 + len(accepted)", "c1 = len(accepted)",
     "_split: the emitter left out of its vouchers' class"),
    ("kfault.py", 'new_level["0"] = [self.n - x, 0]', 'new_level["0"] = [self.n - x, 1]',
     "_split: the first fault's rejecters start with one frame"),
    ("kfault.py", "if slot + 1 - self.n in fault_slots:",
     "if slot - self.n in fault_slots:",
     "aux counters reset one slot late"),
    ("protocol.py", "if slot - st.listen_from >= st.n:",
     "if slot - st.listen_from > st.n:",
     "m2: a rejoiner listens one slot past a full round"),
    ("ring.py", "other.location.is_active and other.member == st.member:",
     "other.location.is_active:",
     "m5: a rejoiner adopts any active station's label"),
    ("protocol.py", "return st.acc > st.fail", "return st.acc >= st.fail",
     "the strict clique gate passes on a tie"),
    ("protocol.py", "if clean and frame.vector == st.member | bit:",
     "if clean and frame.vector == st.member:",
     "idle accept: a written-off sender's frame is rejected"),
    ("ring.py", "key = (sid, member, acc, fail, loc)", "key = (member, acc, fail, loc)",
     "renderers: a row's key leaves out its station"),
    ("ring.py", "key = (sid, member, acc, fail, loc)", "key = (sid, member, acc, fail)",
     "renderers: a row's key leaves out its location"),
    ("ring.py", "rows: Dict[Tuple[int, int, int, int, str], str] = {}",
     'rows: Dict[Tuple[int, int, int, int, str], str] = globals().setdefault("_ROWS", {})',
     "renderers: the row cache outlives its call"),
    ("abstraction.py", 's.c0 + s.c1, 2 * base["d" + o]', 's.c0 + s.c1, base["d" + o]',
     "fault-round gate: each foreign frame counted once, not twice"),
    ("abstraction.py", "r_next = min(s.r + 1, 2)", "r_next = min(s.r + 1, 3)",
     "rollover rules: r kept up to 3, not 2"),
    ("abstraction.py", "r=min(r, 2)", "r=r",
     "map: r left unbounded"),
    ("abstraction.py", "s.g_exit and s.cp in (1, 2)", "s.g_exit and s.cp == 1",
     "refined guard: only the first slot after a g-exit barred"),
    ("abstraction.py", 'elif labels[ev.owner][0] == "1":', 'elif labels[ev.owner][0] == "0":',
     "map: frames sent booked to the other class's d"),
    ("abstraction.py", "sigma <= fault_slot + n:", "sigma < fault_slot + n:",
     "map: a convicted sender unbooked one slot before its own"),
    ("checker.py", "at = (self.pre, inp)", "at = self.pre",
     "SIM's move table keyed without the inputs"),
    ("checker.py", "moves: Moves = field(default_factory=dict)",
     'moves: Moves = field(default_factory=lambda: globals().setdefault("_MOVES", {}))',
     "SIM's move table outlives its sweep"),
    ("ring.py", "if ((receive_step(clean, frame, True), clean)\n"
     "                        != (receive_step(corrupted, frame, False), corrupted)):",
     "if receive_step(clean, frame, True) != receive_step(corrupted, frame, False):",
     "decisive receivers: only the receive events compared"),
    ("ring.py", "if key in args:\n"
     '            raise ScenarioError(f"line {lineno}: {keyword} gives {key}= twice")\n'
     "        args[key] = value", "args[key] = value",
     "parser: a key given twice in a directive, the last value wins"),
    ("checker.py", "(tr.post, tr.emits)", "(tr.post, ev.emitted)",
     "SIM tests a step's post-state without whether it emits"),
    ("abstraction.py", "return AbstractInputs(x=1 + len(ring.events[fault_slot].accepted))",
     "return NO_INPUT", "map: the fault slot's inputs are the shared no-input"),
    ("abstraction.py", "return G_INPUT if g else NO_INPUT", "return NO_INPUT",
     "map: the faulty sender's silent exit never raises g"),
    ("checker.py", "n << (n - 1) > max_runs", "n << (n - 2) > max_runs",
     "budget: a single fault's chains counted at half"),
    ("checker.py", "max_runs = RUN_BUDGET\n", "max_runs = 10 * RUN_BUDGET\n",
     "budget: the default ten times RUN_BUDGET"),
    ("kfault.py", "while slot - fault_slots[i] >= n:", "while slot - fault_slots[i] > n:",
     "window scan: a fault exactly a round back counted as still inside"),
    ("ring.py", "sound and vector_of.setdefault(w, v) == v and ", "sound and ",
     "partition check: one label over two vectors let through"),
    ("ring.py", " and label_of.setdefault(v, w) == w", "",
     "partition check: two labels over one vector let through"),
    ("ring.py", "receive_step(st, frame, True) is _LEAVE", "receive_step(st, frame, False) is _LEAVE",
     "clean-frame branch: every receiver gets the frame corrupted"),
    ("ring.py", "ev = receive_step(st, frame, st.sid in fault.accept)",
     "ev = receive_step(st, frame, True)",
     "faulty-frame branch: the accept set ignored, every copy clean"),
    ("checker.py", "raise _over_budget(n, k, max_runs)", "break",
     "a walk over its budget is cut silently"),
    ("checker.py", "max_runs = RUN_BUDGET\n", "max_runs = RUN_BUDGET if k <= 2 else 100\n",
     "budget: k >= 3 sampled again, 100 chains by default"),
    ("cli.py", "return range(lo, hi + 1)", "return list(range(lo, hi + 1))",
     "a ring-size range built in memory before the budget refuses it"),
    ("checker.py", "if group not in outcomes:", "if not outcomes:",
     "shared tails: every sibling of a fork takes the first one's outcome"),
    ("checker.py", "yield faults + (fault,), outcomes[group]", "yield faults, outcomes[group]",
     "the walk yields each chain without its last fault"),
]


def run_selection(tree: Path) -> bool:
    """True when the selection passes on the copy at ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *SELECTION],
        cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return proc.returncode == 0


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def mutated_files(chosen: list) -> dict:
    """The text of each chosen mutant's file with the mutant applied, by
    mutant number.  Raises ValueError naming the first mutant that is
    unknown, whose old text does not occur exactly once in its file, or
    whose mutated file does not compile."""
    texts = {}
    for i in chosen:
        if not 1 <= i <= len(MUTANTS):
            raise ValueError(f"no mutant {i}: they are numbered 1..{len(MUTANTS)}")
        path, old, new, _why = MUTANTS[i - 1]
        text = (ROOT / "src/ttpmem" / path).read_text()
        count = text.count(old)
        if count != 1:
            raise ValueError(f"mutant {i}: {path} holds its old text {count} times, not once")
        texts[i] = text.replace(old, new)
        try:
            compile(texts[i], path, "exec")
        except SyntaxError as e:
            raise ValueError(f"mutant {i}: {path} does not compile once mutated: {e}") from None
    return texts


def main(argv: list) -> int:
    chosen = [int(a) for a in argv] or list(range(1, len(MUTANTS) + 1))
    try:
        texts = mutated_files(chosen)
    except ValueError as e:
        print(e)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        copy_tree(base)
        if not run_selection(base):
            print("the unmutated selection fails; no mutant can be judged")
            return 2
    survived = 0
    print(f"{'#':>2}  {'result':<8} {'secs':>5}  {'file':<14} mutant")
    for i in chosen:
        path, _old, _new, why = MUTANTS[i - 1]
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            copy_tree(tree)
            (tree / "src/ttpmem" / path).write_text(texts[i])
            start = time.perf_counter()
            killed = not run_selection(tree)
        survived += not killed
        print(f"{i:>2}  {'killed' if killed else 'SURVIVED':<8} "
              f"{time.perf_counter() - start:5.1f}  {path:<14} {why}", flush=True)
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 0 if survived == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
