"""Command-line front end for the membership artifact.

Five verbs cover the workflow: ``simulate`` runs a scenario file and prints
the trace (or per-slot membership tables), ``partition`` judges a run's
class structure and convergence, ``check`` explores the counter automaton
and reports the six membership properties, ``cross-check`` sweeps concrete
scenarios against the counting oracles and the abstraction, and
``kfault-oracle`` replays one scenario through the counter tree and compares
every gate prediction with the ring.

Exit codes: 0 success; 1 a property, convergence, or oracle check failed;
2 unusable input; 3 a resource cap was hit before the answer was known.
All output is deterministic — there is no randomness anywhere in the
package, so byte-identical reruns are part of the contract.

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call; a request then costs what
its verb costs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .checker import (
    PropertyVerdict,
    check_properties,
    cross_check,
)
from .kfault import CounterTree, expected_counter_count, tree_gate_checks
from .ring import (
    ResourceCap,
    Ring,
    Scenario,
    ScenarioError,
    convergence,
    parse_scenario,
    partition_classes,
    render_run_tables,
    trace_lines,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read scenario {path}: {e}") from None
    return parse_scenario(text)


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(payload)
        except OSError as e:
            raise ValueError(f"cannot write {out}: {e}") from None
    else:
        sys.stdout.write(payload)


def _parse_n_range(text: str) -> range:
    s = text.strip()
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(s)
    except ValueError:
        raise ValueError(f"ring-size range must look like 4 or 3..8, got {text!r}") from None
    if lo < 3:
        raise ValueError(f"rings need at least 3 stations, got {lo}")
    if hi < lo:
        raise ValueError(f"empty ring-size range {text!r}")
    return range(lo, hi + 1)


def _fmt_classes(classes) -> str:
    if not classes:
        return "none"
    return "  ".join(
        f"[{label or '-'}: {','.join(f's{i}' for i in ids)}]"
        for label, ids in classes.items()
    )


def _warn(lines: Sequence[str]) -> None:
    for w in lines:
        print(f"warning: {w}", file=sys.stderr)


# -- verbs ---------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    ring = Ring(_load_scenario(args.scenario)).run()
    _warn(ring.warnings)
    if args.tables:
        payload = render_run_tables(ring)
    else:
        payload = "\n".join(trace_lines(ring)) + "\n"
    _emit(payload, args.out)
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    sc = _load_scenario(args.scenario)
    ring = Ring(sc, record=False)
    lines: List[str] = []
    two_rounds = bool(sc.faults) and sc.judgeable(sc.faults[-1].slot)
    if two_rounds:
        last = sc.faults[-1].slot
        lines.append(f"last fault: {sc.faults[-1]}")
        classes = partition_classes(ring.run_until(last + sc.n))
        lines.append(f"classes one round after: {_fmt_classes(classes)}")
        judged = convergence(ring.run_until(last + 2 * sc.n))
        lines.append(f"classes two rounds after: {_fmt_classes(judged.classes)}")
    else:
        judged = convergence(ring.run())
        lines.append(f"classes at horizon: {_fmt_classes(judged.classes)}")
    _warn(ring.warnings)
    lines.append(f"active: {','.join(f's{i}' for i in judged.active) or 'nobody'}")
    if judged.degenerate:
        lines.append("single clique: degenerate (vacuous - no stations left)")
    else:
        lines.append(f"single clique: {'yes' if judged.single_clique else 'NO'}")
    if two_rounds:
        lines.append(f"converged within two rounds: {'yes' if judged.converged else 'NO'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if judged.converged else EXIT_FAIL


def _mutant_flags(mutant: Optional[str]) -> dict:
    if mutant is None:
        return {}
    if mutant == "gate-weak":
        return {"weak_gate": True}
    if mutant == "no-strengthen":
        return {"strengthened": False}
    raise ValueError(f"unknown mutant {mutant!r}")


def cmd_check(args: argparse.Namespace) -> int:
    ns = _parse_n_range(args.n)
    flags = _mutant_flags(args.mutant)
    if args.literal_guard:
        flags["literal_guard"] = True
    lines: List[str] = []
    first_fail: Optional[PropertyVerdict] = None
    for n in ns:
        for v in check_properties(n, args.constraint,
                                  max_states=args.max_states, **flags):
            lines.append(v.report_line())
            if not v.holds and first_fail is None:
                first_fail = v
    if first_fail is None:
        lines.append(f"all properties hold for n={ns[0]}..{ns[-1]} "
                     f"constraint={args.constraint}")
    else:
        lines.append(f"first witness ({first_fail.prop} n={first_fail.n}): "
                     + " -> ".join(first_fail.witness))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if first_fail is None else EXIT_FAIL


def cmd_cross_check(args: argparse.Namespace) -> int:
    ns = _parse_n_range(args.n)
    k = args.k
    results = cross_check(ns, k=k, max_runs=args.max_runs)
    lines: List[str] = []
    ok = True
    for result in results:
        for v in result.verdicts:
            lines.append(v.report_line())
            if not v.holds:
                ok = False
                lines.extend(f"    {w}" for w in v.witness)
    lines.append(
        f"cross-check k={k} n={ns[0]}..{ns[-1]}: "
        + ("clean" if ok else "MISMATCHES FOUND")
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_kfault_oracle(args: argparse.Namespace) -> int:
    sc = _load_scenario(args.scenario)
    ring = Ring(sc, record=False).run()
    _warn(ring.warnings)
    if sc.integrations:
        # Refused before the tree replays the run, so that any error the run
        # itself shows comes first, as in the other verbs.
        raise sc.refuse("counter tree is undefined while stations integrate",
                        ("integrate", 0))
    tree = CounterTree(ring.n)
    checks = tree_gate_checks(ring, tree)
    lines: List[str] = []
    bad = 0
    for c in checks:
        mark = "ok" if c.ok else "MISMATCH"
        lines.append(
            f"slot {c.slot:>3} s{c.sid}: predicted acc={c.predicted[0]} "
            f"fail={c.predicted[1]}  ring acc={c.actual[0]} "
            f"fail={c.actual[1]}  {mark}"
        )
        bad += 0 if c.ok else 1
    k = len(sc.faults)
    lines.append(
        f"counters in use: {len(tree.counters_in_use())} "
        f"(budget for k={k}: {expected_counter_count(k)})"
    )
    lines.append(
        f"gate checks: {len(checks)}, mismatches: {bad}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if bad == 0 else EXIT_FAIL


# -- dispatch --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttpmem",
        description="TDMA ring membership: simulator, counter abstraction, checker",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and print its trace")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--tables", action="store_true",
                   help="print per-slot membership tables instead of the trace")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("partition",
                       help="report partition classes and the clique verdict")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("check",
                       help="explore the counter automaton, check the properties")
    p.add_argument("--n", required=True, metavar="LO..HI",
                   help="ring sizes, e.g. 4 or 3..12")
    p.add_argument("--constraint", default="any",
                   choices=["any", "majority", "tie"])
    p.add_argument("--literal-guard", action="store_true",
                   help="use the bare later-round send guard")
    p.add_argument("--mutant", choices=["gate-weak", "no-strengthen"],
                   help="check a deliberately broken variant")
    p.add_argument("--max-states", type=int, default=200_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cross-check",
                       help="sweep concrete scenarios against the oracles")
    p.add_argument("--n", required=True, metavar="LO..HI")
    p.add_argument("--k", type=int, default=1,
                   help="faults per scenario (every admissible chain is run)")
    p.add_argument("--max-runs", type=int,
                   help="runs per ring size (default 1000000); more exits 3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cross_check)

    p = sub.add_parser("kfault-oracle",
                       help="replay one scenario through the counter tree")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kfault_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage and 0 on --help; keep those codes.
        return int(e.code or 0)
    try:
        return int(args.func(args))
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCap as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
