"""Benchmark of the ttpmem verification artifact.

Usage::

    python3 bench/run.py --workload k1_sim|k2_chain|replay|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in its own process and drives the package in-process
from ``src/``; ``all`` runs the three one after another.  Set-up (importing
the package and generating the inputs) is timed first.  Then the workload
repeats complete verdict sets (passes) while the next one still fits in
``--seconds`` (at least one).  The first pass warms up and is left out of
the timing when later passes fit.  Only ``replay`` uses ``--seed``.

With ``--trace 0`` the result carries the end-to-end metrics: the median
seconds per pass, the items of one pass divided by that median, peak memory
of this process, and the median set-up time of this process and six fresh
child processes.  With ``--trace 1`` the same untraced passes are followed
by one traced pass, and the result carries the per-layer metrics (see
``spans.py``), the tracing overhead, the verdict error rate and the
untraced request latencies of ``replay``.  Every verdict is judged against its known answer;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 2 means no result (for instance,
no package source next to the benchmark).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
NAMES = ("k1_sim", "k2_chain", "replay")

E2E_UNITS = {"verdict_s": "s", "judged_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}


LAYER_UNITS = {"self_us": "us", "self_s": "s", "overhead_s": "s",
               "latency_p50_ms": "ms", "latency_p99_ms": "ms",
               "useful_slot_ratio": "ratio", "error_rate": "ratio"}


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    return LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "count")


def _setup(name: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs; returns the
    workload and the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(name)
    wl.prepare(seed, workdir)
    return wl, time.perf_counter() - t0


def _setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return float(out.split()[-1])


def _measure(wl, tally, seconds: float) -> list:
    """Complete passes while the next one, timed like the last, still fits.
    The first pass, which is judged, warms up and is not returned unless it
    is the only one."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(wl.run_pass(tally))
        if time.perf_counter() - start + passes[-1].seconds > seconds:
            return passes[1:] or passes


def _percentile(values: Sequence[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _workdir() -> tempfile.TemporaryDirectory:
    """Scratch space for generated inputs, inside the checkout."""
    return tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out=sys.stdout) -> dict:
    with _workdir() as workdir:
        wl, own_setup = _setup(name, seed, Path(workdir))
        import workloads  # imported, with the package, by _setup

        setups = [own_setup]
        if not trace:
            setups += [_setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        tally = workloads.Tally()
        passes = _measure(wl, tally, seconds)
        verdict_s = statistics.median(p.seconds for p in passes)
        latencies = [t for p in passes for t in p.latencies]
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                gc.collect()
                traced = wl.run_pass(tally)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = traced.seconds - verdict_s
            metrics["verdicts.error_rate"] = tally.failed / tally.attempted
            metrics["replay.latency_samples"] = len(latencies)
            for q in (50, 99):  # 0 where no requests were made
                metrics[f"replay.latency_p{q}_ms"] = (
                    _percentile(latencies, q) * 1e3 if len(latencies) > 1 else 0.0)
            tracer.dump()
        else:
            metrics = {
                "verdict_s": verdict_s,
                "judged_per_s": passes[0].items / verdict_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setups),
            }

    print(f"workload {name}: {len(passes)} untraced pass(es) of "
          f"{passes[0].items} {wl.item}, seed {seed}; seconds per pass: "
          + " ".join(f"{p.seconds:.4f}" for p in passes), file=out)
    parts: Dict[str, List[float]] = {}
    for p in passes:
        for label, times in p.parts.items():
            parts.setdefault(label, []).extend(times)
    for label, times in parts.items():
        print(f"  {label:<16} median {statistics.median(times):.6f} s "
              f"over {len(times)}", file=out)
    if len(latencies) > 1:
        print(f"request latency: p50 {_percentile(latencies, 50) * 1e3:.4f} ms, "
              f"p99 {_percentile(latencies, 99) * 1e3:.4f} ms "
              f"over {len(latencies)} requests", file=out)
    for metric, value in metrics.items():
        print(f"  {metric:<42} {value:>16.6f} {unit_of(metric)}", file=out)
    print(f"verdicts: {tally.attempted} attempted, {tally.failed} differ from the "
          f"known answer (error_rate {tally.failed / tally.attempted:.6f}), "
          f"{tally.unexpected} unexpected", file=out)
    if tally.witness:
        print("first witness:\n" + tally.witness, file=out)
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "ttpmem" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        with _workdir() as workdir:
            print(_setup(args.workload, args.seed, Path(workdir))[1])
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
