"""Span tracing for the benchmark's traced run, from outside the package.

The tracer wraps public functions by patching the name where it is
called (``ttpmem.ring.receive_step`` is what ``Ring.step`` calls, for
instance).  Hot functions are not stored one span per call: every span is
folded into an aggregate keyed by (name, parent name) holding the call
count, the total duration and the self time, which is the duration minus
the time its child spans cover.  The coarse spans (sweeps and CLI
requests) are also kept one by one, with their parent's id, so a
request's spans can be told apart.  Everything stays in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# (span name, object whose attribute is patched, attribute).  A function
# imported by name into several modules is patched in each of them.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("protocol.receive_step", "ttpmem.ring", "receive_step"),
    ("protocol.reintegrate_step", "ttpmem.ring", "reintegrate_step"),
    ("ring.Ring.step", "ttpmem.ring:Ring", "step"),
    ("ring.partition_classes", "ttpmem.ring", "partition_classes"),
    ("ring.partition_classes", "ttpmem.checker", "partition_classes"),
    ("ring.partition_classes", "ttpmem.cli", "partition_classes"),
    ("ring.parse_scenario", "ttpmem.cli", "parse_scenario"),
    ("ring.render", "ttpmem.cli", "render_run_tables"),
    ("ring.render", "ttpmem.cli", "trace_lines"),
    ("abstraction.abstraction_map", "ttpmem.checker", "abstraction_map"),
    ("abstraction.abstract_successors", "ttpmem.checker", "abstract_successors"),
    ("kfault.tree_gate_checks", "ttpmem.checker", "tree_gate_checks"),
    ("kfault.tree_gate_checks", "ttpmem.cli", "tree_gate_checks"),
    ("kfault.CounterTree.observe", "ttpmem.kfault:CounterTree", "observe"),
    ("kfault.CounterTree.predict_gate", "ttpmem.kfault:CounterTree", "predict_gate"),
    ("kfault.counting_gate_checks", "ttpmem.checker", "counting_gate_checks"),
    ("checker.kfault_scenarios", "ttpmem.checker", "kfault_scenarios"),
    ("checker.cross_check", "ttpmem.checker", "cross_check"),
    ("cli.main", "ttpmem.cli", "main"),
)

COARSE = frozenset({"checker.cross_check", "cli.main"})

# Layer metrics reported as "<span>.calls" and "<span>.self_us".
TIMED = (
    "protocol.receive_step",
    "protocol.reintegrate_step",
    "ring.Ring.step",
    "ring.partition_classes",
    "abstraction.abstraction_map",
    "abstraction.abstract_successors",
    "kfault.tree_gate_checks",
    "kfault.CounterTree.observe",
    "kfault.CounterTree.predict_gate",
    "kfault.counting_gate_checks",
)


def _resolve(where: str):
    """The module, or the class in it, named by "module[:Class]"; None if
    the package no longer has it."""
    module, _, cls = where.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    def __init__(self) -> None:
        # Open spans: [name, ns covered by children, span id or None].
        self._stack: List[list] = [["", 0, None]]
        # (name, parent name) -> [calls, total ns, self ns]
        self.agg: Dict[Tuple[str, str], List[int]] = {}
        # Coarse spans: (id, parent id, name, start ns, end ns).
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Tuple[list, list, int]:
        parent = self._stack[-1]
        frame = [name, 0, len(self.spans) if name in COARSE else None]
        if frame[2] is not None:
            self.spans.append((frame[2], parent[2], name, 0, 0))
        self._stack.append(frame)
        return parent, frame, perf_counter_ns()

    def _close(self, parent: list, frame: list, start: int) -> None:
        end = perf_counter_ns()
        dur = end - start
        self._stack.pop()
        parent[1] += dur
        rec = self.agg.setdefault((frame[0], parent[0]), [0, 0, 0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        if frame[2] is not None:
            sid, pid, name, _s, _e = self.spans[frame[2]]
            self.spans[frame[2]] = (sid, pid, name, start, end)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the generator's own work between
            # yields, e.g. the prefix runs of the fault-chain enumerator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    parent, frame, start = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(parent, frame, start)
                        return
                    except BaseException:
                        self._close(parent, frame, start)
                        raise
                    self._close(parent, frame, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(parent, frame, start)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, where, attr in TARGETS:
            owner = _resolve(where)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{where}.{attr}")
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------

    def _sum(self, name: str, parent: Optional[str] = None) -> List[int]:
        out = [0, 0, 0]
        for (n, p), rec in self.agg.items():
            if n == name and (parent is None or p == parent):
                out = [a + b for a, b in zip(out, rec)]
        return out

    def layer_metrics(self) -> Dict[str, float]:
        m: Dict[str, float] = {}
        for name in TIMED:
            calls, _total, self_ns = self._sum(name)
            m[f"{name}.calls"] = calls
            m[f"{name}.self_us"] = self_ns / 1e3
        steps = self._sum("ring.Ring.step")[0]
        prefix = self._sum("ring.Ring.step", "checker.kfault_scenarios")[0]
        # Slots of judged runs over all slots stepped (0 when none were).
        m["ring.useful_slot_ratio"] = (steps - prefix) / steps if steps else 0.0
        m["ring.parse_scenario.self_us"] = self._sum("ring.parse_scenario")[2] / 1e3
        m["ring.render.self_us"] = self._sum("ring.render")[2] / 1e3
        m["checker.kfault_scenarios.self_s"] = self._sum("checker.kfault_scenarios")[2] / 1e9
        m["checker.kfault_scenarios.prefix_slots"] = prefix
        m["cli.main.self_us"] = self._sum("cli.main")[2] / 1e3
        return m

    def dump(self, stream=sys.stderr) -> None:
        """Write the aggregates and the coarse spans, one line each."""
        print("trace aggregates: name <- parent: calls total_ms self_ms", file=stream)
        for (name, parent), (calls, total, self_ns) in sorted(self.agg.items()):
            print(f"  {name} <- {parent or '-'}: {calls} {total / 1e6:.3f} "
                  f"{self_ns / 1e6:.3f}", file=stream)
        print(f"trace coarse spans: {len(self.spans)} (id parent name ms)", file=stream)
        for sid, pid, name, start, end in self.spans:
            print(f"  {sid} {'-' if pid is None else pid} {name} "
                  f"{(end - start) / 1e6:.3f}", file=stream)
        for target in self.missing:
            print(f"trace: {target} not found; its metrics read 0", file=stream)
