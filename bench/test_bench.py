"""Smoke tests of the benchmark at tiny sizes: metric names and units agree
with BENCHMARK.json, known answers pass and catch a wrong verdict, the
tracer restores what it patches, and the benchmark refuses to run without
the package source.  Run with ``python3 -m pytest bench``."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import ttpmem.ring  # noqa: E402
from ttpmem.ring import parse_scenario, scenario_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "k1_sim": lambda: workloads.SweepWorkload(1, {3: 12, 4: 32}, ("NC", "CA", "SIM")),
    "k2_chain": lambda: workloads.SweepWorkload(2, {4: 664}, ("NC", "CA")),
    "replay": lambda: workloads.ReplayWorkload(8),
}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_run_reports_every_metric(monkeypatch, name, trace):
    monkeypatch.setattr(workloads, "make", lambda _name: TINY[name]())
    result = run.run_workload(name, seed=1, seconds=0.01, trace=bool(trace),
                              out=io.StringIO())
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["attempted"] > 0
    if name != "replay":
        assert result["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_run_count_is_a_failed_verdict():
    tally = workloads.Tally()
    workloads.SweepWorkload(1, {3: 13}, ("NC", "CA", "SIM")).run_pass(tally)
    assert tally.failed == tally.unexpected == 1
    assert "expected 13" in tally.witness


@pytest.mark.parametrize("name", run.NAMES)
def test_verdict_counts_do_not_depend_on_the_number_of_passes(tmp_path, name):
    counts = []
    for passes in (1, 3):
        wl, tally = TINY[name](), workloads.Tally()
        wl.prepare(1, tmp_path)
        for _ in range(passes):
            wl.run_pass(tally)
        counts.append((tally.attempted, tally.failed, tally.unexpected))
    assert counts[0] == counts[1] and counts[0][0] > 0


def test_a_pass_that_does_not_repeat_the_first_is_a_failed_verdict():
    wl, tally = TINY["k1_sim"](), workloads.Tally()
    wl.run_pass(tally)
    attempted = tally.attempted
    wl._lines = wl._lines[1:]
    wl.run_pass(tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (attempted + 1, 1, 1)
    assert tally.witness == "verdict lines differ between passes"


def test_k3_oracle_mismatch_counts_as_the_known_defect(tmp_path):
    # The first k=3 witness at n=4: three faults with empty accept sets.
    path = tmp_path / "k3.scn"
    path.write_text("n = 4\nrounds = 6\nfault slot=0 accept=\n"
                    "fault slot=3 accept=\nfault slot=5 accept=\n")
    wl = workloads.ReplayWorkload(0)
    wl.requests = [workloads.Request(("kfault-oracle", "--scenario", str(path)), 3)]
    tally = workloads.Tally()
    wl.run_pass(tally)
    wl.run_pass(tally)
    # The repeat pass matches the first, so the request is judged once.
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 0)
    assert "slot   6 s2: predicted acc=1 fail=3  ring acc=1 fail=2  MISMATCH" \
        in tally.witness


def test_generated_scenarios_are_seeded_and_admissible(tmp_path):
    one, two = workloads.ReplayWorkload(60), workloads.ReplayWorkload(60)
    one.prepare(3, tmp_path)
    two.prepare(3, tmp_path)
    first = one.scenarios
    assert first == two.scenarios
    for sc in first:
        assert parse_scenario(scenario_text(sc)) == sc
        assert 4 <= sc.n <= 8 and 1 <= len(sc.faults) <= 3
        slots = [f.slot for f in sc.faults]
        assert all(0 < b - a <= sc.n for a, b in zip(slots, slots[1:]))
        assert sc.total_slots >= slots[-1] + 2 * sc.n
    assert any(sc.integrations for sc in first)
    assert any(not sc.integrations for sc in first)


def test_tracer_restores_patches_and_splits_self_time():
    original = ttpmem.ring.receive_step
    tracer = spans.Tracer()
    tracer.install()
    try:
        TINY["k1_sim"]().run_pass(workloads.Tally())
    finally:
        tracer.uninstall()
    assert ttpmem.ring.receive_step is original
    assert not tracer.missing
    for calls, total, self_ns in tracer.agg.values():
        assert calls > 0 and 0 <= self_ns <= total
    m = tracer.layer_metrics()
    assert m["ring.Ring.step.calls"] == m["kfault.CounterTree.observe.calls"]
    assert m["ring.useful_slot_ratio"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "k1_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
