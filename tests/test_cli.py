"""Command-line behavior: verbs, golden table output, and every exit code.

The two golden table files were rendered from runs whose per-slot values are
frozen (and hand-checked) in test_ring.py; the fixtures pin the byte-exact
presentation on top of those values.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ttpmem.cli import main
from ttpmem.ring import HORIZON_BUDGET, ResourceCap, Scenario

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_tables_match_the_golden_single_fault_run(capsys):
    code, out, _ = run(capsys, "simulate", "--tables",
                       "--scenario", str(FIXTURES / "single_fault.scn"))
    assert code == 0
    golden = (FIXTURES / "single_fault_tables.txt").read_text()
    assert out == golden


def test_simulate_tables_match_the_golden_cascade_run(capsys):
    code, out, _ = run(capsys, "simulate", "--tables",
                       "--scenario", str(FIXTURES / "cascade.scn"))
    assert code == 0
    golden = (FIXTURES / "cascade_tables.txt").read_text()
    assert out == golden


def test_simulate_without_faults_keeps_every_vector_full(capsys):
    code, out, _ = run(capsys, "simulate", "--tables",
                       "--scenario", str(FIXTURES / "quiet.scn"))
    assert code == 0
    assert out == (FIXTURES / "quiet_tables.txt").read_text()
    vector_rows = [
        ln for ln in out.splitlines()
        if ln.strip().startswith("s") and ln.strip()[1].isdigit()
    ]
    assert vector_rows and all("1111" in ln for ln in vector_rows)


def test_simulate_trace_mode_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "simulate",
                         "--scenario", str(FIXTURES / "single_fault.scn"))
    code2, out2, _ = run(capsys, "simulate",
                         "--scenario", str(FIXTURES / "single_fault.scn"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("slot=0 owner=s0")


def test_out_flag_writes_the_payload_to_a_file(tmp_path, capsys):
    target = tmp_path / "tables.txt"
    code, out, _ = run(capsys, "simulate", "--tables", "--out", str(target),
                       "--scenario", str(FIXTURES / "single_fault.scn"))
    assert code == 0
    assert out == ""
    assert target.read_text() == (FIXTURES / "single_fault_tables.txt").read_text()


def test_an_unwritable_out_exits_two(tmp_path, capsys):
    # A missing directory and a directory in the file's place.
    for target in (tmp_path / "absent" / "x", tmp_path):
        for verb in ("simulate", "partition"):
            code, out, err = run(capsys, verb, "--out", str(target),
                                 "--scenario", str(FIXTURES / "single_fault.scn"))
            assert code == 2, (verb, target)
            assert out == "" and err.startswith(f"error: cannot write {target}: ")


def test_parse_errors_carry_the_line_number(tmp_path, capsys):
    # Each refused directive sits on a line of its own, away from the last
    # line; faults out of slot order check that the line follows a fault
    # through the sort.  The last three are refused only by running the
    # ring, by every verb that runs it.
    cases = [
        ("n = 4\nrubbish here\nrounds = 2\n", "line 2", "cannot parse"),
        ("n = 4\nrounds = 2\nfault slot=0 accept=0\n# end\n",
         "line 3", "own receiver"),
        ("n = 4\nrounds = 2\nfault slot=5 accept=1\nfault slot=1 accept=9\n# end\n",
         "line 4", "accept id s9 out of range"),
        ("n = 4\nrounds = 2\nfault slot=9 accept=1\n# end\n",
         "line 3", "outside horizon"),
        ("n = 4\nrounds = 2\nfault slot=9 accept=1\nrounds = 2\n",
         "line 4", "rounds is already set on line 2"),
        ("n = 4\nrounds = 4\nintegrate station=3 slot=9 bogus=1\n# end\n",
         "line 3", "unknown integrate argument(s) ['bogus']"),
        # A key given twice in one directive, whichever value would run.
        ("n = 4\nrounds = 2\nfault slot=0 slot=5 accept=1\n# end\n",
         "line 3", "fault gives slot= twice"),
        ("n = 4\nrounds = 2\n\nfault slot=0 accept=2 accept=3\n# end\n",
         "line 4", "fault gives accept= twice"),
        ("n = 4\nrounds = 2\nintegrate station=1 station=3 slot=4\n# end\n",
         "line 3", "integrate gives station= twice"),
        ("n = 4\nrounds = 3\nfault slot=4 accept=1\n\nfault slot=0 accept=1\n"
         "fault slot=4 accept=2\n# end\n",
         "line 6", "strictly increasing"),
        ("# tiny\nn = 2\nrounds = 2\n", "line 2", "at least 3"),
        ("n = 4\nrounds = 3\nintegrate station=1 slot=3\nintegrate station=7 slot=3\n"
         "fault slot=0 accept=1\n",
         "line 4", "integration station s7 out of range"),
        ("n = 4\nrounds = 4\nfault slot=7 accept=0\nfault slot=0 accept=\n"
         "fault slot=3 accept=\n# end\n",
         "line 3", "owner s3 is silent, nothing to corrupt"),
        ("n = 4\nrounds = 3\nfault slot=6 accept=3\nfault slot=0 accept=2\n# end\n",
         "line 3", "accept lists s3, which is not receiving"),
        ("n = 4\nrounds = 4\nintegrate station=2 slot=9\nintegrate station=1 slot=3\n"
         "# end\n",
         "line 4", "station is in, not failed"),
    ]
    for text, line, message in cases:
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        for verb in ("simulate", "partition", "kfault-oracle"):
            code, out, err = run(capsys, verb, "--scenario", str(bad))
            assert code == 2 and out == "", (verb, text)
            assert err.startswith(f"error: {line}: ") and message in err, (verb, text)


def test_invalid_scenarios_exit_two(tmp_path, capsys):
    tiny = tmp_path / "tiny.scn"
    tiny.write_text("n = 2\nrounds = 2\n")
    code, _, err = run(capsys, "simulate", "--scenario", str(tiny))
    assert code == 2
    assert "at least 3" in err
    code, _, err = run(capsys, "simulate", "--scenario", str(tmp_path / "absent.scn"))
    assert code == 2


def test_a_horizon_over_the_budget_exits_three_before_any_slot_runs(tmp_path, capsys):
    # 1.6e9 station-slots: hours of running, were it not refused up front.
    scn = tmp_path / "long.scn"
    scn.write_text("n = 4\nrounds = 100000000\nfault slot=0 accept=2\n")
    for verb in ("simulate", "partition", "kfault-oracle"):
        code, out, err = run(capsys, verb, "--scenario", str(scn))
        assert code == 3 and out == "", verb
        assert err == ("resource cap: line 2: rounds = 100000000 gives 4 x 4 x "
                       "100000000 station-slots, over the budget of 1000000\n")
    Scenario(4, HORIZON_BUDGET // 16).validate()  # the budget itself is allowed
    with pytest.raises(ResourceCap):
        Scenario(4, HORIZON_BUDGET // 16 + 1).validate()


def test_partition_reports_rounds_and_converges(capsys):
    code, out, _ = run(capsys, "partition",
                       "--scenario", str(FIXTURES / "single_fault.scn"))
    assert code == 0
    assert "classes one round after: [0: s1]  [1: s0,s2]" in out
    assert "classes two rounds after: [1: s0,s2]" in out
    assert "converged within two rounds: yes" in out


def test_partition_warns_about_a_fault_gap(tmp_path, capsys):
    sparse = tmp_path / "sparse.scn"
    sparse.write_text("n = 4\nrounds = 6\nfault slot=0 accept=2\nfault slot=6 accept=\n")
    code, out, err = run(capsys, "partition", "--scenario", str(sparse))
    assert code == 0
    assert "converged within two rounds: yes" in out
    assert "warning: gap of 6 slots between faults at 0 and 6" in err


def test_partition_flags_a_still_split_horizon(tmp_path, capsys):
    short = tmp_path / "short.scn"
    short.write_text("n = 4\nrounds = 1\nfault slot=0 accept=2\n")
    code, out, _ = run(capsys, "partition", "--scenario", str(short))
    assert code == 1
    assert "classes at horizon" in out and "single clique: NO" in out


def test_check_passes_on_an_odd_ring(capsys):
    code, out, _ = run(capsys, "check", "--n", "3..3")
    assert code == 0
    assert "all properties hold" in out


def test_check_reports_the_tie_failure_with_its_witness(capsys):
    code, out, _ = run(capsys, "check", "--n", "4..4")
    assert code == 1
    assert "P3 n=4 constraint=any FAILS" in out
    assert "first witness (P3 n=4): fault ->" in out
    assert out.rstrip().endswith("r1_guess_exit_rollover")


def test_check_majority_scope_is_clean(capsys):
    code, out, _ = run(capsys, "check", "--n", "4..4", "--constraint", "majority")
    assert code == 0
    assert "P2 n=4 constraint=majority HOLDS" in out


def test_check_mutant_fails_with_a_witness(capsys):
    code, out, _ = run(capsys, "check", "--n", "4..4", "--mutant", "gate-weak")
    assert code == 1
    assert "P1 n=4" in out and "FAILS" in out


# The runs whose transcript check_golden.txt holds: every property over
# n=3..8 for the checked automaton, each deliberate variant, and each scope.
# The file was rendered with check_transcript() from the twelve-branch
# automaton that tests/test_abstraction.py keeps as its reference.
CHECK_GOLDEN_RUNS = (
    (),
    ("--mutant", "gate-weak"),
    ("--mutant", "no-strengthen"),
    ("--literal-guard",),
    ("--constraint", "tie"),
    ("--constraint", "majority"),
)


def check_transcript() -> str:
    """Each golden ``check`` run's command, stdout and exit code."""
    parts = []
    for extra in CHECK_GOLDEN_RUNS:
        argv = ["check", "--n", "3..8", *extra]
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        parts.append(f"$ {' '.join(argv)}\n{out.getvalue()}exit {code}\n")
    return "".join(parts)


def test_check_output_matches_the_golden_transcript(capsys):
    # Verdicts, details and witness paths, byte for byte: a witness is the
    # first violating state in breadth-first order, so it pins the order of
    # the successors as well as their guards.
    assert check_transcript() == (FIXTURES / "check_golden.txt").read_text()
    assert capsys.readouterr().err == ""


def test_check_range_errors_exit_two(capsys):
    for bad in ("4..x", "2..4", "6..4"):
        code, _, err = run(capsys, "check", "--n", bad)
        assert code == 2, f"--n {bad} should be refused"
        assert err


def test_check_state_cap_exits_three(capsys):
    code, _, err = run(capsys, "check", "--n", "6..6", "--max-states", "10")
    assert code == 3
    assert "cap" in err


def test_check_state_budget_below_one_exits_two(capsys):
    # A budget below one state is bad input, not a cap that was hit; that
    # holds also where the constraint leaves no graph to explore.
    for args in (("--n", "4"), ("--n", "3", "--constraint", "tie")):
        for budget in ("0", "-1"):
            code, out, err = run(capsys, "check", *args, "--max-states", budget)
            assert code == 2, f"{args} --max-states {budget}"
            assert out == "" and "at least 1" in err


def test_cross_check_single_fault_is_clean(capsys):
    code, out, _ = run(capsys, "cross-check", "--n", "3..4", "--k", "1")
    assert code == 0
    assert "SIM n=4" in out and "clean" in out


def test_cross_check_budget_exits_three(capsys):
    for k in ("1", "2"):
        code, _, err = run(capsys, "cross-check", "--n", "5..5", "--k", k,
                           "--max-runs", "10")
        assert code == 3, f"k={k}"
        assert "budget" in err


def test_cross_check_large_k_samples_with_a_warning(capsys):
    code, out, err = run(capsys, "cross-check", "--n", "3..3", "--k", "5",
                         "--max-runs", "6")
    assert code == 0
    assert "sampling" in err
    assert "k=5 sample (6 runs)" in out


def test_cross_check_zero_faults_exits_two(capsys):
    code, _, err = run(capsys, "cross-check", "--n", "3..3", "--k", "0")
    assert code == 2
    assert "at least one fault" in err
    # A budget below one run would judge nothing, or sample a default.
    for k in ("1", "2", "3"):
        for budget in ("0", "-1"):
            code, out, err = run(capsys, "cross-check", "--n", "4", "--k", k,
                                 "--max-runs", budget)
            assert code == 2, f"k={k} --max-runs {budget}"
            assert out == "" and "at least 1" in err and "sampling" not in err


def test_kfault_oracle_reports_gates_and_the_counter_budget(capsys):
    code, out, _ = run(capsys, "kfault-oracle",
                       "--scenario", str(FIXTURES / "single_fault.scn"))
    assert code == 0
    assert "counters in use: 9 (budget for k=1: 9)" in out
    assert "mismatches: 0" in out
    code, out, _ = run(capsys, "kfault-oracle",
                       "--scenario", str(FIXTURES / "cascade.scn"))
    assert code == 0
    assert "counters in use: 18 (budget for k=2: 18)" in out


def test_kfault_oracle_refuses_integration_runs(capsys):
    code, _, err = run(capsys, "kfault-oracle",
                       "--scenario", str(FIXTURES / "rejoin.scn"))
    assert code == 2
    assert "integrate" in err


def test_rejoin_scenario_simulates_to_a_restored_ring(capsys):
    code, out, _ = run(capsys, "simulate", "--tables",
                       "--scenario", str(FIXTURES / "rejoin.scn"))
    assert code == 0
    last_block = out.rstrip().rsplit("\n\n", 1)[-1]
    assert "s3       1011" in last_block and "in" in last_block


def test_the_reused_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    # One process, one parser: neither --tables nor --out of an earlier
    # call may reach a later one, nor may a usage error or --help.
    scn = str(FIXTURES / "single_fault.scn")
    golden = (FIXTURES / "single_fault_tables.txt").read_text()
    target = tmp_path / "tables.txt"
    assert run(capsys, "simulate", "--tables", "--out", str(target),
               "--scenario", scn) == (0, "", "")
    assert target.read_text() == golden
    target.unlink()

    code, trace, _ = run(capsys, "simulate", "--scenario", scn)
    assert code == 0 and trace.startswith("slot=0 owner=s0") and trace != golden
    code, part, _ = run(capsys, "partition", "--scenario", scn)
    assert code == 0 and "converged within two rounds: yes" in part
    code, oracle, _ = run(capsys, "kfault-oracle", "--scenario", scn)
    assert code == 0 and "mismatches: 0" in oracle
    code, out, usage_error = run(capsys, "simulate", "--tables")
    assert code == 2 and out == "" and "--scenario" in usage_error
    code, usage, _ = run(capsys, "--help")
    assert code == 0 and "simulate" in usage
    assert not target.exists()

    # Every call again, now that the parser has seen all of the above.
    assert run(capsys, "simulate", "--tables", "--scenario", scn) == (0, golden, "")
    assert run(capsys, "simulate", "--scenario", scn) == (0, trace, "")
    assert run(capsys, "partition", "--scenario", scn) == (0, part, "")
    assert run(capsys, "kfault-oracle", "--scenario", scn) == (0, oracle, "")
    assert run(capsys, "simulate", "--tables") == (2, "", usage_error)
    assert run(capsys, "--help") == (0, usage, "")
    assert not target.exists()


def test_usage_errors_exit_two_and_help_exits_zero(capsys):
    assert main(["bogus-verb"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
