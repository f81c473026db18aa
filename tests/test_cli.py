"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main, resolve_protocol


class TestResolveProtocol:
    def test_builtin_binary(self):
        protocol = resolve_protocol("binary:6")
        assert "binary_threshold" in protocol.name

    def test_builtin_majority(self):
        assert resolve_protocol("majority").num_states == 4

    def test_builtin_modulo(self):
        protocol = resolve_protocol("modulo:1:3")
        assert protocol.num_states == 5

    def test_builtin_leaders(self):
        assert not resolve_protocol("leader-unary:3").is_leaderless
        assert not resolve_protocol("leader-binary:3").is_leaderless

    def test_builtin_election(self):
        assert resolve_protocol("election").num_states == 2

    def test_builtin_linear(self):
        protocol = resolve_protocol("linear:x - y >= 1")
        assert protocol.is_leaderless

    def test_json_file(self, tmp_path):
        from repro import binary_threshold
        from repro.io import dumps

        path = tmp_path / "p.json"
        path.write_text(dumps(binary_threshold(3)))
        protocol = resolve_protocol(str(path))
        assert protocol.num_states == 4

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            resolve_protocol("nonsense:1")

    def test_bad_argument(self):
        with pytest.raises(SystemExit):
            resolve_protocol("binary:zero")


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe", "binary:4"]) == 0
        out = capsys.readouterr().out
        assert "binary_threshold" in out and "transitions" in out

    def test_verify_ok(self, capsys):
        assert main(["verify", "binary:4", "x >= 4", "--max-input", "7"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_failure_exit_code(self, capsys):
        assert main(["verify", "binary:4", "x >= 5", "--max-input", "7"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "majority", "--input", "x=20,y=5", "--seed", "3", "--max-steps", "100000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consensus output: 1" in out

    def test_simulate_bare_count(self, capsys):
        code = main(["simulate", "binary:3", "--input", "5", "--seed", "1"])
        assert code == 0
        assert "consensus output: 1" in capsys.readouterr().out

    def test_simulate_bad_input(self):
        with pytest.raises(SystemExit):
            main(["simulate", "majority", "--input", "x=oops"])

    def test_certify_section4(self, capsys):
        assert main(["certify", "binary:4", "--section", "4"]) == 0
        assert "eta <= 4" in capsys.readouterr().out

    def test_certify_section5(self, capsys):
        assert main(["certify", "binary:2", "--section", "5"]) == 0
        assert "eta <=" in capsys.readouterr().out

    def test_dot(self, capsys):
        assert main(["dot", "binary:4"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_compile_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "alarm.json"
        code = main(["compile", "x >= 3 and x = 1 (mod 2)", "--trim", "-o", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["format"] == 1
        assert main(["verify", str(target), "x >= 3 and x = 1 (mod 2)", "--max-input", "7"]) == 0

    def test_compile_to_stdout(self, capsys):
        assert main(["compile", "x >= 2"]) == 0
        out = capsys.readouterr().out
        assert '"format": 1' in out

    def test_conformance_passes(self, capsys):
        code = main(["conformance", "majority", "--samples", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        assert "agent-list" in out and "count" in out and "vector" in out

    def test_conformance_rejects_zero_samples(self):
        # regression: samples=0 used to render a vacuous all-ok report
        # with dof = -1 instead of failing fast
        with pytest.raises(SystemExit):
            main(["conformance", "majority", "--samples", "0"])

    def test_conformance_json(self, capsys):
        code = main(["conformance", "binary:4", "--input", "6", "--samples", "400", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {r["scheduler"] for r in payload["first_step"]} == {
            "agent-list", "count", "vector",
        }


class TestBusyBeaverArguments:
    """`repro bb` rejects out-of-range flags at parse time with exit 2.

    Regression: --max-witnesses 0/-1 printed one witness anyway, and
    --max-witnesses 9, --budget -5 and --chunk-size 0 died with a
    ValueError traceback.
    """

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-witnesses", "0"),
            ("--max-witnesses", "-1"),
            ("--max-witnesses", "9"),
            ("--budget", "-5"),
            ("--chunk-size", "0"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["bb", "2", flag, value, "--json"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be" in captured.err

    def test_zero_budget_keeps_the_historical_tally(self, capsys):
        assert main(["bb", "2", "--budget", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocols_enumerated"] == 1
        assert payload["witnesses"] == []

    def test_max_witnesses_bounds_are_accepted(self, capsys):
        for cap, expected in (("1", 1), ("8", 8)):
            assert main(["bb", "2", "--max-witnesses", cap, "--json"]) == 0
            assert len(json.loads(capsys.readouterr().out)["witnesses"]) == expected


class TestMaxInputBound:
    """`--max-input` below 2 is a usage error (exit 2): a population
    needs two agents.

    Regression: `verify ... --max-input 1` printed `OK` over zero
    inputs, `bb 2 --max-input -1` reported no threshold protocol and
    `analyze ... --max-input -2` printed an empty convergence table,
    all with exit 0.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "binary:4", "x >= 4", "--max-input", "1"],
            ["bb", "2", "--max-input", "-1"],
            ["analyze", "binary:4", "--max-input", "-2"],
        ],
        ids=["verify", "bb", "analyze"],
    )
    def test_below_two_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-input: must be >= 2" in captured.err

    def test_two_is_accepted(self, capsys):
        assert main(["verify", "binary:2", "x >= 2", "--max-input", "2"]) == 0
        assert "OK" in capsys.readouterr().out


class TestNumericFlagRanges:
    """Numeric flags below their range are usage errors (exit 2).

    Regression: `certify --max-input 1` searched nothing and printed
    `no certificate found`, `conformance --trajectory-seeds 0` checked
    no seed and printed `overall: PASS`, `conformance --max-steps 0`
    ended in a traceback, and `analyze --node-budget -5` reported
    `exceeded -5 configurations` in every section with exit 0.
    `simulate --max-steps`/`--trials`, `conformance --samples` and the
    `bb` state count were checked in their handlers and exited 1.
    """

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["certify", "binary:4", "--max-input", "1"], "--max-input: must be >= 2"),
            (
                ["certify", "binary:4", "--section", "5", "--max-input", "-3"],
                "--max-input: must be >= 2",
            ),
            (
                ["conformance", "binary:4", "--trajectory-seeds", "0"],
                "--trajectory-seeds: must be >= 1",
            ),
            (["conformance", "binary:4", "--max-steps", "0"], "--max-steps: must be >= 1"),
            (["analyze", "binary:4", "--node-budget", "-5"], "--node-budget: must be >= 1"),
            (
                ["simulate", "binary:4", "--input", "6", "--max-steps", "0"],
                "--max-steps: must be >= 1",
            ),
            (
                ["simulate", "binary:4", "--input", "6", "--trials", "-2"],
                "--trials: must be >= 1",
            ),
            (["conformance", "binary:4", "--samples", "0"], "--samples: must be >= 1"),
            (["bb", "0"], "states: must be >= 1"),
        ],
        ids=[
            "certify-max-input",
            "certify-section5-max-input",
            "conformance-trajectory-seeds",
            "conformance-max-steps",
            "analyze-node-budget",
            "simulate-max-steps",
            "simulate-trials",
            "conformance-samples",
            "bb-states",
        ],
    )
    def test_below_range_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert line.startswith(f"repro {argv[0]}: error: argument {message}")


class TestArgumentMistakes:
    """Predicate and input mistakes end in one `error:` line, exit 1.

    Regression: a malformed predicate or a one-agent `simulate` input
    ended in a traceback, and `verify binary:4 "y >= 4"` answered
    `FAIL on input (4*x)` for a variable the protocol has no input for.
    """

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "binary:10", "x >="], "error: predicate 'x >='"),
            (["analyze", "binary:4", "x >="], "error: predicate 'x >='"),
            (["compile", "x >="], "error: predicate 'x >='"),
            (["verify", "binary:4", "y >= 4"], "has no input y"),
            (["analyze", "binary:4", "y >= 4"], "has no input y"),
            (["simulate", "binary:4", "--input", "1"], "at least two agents"),
        ],
        ids=[
            "verify-syntax",
            "analyze-syntax",
            "compile-syntax",
            "verify-unknown-variable",
            "analyze-unknown-variable",
            "simulate-one-agent",
        ],
    )
    def test_one_error_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code.startswith("error: ")
        assert message in excinfo.value.code
        assert capsys.readouterr().out == ""

    def test_error_line_exits_one(self):
        done = _run_cli(["verify", "binary:4", "y >= 4"])
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.strip().splitlines() == [
            "error: predicate 'y >= 4': binary_threshold(eta=4) has no input y "
            "(its inputs: x)"
        ]


def _run_cli(argv):
    """``python -m repro ARGV`` in a subprocess, runs and cache off."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, REPRO_NO_RUNS="1", REPRO_NO_CACHE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True, text=True, env=env
    )


class TestEscapedReproErrors:
    """A `ReproError` escaping a handler ends in one `error:` line, exit 1.

    Regression: each of these commands ended in a Python traceback.
    """

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["certify", "majority"], "expected a single input variable"),
            (["certify", "approx-majority"], "expected a single input variable"),
            (["certify", "leader-unary:3", "--section", "5"], "leaderless"),
            (["conformance", "binary:4", "--input", "1"], "at least two agents"),
            (["conformance", "binary:4", "--input", "y=5"], "unknown input variables"),
        ],
        ids=[
            "certify-majority",
            "certify-approx-majority",
            "certify-leaders-section5",
            "conformance-one-agent",
            "conformance-unknown-variable",
        ],
    )
    def test_one_error_line(self, argv, message):
        done = _run_cli(argv)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.strip().splitlines()
        assert line.startswith("error: ")
        assert message in line


class TestRepeatedInputVariable:
    """Regression: `--input x=3,x=4` silently ran a 4-agent input."""

    @pytest.mark.parametrize("command", ["simulate", "conformance"])
    def test_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "binary:4", "--input", "x=3,x=4"])
        assert excinfo.value.code == "error: input variable 'x' assigned twice in 'x=3,x=4'"
        assert capsys.readouterr().out == ""
