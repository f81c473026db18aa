"""Tests for the command-line interface."""

from __future__ import annotations

import json

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
