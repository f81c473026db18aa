"""Tests for interval/exact protocols and the tiny busy-beaver enumeration."""

from __future__ import annotations

import os
import random

import pytest

from repro import verify_protocol
from repro.analysis.verification import verify_input
from repro.bounds import enumeration
from repro.bounds.enumeration import (
    MAX_WITNESSES,
    _decode,
    _index_threshold,
    _search_chunk,
    all_deterministic_protocols,
    busy_beaver_search,
    count_deterministic_protocols,
    fold_threshold_candidates,
    protocol_at,
    threshold_behaviour,
)
from repro.bounds.pipeline import section4_certificate
from repro.core.errors import ConfigurationError
from repro.core.protocol import support_closure
from repro.parallel import TaskEnvelope
from repro.protocols.intervals import (
    exact_predicate,
    exact_protocol,
    interval_predicate,
    interval_protocol,
    upper_bound_predicate,
    upper_bound_protocol,
)
from repro.protocols.leaders import leader_unary_threshold
from repro.protocols.leroux import leroux_leader_threshold
from repro.protocols.majority import majority_protocol
from repro.protocols.threshold_binary import binary_threshold


class TestIntervalProtocols:
    @pytest.mark.parametrize("low,high", [(2, 4), (3, 3), (1, 5)])
    def test_interval(self, low, high):
        protocol = interval_protocol(low, high)
        report = verify_protocol(protocol, interval_predicate(low, high), max_input_size=high + 3)
        assert report.ok, report.counterexample

    def test_exact(self):
        protocol = exact_protocol(4)
        report = verify_protocol(protocol, exact_predicate(4), max_input_size=7)
        assert report.ok

    @pytest.mark.parametrize("high", [2, 4])
    def test_upper_bound(self, high):
        protocol = upper_bound_protocol(high)
        report = verify_protocol(protocol, upper_bound_predicate(high), max_input_size=high + 3)
        assert report.ok

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            interval_protocol(5, 4)
        with pytest.raises(ValueError):
            interval_protocol(0, 4)
        with pytest.raises(ValueError):
            upper_bound_protocol(-1)

    def test_names(self):
        assert "interval" in interval_protocol(2, 3).name
        assert "exact" in exact_protocol(3).name


class TestEnumeration:
    def test_count_n1(self):
        protocols = list(all_deterministic_protocols(1))
        # 1 input choice * 2 outputs * 1 transition choice
        assert len(protocols) == 2

    def test_count_n2(self):
        protocols = list(all_deterministic_protocols(2))
        # 2 inputs * 4 outputs * 3^3 transition tables
        assert len(protocols) == 216

    def test_all_complete_and_deterministic(self):
        for protocol in all_deterministic_protocols(2):
            assert protocol.is_complete
            assert protocol.is_deterministic

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(all_deterministic_protocols(0))


class TestThresholdBehaviour:
    def test_recognises_threshold(self):
        protocol = binary_threshold(4)
        assert threshold_behaviour(protocol, max_input=8) == 4

    def test_trivial_protocol(self):
        protocol = binary_threshold(1)
        assert threshold_behaviour(protocol, max_input=6) == 2  # first input checked

    def test_non_threshold_rejected(self):
        from repro.protocols.builders import ProtocolBuilder

        oscillator = (
            ProtocolBuilder("oscillator")
            .state("p", output=0)
            .state("q", output=1)
            .rule("p", "p", "p", "q")
            .rule("p", "q", "p", "p")
            .input("x", "p")
            .build()
        )
        assert threshold_behaviour(oscillator, max_input=5) is None

    def test_parity_rejected(self):
        """A modulo protocol flips verdicts: not a threshold."""
        from repro.protocols.modulo import modulo_protocol

        parity = modulo_protocol({"x": 1}, 0, 2)
        assert threshold_behaviour(parity, max_input=6) is None


def _searched_behaviour(protocol, max_input):
    """The reference: ``threshold_behaviour`` as a loop over every input.

    Two exact ``verify_input`` checks per input and no shortcut; the
    decided-without-search path must agree with it on every protocol.
    """
    verdicts = []
    for i in range(2, max_input + 1):
        if verify_input(protocol, i, expected=1) is None:
            verdicts.append(1)
        elif verify_input(protocol, i, expected=0) is None:
            verdicts.append(0)
        else:
            return None
    first_accept = None
    for i, verdict in zip(range(2, max_input + 1), verdicts):
        if verdict == 1 and first_accept is None:
            first_accept = i
        if verdict == 0 and first_accept is not None:
            return None
    return first_accept


def _decidable_without_search(protocol):
    return len({protocol.output[s] for s in protocol.coverable_states()}) == 1


def _differential_cases():
    for max_input in (2, 5, 8):
        for protocol in all_deterministic_protocols(2):
            yield protocol, max_input
    rng = random.Random(14)
    for n, samples in ((3, 200), (4, 50)):
        total = count_deterministic_protocols(n)
        for _ in range(samples):
            yield protocol_at(n, rng.randrange(total)), 8
    yield leader_unary_threshold(3), 8
    yield leroux_leader_threshold(2), 8


class TestThresholdShortcut:
    """Deciding from the coverable outputs equals the full input loop."""

    def test_matches_the_searched_verdicts(self):
        decided_verdicts = set()
        decided = searched = 0
        for protocol, max_input in _differential_cases():
            expected = _searched_behaviour(protocol, max_input)
            assert threshold_behaviour(protocol, max_input) == expected, (
                protocol.name, max_input,
            )
            if _decidable_without_search(protocol):
                decided += 1
                decided_verdicts.add(expected)
            else:
                searched += 1
        # The sample exercises both paths, and both verdicts of the shortcut.
        assert decided > 100 and searched > 100
        assert decided_verdicts == {None, 2}

    def test_multi_input_protocols_still_raise(self):
        from repro.protocols.builders import ProtocolBuilder

        # Every coverable state outputs 1, but integer inputs stay undefined.
        unanimous = (
            ProtocolBuilder("two-input unanimous")
            .state("a", output=1)
            .state("b", output=1)
            .rule("a", "b", "a", "a")
            .input("x", "a")
            .input("y", "b")
            .build()
        )
        for protocol in (unanimous, majority_protocol()):
            with pytest.raises(ConfigurationError):
                threshold_behaviour(protocol, max_input=4)

    def test_below_the_first_input_is_none(self):
        always_accepts = protocol_at(1, 1)  # one state, output 1
        assert threshold_behaviour(always_accepts, max_input=2) == 2
        assert threshold_behaviour(always_accepts, max_input=1) is None


class TestBusyBeaverSearch:
    def test_bb1_is_trivial(self):
        result = busy_beaver_search(1, max_input=6)
        assert result.eta == 2
        assert result.protocols_enumerated == 2
        assert result.certified

    def test_bb2_exhaustive(self):
        """The headline tiny-n result: no 2-state protocol separates
        inputs below 3 from inputs above — BB(2) = 2 (bounded check)."""
        result = busy_beaver_search(2, max_input=8)
        assert result.protocols_enumerated == 216
        assert result.eta == 2
        assert result.witnesses
        assert result.certified

    def test_witnesses_actually_behave(self):
        result = busy_beaver_search(2, max_input=8)
        for witness in result.witnesses:
            assert threshold_behaviour(witness, max_input=8) == result.eta


def _index_sample(n, per_block, seed):
    """Indices that cover every input state and every output block."""
    post_block = count_deterministic_protocols(n) // (n * 2**n)
    rng = random.Random(seed)
    for block in range(n * 2**n):  # input state outermost, then the output bits
        for _ in range(per_block):
            yield block * post_block + rng.randrange(post_block)


def _index_cases():
    for n in (1, 2):
        for index in range(count_deterministic_protocols(n)):
            yield n, index
    for n, per_block in ((3, 6), (4, 2)):
        for index in _index_sample(n, per_block, seed=26):
            yield n, index


class TestIndexDecision:
    """The search decides an index from its decoded form, as the protocol would be."""

    def test_verdict_equals_the_protocol_path(self):
        decided = {3: 0, 4: 0}
        searched = {3: 0, 4: 0}
        for n, index in _index_cases():
            protocol = protocol_at(n, index)
            input_state, outputs, transitions = _decode(n, index)
            assert outputs == tuple(protocol.output[s] for s in protocol.states)
            assert support_closure((input_state,), transitions) == protocol.coverable_states()
            for max_input in (1, 2, 8):
                assert _index_threshold(n, index, max_input) == threshold_behaviour(
                    protocol, max_input
                ), (n, index, max_input)
            if n in decided:
                tally = decided if _decidable_without_search(protocol) else searched
                tally[n] += 1
        # The samples take both paths at both sizes.
        assert min(decided.values()) > 10 and min(searched.values()) > 10

    def test_decided_indices_are_never_built(self, monkeypatch):
        built = []

        def spy(n, index):
            built.append(index)
            return protocol_at(n, index)

        monkeypatch.setattr(enumeration, "protocol_at", spy)
        # `bb 3 --budget 8000`: the rule decides every index, none accepts.
        chunk = _search_chunk(TaskEnvelope(index=0, payload=(3, 0, 8000, 8)))
        assert (chunk.best_eta, chunk.threshold_protocols, chunk.witnesses) == (0, 0, ())
        assert built == []
        # n = 2: the undecided indices and the kept witnesses are built.
        chunk = _search_chunk(TaskEnvelope(index=0, payload=(2, 0, 216, 8)))
        undecided = [
            i for i in range(216) if not _decidable_without_search(protocol_at(2, i))
        ]
        witnesses = [int(w.name.split("#")[1]) - 1 for w in chunk.witnesses]
        assert built == undecided + witnesses

    def test_window_equals_the_protocol_fold(self):
        """A window of the n = 3 space that holds searched protocols and winners."""
        start, stop = 55000, 56000
        chunk = _search_chunk(TaskEnvelope(index=0, payload=(3, start, stop, 8)))
        protocols = [protocol_at(3, index) for index in range(start, stop)]
        best, witnesses, count = fold_threshold_candidates(
            ((p, threshold_behaviour(p, 8)) for p in protocols), MAX_WITNESSES
        )
        assert (chunk.best_eta, chunk.witnesses, chunk.threshold_protocols) == (
            best, witnesses, count,
        )
        assert (best, count, len(witnesses)) == (3, 27, 8)
        assert witnesses[0].name == "enum[3]#55188"


class TestFirstNontrivialBusyBeaver:
    """A2's finding: ``x >= 3`` is the first non-trivial threshold, and 3 states decide it."""

    def test_binary_threshold_2_is_trivial(self):
        protocol = binary_threshold(2)
        assert protocol.num_states == 3
        # x >= 2 holds on every population: the always-true predicate.
        assert threshold_behaviour(protocol, max_input=8) == 2

    def test_enum_3_55188_decides_x_at_least_3(self):
        protocol = protocol_at(3, 55187)  # names are 1-based, indices 0-based
        assert protocol.name == "enum[3]#55188"
        assert threshold_behaviour(protocol, max_input=8) == 3
        assert threshold_behaviour(protocol, max_input=16) == 3
        certificate = section4_certificate(protocol, max_length=12)
        assert certificate is not None and certificate.a == 3

    def test_a2_cites_it(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "EXPERIMENTS.md")) as handle:
            experiments = handle.read()
        a2 = experiments[experiments.index("## A2"):]
        a2 = a2[: a2.index("\n## ")]
        with open(os.path.join(root, "benchmarks", "bench_a2_enumeration.py")) as handle:
            bench = handle.read()
        for text in (a2, bench):
            assert "enum[3]#55188" in text
