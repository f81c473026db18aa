"""Hypothesis strategies for property-based testing of protocol code.

Downstream users building on this library can property-test their own
analyses with the same generators our suite uses::

    from hypothesis import given
    from repro.testing import protocols, configurations

    @given(protocols(), configurations())
    def test_my_analysis(protocol, config):
        ...

All strategies are importable without hypothesis installed only if
never called (the import is deferred).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .core.multiset import Multiset
from .core.protocol import PopulationProtocol, Transition

__all__ = [
    "protocols",
    "configurations",
    "inputs_for",
    "partitions",
    "renamings",
    "count_matrices",
    "instrumentation_snapshots",
]

_DEFAULT_STATES: Tuple[str, ...] = ("s0", "s1", "s2", "s3")


def protocols(max_states: int = 3, states: Sequence[str] = _DEFAULT_STATES):
    """A strategy generating complete deterministic random protocols.

    Single input variable ``x``; between 2 and ``max_states`` states.
    """
    import hypothesis.strategies as st

    if not 2 <= max_states <= len(states):
        raise ValueError(f"max_states must be in [2, {len(states)}]")

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_states))
        chosen = tuple(states[:n])
        pairs = [(chosen[i], chosen[j]) for i in range(n) for j in range(i, n)]
        transitions = []
        for p, q in pairs:
            p2 = draw(st.sampled_from(chosen))
            q2 = draw(st.sampled_from(chosen))
            transitions.append(Transition(p, q, p2, q2))
        outputs = {s: draw(st.integers(0, 1)) for s in chosen}
        input_state = draw(st.sampled_from(chosen))
        return PopulationProtocol(
            states=chosen,
            transitions=tuple(transitions),
            leaders=Multiset(),
            input_mapping={"x": input_state},
            output=outputs,
            name="random",
        )

    return build()


def configurations(states: Sequence[str] = _DEFAULT_STATES, max_size: int = 8):
    """A strategy generating configurations (natural, size >= 2)."""
    import hypothesis.strategies as st

    return (
        st.dictionaries(st.sampled_from(list(states)), st.integers(0, max_size), min_size=1)
        .map(Multiset)
        .filter(lambda m: m.size >= 2)
    )


def inputs_for(protocol: PopulationProtocol, max_size: int = 8):
    """A strategy generating valid inputs for a given protocol."""
    import hypothesis.strategies as st

    variables = list(protocol.input_mapping)
    minimum = max(0, 2 - protocol.leaders.size)
    return (
        st.dictionaries(st.sampled_from(variables), st.integers(0, max_size))
        .map(Multiset)
        .filter(lambda m: m.size >= minimum and m.size >= 1)
    )


def partitions(total: int, max_chunk: int = None):
    """A strategy generating contiguous ``[start, stop)`` partitions of ``range(total)``.

    Every drawn value covers ``range(total)`` exactly — the shape the
    parallel backend's chunked work distribution produces — but with
    arbitrary (not necessarily equal) chunk widths, so merge code is
    exercised on every boundary layout, not just the even split.
    """
    import hypothesis.strategies as st

    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    limit = total if max_chunk is None else max_chunk

    @st.composite
    def build(draw):
        cuts = [0]
        while cuts[-1] < total:
            width = draw(st.integers(1, max(1, min(limit, total - cuts[-1]))))
            cuts.append(cuts[-1] + width)
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]

    return build()


def renamings(protocol: PopulationProtocol, fresh: bool = None):
    """A strategy generating state renamings of ``protocol``.

    Every drawn value is a dict mapping *each* state to a distinct
    target, suitable for :meth:`PopulationProtocol.renamed`.  Two
    flavours are drawn (or forced via ``fresh``):

    * ``fresh=True`` — targets are brand-new names ``r0, r1, ...``
      assigned in a shuffled order, so the renamed protocol shares no
      state names with the original;
    * ``fresh=False`` — targets are a permutation of the existing
      state names, so the renamed protocol lives on the same state set.

    Used by the cache fingerprint, symmetry and minimisation suites:
    any analysis claiming renaming-invariance should survive both.
    """
    import hypothesis.strategies as st

    states = list(protocol.states)

    @st.composite
    def build(draw):
        use_fresh = draw(st.booleans()) if fresh is None else fresh
        shuffled = draw(st.permutations(states))
        if use_fresh:
            return {state: f"r{i}" for i, state in enumerate(shuffled)}
        return dict(zip(states, shuffled))

    return build()


def count_matrices(
    n_states: int,
    max_trials: int = 6,
    max_count: int = 30,
    min_population: int = 0,
):
    """A strategy generating ``(trials, n_states)`` int64 count matrices.

    The struct-of-arrays shape of the vectorised ensemble engine: one
    row per trial, one column per protocol state, non-negative counts.
    Row populations are *not* equalised — per-row predicates (silence,
    consensus verdicts) must hold for arbitrary configurations, and the
    degenerate rows (empty, single-agent, single-state) are exactly the
    ones worth generating.  ``min_population`` filters rows whose total
    falls below it, for properties that need inhabited configurations.
    """
    import hypothesis.strategies as st
    import numpy as np

    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")

    row = st.lists(
        st.integers(0, max_count), min_size=n_states, max_size=n_states
    ).filter(lambda r: sum(r) >= min_population)

    return st.lists(row, min_size=1, max_size=max_trials).map(
        lambda rows: np.array(rows, dtype=np.int64)
    )


def instrumentation_snapshots(max_entries: int = 4):
    """A strategy generating counter maps, as ``Instrumentation.snapshot``
    returns them and worker envelopes ship them.

    Counter names come from a small shared alphabet so merges actually
    collide; counts stay small non-negative integers.
    """
    import hypothesis.strategies as st

    names = st.sampled_from(["interactions", "silent_checks", "runs", "steps", "probes"])
    return st.dictionaries(names, st.integers(0, 1000), max_size=max_entries)
