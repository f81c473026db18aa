"""Exhaustive protocol enumeration: tiny-``n`` busy beaver experiments.

``BB(n)`` quantifies over *all* protocols with ``n`` states — a
doubly-exponential space (already ~10^6 deterministic protocols at
``n = 3``), which is why the paper attacks it with structural bounds
rather than search.  For ``n <= 2``, though, the space is enumerable,
and so are windows of the ``n = 3`` space; this module does so:

* :func:`all_deterministic_protocols` — every complete deterministic
  single-input protocol over ``n`` states (up to the choice of input
  state and output assignment);
* :func:`protocol_at` / :func:`count_deterministic_protocols` — random
  access into the same enumeration by mixed-radix index decoding, so a
  worker can regenerate any contiguous chunk without replaying the
  whole stream (the substrate of the parallel search);
* :func:`threshold_behaviour` — the verdict pattern of a protocol over
  inputs ``2 .. max_input``; returns the threshold it *appears* to
  compute, or ``None`` for non-threshold behaviour (no consensus, or a
  non-monotone verdict pattern).  A single-input protocol whose
  coverable states (:meth:`PopulationProtocol.coverable_states`) all
  share one output ``b`` is decided without any reachability search:
  every configuration reachable from any ``IC(i)`` populates only
  coverable states, so it is a ``b``-consensus, and so is every bottom
  SCC — the protocol rejects every input (``b = 0``) or accepts every
  input (``b = 1``, threshold 2).  Such protocols are common (144 of
  the 216 at ``n = 2``) and never raise
  :class:`~repro.core.errors.SearchBudgetExceeded`;
* :func:`busy_beaver_search` — the largest apparent threshold over the
  enumeration, with every winner cross-examined by a Section 4
  pumping certificate.  A chunk decides each index before it builds
  anything: it decodes the index into its input state, outputs and
  transitions, applies the coverable-output rule to that decoded form
  (:func:`~repro.core.protocol.support_closure`), and calls
  :func:`protocol_at` only for an index the rule leaves undecided and
  for the witnesses it keeps — the same verdicts as
  :func:`threshold_behaviour` on the built protocol, without a
  :class:`PopulationProtocol` per index.  ``jobs > 1`` distributes
  contiguous chunks of the index space over a process pool; chunk
  outcomes merge in index order, so the result is bit-identical for
  every worker count and chunk size (enforced by
  ``tests/test_parallel.py``).

Semantics note: a population has at least two agents, so the
predicates ``x >= 1`` and ``x >= 2`` are indistinguishable from the
always-true predicate on valid inputs; the trivial always-accepting
protocol therefore already witnesses ``BB(n) >= 2`` for every ``n``.
The interesting question starts at ``eta = 3`` — and the ``n = 2``
search answers it exhaustively (within the stated input bound; a full
unbounded-correctness proof would need parameterised verification,
which is beyond this module's scope and flagged in the result).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, Transition, support_closure
from ..analysis.verification import verify_input
from ..obs import get_tracer, progress
from ..parallel import TaskEnvelope, chunk_ranges, default_chunk_size, run_tasks
from .pipeline import section4_certificate

__all__ = [
    "all_deterministic_protocols",
    "count_deterministic_protocols",
    "protocol_at",
    "threshold_behaviour",
    "busy_beaver_search",
    "BusyBeaverSearchResult",
    "BusyBeaverChunk",
    "fold_threshold_candidates",
    "merge_busy_beaver_chunks",
    "MAX_WITNESSES",
]


def count_deterministic_protocols(n: int) -> int:
    """``n * 2^n * (n(n+1)/2)^(n(n+1)/2)`` — the exact enumeration size."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pairs = n * (n + 1) // 2
    return n * (2 ** n) * (pairs ** pairs)


def protocol_at(n: int, index: int) -> PopulationProtocol:
    """The ``index``-th protocol of :func:`all_deterministic_protocols`.

    Builds the protocol :func:`_decode` reads off the index, so
    ``protocol_at(n, i) == nth element of all_deterministic_protocols(n)``
    including the ``enum[n]#i+1`` name.  O(n^2) per call: chunk workers
    regenerate their slice without replaying the prefix.
    """
    input_state, outputs, transitions = _decode(n, index)
    states = tuple(range(n))
    return PopulationProtocol(
        states=states,
        transitions=transitions,
        leaders=Multiset(),
        input_mapping={"x": input_state},
        output=dict(zip(states, outputs)),
        name=f"enum[{n}]#{index + 1}",
    )


def _decode(n: int, index: int) -> Tuple[int, Tuple[int, ...], Tuple[Transition, ...]]:
    """``(input state, outputs, transitions)`` of the ``index``-th protocol.

    Decodes the index through the same nested-loop order
    :func:`all_deterministic_protocols` uses: input state outermost, then
    the output assignment (first state's bit most significant), then one
    post-pair per pre-pair in mixed radix (last pair varying fastest).
    """
    total = count_deterministic_protocols(n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside enumeration of size {total}")
    table = _transition_table(n)
    k = len(table)
    post_block = k ** k
    output_block = post_block * (2 ** n)
    input_state, rest = divmod(index, output_block)
    output_bits, posts_code = divmod(rest, post_block)
    outputs = tuple((output_bits >> (n - 1 - i)) & 1 for i in range(n))
    transitions = [None] * k
    for pair in reversed(range(k)):  # last pre-pair varies fastest: decode it first
        posts_code, choice = divmod(posts_code, k)
        transitions[pair] = table[pair][choice]
    return input_state, outputs, tuple(transitions)


@functools.lru_cache(maxsize=8)
def _transition_table(n: int) -> Tuple[Tuple[Transition, ...], ...]:
    """``table[i][j]``: the transition taking the ``i``-th pre-pair to the ``j``-th pair.

    Pairs are the unordered pairs over ``0 .. n-1`` in
    ``combinations_with_replacement`` order.  :func:`_decode` picks one
    row entry per pre-pair instead of building its ``Transition``
    objects; they are frozen, so every protocol can share them.
    """
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    return tuple(tuple(Transition(p, q, *post) for post in pairs) for p, q in pairs)


def all_deterministic_protocols(n: int) -> Iterator[PopulationProtocol]:
    """Yield every complete deterministic protocol with ``n`` states.

    States are ``0 .. n-1``; all choices of input state, output
    assignment, and one post-pair per unordered pre-pair are generated.
    The count is :func:`count_deterministic_protocols` — use only for
    tiny ``n``.  :func:`protocol_at` is the random-access view of the
    same sequence (cross-checked in the test suite).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    states = tuple(range(n))
    pairs = list(itertools.combinations_with_replacement(states, 2))
    post_choices = pairs  # unordered post pairs
    counter = 0
    for input_state in states:
        for outputs in itertools.product((0, 1), repeat=n):
            for posts in itertools.product(post_choices, repeat=len(pairs)):
                transitions = tuple(
                    Transition(p, q, p2, q2)
                    for (p, q), (p2, q2) in zip(pairs, posts)
                )
                counter += 1
                yield PopulationProtocol(
                    states=states,
                    transitions=transitions,
                    leaders=Multiset(),
                    input_mapping={"x": input_state},
                    output={s: b for s, b in zip(states, outputs)},
                    name=f"enum[{n}]#{counter}",
                )


def threshold_behaviour(
    protocol: PopulationProtocol,
    max_input: int,
    node_budget: int = 100_000,
) -> Optional[int]:
    """The threshold the protocol's verdicts trace out, if any.

    Computes the exact fairness verdict for every input ``2 ..
    max_input``.  The pattern must be ``0^j 1^k`` with ``k >= 1``
    (rejecting a prefix, then accepting forever within the bound); the
    returned value is the first accepted input.  ``None`` when some
    input has no consensus, the pattern is non-monotone, or every input
    is rejected (the threshold, if any, lies beyond the bound).

    A single-input protocol whose coverable states all output the same
    ``b`` is decided before any search.  Every configuration reachable
    from ``IC(i)`` populates coverable states only, so every bottom SCC
    is a ``b``-consensus and the verdict is ``b`` for every input: the
    result is ``2`` for ``b = 1`` and ``None`` for ``b = 0``, exactly
    what the per-input loop returns, but without building a graph — so
    a decided protocol never raises ``SearchBudgetExceeded``.  Other
    protocols (several input variables, ``max_input < 2``, coverable
    states of both outputs) take the loop of two ``verify_input`` calls
    per input.
    """
    if max_input >= 2 and len(protocol.input_mapping) == 1:
        decided, eta = _coverable_output_rule(
            protocol.output[state] for state in protocol.coverable_states()
        )
        if decided:
            return eta
    verdicts: List[int] = []
    for i in range(2, max_input + 1):
        # verdict = the consensus all bottom SCCs agree on, else None
        if verify_input(protocol, i, expected=1, node_budget=node_budget) is None:
            verdicts.append(1)
        elif verify_input(protocol, i, expected=0, node_budget=node_budget) is None:
            verdicts.append(0)
        else:
            return None
    first_accept: Optional[int] = None
    for i, verdict in zip(range(2, max_input + 1), verdicts):
        if verdict == 1 and first_accept is None:
            first_accept = i
        if verdict == 0 and first_accept is not None:
            return None  # flipped back: not a threshold
    return first_accept


def _coverable_output_rule(coverable_outputs: Iterable[int]) -> Tuple[bool, Optional[int]]:
    """``(True, threshold)`` when every coverable state has one output.

    The rule :func:`threshold_behaviour` applies before any search: the
    threshold is ``2`` when that output is ``1`` and ``None`` when it is
    ``0``.  ``(False, None)`` when the outputs differ.
    """
    outputs = set(coverable_outputs)
    if len(outputs) != 1:
        return False, None
    return True, (2 if outputs == {1} else None)


def _index_threshold(n: int, index: int, max_input: int) -> Optional[int]:
    """``threshold_behaviour(protocol_at(n, index), max_input)``, built lazily.

    The coverable-output rule runs on the decoded index, so the protocol
    is built only when the rule leaves it undecided.
    """
    if max_input >= 2:
        input_state, outputs, transitions = _decode(n, index)
        decided, eta = _coverable_output_rule(
            outputs[state] for state in support_closure((input_state,), transitions)
        )
        if decided:
            return eta
    return threshold_behaviour(protocol_at(n, index), max_input)


@dataclass(frozen=True)
class BusyBeaverSearchResult:
    """Outcome of :func:`busy_beaver_search`.

    ``eta`` is the largest apparent threshold (``>= 2``; the trivial
    always-true protocols witness 2); ``witnesses`` holds protocols
    attaining it; ``certified`` tells whether a Section 4 certificate
    bounding the winners' thresholds by some ``a <= checked_up_to``
    was found (bounded evidence — see module docstring).
    """

    n: int
    eta: int
    witnesses: Tuple[PopulationProtocol, ...]
    protocols_enumerated: int
    threshold_protocols: int
    checked_up_to: int
    certified: bool


@dataclass(frozen=True)
class BusyBeaverChunk:
    """One chunk's contribution: picklable, merged in index order."""

    start: int
    stop: int
    best_eta: int
    witnesses: Tuple[PopulationProtocol, ...]
    threshold_protocols: int


_T = TypeVar("_T")


def fold_threshold_candidates(
    candidates: Iterable[Tuple[_T, Optional[int]]],
    max_witnesses: int,
) -> Tuple[int, Tuple[_T, ...], int]:
    """The serial busy-beaver fold over ``(item, eta)`` candidates.

    Returns ``(best_eta, witnesses, threshold_count)`` with the exact
    running-maximum semantics of the original search loop: a new best
    resets the witness list, ties append up to ``max_witnesses``.  Both
    the chunk workers and the merge step reuse this one fold, which is
    what makes chunking associative (property-tested in the suite).
    """
    best = 0
    witnesses: List[_T] = []
    count = 0
    for item, eta in candidates:
        if eta is None:
            continue
        count += 1
        if eta > best:
            best = eta
            witnesses = [item]
        elif eta == best and len(witnesses) < max_witnesses:
            witnesses.append(item)
    return best, tuple(witnesses), count


def merge_busy_beaver_chunks(
    chunks: Sequence[BusyBeaverChunk], max_witnesses: int
) -> Tuple[int, Tuple[PopulationProtocol, ...], int]:
    """Merge chunk outcomes in index order; equals the unpartitioned fold.

    A chunk's witnesses are the first ``<= max_witnesses`` protocols of
    its own best ``eta`` in enumeration order, so replaying them as
    candidates through :func:`fold_threshold_candidates` reconstructs
    exactly the witnesses the serial loop would have kept — a chunk
    whose best falls short of the global best contributes nothing, a
    chunk that raises it resets the list, ties fill remaining slots.
    """
    best, witnesses, _ = fold_threshold_candidates(
        (
            (witness, chunk.best_eta)
            for chunk in chunks
            for witness in chunk.witnesses
        ),
        max_witnesses,
    )
    return best, witnesses, sum(chunk.threshold_protocols for chunk in chunks)


def _search_chunk(task: TaskEnvelope) -> BusyBeaverChunk:
    """Worker body: evaluate one contiguous index range."""
    n, start, stop, max_input = task.payload
    with get_tracer().span(
        "bounds.busy_beaver.chunk", n=n, start=start, stop=stop
    ) as span:
        evaluated = 0
        meter = progress(
            "busy-beaver",
            lambda: {"chunk": f"{start}:{stop}", "enumerated": evaluated},
        )

        def candidates() -> Iterator[Tuple[int, Optional[int]]]:
            nonlocal evaluated
            for index in range(start, stop):
                meter.tick()
                evaluated += 1
                yield index, _index_threshold(n, index, max_input)

        best, winners, count = fold_threshold_candidates(
            candidates(),
            # Chunks keep the full witness budget: the merge step cuts
            # down to max_witnesses globally, in enumeration order.
            max_witnesses=MAX_WITNESSES,
        )
        meter.finish()
        # The enclosing bounds.busy_beaver span counts the protocols.
        span.set(best_eta=best)
    return BusyBeaverChunk(
        start=start, stop=stop, best_eta=best,
        witnesses=tuple(protocol_at(n, index) for index in winners),
        threshold_protocols=count,
    )


#: Witnesses a chunk retains, and so the largest ``max_witnesses`` a
#: search accepts: the global merge must never miss an in-order witness.
MAX_WITNESSES = 8


def busy_beaver_search(
    n: int,
    max_input: int = 8,
    max_witnesses: int = 3,
    enumeration_budget: int = 1_000_000,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> BusyBeaverSearchResult:
    """Exhaustive bounded busy-beaver search over ``n``-state protocols.

    Returns the largest threshold witnessed by any enumerated protocol
    (verdicts exact per input up to ``max_input``).  Winners get a
    Section 4 pumping certificate as corroboration that their true
    threshold cannot exceed the observed one.

    ``jobs > 1`` partitions the index space into contiguous chunks
    (``chunk_size`` indices each; a load-balanced default otherwise)
    evaluated on a process pool; the merged result is identical to the
    serial one for every ``jobs``/``chunk_size`` combination.
    """
    if not 1 <= max_witnesses <= MAX_WITNESSES:
        raise ValueError(
            f"max_witnesses must be in 1..{MAX_WITNESSES}, got {max_witnesses}"
        )
    total = count_deterministic_protocols(n)
    evaluated = min(total, enumeration_budget)
    # The historical loop broke *after* counting the first over-budget
    # protocol; reproduce its reported tally exactly.
    enumerated = evaluated if total <= enumeration_budget else enumeration_budget + 1
    if chunk_size is None:
        chunk_size = default_chunk_size(evaluated, jobs)
    ranges = chunk_ranges(evaluated, chunk_size) if evaluated else []

    tracer = get_tracer()
    with tracer.span(
        "bounds.busy_beaver",
        n=n,
        max_input=max_input,
        budget=enumeration_budget,
        jobs=jobs,
        chunks=len(ranges),
    ) as span:
        envelopes = run_tasks(
            _search_chunk,
            [(n, start, stop, max_input) for start, stop in ranges],
            jobs=jobs,
            label="busy-beaver",
        )
        chunks = [envelope.value for envelope in envelopes]
        best_eta, witnesses, threshold_count = merge_busy_beaver_chunks(
            chunks, max_witnesses
        )
        span.add("enumerated", enumerated)
        span.add("threshold_protocols", threshold_count)
        span.set(best_eta=best_eta)

        certified = False
        with tracer.span("bounds.busy_beaver.certify", witnesses=len(witnesses)):
            for witness in witnesses:
                certificate = section4_certificate(witness, max_length=max_input + 4)
                if certificate is not None and certificate.a <= max_input:
                    certified = True
                    break
    return BusyBeaverSearchResult(
        n=n,
        eta=best_eta,
        witnesses=tuple(witnesses),
        protocols_enumerated=enumerated,
        threshold_protocols=threshold_count,
        checked_up_to=max_input,
        certified=certified,
    )
