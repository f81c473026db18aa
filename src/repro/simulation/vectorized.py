"""Tau-leap simulation: a whole ``--trials`` batch per step.

The paper's lower bounds live in the large-``n`` regime, where exact
per-interaction simulation needs ``Theta(n log n)`` Python iterations
per run.  Population protocols are chemical reaction networks, so the
remedy from stochastic kinetics applies: **tau-leaping**, advancing
``EPSILON * n`` interactions at a time from a multinomial draw over the
pair distribution.  This module is the repo's one tau-leap engine; a
single trajectory is an ensemble with ``trials=1``.  It is laid out
struct-of-arrays:

* the whole ensemble is one ``(trials, states)`` int64 count matrix;
* every trial advances **simultaneously** — pair weights are computed
  for all trials in one vectorised expression, the number of
  interactions hitting each transition class is drawn with one batched
  ``rng.multinomial`` call across the trial axis, and displacements are
  applied with a single integer matrix product;
* tau-leap rejection is a per-trial mask: trials whose aggregated
  update would drive a count negative halve their attempt size
  independently (down to single interactions) while the rest of the
  ensemble keeps leaping at full size;
* a trial whose single-interaction leap is still rejected — the
  near-absorption regime where some state holds one or two agents —
  falls back to the exact scalar sampler for that one step, so every
  intermediate row of the matrix is a legal configuration.

The tau-leap approximation touches only *timing statistics* (order
``EPSILON``); invariants are exact: population is conserved per trial
at every step, counts never go negative, and all pair probabilities
are computed in exact integer arithmetic with one final division
(float64 subtraction of ``n(n-1)``-sized products silently corrupts
small inert masses once ``n`` passes ``~10^8``).  Pair weights are
int64 while ``n(n-1)`` fits; above that the same expression runs on
Python ints, so there is no population ceiling short of the int64
count matrix itself.

Convergence detection (silent consensus) and verdict extraction are
vectorised too: enabled-transition masks and output-consensus checks
are evaluated for the whole ensemble between leap rounds, once every
``EPSILON * n`` interactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from ..core.errors import ProtocolError
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, _pair
from ..obs import get_tracer, progress

if TYPE_CHECKING:
    import numpy as np

__all__ = ["VectorEnsembleScheduler", "VectorRunResult", "EPSILON"]

#: The tau-leap size, as a fraction of a unit of parallel time: one leap
#: round is ``max(1, int(EPSILON * n))`` interactions (``leap_size``).
EPSILON = 0.05

# np.iinfo(np.int64).max, written out so that loading this module does
# not load numpy.
_INT64_MAX = 2**63 - 1
# Largest population whose pair weights n(n-1) fit int64.  Up to it a
# leap weighs pairs in int64; above it, in exact Python ints.
_MAX_INT64_PAIRS = (1 + math.isqrt(4 * _INT64_MAX + 1)) // 2
# run() leaps at most EPSILON * n <= n interactions at a time, and a
# leap of k moves a count by at most 2k, so a checked update stays in
# [-2n, 3n]: populations up to a third of int64 are exact.
_MAX_POPULATION = _INT64_MAX // 3


@dataclass(frozen=True)
class VectorRunResult:
    """Per-trial outcome arrays of one vectorised ensemble run.

    All arrays are indexed by trial.  ``parallel_times`` is meaningful
    only where ``converged`` is set (it records the detection time);
    ``verdicts`` holds the consensus output of the *final*
    configuration — possibly ``None`` — for every trial, converged or
    not, mirroring how the scalar ensemble tallies verdicts.
    """

    trials: int
    population: int
    interactions: np.ndarray  # int64 (trials,)
    converged: np.ndarray  # bool (trials,)
    parallel_times: np.ndarray  # float64 (trials,)
    verdicts: Tuple[Optional[int], ...]


class VectorEnsembleScheduler:
    """Simultaneous tau-leaping of an entire trial ensemble.

    One scheduler instance owns one ``(trials, states)`` count matrix;
    :meth:`run` feeds :func:`repro.simulation.ensembles.run_ensemble`
    via ``engine="vector"``, and ``trials=1`` drives a single
    large-population trajectory (``record_time_series(use_batch=True)``).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        trials: int,
        seed: Optional[int] = None,
    ):
        import numpy as np

        if trials < 1:
            raise ValueError(f"need at least one trial, got {trials}")
        self.protocol = protocol
        self.indexed = protocol.indexed()
        self.trials = trials
        self.rng = np.random.default_rng(seed)
        self.counts = np.zeros((trials, self.indexed.n), dtype=np.int64)

        # --- transition classes, one column per registered state pair.
        # Outcomes of nondeterministic pairs occupy contiguous rows of
        # the displacement matrix so a per-class uniform split lands in
        # one slice assignment.
        pair_deltas: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        for t_index, (i, j) in enumerate(self.indexed.pre_pairs):
            pair_deltas.setdefault((i, j), []).append(self.indexed.deltas[t_index])
        self._pair_keys: List[Tuple[int, int]] = sorted(pair_deltas)
        self._pair_i = np.array([i for i, _ in self._pair_keys], dtype=np.int64)
        self._pair_j = np.array([j for _, j in self._pair_keys], dtype=np.int64)
        self._pair_self = self._pair_i == self._pair_j

        rows: List[Tuple[int, ...]] = []
        starts: List[int] = []
        widths: List[int] = []
        for key in self._pair_keys:
            starts.append(len(rows))
            widths.append(len(pair_deltas[key]))
            rows.extend(pair_deltas[key])
        self._outcomes = np.array(rows, dtype=np.int64).reshape(
            len(rows), self.indexed.n
        )
        self._outcome_start = np.array(starts, dtype=np.int64)
        self._outcome_width = np.array(widths, dtype=np.int64)
        single = self._outcome_width == 1
        self._single_classes = np.nonzero(single)[0]
        self._single_rows = self._outcome_start[single]
        self._multi_classes = [int(p) for p in np.nonzero(~single)[0]]
        # Scalar-fallback view: outcome rows per class.
        self._pair_outcomes: List[np.ndarray] = [
            self._outcomes[s : s + w]
            for s, w in zip(self._outcome_start, self._outcome_width)
        ]

        # --- non-silent transitions, for the vectorised silence check.
        ns = self.indexed.non_silent
        self._ns_i = np.array(
            [self.indexed.pre_pairs[t][0] for t in ns], dtype=np.int64
        )
        self._ns_j = np.array(
            [self.indexed.pre_pairs[t][1] for t in ns], dtype=np.int64
        )
        self._ns_need = np.where(self._ns_i == self._ns_j, 2, 1)

        self._outputs = np.array(self.indexed.output, dtype=np.int64)
        self._output_values = sorted(set(self.indexed.output))
        self._population = 0

    # ------------------------------------------------------------------

    def reset(self, inputs: Union[int, Mapping, Multiset]) -> None:
        """Initialise every trial to ``IC(inputs)``."""
        import numpy as np

        row = self.indexed.initial_counts(inputs)
        n = sum(row)
        if n > _MAX_POPULATION:
            raise OverflowError(
                f"population {n} does not fit the vector engine's int64 count "
                f"matrix (max {_MAX_POPULATION} agents, a third of the int64 "
                "range, so that a leap's update cannot overflow)"
            )
        self.counts = np.tile(np.array(row, dtype=np.int64), (self.trials, 1))
        self._population = n

    @property
    def population(self) -> int:
        """Agents per trial (identical across trials, conserved exactly)."""
        return self._population

    @property
    def leap_size(self) -> int:
        """Interactions per leap round: ``EPSILON * n``, at least one."""
        return max(1, int(EPSILON * self._population))

    def configuration(self, trial: int) -> Multiset:
        """The current configuration of one trial, as a multiset."""
        return self.indexed.decode([int(c) for c in self.counts[trial]])

    def pair_distribution(self):
        """The one-step pair distribution shared by every trial.

        Returns ``(keys, probabilities, inert)``: the registered
        unordered state pairs, their meeting probabilities, and the
        probability mass of inert pairs (pairs with no registered
        transition), computed in exact integer arithmetic from trial
        0's counts, so the conformance harness can hold the engine to
        the analytic one-step law.
        """
        import numpy as np

        n = self._population
        if n < 2:
            raise ProtocolError("population must have at least two agents")
        c = self.counts[0]
        weights = [
            int(c[i]) * (int(c[i]) - 1) if i == j else 2 * int(c[i]) * int(c[j])
            for i, j in self._pair_keys
        ]
        total = n * (n - 1)
        inert_mass = total - sum(weights)
        states = self.indexed.states
        keys = [_pair(states[i], states[j]) for i, j in self._pair_keys]
        probabilities = np.array([w / total for w in weights], dtype=np.float64)
        return keys, probabilities, inert_mass / total

    # ------------------------------------------------------------------
    # One batched leap attempt across the whole ensemble
    # ------------------------------------------------------------------

    def _attempt(self, k: np.ndarray) -> np.ndarray:
        """Sample one leap of ``k[t]`` interactions per trial.

        Returns the aggregated displacement matrix ``(trials, states)``;
        trials with ``k[t] == 0`` get a zero row.  The caller decides
        acceptance — this method never mutates ``self.counts``.
        """
        import numpy as np

        c = self.counts
        n = self._population
        if n > _MAX_INT64_PAIRS:
            c = c.astype(object)  # n(n-1) overflows int64: exact Python ints
        ci = c[:, self._pair_i]
        cj = c[:, self._pair_j]
        weights = np.where(self._pair_self, ci * (ci - 1), 2 * ci * cj)
        total = n * (n - 1)
        pvals = np.empty((self.trials, len(self._pair_keys) + 1), dtype=np.float64)
        pvals[:, :-1] = weights
        pvals[:, -1] = total - weights.sum(axis=1)  # exact integer inert mass
        pvals /= float(total)
        pvals /= pvals.sum(axis=1, keepdims=True)

        hits = self.rng.multinomial(k, pvals)  # (trials, classes + 1)
        outcome_hits = np.zeros((self.trials, len(self._outcomes)), dtype=np.int64)
        outcome_hits[:, self._single_rows] = hits[:, self._single_classes]
        for p in self._multi_classes:
            start = int(self._outcome_start[p])
            width = int(self._outcome_width[p])
            outcome_hits[:, start : start + width] = self.rng.multinomial(
                hits[:, p], np.full(width, 1.0 / width)
            )
        return outcome_hits @ self._outcomes

    def _exact_step(self, trial: int) -> None:
        """Exact scalar interaction for one near-absorption trial.

        One draw over all ``n(n-1)`` ordered pairs with exact integer
        weights (inert meetings included, per the pair law).  A sampled
        pair is present, so firing it never drives a count negative.
        """
        c = self.counts[trial]
        weights = [
            int(c[i]) * (int(c[i]) - 1) if i == j else 2 * int(c[i]) * int(c[j])
            for i, j in self._pair_keys
        ]
        n = self._population
        # Two distinct agents: the first uniform over n, the second over
        # the other n - 1.  Their ordered-pair index is uniform on
        # [0, n(n-1)), and each draw stays in int64 at any population.
        pick = int(self.rng.integers(n)) * (n - 1) + int(self.rng.integers(n - 1))
        for index, weight in enumerate(weights):
            if pick < weight:
                outcomes = self._pair_outcomes[index]
                if len(outcomes) == 1:
                    outcome = outcomes[0]
                else:
                    outcome = outcomes[int(self.rng.integers(len(outcomes)))]
                self.counts[trial] = c + outcome
                return
            pick -= weight
        # inert pair met: the interaction happened, nothing changed

    def leap(self, request: np.ndarray) -> np.ndarray:
        """Advance trial ``t`` by ``request[t]`` interactions; all at once.

        Rejection handling is per trial: a trial whose aggregated
        update would go negative halves its *own* attempt size (masked,
        so accepted trials are untouched) and retries in the next
        batched draw; at attempt size 1 it falls back to one exact
        scalar step.  A trial's attempt size stays at its halved value
        for the remainder of this call — near absorption the pair
        distribution genuinely shifts every few interactions, so
        regrowing the leap within the round would just re-reject.

        Returns the interactions actually performed per trial, which
        always equals ``request`` (the exact fallback guarantees
        progress).
        """
        import numpy as np

        if self._population < 2:
            raise ProtocolError("population must have at least two agents")
        request = np.asarray(request, dtype=np.int64)
        if request.shape != (self.trials,):
            raise ValueError(
                f"request must have shape ({self.trials},), got {request.shape}"
            )
        if (request < 0).any():
            raise ValueError("per-trial interaction requests must be >= 0")
        remaining = request.copy()
        attempt = remaining.copy()
        while True:
            active = remaining > 0
            if not active.any():
                break
            np.minimum(attempt, remaining, out=attempt)
            k = np.where(active, attempt, 0)
            delta = self._attempt(k)
            updated = self.counts + delta
            rejected = (updated < 0).any(axis=1) & active
            accepted = active & ~rejected
            if accepted.any():
                self.counts[accepted] = updated[accepted]
                remaining[accepted] -= k[accepted]
            if rejected.any():
                fallback = rejected & (attempt <= 1)
                for trial in np.nonzero(fallback)[0]:
                    self._exact_step(int(trial))
                    remaining[trial] -= 1
                halved = rejected & (attempt > 1)
                attempt[halved] //= 2
        return request.copy()

    # ------------------------------------------------------------------
    # Vectorised convergence detection
    # ------------------------------------------------------------------

    def silent_consensus_mask(self) -> np.ndarray:
        """Per-trial silent-consensus flags for the current matrix.

        A trial is in silent consensus when no displacement-changing
        transition is enabled *and* its consensus output is defined —
        the vectorised form of
        :func:`~repro.simulation.scheduler._is_silent_consensus`.
        """
        import numpy as np

        if self._ns_i.size:
            enabled = (self.counts[:, self._ns_i] >= self._ns_need) & (
                self.counts[:, self._ns_j] >= 1
            )
            silent = ~enabled.any(axis=1)
        else:
            silent = np.ones(self.trials, dtype=bool)
        _, defined = self._verdict_arrays()
        return silent & defined

    def _verdict_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(verdict_values, defined)`` per trial.

        ``verdict_values[t]`` is meaningful only where ``defined[t]``:
        a consensus exists iff exactly one output value has a present
        state.
        """
        import numpy as np

        present = self.counts > 0
        has = np.stack(
            [(present & (self._outputs == v)).any(axis=1) for v in self._output_values]
        )
        defined = has.sum(axis=0) == 1
        values = np.array(self._output_values, dtype=np.int64)[has.argmax(axis=0)]
        return values, defined

    def verdicts(self) -> Tuple[Optional[int], ...]:
        """Consensus output per trial (``None`` where undefined)."""
        values, defined = self._verdict_arrays()
        return tuple(
            int(v) if ok else None for v, ok in zip(values, defined)
        )

    # ------------------------------------------------------------------

    def run(
        self,
        inputs,
        max_parallel_time: float,
    ) -> VectorRunResult:
        """Run every trial up to ``max_parallel_time`` units of parallel time.

        The consensus check runs between leap rounds, every
        :attr:`leap_size` interactions, and converged trials are masked
        out of all further leaping while the rest of the ensemble
        continues.  The budget is ``max_parallel_time * n`` rounded up,
        so any positive budget performs at least one interaction.
        """
        import numpy as np

        if not (math.isfinite(max_parallel_time) and max_parallel_time > 0):
            raise ValueError(
                f"max_parallel_time must be positive and finite, got {max_parallel_time}"
            )
        self.reset(inputs)
        n = self._population
        leap_size = self.leap_size
        budget = max(1, math.ceil(max_parallel_time * n))
        if budget * self.trials > _INT64_MAX:
            raise OverflowError(
                f"interaction budget {budget} x {self.trials} trials does not fit "
                f"the vector engine's int64 counters (max {_INT64_MAX} per ensemble)"
            )
        done = np.zeros(self.trials, dtype=np.int64)
        converged = np.zeros(self.trials, dtype=bool)
        conv_times = np.zeros(self.trials, dtype=np.float64)
        silent_checks = 0
        meter = progress(
            "simulate-vector",
            lambda: {
                "interactions": int(done.sum()),
                "trials_converged": int(converged.sum()),
                "population": n,
            },
        )
        with get_tracer().span(
            "simulate.run",
            scheduler=type(self).__name__,
            population=n,
            trials=self.trials,
            leap_size=leap_size,
        ) as span:
            while True:
                silent_checks += 1
                newly = self.silent_consensus_mask() & ~converged
                if newly.any():
                    conv_times[newly] = done[newly] / n
                    converged |= newly
                active = ~converged & (done < budget)
                if not active.any():
                    break
                request = np.where(
                    active, np.minimum(leap_size, budget - done), 0
                )
                done += self.leap(request)
                meter.tick(int(request.sum()))
            meter.finish()
            span.add("interactions", int(done.sum()))
            span.add("silent_checks", silent_checks)
            span.set(trials_converged=int(converged.sum()))
        return VectorRunResult(
            trials=self.trials,
            population=n,
            interactions=done,
            converged=converged,
            parallel_times=conv_times,
            verdicts=self.verdicts(),
        )
