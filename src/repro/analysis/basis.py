"""Bases of the downward-closed stable sets (Lemma 3.2, empirically).

A *basis element* of a downward-closed set ``C`` is a pair ``(B, S)``
with ``B + N^S`` contained in ``C``; a *base* is a finite set of basis
elements covering ``C``.  Lemma 3.2 proves that ``SC_0``, ``SC_1`` and
``SC`` have bases of norm at most ``beta = 2^(2(2n+1)!+1)``.

``SC_b`` is an infinite set, so a computed base can only ever be
*verified up to a bound*; this module is explicit about that:

* :func:`check_basis_element` — verify ``B + v in SC_b`` for every
  ``v in N^S`` with ``|v| <= depth`` (exact stability check per point);
* :func:`infer_basis` — propose basis elements from the exact stable
  slices (cap each stable configuration at a threshold, collect the
  overflowing states into ``S``, exactly the shape used in the proof
  of Lemma 3.2) and keep those that pass :func:`check_basis_element`;
* :func:`covers` — check that a base covers the stable slices it was
  inferred from.

Experiment E3 compares the norms of inferred bases against the
astronomic ``beta(n)`` — protocols in practice have tiny bases, which
is the expected (and interesting) observation: the paper's constant is
a worst-case safety net, not a prediction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from ..obs import get_tracer
from .stable import is_stable, stable_slice

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BasisElement", "check_basis_element", "infer_basis", "covers"]

State = Hashable

# Rows of the subsumption mask built at once: temporaries stay
# ``_BLOCK x len(elements)`` booleans (the idiom of ``pottier._dominating``).
_BLOCK = 512


@dataclass(frozen=True)
class BasisElement:
    """A candidate basis element ``(B, S)`` of ``SC_b``.

    ``verified_depth`` records how far the pumping directions were
    actually checked: every ``B + v`` with ``v in N^S``,
    ``|v| <= verified_depth`` was confirmed ``b``-stable.
    """

    B: Multiset
    S: FrozenSet[State]
    b: int
    verified_depth: int

    @property
    def norm(self) -> int:
        """``||(B, S)||_inf = ||B||_inf`` (the paper's norm of a basis element)."""
        return self.B.norm_inf()

    def contains(self, configuration: Multiset) -> bool:
        """Is ``configuration`` in ``B + N^S``?"""
        difference = configuration - self.B
        return difference.is_natural and difference.supported_on(self.S)

    def __str__(self) -> str:
        return f"(B={self.B.pretty()}, S={{{', '.join(map(str, sorted(self.S, key=str)))}}}, b={self.b})"


def _pump_vectors(states: Sequence[State], depth: int) -> Iterable[Multiset]:
    """All ``v in N^S`` with ``|v| <= depth`` (including zero)."""
    for total in range(depth + 1):
        for combo in itertools.combinations_with_replacement(states, total):
            yield Multiset(combo)


def prove_basis_element(
    protocol: PopulationProtocol,
    B: Multiset,
    S: Iterable[State],
    b: int,
    node_budget: int = 200_000,
) -> bool:
    """*Prove* ``B + N^S`` is contained in ``SC_b`` — exactly.

    ``B + N^S`` lies in ``SC_b`` iff no configuration populating a
    state of output ``1 - b`` is reachable from any ``B + v``; that is
    a coverability question for the family, answered exactly by a
    Karp-Miller tree rooted at ``B`` with omega on the ``S``
    coordinates.  Unlike :func:`check_basis_element` this is not a
    bounded approximation: a ``True`` here is a proof (used by the
    certificate checker, where bounded pumping checks are unsound —
    a deep-enough pump may cross the threshold only beyond any fixed
    depth).
    """
    from ..reachability.coverability import OMEGA, karp_miller

    indexed = protocol.indexed()
    S = set(S)
    root = tuple(
        OMEGA if state in S else B[state] for state in indexed.states
    )
    tree = karp_miller(protocol, [root], node_budget=node_budget)
    for i, state in enumerate(indexed.states):
        if protocol.output[state] != b:
            target = tuple(1 if j == i else 0 for j in range(indexed.n))
            if tree.covers(target):
                return False
    return True


def check_basis_element(
    protocol: PopulationProtocol,
    B: Multiset,
    S: Iterable[State],
    b: int,
    depth: int,
    node_budget: int = 2_000_000,
) -> bool:
    """Verify ``B + v in SC_b`` for all ``v in N^S`` with ``|v| <= depth``.

    Exact per point (each point's forward closure is explored); the
    overall claim ``B + N^S subseteq SC_b`` is checked only up to
    ``depth`` — callers must treat a ``True`` as bounded evidence, not
    proof.  Points of size < 2 (not configurations) are skipped.
    Raises ``ValueError`` for a negative ``depth``.
    """
    if depth < 0:
        raise ValueError(f"pump depth must be >= 0, got {depth}")
    return _pumps_stay_stable(
        B, S, depth, lambda point: is_stable(protocol, point, b, node_budget=node_budget)
    )


def _pumps_stay_stable(
    B: Multiset, S: Iterable[State], depth: int, stable: Callable[[Multiset], bool]
) -> bool:
    """``stable(B + v)`` for every ``v in N^S``, ``|v| <= depth``, of size >= 2."""
    for v in _pump_vectors(sorted(set(S), key=str), depth):
        point = B + v
        if point.size >= 2 and not stable(point):
            return False
    return True


def infer_basis(
    protocol: PopulationProtocol,
    b: int,
    slice_sizes: Sequence[int],
    cap: int = 1,
    pump_depth: int = 3,
    node_budget: int = 2_000_000,
) -> List[BasisElement]:
    """Infer a base of ``SC_b`` from exact stable slices.

    For every ``b``-stable configuration ``C`` in the given slices and
    every subset ``S`` of its support, form the Lemma 3.2-shaped
    candidate ``B = C`` capped at ``cap`` on ``S`` (kept exact outside
    ``S``).  The proof uses a single gigantic cap (``2 * beta``) and
    the overflowing states as ``S``; with realistic caps the pumpable
    direction set must be *searched*, which the subset enumeration does
    (supports are tiny, so this is cheap).  Candidates failing the
    bounded pumping check of :func:`check_basis_element` are discarded;
    the checks share one stability memo, so each point ``B + v`` is
    explored once per call.  Survivors subsumed by another element are
    pruned in one vectorised pass (:func:`_subsumed`); the rest keep
    their candidate order.

    The trivial candidate ``(C, {})`` is always present, so the result
    covers every inspected slice; the pumpable elements provide the
    generalisation to larger sizes (checked by :func:`covers`).
    Raises ``ValueError`` for a negative ``cap`` or ``pump_depth``.
    """
    import numpy as np

    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if pump_depth < 0:
        raise ValueError(f"pump depth must be >= 0, got {pump_depth}")
    with get_tracer().span("basis.infer", b=b, protocol=protocol.name) as span:
        candidates: Dict[Tuple[Multiset, FrozenSet[State]], None] = {}
        for size in slice_sizes:
            sl = stable_slice(protocol, size, node_budget=node_budget)
            for config in sl.stable_multisets(b):
                support = sorted(config.support(), key=str)
                for r in range(len(support) + 1):
                    for subset in itertools.combinations(support, r):
                        S = frozenset(subset)
                        B = Multiset(
                            {q: min(c, cap) if q in S else c for q, c in config.items()}
                        )
                        candidates.setdefault((B, S))

        stable = functools.lru_cache(maxsize=None)(
            lambda point: is_stable(protocol, point, b, node_budget=node_budget)
        )
        verified = [
            BasisElement(B=B, S=S, b=b, verified_depth=pump_depth)
            for B, S in candidates
            if _pumps_stay_stable(B, S, pump_depth, stable)
        ]
        kept = [verified[i] for i in np.flatnonzero(~_subsumed(verified, protocol.states))]
        span.add("candidates", len(candidates))
        span.add("points_checked", stable.cache_info().currsize)
        span.add("verified", len(verified))
        span.add("kept", len(kept))
    return kept


def _subsumed(elements: Sequence[BasisElement], states: Sequence[State]) -> np.ndarray:
    """Mask of the elements whose family lies inside another element's.

    ``B + N^S`` is the box of configurations between ``B`` and its upper
    corner ``U`` (``B`` with omega on ``S``).  A box contains another iff
    its lower corner is below and its upper corner above the other's:
    ``B' <= B`` and ``U <= U'``, i.e. ``S <= S'`` and ``B - B'`` lies in
    ``N^S'``.  Mutual containment would force equal ``(B, S)``, which
    distinct elements never have, so every contained element goes.
    Omega is encoded as one more than the largest entry of any ``B``.
    The mask is built block by block and state by state, so temporaries
    stay ``_BLOCK x len(elements)``.
    """
    import numpy as np

    count = len(elements)
    subsumed = np.zeros(count, dtype=bool)
    if not count:
        return subsumed
    vectors = [element.B.to_vector(states) for element in elements]
    omega = max(map(max, vectors)) + 1
    dtype = np.min_scalar_type(omega)
    lower = np.array(vectors, dtype=dtype)
    in_S = np.array([[q in element.S for q in states] for element in elements])
    upper = np.where(in_S, omega, lower).astype(dtype)
    for start in range(0, count, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, count))
        mask = np.ones((len(rows), count), dtype=bool)
        mask[np.arange(len(rows)), rows] = False  # an element never prunes itself
        for low, up in zip(lower.T, upper.T):
            mask &= low[None, :] <= low[rows, None]
            mask &= up[rows, None] <= up[None, :]
        subsumed[rows] = mask.any(axis=1)
    return subsumed


def covers(
    basis: Sequence[BasisElement],
    protocol: PopulationProtocol,
    b: int,
    slice_sizes: Sequence[int],
    node_budget: int = 2_000_000,
) -> Optional[Multiset]:
    """First ``b``-stable configuration not covered by the base, if any.

    ``None`` means the base covers every ``b``-stable configuration of
    the given sizes.
    """
    for size in slice_sizes:
        sl = stable_slice(protocol, size, node_budget=node_budget)
        for config in sl.stable_multisets(b):
            if not any(element.contains(config) for element in basis):
                return config
    return None
