"""Minimal solutions of homogeneous linear Diophantine systems.

This module implements the algorithmic side of Pottier's small basis
theorem (Theorem 5.6 in the paper, [Pottier 1991]):

    For a homogeneous system ``A y >= 0`` of ``e`` inequalities over
    ``v`` natural variables there is a basis ``B`` of solutions with
    ``||m||_1 <= (1 + max_i sum_j |a_ij|)^e`` for every ``m`` in ``B``.

Here a *basis* is a set of solutions such that every solution is a sum
of a multiset of basis solutions — i.e. a generating set of the
solution monoid.  The set of *minimal* non-zero solutions (the Hilbert
basis) is such a basis, and it is what we compute:

* :func:`solve_equalities` — minimal solutions of ``A y = 0`` via the
  Contejean–Devie completion procedure;
* :func:`solve_inequalities` — minimal solutions of ``A y >= 0`` by
  introducing slack variables (one per row) and projecting;
* :func:`pottier_norm_bound` — the closed-form norm bound of
  Theorem 5.6, for checking that computed bases respect it;
* :func:`brute_force_minimal_solutions` — reference implementation by
  exhaustive enumeration, used by the test suite to validate the
  completion procedure on small systems.

The Contejean–Devie procedure is a breadth-first completion starting
from the unit vectors: a frontier vector ``t`` is extended by the unit
vector ``e_i`` whenever the geometric condition
``<A t, A e_i> < 0`` holds (the defect can shrink), and is recorded as
minimal when ``A t = 0``.  Vectors dominating an already-found minimal
solution are pruned.  See Contejean & Devie, *An efficient incremental
algorithm for solving systems of linear Diophantine equations* (1994).

Every vector of generation ``g`` has 1-norm ``g + 1``, so the
completion runs one generation at a time as a batch of numpy
operations on an int64 frontier matrix: one matrix product gives all
defect products ``<A t, A e_i>``, fancy indexing builds the candidates
``t + e_i`` in frontier-then-coordinate order, a block-wise dominance
mask prunes them, and a keep-first dedup forms the next frontier.  The
batch reproduces the vector-at-a-time procedure exactly.  A candidate
grown from frontier position ``p`` is pruned against the minimal
solutions of earlier generations plus the current generation's
zero-defect vectors at positions below ``p`` — the solutions a
sequential pass would have recorded before reaching ``p``.  Hence the
basis, the frontier order, the budget boundary and the span counters
are those of the sequential procedure.  Two distinct vectors of one
norm never dominate each other, so each recorded solution was checked
against every minimal solution of lower norm and no closing mutual
sweep is needed.  Entries are int64: a system whose defect products
could leave that range raises :class:`OverflowError` instead of
wrapping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import SearchBudgetExceeded
from ..obs import get_tracer, progress

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "solve_equalities",
    "solve_inequalities",
    "solve_equalities_inhomogeneous",
    "pottier_norm_bound",
    "brute_force_minimal_solutions",
    "is_solution",
    "decompose",
]

Vector = Tuple[int, ...]
Matrix = Sequence[Sequence[int]]

DEFAULT_FRONTIER_BUDGET = 2_000_000

_INT64_LIMIT = 2**63

# Candidates per dominance-mask block: the boolean mask is
# ``_BLOCK x |minimal|``, whatever the generation's candidate count.
_BLOCK = 512


def _image(matrix: Matrix, vector: Sequence[int]) -> Vector:
    """``A v`` for an integer matrix and vector."""
    return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix)


def _dominates(v: Sequence[int], w: Sequence[int]) -> bool:
    """True iff ``v >= w`` componentwise."""
    return all(a >= b for a, b in zip(v, w))


def is_solution(matrix: Matrix, vector: Sequence[int], *, equalities: bool) -> bool:
    """Does ``vector`` satisfy ``A v = 0`` (or ``A v >= 0``)?"""
    image = _image(matrix, vector)
    if equalities:
        return all(x == 0 for x in image)
    return all(x >= 0 for x in image)


def solve_equalities(
    matrix: Matrix,
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> List[Vector]:
    """Minimal non-zero natural solutions of ``A y = 0`` (Hilbert basis).

    Parameters
    ----------
    matrix:
        The ``e x v`` integer matrix ``A``, as a sequence of rows.
    frontier_budget:
        Upper bound on the number of frontier vectors processed, as a
        guard against systems whose basis is astronomically large.

    Returns
    -------
    The complete set of minimal solutions, sorted lexicographically.

    Raises
    ------
    SearchBudgetExceeded
        If the completion frontier exceeds the budget.
    OverflowError
        If a generation's defect products could exceed the int64 range.
    """
    import numpy as np

    if not matrix:
        raise ValueError("matrix must have at least one row (use [] rows of correct width)")
    num_vars = len(matrix[0])
    for row in matrix:
        if len(row) != num_vars:
            raise ValueError("all matrix rows must have equal length")
    if num_vars == 0:
        return []

    num_rows = len(matrix)
    max_coefficient = max(abs(int(a)) for row in matrix for a in row)
    _check_int64_range(num_rows, max_coefficient, 0)
    coefficients = np.array(matrix, dtype=np.int64)
    # Row k of the frontier is a vector t, row k of images is A t.
    frontier = np.eye(num_vars, dtype=np.int64)
    images = coefficients.T.copy()
    minimal = np.zeros((0, num_vars), dtype=np.int64)
    processed = 0

    with get_tracer().span(
        "pottier.solve_equalities",
        rows=num_rows,
        variables=num_vars,
        frontier_budget=frontier_budget,
    ) as span:
        meter = progress(
            "pottier",
            lambda: {"frontier": len(frontier), "minimal": len(minimal)},
            stride=1,
        )
        generation = 0
        while len(frontier):
            _check_int64_range(num_rows, max_coefficient, generation)
            span.add("generations")
            meter.tick(len(frontier))
            processed += len(frontier)
            if processed > frontier_budget:
                span.add("budget_exceeded")
                raise SearchBudgetExceeded(
                    f"Contejean-Devie completion exceeded {frontier_budget} frontier vectors"
                )
            solved = ~images.any(axis=1)
            # Zero-defect vectors are minimal unless they dominate a
            # solution of an earlier (lower-norm) generation.
            found_at = np.flatnonzero(solved)
            earlier = np.full(len(minimal), -1)
            found_at = found_at[~_dominating(frontier[found_at], found_at, minimal, earlier)]
            # Geometric restriction: grow coordinate i of t only when it
            # can reduce the defect, i.e. <A t, A e_i> < 0.  np.nonzero
            # walks row-major, so candidates come in sequential order.
            growing = np.flatnonzero(~solved)
            rows, coordinates = np.nonzero(images[growing] @ coefficients < 0)
            grown_from = growing[rows]
            candidates = frontier[grown_from]
            candidates[np.arange(len(candidates)), coordinates] += 1
            candidate_images = images[grown_from] + coefficients.T[coordinates]
            # A candidate grown from position p is pruned by the earlier
            # generations' solutions and by this generation's below p.
            solution_found_at = np.concatenate([earlier, found_at])
            minimal = np.concatenate([minimal, frontier[found_at]])
            kept = ~_dominating(candidates, grown_from, minimal, solution_found_at)
            candidates, candidate_images = candidates[kept], candidate_images[kept]
            first = _first_occurrences(candidates)
            frontier, images = candidates[first], candidate_images[first]
            generation += 1
        meter.finish()
        span.add("frontier_vectors", processed)
        span.add("minimal_solutions", len(minimal))

    return sorted(map(tuple, minimal.tolist()))


def _check_int64_range(num_rows: int, max_coefficient: int, generation: int) -> None:
    """Refuse a generation whose defect products could overflow int64.

    Vectors of generation ``g`` have 1-norm ``g + 1``, so each entry of
    ``A t`` is at most ``max|a_ij| (g + 1)`` in absolute value and each
    product ``<A t, A e_i>`` at most ``rows max|a_ij|^2 (g + 1)``.
    """
    if num_rows * max_coefficient**2 * (generation + 1) >= _INT64_LIMIT:
        raise OverflowError(
            f"Contejean-Devie generation {generation} could exceed the int64 limit "
            f"2**63 ({num_rows} rows, max |a_ij| = {max_coefficient})"
        )


def _dominating(
    candidates: np.ndarray,
    grown_from: np.ndarray,
    solutions: np.ndarray,
    found_at: np.ndarray,
) -> np.ndarray:
    """Mask of the candidates ``>=`` some solution visible to them.

    Solution ``k`` is visible to candidate ``c`` when
    ``found_at[k] < grown_from[c]``.  The mask is built block by block
    and column by column, so temporaries stay ``_BLOCK x len(solutions)``.
    """
    import numpy as np

    dominated = np.zeros(len(candidates), dtype=bool)
    if not len(solutions):
        return dominated
    solution_columns = solutions.T.copy()
    for start in range(0, len(candidates), _BLOCK):
        stop = start + _BLOCK
        mask = found_at[None, :] < grown_from[start:stop, None]
        for column, bound in zip(candidates.T, solution_columns):
            mask &= column[start:stop, None] >= bound[None, :]
        dominated[start:stop] = mask.any(axis=1)
    return dominated


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row."""
    import numpy as np

    # One short bytes key per row, in the narrowest dtype holding these
    # naturals.  A dict keeps the first index per key in order; it is as
    # fast here as np.unique, which sorts, and it keeps peak memory lower.
    narrow = rows.astype(np.min_scalar_type(rows.max(initial=0)))
    keys = narrow.view(np.dtype((np.void, narrow.itemsize * rows.shape[1])))
    first = {}
    for index, key in enumerate(keys.ravel().tolist()):
        first.setdefault(key, index)
    return np.fromiter(first.values(), dtype=np.int64, count=len(first))


def solve_inequalities(
    matrix: Matrix,
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> List[Vector]:
    """A generating basis of the natural solutions of ``A y >= 0``.

    Implemented by adding one slack variable per row (``A y - s = 0``)
    and projecting the minimal solutions of the resulting equality
    system back onto the original variables.  The projections generate
    the solution monoid of the inequality system: each solution ``y``
    lifts uniquely to ``(y, A y)``, which decomposes into minimal
    equality solutions, whose projections sum to ``y``.

    Zero projections (solutions supported on slacks only — impossible
    for homogeneous systems, but kept for safety) are dropped, and the
    result is deduplicated and sorted.
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    num_vars = len(matrix[0])
    num_rows = len(matrix)
    extended_rows: List[List[int]] = []
    for r, row in enumerate(matrix):
        slack = [0] * num_rows
        slack[r] = -1
        extended_rows.append(list(row) + slack)
    combined = solve_equalities(extended_rows, frontier_budget=frontier_budget)
    projections = sorted({vec[:num_vars] for vec in combined} - {tuple([0] * num_vars)})
    return projections


def solve_equalities_inhomogeneous(
    matrix: Matrix,
    rhs: Sequence[int],
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> Tuple[List[Vector], List[Vector]]:
    """Solve ``A y = b`` over the naturals: minimal + homogeneous parts.

    Uses the classical reduction: the solutions of ``A y = b``
    correspond to solutions of the homogeneous system
    ``A y - b z = 0`` with ``z = 1``.  The Hilbert basis of the
    extended system splits into elements with ``z = 1`` (the *minimal
    inhomogeneous solutions*) and ``z = 0`` (the homogeneous basis);
    every solution of ``A y = b`` is one minimal solution plus a
    natural combination of homogeneous basis elements.  (Basis elements
    with ``z >= 2`` cannot contribute to a ``z = 1`` decomposition and
    are discarded.)

    Returns ``(minimal_solutions, homogeneous_basis)``; the system is
    solvable iff ``minimal_solutions`` is non-empty.
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    if len(rhs) != len(matrix):
        raise ValueError(f"rhs has {len(rhs)} entries for {len(matrix)} rows")
    num_vars = len(matrix[0])
    extended = [list(row) + [-b] for row, b in zip(matrix, rhs)]
    basis = solve_equalities(extended, frontier_budget=frontier_budget)
    particular = sorted(v[:num_vars] for v in basis if v[num_vars] == 1)
    homogeneous = sorted(v[:num_vars] for v in basis if v[num_vars] == 0)
    return particular, homogeneous


def pottier_norm_bound(matrix: Matrix) -> int:
    """Pottier's norm bound ``(1 + max_i sum_j |a_ij|)^e`` (Theorem 5.6).

    Every element of some basis of ``A y >= 0`` has 1-norm at most this
    value.  Note this bounds *some* basis; the Hilbert basis we compute
    empirically respects it on all systems arising from protocols,
    which is exactly what experiment E5 checks.
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    row_sum = max(sum(abs(a) for a in row) for row in matrix)
    return (1 + row_sum) ** len(matrix)


def brute_force_minimal_solutions(
    matrix: Matrix,
    max_norm: int,
    *,
    equalities: bool,
) -> List[Vector]:
    """All minimal non-zero solutions with ``||y||_1 <= max_norm``.

    Exhaustive reference implementation for the test suite.  Complete
    whenever ``max_norm`` is at least the norm of every minimal
    solution (e.g. :func:`pottier_norm_bound` for small systems).
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    num_vars = len(matrix[0])
    solutions: List[Vector] = []

    def vectors_of_norm(total: int, dims: int):
        if dims == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in vectors_of_norm(total - head, dims - 1):
                yield (head,) + tail

    for norm in range(1, max_norm + 1):
        for vector in vectors_of_norm(norm, num_vars):
            if not is_solution(matrix, vector, equalities=equalities):
                continue
            if any(_dominates(vector, m) for m in solutions):
                continue
            solutions.append(vector)
    return sorted(solutions)


def decompose(
    basis: Iterable[Vector],
    target: Sequence[int],
) -> Optional[List[Tuple[Vector, int]]]:
    """Express ``target`` as a natural combination of basis vectors.

    Returns pairs ``(basis vector, multiplicity)`` summing to
    ``target``, or ``None`` when no decomposition exists.  This is the
    witness format used by tests validating the *generating* property
    of computed bases.  Exponential-time exhaustive search; intended
    for small vectors only.
    """
    basis_list = [b for b in basis if any(b)]
    target_t = tuple(target)

    def search(remaining: Vector, index: int) -> Optional[List[Tuple[Vector, int]]]:
        if all(x == 0 for x in remaining):
            return []
        if index >= len(basis_list):
            return None
        vector = basis_list[index]
        max_count = min(
            (r // v for r, v in zip(remaining, vector) if v > 0),
            default=0,
        )
        for count in range(max_count, -1, -1):
            reduced = tuple(r - count * v for r, v in zip(remaining, vector))
            if any(x < 0 for x in reduced):
                continue
            rest = search(reduced, index + 1)
            if rest is not None:
                return ([(vector, count)] if count else []) + rest
        return None

    return search(target_t, 0)
