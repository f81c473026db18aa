"""Tests for the Hilbert basis / Pottier machinery (Theorem 5.6, Cor. 5.7)."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import cache_disabled
from repro.core.errors import SearchBudgetExceeded
from repro.diophantine.pottier import (
    brute_force_minimal_solutions,
    decompose,
    is_solution,
    pottier_norm_bound,
    solve_equalities,
    solve_inequalities,
)
from repro.obs import RecordingExporter, Tracer, set_tracer
from repro.protocols import binary_threshold, flat_threshold
from repro.reachability.pseudo import realisable_basis

# Integer matrices of 1-4 columns and 1-3 rows, entries in [-2, 2].
small_systems = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(-2, 2), min_size=width, max_size=width),
        min_size=1,
        max_size=3,
    )
)


def traced_completions(fn):
    """Run ``fn`` under a tracer; return its result and the counters of
    every ``pottier.solve_equalities`` span it opened."""
    exporter = RecordingExporter()
    previous = set_tracer(Tracer([exporter]))
    try:
        result = fn()
    finally:
        set_tracer(previous)
    counters = [
        record["counters"]
        for record in exporter.records
        if record["name"] == "pottier.solve_equalities"
    ]
    return result, counters


def sequential_completion(matrix):
    """The Contejean–Devie completion one frontier vector at a time.

    The reference semantics of the batched :func:`solve_equalities`:
    a candidate is pruned against every solution recorded so far,
    including zero-defect vectors met earlier in its own generation.
    Returns the sorted basis and the three span counters.
    """
    width = len(matrix[0])

    def image(vector):
        return tuple(sum(a * v for a, v in zip(row, vector)) for row in matrix)

    def dominates(v, w):
        return all(a >= b for a, b in zip(v, w))

    units = [tuple(int(j == i) for j in range(width)) for i in range(width)]
    frontier = units
    minimal, processed, generations = [], 0, 0
    while frontier:
        generations += 1
        grown, seen = [], set()
        for vector in frontier:
            processed += 1
            defect = image(vector)
            if not any(defect):
                if not any(dominates(vector, m) for m in minimal):
                    minimal.append(vector)
                continue
            for unit in units:
                if sum(d * u for d, u in zip(defect, image(unit))) >= 0:
                    continue
                candidate = tuple(v + u for v, u in zip(vector, unit))
                if candidate in seen or any(dominates(candidate, m) for m in minimal):
                    continue
                seen.add(candidate)
                grown.append(candidate)
        frontier = grown
    counters = {
        "generations": generations,
        "frontier_vectors": processed,
        "minimal_solutions": len(minimal),
    }
    return sorted(minimal), counters


class TestSolveEqualities:
    def test_simple_balance(self):
        # x1 - x2 = 0  =>  minimal solution (1, 1)
        assert solve_equalities([[1, -1]]) == [(1, 1)]

    def test_two_to_one(self):
        # 2 x1 - x2 = 0 => (1, 2)
        assert solve_equalities([[2, -1]]) == [(1, 2)]

    def test_no_nontrivial_solutions(self):
        # x1 + x2 = 0 has only the zero solution
        assert solve_equalities([[1, 1]]) == []

    def test_free_variables(self):
        # 0 = 0: every unit vector is minimal
        assert solve_equalities([[0, 0]]) == [(0, 1), (1, 0)]

    def test_multiple_equations(self):
        # x1 = x2 and x2 = x3 => (1,1,1)
        assert solve_equalities([[1, -1, 0], [0, 1, -1]]) == [(1, 1, 1)]

    def test_classic_example(self):
        # x1 + x2 - 2 x3 = 0: minimal solutions (2,0,1), (0,2,1), (1,1,1)
        basis = solve_equalities([[1, 1, -2]])
        assert set(basis) == {(2, 0, 1), (0, 2, 1), (1, 1, 1)}

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_equalities([])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_equalities([[1, 2], [1]])

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            solve_equalities([[3, -5, 7, -11]], frontier_budget=3)

    def test_int64_overflow_raises(self):
        # rows * max|a|^2 = 2**80 already overflows int64 at generation 0.
        with pytest.raises(OverflowError, match="int64"):
            solve_equalities([[2**40, -1]])

    def test_int64_overflow_raises_mid_completion(self):
        # 2**60 * (generation + 1) reaches 2**63 at generation 7, long
        # before the basis element (1, 2**30) could be found.
        with pytest.raises(OverflowError, match="generation 7"):
            solve_equalities([[2**30, -1]])

    def test_results_are_python_ints(self):
        (solution,) = solve_equalities([[2, -1]])
        assert all(type(x) is int for x in solution)


# Span counters and basis digests of the realisable bases the
# end-to-end analyses compute, recorded with the vector-at-a-time
# completion: the batched one must walk the same frontier.
GOLDEN_BASES = {
    "flat:6": (
        flat_threshold,
        6,
        {"frontier_vectors": 5282, "generations": 27, "minimal_solutions": 260},
        "e75db3ff3570a78c3cbe91ea273dd3638971a9a5bcecc9d97be6f6e04b024610",
    ),
    "binary:24": (
        binary_threshold,
        24,
        {"frontier_vectors": 10807, "generations": 93, "minimal_solutions": 117},
        "357349e2ac8e0315814f728b5193909c1585bf9229ed6924c267ed0b5f8a0d36",
    ),
}


class TestGoldenCompletions:
    @pytest.mark.parametrize("name", sorted(GOLDEN_BASES))
    def test_counters_and_basis_digest(self, name):
        build, n, counters, digest = GOLDEN_BASES[name]
        protocol = build(n)
        with cache_disabled():
            basis, spans = traced_completions(lambda: realisable_basis(protocol))
        assert spans == [counters]
        rows = [[element.pi[t] for t in protocol.transitions] for element in basis]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    def test_budget_boundary(self):
        protocol = flat_threshold(6)
        frontier = GOLDEN_BASES["flat:6"][2]["frontier_vectors"]
        with cache_disabled():
            assert len(realisable_basis(protocol, frontier_budget=frontier)) == 260
            with pytest.raises(SearchBudgetExceeded):
                realisable_basis(protocol, frontier_budget=frontier - 1)

    # In these examples a candidate dominates a zero-defect vector of
    # its own generation found before its parent (pruned) or after it
    # (kept): pruning against all or none of them changes the counters.
    @settings(max_examples=40)
    @given(small_systems)
    @example([[1, 2, -2, -1]])
    @example([[-2, 1, 2]])
    def test_same_frontier_as_sequential_completion(self, matrix):
        basis, spans = traced_completions(lambda: solve_equalities(matrix))
        reference, counters = sequential_completion(matrix)
        assert basis == reference
        assert spans == [counters]


class TestAgainstBruteForce:
    @settings(max_examples=30)
    @given(small_systems)
    def test_equalities_match_brute_force(self, matrix):
        basis = solve_equalities(matrix, frontier_budget=200_000)
        bound = max((sum(v) for v in basis), default=0) + 2
        reference = brute_force_minimal_solutions(matrix, max_norm=min(bound, 9), equalities=True)
        expected = [v for v in reference if sum(v) <= min(bound, 9)]
        computed = [v for v in basis if sum(v) <= min(bound, 9)]
        assert set(computed) == set(expected)

    def test_inequalities_small_system(self):
        matrix = [[1, -1, 0], [0, 1, -1]]
        basis = solve_inequalities(matrix)
        # every basis element is a solution
        for v in basis:
            assert is_solution(matrix, v, equalities=False)
        # and generates: some known solutions decompose
        for target in [(1, 0, 0), (1, 1, 0), (2, 1, 1), (3, 2, 2)]:
            if is_solution(matrix, target, equalities=False):
                assert decompose(basis, target) is not None, target


class TestInequalities:
    def test_single_inequality(self):
        # x1 - x2 >= 0
        basis = solve_inequalities([[1, -1]])
        assert (1, 0) in basis and (1, 1) in basis
        for v in basis:
            assert v[0] >= v[1]

    def test_all_solutions_nonzero(self):
        basis = solve_inequalities([[1, -2], [-1, 3]])
        assert all(any(v) for v in basis)

    def test_generating_property_exhaustive(self):
        matrix = [[2, -1], [-1, 1]]
        basis = solve_inequalities(matrix)
        for a in range(5):
            for b in range(5):
                if is_solution(matrix, (a, b), equalities=False):
                    assert decompose(basis, (a, b)) is not None, (a, b)


class TestNormBound:
    def test_formula(self):
        # rows sums: |1|+|-1| = 2 and |2|+|1| = 3 -> (1+3)^2 = 16
        assert pottier_norm_bound([[1, -1], [2, 1]]) == 16

    def test_bound_respected_on_random_systems(self):
        import itertools
        import random

        rng = random.Random(42)
        for _ in range(10):
            matrix = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
            basis = solve_inequalities(matrix, frontier_budget=500_000)
            bound = pottier_norm_bound(matrix)
            assert all(sum(v) <= bound for v in basis)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pottier_norm_bound([])


class TestDecompose:
    def test_zero_target(self):
        assert decompose([(1, 1)], (0, 0)) == []

    def test_simple(self):
        result = decompose([(1, 1), (2, 0)], (4, 2))
        assert result is not None
        total = [0, 0]
        for vector, count in result:
            total[0] += vector[0] * count
            total[1] += vector[1] * count
        assert tuple(total) == (4, 2)

    def test_impossible(self):
        assert decompose([(2, 0)], (1, 0)) is None
