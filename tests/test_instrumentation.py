"""Tests for the simulation instrumentation layer."""

from __future__ import annotations

import pytest

from repro.simulation import (
    CountScheduler,
    Instrumentation,
    VectorEnsembleScheduler,
    run_ensemble,
    run_with_faults,
)
from repro.simulation.faults import crash


class TestInstrumentation:
    def test_counters_accumulate(self):
        inst = Instrumentation()
        inst.add("steps")
        inst.add("steps", 4)
        assert inst.snapshot().counter("steps") == 5
        assert inst.snapshot().counter("missing") == 0

    def test_phase_timers_accumulate(self):
        inst = Instrumentation()
        with inst.phase("work"):
            pass
        with inst.phase("work"):
            pass
        snapshot = inst.snapshot()
        assert snapshot.timers["work"] >= 0.0

    def test_clear(self):
        inst = Instrumentation()
        inst.add("steps", 3)
        inst.clear()
        assert inst.snapshot().counter("steps") == 0

    def test_merge(self):
        a, b = Instrumentation(), Instrumentation()
        a.add("steps", 2)
        b.add("steps", 3)
        b.add("leaps", 1)
        a.merge(b.snapshot())
        snapshot = a.snapshot()
        assert snapshot.counter("steps") == 5
        assert snapshot.counter("leaps") == 1

    def test_snapshot_is_immutable_copy(self):
        inst = Instrumentation()
        inst.add("steps")
        snapshot = inst.snapshot()
        inst.add("steps", 10)
        assert snapshot.counter("steps") == 1
        assert snapshot.as_dict() == {"counters": {"steps": 1}, "timers": {}}

    def test_nested_same_phase_not_double_counted(self):
        # Regression: a re-entered phase name used to add the inner
        # elapsed time twice (once at the inner exit, once more inside
        # the outer exit's elapsed). Only the outermost block counts.
        import time

        inst = Instrumentation()
        with inst.phase("work"):
            start = time.perf_counter()
            with inst.phase("work"):
                while time.perf_counter() - start < 0.01:
                    pass
        assert 0.01 <= inst.timers["work"] < 0.02

    def test_nested_same_phase_triple_depth(self):
        inst = Instrumentation()
        with inst.phase("w"):
            with inst.phase("w"):
                with inst.phase("w"):
                    pass
        # exactly one accumulation, and the depth bookkeeping is clean
        assert list(inst.timers) == ["w"]
        assert inst._phase_depth == {}

    def test_distinct_phases_unaffected(self):
        inst = Instrumentation()
        with inst.phase("outer"):
            with inst.phase("inner"):
                pass
        assert set(inst.timers) == {"outer", "inner"}
        assert inst.timers["outer"] >= inst.timers["inner"]


class TestSchedulerInstrumentation:
    def test_count_run_reports_interactions(self, threshold4):
        result = CountScheduler(threshold4, seed=0).run(6, max_steps=50_000)
        snapshot = result.instrumentation
        assert snapshot is not None
        assert snapshot.counter("interactions") == result.interactions
        assert snapshot.counter("silent_checks") >= 1
        assert snapshot.timers["run"] >= 0.0

    def test_reset_clears_counters(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=0)
        scheduler.run(6, max_steps=50_000)
        scheduler.reset(6)
        assert scheduler.instrumentation.snapshot().counter("interactions") == 0

    def test_batch_run_reports_leaps(self, threshold4):
        result = VectorEnsembleScheduler(threshold4, trials=4, seed=1).run(
            1000, max_parallel_time=5000
        )
        snapshot = result.instrumentation
        assert snapshot is not None
        assert snapshot.counter("leap_calls") >= 1
        assert snapshot.counter("leap_interactions") == result.interactions.sum()
        assert snapshot.counter("interactions") == result.interactions.sum()

    def test_ensemble_aggregates(self, threshold4):
        result = run_ensemble(threshold4, 6, trials=5, max_parallel_time=500, seed=1)
        snapshot = result.instrumentation
        assert snapshot is not None
        assert snapshot.counter("runs") == 5
        assert snapshot.counter("interactions") > 0

    def test_fault_run_reports_counters(self, threshold4):
        result = run_with_faults(threshold4, 8, [crash(0, count=2)], seed=1)
        snapshot = result.instrumentation
        assert snapshot is not None
        assert snapshot.counter("interactions") == result.interactions
        assert snapshot.counter("faults_applied") == result.faults_applied
