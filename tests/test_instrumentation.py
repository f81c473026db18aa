"""Tests for the metrics objects and the simulators' ``simulate.run`` spans."""

from __future__ import annotations

import pytest

from repro.obs import Instrumentation, RecordingExporter, Tracer, set_tracer
from repro.simulation import CountScheduler, VectorEnsembleScheduler, run_ensemble


@pytest.fixture
def run_spans():
    """A callable returning the ``simulate.run`` spans recorded so far."""
    exporter = RecordingExporter()
    tracer = Tracer([exporter])
    previous = set_tracer(tracer)
    yield lambda: [r for r in exporter.records if r["name"] == "simulate.run"]
    tracer.close()
    set_tracer(previous)


class TestInstrumentation:
    def test_counters_accumulate(self):
        inst = Instrumentation()
        inst.add("steps")
        inst.add("steps", 4)
        assert inst.snapshot() == {"steps": 5}

    def test_clear(self):
        inst = Instrumentation()
        inst.add("steps", 3)
        inst.clear()
        assert inst.snapshot() == {}

    def test_merge(self):
        a, b = Instrumentation(), Instrumentation()
        a.add("steps", 2)
        b.add("steps", 3)
        b.add("leaps", 1)
        a.merge(b.snapshot())
        assert a.snapshot() == {"steps": 5, "leaps": 1}

    def test_snapshot_is_immutable_copy(self):
        inst = Instrumentation()
        inst.add("steps")
        snapshot = inst.snapshot()
        inst.add("steps", 10)
        assert snapshot == {"steps": 1}


class TestSchedulerInstrumentation:
    """A run's counts are recorded once, as ``simulate.run`` span counters."""

    def test_count_run_reports_interactions(self, threshold4, run_spans):
        result = CountScheduler(threshold4, seed=0).run(6, max_steps=50_000)
        (span,) = run_spans()
        assert span["counters"]["interactions"] == result.interactions
        assert span["counters"]["silent_checks"] >= 1
        assert span["attrs"]["converged"] == result.converged

    def test_batch_run_reports_leaps(self, threshold4, run_spans):
        result = VectorEnsembleScheduler(threshold4, trials=4, seed=1).run(
            1000, max_parallel_time=5000
        )
        (span,) = run_spans()
        assert span["counters"]["interactions"] == result.interactions.sum()
        assert span["counters"]["silent_checks"] >= 1
        assert span["attrs"]["trials"] == 4

    def test_ensemble_aggregates(self, threshold4, run_spans):
        result = run_ensemble(threshold4, 6, trials=5, max_parallel_time=500, seed=1)
        spans = run_spans()
        assert len(spans) == result.trials == 5
        assert all(span["counters"]["interactions"] > 0 for span in spans)
