"""Differential serial-vs-parallel suite for :mod:`repro.parallel`.

The backend's contract is that ``jobs=1`` (the in-process reference
path) and any ``jobs>1``/chunk-size combination produce bit-identical
results and identical merged counters.  Nothing here tests *speed* —
benchmark E13 may only claim a speedup because these tests pin the
semantics first.

Layout:

* chunking and merging — unit cases plus property tests over
  arbitrary partitions (``repro.testing.partitions``);
* ``run_tasks`` — ordering, metrics-delta merging, worker event shards
  re-emitted through the parent's tracer in task order;
* the three wired sweeps (busy-beaver enumeration, conformance,
  simulation batches) — serial vs parallel at several worker counts,
  and the one seeding rule of the simulation sweeps (trial ``t`` runs
  under ``seed + t``);
* CLI artifacts — golden ``conformance --jobs 2 --json`` output and a
  ``trace summarize`` pass over a parallel trace.
"""

import json
import math
import os
import re
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.enumeration import (
    BusyBeaverChunk,
    all_deterministic_protocols,
    busy_beaver_search,
    count_deterministic_protocols,
    fold_threshold_candidates,
    merge_busy_beaver_chunks,
    protocol_at,
)
from repro.cli import main
from repro.obs import (
    Instrumentation,
    RecordingExporter,
    Tracer,
    get_metrics,
    get_tracer,
    load_trace,
    registry_snapshot,
    set_tracer,
    summarize_trace,
)
from repro.parallel import (
    TaskEnvelope,
    chunk_ranges,
    default_chunk_size,
    resolve_jobs,
    run_tasks,
    worker_pool,
)
from repro.protocols import approximate_majority, binary_threshold
from repro.simulation import CountScheduler
from repro.simulation.conformance import check_conformance
from repro.simulation.convergence import ConvergenceStats, measure_convergence
from repro.simulation.ensembles import run_ensemble
from repro.testing import instrumentation_snapshots, partitions

# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------


class TestChunking:
    def test_chunk_ranges_cover(self):
        assert chunk_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_ranges(0, 3) == []
        assert chunk_ranges(3, 10) == [(0, 3)]

    def test_chunk_ranges_validation(self):
        with pytest.raises(ValueError):
            chunk_ranges(10, 0)
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)

    def test_default_chunk_size_serial_is_one_chunk(self):
        assert default_chunk_size(100, 1) == 100
        assert default_chunk_size(0, 1) == 1

    def test_default_chunk_size_parallel_splits(self):
        size = default_chunk_size(100, 4)
        assert 1 <= size < 100
        assert len(chunk_ranges(100, size)) >= 4

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    @given(st.integers(0, 200), st.integers(1, 50))
    def test_chunk_ranges_partition_exactly(self, total, chunk_size):
        ranges = chunk_ranges(total, chunk_size)
        covered = [i for start, stop in ranges for i in range(start, stop)]
        assert covered == list(range(total))
        assert all(stop - start <= chunk_size for start, stop in ranges)


# ----------------------------------------------------------------------
# run_tasks
# ----------------------------------------------------------------------


def _echo_task(task: TaskEnvelope):
    """Module-level (picklable) task: report what the worker saw."""
    get_metrics("parallel.test").add("tasks.run")
    return (task.index, task.payload)


def _probe_task(task: TaskEnvelope):
    """Module-level task emitting ``payload`` deterministic instant events."""
    for i in range(task.payload):
        get_tracer().event("probe", i=i)
    return task.index


def _fail_first_task(task: TaskEnvelope):
    """Module-level task: task 0 fails at once, the others take a while."""
    directory, index = task.payload
    if index == 0:
        raise RuntimeError("task 0 failed")
    time.sleep(0.2)
    open(os.path.join(directory, str(index)), "w").close()
    return index


class TestRunTasks:
    def test_inline_matches_pool(self):
        payloads = [f"item-{i}" for i in range(7)]
        serial = run_tasks(_echo_task, payloads, jobs=1)
        pooled = run_tasks(_echo_task, payloads, jobs=3)
        assert [e.value for e in serial] == [e.value for e in pooled]

    def test_results_in_task_order(self):
        envelopes = run_tasks(_echo_task, list(range(11)), jobs=2)
        assert [e.index for e in envelopes] == list(range(11))
        assert [e.value[0] for e in envelopes] == list(range(11))

    def test_worker_metrics_merge_into_parent(self):
        get_metrics("parallel.test").clear()
        run_tasks(_echo_task, list(range(6)), jobs=2)
        assert registry_snapshot()["parallel.test"] == {"tasks.run": 6}
        get_metrics("parallel.test").clear()

    @pytest.mark.parametrize("shared", [False, True])
    def test_an_exception_cancels_the_queued_tasks(self, tmp_path, shared):
        payloads = [(str(tmp_path), index) for index in range(40)]
        with pytest.raises(RuntimeError, match="task 0 failed"):
            if shared:
                with worker_pool(2) as executor:
                    run_tasks(_fail_first_task, payloads, jobs=2, executor=executor)
            else:
                run_tasks(_fail_first_task, payloads, jobs=2)
        # Only the tasks already handed to a worker ran.
        assert len(os.listdir(tmp_path)) < 20

    def test_worker_events_adopted_in_task_order(self):
        exporter = RecordingExporter()
        tracer = Tracer([exporter])
        previous = set_tracer(tracer)
        try:
            envelopes = run_tasks(_probe_task, [3, 1, 4, 2], jobs=2)
        finally:
            set_tracer(previous)
            tracer.close()
        probes = [event for event in exporter.events if event["name"] == "probe"]
        # Every task's events, task by task, whichever worker finished first.
        assert [(e["attrs"]["task"], e["attrs"]["i"]) for e in probes] == [
            (task, i) for task, count in enumerate([3, 1, 4, 2]) for i in range(count)
        ]
        pids = {envelope.index: envelope.worker_pid for envelope in envelopes}
        assert all(e["attrs"]["worker_pid"] == pids[e["attrs"]["task"]] for e in probes)
        assert all(pid != os.getpid() for pid in pids.values())


# ----------------------------------------------------------------------
# Merging — property tests over arbitrary partitions
# ----------------------------------------------------------------------


class TestMergeProperties:
    @settings(deadline=None)
    @given(
        st.lists(st.integers(2, 6), max_size=30).map(
            lambda etas: [(f"p{i}", eta) for i, eta in enumerate(etas)]
        ),
        st.data(),
    )
    def test_busy_beaver_merge_equals_serial_fold(self, candidates, data):
        """Chunking the candidate stream anywhere must not change the fold."""
        max_witnesses = data.draw(st.integers(1, 4))
        parts = data.draw(partitions(len(candidates))) if candidates else []
        chunks = []
        for start, stop in parts:
            best, witnesses, count = fold_threshold_candidates(
                candidates[start:stop], max_witnesses=8
            )
            chunks.append(
                BusyBeaverChunk(
                    start=start, stop=stop, best_eta=best,
                    witnesses=witnesses, threshold_protocols=count,
                )
            )
        merged = merge_busy_beaver_chunks(chunks, max_witnesses)
        assert merged == fold_threshold_candidates(candidates, max_witnesses)

    @settings(deadline=None)
    @given(st.lists(instrumentation_snapshots(), max_size=12), st.data())
    def test_snapshot_merge_is_partition_invariant(self, snapshots, data):
        """``Instrumentation.merge``, the fold a worker's registry delta
        goes through, gives one total however the deltas are grouped."""

        def fold(parts):
            merged = Instrumentation()
            for part in parts:
                merged.merge(part)
            return merged.snapshot()

        parts = data.draw(partitions(len(snapshots))) if snapshots else []
        piecewise = fold(fold(snapshots[start:stop]) for start, stop in parts)
        assert piecewise == fold(snapshots)


# ----------------------------------------------------------------------
# Enumeration: random access + differential busy-beaver
# ----------------------------------------------------------------------


class TestEnumeration:
    def test_protocol_at_matches_generator_n2(self):
        total = count_deterministic_protocols(2)
        generated = list(all_deterministic_protocols(2))
        assert len(generated) == total
        for index, expected in enumerate(generated):
            actual = protocol_at(2, index)
            assert actual.name == expected.name
            assert actual.transitions == expected.transitions
            assert actual.output == expected.output
            assert actual.input_mapping == expected.input_mapping

    def test_protocol_at_bounds(self):
        with pytest.raises(ValueError):
            protocol_at(2, count_deterministic_protocols(2))
        with pytest.raises(ValueError):
            protocol_at(2, -1)

    @pytest.mark.parametrize("jobs,chunk_size", [(2, None), (3, 7), (4, 1)])
    def test_busy_beaver_differential(self, jobs, chunk_size):
        serial = busy_beaver_search(2, max_input=6)
        parallel = busy_beaver_search(2, max_input=6, jobs=jobs, chunk_size=chunk_size)
        assert parallel == serial

    def test_budget_respected_with_jobs(self):
        serial = busy_beaver_search(2, max_input=6, enumeration_budget=50)
        parallel = busy_beaver_search(2, max_input=6, enumeration_budget=50, jobs=2)
        assert parallel == serial
        assert serial.protocols_enumerated == 51  # historical budget+1 tally

    def test_max_witnesses_cap(self):
        with pytest.raises(ValueError):
            busy_beaver_search(2, max_witnesses=9)

    @pytest.mark.parametrize("max_witnesses", [0, -1])
    def test_max_witnesses_floor(self, max_witnesses):
        # regression: a new best reset the list to one witness whatever the cap
        with pytest.raises(ValueError):
            busy_beaver_search(2, max_witnesses=max_witnesses)


# ----------------------------------------------------------------------
# Conformance, ensembles, convergence — differential
# ----------------------------------------------------------------------


def _normalized_conformance(report):
    payload = report.to_dict()
    payload["jobs"] = None
    return payload


class TestSweepDifferentials:
    @pytest.fixture(scope="class")
    def protocol(self):
        return binary_threshold(4)

    def test_conformance(self, protocol):
        reports = [
            check_conformance(
                protocol, 6, samples=200, trajectory_seeds=(0, 1), jobs=jobs,
            )
            for jobs in (1, 2, 4)
        ]
        baseline = _normalized_conformance(reports[0])
        for report in reports[1:]:
            assert _normalized_conformance(report) == baseline
        assert reports[0].ok

    def test_conformance_jobs_recorded(self, protocol):
        report = check_conformance(protocol, 6, samples=100, trajectory_seeds=(0,), jobs=2)
        assert report.jobs == 2
        assert report.to_dict()["jobs"] == 2

    @pytest.mark.parametrize("jobs,chunk_size", [(2, None), (3, 4), (4, 1)])
    def test_ensemble(self, protocol, jobs, chunk_size):
        serial = run_ensemble(protocol, 9, trials=10, seed=7)
        parallel = run_ensemble(
            protocol, 9, trials=10, seed=7, jobs=jobs, chunk_size=chunk_size
        )
        assert parallel.verdicts == serial.verdicts
        assert parallel.converged == serial.converged
        assert parallel.parallel_times == serial.parallel_times

    def test_convergence(self, protocol):
        serial = measure_convergence(protocol, 9, trials=8, seed=3)
        for jobs, chunk_size in [(2, None), (3, 2)]:
            parallel = measure_convergence(
                protocol, 9, trials=8, seed=3, jobs=jobs, chunk_size=chunk_size
            )
            assert parallel == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trial_t_runs_under_seed_plus_t(self, jobs):
        """The one seeding rule of the count-engine sweeps.

        Trial ``t`` of a sweep seeded ``seed`` is exactly the run of
        ``CountScheduler(protocol, seed=seed + t)``, whichever worker
        runs it.  A near-tie approximate majority under a short budget
        gives both verdicts and unconverged trials.
        """
        protocol = approximate_majority()
        inputs, seed, trials = {"x": 6, "y": 5}, 11, 8
        population = protocol.initial_configuration(inputs).size

        def runs(max_steps):
            return [
                CountScheduler(protocol, seed=seed + t).run(inputs, max_steps=max_steps)
                for t in range(trials)
            ]

        reference = runs(math.ceil(3.0 * population))
        ensemble = run_ensemble(
            protocol, inputs, trials=trials, max_parallel_time=3.0, seed=seed, jobs=jobs
        )
        verdicts = [protocol.output_of(r.configuration) for r in reference]
        assert ensemble.verdicts == {v: verdicts.count(v) for v in verdicts}
        assert ensemble.converged == sum(r.converged for r in reference)
        assert ensemble.parallel_times == tuple(
            r.parallel_time for r in reference if r.converged
        )
        assert 0 < ensemble.converged < trials and len(ensemble.verdicts) > 1

        reference = runs(4 * population)
        times = [r.parallel_time for r in reference]
        assert measure_convergence(
            protocol, inputs, trials=trials, max_steps_factor=4, seed=seed, jobs=jobs
        ) == ConvergenceStats(
            population=population,
            trials=trials,
            mean_parallel_time=statistics.fmean(times),
            stdev_parallel_time=statistics.stdev(times),
            max_parallel_time=max(times),
            all_converged=all(r.converged for r in reference),
        )


# ----------------------------------------------------------------------
# CLI artifacts
# ----------------------------------------------------------------------


# golden file -> the `conformance` arguments that print it
GOLDEN_CONFORMANCE = {
    "conformance_jobs2.json": [
        "binary:4", "--input", "6", "--samples", "200", "--trajectory-seeds", "2",
    ],
    "conformance_jobs2_majority.json": [
        "majority", "--input", "x=5,y=3", "--samples", "600", "--trajectory-seeds", "2",
    ],
    "conformance_jobs2_approx_majority.json": [
        "approx-majority", "--samples", "600", "--trajectory-seeds", "3",
    ],
}


class TestCliArtifacts:
    def test_conformance_golden(self, capsys):
        for name, argv in GOLDEN_CONFORMANCE.items():
            code = main(["conformance", *argv, "--jobs", "2", "--json"])
            assert code == 0, name
            payload = json.loads(capsys.readouterr().out)
            with open(os.path.join(os.path.dirname(__file__), "golden", name)) as handle:
                golden = json.load(handle)
            assert payload == golden, name

    def test_conformance_json_embeds_seed_and_jobs(self, capsys):
        code = main(
            [
                "conformance", "binary:4", "--input", "6", "--samples", "100",
                "--trajectory-seeds", "1", "--seed", "11", "--jobs", "2", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 11
        assert payload["jobs"] == 2

    def test_simulate_trials_json_embeds_root_seed(self, capsys):
        code = main(
            ["simulate", "binary:4", "--input", "9", "--trials", "6",
             "--jobs", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 0  # default root seed, made explicit
        assert payload["jobs"] == 2
        assert payload["trials"] == 6

    def test_simulate_trials_differential(self, capsys):
        payloads = []
        for jobs in ("1", "2"):
            assert main(
                ["simulate", "binary:4", "--input", "9", "--trials", "6",
                 "--seed", "5", "--jobs", jobs, "--json"]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            payload["jobs"] = None
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_bb_golden(self, capsys):
        """`bb --json` prints the same result at jobs 1 and 2, and the golden's.

        The golden holds the output of the enumeration that built every
        protocol before deciding it, minus the ``jobs`` field.
        """
        with open(os.path.join(os.path.dirname(__file__), "golden", "bb_json.json")) as handle:
            golden = json.load(handle)
        for command, expected in golden.items():
            for jobs in ("1", "2"):
                assert main([*command.split(), "--jobs", jobs, "--json"]) == 0
                payload = json.loads(capsys.readouterr().out)
                assert payload.pop("jobs") == int(jobs)
                assert payload == expected, (command, jobs)

    def test_bb_json(self, capsys):
        code = main(["bb", "2", "--max-input", "6", "--jobs", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta"] == 2
        assert payload["jobs"] == 2
        assert payload["protocols_enumerated"] == 216


# ----------------------------------------------------------------------
# Traces from parallel runs
# ----------------------------------------------------------------------


class TestParallelTraces:
    def test_worker_spans_adopted(self):
        exporter = RecordingExporter()
        tracer = Tracer([exporter])
        previous = set_tracer(tracer)
        try:
            busy_beaver_search(2, max_input=6, jobs=2, chunk_size=54)
        finally:
            set_tracer(previous)
            tracer.close()
        records = exporter.records
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert "parallel.pool" in by_name
        assert "parallel.task" in by_name
        assert "bounds.busy_beaver.chunk" in by_name
        # Each adopted chunk span hangs off a parallel.task container,
        # which hangs off the pool span: no orphans, no cycles.
        ids = {record["id"] for record in records}
        pool = by_name["parallel.pool"][0]
        for task in by_name["parallel.task"]:
            assert task["parent"] == pool["id"]
            assert task["depth"] == pool["depth"] + 1
        task_ids = {record["id"] for record in by_name["parallel.task"]}
        for chunk in by_name["bounds.busy_beaver.chunk"]:
            assert chunk["parent"] in task_ids
            assert chunk["parent"] in ids

    def test_trace_summarize_parallel(self, tmp_path, capsys):
        trace = tmp_path / "parallel.jsonl"
        code = main(
            ["bb", "2", "--max-input", "6", "--jobs", "2",
             "--chunk-size", "54", "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        records = load_trace(str(trace))
        summary = summarize_trace(records)
        assert "parallel.task" in summary
        assert "bounds.busy_beaver.chunk" in summary
        # Self-time is computed from parent links; adopted spans must
        # not drive any row negative.
        assert not re.search(r"-\d", summary), summary
