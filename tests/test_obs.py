"""Tests for the observability subsystem (``repro.obs``).

Covers the tracer (nesting, ids, attributes, counters, error
annotation), both exporters round-tripped through ``load_trace``, the
progress heartbeat layer, the metrics registry, and the end-to-end CLI
contract: ``repro analyze --trace`` produces a file that is valid
JSON, records the expected span nesting, and is consumable by
``repro trace summarize``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs import (
    ChromeTraceExporter,
    Instrumentation,
    JsonlExporter,
    NULL_TRACER,
    ProgressMeter,
    RecordingExporter,
    Tracer,
    clear_registry,
    disable_progress,
    enable_progress,
    exporter_for_path,
    get_metrics,
    get_tracer,
    load_trace,
    progress,
    progress_enabled,
    registry_snapshot,
    set_progress_interval,
    set_tracer,
    summarize_trace,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Isolate the module-global tracer/progress/registry per test."""
    previous = set_tracer(None)
    disable_progress()
    clear_registry()
    yield
    set_tracer(previous)
    disable_progress()
    clear_registry()


class TestTracer:
    def test_nesting_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert tracer.finished_spans == 2
        assert outer.duration_us >= inner.duration_us

    def test_span_ids_unique_and_increasing(self):
        tracer = Tracer()
        ids = []
        for _ in range(3):
            with tracer.span("s") as span:
                ids.append(span.span_id)
        assert ids == sorted(set(ids))

    def test_attributes_and_counters(self):
        tracer = Tracer()
        with tracer.span("work", size=4) as span:
            span.set(states=7)
            span.add("rounds")
            span.add("rounds", 2)
        assert span.attributes == {"size": 4, "states": 7}
        assert span.counters == {"rounds": 3}

    def test_exception_annotates_and_closes(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing") as span:
                raise ValueError("boom")
        assert span.attributes["error"] == "ValueError"
        assert span.end_us is not None
        assert tracer.current() is None

    def test_close_finishes_leftover_spans(self):
        tracer = Tracer()
        tracer.span("left-open")
        tracer.span("also-open")
        tracer.close()
        assert tracer.finished_spans == 2
        assert tracer.current() is None

    def test_finished_spans_fold_into_metrics_registry(self):
        tracer = Tracer()
        with tracer.span("fold.me") as span:
            span.add("items", 5)
        with tracer.span("no.counters"):
            pass
        # Counters only: a span's time stays in the span.
        assert get_metrics("spans").counters == {"fold.me.items": 5}

    def test_reentrant_spans_fold_every_counter(self):
        tracer = Tracer()
        with tracer.span("again") as outer:
            outer.add("steps", 2)
            with tracer.span("again") as inner:
                inner.add("steps", 3)
        assert get_metrics("spans").counters == {"again.steps": 5}

    def test_null_tracer_is_default_and_reused(self):
        assert get_tracer() is NULL_TRACER
        span_a = NULL_TRACER.span("anything", k=1)
        span_b = NULL_TRACER.span("else")
        assert span_a is span_b  # shared no-op: no allocation per call
        with span_a as span:
            span.set(x=1)
            span.add("n")
        NULL_TRACER.event("heartbeat")
        NULL_TRACER.close()
        assert NULL_TRACER.current() is None
        assert not NULL_TRACER.enabled

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        assert previous is NULL_TRACER
        assert get_tracer() is tracer
        assert set_tracer(None) is tracer
        assert get_tracer() is NULL_TRACER


class TestExporters:
    def _emit_sample(self, exporter):
        tracer = Tracer([exporter])
        with tracer.span("root", protocol="binary:4", max_input=5):
            with tracer.span("child") as child:
                child.add("steps", 3)
            tracer.event("heartbeat:child", iterations=3)
        tracer.close()

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._emit_sample(JsonlExporter(path))
        lines = [json.loads(line) for line in open(path)]
        assert lines[0] == {"type": "meta", "format": "repro-trace", "version": 1}
        kinds = [line["type"] for line in lines[1:]]
        assert kinds == ["span", "event", "span"]  # child closes before root
        records = load_trace(path)
        assert [r.name for r in records] == ["child", "root"]
        child, root = records
        assert child.parent_id == root.span_id
        assert child.depth == 1 and root.depth == 0
        assert child.counters == {"steps": 3}
        assert root.attributes == {"protocol": "binary:4", "max_input": 5}

    def test_chrome_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        self._emit_sample(ChromeTraceExporter(path))
        document = json.loads(open(path).read())  # must be one valid document
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        phases = [e["ph"] for e in document["traceEvents"]]
        assert phases == ["M", "X", "i", "X"]  # metadata, spans, heartbeat
        records = load_trace(path)
        assert {r.name for r in records} == {"root", "child"}
        child = next(r for r in records if r.name == "child")
        root = next(r for r in records if r.name == "root")
        assert child.parent_id == root.span_id
        assert child.counters == {"steps": 3}
        # An integer attribute stays an attribute: it is not work.
        assert root.attributes == {"protocol": "binary:4", "max_input": 5}
        assert root.counters == {}
        assert root.dur_us >= child.dur_us

    def test_exporter_for_path_dispatches_on_extension(self, tmp_path):
        assert isinstance(
            exporter_for_path(str(tmp_path / "a.jsonl")), JsonlExporter
        )
        assert isinstance(
            exporter_for_path(str(tmp_path / "a.json")), ChromeTraceExporter
        )

    def test_non_jsonable_attributes_coerced(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        with tracer.span("s", config=(1, 2)):
            pass
        tracer.close()
        (record,) = load_trace(path)
        assert record.attributes["config"] == "(1, 2)"


class TestSummarize:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_trace(str(path)) == []
        assert "empty trace" in summarize_trace([])

    def test_self_time_subtracts_children(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        with tracer.span("parent"):
            with tracer.span("kid"):
                pass
        tracer.close()
        records = load_trace(path)
        text = summarize_trace(records)
        assert "2 spans, 2 distinct names, max depth 1" in text
        assert "parent" in text and "kid" in text
        # parent self-time excludes the child's duration
        kid = next(r for r in records if r.name == "kid")
        parent = next(r for r in records if r.name == "parent")
        assert parent.dur_us >= kid.dur_us

    def test_reentrant_names_not_double_counted(self):
        from repro.obs.summary import SpanRecord

        # same name nested: outer 100us contains inner 60us
        records = [
            SpanRecord("loop", 2, 1, 1, 10.0, 60.0),
            SpanRecord("loop", 1, None, 0, 0.0, 100.0),
        ]
        text = summarize_trace(records)
        row = next(line for line in text.splitlines() if line.startswith("loop"))
        # total sums both instances; self removes the nested one exactly once
        assert "0.000s" in row  # 160us total and 100us self both round to 0.000s
        assert " 2 " in row


class TestProgress:
    def test_disabled_returns_shared_null_meter(self):
        assert not progress_enabled()
        meter_a = progress("loop")
        meter_b = progress("other")
        assert meter_a is meter_b
        meter_a.tick()
        meter_a.finish()  # all no-ops

    def test_enabled_returns_real_meter(self):
        stream = io.StringIO()
        enable_progress(stream=stream, interval=0.5)
        assert progress_enabled()
        meter = progress("loop")
        assert isinstance(meter, ProgressMeter)
        assert meter._interval == 0.5

    def test_heartbeat_line_and_trace_event(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        set_tracer(tracer)
        stream = io.StringIO()
        meter = ProgressMeter(
            "karp-miller",
            stats=lambda: {"frontier": 7},
            interval=0.0,
            stride=1,
            stream=stream,
        )
        meter.tick(5)
        tracer.close()
        line = stream.getvalue()
        assert line.startswith("[karp-miller] ")
        assert "5 iterations" in line and "frontier=7" in line
        events = [
            json.loads(raw)
            for raw in open(path)
            if json.loads(raw).get("type") == "event"
        ]
        assert events and events[0]["name"] == "heartbeat:karp-miller"
        assert events[0]["attrs"]["iterations"] == 5
        assert events[0]["attrs"]["frontier"] == 7

    def test_interval_rate_limits(self):
        stream = io.StringIO()
        meter = ProgressMeter("slow", interval=3600.0, stride=1, stream=stream)
        for _ in range(100):
            meter.tick()
        assert stream.getvalue() == ""
        assert meter.heartbeats == 0

    def test_finish_emits_trailing_heartbeat(self):
        stream = io.StringIO()
        meter = ProgressMeter("loop", interval=0.0, stride=1, stream=stream)
        meter.tick()  # first heartbeat
        meter._interval = 3600.0
        meter.tick(10)  # suppressed
        meter.finish()  # flushes the counted-but-unreported ticks
        assert meter.heartbeats == 2
        assert "11 iterations" in stream.getvalue().splitlines()[-1]


class TestMetricsRegistry:
    def test_get_metrics_is_singleton_per_name(self):
        assert get_metrics("sim") is get_metrics("sim")
        assert get_metrics("sim") is not get_metrics("other")
        assert isinstance(get_metrics("sim"), Instrumentation)

    def test_registry_snapshot_and_clear(self):
        get_metrics("a").add("hits", 2)
        snapshot = registry_snapshot()
        assert snapshot["a"] == {"hits": 2}
        get_metrics("a").add("hits")
        assert snapshot["a"] == {"hits": 2}  # a copy, not a view
        clear_registry()
        # identities survive (callers hold references); contents reset
        assert registry_snapshot()["a"] == {}

    def test_worker_delta_merges_counters(self):
        from repro.parallel.merge import merge_registry_delta

        get_metrics("sim").add("tasks")
        merge_registry_delta({"sim": {"tasks": 2, "leaps": 7}, "other": {"hits": 1}})
        assert get_metrics("sim").counters == {"tasks": 3, "leaps": 7}
        assert get_metrics("other").counters == {"hits": 1}


class TestMemorySpans:
    """Tracer(memory=True): per-span tracemalloc peaks, off by default."""

    def test_off_by_default_and_null_tracer_untouched(self):
        import tracemalloc

        tracer = Tracer()
        assert not tracer.memory
        with tracer.span("s") as span:
            pass
        tracer.close()
        assert "mem_peak_kb" not in span.attributes
        assert not tracemalloc.is_tracing()
        assert not NULL_TRACER.memory

    def test_peak_and_net_attributes(self):
        tracer = Tracer(memory=True)
        with tracer.span("alloc") as span:
            blob = [0] * 100_000  # ~800KB, freed before span end
            del blob
        tracer.close()
        assert span.attributes["mem_peak_kb"] > 500
        assert span.attributes["mem_net_kb"] < span.attributes["mem_peak_kb"]

    def test_child_peak_propagates_to_parent(self):
        tracer = Tracer(memory=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                blob = [0] * 200_000
                del blob
            with tracer.span("inner_quiet") as quiet:
                pass
        tracer.close()
        assert inner.attributes["mem_peak_kb"] > 1000
        # the quiet sibling's window started after the blob was freed
        assert quiet.attributes["mem_peak_kb"] < inner.attributes["mem_peak_kb"]
        # the parent's peak covers the child's allocation burst
        assert outer.attributes["mem_peak_kb"] >= inner.attributes["mem_peak_kb"] - 1
        assert outer.duration_us >= inner.duration_us

    def test_close_stops_tracemalloc_it_started(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        tracer = Tracer(memory=True)
        assert tracemalloc.is_tracing()
        tracer.close()
        assert not tracemalloc.is_tracing()

    def test_respects_already_running_tracemalloc(self):
        import tracemalloc

        tracemalloc.start()
        try:
            tracer = Tracer(memory=True)
            with tracer.span("s"):
                pass
            tracer.close()
            # not ours to stop
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_memory_column_in_summary(self, tmp_path):
        path = str(tmp_path / "mem.jsonl")
        tracer = Tracer([JsonlExporter(path)], memory=True)
        with tracer.span("hungry"):
            blob = [0] * 100_000
            del blob
        tracer.close()
        text = summarize_trace(load_trace(path))
        assert "peak mem" in text
        assert "KB" in text or "MB" in text

    def test_no_memory_column_without_memory_spans(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        with tracer.span("s"):
            pass
        tracer.close()
        assert "peak mem" not in summarize_trace(load_trace(path))


class TestRobustSummaries:
    """Orphan spans, truncated files, and the --sort orders."""

    def _orphan_records(self):
        from repro.obs.summary import SpanRecord

        # span 7's parent (99) never made it into the file
        return [
            SpanRecord("root", 1, None, 0, 0.0, 100.0),
            SpanRecord("kid", 2, 1, 1, 10.0, 40.0),
            SpanRecord("orphan", 7, 99, 3, 20.0, 30.0),
        ]

    def test_orphan_spans_summarized_not_keyerror(self):
        text = summarize_trace(self._orphan_records())
        assert "orphan" in text
        assert "1 orphan span (truncated trace?)" in text
        # the root's self time only subtracts its real child
        root_row = next(l for l in text.splitlines() if l.startswith("root"))
        assert "0.000s" in root_row

    def test_truncated_jsonl_tail_skipped(self, tmp_path):
        path = str(tmp_path / "killed.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.close()
        # sever the final line mid-record, as a SIGKILL would
        text = open(path).read().rstrip("\n")
        open(path, "w").write(text[: text.rindex("\n") + 20])
        records = load_trace(path)
        assert [r.name for r in records] == ["inner"]
        summary = summarize_trace(records)
        assert "1 orphan span" in summary

    def test_corrupt_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"type": "span", bad\n{"type": "meta"}\n')
        with pytest.raises(json.JSONDecodeError):
            load_trace(str(path))

    def test_sort_orders(self):
        from repro.obs.summary import SpanRecord

        records = [
            SpanRecord("many_fast", 1, None, 0, 0.0, 10.0),
            SpanRecord("many_fast", 2, None, 0, 20.0, 10.0),
            SpanRecord("many_fast", 3, None, 0, 40.0, 10.0),
            SpanRecord("one_slow", 4, None, 0, 60.0, 500.0),
        ]

        def first_span(text):
            # line 0 header, 1 blank, 2 column names, 3 rule, 4 first row
            return text.splitlines()[4].split()[0]

        assert first_span(summarize_trace(records, sort="total")) == "one_slow"
        assert first_span(summarize_trace(records, sort="self")) == "one_slow"
        assert first_span(summarize_trace(records, sort="count")) == "many_fast"

    def test_invalid_sort_rejected(self):
        with pytest.raises(ValueError, match="sort must be one of"):
            summarize_trace(self._orphan_records(), sort="name")

    def test_cli_sort_flag(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        for _ in range(3):
            with tracer.span("frequent"):
                pass
        with tracer.span("rare"):
            pass
        tracer.close()
        assert main(["trace", "summarize", path, "--sort", "count"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[4].startswith("frequent")


class TestParallelExportRoundTrip:
    """Satellite: both exporter formats of a run containing adopted
    parallel-worker spans re-import to identical per-span totals."""

    def _traced_parallel_run(self, tmp_path):
        from repro.bounds.enumeration import busy_beaver_search

        jsonl_path = str(tmp_path / "par.jsonl")
        chrome_path = str(tmp_path / "par.json")
        tracer = Tracer([JsonlExporter(jsonl_path), ChromeTraceExporter(chrome_path)])
        previous = set_tracer(tracer)
        try:
            busy_beaver_search(2, max_input=6, jobs=2, chunk_size=54)
        finally:
            set_tracer(previous)
            tracer.close()
        return load_trace(jsonl_path), load_trace(chrome_path)

    @staticmethod
    def _normalize(records):
        """Fold int attrs into counters, mirroring the Chrome loader.

        The Chrome ``args`` dict merges attributes and counters, so the
        loader classifies every non-bool int there as a counter; the
        JSONL format keeps them distinct.  Normalising both sides to
        the merged view lets the formats be compared record-for-record.
        """
        from repro.obs.summary import SpanRecord

        normalized = []
        for r in records:
            counters = dict(r.counters)
            attributes = {}
            for key, value in r.attributes.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    counters[key] = counters.get(key, 0) + value
                else:
                    attributes[key] = value
            normalized.append(
                SpanRecord(
                    r.name, r.span_id, r.parent_id, r.depth,
                    r.start_us, r.dur_us, attributes, counters,
                )
            )
        return normalized

    @classmethod
    def _totals(cls, records):
        totals = {}
        for record in cls._normalize(records):
            entry = totals.setdefault(record.name, [0, 0.0, {}])
            entry[0] += 1
            entry[1] += record.dur_us
            for key, value in record.counters.items():
                entry[2][key] = entry[2].get(key, 0) + value
        return {
            name: (count, round(total, 1), counters)
            for name, (count, total, counters) in totals.items()
        }

    def test_formats_agree_span_for_span(self, tmp_path):
        jsonl_records, chrome_records = self._traced_parallel_run(tmp_path)
        assert {r.name for r in jsonl_records} >= {
            "parallel.pool",
            "parallel.task",
            "bounds.busy_beaver.chunk",
        }
        assert self._totals(jsonl_records) == self._totals(chrome_records)

        # identical structure too: same (id, parent, depth) triples
        def shape(records):
            return sorted((r.span_id, r.parent_id, r.depth, r.name) for r in records)

        assert shape(jsonl_records) == shape(chrome_records)

    def test_summaries_identical_across_formats(self, tmp_path):
        jsonl_records, chrome_records = self._traced_parallel_run(tmp_path)
        for sort in ("total", "self", "count"):
            assert summarize_trace(
                self._normalize(jsonl_records), sort=sort
            ) == summarize_trace(self._normalize(chrome_records), sort=sort)


class TestProgressValidation:
    def test_enable_progress_rejects_nonpositive_interval(self):
        for interval in (0, -1.0):
            with pytest.raises(ValueError, match="interval must be > 0"):
                enable_progress(interval=interval)
        assert not progress_enabled()

    def test_cli_rejects_nonpositive_interval(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["analyze", "binary:3", "--progress", "--progress-interval", "-2"]
            )
        assert "must be > 0" in capsys.readouterr().err

    def test_cli_trace_memory_requires_trace(self, capsys):
        with pytest.raises(SystemExit, match="requires --trace"):
            main(["analyze", "binary:3", "--trace-memory"])


class TestCliRoundTrip:
    """End-to-end: --trace from a real analyze run, then summarize it."""

    PIPELINE_SPANS = {
        "coverability.karp_miller",
        "saturation.sequence",
        "stable.slice",
        "pipeline.stable_sequence",
    }

    def _analyze(self, trace_path, capsys):
        code = main(
            ["analyze", "binary:3", "--max-input", "4", "--trace", trace_path]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "spans written to" in err
        return load_trace(trace_path)

    @pytest.mark.parametrize("suffix", ["json", "jsonl"])
    def test_analyze_trace_schema_and_nesting(self, tmp_path, capsys, suffix):
        records = self._analyze(str(tmp_path / f"out.{suffix}"), capsys)
        names = {r.name for r in records}
        # coverability, saturation, and stable-basis phases all present
        assert self.PIPELINE_SPANS <= names
        assert "analyze" in names
        by_id = {r.span_id: r for r in records}
        roots = [r for r in records if r.parent_id is None]
        assert [r.name for r in roots] == ["analyze"]
        for record in records:
            assert record.dur_us >= 0.0
            if record.parent_id is None:
                assert record.depth == 0
                continue
            parent = by_id[record.parent_id]
            assert record.depth == parent.depth + 1
            # child intervals sit inside the parent's
            assert record.start_us >= parent.start_us
            assert record.start_us + record.dur_us <= (
                parent.start_us + parent.dur_us + 1.0  # rounding slack (us)
            )
        km = next(r for r in records if r.name == "coverability.karp_miller")
        assert {"states", "transitions", "node_budget"} <= set(km.attributes) | set(
            km.counters
        )
        assert max(r.depth for r in records) >= 2

    def test_trace_summarize_command(self, tmp_path, capsys):
        trace_path = str(tmp_path / "out.json")
        self._analyze(trace_path, capsys)
        assert main(["trace", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "distinct names" in out
        for name in self.PIPELINE_SPANS:
            assert name in out

    def test_trace_summarize_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["trace", "summarize", str(tmp_path / "nope.json")])

    def test_tracer_restored_after_command(self, tmp_path, capsys):
        self._analyze(str(tmp_path / "out.json"), capsys)
        assert get_tracer() is NULL_TRACER

    def test_simulate_json_carries_seed_and_instrumentation(self, capsys):
        code = main(
            [
                "simulate",
                "binary:3",
                "--input",
                "4",
                "--seed",
                "7",
                "--max-steps",
                "50000",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        assert payload["interactions"] >= 1

    def test_conformance_json_carries_seed_and_instrumentation(self, capsys):
        code = main(
            [
                "conformance",
                "majority",
                "--input",
                "x=3,y=2",
                "--samples",
                "50",
                "--trajectory-seeds",
                "1",
                "--seed",
                "3",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 3


class TestHeartbeatTraceMirroring:
    """Satellite 1: heartbeats reach the trace, stderr never doubles."""

    def test_trace_only_run_gets_real_meter_without_stderr(self, capsys):
        recorder = RecordingExporter()
        set_tracer(Tracer([recorder]))
        assert not progress_enabled()
        meter = progress("loop", stats=lambda: {"frontier": 3})
        assert isinstance(meter, ProgressMeter)
        meter._interval = 0.0
        meter._stride = 1
        meter.tick(5)
        assert capsys.readouterr().err == ""  # no stderr line
        assert len(recorder.events) == 1
        event = recorder.events[0]
        assert event["name"] == "heartbeat:loop"
        assert event["attrs"]["iterations"] == 5
        assert event["attrs"]["frontier"] == 3

    def test_both_sinks_emit_exactly_once_per_window(self):
        recorder = RecordingExporter()
        set_tracer(Tracer([recorder]))
        stream = io.StringIO()
        enable_progress(stream=stream, interval=1.0)
        meter = progress("loop")
        assert meter._emit_stderr is True
        meter._interval = 0.0
        meter._stride = 1
        meter.tick()
        # One rate-limit window: one stderr line AND one trace event,
        # never two of either.
        assert len(stream.getvalue().splitlines()) == 1
        assert len(recorder.events) == 1

    def test_disabled_everything_returns_null_meter(self):
        assert get_tracer() is NULL_TRACER
        assert not progress_enabled()
        meter = progress("loop")
        meter.tick()
        assert not isinstance(meter, ProgressMeter)

    def test_set_progress_interval_paces_trace_only_meters(self):
        set_tracer(Tracer([RecordingExporter()]))
        set_progress_interval(0.25)
        try:
            meter = progress("loop")
            assert meter._interval == 0.25
        finally:
            set_progress_interval(1.0)

    def test_set_progress_interval_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_progress_interval(0.0)
        with pytest.raises(ValueError):
            set_progress_interval(-1.0)


class TestExporterCrashSafety:
    """Satellite 3: every flushed line survives a mid-span kill."""

    def test_jsonl_lines_hit_disk_before_close(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        exporter = JsonlExporter(path)
        tracer = Tracer([exporter])
        with tracer.span("phase"):
            pass
        tracer.event("heartbeat:x", iterations=1)
        # Deliberately no close(): the process could be SIGKILLed here.
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        kinds = [line["type"] for line in lines]
        assert kinds == ["meta", "span", "event"]

    def test_summarize_tolerates_mid_span_kill(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer([JsonlExporter(path)])
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.close()
        # Simulate a kill mid-write: append half a JSON line, and drop
        # the outer span as if it never got flushed.
        content = open(path).read().splitlines()
        spans = [line for line in content if '"type": "span"' in line]
        kept = [line for line in content if "outer" not in line]
        with open(path, "w") as handle:
            handle.write("\n".join(kept) + "\n")
            handle.write('{"type": "span", "name": "trunc')
        records = load_trace(path)
        assert [r.name for r in records] == ["inner"]
        rendered = summarize_trace(records)
        assert "orphan span" in rendered  # parent missing, reported not fatal
        assert len(spans) == 2

    def test_run_events_tolerate_truncated_tail(self):
        from repro.obs.summary import parse_jsonl

        complete = (
            json.dumps({"type": "event", "name": "run-start"}) + "\n"
            + json.dumps({"type": "event", "name": "heartbeat:x"}) + "\n"
        )
        records = parse_jsonl(complete + '{"type": "event", "name": "half')
        assert [record["name"] for record in records] == ["run-start", "heartbeat:x"]

    def test_only_the_cut_tail_is_forgiven(self):
        from repro.obs.summary import parse_jsonl

        # A malformed line that ends in a newline was not cut by a kill:
        # mid-stream or last, the stream is corrupt.
        for text in ('{"a": 1}\n{"b\n{"c": 3}\n', '{"a": 1}\n{"b\n'):
            with pytest.raises(ValueError, match="line 2 column"):
                parse_jsonl(text)
