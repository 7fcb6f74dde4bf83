"""Unit tests for the telemetry subsystem (events, sinks, façade).

The integration surface — trainer round spans, executor parity, JSONL
artifacts of full runs — lives in ``tests/test_telemetry_integration.py``;
this file pins the building blocks in isolation.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    CLOCK_WALL,
    NULL_TELEMETRY,
    SCHEMA_VERSION,
    UNIT_SECONDS,
    ConsoleSink,
    InMemorySink,
    JSONLSink,
    NullTelemetry,
    Telemetry,
    metric_event,
    read_jsonl,
    resolve_telemetry,
    span_event,
    summarize,
)


class TestEvents:
    def test_span_event_fields(self):
        e = span_event("phase:select", 0.25, round_idx=3, clients=4)
        assert e["type"] == "span"
        assert e["name"] == "phase:select"
        assert e["round"] == 3
        assert e["duration"] == 0.25
        assert e["unit"] == UNIT_SECONDS
        assert e["clock"] == CLOCK_WALL
        assert e["clients"] == 4

    def test_span_event_none_round(self):
        assert span_event("x", 1.0)["round"] is None

    def test_metric_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            metric_event("x", "timer")

    def test_summarize_statistics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s["count"] == 4
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["mean"] == pytest.approx(2.5)
        assert s["p50"] == pytest.approx(2.5)

    def test_summarize_filters_nonfinite_and_none(self):
        s = summarize([1.0, float("nan"), None, float("inf"), 3.0])
        assert s["count"] == 2
        assert s["mean"] == pytest.approx(2.0)

    def test_summarize_empty_is_nan_free(self):
        assert summarize([]) == {"count": 0}
        assert summarize([float("nan")]) == {"count": 0}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-1e150, 1e150),
                st.integers(-3, 3).map(float),  # ties between neighbours
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_summarize_percentiles_are_numpys(self, values):
        """The list interpolation stays bit-equal to ``np.percentile``.

        ``+ 0.0`` folds ``-0.0`` into ``0.0``: which of two equal zeros
        a selection puts first — hence the sign of a zero percentile —
        is the one thing NumPy's partition does not define either.
        """
        values = [v + 0.0 for v in values]
        s = summarize(values)
        reference = np.percentile(values, [50, 90, 95, 99])
        for key, ref in zip(("p50", "p90", "p95", "p99"), reference):
            assert isinstance(s[key], float)
            assert s[key].hex() == float(ref).hex(), (key, values)
        assert s["mean"].hex() == float(np.mean(values)).hex()


class TestInMemorySink:
    def test_collects_and_queries(self):
        sink = InMemorySink()
        t = Telemetry([sink])
        t.record_span("round", 0.1, round_idx=0)
        t.record_span("round", 0.1, round_idx=1)
        t.record_span("phase:select", 0.01, round_idx=1)
        t.metric("train_loss", 2.0, round_idx=1)
        assert len(sink.events) == 4
        assert len(sink.spans()) == 3
        assert len(sink.spans("round")) == 2
        assert sink.rounds() == [0, 1]
        assert sink.metrics("train_loss")[0]["value"] == 2.0

    def test_close_idempotent_single_flush(self):
        sink = InMemorySink()
        sink.close()
        sink.close()
        sink.close()
        assert sink.close_count == 3
        assert sink.flush_count == 1  # only the first close flushes


class TestJSONLSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Telemetry([JSONLSink(str(path))]) as t:
            t.manifest("unit", seed=7, executor="serial",
                       eval_mode="auto", trainer_config={"mu": 1.0})
            t.record_span("round", 0.5, round_idx=0, clients=3)
            t.histogram("drift", [1.0, 2.0], round_idx=0)
        events = read_jsonl(str(path))
        assert [e["type"] for e in events] == ["manifest", "span", "metric"]
        assert events[0]["schema"] == SCHEMA_VERSION
        assert events[0]["trainer_config"]["mu"] == 1.0
        assert events[1]["clients"] == 3
        assert events[2]["count"] == 2

    def test_lazy_open_leaves_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JSONLSink(str(path))
        sink.flush()
        sink.close()
        assert not path.exists()

    def test_numpy_scalars_serialize(self, tmp_path):
        path = tmp_path / "np.jsonl"
        sink = JSONLSink(str(path))
        sink.emit(span_event("x", np.float64(0.5), clients=np.int64(3)))
        sink.close()
        [e] = read_jsonl(str(path))
        assert e["duration"] == 0.5 and e["clients"] == 3

    def test_lines_are_json_dumps_bytes(self, tmp_path):
        """The shared encoder writes what ``json.dumps(default=...)`` wrote."""
        from repro.telemetry.sinks import _json_default

        events = [
            span_event("round", np.float64(0.125), round_idx=2, clients=np.int64(3)),
            metric_event("drift", "histogram", round_idx=2,
                         **summarize([0.1, 0.25, 1e-9, 3.0])),
            {"type": "manifest", "label": "é\u2713", "config": {"mu": 1.0, "k": None},
             "sizes": np.float32(0.5), "nested": [{"a": (1, 2.5e-7)}, True]},
            {"type": "round_record", "loss": float("nan"), "w": float("inf")},
        ]
        path = tmp_path / "bytes.jsonl"
        sink = JSONLSink(str(path))
        for event in events:
            sink.emit(event)
        sink.close()
        expected = "".join(
            json.dumps(e, default=_json_default) + "\n" for e in events
        )
        assert path.read_text() == expected

    def test_emit_after_close_raises(self, tmp_path):
        sink = JSONLSink(str(tmp_path / "c.jsonl"))
        sink.emit(span_event("x", 0.0))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.emit(span_event("y", 0.0))

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"type": "span"}\n\n{"type": "metric"}\n')
        assert len(read_jsonl(str(path))) == 2


class TestConsoleSink:
    def _events(self, n):
        return [span_event("round", 0.1, round_idx=i) for i in range(n)]

    def test_throttles_between_prints(self):
        now = [0.0]
        stream = io.StringIO()
        sink = ConsoleSink(min_interval=1.0, stream=stream,
                           clock=lambda: now[0])
        for e in self._events(5):
            sink.emit(e)          # all at t=0: only the first prints
        assert sink.lines_printed == 1
        now[0] = 1.5
        sink.emit(span_event("round", 0.1, round_idx=5))
        assert sink.lines_printed == 2
        assert sink.events_seen == 6

    def test_manifest_always_prints(self):
        stream = io.StringIO()
        sink = ConsoleSink(min_interval=100.0, stream=stream,
                           clock=lambda: 0.0)
        sink.emit(span_event("round", 0.1, round_idx=0))
        sink.emit({"type": "manifest", "run_id": "r", "label": "l",
                   "executor": "serial"})
        assert sink.lines_printed == 2
        assert "run r" in stream.getvalue()

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            ConsoleSink(min_interval=-1.0)


class TestTelemetryFacade:
    def test_requires_a_sink(self):
        with pytest.raises(ValueError, match="sink"):
            Telemetry([])

    def test_span_context_manager_times_region(self):
        sink = InMemorySink()
        t = Telemetry([sink])
        with t.span("work", round_idx=2, clients=5):
            pass
        [e] = sink.spans("work")
        assert e["round"] == 2
        assert e["clients"] == 5
        assert e["duration"] >= 0.0
        assert e["clock"] == CLOCK_WALL

    def test_span_emits_on_exception(self):
        sink = InMemorySink()
        t = Telemetry([sink])
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert len(sink.spans("boom")) == 1

    def test_close_closes_sinks_exactly_once(self):
        sink = InMemorySink()
        t = Telemetry([sink])
        t.close()
        t.close()
        assert sink.close_count == 1

    def test_fans_out_to_all_sinks(self):
        s1, s2 = InMemorySink(), InMemorySink()
        t = Telemetry([s1, s2])
        t.metric("m", 1.0)
        assert len(s1.events) == len(s2.events) == 1

    def test_run_id_default_and_override(self):
        t = Telemetry([InMemorySink()], run_id="abc")
        assert t.run_id == "abc"
        assert Telemetry([InMemorySink()]).run_id

    def test_resolve_none_is_shared_null(self):
        assert resolve_telemetry(None) is NULL_TELEMETRY

    def test_resolve_passthrough_and_typecheck(self):
        t = Telemetry([InMemorySink()])
        assert resolve_telemetry(t) is t
        with pytest.raises(TypeError, match="telemetry"):
            resolve_telemetry("console")


class TestNullTelemetry:
    def test_disabled_and_shared_span(self):
        null = NullTelemetry()
        assert null.enabled is False
        assert NULL_TELEMETRY.enabled is False
        # the null span is one shared instance across all call sites
        assert null.span("a") is null.span("b")
        assert null.span("a") is NULL_TELEMETRY.span("c")

    def test_all_operations_are_noops(self):
        n = NULL_TELEMETRY
        with n.span("x", round_idx=1, clients=2):
            pass
        n.record_span("x", 1.0)
        n.metric("m", 1.0)
        n.histogram("h", [1.0])
        n.manifest("l", 0, "serial", "auto")
        n.emit({"type": "span"})
        n.flush()
        n.close()
        with n:
            pass  # context manager protocol
