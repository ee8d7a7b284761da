"""Tests for the unified correlation timeline (repro.obs.timeline)."""

import json
import math

import pytest

from repro.obs import HistogramSet, LatencyWindows, SloEngine, SloRule, Timeline
from repro.obs.export import parse_prometheus_text


def _fault_breach_recover_clear(timeline):
    """A canonical episode: inject -> breach -> recovery -> clear."""
    inject = timeline.fault_injected(1.0, "disk_failure", disk=2)
    engine = SloEngine([SloRule.parse("degraded_disks < 1")])
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.gauge("degraded_disks", "test").set(1)
    timeline.ingest_slo_events(engine.evaluate(1.5, registry))
    registry.gauge("degraded_disks", "test").set(0)
    timeline.ingest_slo_events(engine.evaluate(2.5, registry))
    timeline.fault_cleared(3.0, inject, resolution="rebuilt")
    return inject


class TestRecording:
    def test_ids_are_stable_and_sequential(self):
        timeline = Timeline()
        first = timeline.record("a.b", 0.0)
        second = timeline.record("c.d", 1.0)
        assert (first.id, second.id) == ("evt-000000", "evt-000001")
        assert timeline.by_id("evt-000001") is second
        assert timeline.by_id("evt-bogus") is None
        assert len(timeline) == 2

    def test_cause_accepts_event_or_id(self):
        timeline = Timeline()
        root = timeline.record("root", 0.0)
        by_event = timeline.record("child", 1.0, cause=root)
        by_id = timeline.record("child", 2.0, cause=root.id)
        assert by_event.cause == by_id.cause == root.id

    def test_max_events_drops_and_counts(self):
        timeline = Timeline(max_events=2)
        timeline.record("a", 0.0)
        timeline.record("b", 1.0)
        overflow = timeline.record("c", 2.0)
        assert overflow.seq == -1
        assert len(timeline) == 2
        assert timeline.dropped == 1
        assert "1 dropped" in timeline.render_report()

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            Timeline(max_events=0)


class TestCorrelation:
    def test_fault_clear_links_to_inject(self):
        timeline = Timeline()
        inject = timeline.fault_injected(1.0, "nvram_loss")
        assert timeline.open_fault_events() == [inject]
        clear = timeline.fault_cleared(2.0, inject, resolution="drained")
        assert clear.cause == inject.id
        assert clear.attrs["fault"] == "nvram_loss"
        assert timeline.open_fault_events() == []

    def test_open_fault_inventory(self):
        """The open ``fault.inject`` events are a fault run's open faults."""
        timeline = Timeline()
        disk = timeline.fault_injected(1.0, "disk_failure", disk=2)
        nvram = timeline.fault_injected(2.0, "nvram_loss")
        assert timeline.fault_counts() == {"disk_failure": 1, "nvram_loss": 1}
        assert timeline.open_fault_events() == [disk, nvram]  # injection order
        assert timeline.open_fault_rows(3.0) == [
            [disk.id, "disk_failure", "2", "2.000"],
            [nvram.id, "nvram_loss", "-", "1.000"],
        ]
        timeline.fault_cleared(4.0, disk, resolution="rebuilt")
        assert timeline.open_fault_events() == [nvram]
        assert timeline.open_fault_rows(5.0) == [[nvram.id, "nvram_loss", "-", "3.000"]]
        # The counts cover every fault injected, cleared or not.
        assert timeline.fault_counts() == {"disk_failure": 1, "nvram_loss": 1}

    def test_breach_cause_is_innermost_open_fault(self):
        timeline = Timeline()
        inject = _fault_breach_recover_clear(timeline)
        (breach,) = timeline.events_of("slo.breach")
        (recovery,) = timeline.events_of("slo.recovery")
        assert breach.cause == inject.id
        assert recovery.cause == breach.id
        chain = timeline.cause_chain(recovery)
        assert [event.kind for event in chain] == [
            "slo.recovery", "slo.breach", "fault.inject",
        ]

    def test_breach_after_clear_falls_back_to_last_fault(self):
        timeline = Timeline()
        inject = timeline.fault_injected(1.0, "disk_failure")
        timeline.fault_cleared(2.0, inject)
        assert timeline.innermost_open_fault() is inject

    def test_rebuild_span_carries_duration(self):
        timeline = Timeline()
        inject = timeline.fault_injected(1.0, "disk_failure", disk=0)
        timeline.rebuild_started(1.5, disk=0, cause=inject)
        finish = timeline.rebuild_finished(4.0, disk=0, stripes=128)
        assert finish.duration_s == pytest.approx(2.5)
        assert timeline.by_id(finish.cause).kind == "rebuild.start"


class TestExports:
    def test_jsonl_is_byte_stable(self):
        timeline = Timeline()
        _fault_breach_recover_clear(timeline)
        timeline.exposure_sample(3.5, windowed_mttdl_h=math.inf, mdlr=float("nan"))
        first = timeline.to_jsonl()
        assert first == timeline.to_jsonl()
        lines = first.strip().split("\n")
        assert len(lines) == len(timeline)
        payloads = [json.loads(line) for line in lines]
        assert [p["seq"] for p in payloads] == list(range(len(timeline)))
        # Strict JSON: infinities stringified, NaN nulled.
        sample = payloads[-1]["attrs"]
        assert sample["windowed_mttdl_h"] == "inf"
        assert sample["mdlr"] is None

    def test_write_jsonl_round_trips(self, tmp_path):
        timeline = Timeline()
        _fault_breach_recover_clear(timeline)
        path = tmp_path / "timeline.jsonl"
        timeline.write_jsonl(path)
        assert path.read_text() == timeline.to_jsonl()

    def test_chrome_trace_has_spans_and_instants(self):
        timeline = Timeline()
        inject = timeline.fault_injected(1.0, "disk_failure", disk=0)
        timeline.rebuild_started(1.5, disk=0, cause=inject)
        timeline.rebuild_finished(4.0, disk=0)
        trace = timeline.chrome_trace()
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert "X" in phases  # the rebuild span
        assert "i" in phases  # the instants

    def test_prometheus_text_parses_with_labels(self):
        timeline = Timeline()
        _fault_breach_recover_clear(timeline)
        parsed = parse_prometheus_text(timeline.prometheus_text())
        labelled = parsed["labelled"]["timeline_events_total"]
        by_kind = {labels["kind"]: value for labels, value in labelled}
        assert by_kind["fault.inject"] == 1
        assert by_kind["slo.breach"] == 1
        assert parsed["samples"]["timeline_open_faults"] == 0

    def test_render_report_tells_the_story(self):
        timeline = Timeline()
        _fault_breach_recover_clear(timeline)
        hold = timeline.record("nemesis.hold", 1.6, track="nemesis", deferred=2)
        timeline.record(
            "nemesis.resume", 2.6, track="nemesis", cause=hold, released=2, held_s=1.0
        )
        report = timeline.render_report(title="Test incident")
        assert report.startswith("# Test incident")
        assert "disk_failure" in report
        assert "cause chain:" in report
        assert "released 2 deferred fault(s)" in report

    def test_empty_report(self):
        assert "No events recorded" in Timeline().render_report()


class TestInvariants:
    def test_clean_episode_has_no_violations(self):
        timeline = Timeline()
        _fault_breach_recover_clear(timeline)
        assert timeline.check_invariants() == []

    def test_time_going_backwards_is_flagged(self):
        timeline = Timeline()
        timeline.record("a", 5.0)
        timeline.record("b", 4.0)
        assert any("backwards" in p for p in timeline.check_invariants())

    def test_breach_without_fault_cause_is_flagged(self):
        timeline = Timeline()
        timeline.record("slo.breach", 1.0, track="slo", rule="x < 1", value=2.0)
        assert any("not cause-linked" in p for p in timeline.check_invariants())

    def test_unclosed_rebuild_is_flagged(self):
        timeline = Timeline()
        timeline.rebuild_started(1.0, disk=3)
        problems = timeline.check_invariants()
        assert any("never closed" in p for p in problems)
        assert any("still open" in p for p in problems)

    def test_unresumed_hold_is_flagged(self):
        timeline = Timeline()
        timeline.record("nemesis.hold", 1.0, track="nemesis")
        assert any("never resumed" in p for p in timeline.check_invariants())

    def test_resume_without_hold_is_flagged(self):
        timeline = Timeline()
        timeline.record("nemesis.resume", 1.0, track="nemesis")
        assert any("without a matching hold" in p for p in timeline.check_invariants())


class TestLatencyWindows:
    def test_windows_diff_cumulative_histograms(self):
        hists = HistogramSet()
        timeline = Timeline()
        windows = LatencyWindows(hists)
        for _ in range(10):
            hists.record("READ", 1e-3)
        (first,) = windows.sample(1.0, timeline)
        assert first.attrs["request_class"] == "READ"
        assert first.attrs["count"] == 10
        assert first.attrs["p50_ms"] == pytest.approx(1.0, rel=0.2)
        # No new traffic: the next window is silent, not a repeat.
        assert windows.sample(2.0, timeline) == []
        for _ in range(4):
            hists.record("READ", 10e-3)
        (second,) = windows.sample(3.0, timeline)
        assert second.attrs["count"] == 4
        assert second.attrs["p95_ms"] == pytest.approx(10.0, rel=0.2)

    def test_class_filter(self):
        hists = HistogramSet()
        hists.record("READ", 1e-3)
        hists.record("WRITE", 1e-3)
        timeline = Timeline()
        windows = LatencyWindows(hists, classes=("WRITE",))
        (event,) = windows.sample(1.0, timeline)
        assert event.attrs["request_class"] == "WRITE"
