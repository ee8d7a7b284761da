"""The unified correlation timeline: every observability stream, one log.

The repo already produces half a dozen event streams — fault injections
and clears (:mod:`repro.faults`), SLO breach/recovery instants
(:class:`~repro.obs.slo.SloEngine`), rebuild start/finish spans
(:class:`~repro.ext.rebuild.RebuildManager`), windowed achieved-MTTDL /
MDLR samples (:class:`~repro.obs.exposure.WindowedExposureEstimator`),
and rolling latency percentiles (:mod:`repro.obs.hist`).  Each is useful
alone; none answers the question continuous chaos actually poses: *what
caused what?*

:class:`Timeline` is the hub that merges them into one ordered event log
with stable ids (``evt-000042``) and **cause links**: a breach event
points at the innermost open fault, a recovery at its breach, a rebuild
finish at its start, a nemesis hold at the breach that gated it — so the
fault → exposure spike → breach → rebuild → recovery chain is a walk up
the ``cause`` pointers.  Exports:

* :meth:`write_jsonl` — one sorted-keys JSON object per event,
  byte-stable for a given run (CI diffs same-seed reruns);
* :meth:`chrome_trace` / :meth:`write_chrome` — the Chrome trace-event
  format, by replaying the events through an ordinary
  :class:`~repro.obs.tracer.Tracer` bound to a replay clock;
* :meth:`prometheus_text` — labelled ``timeline_events_total{kind=...}``
  counters (escaped via :mod:`repro.obs.export`);
* :meth:`render_report` — a human-readable markdown incident report;
* :meth:`check_invariants` — the structural claims a sound run must
  satisfy (every breach cause-linked to a fault, every rebuild span
  closed, holds and resumes paired), which the CI soak fails on.

Recording is a list append under one lock — cheap enough for the service
daemon's wall-clock events and the nemesis loop's sim-time events alike.
The timeline never reads a clock itself: callers stamp every event, so
sim-side timelines are deterministic for a (seed, spec) pair.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
import typing

from repro.obs.export import escape_label_value
from repro.obs.hist import HistogramSet, LatencyHistogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.slo import SloEvent
    from repro.obs.tracer import Tracer

#: Tracks events are grouped under (one Perfetto row each).
TRACKS = ("faults", "slo", "rebuild", "nemesis", "exposure", "latency", "service")


@dataclasses.dataclass(frozen=True)
class TimelineEvent:
    """One correlated event; immutable once recorded."""

    seq: int
    time_s: float
    kind: str  # dotted: fault.inject, slo.breach, rebuild.finish, ...
    track: str
    cause: str | None = None  # id of the event that caused this one
    duration_s: float | None = None  # spans (rebuild.finish) carry their length
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def id(self) -> str:
        return f"evt-{self.seq:06d}"

    def to_payload(self) -> dict:
        """The JSONL object; strict JSON (infinities become ``"inf"``)."""
        payload = {
            "id": self.id,
            "seq": self.seq,
            "time_s": self.time_s,
            "kind": self.kind,
            "track": self.track,
            "cause": self.cause,
            "attrs": {key: _json_safe(value) for key, value in self.attrs.items()},
        }
        if self.duration_s is not None:
            payload["duration_s"] = self.duration_s
        return payload


def _json_safe(value):
    if isinstance(value, float):
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        if value != value:  # NaN
            return None
    return value


class _ReplayClock:
    """A duck-typed ``sim`` for :class:`Tracer`: just a settable ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


class Timeline:
    """Ordered, correlated event log with stable ids and cause links."""

    def __init__(self, max_events: int = 1_000_000) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.events: list[TimelineEvent] = []
        self.dropped = 0
        self._lock = threading.Lock()
        # Correlation state (all keyed by event objects / ids):
        self._open_faults: list[TimelineEvent] = []  # innermost last
        self._last_fault: TimelineEvent | None = None
        self._open_breaches: dict[str, TimelineEvent] = {}  # rule text -> breach
        self._open_rebuilds: dict[int, TimelineEvent] = {}  # disk -> start

    def __getstate__(self) -> dict:
        # A lock does not pickle: a loaded timeline gets a fresh one.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------------

    def record(
        self,
        kind: str,
        time_s: float,
        track: str = "main",
        cause: "TimelineEvent | str | None" = None,
        duration_s: float | None = None,
        **attrs,
    ) -> TimelineEvent:
        """Append one event; returns it (its id is the correlation handle)."""
        cause_id = cause.id if isinstance(cause, TimelineEvent) else cause
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped += 1
                return TimelineEvent(
                    seq=-1, time_s=time_s, kind=kind, track=track,
                    cause=cause_id, duration_s=duration_s, attrs=attrs,
                )
            event = TimelineEvent(
                seq=len(self.events), time_s=time_s, kind=kind, track=track,
                cause=cause_id, duration_s=duration_s, attrs=attrs,
            )
            self.events.append(event)
        return event

    # -- correlation-aware ingest helpers ---------------------------------------------

    def fault_injected(self, time_s: float, fault: str, **attrs) -> TimelineEvent:
        """A fault went live; returns the inject event (the clear's cause)."""
        event = self.record("fault.inject", time_s, track="faults", fault=fault, **attrs)
        if event.seq >= 0:
            self._open_faults.append(event)
            self._last_fault = event
        return event

    def fault_cleared(
        self, time_s: float, inject: TimelineEvent, **attrs
    ) -> TimelineEvent:
        """The fault injected by ``inject`` is resolved."""
        self._open_faults = [e for e in self._open_faults if e.seq != inject.seq]
        return self.record(
            "fault.clear", time_s, track="faults", cause=inject,
            fault=inject.attrs.get("fault"), **attrs,
        )

    def open_fault_events(self) -> list[TimelineEvent]:
        """Currently-open fault.inject events, outermost first."""
        return list(self._open_faults)

    def innermost_open_fault(self) -> TimelineEvent | None:
        return self._open_faults[-1] if self._open_faults else self._last_fault

    def ingest_slo_events(self, crossings: "typing.Sequence[SloEvent]") -> list[TimelineEvent]:
        """Fold :class:`~repro.obs.slo.SloEvent` crossings in, cause-linked.

        A breach's cause is the innermost open fault (falling back to the
        most recent fault ever injected — the exposure it created can
        outlive its clear); a recovery's cause is its own breach event.
        """
        recorded = []
        for crossing in crossings:
            rule_text = crossing.rule.describe()
            if crossing.kind == "breach":
                event = self.record(
                    "slo.breach", crossing.time_s, track="slo",
                    cause=self.innermost_open_fault(),
                    rule=rule_text, value=crossing.value,
                )
                self._open_breaches[rule_text] = event
            else:
                event = self.record(
                    "slo.recovery", crossing.time_s, track="slo",
                    cause=self._open_breaches.pop(rule_text, None),
                    rule=rule_text, value=crossing.value,
                )
            recorded.append(event)
        return recorded

    def open_breach_events(self) -> list[TimelineEvent]:
        """Currently-open slo.breach events, in breach order."""
        return sorted(self._open_breaches.values(), key=lambda event: event.seq)

    def rebuild_started(
        self, time_s: float, disk: int, cause: "TimelineEvent | None" = None, **attrs
    ) -> TimelineEvent:
        event = self.record(
            "rebuild.start", time_s, track="rebuild", cause=cause, disk=disk, **attrs
        )
        if event.seq >= 0:
            self._open_rebuilds[disk] = event
        return event

    def rebuild_finished(self, time_s: float, disk: int, **attrs) -> TimelineEvent:
        start = self._open_rebuilds.pop(disk, None)
        duration = None if start is None else time_s - start.time_s
        return self.record(
            "rebuild.finish", time_s, track="rebuild", cause=start,
            duration_s=duration, disk=disk, **attrs,
        )

    def exposure_sample(self, time_s: float, **metrics) -> TimelineEvent:
        """One windowed achieved-MTTDL/MDLR sample."""
        return self.record("exposure.sample", time_s, track="exposure", **metrics)

    def latency_window(self, time_s: float, request_class: str, **stats) -> TimelineEvent:
        """One rolling latency-percentile window for ``request_class``."""
        return self.record(
            "latency.window", time_s, track="latency", request_class=request_class, **stats
        )

    # -- queries --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> dict[str, int]:
        """Event counts by kind (insertion-ordered by first occurrence)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def events_of(self, *kinds: str) -> list[TimelineEvent]:
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    def by_id(self, event_id: str) -> TimelineEvent | None:
        try:
            seq = int(event_id.split("-")[-1])
        except ValueError:
            return None
        if 0 <= seq < len(self.events):
            return self.events[seq]
        return None

    def cause_chain(self, event: TimelineEvent) -> list[TimelineEvent]:
        """``event`` and its transitive causes, effect first."""
        chain = [event]
        seen = {event.seq}
        while chain[-1].cause is not None:
            parent = self.by_id(chain[-1].cause)
            if parent is None or parent.seq in seen:
                break
            chain.append(parent)
            seen.add(parent.seq)
        return chain

    # -- exports --------------------------------------------------------------------

    def to_payloads(self) -> list[dict]:
        with self._lock:
            events = list(self.events)
        return [event.to_payload() for event in events]

    def to_jsonl(self) -> str:
        """Byte-stable JSONL: sorted keys, one event per line."""
        lines = [
            json.dumps(payload, sort_keys=True) for payload in self.to_payloads()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def to_tracer(self, max_records: int | None = None) -> "Tracer":
        """Replay the timeline into a :class:`~repro.obs.tracer.Tracer`.

        Events with a duration become spans, the rest instants; the
        tracer's Chrome export then renders tracks as Perfetto rows for
        free.  The ``cause`` link rides along in the args.
        """
        from repro.obs.tracer import Tracer

        clock = _ReplayClock()
        tracer = Tracer(
            sim=clock,  # type: ignore[arg-type] - only .now is read
            max_records=max_records if max_records is not None else max(len(self.events), 1),
        )
        for event in self.events:
            args = {"id": event.id, **event.attrs}
            if event.cause is not None:
                args["cause"] = event.cause
            if event.duration_s is not None:
                tracer.complete(
                    event.kind, start_s=event.time_s - event.duration_s,
                    duration_s=event.duration_s, track=event.track,
                    category="timeline", **args,
                )
            else:
                clock.now = event.time_s
                tracer.instant(event.kind, track=event.track, category="timeline", **args)
        return tracer

    def chrome_trace(self) -> dict:
        return self.to_tracer().chrome_trace()

    def write_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)

    def prometheus_text(self, prefix: str = "timeline") -> str:
        """Labelled counters over the event log, exposition-format escaped."""
        lines = [
            f"# HELP {prefix}_events_total correlated timeline events by kind",
            f"# TYPE {prefix}_events_total counter",
        ]
        for kind, count in sorted(self.kinds().items()):
            lines.append(
                f'{prefix}_events_total{{kind="{escape_label_value(kind)}"}} {count}'
            )
        lines.append(f"# HELP {prefix}_open_faults faults injected but not yet cleared")
        lines.append(f"# TYPE {prefix}_open_faults gauge")
        lines.append(f"{prefix}_open_faults {len(self._open_faults)}")
        lines.append(f"# HELP {prefix}_events_dropped events over the memory bound")
        lines.append(f"# TYPE {prefix}_events_dropped counter")
        lines.append(f"{prefix}_events_dropped {self.dropped}")
        lines.append("")
        return "\n".join(lines)

    # -- the incident report ----------------------------------------------------------

    def render_report(self, title: str = "Incident report") -> str:
        """A markdown incident report: totals, fault episodes, breach
        chains, holds — the run's story in causal order."""
        lines = [f"# {title}", ""]
        if not self.events:
            lines.append("No events recorded.")
            return "\n".join(lines) + "\n"
        lines.append(
            f"{len(self.events)} events over "
            f"[{self.events[0].time_s:.3f}s, {self.events[-1].time_s:.3f}s]"
            + (f" ({self.dropped} dropped)" if self.dropped else "")
        )
        lines.append("")
        lines.append("## Event counts")
        lines.append("")
        for kind, count in sorted(self.kinds().items()):
            lines.append(f"- `{kind}`: {count}")

        injects = self.events_of("fault.inject")
        if injects:
            lines.append("")
            lines.append("## Fault episodes")
            lines.append("")
            clears = {event.cause: event for event in self.events_of("fault.clear")}
            for inject in injects:
                clear = clears.get(inject.id)
                detail = ", ".join(
                    f"{key}={value}" for key, value in inject.attrs.items() if key != "fault"
                )
                line = (
                    f"- [{inject.id}] t={inject.time_s:.3f}s "
                    f"**{inject.attrs.get('fault')}**"
                )
                if detail:
                    line += f" ({detail})"
                if clear is not None:
                    line += (
                        f" -> cleared t={clear.time_s:.3f}s "
                        f"(open {clear.time_s - inject.time_s:.3f}s)"
                    )
                else:
                    line += " -> **still open**"
                lines.append(line)

        breaches = self.events_of("slo.breach")
        if breaches:
            lines.append("")
            lines.append("## SLO breaches")
            lines.append("")
            recoveries = {event.cause: event for event in self.events_of("slo.recovery")}
            for breach in breaches:
                recovery = recoveries.get(breach.id)
                chain = " <- ".join(
                    f"{event.kind}[{event.id}]" for event in self.cause_chain(breach)
                )
                line = (
                    f"- [{breach.id}] t={breach.time_s:.3f}s `{breach.attrs.get('rule')}` "
                    f"(value {breach.attrs.get('value')})"
                )
                if recovery is not None:
                    line += f" -> recovered t={recovery.time_s:.3f}s"
                else:
                    line += " -> **unrecovered**"
                lines.append(line)
                lines.append(f"  - cause chain: {chain}")

        holds = self.events_of("nemesis.hold")
        if holds:
            lines.append("")
            lines.append("## Injection holds")
            lines.append("")
            resumes = {event.cause: event for event in self.events_of("nemesis.resume")}
            for hold in holds:
                resume = resumes.get(hold.id)
                line = f"- [{hold.id}] held at t={hold.time_s:.3f}s"
                if hold.cause is not None:
                    line += f" (gating breach {hold.cause})"
                if resume is not None:
                    line += (
                        f" -> resumed t={resume.time_s:.3f}s, released "
                        f"{resume.attrs.get('released', '?')} deferred fault(s)"
                    )
                lines.append(line)

        rebuilds = self.events_of("rebuild.finish")
        if rebuilds:
            lines.append("")
            lines.append("## Rebuilds")
            lines.append("")
            for finish in rebuilds:
                lines.append(
                    f"- [{finish.id}] disk {finish.attrs.get('disk')} rebuilt in "
                    f"{(finish.duration_s or 0.0):.3f}s "
                    f"({finish.attrs.get('stripes', '?')} stripes)"
                )
        lines.append("")
        return "\n".join(lines)

    # -- invariants (the CI soak's fail conditions) ------------------------------------

    def check_invariants(self) -> list[str]:
        """Structural claims a sound run must satisfy; violations as text."""
        problems: list[str] = []
        ids = {event.id for event in self.events}
        last_time = -math.inf
        for event in self.events:
            if event.time_s < last_time - 1e-9:
                problems.append(
                    f"{event.id}: time went backwards ({event.time_s} after {last_time})"
                )
            last_time = max(last_time, event.time_s)
            if event.cause is not None and event.cause not in ids:
                problems.append(f"{event.id}: dangling cause {event.cause}")

        fault_ids = {event.id for event in self.events_of("fault.inject")}
        for breach in self.events_of("slo.breach"):
            cause = self.by_id(breach.cause) if breach.cause else None
            if breach.cause is None or breach.cause not in fault_ids:
                problems.append(
                    f"{breach.id}: breach of {breach.attrs.get('rule')!r} at "
                    f"t={breach.time_s:.3f}s is not cause-linked to a fault "
                    f"(cause={breach.cause}, kind={cause.kind if cause else None})"
                )
        breach_ids = {event.id for event in self.events_of("slo.breach")}
        for recovery in self.events_of("slo.recovery"):
            if recovery.cause is None or recovery.cause not in breach_ids:
                problems.append(f"{recovery.id}: recovery without a matching breach")

        starts = {event.id for event in self.events_of("rebuild.start")}
        finished = {
            event.cause for event in self.events_of("rebuild.finish") if event.cause
        }
        for start_id in sorted(starts - finished):
            problems.append(f"{start_id}: rebuild span never closed")
        for disk, start in sorted(self._open_rebuilds.items()):
            problems.append(f"{start.id}: rebuild of disk {disk} still open")

        holds = self.events_of("nemesis.hold")
        resumes = self.events_of("nemesis.resume")
        resumed = {event.cause for event in resumes if event.cause}
        unresumed = [hold for hold in holds if hold.id not in resumed]
        if unresumed:
            problems.append(
                f"{unresumed[0].id}: {len(unresumed)} hold(s) never resumed"
            )
        for resume in resumes:
            if resume.cause is None or self.by_id(resume.cause) is None:
                problems.append(f"{resume.id}: resume without a matching hold")
        return problems

    def __repr__(self) -> str:
        return (
            f"<Timeline {len(self.events)} events, {len(self._open_faults)} open faults, "
            f"{self.dropped} dropped>"
        )


class LatencyWindows:
    """Rolling per-class latency percentiles from a cumulative HistogramSet.

    :class:`~repro.obs.hist.LatencyHistogram` is cumulative and exactly
    mergeable — which also makes it exactly *diffable*: the bucket counts
    newly arrived since the previous sample are a complete histogram of
    that window's latencies.  Each :meth:`sample` records one
    ``latency.window`` timeline event per request class that saw traffic,
    with the window's count and percentile estimates.
    """

    def __init__(
        self,
        hists: HistogramSet,
        percentiles: tuple[float, ...] = (50.0, 95.0, 99.0),
        classes: tuple[str, ...] | None = None,
    ) -> None:
        self.hists = hists
        self.percentiles = percentiles
        self.classes = classes
        self._previous: dict[str, dict[int, int]] = {}
        # Any histogram supplies the shared bucket geometry.
        self._ref = LatencyHistogram(hists.min_latency_s, hists.buckets_per_decade)

    def _window_percentile(self, counts: dict[int, int], total: int, q: float) -> float:
        target = max(1, math.ceil(total * q / 100.0))
        seen = 0
        for bucket in sorted(counts):
            seen += counts[bucket]
            if seen >= target:
                return self._ref._representative(bucket)
        return 0.0  # pragma: no cover - counts sum to total

    def sample(self, time_s: float, timeline: Timeline) -> list[TimelineEvent]:
        """Diff against the previous sample; emit one event per active class."""
        recorded = []
        for name, hist in sorted(self.hists.hists.items()):
            if self.classes is not None and name not in self.classes:
                continue
            previous = self._previous.get(name, {})
            delta = {
                bucket: count - previous.get(bucket, 0)
                for bucket, count in hist.counts.items()
                if count != previous.get(bucket, 0)
            }
            total = sum(delta.values())
            if total <= 0:
                continue
            self._previous[name] = dict(hist.counts)
            stats = {
                f"p{q:g}_ms": self._window_percentile(delta, total, q) * 1e3
                for q in self.percentiles
            }
            recorded.append(
                timeline.latency_window(time_s, name, count=total, **stats)
            )
        return recorded
