"""Continuous chaos: faults injected into live traffic, gated on SLOs.

A seeded campaign schedules every fault up front and reports when the
run is over.  The nemesis is the *continuous* case of the same fault run
(:class:`~repro.faults.campaign.FaultRun`; ydb's ``tracked_nemesis`` /
``monitor`` split): a clock (:meth:`~repro.sim.Simulator.every`) that
ticks alongside live traffic, draws faults from the same seeded
:func:`~repro.faults.campaign.draw_fault_schedule` distributions, and —
the part a static schedule cannot do — consults the live telemetry
*in-loop* before each strike:

* every tick it refreshes the :class:`~repro.obs.ExposureMonitor`
  gauges and evaluates the :class:`~repro.obs.SloEngine`;
* while any exposure SLO is breached (or the windowed achieved MTTDL is
  below ``mttdl_floor_h``), injections are **held**: due faults queue up
  instead of striking, and a single ``nemesis.hold`` timeline event marks
  the episode, cause-linked to the gating breach;
* on recovery a ``nemesis.resume`` event (cause: the hold) releases the
  deferred faults.

Every decision the loop makes — inject, impact, skip, clear, hold,
resume, drop — lands in the shared :class:`~repro.obs.Timeline`, so the
fault → exposure spike → breach → rebuild → recovery chain is one
correlated log; its open ``fault.inject`` events are the open-fault
inventory (what is hurting the array *right now*).

Everything is sim-time and seed-derived: the same (spec, seed) pair
yields a byte-identical timeline, which CI's soak job diffs.

This module deliberately does not import :mod:`repro.harness` at import
time (it imports :mod:`repro.faults`); the artefact writer lives in
:mod:`repro.harness.nemesis`.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.faults.campaign import FaultEvent, FaultRun, FaultSpec
from repro.faults.injector import LatentProbe
from repro.obs import ExposureMonitor, HistogramSet, MetricsRegistry, SloEngine, SloRule
from repro.obs.timeline import LatencyWindows, Timeline, TimelineEvent
from repro.spec import check_number


@dataclasses.dataclass(frozen=True)
class NemesisSpec(FaultSpec):
    """What the nemesis throws at the array, and how fast it watches.

    ``period_s`` is the gate/telemetry tick; ``sample_period_s`` paces the
    ``exposure.sample`` / ``latency.window`` timeline events.
    ``mttdl_floor_h`` adds a second gate condition on the windowed
    achieved MTTDL next to the SLO rules.
    """

    DEFAULTS: typing.ClassVar[dict] = {
        "duration_s": 30.0, "disk_failures": 2.0, "nvram_losses": 1.0, "latent_errors": 2.0,
        "spare_pool": 16,
    }

    detect_delay_s: float = 0.1
    period_s: float = 0.05
    sample_period_s: float = 0.5
    mttdl_floor_h: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_number("detect_delay_s", self.detect_delay_s)
        for name in ("period_s", "sample_period_s"):
            check_number(name, getattr(self, name), strict=True)
        if self.mttdl_floor_h is not None:
            check_number("mttdl_floor_h", self.mttdl_floor_h, strict=True)


@dataclasses.dataclass
class NemesisOutcome:
    """Everything one seeded nemesis run produced."""

    spec: NemesisSpec
    seed: int
    timeline: Timeline
    loop: NemesisLoop
    engine: SloEngine
    registry: MetricsRegistry
    hists: HistogramSet
    requests: dict
    horizon_s: float

    @property
    def violations(self) -> list[str]:
        return self.timeline.check_invariants()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_payload(self) -> dict:
        """The byte-stable JSON summary (everything sim/seed-derived)."""
        return {
            "nemesis": {"seed": self.seed, "spec": self.spec.to_dict()},
            "horizon_s": self.horizon_s,
            "requests": self.requests,
            "faults": {
                "injected": self.timeline.fault_counts(),
                "open_at_end": [event.id for event in self.timeline.open_fault_events()],
                "holds": self.loop.holds,
                "resumes": self.loop.resumes,
                "dropped": len(self.loop.dropped),
                "spares_used": self.spec.spare_pool - self.loop.spares_left,
            },
            "slo": {
                "rules": [rule.describe() for rule in self.engine.rules],
                "rows": self.engine.summary_rows(),
            },
            "timeline": {
                "events": len(self.timeline),
                "kinds": dict(sorted(self.timeline.kinds().items())),
                "dropped": self.timeline.dropped,
            },
            "invariants": {"ok": self.ok, "violations": self.violations},
        }


class NemesisLoop(FaultRun):
    """The nemesis case of a fault run: draw, gate, inject, correlate.

    The run is one segment.  :meth:`begin` attaches the full telemetry
    stack (registry, exposure monitor with a ``window_s`` sliding window,
    latency histograms) and starts the loop, which ticks every
    ``spec.period_s`` of simulated time until ``spec.duration_s``; the
    recovery drain after the horizon calls :meth:`poll` after each step,
    so clears and recoveries recorded while the array settles still
    reach the timeline.  ``rules`` gate the injections (rule text or
    :class:`~repro.obs.SloRule`).  The nemesis arms a repair when it
    injects a disk failure.
    """

    name = "nemesis"

    def __init__(
        self,
        spec: NemesisSpec,
        seed: int,
        rules: typing.Sequence[SloRule | str] = (),
        *,
        window_s: float = 2.0,
    ) -> None:
        super().__init__(spec, seed)
        self.timeline = Timeline()
        self.registry = MetricsRegistry()
        self.monitor = ExposureMonitor(window_s=window_s)
        self.engine = SloEngine(
            [rule if isinstance(rule, SloRule) else SloRule.parse(rule) for rule in rules]
        )
        self.latency_windows = LatencyWindows(self.hists)
        self.pending: list[FaultEvent] = list(self.events)  # time-sorted
        self.deferred: list[FaultEvent] = []  # due but held by the gate
        self.dropped: list[FaultEvent] = []  # still held at the horizon
        self.holds = 0
        self.resumes = 0
        self._hold_event: TimelineEvent | None = None
        # Disk-failure inject events awaiting their strike's report/skip
        # (the injector strikes via a zero-delay timeout, so outcomes
        # appear one dispatch after scheduling).
        self._awaiting_strike: list[TimelineEvent] = []
        # Open NVRAM faults: inject event -> marks baseline to drain to.
        self._open_nvram: dict[str, tuple[TimelineEvent, int]] = {}
        self._next_sample = 0.0

    # -- the run's steps ---------------------------------------------------------------

    def _attach(self, array) -> None:
        array.attach_observability(
            histograms=self.hists, registry=self.registry, exposure=self.monitor
        )
        self._open_gauge = self.registry.gauge(
            "nemesis_open_faults", "faults injected by the nemesis and not yet cleared"
        )
        self._degraded_gauge = self.registry.gauge(
            "degraded_disks", "members currently failed without an installed spare"
        )

    def _arm(self, start: float, end: float) -> None:
        """Tick on a clock until the horizon, then close it."""
        spec = self.spec
        self.sim.every(
            spec.period_s, self._tick, until=spec.duration_s, end=self._close_horizon
        )

    def _close(self, final: bool) -> None:
        """Close the SLO engine, folding its horizon recoveries in, and the monitor."""
        now = self.sim.now
        self.timeline.ingest_slo_events(self.engine.finish(now))
        self.monitor.finish(now)

    def report(self) -> NemesisOutcome:
        return NemesisOutcome(
            spec=self.spec,
            seed=self.seed,
            timeline=self.timeline,
            loop=self,
            engine=self.engine,
            registry=self.registry,
            hists=self.hists,
            requests=self.requests,
            horizon_s=self.sim.now,
        )

    def _tick(self) -> None:
        now = self.sim.now
        self.poll(now)
        self._gate_and_inject(now)
        if now + 1e-12 >= self._next_sample:
            self._sample(now)
            self._next_sample += self.spec.sample_period_s

    def poll(self, now: float) -> None:
        """One telemetry pass: publish, evaluate, ingest, settle clears."""
        self.monitor.publish(now)
        self._degraded_gauge.set(len(self.array.failed_disks))
        self._open_gauge.set(len(self.timeline.open_fault_events()))
        self.timeline.ingest_slo_events(self.engine.evaluate(now, self.registry))
        self._collect_strike_outcomes()
        self._check_nvram_drained(now)

    # -- the gate --------------------------------------------------------------------

    def _gated(self, now: float) -> bool:
        if self.engine.any_breached:
            return True
        floor = self.spec.mttdl_floor_h
        if floor is not None:
            mttdl = self.registry.value("windowed_mttdl_h")
            if mttdl is not None and mttdl < floor:
                return True
        return False

    def _gate_and_inject(self, now: float) -> None:
        gated = self._gated(now)
        if self._hold_event is not None and not gated:
            # Recovery: release everything the hold dammed up.
            released = list(self.deferred)
            self.deferred.clear()
            self.timeline.record(
                "nemesis.resume", now, track="nemesis", cause=self._hold_event,
                released=len(released), held_s=now - self._hold_event.time_s,
            )
            self.resumes += 1
            self._hold_event = None
            for fault in released:
                self._inject(fault, now)
        due: list[FaultEvent] = []
        while self.pending and self.pending[0].time_s <= now:
            due.append(self.pending.pop(0))
        if gated:
            if due:
                self.deferred.extend(due)
            if self.deferred and self._hold_event is None:
                breaches = self.timeline.open_breach_events()
                self._hold_event = self.timeline.record(
                    "nemesis.hold", now, track="nemesis",
                    cause=breaches[-1] if breaches else None,
                    deferred=len(self.deferred),
                )
                self.holds += 1
            return
        for fault in due:
            self._inject(fault, now)

    # -- injection -------------------------------------------------------------------

    def _inject(self, fault: FaultEvent, now: float) -> None:
        if fault.kind == "disk_failure":
            self._inject_disk_failure(fault, now)
        elif fault.kind == "nvram_loss":
            self._inject_nvram_loss(fault, now)
        elif fault.kind == "latent_error":
            self._inject_latent_error(fault, now)

    def _inject_disk_failure(self, fault: FaultEvent, now: float) -> None:
        inject = self.timeline.fault_injected(
            now, "disk_failure", disk=fault.disk, scheduled_at=fault.time_s
        )
        self._awaiting_strike.append(inject)
        self.injector.fail_disk_at(fault.disk, now)
        self._arm_repair(fault.disk, self.spec.repair_delay_s, inject)

    def _no_spare(self, disk: int, cause: TimelineEvent) -> None:
        self.timeline.record(
            "rebuild.no_spare", self.sim.now, track="rebuild", cause=cause, disk=disk
        )

    def _rebuild_started(self, disk: int, cause: TimelineEvent) -> None:
        self.timeline.rebuild_started(self.sim.now, disk, cause=cause)

    def _repaired(self, disk: int, cause: TimelineEvent, spare: str, stats) -> None:
        finished = self.sim.now
        self.timeline.rebuild_finished(finished, disk, stripes=stats.stripes_rebuilt)
        self.timeline.fault_cleared(finished, cause, resolution="rebuilt", spare=spare)

    def _collect_strike_outcomes(self) -> None:
        """Match newly-arrived injector reports/skips to awaiting injects."""
        # Outcomes are stamped at collection time (the tick after the
        # strike) to keep the log monotonic; the strike instant rides
        # along as ``struck_at``.
        now = self.sim.now
        reports, skips = self.injector.take_strikes()
        for report in reports:
            inject = self._take_awaiting(report.disk)
            self.timeline.record(
                "fault.impact", now, track="faults", cause=inject,
                disk=report.disk, struck_at=report.at_time,
                dirty_stripes=report.dirty_stripes_at_failure,
                parity_lag_bytes=report.parity_lag_bytes_at_failure,
                lost_bytes=report.lost_data_bytes,
                predicted_bytes=report.predicted_loss_bytes,
            )
        for skip in skips:
            inject = self._take_awaiting(skip.disk)
            self.timeline.record(
                "fault.skipped", now, track="faults", cause=inject,
                disk=skip.disk, struck_at=skip.at_time, reason=skip.reason,
            )
            if inject is not None:
                # Nothing actually struck: close the fault immediately so
                # the open inventory only lists real damage.
                self.timeline.fault_cleared(now, inject, resolution="skipped")

    def _take_awaiting(self, disk: int) -> TimelineEvent | None:
        for index, event in enumerate(self._awaiting_strike):
            if event.attrs.get("disk") == disk:
                return self._awaiting_strike.pop(index)
        return None

    def _inject_nvram_loss(self, fault: FaultEvent, now: float) -> None:
        baseline = self.array.marks.count
        inject = self.timeline.fault_injected(
            now, "nvram_loss", scheduled_at=fault.time_s, marks_baseline=baseline
        )
        self._open_nvram[inject.id] = (inject, baseline)
        self.injector.fail_mark_memory_at(now, auto_recover=True)

    def _check_nvram_drained(self, now: float) -> None:
        """An NVRAM fault is over once the §3.1 remark backlog drains."""
        if not self._open_nvram or self.array.marks.failed:
            return
        count = self.array.marks.count
        for event_id in list(self._open_nvram):
            inject, baseline = self._open_nvram[event_id]
            # The strike itself is a zero-delay timeout; don't declare the
            # backlog drained before it has even spiked.
            if now <= inject.time_s:
                continue
            if count <= baseline:
                del self._open_nvram[event_id]
                self.timeline.fault_cleared(
                    now, inject, resolution="backlog_drained", marks=count
                )

    def _inject_latent_error(self, fault: FaultEvent, now: float) -> None:
        lba = fault.latent_lba(self.array.layout)
        inject = self.timeline.fault_injected(
            now, "latent_error", disk=fault.disk, lba=lba, scheduled_at=fault.time_s
        )
        self.injector.inject_latent_error_at(fault.disk, lba, now)
        self.sim.timeout(self.spec.detect_delay_s, name="nemesis.detect").callbacks.append(
            functools.partial(self._probe_latent, inject, fault.disk, lba)
        )

    def _probe_latent(self, inject: TimelineEvent, disk: int, lba: int, _event) -> None:
        LatentProbe(self.array, disk, lba, self._latent_probed, tag=inject)

    def _latent_probed(self, probe: LatentProbe) -> None:
        """Close the latent fault the probe healed, or found on a dead member."""
        attrs = {}
        if probe.lost is not None:
            resolution = "disk_failed"
        else:
            resolution = "healed" if probe.healed else "unhealed"
            attrs = {"detected": probe.detected, "healed": probe.healed}
        self.timeline.fault_cleared(self.sim.now, probe.tag, resolution=resolution, **attrs)

    # -- telemetry samples -----------------------------------------------------------

    def _sample(self, now: float) -> None:
        registry = self.registry
        self.timeline.exposure_sample(
            now,
            dirty_stripes=registry.value("dirty_stripes", 0),
            parity_lag_bytes=registry.value("parity_lag_bytes", 0.0),
            scrub_backlog_marks=registry.value("scrub_backlog_marks", 0),
            windowed_unprotected_fraction=registry.value(
                "windowed_unprotected_fraction", 0.0
            ),
            windowed_mttdl_h=registry.value("windowed_mttdl_h", 0.0),
            windowed_mdlr_bytes_per_h=registry.value("windowed_mdlr_bytes_per_h", 0.0),
            open_faults=len(self.timeline.open_fault_events()),
        )
        self.latency_windows.sample(now, self.timeline)

    # -- horizon ---------------------------------------------------------------------

    def _close_horizon(self) -> None:
        """End of the injection window: pair the open hold, drop the queue."""
        now = self.sim.now
        if self._hold_event is not None:
            self.timeline.record(
                "nemesis.resume", now, track="nemesis", cause=self._hold_event,
                released=0, held_s=now - self._hold_event.time_s, at_horizon=True,
            )
            self.resumes += 1
            self._hold_event = None
        for fault in self.deferred + self.pending:
            self.dropped.append(fault)
            self.timeline.record(
                "nemesis.dropped", now, track="nemesis",
                fault=fault.kind, disk=fault.disk, scheduled_at=fault.time_s,
            )
        self.deferred.clear()
        self.pending.clear()

    def __repr__(self) -> str:
        return (
            f"<NemesisLoop seed={self.seed} {len(self.timeline.open_fault_events())} open, "
            f"{len(self.pending)} pending, {len(self.deferred)} deferred, "
            f"holds={self.holds} resumes={self.resumes}>"
        )
