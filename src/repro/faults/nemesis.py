"""Continuous chaos: faults injected into live traffic, gated on SLOs.

PR 5's :class:`~repro.faults.campaign.FaultCampaign` schedules every
fault up front and reports when the run is over.  The nemesis is the
*continuous* counterpart (ydb's ``active_faults_tracker`` /
``tracked_nemesis`` / ``monitor`` split): a clock
(:meth:`~repro.sim.Simulator.every`) that ticks alongside live traffic,
draws faults from the same seeded
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
correlated log.  The :class:`ActiveFaultsTracker` keeps the open-fault
inventory (what is hurting the array *right now*) with injection/clear
timestamps.

Everything is sim-time and seed-derived: the same (spec, seed) pair
yields a byte-identical timeline, which CI's soak job diffs.

This module deliberately does not import :mod:`repro.harness` (which
imports :mod:`repro.faults`); the workload-driving runner lives in
:mod:`repro.harness.nemesis`.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import typing

from repro.ext.rebuild import RebuildManager
from repro.faults.campaign import (
    _DISK_FACTORIES,
    FaultEvent,
    check_fault_spec,
    draw_fault_schedule,
)
from repro.faults.injector import FaultInjector, LatentProbe
from repro.obs.timeline import Timeline, TimelineEvent
from repro.spec import check_number

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import DiskArray
    from repro.obs.exposure import ExposureMonitor
    from repro.obs.registry import MetricsRegistry
    from repro.obs.slo import SloEngine
    from repro.obs.timeline import LatencyWindows
    from repro.sim import Simulator


@dataclasses.dataclass(frozen=True)
class NemesisSpec:
    """What the nemesis throws at the array, and how fast it watches.

    Fault knobs are expected counts over the run, exactly as in
    :class:`~repro.faults.campaign.CampaignSpec` (a fractional part is a
    probability of one more event).  ``period_s`` is the gate/telemetry
    tick; ``sample_period_s`` paces the ``exposure.sample`` /
    ``latency.window`` timeline events.  ``mttdl_floor_h`` adds a second
    gate condition on the windowed achieved MTTDL next to the SLO rules.
    ``ndisks=None`` is the organization's default disk count.
    """

    workload: str = "snake"
    duration_s: float = 30.0
    ndisks: int | None = None
    organization: str = "raid5"
    stripe_unit_sectors: int = 8
    bits_per_stripe: int = 1
    policy: str = "afraid"
    disk_model: str = "toy"
    idle_threshold_s: float = 0.05
    disk_failures: float = 2.0
    nvram_losses: float = 1.0
    latent_errors: float = 2.0
    spare_pool: int = 16
    repair_delay_s: float = 0.5
    detect_delay_s: float = 0.1
    period_s: float = 0.05
    sample_period_s: float = 0.5
    settle_s: float = 2.0
    max_faults: int = 16
    mttdl_floor_h: float | None = None

    def __post_init__(self) -> None:
        check_fault_spec(self)
        check_number("detect_delay_s", self.detect_delay_s)
        for name in ("period_s", "sample_period_s"):
            check_number(name, getattr(self, name), strict=True)
        if self.mttdl_floor_h is not None:
            check_number("mttdl_floor_h", self.mttdl_floor_h, strict=True)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ActiveFault:
    """One injected fault's lifecycle, keyed by its inject event id."""

    kind: str  # disk_failure | nvram_loss | latent_error
    injected_at: float
    event: TimelineEvent  # the fault.inject timeline event
    disk: int | None = None
    cleared_at: float | None = None
    resolution: str | None = None

    @property
    def open(self) -> bool:
        return self.cleared_at is None

    def open_for(self, now: float) -> float:
        return (self.cleared_at if self.cleared_at is not None else now) - self.injected_at


class ActiveFaultsTracker:
    """The open-fault inventory: what is hurting the array right now."""

    def __init__(self) -> None:
        self.active: dict[str, ActiveFault] = {}  # inject event id -> fault
        self.history: list[ActiveFault] = []

    def injected(self, fault: ActiveFault) -> None:
        self.active[fault.event.id] = fault
        self.history.append(fault)

    def cleared(self, event_id: str, now: float, resolution: str) -> ActiveFault | None:
        fault = self.active.pop(event_id, None)
        if fault is not None:
            fault.cleared_at = now
            fault.resolution = resolution
        return fault

    def open_faults(self) -> list[ActiveFault]:
        return sorted(self.active.values(), key=lambda fault: fault.event.seq)

    def counts(self) -> dict[str, int]:
        """Injected-fault counts by kind, over the whole run."""
        counts: dict[str, int] = {}
        for fault in self.history:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    def inventory_rows(self, now: float) -> list[list[str]]:
        """(id, kind, disk, open-for) rows of the open faults, for tables."""
        return [
            [
                fault.event.id,
                fault.kind,
                "-" if fault.disk is None else str(fault.disk),
                f"{fault.open_for(now):.3f}",
            ]
            for fault in self.open_faults()
        ]

    def __repr__(self) -> str:
        return f"<ActiveFaultsTracker {len(self.active)} open / {len(self.history)} total>"


class NemesisLoop:
    """The continuous fault loop: draw, gate, inject, correlate.

    Construct it with the array's live telemetry stack and call
    :meth:`start`; the loop ticks every ``spec.period_s`` of simulated
    time until ``spec.duration_s``.  After the horizon, pass :meth:`poll`
    to :func:`~repro.faults.campaign.finish_recovery` so clears and
    recoveries recorded while the array settles still reach the timeline.
    """

    def __init__(
        self,
        sim: "Simulator",
        array: "DiskArray",
        spec: NemesisSpec,
        seed: int,
        *,
        timeline: Timeline,
        monitor: "ExposureMonitor",
        engine: "SloEngine",
        registry: "MetricsRegistry",
        latency_windows: "LatencyWindows | None" = None,
    ) -> None:
        self.sim = sim
        self.array = array
        self.spec = spec
        self.seed = seed
        self.timeline = timeline
        self.monitor = monitor
        self.engine = engine
        self.registry = registry
        self.latency_windows = latency_windows
        self.tracker = ActiveFaultsTracker()
        self.injector = FaultInjector(sim, array)

        events, _crashes = draw_fault_schedule(
            random.Random(seed),
            duration_s=spec.duration_s,
            ndisks=spec.ndisks,
            disk_failures=spec.disk_failures,
            nvram_losses=spec.nvram_losses,
            latent_errors=spec.latent_errors,
            max_faults=spec.max_faults,
        )
        self.pending: list[FaultEvent] = events  # time-sorted
        self.deferred: list[FaultEvent] = []  # due but held by the gate
        self.dropped: list[FaultEvent] = []  # still held at the horizon
        self.spares_left = spec.spare_pool
        self.holds = 0
        self.resumes = 0
        self._hold_event: TimelineEvent | None = None
        self._spare_seq = 0
        # Members with a rebuild in flight: a later repair of the same
        # member (its strike was skipped) must not start a second one.
        self._rebuilding: set[int] = set()
        # Disk-failure inject events awaiting their strike's report/skip
        # (the injector strikes via a zero-delay timeout, so outcomes
        # appear one dispatch after scheduling).
        self._awaiting_strike: list[TimelineEvent] = []
        self._seen_reports = 0
        self._seen_skips = 0
        # Open NVRAM faults: inject event -> marks baseline to drain to.
        self._open_nvram: dict[str, tuple[TimelineEvent, int]] = {}
        self._open_gauge = registry.gauge(
            "nemesis_open_faults", "faults injected by the nemesis and not yet cleared"
        )
        self._degraded_gauge = registry.gauge(
            "degraded_disks", "members currently failed without an installed spare"
        )
        self._engine_done = False
        self._next_sample = 0.0

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        """Tick on a clock until the horizon, then close it."""
        spec = self.spec
        self.sim.every(
            spec.period_s, self._tick, until=spec.duration_s, end=self._close_horizon
        )

    def _tick(self) -> None:
        now = self.sim.now
        self.poll(now)
        self._gate_and_inject(now)
        if now + 1e-12 >= self._next_sample:
            self._sample(now)
            self._next_sample += self.spec.sample_period_s

    def poll(self, now: float) -> None:
        """One telemetry pass: publish, evaluate, ingest, settle clears.

        Safe to call after the loop ended (the drain phase does), except
        that once the engine is finished evaluation is skipped.
        """
        self.monitor.publish(now)
        self._degraded_gauge.set(len(self.array.failed_disks))
        self._open_gauge.set(len(self.tracker.active))
        if not self._engine_done:
            crossings = self.engine.evaluate(now, self.registry)
            self.timeline.ingest_slo_events(crossings)
        self._collect_strike_outcomes()
        self._check_nvram_drained(now)

    def finish_engine(self, now: float) -> None:
        """Close the SLO engine and fold its horizon recoveries in."""
        if not self._engine_done:
            self.timeline.ingest_slo_events(self.engine.finish(now))
            self._engine_done = True

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
        self.tracker.injected(
            ActiveFault(kind="disk_failure", injected_at=now, event=inject, disk=fault.disk)
        )
        self._awaiting_strike.append(inject)
        self.injector.fail_disk_at(fault.disk, now)
        self._schedule_repair(inject, fault.disk)

    def _schedule_repair(self, inject: TimelineEvent, disk: int) -> None:
        self.sim.timeout(self.spec.repair_delay_s, name="nemesis.repair").callbacks.append(
            functools.partial(self._repair, inject, disk)
        )

    def _repair(self, inject: TimelineEvent, disk: int, _event) -> None:
        # The strike may have been skipped (some other member already
        # down, or this one), the disk already repaired, or its rebuild
        # already under way; only a live, unclaimed degradation on
        # *this* member is ours to fix.
        if disk not in self.array.failed_disks or disk in self._rebuilding:
            return
        now = self.sim.now
        if self.spares_left <= 0:
            self.timeline.record(
                "rebuild.no_spare", now, track="rebuild", cause=inject, disk=disk
            )
            return
        self.spares_left -= 1
        self._spare_seq += 1
        spare = _DISK_FACTORIES[self.spec.disk_model](
            self.sim, name=f"nemesis.spare{self._spare_seq}"
        )
        manager = RebuildManager(self.sim, self.array, yield_to_foreground=False)
        self.timeline.rebuild_started(now, disk, cause=inject)
        self._rebuilding.add(disk)
        manager.rebuild_onto(disk, spare).callbacks.append(
            functools.partial(self._rebuilt, inject, disk, spare.name)
        )

    def _rebuilt(self, inject: TimelineEvent, disk: int, spare: str, rebuilt) -> None:
        self._rebuilding.discard(disk)
        finished = self.sim.now
        self.timeline.rebuild_finished(finished, disk, stripes=rebuilt.value.stripes_rebuilt)
        self.timeline.fault_cleared(finished, inject, resolution="rebuilt", spare=spare)
        self.tracker.cleared(inject.id, finished, "rebuilt")

    def _collect_strike_outcomes(self) -> None:
        """Match newly-arrived injector reports/skips to awaiting injects."""
        # Outcomes are stamped at collection time (the tick after the
        # strike) to keep the log monotonic; the strike instant rides
        # along as ``struck_at``.
        now = self.sim.now
        reports = self.injector.reports
        while self._seen_reports < len(reports):
            report = reports[self._seen_reports]
            self._seen_reports += 1
            inject = self._take_awaiting(report.disk)
            self.timeline.record(
                "fault.impact", now, track="faults", cause=inject,
                disk=report.disk, struck_at=report.at_time,
                dirty_stripes=report.dirty_stripes_at_failure,
                parity_lag_bytes=report.parity_lag_bytes_at_failure,
                lost_bytes=report.lost_data_bytes,
                predicted_bytes=report.predicted_loss_bytes,
            )
        skips = self.injector.skipped
        while self._seen_skips < len(skips):
            skip = skips[self._seen_skips]
            self._seen_skips += 1
            inject = self._take_awaiting(skip.disk)
            self.timeline.record(
                "fault.skipped", now, track="faults", cause=inject,
                disk=skip.disk, struck_at=skip.at_time, reason=skip.reason,
            )
            if inject is not None:
                # Nothing actually struck: close the fault immediately so
                # the open inventory only lists real damage.
                self.timeline.fault_cleared(now, inject, resolution="skipped")
                self.tracker.cleared(inject.id, now, "skipped")

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
        self.tracker.injected(
            ActiveFault(kind="nvram_loss", injected_at=now, event=inject)
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
                self.tracker.cleared(event_id, now, "backlog_drained")

    def _inject_latent_error(self, fault: FaultEvent, now: float) -> None:
        lba = fault.latent_lba(self.array.layout)
        inject = self.timeline.fault_injected(
            now, "latent_error", disk=fault.disk, lba=lba, scheduled_at=fault.time_s
        )
        self.tracker.injected(
            ActiveFault(kind="latent_error", injected_at=now, event=inject, disk=fault.disk)
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
        now = self.sim.now
        self.timeline.fault_cleared(now, probe.tag, resolution=resolution, **attrs)
        self.tracker.cleared(probe.tag.id, now, resolution)

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
            open_faults=len(self.tracker.active),
        )
        if self.latency_windows is not None:
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
            f"<NemesisLoop seed={self.seed} {len(self.tracker.active)} open, "
            f"{len(self.pending)} pending, {len(self.deferred)} deferred, "
            f"holds={self.holds} resumes={self.resumes}>"
        )
