"""Deterministic seeded fault campaigns with crash-recovery checking.

A campaign replays a workload against a fresh array while a seeded
schedule of faults — member-disk deaths, NVRAM (marking-memory) losses,
latent sector errors, and whole-box crashes/power losses — strikes it,
with spare-disk repairs following each failure after a technician delay.
After every event the :class:`~repro.faults.invariants.InvariantChecker`
compares the array's own loss prediction (the NVRAM marks, eq. (4))
against the functional twin's ground truth.

Crashes are simulated structurally: the run is cut into *segments* at
each crash point.  A segment's simulator and array simply stop (whatever
was in flight is lost); the next segment builds a fresh simulator at the
crash time, restores the NVRAM marks (non-volatile), the failed-member
state, and the latent sector set, re-attaches the same functional twin
(the platters), runs the §3.1 recovery scan, and resumes the remainder
of the trace at its original timestamps.  Each segment feeds its slice
of the trace through the replay driver
(:func:`repro.harness.replay.feed_trace`); the last one closes with
:func:`repro.harness.replay.close_replay` and :func:`finish_recovery`.

Everything — fault schedule, workload, simulation — derives from the
(seed, spec) pair, so two runs of the same campaign produce byte-
identical JSON reports.  That is the determinism gate CI enforces.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import typing

from repro.array.controller import DiskArray
from repro.array.factory import build_array
from repro.blocks import FunctionalArray
from repro.disk import hp_c3325, toy_disk
from repro.ext.rebuild import RebuildManager
from repro.faults.injector import DiskFailureReport, FaultInjector, LatentProbe
from repro.faults.invariants import InvariantChecker, InvariantResult
from repro.layout.base import UnitKind
from repro.nvram import sub_unit_of
from repro.obs import HistogramSet
from repro.policy import POLICIES
from repro.sim import Simulator
from repro.spec import (
    SpecError,
    check_choice,
    check_integer,
    check_number,
    check_organization,
    is_number,
)
from repro.traces import CATALOG, make_trace

_DISK_FACTORIES = {
    "toy": toy_disk,
    "hp_c3325": hp_c3325,
}


def check_fault_spec(spec) -> None:
    """The bounds a :class:`CampaignSpec` and a ``NemesisSpec`` share.

    Resolves ``spec.ndisks=None`` to the organization's default count;
    each spec checks its own extra fields after this.
    """
    check_choice("workload", spec.workload, CATALOG)
    check_number("duration_s", spec.duration_s, strict=True)
    _org, ndisks = check_organization(spec.organization, spec.ndisks)
    object.__setattr__(spec, "ndisks", ndisks)
    for name in ("stripe_unit_sectors", "bits_per_stripe"):
        check_integer(name, getattr(spec, name), minimum=1)
    for name in ("spare_pool", "max_faults"):
        check_integer(name, getattr(spec, name), minimum=0)
    check_choice("policy", spec.policy, POLICIES)
    check_choice("disk_model", spec.disk_model, _DISK_FACTORIES)
    for name in (
        "idle_threshold_s", "disk_failures", "nvram_losses", "latent_errors",
        "repair_delay_s", "settle_s",
    ):
        check_number(name, getattr(spec, name))


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """What a campaign throws at the array.

    Fault knobs are *expected counts over the run* (a fractional part is
    a probability of one more event), drawn at seeded-uniform times in
    the middle 90 % of the run; ``crash_points`` adds explicit power-loss
    times on top of the random ``crashes`` draws.  ``ndisks=None`` is the
    organization's default disk count.
    """

    workload: str = "snake"
    duration_s: float = 6.0
    ndisks: int | None = None
    organization: str = "raid5"
    stripe_unit_sectors: int = 8
    bits_per_stripe: int = 1
    policy: str = "afraid"
    disk_model: str = "toy"
    idle_threshold_s: float = 0.05
    disk_failures: float = 1.0
    nvram_losses: float = 0.0
    latent_errors: float = 0.0
    crashes: float = 0.0
    crash_points: tuple[float, ...] = ()
    spare_pool: int = 1
    repair_delay_s: float = 0.5
    settle_s: float = 2.0
    max_faults: int = 16

    def __post_init__(self) -> None:
        check_fault_spec(self)
        check_number("crashes", self.crashes)
        inside = (is_number(t) and 0.0 < t < self.duration_s for t in self.crash_points)
        if not all(inside):
            raise SpecError(
                "crash_points", "crash_points must fall strictly inside (0, duration_s)"
            )

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["crash_points"] = list(self.crash_points)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"a campaign spec must be a JSON object, got {payload!r}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown campaign spec keys: {unknown} (known: {sorted(known)})")
        cleaned = dict(payload)
        if "crash_points" in cleaned:
            if not isinstance(cleaned["crash_points"], (list, tuple)):
                raise SpecError("crash_points", "crash_points must be a list of seconds")
            cleaned["crash_points"] = tuple(cleaned["crash_points"])
        return cls(**cleaned)

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time_s: float
    kind: str  # disk_failure | nvram_loss | latent_error
    disk: int = 0
    lba_fraction: float = 0.0

    def latent_lba(self, layout) -> int:
        """The member sector a latent error strikes: ``lba_fraction`` of
        the span the layout's units occupy on every member."""
        span = layout.disk_sectors_used
        return min(int(self.lba_fraction * span), span - 1)


def draw_fault_schedule(
    rng: random.Random,
    *,
    duration_s: float,
    ndisks: int,
    disk_failures: float = 0.0,
    nvram_losses: float = 0.0,
    latent_errors: float = 0.0,
    crashes: float = 0.0,
    crash_points: typing.Sequence[float] = (),
    max_faults: int = 16,
) -> tuple[list[FaultEvent], list[float]]:
    """Draw a seeded fault schedule (shared by campaigns and the nemesis).

    Fault knobs are expected counts over the run (a fractional part is a
    probability of one more event), drawn at seeded-uniform times in the
    middle 90 % of the run.  The rng call order is part of the contract:
    campaign reports are byte-diffed across reruns in CI.
    """

    def draw_times(expected: float) -> list[float]:
        count = int(expected)
        fraction = expected - count
        if fraction > 0.0 and rng.random() < fraction:
            count += 1
        count = min(count, max_faults)
        return sorted(
            round(rng.uniform(0.05, 0.95) * duration_s, 6) for _ in range(count)
        )

    events: list[FaultEvent] = []
    for time_s in draw_times(disk_failures):
        events.append(
            FaultEvent(time_s=time_s, kind="disk_failure", disk=rng.randrange(ndisks))
        )
    for time_s in draw_times(nvram_losses):
        events.append(FaultEvent(time_s=time_s, kind="nvram_loss"))
    for time_s in draw_times(latent_errors):
        events.append(
            FaultEvent(
                time_s=time_s,
                kind="latent_error",
                disk=rng.randrange(ndisks),
                lba_fraction=rng.random(),
            )
        )
    crash_times = sorted(set(list(crash_points) + draw_times(crashes)))
    events.sort(key=lambda event: (event.time_s, event.kind, event.disk))
    return events, crash_times


def finish_recovery(
    sim: Simulator, array: DiskArray, poll: typing.Callable[[float], None] | None = None
) -> None:
    """The post-horizon recovery drain of a fault run, one second per step.

    First lets an in-flight spare rebuild finish (``degraded_disk`` flips
    to None when the spare installs; stop once a step dispatches nothing,
    i.e. no repair was ever scheduled), then force-scrubs the remaining
    parity debt (stop once the scrubber makes no further progress, e.g.
    policy-excluded debt).  ``poll(now)`` runs once up front and after
    every step.
    """

    def step() -> None:
        sim.run(until=sim.now + 1.0)
        if poll is not None:
            poll(sim.now)

    if poll is not None:
        poll(sim.now)
    previous_dispatched = -1
    while array.degraded_disk is not None and sim.events_dispatched != previous_dispatched:
        previous_dispatched = sim.events_dispatched
        step()
    previous = -1
    while array.degraded_disk is None and array.marks.count and array.marks.count != previous:
        previous = array.marks.count
        array.request_scrub(force=True)
        step()


@dataclasses.dataclass
class CampaignReport:
    """Everything one seeded campaign run produced."""

    seed: int
    payload: dict

    @property
    def ok(self) -> bool:
        return bool(self.payload["summary"]["ok"])

    @property
    def violations(self) -> list[dict]:
        return [entry for entry in self.payload["invariants"] if not entry["ok"]]

    def to_json(self) -> str:
        """Byte-stable serialisation (the CI determinism gate diffs this)."""
        return json.dumps(self.payload, indent=2, sort_keys=True) + "\n"


class FaultCampaign:
    """One (spec, seed) campaign; :meth:`run` is deterministic and reusable."""

    def __init__(self, spec: CampaignSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed

    # -- construction helpers ------------------------------------------------------

    def _make_disk(self, sim: Simulator, name: str):
        return _DISK_FACTORIES[self.spec.disk_model](sim, name=name)

    def _build_array(self, sim: Simulator) -> DiskArray:
        spec = self.spec
        return build_array(
            sim,
            POLICIES[spec.policy](),
            ndisks=spec.ndisks,
            stripe_unit_sectors=spec.stripe_unit_sectors,
            disk_factory=_DISK_FACTORIES[spec.disk_model],
            organization=spec.organization,
            with_functional=False,  # the twin is campaign-owned (survives crashes)
            idle_threshold_s=spec.idle_threshold_s,
            bits_per_stripe=spec.bits_per_stripe,
            name="campaign",
        )

    def _draw_schedule(self, rng: random.Random) -> tuple[list[FaultEvent], list[float]]:
        spec = self.spec
        return draw_fault_schedule(
            rng,
            duration_s=spec.duration_s,
            ndisks=spec.ndisks,
            disk_failures=spec.disk_failures,
            nvram_losses=spec.nvram_losses,
            latent_errors=spec.latent_errors,
            crashes=spec.crashes,
            crash_points=spec.crash_points,
            max_faults=spec.max_faults,
        )

    # -- the run -------------------------------------------------------------------

    def run(self) -> CampaignReport:
        # Deferred: repro.harness imports this package.
        from repro.harness.replay import feed_trace

        run = _CampaignRun(self)
        for index in range(run.nsegments):
            records = run.begin(index)
            feed_trace(run.replay, records)
            run.end()
        return run.report()


class _CampaignRun:
    """One campaign run: the state it carries across crash segments.

    :meth:`begin` builds a segment's simulator and array, restores what
    the crash must not destroy, arms the segment's faults and returns its
    slice of the trace; the caller feeds it through the replay driver.
    :meth:`end` closes the segment, at a crash or at the horizon, and
    :meth:`report` reduces the run.  Every handler a segment arms is a
    bound method, so a run pickles mid-flight.
    """

    def __init__(self, campaign: FaultCampaign) -> None:
        spec = self.spec = campaign.spec
        self.campaign = campaign
        self.events, crash_times = campaign._draw_schedule(random.Random(campaign.seed))
        self.boundaries = (
            [0.0]
            + [time_s for time_s in crash_times if 0.0 < time_s < spec.duration_s]
            + [spec.duration_s]
        )
        self.nsegments = len(self.boundaries) - 1
        self.twin: FunctionalArray | None = None
        self.trace = None
        self.hists = HistogramSet()
        # Non-volatile across crashes: the NVRAM marks, the failed members
        # (mirrored organizations survive several) and the media defects.
        self.marks: list = []
        self.failed_disks: list[int] = []
        self.latent: dict[int, list[int]] = {}
        self.spares_left = spec.spare_pool
        self.conservative = False
        self.event_log: list[dict] = []
        self.invariant_results: list[InvariantResult] = []
        self.all_reports: list[DiskFailureReport] = []
        self.skipped_strikes = 0
        self.requests = {"submitted": 0, "completed": 0, "failed": 0, "in_flight_at_crash": 0}
        self.failure_kinds: dict[str, int] = {}
        self.latent_repaired = 0
        self.index = -1

    # -- segments ------------------------------------------------------------------

    def begin(self, index: int) -> list:
        """Build segment ``index`` and arm its faults; returns its records."""
        spec = self.spec
        self.index = index
        seg_start, seg_end = self.boundaries[index], self.boundaries[index + 1]
        sim = self.sim = Simulator(start_time=seg_start)
        array = self.array = self.campaign._build_array(sim)
        organization = array.organization
        # The functional twin's offset arithmetic assumes rotated
        # stripe units; mirrored and declustered organizations run
        # without it (and hence without byte-exact invariant checks).
        supports_twin = not (organization.mirrored or organization.declustered)
        if self.twin is None and supports_twin:
            self.twin = FunctionalArray(
                array.layout, sector_bytes=array.sector_bytes, sub_units=spec.bits_per_stripe
            )
        array.functional = self.twin
        array.attach_observability(histograms=self.hists)
        if self.trace is None:
            self.trace = make_trace(
                spec.workload,
                duration_s=spec.duration_s,
                address_space_sectors=array.layout.total_data_sectors,
                seed=self.campaign.seed,
                allow_generic=True,
            )
        checker = self.checker = InvariantChecker(array) if supports_twin else None
        injector = self.injector = FaultInjector(sim, array)
        self.seen_reports = self.seen_skips = 0

        # ---- restore carried state (this is the crash-restart path) ----
        if self.marks:
            array.marks.restore(self.marks)
        for failed_disk in self.failed_disks:
            array.disks[failed_disk].fail()
            array.enter_degraded(failed_disk)
        for disk_index, lbas in self.latent.items():
            for lba in lbas:
                array.disks[disk_index].inject_latent_error(lba)

        # ---- schedule this segment's faults -----------------------------
        if index > 0:
            self.event_log.append(
                {
                    "t": seg_start,
                    "kind": "restart",
                    "restored_marks": array.marks.count,
                    "degraded": self.failed_disks[0] if self.failed_disks else None,
                }
            )
            if checker is not None:
                checker.check_marks_cover_twin()
            array.recovery_scan()
            for failed_disk in self.failed_disks:
                # The technician's clock restarts with the box.
                self._schedule_repair(seg_start + spec.repair_delay_s, failed_disk)

        for event in self.events:
            if not seg_start <= event.time_s < seg_end:
                continue
            if event.kind == "disk_failure":
                injector.fail_disk_at(event.disk, event.time_s)
                check = self._disk_failure_checked
            elif event.kind == "nvram_loss":
                injector.fail_mark_memory_at(event.time_s, auto_recover=True)
                check = self._nvram_lost
            else:  # a latent sector error
                lba = event.latent_lba(array.layout)
                injector.inject_latent_error_at(event.disk, lba, event.time_s)
                check = functools.partial(self._probe_latent, event.disk, lba)
            sim.timeout(event.time_s - sim.now, name="campaign.check").callbacks.append(check)

        self.replay = (sim, array, [], [])
        return [record for record in self.trace if seg_start <= record.time_s < seg_end]

    def end(self) -> None:
        """Close the fed segment: a crash, or the horizon and recovery."""
        from repro.harness.replay import close_replay

        spec = self.spec
        sim, array, checker = self.sim, self.array, self.checker
        final = self.index == self.nsegments - 1
        if final:
            close_replay(self.replay, spec.duration_s, spec.settle_s, finalize=False)
            # The recovery invariant is checked against a settled array.
            finish_recovery(sim, array)
        else:
            seg_end = self.boundaries[self.index + 1]
            sim.run(until=seg_end)
            self.event_log.append({"t": seg_end, "kind": "crash"})

        requests = self.requests
        completions = self.replay[3]
        requests["submitted"] += len(completions)
        for completion in completions:
            if not completion.triggered:
                requests["in_flight_at_crash"] += 1
            elif completion.ok:
                requests["completed"] += 1
            else:
                requests["failed"] += 1
                name = type(completion.exception).__name__
                self.failure_kinds[name] = self.failure_kinds.get(name, 0) + 1

        if final:
            self._refresh_conservative()
            if checker is not None:
                checker.check_marks_cover_twin()
                if array.degraded_disk is None:
                    checker.check_recovery_complete()
                    checker.check_parity_audit()
            array.finalize()
        else:
            # ---- snapshot state the crash must not destroy ------------
            self.marks = array.marks.snapshot() if not array.marks.failed else []
            self.failed_disks = list(array.failed_disks)
            self.latent = {
                disk_index: disk.latent_error_lbas
                for disk_index, disk in enumerate(array.disks)
                if disk.latent_error_lbas and not disk.failed
            }

        self.latent_repaired += array.latent_sectors_repaired
        if checker is not None:
            self.invariant_results.extend(checker.results)

    # -- fault handlers ----------------------------------------------------------

    def _refresh_conservative(self) -> None:
        array = self.array
        if self.conservative and not array.marks.failed and array.marks.count == 0:
            self.conservative = False

    def _schedule_repair(self, at_time: float, disk: int) -> None:
        sim = self.sim
        sim.timeout(max(0.0, at_time - sim.now), name="campaign.repair").callbacks.append(
            functools.partial(self._repair, disk)
        )

    def _repair(self, disk: int, _event) -> None:
        array, sim = self.array, self.sim
        if disk not in array.failed_disks:
            return
        if self.spares_left <= 0:
            self.event_log.append({"t": sim.now, "kind": "repair_no_spare", "disk": disk})
            return
        spare = self.campaign._make_disk(sim, f"campaign.spare{disk}")
        manager = RebuildManager(sim, array, yield_to_foreground=False)
        manager.rebuild_onto(disk, spare).callbacks.append(functools.partial(self._rebuilt, disk))

    def _rebuilt(self, disk: int, rebuilt) -> None:
        array = self.array
        self.spares_left -= 1
        if disk in self.failed_disks:
            self.failed_disks.remove(disk)
        if array.marks.count:
            # The rebuild made every physical stripe consistent; until the
            # scrubber drains them the surviving marks over-approximate.
            self.conservative = True
        self.event_log.append(
            {
                "t": self.sim.now,
                "kind": "rebuild_complete",
                "disk": disk,
                "stripes": rebuilt.value.stripes_rebuilt,
                "marks_left": array.marks.count,
            }
        )
        if self.checker is not None:
            self.checker.check_marks_cover_twin()

    def _disk_failure_checked(self, _event) -> None:
        self._refresh_conservative()
        injector, checker = self.injector, self.checker
        while self.seen_reports < len(injector.reports):
            report = injector.reports[self.seen_reports]
            self.seen_reports += 1
            self.all_reports.append(report)
            if checker is not None:
                checker.check_disk_failure(report, conservative=self.conservative)
            if report.disk not in self.failed_disks:
                self.failed_disks.append(report.disk)
            self.event_log.append(
                {
                    "t": report.at_time,
                    "kind": "disk_failure",
                    "disk": report.disk,
                    "dirty_stripes": report.dirty_stripes_at_failure,
                    "predicted_bytes": report.predicted_loss_bytes,
                    "actual_bytes": report.lost_data_bytes,
                    "conservative": self.conservative,
                }
            )
            self._schedule_repair(report.at_time + self.spec.repair_delay_s, report.disk)
        while self.seen_skips < len(injector.skipped):
            skip = injector.skipped[self.seen_skips]
            self.seen_skips += 1
            self.skipped_strikes += 1
            self.event_log.append(
                {
                    "t": skip.at_time,
                    "kind": "disk_failure_skipped",
                    "disk": skip.disk,
                    "reason": skip.reason,
                }
            )

    def _nvram_lost(self, _event) -> None:
        self.conservative = True
        if self.checker is not None:
            self.checker.check_nvram_remark()
        self.event_log.append(
            {"t": self.sim.now, "kind": "nvram_loss", "remarked": self.array.marks.count}
        )

    def _probe_latent(self, disk: int, lba: int, _event) -> None:
        LatentProbe(self.array, disk, lba, self._latent_probed, on_read=self._latent_read)

    def _latent_read(self, probe: LatentProbe) -> None:
        """The probe's read is back: check the detection, and note whether
        the sector's rows were clean before the rewrite goes out."""
        array, twin = self.array, self.twin
        if self.checker is not None:
            self.checker.check_latent_detected(probe.disk, probe.lba, probe.detected)
        unit = array.layout.logical_of(probe.disk, probe.lba)
        stripe = unit.stripe
        row = probe.lba - unit.disk_lba
        sub_unit = sub_unit_of(row, array.layout.stripe_unit_sectors, self.spec.bits_per_stripe)
        is_parity = unit.kind is UnitKind.PARITY
        if twin is not None:
            clean = is_parity or sub_unit not in twin.dirty_sub_units(stripe)
        else:
            # No twin: the NVRAM marks are the (conservative)
            # dirtiness oracle.
            clean = is_parity or not array.marks.is_marked(stripe, sub_unit)
        # Scrub-style repair: the rewrite's content reconstructs through
        # parity exactly when the rows are clean — a dirty row's content
        # is the AFRAID exposure.
        probe.tag = (stripe, clean)

    def _latent_probed(self, probe: LatentProbe) -> None:
        if probe.lost == "write":
            return  # the member died under the rewrite: a disk failure now
        entry = {"t": self.sim.now, "disk": probe.disk, "lba": probe.lba}
        if probe.lost == "start":
            entry["kind"] = "latent_error_skipped"
        elif probe.lost == "read":
            entry["kind"] = "latent_error_lost_with_disk"
        else:
            stripe, clean = probe.tag
            if self.checker is not None:
                self.checker.check_latent_repair(probe.disk, probe.lba, probe.healed, stripe, clean)
            entry.update(
                kind="latent_error", detected=probe.detected, recoverable=clean, healed=probe.healed
            )
        self.event_log.append(entry)

    # -- the report ----------------------------------------------------------------

    def report(self) -> CampaignReport:
        """Reduce the finished run to its byte-stable report."""
        spec, array, twin = self.spec, self.array, self.twin
        all_reports = self.all_reports
        violations = [result for result in self.invariant_results if not result.ok]
        summary = {
            "ok": not violations,
            "segments": self.nsegments,
            "disk_failures": len(all_reports),
            "skipped_strikes": self.skipped_strikes,
            "predicted_loss_bytes": sum(r.predicted_loss_bytes for r in all_reports),
            "actual_loss_bytes": sum(r.lost_data_bytes for r in all_reports),
            "spares_used": spec.spare_pool - self.spares_left,
            "latent_sectors_repaired": self.latent_repaired,
            "final_degraded_disk": array.degraded_disk,
            "data_loss_events": len(array.data_loss_events),
            "final_marks": array.marks.count,
            "final_dirty_stripes": 0 if twin is None else len(twin.dirty_stripes),
            "request_classes": {
                name: hist.count for name, hist in sorted(self.hists.hists.items()) if hist.count
            },
            "data_lost_requests": self.failure_kinds.get("DataLostError", 0),
        }
        payload = {
            "campaign": {"seed": self.campaign.seed, "spec": spec.to_dict()},
            "schedule": [dataclasses.asdict(event) for event in self.events],
            "crash_points": [t for t in self.boundaries[1:-1]],
            "events": self.event_log,
            "requests": dict(
                self.requests, failure_kinds=dict(sorted(self.failure_kinds.items()))
            ),
            "invariants": [result.as_payload() for result in self.invariant_results],
            "summary": summary,
        }
        return CampaignReport(seed=self.campaign.seed, payload=payload)


def run_campaign(spec: CampaignSpec, seed: int) -> CampaignReport:
    """Run one seeded campaign and return its report."""
    return FaultCampaign(spec, seed).run()
