"""Fault runs: a workload replayed under a seeded fault schedule.

A fault run replays a workload against a fresh array while a seeded
schedule of faults — member-disk deaths, NVRAM (marking-memory) losses,
latent sector errors and, in a campaign, whole-box crashes/power losses
— strikes it, with spare-disk repairs following each failure after a
technician delay.  :class:`FaultRun` is that run, one object with one
set of steps:

* :meth:`~FaultRun.begin` builds a segment from the spec — simulator,
  array, functional twin, injector — arms its faults and returns its
  slice of the trace, which the caller feeds through the replay driver
  (:func:`repro.harness.replay.feed_trace`);
* :meth:`~FaultRun.end` closes the segment: at a crash, or at the
  horizon (:func:`repro.harness.replay.close_replay`) followed by
  :func:`finish_recovery`;
* :meth:`~FaultRun.report` reduces the run; :meth:`~FaultRun.run` takes
  every step.

Its two cases are the seeded campaign (:class:`CampaignRun`, here) and
the SLO-gated nemesis (:class:`~repro.faults.nemesis.NemesisLoop`, which
adds the gate loop, the SLO engine and the timeline).  The campaign adds
crash segments and the invariant checks: after every event the
:class:`~repro.faults.invariants.InvariantChecker` compares the array's
own loss prediction (the NVRAM marks, eq. (4)) against the functional
twin's ground truth.

Crashes are simulated structurally: the run is cut into *segments* at
each crash point.  A segment's simulator and array simply stop (whatever
was in flight is lost); the next segment builds a fresh simulator at the
crash time, restores the NVRAM marks (non-volatile), the failed-member
state, and the latent sector set, re-attaches the same functional twin
(the platters), runs the §3.1 recovery scan, and resumes the remainder
of the trace at its original timestamps.

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
from repro.faults.injector import FaultInjector, LatentProbe
from repro.faults.invariants import InvariantChecker
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


class _PerSpec:
    """The default of a shared field that each spec names in its ``DEFAULTS``."""

    def __repr__(self) -> str:
        return "<per-spec default>"


_PER_SPEC = _PerSpec()


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """The fields every fault run declares, and the checks they share.

    Fault knobs are *expected counts over the run* (a fractional part is
    a probability of one more event), drawn at seeded-uniform times in the
    middle 90 % of the run.  ``ndisks=None`` is the organization's default
    disk count.  The run's length, its fault counts and its spare pool
    default per spec: a subclass names them in ``DEFAULTS``, and checks its
    own fields after these.
    """

    DEFAULTS: typing.ClassVar[dict]

    workload: str = "snake"
    duration_s: float = _PER_SPEC
    ndisks: int | None = None
    organization: str = "raid5"
    stripe_unit_sectors: int = 8
    bits_per_stripe: int = 1
    policy: str = "afraid"
    disk_model: str = "toy"
    idle_threshold_s: float = 0.05
    disk_failures: float = _PER_SPEC
    nvram_losses: float = _PER_SPEC
    latent_errors: float = _PER_SPEC
    spare_pool: int = _PER_SPEC
    repair_delay_s: float = 0.5
    settle_s: float = 2.0
    max_faults: int = 16

    def __post_init__(self) -> None:
        for name, value in self.DEFAULTS.items():
            if getattr(self, name) is _PER_SPEC:
                object.__setattr__(self, name, value)
        check_choice("workload", self.workload, CATALOG)
        check_number("duration_s", self.duration_s, strict=True)
        _org, ndisks = check_organization(self.organization, self.ndisks)
        object.__setattr__(self, "ndisks", ndisks)
        for name in ("stripe_unit_sectors", "bits_per_stripe"):
            check_integer(name, getattr(self, name), minimum=1)
        for name in ("spare_pool", "max_faults"):
            check_integer(name, getattr(self, name), minimum=0)
        check_choice("policy", self.policy, POLICIES)
        check_choice("disk_model", self.disk_model, _DISK_FACTORIES)
        for name in (
            "idle_threshold_s", "disk_failures", "nvram_losses", "latent_errors",
            "repair_delay_s", "settle_s",
        ):
            check_number(name, getattr(self, name))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CampaignSpec(FaultSpec):
    """What a campaign throws at the array.

    ``crash_points`` adds explicit power-loss times on top of the random
    ``crashes`` draws.
    """

    DEFAULTS: typing.ClassVar[dict] = {
        "duration_s": 6.0, "disk_failures": 1.0, "nvram_losses": 0.0, "latent_errors": 0.0,
        "spare_pool": 1,
    }

    crashes: float = 0.0
    crash_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
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


class FaultRun:
    """One fault run: the state it carries across its segments.

    :meth:`begin` builds a segment's simulator, array and injector from
    the spec, re-attaches the run's functional twin, arms the segment's
    faults and returns its slice of the trace; the caller feeds it
    through the replay driver.  :meth:`end` closes the segment, at a
    crash or at the horizon, and :meth:`report` reduces the run.  Every
    handler a segment arms is a bound method, so a run pickles between
    any two events.

    The spare pool and the repair are shared: a case decides when to arm
    a repair (:meth:`_arm_repair`); a spare leaves the pool when its
    rebuild starts, and a crash that discards a rebuild gives its spare
    back.  So is the request tally, and both cases read the injector's
    strikes through :meth:`~repro.faults.injector.FaultInjector.take_strikes`.
    A case names its run (``name``) and supplies ``_arm(start, end)``,
    ``_close(final)``, ``_no_spare(disk, cause)``,
    ``_repaired(disk, cause, spare, stats)`` and ``report()``.
    """

    #: Names the run's array, its spares and its repair timeouts.
    name: str

    def __init__(
        self, spec: FaultSpec, seed: int, crashes: float = 0.0,
        crash_points: typing.Sequence[float] = (),
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.events, crash_times = draw_fault_schedule(
            random.Random(seed),
            duration_s=spec.duration_s,
            ndisks=spec.ndisks,
            disk_failures=spec.disk_failures,
            nvram_losses=spec.nvram_losses,
            latent_errors=spec.latent_errors,
            crashes=crashes,
            crash_points=crash_points,
            max_faults=spec.max_faults,
        )
        self.boundaries = (
            [0.0]
            + [time_s for time_s in crash_times if 0.0 < time_s < spec.duration_s]
            + [spec.duration_s]
        )
        self.nsegments = len(self.boundaries) - 1
        self.twin: FunctionalArray | None = None
        self.trace = None
        self.hists = HistogramSet()
        self.spares_left = spec.spare_pool
        #: Members whose rebuild holds a spare taken from the pool.
        self.rebuilding: set[int] = set()
        self.spares_made = 0
        self.requests = {"submitted": 0, "completed": 0, "failed": 0, "failure_kinds": {}}
        self.index = -1

    def run(self):
        """Take every step: build, feed and close each segment, then reduce."""
        # Deferred: repro.harness imports this package.
        from repro.harness.replay import feed_trace

        for index in range(self.nsegments):
            records = self.begin(index)
            feed_trace(self.replay, records)
            self.end()
        return self.report()

    # -- segments ------------------------------------------------------------------

    def begin(self, index: int) -> list:
        """Build segment ``index`` and arm its faults; returns its records."""
        spec = self.spec
        self.index = index
        start, end = self.boundaries[index], self.boundaries[index + 1]
        sim = self.sim = Simulator(start_time=start)
        array = self.array = build_array(
            sim,
            POLICIES[spec.policy](),
            ndisks=spec.ndisks,
            stripe_unit_sectors=spec.stripe_unit_sectors,
            disk_factory=_DISK_FACTORIES[spec.disk_model],
            organization=spec.organization,
            idle_threshold_s=spec.idle_threshold_s,
            bits_per_stripe=spec.bits_per_stripe,
            name=self.name,
        )
        organization = array.organization
        # The twin is the run's, so the platters survive a crash.  Its
        # offset arithmetic assumes rotated stripe units: mirrored and
        # declustered organizations run without it (and hence without
        # byte-exact invariant checks).
        if self.twin is None and not (organization.mirrored or organization.declustered):
            self.twin = FunctionalArray(
                array.layout, sector_bytes=array.sector_bytes, sub_units=spec.bits_per_stripe
            )
        array.functional = self.twin
        self._attach(array)
        if self.trace is None:
            self.trace = make_trace(
                spec.workload,
                duration_s=spec.duration_s,
                address_space_sectors=array.layout.total_data_sectors,
                seed=self.seed,
                allow_generic=True,
            )
        self.injector = FaultInjector(sim, array)
        self._arm(start, end)
        self.replay = (sim, array, [], [])
        return [record for record in self.trace if start <= record.time_s < end]

    def end(self) -> None:
        """Close the fed segment: a crash, or the horizon and recovery."""
        from repro.harness.replay import close_replay

        spec, sim = self.spec, self.sim
        final = self.index == self.nsegments - 1
        if final:
            close_replay(self.replay, spec.duration_s, spec.settle_s, finalize=False)
            finish_recovery(sim, self.array, poll=self.poll)
        else:
            sim.run(until=self.boundaries[self.index + 1])
            # The crash discards the rebuilds in flight: their spares go
            # back to the pool, for the restarted repairs to take again.
            self.spares_left += len(self.rebuilding)
            self.rebuilding.clear()
        self._tally(self.replay[3])
        self._close(final)
        if final:
            self.array.finalize()

    def _tally(self, completions: list) -> None:
        """Count a segment's requests; a crash leaves some in flight."""
        requests = self.requests
        requests["submitted"] += len(completions)
        for completion in completions:
            if not completion.triggered:
                requests["in_flight_at_crash"] += 1
            elif completion.ok:
                requests["completed"] += 1
            else:
                requests["failed"] += 1
                kinds = requests["failure_kinds"]
                name = type(completion.exception).__name__
                kinds[name] = kinds.get(name, 0) + 1

    def _attach(self, array: DiskArray) -> None:
        """Attach the segment's observability sinks."""
        array.attach_observability(histograms=self.hists)

    def poll(self, now: float) -> None:
        """A telemetry pass, after each step of the recovery drain."""

    # -- the repair ------------------------------------------------------------------

    def _arm_repair(self, disk: int, delay: float, cause=None) -> None:
        """Repair member ``disk`` after ``delay``; ``cause`` rides along."""
        self.sim.timeout(delay, name=f"{self.name}.repair").callbacks.append(
            functools.partial(self._repair, disk, cause)
        )

    def _repair(self, disk: int, cause, _event) -> None:
        # The strike may have been skipped, the member already repaired,
        # or its rebuild already under way; only a live, unclaimed
        # degradation on *this* member is ours to fix.
        sim, array = self.sim, self.array
        if disk not in array.failed_disks or disk in self.rebuilding:
            return
        if self.spares_left <= 0:
            self._no_spare(disk, cause)
            return
        self.spares_left -= 1
        self.rebuilding.add(disk)
        self.spares_made += 1
        spare = _DISK_FACTORIES[self.spec.disk_model](
            sim, name=f"{self.name}.spare{self.spares_made}"
        )
        self._rebuild_started(disk, cause)
        manager = RebuildManager(sim, array, yield_to_foreground=False)
        manager.rebuild_onto(disk, spare).callbacks.append(
            functools.partial(self._rebuilt, disk, cause, spare.name)
        )

    def _rebuild_started(self, disk: int, cause) -> None:
        """A repair took a spare and starts rebuilding ``disk`` onto it."""

    def _rebuilt(self, disk: int, cause, spare: str, rebuilt) -> None:
        self.rebuilding.discard(disk)
        self._repaired(disk, cause, spare, rebuilt.value)


class CampaignRun(FaultRun):
    """The campaign case: crash segments, carried state and invariant checks.

    Each segment after a crash restores what the crash must not destroy
    (the NVRAM marks, the failed members, the latent sectors) and runs the
    §3.1 recovery scan; every strike is checked against the twin.
    """

    name = "campaign"

    def __init__(self, spec: CampaignSpec, seed: int) -> None:
        super().__init__(spec, seed, crashes=spec.crashes, crash_points=spec.crash_points)
        self.requests["in_flight_at_crash"] = 0
        # Non-volatile across crashes: the NVRAM marks, the failed members
        # (mirrored organizations survive several) and the media defects.
        self.marks: list = []
        self.failed_disks: list[int] = []
        self.latent: dict[int, list[int]] = {}
        self.conservative = False
        self.event_log: list[dict] = []
        self.invariant_results: list = []
        self.all_reports: list = []
        self.skipped_strikes = 0
        self.latent_repaired = 0

    def _arm(self, start: float, end: float) -> None:
        spec, sim, array, injector = self.spec, self.sim, self.array, self.injector
        checker = self.checker = InvariantChecker(array) if self.twin is not None else None

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
        if self.index > 0:
            self.event_log.append(
                {
                    "t": start,
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
                self._arm_repair(failed_disk, start + spec.repair_delay_s - sim.now)

        for event in self.events:
            if not start <= event.time_s < end:
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

    def _close(self, final: bool) -> None:
        array, checker = self.array, self.checker
        if final:
            self._refresh_conservative()
            if checker is not None:
                checker.check_marks_cover_twin()
                if array.degraded_disk is None:
                    checker.check_recovery_complete()
                    checker.check_parity_audit()
        else:
            self.event_log.append({"t": self.boundaries[self.index + 1], "kind": "crash"})
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

    def _no_spare(self, disk: int, cause) -> None:
        self.event_log.append({"t": self.sim.now, "kind": "repair_no_spare", "disk": disk})

    def _repaired(self, disk: int, cause, spare: str, stats) -> None:
        array = self.array
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
                "stripes": stats.stripes_rebuilt,
                "marks_left": array.marks.count,
            }
        )
        if self.checker is not None:
            self.checker.check_marks_cover_twin()

    def _disk_failure_checked(self, _event) -> None:
        self._refresh_conservative()
        checker = self.checker
        reports, skips = self.injector.take_strikes()
        for report in reports:
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
            # The technician arrives repair_delay_s after the strike.
            self._arm_repair(
                report.disk, report.at_time + self.spec.repair_delay_s - self.sim.now
            )
        for skip in skips:
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
            "data_lost_requests": self.requests["failure_kinds"].get("DataLostError", 0),
        }
        payload = {
            "campaign": {"seed": self.seed, "spec": spec.to_dict()},
            "schedule": [dataclasses.asdict(event) for event in self.events],
            "crash_points": [t for t in self.boundaries[1:-1]],
            "events": self.event_log,
            "requests": self.requests,
            "invariants": [result.as_payload() for result in self.invariant_results],
            "summary": summary,
        }
        return CampaignReport(seed=self.seed, payload=payload)


def run_campaign(spec: CampaignSpec, seed: int) -> CampaignReport:
    """Run one seeded campaign and return its report."""
    return CampaignRun(spec, seed).run()
