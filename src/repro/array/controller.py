"""The array controller servicing client requests over member disks.

Faithful to the paper's §4.1 configuration:

* host-level C-LOOK queueing over logical addresses; FCFS back-end drivers;
* at most ``ndisks`` client requests concurrently active inside the array;
* a 256 KB write-through staging area and a 256 KB read cache, no readahead;
* spin-synchronised member disks (equal spindle phase);
* requests are never preempted once started; multiple writes to the same
  stripe may proceed in parallel, but block while that stripe's parity is
  being rebuilt;
* AFRAID writes mark stripes in NVRAM *before* the data lands; the
  background scrubber rebuilds parity in idle periods, preemptible between
  stripes (not within one);
* RAID 5 writes use read-modify-write for small updates, reconstruct-write
  for writes to stripes with stale parity, and a no-preread fast path for
  full-stripe writes.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.array.batchplan import MIN_VECTOR_EXTENTS, plan_host_batch
from repro.array.cache import ByteBudget, ReadCache
from repro.array.request import ArrayRequest
from repro.availability import ParityLagTracker, ReliabilityParams
from repro.disk import DiskFailedError, DiskIO, IoKind, LatentSectorError, MechanicalDisk
from repro.idle import IdleDetector
from repro.layout import Raid5Layout
from repro.layout.base import ExtentRun
from repro.layout.organization import ArrayOrganization, get_organization
from repro.nvram import MarkMemory, sub_unit_extent, sub_units_overlapping
from repro.obs.observer import Observer
from repro.policy import ParityPolicy, WriteMode
from repro.sched import ClookScheduler, DiskDriver, FcfsScheduler
from repro.sim import AllOf, Event, Resource, Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - optional functional twin
    from repro.blocks import FunctionalArray
    from repro.obs import ExposureMonitor, HistogramSet, MetricsRegistry, Tracer


@dataclasses.dataclass
class ArrayStats:
    """Cumulative controller counters."""

    reads_completed: int = 0
    writes_completed: int = 0
    io_times: list[float] = dataclasses.field(default_factory=list)
    # Disk I/Os by purpose:
    foreground_data_reads: int = 0
    foreground_data_writes: int = 0
    preread_ios: int = 0  # old-data + old-parity reads of the RMW protocol
    foreground_parity_writes: int = 0
    reconstruct_reads: int = 0  # reads serving a RAID 5 write to a dirty stripe
    scrub_data_reads: int = 0
    # Redundancy writes by the scrub, counted at two points: a RAID 5 or
    # declustered RAID 5 parity write once it lands, each mirrored copy
    # (RAID 1, RAID 1/0, and RAID 1+5's parity pair) when it is issued.
    scrub_parity_writes: int = 0
    stripes_scrubbed: int = 0

    @property
    def completed(self) -> int:
        return self.reads_completed + self.writes_completed

    @property
    def mean_io_time(self) -> float:
        return sum(self.io_times) / len(self.io_times) if self.io_times else 0.0

    @property
    def foreground_disk_ios(self) -> int:
        """Disk I/Os in (or caused by) the client critical path."""
        return (
            self.foreground_data_reads
            + self.foreground_data_writes
            + self.preread_ios
            + self.foreground_parity_writes
            + self.reconstruct_reads
        )


@dataclasses.dataclass(frozen=True)
class DataLossEvent:
    """A structured multiple-failure outcome.

    Recorded (instead of raising) when a disk fails while others are
    already down: mirrored organizations can absorb failures that kill
    RAID 5, so whether the event is *survivable* depends on the
    organization's failed-set semantics.  Nemesis and campaign loops log
    these on their timelines and keep running.
    """

    time_s: float
    disk: int
    failed_disks: tuple[int, ...]
    organization: str
    survivable: bool
    dirty_stripes: int
    parity_lag_bytes: float
    reason: str


class DiskArray:
    """A RAID 5 / AFRAID / RAID 0 array; the model is chosen by ``policy``."""

    def __init__(
        self,
        sim: Simulator,
        disks: list[MechanicalDisk],
        stripe_unit_sectors: int,
        policy: ParityPolicy,
        read_cache_bytes: int = 256 * 1024,
        write_staging_bytes: int = 256 * 1024,
        idle_threshold_s: float = 0.100,
        cache_hit_latency_s: float = 0.0002,
        write_policy: str = "writethrough",
        nvram_ack_latency_s: float = 0.0002,
        params: ReliabilityParams | None = None,
        functional: "FunctionalArray | None" = None,
        bits_per_stripe: int = 1,
        host_scheduler: ClookScheduler | None = None,
        name: str = "array",
        organization: "str | ArrayOrganization" = "raid5",
    ) -> None:
        org = get_organization(organization)
        org.validate(len(disks))
        self.organization = org
        self._mirrored = org.mirrored
        self.sim = sim
        self.disks = list(disks)
        self.policy = policy
        self.params = params if params is not None else ReliabilityParams()
        self.functional = functional
        self.name = name
        # Hot-path event/process labels, formatted once (per-request
        # f-strings showed up in sweep profiles).
        self._ev_done = f"{name}.done"
        self._ev_r5w = f"{name}.r5w"
        self._ev_rebuild = f"{name}.rebuild"
        self._ev_commit = f"{name}.commit"
        self.cache_hit_latency_s = cache_hit_latency_s
        if write_policy not in ("writethrough", "writeback"):
            raise ValueError(f"write_policy must be writethrough|writeback, got {write_policy!r}")
        #: "writethrough" (the paper's §4.1 configuration): a write
        #: completes once it is on disk.  "writeback": the write completes
        #: when it reaches the NVRAM staging area (single-copy NVRAM
        #: semantics, §3.4) and is flushed to disk in the background —
        #: the PrestoServe-style configuration the paper compares against.
        self.write_policy = write_policy
        self.nvram_ack_latency_s = nvram_ack_latency_s

        self.sector_bytes = disks[0].geometry.sector_bytes
        usable_sectors = min(disk.geometry.total_sectors for disk in disks)
        self.layout = org.build_layout(len(disks), stripe_unit_sectors, usable_sectors)
        self.unit_bytes = stripe_unit_sectors * self.sector_bytes

        self.drivers = [
            DiskDriver(sim, disk, FcfsScheduler(), name=f"{name}.be{index}")
            for index, disk in enumerate(self.disks)
        ]
        self.slots = Resource(sim, capacity=len(disks), name=f"{name}.slots")
        self.read_cache = ReadCache(read_cache_bytes, self.unit_bytes, self.sector_bytes)
        self.staging = ByteBudget(sim, write_staging_bytes, name=f"{name}.staging")
        self.marks = MarkMemory(self.layout.nstripes, bits_per_stripe=bits_per_stripe)
        self.detector = IdleDetector(sim, threshold_s=idle_threshold_s)
        self.lag_tracker = ParityLagTracker(start_time=sim.now)
        #: Dirty bytes behind the single-copy NVRAM (writeback mode only):
        #: the §3.4 vulnerable-data quantity for the NVRAM MDLR comparison.
        self.nvram_dirty_tracker = ParityLagTracker(start_time=sim.now)
        self._nvram_dirty_bytes = 0
        self.stats = ArrayStats()
        #: The observer of the attached sinks (see :meth:`attach_observability`),
        #: and the same observer while it has a tracer, for the sites only
        #: the tracer listens to.  ``None`` keeps every instrumentation
        #: site to a single check.
        self.obs: Observer | None = None
        self.traced_obs: Observer | None = None

        # The paper's host driver uses C-LOOK; any IoScheduler works here
        # (the scheduler-comparison ablation swaps in FCFS / SSTF / LOOK).
        self._host_queue = host_scheduler if host_scheduler is not None else ClookScheduler()
        self._host_pumping = False
        #: The pump callback, bound once: appended per slot grant, and a
        #: ``self._host_step`` reference allocates a bound method each use.
        self._host_step_cb = self._host_step
        #: Arrivals since the last batch-planning pass.  Re-planning is
        #: pointless until the backlog changes: the batch planner is a
        #: pure function of the queued request set, so a pop with an
        #: unplanned head re-scans only once enough new arrivals landed
        #: to possibly make the array ops pay (a skipped plan just means
        #: the scalar path — plans are optional).
        self._plan_dirty = 0
        #: Callback-pump state: the pending slot grant (None between runs).
        self._host_wait: Event | None = None
        self._clook_position = 0
        self._rebuilding: dict[int, Event] = {}
        #: All-zero write payloads by byte length: replay traces carry no
        #: data, so the functional store sees the same zero buffer per
        #: request size instead of a fresh ``bytes`` allocation per write.
        #: Request sizes are bounded by the staging budget, so the cache
        #: stays small.
        self._zero_payloads: dict[int, bytes] = {}
        self._scrub_running = False
        self._force_scrub = False
        #: ``drain()`` events waiting for the next idle period.
        self._drains: list[Event] = []
        self._finished = False
        self._degraded_disk: int | None = None
        #: Every currently-failed member, in failure order; the first is
        #: mirrored in ``_degraded_disk`` (the hot paths test that alone).
        self._failed_disks: list[int] = []
        #: Structured outcomes of unsurvivable concurrent failures.
        self.data_loss_events: list[DataLossEvent] = []
        #: Latent sectors rewritten by the scrubber (kept off ArrayStats:
        #: the golden-replay fixtures compare that dataclass field-exact).
        self.latent_sectors_repaired = 0

        self.detector.on_idle.append(self._on_idle)
        policy.attach(self)

    # -- observability ----------------------------------------------------------------

    def attach_observability(
        self,
        tracer: "Tracer | None" = None,
        histograms: "HistogramSet | None" = None,
        registry: "MetricsRegistry | None" = None,
        exposure: "ExposureMonitor | None" = None,
    ) -> None:
        """Attach a tracer, latency histograms, and/or exposure telemetry.

        The sinks go behind one :class:`~repro.obs.observer.Observer` in
        :attr:`obs`, which the drivers (per-disk command spans, given a
        tracer), the policy (decision instants, mode-switch counters), a
        rebuild manager and a fault injector all reach through this array
        when an event happens, whenever they were built.  A ``registry``
        without an ``exposure`` monitor gets a default
        :class:`~repro.obs.ExposureMonitor` (window and reliability
        parameters from :attr:`params`), since the registry's availability
        gauges are its publications.  Each call replaces every sink: one
        passed as ``None`` is detached.
        """
        self.obs = obs = Observer.build(self, tracer, histograms, registry, exposure)
        self.traced_obs = traced = obs.traced if obs is not None else None
        for driver in self.drivers:
            driver.traced_obs = traced

    # -- ArrayView protocol (what policies see) -------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def ndisks(self) -> int:
        return len(self.disks)

    @property
    def dirty_stripe_count(self) -> int:
        return self.marks.marked_stripe_count

    @property
    def is_idle(self) -> bool:
        return self.detector.is_idle

    def unprotected_fraction_so_far(self) -> float:
        return self.lag_tracker.snapshot_unprotected_fraction(self.sim.now)

    def idle_fraction_so_far(self) -> float:
        return self.detector.idle_fraction()

    def request_scrub(self, force: bool = False) -> None:
        """Ask for background parity rebuilding (``force``: even if busy)."""
        if force:
            if not self._force_scrub and self.obs is not None:
                self.obs.forced_scrub()
            self._force_scrub = True
        self._ensure_scrubber()

    # -- derived figures --------------------------------------------------------------

    @property
    def parity_lag_bytes(self) -> float:
        """Current unredundant non-parity data (the paper's parity lag)."""
        per_mark = (
            self.layout.data_units_per_stripe * self.unit_bytes / self.marks.bits_per_stripe
        )
        return self.marks.count * per_mark

    @property
    def data_capacity_bytes(self) -> int:
        return self.layout.total_data_sectors * self.sector_bytes

    # -- client API ------------------------------------------------------------------------

    def submit(self, request: ArrayRequest) -> Event:
        """Hand ``request`` to the host driver; event fires at completion.

        The event's value is the request itself (with times stamped and,
        when a functional store is attached, read payloads filled in).
        """
        if self._finished:
            raise RuntimeError(f"{self.name} has been finalised")
        if request.offset_sectors + request.nsectors > self.layout.total_data_sectors:
            raise ValueError(
                f"request [{request.offset_sectors}, +{request.nsectors}) exceeds "
                f"array data capacity of {self.layout.total_data_sectors} sectors"
            )
        if request.submit_time is not None:
            raise ValueError("request was already submitted")
        sim = self.sim
        request.submit_time = sim._now
        self.detector.activity_started()
        done = Event(sim, self._ev_done)
        self._host_queue.push((request, done), request.offset_sectors)
        self._plan_dirty += 1
        if not self._host_pumping:
            self._host_pumping = True
            sim.call_soon(self._host_step_cb)
        return done

    def finalize(self) -> None:
        """Close the parity-lag (and NVRAM-dirty) integrals at the current time."""
        if not self._finished:
            self._finished = True
            self.lag_tracker.finish(self.sim.now)
            self.nvram_dirty_tracker.finish(self.sim.now)
            if self.obs is not None:
                self.obs.finish(self.sim.now)

    def drain(self) -> Event:
        """An event that fires once no client work is queued or in flight."""
        done = self.sim.event(name=f"{self.name}.drained")
        if self.detector.is_idle and not self._host_queue:
            done.succeed()
        else:
            self._drains.append(done)  # fired by the next _on_idle
        return done

    # -- host-side dispatch --------------------------------------------------------------------

    def _host_step(self, event: Event) -> None:
        """One host-pump step: dispatch on a granted slot, re-arm or park.

        A slot grant pops the C-LOOK queue and starts the request's
        :class:`_ServiceCall`, then arms the next acquisition.  Where the
        kernel is quiet (:meth:`~repro.sim.Simulator.quiet`) the events
        that would dispatch next — the service call's kick, the next slot
        grant — are elided and their handlers run in place, which is
        dispatch-for-dispatch identical (see docs/PERFORMANCE.md).
        """
        if event is self._host_wait:
            self._host_wait = None
            sim = self.sim
            slots = self.slots
            while True:
                (request, done), position = self._host_queue.pop(self._clook_position)
                self._clook_position = position
                if (
                    request.plan is None
                    and self._plan_dirty >= MIN_VECTOR_EXTENTS
                    and self._host_queue
                    and self._degraded_disk is None
                    and not self._rebuilding
                    and type(self.layout) is Raid5Layout
                ):
                    # The driver holds a backlog: plan its geometry as
                    # one batch (see repro.array.batchplan).
                    plan_host_batch(self, request)
                if sim.quiet() and (
                    not self._host_queue or slots._in_use >= slots.capacity or slots._waiters
                ):
                    # Quiet kernel and the re-arm below will not schedule
                    # a grant (queue drained, or no slot free): the kick
                    # would dispatch immediately next, with anything the
                    # body itself schedules keeping its relative order —
                    # so run the body inline and elide the kick.
                    _ServiceCall(self, request, done)._start(None)
                else:
                    _ServiceCall(self, request, done).start()
                if not self._host_queue:
                    self._host_pumping = False
                    return
                # Re-arm.  When the grant would be immediate (free slot,
                # no waiters) and the kernel is quiet, the cascade from
                # here is exactly grant-dispatch → this handler — nothing
                # can interleave — so take the slot in place and loop,
                # eliding the grant event.  A service kick in the bucket
                # (the common loaded case) fails the quiet check and parks
                # on a real grant, preserving the kick/grant interleaving
                # that paces dispatch.
                if slots._in_use < slots.capacity and not slots._waiters and sim.quiet():
                    slots._in_use += 1
                    continue
                grant = slots.acquire()
                grant.callbacks.append(self._host_step_cb)
                self._host_wait = grant
                return
        elif (
            len(self._host_queue) == 1
            and self._degraded_disk is None
            and not self._rebuilding
            and self.slots._in_use < self.slots.capacity
            and not self.slots._waiters
            and self.sim.quiet()
        ):
            # Fused dispatch at the bootstrap kick.  With exactly one
            # request queued, a free slot, and a quiet kernel, the cascade
            # from here is fully determined: the uncontended slot grant
            # would dispatch next (pop + service start), then the service
            # kick (request body).  Nothing can be scheduled in between —
            # same-instant events all join the bucket behind the grant —
            # so running pop and body inline here is dispatch-for-dispatch
            # identical and elides both events.  With a backlog (>1
            # queued) the pump interleaves the next pop between this
            # request's kicks, so fusion is skipped whenever requests
            # could interact.
            self.slots._in_use += 1
            (request, done), position = self._host_queue.pop(self._clook_position)
            self._clook_position = position
            self._host_pumping = False
            _ServiceCall(self, request, done)._start(None)
            return
        if self._host_queue:
            grant = self.slots.acquire()
            grant.callbacks.append(self._host_step_cb)
            self._host_wait = grant
        else:
            self._host_pumping = False

    # -- degraded-mode state (used by repro.ext.rebuild) -----------------------------------------------

    @property
    def degraded_disk(self) -> int | None:
        """The failed member the array is currently operating without.

        With several concurrent failures this is the *first* still-failed
        member (the one a rebuild is working on); see :attr:`failed_disks`
        for the whole set.
        """
        return self._degraded_disk

    @property
    def failed_disks(self) -> tuple[int, ...]:
        """All currently-failed members, in failure order."""
        return tuple(self._failed_disks)

    def fail_member(self, disk: int) -> tuple[int, float, int]:
        """Fail member ``disk`` now: the one way a member dies.

        The mechanical disk starts erroring, a functional twin loses the
        member's contents, and the array operates degraded
        (:meth:`enter_degraded`).  Returns the dirty stripes, the parity
        lag and the bytes the twin lost at the failure.  Raises
        ``ValueError``, failing nothing, for a member that already failed
        or a failure the organization cannot absorb beside those already
        failed (a second RAID 5 failure, a RAID 1/0 pair's partner).
        """
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if self.disks[disk].failed:
            raise ValueError(f"disk {disk} already failed")
        if self._failed_disks and not self.organization.can_absorb((*self._failed_disks, disk)):
            raise ValueError(f"array already degraded on disk {self._degraded_disk}")
        self.disks[disk].fail()
        dirty = self.dirty_stripe_count
        lag = self.parity_lag_bytes
        lost = 0
        if self.functional is not None:
            lost = self.functional.lost_data_bytes(disk)
            self.functional.fail_disk(disk)
        self.enter_degraded(disk)
        if self.obs is not None:
            self.obs.event("disk_failure", disk=disk, dirty=dirty, lag_bytes=lag, lost_bytes=lost)
        return dirty, lag, lost

    def enter_degraded(self, disk: int) -> "DataLossEvent | None":
        """Operate without member ``disk``: reads use the redundant copy
        (parity reconstruction or the mirror partner), writes take the
        organization's degraded path.

        A failure beyond the first no longer raises: it returns a
        :class:`DataLossEvent` describing the outcome — survivable for
        mirrored organizations whose partner copies are intact, a
        recorded data loss otherwise — so nemesis and campaign loops can
        log it and keep running.
        """
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if disk in self._failed_disks:
            return None  # already known failed
        self._failed_disks.append(disk)
        if self._degraded_disk is None:
            self._degraded_disk = disk
        if len(self._failed_disks) < 2:
            return None
        survivable = self.organization.can_absorb(self._failed_disks)
        event = DataLossEvent(
            time_s=self.sim.now,
            disk=disk,
            failed_disks=tuple(self._failed_disks),
            organization=self.organization.name,
            survivable=survivable,
            dirty_stripes=self.marks.marked_stripe_count,
            parity_lag_bytes=self.parity_lag_bytes,
            reason=(
                "redundant copies cover every failed member"
                if survivable
                else "concurrent failures exceed the organization's redundancy"
            ),
        )
        if not survivable:
            self.data_loss_events.append(event)
        obs = self.obs
        if obs is not None:
            obs.event(
                "multi_disk_failure",
                disk=disk, failed_disks=len(self._failed_disks), survivable=survivable,
            )
            if not survivable:
                obs.event("data_loss")
        return event

    def leave_degraded(self, disk: int | None = None) -> None:
        """A replacement disk is fully rebuilt: resume normal operation.

        With no argument every failure is considered repaired (the
        historical single-failure behaviour); passing ``disk`` clears
        just that member, and ``degraded_disk`` moves to the next
        still-failed one.
        """
        if disk is None:
            self._failed_disks.clear()
        elif disk in self._failed_disks:
            self._failed_disks.remove(disk)
        self._degraded_disk = self._failed_disks[0] if self._failed_disks else None

    # -- reads ---------------------------------------------------------------------------------------

    def _survivors(self, stripe: int) -> list[tuple[int, int]]:
        """``(disk, lba)`` of an alive copy of each unit of ``stripe``.

        Read together, they rebuild a lost unit through parity: every
        other data unit and the parity unit, from whichever copy of a
        RAID 1+5 pair is alive.  A pure mirror has no parity, so a unit
        whose pair is gone has no survivors; the loss was recorded at
        failure time.
        """
        if not self.organization.has_parity:
            return []
        layout = self.layout
        return [
            (disk, unit.disk_lba)
            for unit in (*layout.data_units(stripe), layout.parity_unit(stripe))
            if (disk := self._alive_copy(unit.disk)) is not None
        ]

    def _read_rows(self, extents, offset: int, nsectors: int) -> list[Event]:
        """Read rows ``[offset, +nsectors)`` of each ``(disk, lba)`` unit extent."""
        drivers = self.drivers
        return [
            drivers[disk].submit(DiskIO(IoKind.READ, lba + offset, nsectors))
            for disk, lba in extents
        ]

    def _disk_alive(self, disk: int) -> bool:
        return disk not in self._failed_disks and not self.disks[disk].failed

    def _alive_copy(self, disk: int) -> int | None:
        """``disk`` when alive, else its alive mirror twin, else None."""
        if self._disk_alive(disk):
            return disk
        if self._mirrored:
            twin = self.layout.mirror_disk(disk)
            if self._disk_alive(twin):
                return twin
        return None

    # -- writes -----------------------------------------------------------------------------------------

    def _nvram_dirty_changed(self, delta: int) -> None:
        self._nvram_dirty_bytes += delta
        if not self._finished:
            self.nvram_dirty_tracker.record(self.sim.now, self._nvram_dirty_bytes)

    def _group_runs(self, request: ArrayRequest) -> dict[int, list[ExtentRun]]:
        grouped: dict[int, list[ExtentRun]] = {}
        for run in self.layout.map_extent(request.offset_sectors, request.nsectors):
            bucket = grouped.get(run.stripe)
            if bucket is None:
                grouped[run.stripe] = [run]
            else:
                bucket.append(run)
        return grouped

    def _payload(self, request: ArrayRequest) -> bytes:
        if request.data is not None:
            return request.data
        nbytes = request.nsectors * self.sector_bytes
        payload = self._zero_payloads.get(nbytes)
        if payload is None:
            payload = self._zero_payloads[nbytes] = bytes(nbytes)
        return payload

    def _mark_runs(self, stripe_items, mark_targets=None) -> None:
        """Set the NVRAM marks a deferred (AFRAID-style) write requires.

        ``stripe_items`` pairs each touched stripe with its runs, in
        ``_group_runs`` order.  ``mark_targets`` — a batch plan's
        precomputed ``(stripe, sub_unit)`` sequence, the one this walk
        would produce — replaces the walk.
        """
        obs = self.obs
        if obs is not None:
            obs.stripes_dirtied([stripe for stripe, _runs in stripe_items], self.sim.now)
        newly_marked = False
        marks = self.marks
        if mark_targets is not None:
            for stripe, sub_unit in mark_targets:
                newly_marked |= marks.mark(stripe, sub_unit)
        elif marks.bits_per_stripe == 1:
            # The common configuration: one mark per stripe, so each run
            # hits sub-unit 0 and the per-run span arithmetic is skipped.
            for stripe, runs in stripe_items:
                for _run in runs:
                    newly_marked |= marks.mark(stripe, 0)
        else:
            for stripe, runs in stripe_items:
                for run in runs:
                    for sub_unit in self._sub_units_of(run):
                        newly_marked |= marks.mark(stripe, sub_unit)
        if newly_marked:
            self._lag_changed()

    def _sub_units_of(self, run: ExtentRun) -> range:
        """The marking sub-units a run overlaps (always {0} with 1 bit).

        Sub-units divide the stripe-unit *height* (§5): with M bits per
        stripe, bit k covers rows [k·U/M, (k+1)·U/M) of every unit in the
        stripe, so a rebuild touches only that horizontal slice.
        """
        bits = self.marks.bits_per_stripe
        if bits == 1:
            return range(0, 1)
        unit_sectors = self.layout.stripe_unit_sectors
        start_in_unit = run.disk_lba - self.layout.unit_lba(run.stripe, run.disk)
        return sub_units_overlapping(start_in_unit, run.nsectors, unit_sectors, bits)

    def _submit_data_writes(self, runs: list[ExtentRun]) -> list[Event]:
        drivers = self.drivers
        events = [
            drivers[run.disk].submit(DiskIO(IoKind.WRITE, run.disk_lba, run.nsectors))
            for run in runs
        ]
        self.stats.foreground_data_writes += len(events)
        return events

    def _slice_reads(self, stripe: int, offset: int, nsectors: int) -> list[Event]:
        """Read rows ``[offset, +nsectors)`` of every data unit of ``stripe``."""
        drivers = self.drivers
        return [
            drivers[unit.disk].submit(DiskIO(IoKind.READ, unit.disk_lba + offset, nsectors))
            for unit in self.layout.data_units(stripe)
        ]

    def _redundancy_writes(self, stripe: int, offset: int, nsectors: int) -> list[Event]:
        """Write rows ``[offset, +nsectors)`` of the redundancy of ``stripe``.

        That is the parity unit (RAID 5 and declustered RAID 5), both
        copies of the RAID 1+5 parity pair, or every RAID 1 / RAID 1/0
        mirror copy.
        """
        layout = self.layout
        if self.organization.has_parity:
            parity = layout.parity_unit(stripe)
            copies = [(parity.disk, parity.disk_lba)]
            if self._mirrored:  # RAID 1+5 mirrors its parity unit too
                copies.append((layout.mirror_disk(parity.disk), parity.disk_lba))
        else:
            copies = []
            for index in range(layout.data_units_per_stripe):
                mirror = layout.mirror_unit(stripe, index)
                copies.append((mirror.disk, mirror.disk_lba))
        return [
            self.drivers[disk].submit(DiskIO(IoKind.WRITE, lba + offset, nsectors))
            for disk, lba in copies
        ]

    def _uncovered_units(self, stripe: int, runs: list[ExtentRun]) -> list:
        """The data units of ``stripe`` that ``runs`` do not overwrite whole."""
        unit_sectors = self.layout.stripe_unit_sectors
        covered = {run.unit_index for run in runs if run.nsectors == unit_sectors}
        return [unit for unit in self.layout.data_units(stripe) if unit.unit_index not in covered]

    def _write_alive_copies(self, extents) -> list[Event]:
        """Write each ``(disk, lba, nsectors)`` extent to both alive copies of its pair."""
        mirror_disk = self.layout.mirror_disk
        drivers = self.drivers
        return [
            drivers[disk].submit(DiskIO(IoKind.WRITE, lba, nsectors))
            for primary, lba, nsectors in extents
            for disk in (primary, mirror_disk(primary))
            if self._disk_alive(disk)
        ]

    def _clean_stripe(self, stripe: int) -> None:
        """A foreground write made ``stripe`` redundant: clear its marks."""
        self.marks.clear_stripe(stripe)
        self._lag_changed()
        if self.obs is not None:
            self.obs.stripe_cleaned(stripe, self.sim.now, "write")

    # -- background parity scrubbing --------------------------------------------------------------------

    def _on_idle(self) -> None:
        if self.marks.count and self.policy.may_scrub_now():
            self._ensure_scrubber()
        drains, self._drains = self._drains, []
        for done in drains:
            done.succeed()

    def _ensure_scrubber(self) -> None:
        if not self._scrub_running and self.marks.count:
            self._scrub_running = True
            self.sim.call_soon(self._scrub_next)

    def _may_scrub_more(self) -> bool:
        if self._degraded_disk is not None:
            # Parity cannot be made whole without the failed member; the
            # rebuild manager restores redundancy instead.
            return False
        if self._force_scrub or self.policy.scrub_despite_load():
            return True
        return self.detector.is_idle and self.policy.may_scrub_now()

    def _next_scrub_target(self) -> tuple[int, int] | None:
        """Oldest (stripe, sub_unit) mark the policy allows scrubbing."""
        for stripe, sub_unit in self.marks.marks_in_order():
            if self.policy.should_scrub_stripe(stripe):
                return stripe, sub_unit
        return None

    def _scrub_next(self, _event: Event | None = None) -> None:
        """The scrubber's one state: scrub the oldest eligible mark, or stop.

        It runs at the scrubber's kick and again whenever its scrub
        settles, so the scrubber is preemptible between stripes but not
        within one (§4.1).
        """
        exc = None
        try:
            if self.marks.count and self._may_scrub_more():
                target = self._next_scrub_target()
                # None: only policy-excluded (e.g. RAID 0 region) debt is left.
                if target is not None:
                    stripe, sub_unit = target
                    if self.marks.bits_per_stripe == 1:
                        sub_unit = None
                    self._scrub(stripe, sub_unit, self._scrub_next, self._scrub_settled)
                    return
        except BaseException as raised:
            exc = raised
        self._scrub_stop(exc)

    def _scrub_settled(self, exc: BaseException | None) -> None:
        if exc is None:
            self._scrub_next()
        else:
            # A member died with scrub I/O in flight: the array is degraded
            # now, so stop quietly — the rebuild manager (not the scrubber)
            # restores redundancy.  Any other error is not ours to catch.
            self._scrub_stop(None if isinstance(exc, DiskFailedError) else exc)

    def _scrub_stop(self, exc: BaseException | None) -> None:
        self._scrub_running = False
        try:
            if self._next_scrub_target() is None:
                self._force_scrub = False
        except BaseException as raised:
            exc = raised
        if exc is not None:
            # Escape the run loop as a failed event, as a failed process would.
            Event(self.sim, name=f"{self.name}.scrubber").fail(exc)

    def _scrub(self, stripe: int, sub_unit: int | None, resume, settled) -> None:
        """Make one marked slice of a stripe redundant (see :class:`_Scrub`).

        Where another scrub (the scrubber's or a commit's) holds the
        stripe, wait for it instead: ``resume(barrier)`` runs when it
        settles.  Otherwise ``settled(exc)`` runs when this scrub does.
        """
        barrier = self._rebuilding.get(stripe)
        if barrier is not None:
            barrier.callbacks.append(resume)
        else:
            _Scrub(self, stripe, sub_unit, settled)._start()

    def _repair_latent_extent(self, stripe: int, offset: int, nsectors: int) -> AllOf | None:
        """Rewrite latent sectors any member reports in ``stripe``'s rows ``[offset, +nsectors)``.

        A write over a latent sector heals it (the drive remaps); content
        comes from parity reconstruction — possible exactly when the rows
        are clean, which the scrubber is about to make true anyway.  The
        rows sit at one common lba span on every member, except on a
        declustered layout, whose stripe members hold their units at
        per-disk lbas.

        Returns the event the rewrites join on (the healed sectors are
        counted when it fires), or None when no member reports one.
        """
        layout = self.layout
        if self.organization.declustered:
            units = (*layout.data_units(stripe), layout.parity_unit(stripe))
            spans = [(unit.disk, unit.disk_lba + offset) for unit in units]
        else:
            base_lba = stripe * layout.stripe_unit_sectors + offset
            spans = [(index, base_lba) for index in range(len(self.disks))]
        writes = []
        for index, span_lba in spans:
            disk = self.disks[index]
            if disk.failed:
                continue
            bad = disk.latent_errors_within(span_lba, nsectors)
            if not bad:
                continue
            for lba in bad:
                writes.append(self.drivers[index].submit(DiskIO(IoKind.WRITE, lba, 1)))
            if self.traced_obs is not None:
                self.traced_obs.event("latent_repair", disk=index, sectors=len(bad))
        if not writes:
            return None
        join = AllOf(self.sim, writes)
        join.callbacks.append(self._latent_repaired)
        return join

    def _latent_repaired(self, join: AllOf) -> None:
        if join.ok:
            repaired = len(join.events)  # one single-sector rewrite each
            self.latent_sectors_repaired += repaired
            if self.obs is not None:
                self.obs.event("latent_sectors_repaired", count=repaired)

    # -- paritypoints (§5 / [Cormen93]) -------------------------------------------------------------------

    def commit(self, offset_sectors: int, nsectors: int) -> Event:
        """Make an extent durable-redundant *now* — a paritypoint.

        The §5 refinement ("the host could then actively request that a
        set of stripes be made redundant, analogous to the traditional
        database commit operation"): every dirty stripe the extent
        touches is scrubbed in the foreground, regardless of idleness.
        The returned event fires once all touched stripes are redundant.
        """
        if self._degraded_disk is not None:
            raise RuntimeError("cannot commit while degraded: rebuild the failed disk first")
        stripes = list(self.layout.stripes_touched(offset_sectors, nsectors))
        done = self.sim.event(name=self._ev_commit)
        _Commit(self, stripes, done)
        return done

    # -- NVRAM failure recovery (§3.1) --------------------------------------------------------------------

    def recover_mark_memory(self) -> None:
        """Recover from a marking-memory failure.

        The array can no longer tell which stripes were unprotected, so it
        conservatively marks *every* stripe and rebuilds parity across the
        whole array (the paper: ~10 minutes for 2 GB disks at 5 MB/s),
        proceeding in parallel with continued use.
        """
        self.marks.recover()
        for stripe in range(self.layout.nstripes):
            for sub_unit in range(self.marks.bits_per_stripe):
                self.marks.mark(stripe, sub_unit)
        self._lag_changed()
        obs = self.obs
        if obs is not None:
            obs.stripes_dirtied(range(self.layout.nstripes), self.sim.now)
            obs.event("nvram_recovery", stripes=self.layout.nstripes)
        self.request_scrub(force=True)

    def recovery_scan(self) -> None:
        """§3.1 restart recovery: drain whatever marks survived the crash.

        NVRAM marks persist across a power loss, so a restarted array
        knows exactly which stripes are unredundant; this forces the
        scrubber over them regardless of idleness (paper: "the system must
        wait only a few seconds before full performance is available" —
        redundancy, not correctness, is what the scan restores).
        """
        if self.obs is not None:
            self.obs.event(
                "recovery_scan", stripes=self.marks.marked_stripe_count, marks=self.marks.count
            )
        if self.marks.count:
            self.request_scrub(force=True)

    # -- parity-lag bookkeeping ------------------------------------------------------------------------------

    def _lag_changed(self) -> None:
        if not self._finished:
            lag = self.parity_lag_bytes
            now = self.sim.now
            self.lag_tracker.record(now, lag)
            if self.obs is not None:
                self.obs.lag_changed(now, lag, self.marks.marked_stripe_count, self.marks.count)

    def __repr__(self) -> str:
        return (
            f"<DiskArray {self.name!r} {self.ndisks} disks, policy={self.policy.describe()}, "
            f"{self.dirty_stripe_count} dirty stripes>"
        )


class _Barrier:
    """A completion countdown for the callback service machines.

    Semantically ``AllOf(sim, events).callbacks.append(handler)``, shorn
    of the generality the service machines never use: no child-value
    collection, no per-child simulator check, no condition-event
    allocation up front.  ``handler`` is called with the failure (or
    ``None``) when the last child fires or the first child fails;
    children firing after a failure are swallowed exactly as AllOf
    swallows them (the registered callback keeps the kernel's
    unhandled-failure check satisfied).

    Ordinarily the handler runs at the dispatch of one hop event
    scheduled into the current-instant bucket — the exact position
    ``AllOf.succeed``/``fail`` would have used, so dispatch order is
    bit-identical.  The hop itself is elided when both of these hold at
    the firing child's dispatch:

    * our callback is provably the *last* one on the firing child, so
      nothing else runs between it and the hop.  A driver completion
      that was already issued at attach time qualifies (the driver pump
      appended its own wake at issue, before us, and nothing attaches
      later); callers barriering single-consumer internal events assert
      it with ``tail=True``.  A completion still queued at attach time
      does not (the pump's wake lands *after* us), and keeps the hop.
    * the kernel is quiet (:meth:`~repro.sim.Simulator.quiet`), so the
      hop would be the very next dispatch anyway.

    Under those two conditions calling the handler in place is
    dispatch-for-dispatch identical to scheduling the hop.
    """

    __slots__ = ("sim", "handler", "remaining", "fired")

    def __init__(
        self, sim: Simulator, events: list[Event], handler, tail: bool = False
    ) -> None:
        self.sim = sim
        self.handler = handler
        self.remaining = len(events)
        self.fired = False
        if not events:
            self.fired = True
            self._hop(None)
            return
        on_child = self._on_child
        on_child_tail = self._on_child_tail
        for event in events:
            callbacks = event.callbacks
            if callbacks is None:
                on_child(event)
            elif tail or event._scheduled:
                callbacks.append(on_child_tail)
            else:
                callbacks.append(on_child)

    def _on_child(self, event: Event) -> None:
        if self.fired:
            return
        exc = event._exception
        if exc is None:
            self.remaining -= 1
            if self.remaining:
                return
        self.fired = True
        self._hop(exc)

    def _on_child_tail(self, event: Event) -> None:
        if self.fired:
            return
        exc = event._exception
        if exc is None:
            self.remaining -= 1
            if self.remaining:
                return
        self.fired = True
        if self.sim.quiet():
            # Last callback of the firing child, quiet kernel: the hop
            # would dispatch immediately next — run the handler in its
            # place (see the class docstring).
            self.handler(exc)
            return
        self._hop(exc)

    def _hop(self, exc: BaseException | None) -> None:
        self.sim.call_soon(self._fire, exc)

    def _fire(self, hop: Event) -> None:
        self.handler(hop._exception)


class _StripeWrite:
    """One stripe's redundancy update, as callback states.

    Every protocol that updates a stripe's redundancy runs this one
    machine: submit a read set, join it, submit a write set, join it,
    then settle the stripe's mark.  The case — a subclass — chooses the
    two sets and the settle rule:

    * :class:`_Raid5Stripe`: RAID 5 full-stripe, reconstruct-write or
      read-modify-write;
    * :class:`_DegradedStripe`: a parity write with a member missing;
    * :class:`_Raid15Stripe`: a RAID 1+5 synchronous parity update;
    * :class:`_CatchUp`: an inline primary → mirror copy of a dirty stripe;
    * :class:`_Scrub`: a scrub of one marked slice;
    * ``_RebuildStripe`` (:mod:`repro.ext.rebuild`): one lost unit onto a
      spare.

    The last two are repairs (:class:`_Repair`), which share a read retry.

    A join is a :class:`_Barrier` (where a process would ``yield
    AllOf(...)``), or nothing for an empty set.  A set of None ends the
    update there, unsettled.  When the stripe is done,
    ``on_done(exc)`` runs in place: the owner runs its stripes one after
    another.  Without an ``on_done``, ``event`` fires instead: the RAID 5
    stripes of one request run concurrently, joined by the request's
    barrier.
    """

    __slots__ = ("array", "stripe", "runs", "on_done", "event")

    def __init__(self, array: DiskArray, stripe: int, runs, on_done=None) -> None:
        self.array = array
        self.stripe = stripe
        self.runs = runs
        self.on_done = on_done
        if on_done is None:
            self.event = Event(array.sim, name=array._ev_r5w)

    def start(self) -> None:
        """Run the body — inline under a quiet kernel, else at a kick.

        Called after the caller's barrier has attached to ``event`` (so a
        body failure always has its listener).  When the kernel is quiet
        the kick would dispatch immediately next, so the body runs in
        place and the kick is elided; the body only schedules future-time
        disk completions, so nothing can reorder around it.
        """
        sim = self.array.sim
        if sim.quiet():
            self._start(None)
        else:
            sim.call_soon(self._start)

    def _start(self, _kick: Event | None = None) -> None:
        try:
            reads = self.read_set()
        except BaseException as exc:
            self._finish(exc)
            return
        if reads is None:
            self._finish(None)
        else:
            self._join(reads, self._reads_done)

    def _reads_done(self, exc: BaseException | None) -> None:
        if exc is None:
            try:
                writes = self.write_set()
            except BaseException as raised:
                exc = raised
            else:
                if writes is not None:
                    self._join_writes(writes)
                    return
        self._finish(exc)

    def _join_writes(self, writes: list[Event]) -> None:
        self._join(writes, self._writes_done)

    def _writes_done(self, exc: BaseException | None) -> None:
        if exc is None:
            try:
                self.settle()
            except BaseException as raised:
                exc = raised
        self._finish(exc)

    def _join(self, events: list[Event], handler) -> None:
        if events:
            _Barrier(self.array.sim, events, handler)
        else:
            handler(None)

    def _finish(self, exc: BaseException | None) -> None:
        if self.on_done is not None:
            self.on_done(exc)
        elif exc is not None:
            self.event.fail(exc)
        else:
            # The last act of this dispatch: under a quiet kernel the
            # request's barrier runs in place (see Event.complete_inline).
            self.event.complete_inline()


class _Raid5Stripe(_StripeWrite):
    """RAID 5, chosen by coverage and the stripe's mark.

    A full-stripe write computes parity from the new data alone (no read
    set).  A partial write to a dirty stripe reconstructs: it reads the
    units it does not overwrite, then writes data and a fresh parity
    unit.  Any other partial write is the read-modify-write of Figure 1:
    old data and old parity are read in the client write's critical path,
    then both are written.
    """

    __slots__ = ("parity", "span", "was_dirty")

    def read_set(self) -> list[Event]:
        array = self.array
        layout = array.layout
        stripe = self.stripe
        runs = self.runs
        unit_sectors = layout.stripe_unit_sectors
        parity = self.parity = layout.parity_unit(stripe)
        self.was_dirty = array.marks.is_marked(stripe)
        self.span = None
        if sum(run.nsectors for run in runs) == layout.stripe_data_sectors:
            return []  # large-write optimisation: no pre-reads
        drivers = array.drivers
        if self.was_dirty:
            # Parity is stale: a read-modify-write would seal in garbage.
            reads = [
                drivers[unit.disk].submit(DiskIO(IoKind.READ, unit.disk_lba, unit_sectors))
                for unit in array._uncovered_units(stripe, runs)
            ]
            array.stats.reconstruct_reads += len(reads)
            return reads
        lo = min(run.disk_lba - layout.unit_lba(run.stripe, run.disk) for run in runs)
        hi = max(
            run.disk_lba - layout.unit_lba(run.stripe, run.disk) + run.nsectors for run in runs
        )
        self.span = (parity.disk_lba + lo, hi - lo)
        reads = [
            drivers[run.disk].submit(DiskIO(IoKind.READ, run.disk_lba, run.nsectors))
            for run in runs
        ]
        reads.append(drivers[parity.disk].submit(DiskIO(IoKind.READ, *self.span)))
        array.stats.preread_ios += len(reads)
        return reads

    def write_set(self) -> list[Event]:
        array = self.array
        writes = array._submit_data_writes(self.runs)
        lba, nsectors = self.span or (self.parity.disk_lba, array.layout.stripe_unit_sectors)
        writes.append(array.drivers[self.parity.disk].submit(DiskIO(IoKind.WRITE, lba, nsectors)))
        array.stats.foreground_parity_writes += 1
        return writes

    def settle(self) -> None:
        if self.was_dirty:
            self.array._clean_stripe(self.stripe)


class _DegradedStripe(_StripeWrite):
    """A parity write while a member disk is missing.

    Parity must absorb the write now (there is no disk to defer to): read
    every surviving data unit and the parity unit, then write the
    surviving data runs and — when its disk is alive — a freshly computed
    parity unit.  Data destined for the failed disk is represented only
    by parity until the rebuild completes.
    """

    __slots__ = ("parity",)

    def read_set(self) -> list[Event]:
        array = self.array
        self.parity = array.layout.parity_unit(self.stripe)
        reads = array._read_rows(
            array._survivors(self.stripe), 0, array.layout.stripe_unit_sectors
        )
        array.stats.reconstruct_reads += len(reads)
        return reads

    def write_set(self) -> list[Event]:
        array = self.array
        failed = array._failed_disks
        parity = self.parity
        writes = array._submit_data_writes([run for run in self.runs if run.disk not in failed])
        if parity.disk not in failed:
            writes.append(
                array.drivers[parity.disk].submit(
                    DiskIO(IoKind.WRITE, parity.disk_lba, array.layout.stripe_unit_sectors)
                )
            )
            array.stats.foreground_parity_writes += 1
        return writes

    def settle(self) -> None:
        array = self.array
        if array.marks.is_marked(self.stripe) and self.parity.disk not in array._failed_disks:
            array._clean_stripe(self.stripe)


class _Raid15Stripe(_StripeWrite):
    """A RAID 1+5 synchronous (or degraded) parity update.

    A reconstruct-style update over mirrored pairs: read the units the
    write does not cover from an alive copy, then write both alive copies
    of the data runs and of a fresh parity unit.
    """

    __slots__ = ("parity",)

    def read_set(self) -> list[Event]:
        array = self.array
        layout = array.layout
        self.parity = layout.parity_unit(self.stripe)
        reads = []
        for unit in array._uncovered_units(self.stripe, self.runs):
            disk = array._alive_copy(unit.disk)
            if disk is not None:
                reads.append(
                    array.drivers[disk].submit(
                        DiskIO(IoKind.READ, unit.disk_lba, layout.stripe_unit_sectors)
                    )
                )
        array.stats.reconstruct_reads += len(reads)
        return reads

    def write_set(self) -> list[Event]:
        array = self.array
        parity = self.parity
        writes = array._write_alive_copies(
            [(run.disk, run.disk_lba, run.nsectors) for run in self.runs]
        )
        array.stats.foreground_data_writes += len(writes)
        parity_writes = array._write_alive_copies(
            [(parity.disk, parity.disk_lba, array.layout.stripe_unit_sectors)]
        )
        array.stats.foreground_parity_writes += len(parity_writes)
        return writes + parity_writes

    def settle(self) -> None:
        array = self.array
        if array.marks.is_marked(self.stripe) and array._alive_copy(self.parity.disk) is not None:
            array._clean_stripe(self.stripe)


class _CatchUp(_StripeWrite):
    """An inline primary → mirror copy of a dirty stripe.

    A synchronous write to a dirty stripe of RAID 1 or RAID 1/0 leaves the
    rest of the stripe's mirror copy stale, so the whole stripe is caught
    up in the foreground: the mirrored analogue of the RAID 5
    reconstruct-write.
    """

    __slots__ = ()

    def read_set(self) -> list[Event] | None:
        array = self.array
        if not array.marks.is_marked(self.stripe):
            return None  # clean by its turn: nothing to catch up
        reads = array._slice_reads(self.stripe, 0, array.layout.stripe_unit_sectors)
        array.stats.reconstruct_reads += len(reads)
        return reads

    def write_set(self) -> list[Event]:
        array = self.array
        writes = array._redundancy_writes(self.stripe, 0, array.layout.stripe_unit_sectors)
        array.stats.foreground_data_writes += len(writes)
        return writes

    def settle(self) -> None:
        self.array._clean_stripe(self.stripe)


class _Repair(_StripeWrite):
    """A case that makes one slice of a stripe whole from what survives.

    The scrub and the spare rebuild (:mod:`repro.ext.rebuild`) share its
    read retry.  A latent sector error on the reads rewrites the bad
    sectors in the slice's rows and reads again; a read error in
    ``retried`` plans the reads again at once.  Three retries are
    allowed; the fourth error ends the repair with it.  The slice is rows
    ``[offset, +nsectors)`` of each unit; ``started`` times it.
    """

    __slots__ = ("offset", "nsectors", "started", "attempts")

    #: Read errors that re-plan the reads (besides latent sector errors).
    retried: tuple[type[BaseException], ...] = ()

    def __init__(self, array: DiskArray, stripe: int, offset: int, nsectors: int, on_done) -> None:
        super().__init__(array, stripe, None, on_done)
        self.offset = offset
        self.nsectors = nsectors
        self.started = array.sim.now
        self.attempts = 0

    def _reads_done(self, exc: BaseException | None) -> None:
        latent = isinstance(exc, LatentSectorError)
        if not (latent or isinstance(exc, self.retried)) or self.attempts == 3:
            super()._reads_done(exc)
            return
        self.attempts += 1
        if not latent:
            self._start()
            return
        try:
            join = self.array._repair_latent_extent(self.stripe, self.offset, self.nsectors)
        except BaseException as raised:
            self._finish(raised)
            return
        if join is None:
            self._start()
        else:
            join.callbacks.append(self._repaired)

    def _repaired(self, join: Event) -> None:
        if join.exception is None:
            self._start()
        else:
            self._finish(join.exception)

    def _join_writes(self, writes: list[Event]) -> None:
        # The lone write is joined directly, with no barrier hop.
        writes[0].callbacks.append(self._written)

    def _written(self, write: Event) -> None:
        self._writes_done(write.exception)


class _Scrub(_Repair):
    """Make one marked slice of a stripe redundant again (§4.1, §5).

    Reads the slice of every data unit — ``sub_unit``'s rows, or the whole
    unit when ``sub_unit`` is None — then writes the same slice of the
    organization's redundancy (:meth:`DiskArray._redundancy_writes`),
    retrying latent sector errors as every repair does.  Not preemptible
    once started (§4.1: requests run to completion); client writes to
    this stripe wait on ``barrier``, which fires when the scrub settles.
    A member that dies under the scrub leaves the mark set: the stripe
    cannot be made redundant any more, and the loss accounting is based
    on the mark.
    """

    __slots__ = ("sub_unit", "barrier")

    def __init__(self, array: DiskArray, stripe: int, sub_unit: int | None, on_done) -> None:
        unit_sectors = array.layout.stripe_unit_sectors
        offset, nsectors = (
            (0, unit_sectors) if sub_unit is None
            else sub_unit_extent(sub_unit, unit_sectors, array.marks.bits_per_stripe)
        )
        super().__init__(array, stripe, offset, nsectors, on_done)
        self.sub_unit = sub_unit
        self.barrier = array._rebuilding[stripe] = array.sim.event(name=array._ev_rebuild)

    def read_set(self) -> list[Event]:
        array = self.array
        reads = array._slice_reads(self.stripe, self.offset, self.nsectors)
        array.stats.scrub_data_reads += len(reads)
        return reads

    def write_set(self) -> list[Event] | None:
        array = self.array
        if array._failed_disks:
            return None  # a member died while we were reading
        writes = array._redundancy_writes(self.stripe, self.offset, self.nsectors)
        if array._mirrored:
            # Committed results pin both counting points (see ArrayStats).
            array.stats.scrub_parity_writes += len(writes)
        return writes

    def _join_writes(self, writes: list[Event]) -> None:
        if self.array._mirrored:
            _StripeWrite._join_writes(self, writes)
        else:
            super()._join_writes(writes)  # the lone parity write

    def settle(self) -> None:
        array = self.array
        marks = array.marks
        stripe = self.stripe
        sub_unit = self.sub_unit
        if not array._mirrored:
            array.stats.scrub_parity_writes += 1
        if array._failed_disks:
            return  # died during the redundancy write: same story
        if sub_unit is None:
            marks.clear_stripe(stripe)
        else:
            marks.clear(stripe, sub_unit)
        array._lag_changed()
        cleaned = not marks.is_marked(stripe)
        if cleaned:
            array.stats.stripes_scrubbed += 1
        obs = array.obs
        if obs is not None:
            if array._mirrored:
                name = "scrub_stripe_mirror"
            else:
                name = "scrub_stripe" if sub_unit is None else "scrub_sub_unit"
            obs.scrubbed(name, self.started, stripe, cleaned)
        if array.functional is not None and not array._mirrored:
            if sub_unit is None:
                array.functional.scrub_stripe(stripe)
            else:
                array.functional.scrub_sub_unit(stripe, sub_unit)

    def _finish(self, exc: BaseException | None) -> None:
        del self.array._rebuilding[self.stripe]
        self.barrier.succeed()
        self.on_done(exc)


class _Commit:
    """One paritypoint (:meth:`DiskArray.commit`), as callback states.

    Each touched stripe in turn: wait out a scrub already on it, skip it
    if clean, else scrub it — one marked slice at a time on a mirrored
    array with several marker bits, the whole stripe otherwise.  ``done``
    fires with the stripe count two hops after the last scrub settles:
    the committer's finish, then ``done`` itself.
    """

    __slots__ = ("array", "stripes", "done", "started", "index", "slot")

    def __init__(self, array: DiskArray, stripes: list[int], done: Event) -> None:
        self.array = array
        self.stripes = stripes
        self.done = done
        self.started = array.sim.now
        self.index = 0
        #: Within stripe ``index``: -1 waits out a scrub already on it, 0
        #: checks its mark, 1.. scrub its slices, past them moves on.
        self.slot = -1
        array.sim.call_soon(self._next)

    def _next(self, _event: Event | None = None) -> None:
        array = self.array
        marks = array.marks
        stripes = self.stripes
        slices = marks.bits_per_stripe if array._mirrored else 1
        try:
            while self.index < len(stripes):
                stripe = stripes[self.index]
                slot = self.slot
                self.slot += 1
                if slot < 0:
                    barrier = array._rebuilding.get(stripe)
                    if barrier is not None:
                        barrier.callbacks.append(self._next)
                        return
                elif slot > slices or (slot == 0 and not marks.is_marked(stripe)):
                    self.index += 1
                    self.slot = -1
                elif slot > 0:
                    sub_unit = slot - 1 if slices > 1 else None
                    if sub_unit is None or marks.is_marked(stripe, sub_unit):
                        array._scrub(stripe, sub_unit, self._next, self._settled)
                        return
        except BaseException as exc:
            self._settled(exc)
            return
        if array.traced_obs is not None:
            array.traced_obs.span("commit", self.started, stripes=len(stripes))
        array.sim.call_soon(self._finish)

    def _settled(self, exc: BaseException | None) -> None:
        if exc is None:
            self._next()
        else:
            self.array.sim.call_soon(self._finish, exc)

    def _finish(self, hop: Event) -> None:
        if hop.exception is None:
            self.done.succeed(len(self.stripes))
        else:
            self.done.fail(hop.exception)


class _ServiceCall:
    """One client request through the array, as a callback state machine.

    Every organization and write policy runs this one life cycle (§4.1):

    * ``start`` arms a kick; the body runs at its dispatch, in a granted
      host slot.
    * A read is served from the read cache or from disk.  A run on a
      failed member is rebuilt from parity or read from its mirror.
    * A write reserves staging bytes.  Under write-back it then marks the
      bytes NVRAM-dirty and acks the client after the NVRAM latency
      (``_acked``).  It waits out any parity rebuild on its stripes and
      dispatches by mode: the deferred write every organization shares
      (:meth:`_write_afraid`), or the stripe machine — RAID 5 stripes
      concurrently; degraded, RAID 1+5 and mirror catch-up stripes one
      after another (:class:`_StripeWrite`).

    Each state registers one callback where a process would wait, so
    same-instant tie-breaks are those of a process.  Where the kernel is
    quiet, an event that would dispatch next is elided and its handler
    runs in place.
    """

    __slots__ = (
        "array", "request", "done", "nbytes",
        "stripe_items", "stripe_list", "stripe_index", "case",
    )

    def __init__(self, array: DiskArray, request: ArrayRequest, done: Event) -> None:
        self.array = array
        self.request = request
        self.done = done
    def start(self) -> None:
        """Arm the kick; the body runs at its dispatch."""
        self.array.sim.call_soon(self._start)

    def _start(self, _kick: Event) -> None:
        array = self.array
        request = self.request
        request.dispatch_time = array.sim._now
        try:
            if request.kind is IoKind.WRITE:
                self._start_write()
            else:
                self._start_read()
        except BaseException as exc:
            self._finish(exc)

    # -- reads --------------------------------------------------------------------

    def _start_read(self) -> None:
        array = self.array
        request = self.request
        if array.read_cache.lookup(request.offset_sectors, request.nsectors):
            timeout = array.sim.timeout(array.cache_hit_latency_s)
            timeout.callbacks.append(self._read_hit_done)
            return
        plan = request.plan
        runs = (
            plan.runs
            if plan is not None
            else array.layout.map_extent(request.offset_sectors, request.nsectors)
        )
        drivers = array.drivers
        if array._degraded_disk is None:
            events = [
                drivers[run.disk].submit(DiskIO(IoKind.READ, run.disk_lba, run.nsectors))
                for run in runs
            ]
            array.stats.foreground_data_reads += len(events)
        else:
            # A run on a failed member reads its alive mirror copy, or is
            # rebuilt through parity from the stripe's survivors.
            events = []
            stats = array.stats
            for run in runs:
                disk = array._alive_copy(run.disk)
                if disk is not None:
                    events.append(
                        drivers[disk].submit(DiskIO(IoKind.READ, run.disk_lba, run.nsectors))
                    )
                    stats.foreground_data_reads += 1
                else:
                    in_unit = run.disk_lba - array.layout.unit_lba(run.stripe, run.disk)
                    reads = array._read_rows(array._survivors(run.stripe), in_unit, run.nsectors)
                    stats.reconstruct_reads += len(reads)
                    events.extend(reads)
        _Barrier(array.sim, events, self._read_miss_done)

    def _read_hit_done(self, _timeout: Event) -> None:
        array = self.array
        request = self.request
        try:
            if array.functional is not None:
                request.result_data = array.functional.read(
                    request.offset_sectors, request.nsectors
                )
        except BaseException as exc:
            self._finish(exc)
            return
        self._finish(None)

    def _read_miss_done(self, exc: BaseException | None) -> None:
        if exc is not None:
            self._finish(exc)
            return
        array = self.array
        request = self.request
        try:
            array.read_cache.insert(request.offset_sectors, request.nsectors)
            if array.functional is not None:
                request.result_data = array.functional.read(
                    request.offset_sectors, request.nsectors
                )
        except BaseException as exc:
            self._finish(exc)
            return
        self._finish(None)

    # -- writes -------------------------------------------------------------------

    def _start_write(self) -> None:
        array = self.array
        staging = array.staging
        nbytes = self.request.nsectors * array.sector_bytes
        self.nbytes = nbytes
        amount = nbytes if nbytes <= staging.capacity_bytes else staging.capacity_bytes
        if (
            not staging._waiters
            and staging._in_use + amount <= staging.capacity_bytes
            and array.sim.quiet()
        ):
            # Uncontended reservation with a quiet kernel: the grant
            # event would be the very next dispatch, so take the bytes
            # inline and run the staged body now — order-identical, one
            # event elided.  release() clamps the same way reserve()
            # does, so _write_finish stays symmetric.
            staging._in_use += amount
            self._staged(None)
            return
        # reserve() failures propagate to _finish WITHOUT a release: the
        # bytes were never held.
        staging.reserve(nbytes).callbacks.append(self._staged)

    def _staged(self, _grant: Event | None) -> None:
        array = self.array
        if array.write_policy == "writeback":
            # Write-back (§3.4): until the flush lands, the data exists
            # only in the single-copy NVRAM.  Ack after the NVRAM latency.
            array._nvram_dirty_changed(+self.nbytes)
            array.sim.timeout(array.nvram_ack_latency_s).callbacks.append(self._acked)
            return
        self._write_to_disk()

    def _acked(self, _timeout: Event) -> None:
        """Write-back: complete the client now, then flush to disk."""
        self._complete()
        self._write_to_disk()

    def _write_to_disk(self) -> None:
        array = self.array
        try:
            plan = self.request.plan
            if plan is not None:
                self.stripe_items = plan.by_stripe
                self.stripe_list = plan.stripes
            else:
                runs_by_stripe = array._group_runs(self.request)
                self.stripe_items = list(runs_by_stripe.items())
                self.stripe_list = list(runs_by_stripe)
            self.stripe_index = 0
            if array._rebuilding and self._park_on_barrier():
                return
            self._dispatch_mode()
        except BaseException as exc:
            self._write_finish(exc)

    def _park_on_barrier(self) -> bool:
        """Arm a callback on the first in-flight rebuild among our stripes."""
        rebuilding = self.array._rebuilding
        stripes = self.stripe_list
        index = self.stripe_index
        while index < len(stripes):
            barrier = rebuilding.get(stripes[index])
            if barrier is not None:
                # Re-check the same stripe after the barrier fires: a
                # new rebuild may have started on it meanwhile.
                self.stripe_index = index
                barrier.callbacks.append(self._barrier_fired)
                return True
            index += 1
        return False

    def _barrier_fired(self, _event: Event) -> None:
        try:
            if self._park_on_barrier():
                return
            self._dispatch_mode()
        except BaseException as exc:
            self._write_finish(exc)


    def _dispatch_mode(self) -> None:
        """Start the write's protocol: the policy's one decision (§4.1)."""
        array = self.array
        self.stripe_index = 0
        if array._degraded_disk is not None and not array._mirrored:
            self.case = _DegradedStripe
            self._next_stripe()
        elif (
            array.policy.write_mode(tuple(self.stripe_list)) is WriteMode.AFRAID
            and not array._failed_disks
        ):
            self.case = None
            self._write_afraid()
        elif not array._mirrored:
            self.case = _Raid5Stripe
            self._write_raid5()
        elif array.organization.has_parity:
            self.case = _Raid15Stripe
            self._next_stripe()
        else:
            self.case = _CatchUp
            self._write_mirrors()

    def _write_afraid(self) -> None:
        """Mark the runs, then write the copies the organization writes now.

        That is the data runs — the primaries on RAID 1 and RAID 1/0 (the
        scrubber copies them to the mirror in idle time) — or, on RAID 1+5,
        which defers only its parity, both mirror copies, so a dirty stripe
        stays mirror-protected.
        """
        array = self.array
        stripe_items = self.stripe_items
        plan = self.request.plan
        array._mark_runs(stripe_items, plan.mark_targets if plan is not None else None)
        events = []
        append = events.append
        drivers = array.drivers
        write = IoKind.WRITE
        both = array._mirrored and array.organization.has_parity
        for _stripe, runs in stripe_items:
            for run in runs:
                append(drivers[run.disk].submit(DiskIO(write, run.disk_lba, run.nsectors)))
                if both:
                    twin = array.layout.mirror_disk(run.disk)
                    append(drivers[twin].submit(DiskIO(write, run.disk_lba, run.nsectors)))
        array.stats.foreground_data_writes += len(events)
        _Barrier(array.sim, events, self._written)

    def _write_raid5(self) -> None:
        array = self.array
        stripe_writes = [
            _Raid5Stripe(array, stripe, runs) for stripe, runs in self.stripe_items
        ]
        # tail=True: the per-stripe events have no listener but us.  The
        # barrier attaches before the bodies run so a body failure always
        # has its handler (start() may run the body inline).
        _Barrier(
            array.sim,
            [write.event for write in stripe_writes],
            self._written,
            tail=True,
        )
        for write in stripe_writes:
            write.start()

    def _write_mirrors(self) -> None:
        """RAID 1 / RAID 1/0 synchronous (or degraded) write: every alive copy."""
        array = self.array
        events = array._write_alive_copies(
            [
                (run.disk, run.disk_lba, run.nsectors)
                for _stripe, runs in self.stripe_items
                for run in runs
            ]
        )
        array.stats.foreground_data_writes += len(events)
        if events:
            _Barrier(array.sim, events, self._mirrors_written)
        else:
            self._mirrors_written(None)

    def _mirrors_written(self, exc: BaseException | None) -> None:
        if self.array._failed_disks:
            self.stripe_index = len(self.stripe_items)  # no catch-up without both copies
        self._next_stripe(exc)

    def _next_stripe(self, exc: BaseException | None = None) -> None:
        """Run the request's stripes through the ``case`` machine, one after another."""
        if exc is None and self.stripe_index < len(self.stripe_items):
            stripe, runs = self.stripe_items[self.stripe_index]
            self.stripe_index += 1
            self.case(self.array, stripe, runs, self._next_stripe)._start()
        else:
            self._written(exc)

    def _written(self, exc: BaseException | None) -> None:
        """The write's protocol is done: update the functional twin, then finish."""
        array = self.array
        case = self.case
        if exc is None:
            request = self.request
            try:
                functional = array.functional
                if functional is not None:
                    payload = array._payload(request)
                    if case is _DegradedStripe:
                        functional.write_degraded(
                            request.offset_sectors, payload, array._degraded_disk
                        )
                    else:
                        functional.write(request.offset_sectors, payload, update_parity=False)
                        if case is _Raid5Stripe:
                            for stripe in self.stripe_list:
                                functional.scrub_stripe(stripe)
                if case is None:
                    array.policy.on_stripes_marked()
            except BaseException as raised:
                exc = raised
        self._write_finish(exc)

    def _write_finish(self, exc: BaseException | None) -> None:
        array = self.array
        request = self.request
        array.staging.release(self.nbytes)
        if request.complete_time is not None:
            # Write-back, acked at NVRAM time: the data is on disk now.
            array._nvram_dirty_changed(-self.nbytes)
        if exc is None:
            try:
                array.read_cache.insert(request.offset_sectors, request.nsectors)
            except BaseException as raised:
                exc = raised
        self._finish(exc)

    # -- completion ---------------------------------------------------------------

    def _finish(self, exc: BaseException | None) -> None:
        array = self.array
        array.slots.release()
        array.detector.activity_ended()
        request = self.request
        request.plan = None
        if request.complete_time is not None:
            # Write-back: the client was acked at NVRAM time, so only the
            # background flush ends here.  A failed flush has no request
            # left to fail; it escapes the run loop as an unhandled failed
            # event instead.
            if exc is not None:
                Event(array.sim, name=f"{array.name}.flush").fail(exc)
            return
        if exc is not None:
            self.done.fail(exc)
            return
        self._complete()

    def _complete(self) -> None:
        """Stamp, count and observe the finished request; fire ``done``."""
        array = self.array
        request = self.request
        now = array.sim._now
        request.complete_time = now
        stats = array.stats
        if request.kind is IoKind.WRITE:
            stats.writes_completed += 1
        else:
            stats.reads_completed += 1
        # request.io_time inlined (both stamps are known non-None here).
        stats.io_times.append(now - request.submit_time)
        if array.obs is not None:
            array.obs.client(request, array._degraded_disk is not None)
        # Nobody may be listening yet (the replay feeder collects its
        # completions after the fact): then the event completes in place.
        self.done.complete(request)
