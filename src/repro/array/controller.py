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
        #: Optional observability sinks (see :meth:`attach_observability`).
        #: ``None`` keeps every instrumentation site to a single check.
        self.tracer: "Tracer | None" = None
        self.hists: "HistogramSet | None" = None
        self.registry: "MetricsRegistry | None" = None
        self.exposure: "ExposureMonitor | None" = None

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

        The tracer is propagated to the back-end drivers (per-disk command
        spans) and to the policy (decision instants); the registry goes to
        the policy too (mode-switch counters).  A ``registry`` without an
        ``exposure`` monitor gets a default :class:`~repro.obs.ExposureMonitor`
        (window and reliability parameters from :attr:`params`), since the
        registry's availability gauges are its publications.  Passing
        ``None`` for a sink detaches it.
        """
        self.tracer = tracer
        self.hists = histograms
        if registry is not None and exposure is None:
            from repro.obs.exposure import ExposureMonitor

            exposure = ExposureMonitor(params=self.params)
        self.registry = registry
        self.exposure = exposure
        if exposure is not None:
            exposure.attach(self, registry)
        for driver in self.drivers:
            driver.tracer = tracer
        self.policy.tracer = tracer
        self.policy.registry = registry

    def _observe_client(self, request: ArrayRequest) -> None:
        """Record one completed client request into the attached sinks."""
        if self.hists is not None:
            if self._degraded_disk is not None:
                request_class = "degraded_write" if request.is_write else "degraded_read"
            elif request.is_write:
                request_class = "client_write"
            else:
                request_class = "client_read"
            self.hists.record(request_class, request.io_time)
        if self.tracer is not None:
            self.tracer.complete(
                "write" if request.is_write else "read",
                start_s=request.submit_time,
                duration_s=request.io_time,
                track="client",
                category="client",
                offset=request.offset_sectors,
                nsectors=request.nsectors,
            )

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
            if not self._force_scrub and self.exposure is not None:
                self.exposure.forced_scrub()
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
            if self.exposure is not None:
                self.exposure.finish(self.sim.now)

    def drain(self) -> Event:
        """An event that fires once no client work is queued or in flight."""
        done = self.sim.event(name=f"{self.name}.drained")
        if self.detector.is_idle and not self._host_queue:
            done.succeed()
        else:
            self.detector.on_idle.append(lambda: done.succeed() if not done.triggered else None)
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
        if self.tracer is not None:
            self.tracer.instant(
                "multi_disk_failure", track="faults", category="fault",
                disk=disk, failed_disks=len(self._failed_disks),
                survivable=survivable,
            )
        if self.registry is not None:
            self.registry.counter(
                "multi_disk_failures_total", "disk failures beyond the first concurrent one"
            ).inc()
            if not survivable:
                self.registry.counter(
                    "data_loss_events_total", "recorded unsurvivable failure combinations"
                ).inc()
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

    def _submit_degraded_read(self, run: ExtentRun) -> list[Event]:
        """Reconstruct a run on the failed disk: read the same extent of
        every surviving data unit plus parity, xor on the fly."""
        stripe = run.stripe
        in_unit = run.disk_lba - self.layout.unit_lba(run.stripe, run.disk)
        events = []
        for unit in self.layout.data_units(stripe):
            if unit.disk in self._failed_disks:
                continue
            events.append(
                self.drivers[unit.disk].submit(
                    DiskIO(IoKind.READ, unit.disk_lba + in_unit, run.nsectors)
                )
            )
            self.stats.reconstruct_reads += 1
        parity = self.layout.parity_unit(stripe)
        if parity.disk not in self._failed_disks:
            events.append(
                self.drivers[parity.disk].submit(
                    DiskIO(IoKind.READ, parity.disk_lba + in_unit, run.nsectors)
                )
            )
            self.stats.reconstruct_reads += 1
        return events

    def _disk_alive(self, disk: int) -> bool:
        return disk not in self._failed_disks and not self.disks[disk].failed

    def _alive_copy(self, primary: int) -> int | None:
        """The alive member of ``primary``'s mirror pair, preferring it."""
        if self._disk_alive(primary):
            return primary
        twin = self.layout.mirror_disk(primary)
        if self._disk_alive(twin):
            return twin
        return None

    def _submit_mirror_read(self, run: ExtentRun) -> list[Event]:
        """Serve a run on a failed member from its mirror partner.

        When the whole pair is down, a parity organization (RAID 1+5)
        reconstructs through the surviving pairs; a pure mirror has no
        further redundancy — the loss was recorded at failure time and
        the read completes without disk work.
        """
        twin = self.layout.mirror_disk(run.disk)
        if self._disk_alive(twin):
            self.stats.foreground_data_reads += 1
            return [
                self.drivers[twin].submit(DiskIO(IoKind.READ, run.disk_lba, run.nsectors))
            ]
        if not self.layout.has_parity:
            return []
        stripe = run.stripe
        in_unit = run.disk_lba - stripe * self.layout.stripe_unit_sectors
        events = []
        for unit in self.layout.data_units(stripe):
            if unit.unit_index == run.unit_index:
                continue
            disk = self._alive_copy(unit.disk)
            if disk is None:
                continue
            events.append(
                self.drivers[disk].submit(
                    DiskIO(IoKind.READ, unit.disk_lba + in_unit, run.nsectors)
                )
            )
            self.stats.reconstruct_reads += 1
        parity = self.layout.parity_unit(stripe)
        disk = self._alive_copy(parity.disk)
        if disk is not None:
            events.append(
                self.drivers[disk].submit(
                    DiskIO(IoKind.READ, parity.disk_lba + in_unit, run.nsectors)
                )
            )
            self.stats.reconstruct_reads += 1
        return events

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
        would produce — replaces the walk when no exposure monitor needs
        its per-stripe notifications.
        """
        newly_marked = False
        exposure = self.exposure
        marks = self.marks
        now = self.sim.now
        if mark_targets is not None and exposure is None:
            for stripe, sub_unit in mark_targets:
                newly_marked |= marks.mark(stripe, sub_unit)
        elif marks.bits_per_stripe == 1:
            # The common configuration: one mark per stripe, so each run
            # hits sub-unit 0 and the per-run span arithmetic is skipped.
            for stripe, runs in stripe_items:
                if exposure is not None:
                    exposure.stripe_dirtied(stripe, now)
                for _run in runs:
                    newly_marked |= marks.mark(stripe, 0)
        else:
            for stripe, runs in stripe_items:
                if exposure is not None:
                    exposure.stripe_dirtied(stripe, now)
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

    def _write_degraded(self, request: ArrayRequest, runs_by_stripe: dict[int, list[ExtentRun]]):
        """Writes while a member disk is missing.

        Parity must absorb the write immediately (there is no disk to
        defer to), so every stripe takes a reconstruct-style update: read
        the surviving data units, then write the surviving data runs and
        — when the parity disk is alive — a freshly computed parity unit.
        Data destined for the failed disk is represented only by parity
        until the rebuild completes.
        """
        unit_sectors = self.layout.stripe_unit_sectors
        failed = self._failed_disks
        for stripe, runs in runs_by_stripe.items():
            parity = self.layout.parity_unit(stripe)
            reads = []
            for unit in self.layout.data_units(stripe):
                if unit.disk in failed:
                    continue
                reads.append(
                    self.drivers[unit.disk].submit(DiskIO(IoKind.READ, unit.disk_lba, unit_sectors))
                )
                self.stats.reconstruct_reads += 1
            if parity.disk not in failed:
                reads.append(
                    self.drivers[parity.disk].submit(
                        DiskIO(IoKind.READ, parity.disk_lba, unit_sectors)
                    )
                )
                self.stats.reconstruct_reads += 1
            if reads:
                yield AllOf(self.sim, reads)
            writes = self._submit_data_writes([run for run in runs if run.disk not in failed])
            if parity.disk not in failed:
                writes.append(
                    self.drivers[parity.disk].submit(
                        DiskIO(IoKind.WRITE, parity.disk_lba, unit_sectors)
                    )
                )
                self.stats.foreground_parity_writes += 1
            if writes:
                yield AllOf(self.sim, writes)
            if self.marks.is_marked(stripe) and parity.disk not in failed:
                self.marks.clear_stripe(stripe)
                self._lag_changed()
                if self.exposure is not None:
                    self.exposure.stripe_cleaned(stripe, self.sim.now, cause="write")
        if self.functional is not None:
            self.functional.write_degraded(
                request.offset_sectors, self._payload(request), self._degraded_disk
            )

    def _submit_data_writes(self, runs: list[ExtentRun]) -> list[Event]:
        drivers = self.drivers
        events = [
            drivers[run.disk].submit(DiskIO(IoKind.WRITE, run.disk_lba, run.nsectors))
            for run in runs
        ]
        self.stats.foreground_data_writes += len(events)
        return events

    # -- mirrored-organization writes ----------------------------------------------------

    def _write_mirror(self, request: ArrayRequest, runs_by_stripe: dict[int, list[ExtentRun]]):
        """Writes on a mirrored organization (RAID 1, 1/0, or 1+5).

        The AFRAID deferral writes only the primary copy and marks the
        stripe (the scrubber copies primary → mirror in idle time); the
        synchronous mode writes both copies inline.  RAID 1+5 defers the
        *parity* instead — both mirror copies of the data always land, so
        dirty stripes stay mirror-protected.
        """
        if self.layout.has_parity:
            yield from self._write_mirror_raid15(request, runs_by_stripe)
        else:
            yield from self._write_mirror_plain(request, runs_by_stripe)
        if self.functional is not None:
            self.functional.write(
                request.offset_sectors, self._payload(request), update_parity=False
            )

    def _write_mirror_plain(
        self, request: ArrayRequest, runs_by_stripe: dict[int, list[ExtentRun]]
    ):
        """RAID 1 / RAID 1/0 write: deferred or synchronous mirror copy."""
        mode = self.policy.write_mode(tuple(runs_by_stripe))
        drivers = self.drivers
        if mode is WriteMode.AFRAID and not self._failed_disks:
            # Deferred copy: mark, write primaries only.
            self._mark_runs(runs_by_stripe.items())
            events = []
            for runs in runs_by_stripe.values():
                for run in runs:
                    events.append(
                        drivers[run.disk].submit(DiskIO(IoKind.WRITE, run.disk_lba, run.nsectors))
                    )
            self.stats.foreground_data_writes += len(events)
            yield AllOf(self.sim, events)
            self.policy.on_stripes_marked()
            return
        # Synchronous (or degraded) mirroring: both alive copies inline.
        events = []
        for runs in runs_by_stripe.values():
            for run in runs:
                for disk in (run.disk, self.layout.mirror_disk(run.disk)):
                    if self._disk_alive(disk):
                        events.append(
                            drivers[disk].submit(DiskIO(IoKind.WRITE, run.disk_lba, run.nsectors))
                        )
                        self.stats.foreground_data_writes += 1
        if events:
            yield AllOf(self.sim, events)
        # A synchronous write to a dirty stripe leaves the rest of the
        # stripe's mirror copy stale: catch the whole stripe up inline
        # (the mirrored analogue of the RAID 5 reconstruct-on-dirty path).
        if not self._failed_disks:
            for stripe in runs_by_stripe:
                if self.marks.is_marked(stripe):
                    yield from self._copy_stripe_inline(stripe)

    def _copy_stripe_inline(self, stripe: int):
        """Foreground primary → mirror copy of one dirty stripe."""
        unit_sectors = self.layout.stripe_unit_sectors
        reads = []
        for unit in self.layout.data_units(stripe):
            reads.append(
                self.drivers[unit.disk].submit(DiskIO(IoKind.READ, unit.disk_lba, unit_sectors))
            )
            self.stats.reconstruct_reads += 1
        yield AllOf(self.sim, reads)
        writes = []
        for index in range(self.layout.data_units_per_stripe):
            mirror = self.layout.mirror_unit(stripe, index)
            writes.append(
                self.drivers[mirror.disk].submit(
                    DiskIO(IoKind.WRITE, mirror.disk_lba, unit_sectors)
                )
            )
            self.stats.foreground_data_writes += 1
        yield AllOf(self.sim, writes)
        self.marks.clear_stripe(stripe)
        self._lag_changed()
        if self.exposure is not None:
            self.exposure.stripe_cleaned(stripe, self.sim.now, cause="write")

    def _write_mirror_raid15(
        self, request: ArrayRequest, runs_by_stripe: dict[int, list[ExtentRun]]
    ):
        """RAID 1+5 write: mirror copies inline, parity deferred or inline."""
        mode = self.policy.write_mode(tuple(runs_by_stripe))
        drivers = self.drivers
        unit_sectors = self.layout.stripe_unit_sectors
        if mode is WriteMode.AFRAID and not self._failed_disks:
            # Deferred parity: mark, write both copies of every data run.
            self._mark_runs(runs_by_stripe.items())
            events = []
            for runs in runs_by_stripe.values():
                for run in runs:
                    for disk in (run.disk, self.layout.mirror_disk(run.disk)):
                        events.append(
                            drivers[disk].submit(DiskIO(IoKind.WRITE, run.disk_lba, run.nsectors))
                        )
                        self.stats.foreground_data_writes += 1
            yield AllOf(self.sim, events)
            self.policy.on_stripes_marked()
            return
        # Synchronous (or degraded): reconstruct-style parity update.
        for stripe, runs in runs_by_stripe.items():
            parity = self.layout.parity_unit(stripe)
            covered_units = {
                run.unit_index for run in runs if run.nsectors == unit_sectors
            }
            reads = []
            for unit in self.layout.data_units(stripe):
                if unit.unit_index in covered_units:
                    continue
                disk = self._alive_copy(unit.disk)
                if disk is None:
                    continue
                reads.append(
                    drivers[disk].submit(DiskIO(IoKind.READ, unit.disk_lba, unit_sectors))
                )
                self.stats.reconstruct_reads += 1
            if reads:
                yield AllOf(self.sim, reads)
            writes = []
            for run in runs:
                for disk in (run.disk, self.layout.mirror_disk(run.disk)):
                    if self._disk_alive(disk):
                        writes.append(
                            drivers[disk].submit(DiskIO(IoKind.WRITE, run.disk_lba, run.nsectors))
                        )
                        self.stats.foreground_data_writes += 1
            for disk in (parity.disk, self.layout.mirror_disk(parity.disk)):
                if self._disk_alive(disk):
                    writes.append(
                        drivers[disk].submit(
                            DiskIO(IoKind.WRITE, parity.disk_lba, unit_sectors)
                        )
                    )
                    self.stats.foreground_parity_writes += 1
            if writes:
                yield AllOf(self.sim, writes)
            if self.marks.is_marked(stripe) and self._alive_copy(parity.disk) is not None:
                self.marks.clear_stripe(stripe)
                self._lag_changed()
                if self.exposure is not None:
                    self.exposure.stripe_cleaned(stripe, self.sim.now, cause="write")

    # -- background parity scrubbing --------------------------------------------------------------------

    def _on_idle(self) -> None:
        if self.marks.count and self.policy.may_scrub_now():
            self._ensure_scrubber()

    def _ensure_scrubber(self) -> None:
        if not self._scrub_running and self.marks.count:
            self._scrub_running = True
            self.sim.process(self._scrub_loop(), name=f"{self.name}.scrubber")

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

    def _scrub_loop(self):
        try:
            while self.marks.count and self._may_scrub_more():
                target = self._next_scrub_target()
                if target is None:
                    break  # only policy-excluded (e.g. RAID 0 region) debt left
                stripe, sub_unit = target
                try:
                    yield from self._scrub(
                        stripe, sub_unit if self.marks.bits_per_stripe > 1 else None
                    )
                except DiskFailedError:
                    # A member died with scrub I/O in flight; the array is
                    # degraded now, so stop — the rebuild manager (not the
                    # scrubber) restores redundancy.
                    break
        finally:
            self._scrub_running = False
            if self._next_scrub_target() is None:
                self._force_scrub = False

    def _scrub(self, stripe: int, sub_unit: int | None = None):
        """Make one marked slice of a stripe redundant again (§4.1, §5).

        Reads the slice of every data unit — ``sub_unit``'s rows, or the
        whole unit when ``sub_unit`` is None — then writes the same slice
        of the organization's redundancy: the parity unit (RAID 5 and
        declustered RAID 5), both copies of the RAID 1+5 parity pair, or
        every RAID 1 / RAID 1/0 mirror copy.  Not preemptible once started
        (§4.1: requests run to completion); client writes to this stripe
        wait on the barrier event.
        """
        if stripe in self._rebuilding:
            # Someone else (scrubber vs. commit) is already rebuilding it.
            yield self._rebuilding[stripe]
            return
        if not self.marks.is_marked(stripe, sub_unit):
            return  # already clean
        barrier = self.sim.event(name=self._ev_rebuild)
        self._rebuilding[stripe] = barrier
        started = self.sim.now
        layout = self.layout
        unit_sectors = layout.stripe_unit_sectors
        if sub_unit is None:
            start, nsectors = 0, unit_sectors
        else:
            start, nsectors = sub_unit_extent(sub_unit, unit_sectors, self.marks.bits_per_stripe)
        try:
            attempts = 0
            while True:
                reads = []
                for unit in layout.data_units(stripe):
                    reads.append(
                        self.drivers[unit.disk].submit(
                            DiskIO(IoKind.READ, unit.disk_lba + start, nsectors)
                        )
                    )
                    self.stats.scrub_data_reads += 1
                try:
                    yield AllOf(self.sim, reads)
                except LatentSectorError:
                    attempts += 1
                    if attempts > 3:
                        raise
                    units = None
                    if self.organization.declustered:
                        # Member units live at per-disk offsets, not at the
                        # common ``stripe * unit`` lba of the rotated layouts.
                        units = [*layout.data_units(stripe), layout.parity_unit(stripe)]
                    yield from self._repair_latent_extent(
                        stripe * unit_sectors + start, nsectors, units=units
                    )
                    continue
                break
            if self._failed_disks:
                # A member died while we were reading: the stripe cannot
                # be made redundant any more.  Leave the mark set (it is
                # what the loss accounting is based on) and give up.
                return
            if self.organization.has_parity:
                parity = layout.parity_unit(stripe)
                copies = [(parity.disk, parity.disk_lba)]
                if self._mirrored:  # RAID 1+5 mirrors its parity unit too
                    copies.append((layout.mirror_disk(parity.disk), parity.disk_lba))
            else:  # RAID 1 / RAID 1/0: every mirror copy
                copies = []
                for index in range(layout.data_units_per_stripe):
                    mirror = layout.mirror_unit(stripe, index)
                    copies.append((mirror.disk, mirror.disk_lba))
            writes = [
                self.drivers[disk].submit(DiskIO(IoKind.WRITE, lba + start, nsectors))
                for disk, lba in copies
            ]
            # Committed results pin both counting points (see ArrayStats).
            if self._mirrored:
                self.stats.scrub_parity_writes += len(writes)
                yield AllOf(self.sim, writes)
            else:
                yield writes[0]
                self.stats.scrub_parity_writes += 1
            if self._failed_disks:
                return  # died during the redundancy write: same story
            if sub_unit is None:
                self.marks.clear_stripe(stripe)
            else:
                self.marks.clear(stripe, sub_unit)
            self._lag_changed()
            if not self.marks.is_marked(stripe):
                if self.exposure is not None:
                    self.exposure.stripe_cleaned(stripe, self.sim.now, cause="scrub")
                self.stats.stripes_scrubbed += 1
            if self.hists is not None or self.tracer is not None:
                if self._mirrored:
                    name = "scrub_stripe_mirror"
                else:
                    name = "scrub_stripe" if sub_unit is None else "scrub_sub_unit"
                self._observe_scrub(name, started, stripe)
            if self.functional is not None and not self._mirrored:
                if sub_unit is None:
                    self.functional.scrub_stripe(stripe)
                else:
                    self.functional.scrub_sub_unit(stripe, sub_unit)
        finally:
            del self._rebuilding[stripe]
            barrier.succeed()

    def _repair_latent_extent(self, base_lba: int, nsectors: int, units=None):
        """Rewrite latent sectors any member reports in [base_lba, +nsectors).

        A write over a latent sector heals it (the drive remaps); content
        comes from parity reconstruction — possible exactly when the rows
        are clean, which the scrubber is about to make true anyway.

        With ``units`` (declustered layouts, where stripe members sit at
        per-disk lbas), scan each unit's own extent instead of one common
        lba span; ``base_lba`` is then interpreted as an in-unit offset
        relative to ``stripe * stripe_unit_sectors``.
        """
        if units is not None:
            in_unit = base_lba % self.layout.stripe_unit_sectors
            spans = [(unit.disk, unit.disk_lba + in_unit) for unit in units]
        else:
            spans = [(index, base_lba) for index in range(len(self.disks))]
        writes = []
        repaired = 0
        for index, span_lba in spans:
            disk = self.disks[index]
            if disk.failed:
                continue
            bad = disk.latent_errors_within(span_lba, nsectors)
            if not bad:
                continue
            for lba in bad:
                writes.append(self.drivers[index].submit(DiskIO(IoKind.WRITE, lba, 1)))
            repaired += len(bad)
            if self.tracer is not None:
                self.tracer.instant(
                    "latent_repair", track="faults", category="fault",
                    disk=index, sectors=len(bad),
                )
        if writes:
            yield AllOf(self.sim, writes)
        self.latent_sectors_repaired += repaired
        if repaired and self.registry is not None:
            self.registry.counter(
                "latent_sectors_repaired_total", "latent sectors healed by rewrite"
            ).inc(repaired)

    def _observe_scrub(self, name: str, started: float, stripe: int) -> None:
        """Record one finished parity rebuild into the attached sinks."""
        duration = self.sim.now - started
        if self.hists is not None:
            self.hists.record("scrub", duration)
        if self.tracer is not None:
            self.tracer.complete(
                name, start_s=started, duration_s=duration,
                track="scrubber", category="scrub", stripe=stripe,
            )

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
        started = self.sim.now

        def committer():
            for stripe in stripes:
                if stripe in self._rebuilding:
                    yield self._rebuilding[stripe]  # scrubber already on it
                if not self.marks.is_marked(stripe):
                    continue
                if self._mirrored and self.marks.bits_per_stripe > 1:
                    # Mirrored arrays restore the marked slices one by one.
                    for sub_unit in range(self.marks.bits_per_stripe):
                        if self.marks.is_marked(stripe, sub_unit):
                            yield from self._scrub(stripe, sub_unit)
                else:
                    yield from self._scrub(stripe)
            if self.tracer is not None:
                self.tracer.complete(
                    "commit", start_s=started, duration_s=self.sim.now - started,
                    track="scrubber", category="commit", stripes=len(stripes),
                )
            return len(stripes)

        proc = self.sim.process(committer(), name=self._ev_commit)
        proc.add_callback(lambda event: done.succeed(event.value) if event.ok else done.fail(event.exception))
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
        if self.exposure is not None:
            now = self.sim.now
            for stripe in range(self.layout.nstripes):
                self.exposure.stripe_dirtied(stripe, now)
        self._lag_changed()
        if self.tracer is not None:
            self.tracer.instant(
                "nvram_recovery", track="faults", category="fault",
                stripes=self.layout.nstripes,
            )
        self.request_scrub(force=True)

    def recovery_scan(self) -> None:
        """§3.1 restart recovery: drain whatever marks survived the crash.

        NVRAM marks persist across a power loss, so a restarted array
        knows exactly which stripes are unredundant; this forces the
        scrubber over them regardless of idleness (paper: "the system must
        wait only a few seconds before full performance is available" —
        redundancy, not correctness, is what the scan restores).
        """
        if self.tracer is not None:
            self.tracer.instant(
                "recovery_scan", track="faults", category="fault",
                stripes=self.marks.marked_stripe_count, marks=self.marks.count,
            )
        if self.registry is not None:
            self.registry.counter(
                "recovery_scans_total", "crash-restart recovery scans"
            ).inc()
        if self.marks.count:
            self.request_scrub(force=True)

    # -- parity-lag bookkeeping ------------------------------------------------------------------------------

    def _lag_changed(self) -> None:
        if not self._finished:
            lag = self.parity_lag_bytes
            self.lag_tracker.record(self.sim.now, lag)
            if self.exposure is not None:
                self.exposure.on_lag_change(
                    self.sim.now, lag, self.marks.marked_stripe_count, self.marks.count
                )
            if self.tracer is not None:
                self.tracer.counter("dirty_stripes", float(self.marks.marked_stripe_count))
                self.tracer.counter("parity_lag_bytes", lag)

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


class _Tail:
    """Drive a generator to exhaustion with ``Process._resume`` hop semantics.

    Lets the service machine run its rare write protocols — degraded
    writes and mirrored writes (``_write_degraded``, ``_write_mirror``) —
    as plain generator bodies, with the event pattern of a ``yield from``
    inside a process but no process: the first ``send`` runs inline at the
    delegation point, each yielded event gets one callback at the position
    a process would re-arm at, an already-processed event resumes
    synchronously, and exhaustion calls ``on_done`` where the enclosing
    body continues.
    """

    __slots__ = ("generator", "on_done")

    def __init__(self, generator, on_done) -> None:
        self.generator = generator
        self.on_done = on_done

    def start(self) -> None:
        self._advance(None, None)

    def _advance(self, value, exc) -> None:
        generator = self.generator
        while True:
            try:
                if exc is not None:
                    target = generator.throw(exc)
                else:
                    target = generator.send(value)
            except StopIteration:
                self.on_done(None)
                return
            except BaseException as raised:
                self.on_done(raised)
                return
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._fired)
                return
            # Already processed: resume immediately (Process._resume parity).
            if target._exception is not None:
                value, exc = None, target._exception
            else:
                value, exc = target._value, None

    def _fired(self, event: Event) -> None:
        if event._exception is not None:
            self._advance(None, event._exception)
        else:
            self._advance(event._value, None)


class _StripeWrite:
    """One stripe of a RAID 5 write, as a callback machine.

    Three protocols, chosen by coverage and the stripe's mark: a
    full-stripe write computes parity from the new data alone (no
    pre-reads); a partial write to a dirty stripe reconstructs (reads the
    units it does not overwrite, then writes data and a fresh parity
    unit); any other partial write is the classic read-modify-write of
    Figure 1 (pre-read old data and parity, then write both).  ``event``
    fires when the stripe is done; the request's :class:`_Barrier` waits
    on the events of all its stripes.  The body runs at a kick's dispatch,
    or in its place under a quiet kernel (see :meth:`start`).
    """

    __slots__ = ("array", "stripe", "runs", "event", "was_dirty", "parity", "span")

    def __init__(self, array: DiskArray, stripe: int, runs: list[ExtentRun]) -> None:
        self.array = array
        self.stripe = stripe
        self.runs = runs
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

    def _start(self, _kick: Event) -> None:
        array = self.array
        stripe = self.stripe
        runs = self.runs
        try:
            layout = array.layout
            unit_sectors = layout.stripe_unit_sectors
            covered = sum(run.nsectors for run in runs)
            full_stripe = covered == layout.stripe_data_sectors
            parity = layout.parity_unit(stripe)
            self.parity = parity
            self.was_dirty = array.marks.is_marked(stripe)

            if full_stripe:
                # Large-write optimisation: no pre-reads.
                writes = array._submit_data_writes(runs)
                writes.append(
                    array.drivers[parity.disk].submit(
                        DiskIO(IoKind.WRITE, parity.disk_lba, unit_sectors)
                    )
                )
                array.stats.foreground_parity_writes += 1
                self.span = None
                _Barrier(array.sim, writes, self._writes_done)
            elif self.was_dirty:
                # Parity is stale: a read-modify-write would seal in
                # garbage, so reconstruct from the units not overwritten.
                covered_units = {
                    run.unit_index for run in runs if run.nsectors == unit_sectors
                }
                reads = []
                for unit in layout.data_units(stripe):
                    if unit.unit_index in covered_units:
                        continue
                    reads.append(
                        array.drivers[unit.disk].submit(
                            DiskIO(IoKind.READ, unit.disk_lba, unit_sectors)
                        )
                    )
                    array.stats.reconstruct_reads += 1
                self.span = None
                if reads:
                    _Barrier(array.sim, reads, self._prereads_done)
                else:
                    self._submit_writes()
            else:
                # The small-update path (Figure 1): old data and old
                # parity are read in the client write's critical path.
                lo = min(run.disk_lba - layout.unit_lba(run.stripe, run.disk) for run in runs)
                hi = max(
                    run.disk_lba - layout.unit_lba(run.stripe, run.disk) + run.nsectors
                    for run in runs
                )
                self.span = (parity.disk_lba + lo, hi - lo)
                reads = []
                for run in runs:
                    reads.append(
                        array.drivers[run.disk].submit(
                            DiskIO(IoKind.READ, run.disk_lba, run.nsectors)
                        )
                    )
                    array.stats.preread_ios += 1
                reads.append(
                    array.drivers[parity.disk].submit(
                        DiskIO(IoKind.READ, self.span[0], self.span[1])
                    )
                )
                array.stats.preread_ios += 1
                _Barrier(array.sim, reads, self._prereads_done)
        except BaseException as exc:
            self.event.fail(exc)

    def _prereads_done(self, exc: BaseException | None) -> None:
        if exc is not None:
            self.event.fail(exc)
            return
        self._submit_writes()

    def _submit_writes(self) -> None:
        array = self.array
        try:
            writes = array._submit_data_writes(self.runs)
            if self.span is not None:
                parity_lba, parity_span = self.span
                writes.append(
                    array.drivers[self.parity.disk].submit(
                        DiskIO(IoKind.WRITE, parity_lba, parity_span)
                    )
                )
            else:
                writes.append(
                    array.drivers[self.parity.disk].submit(
                        DiskIO(
                            IoKind.WRITE,
                            self.parity.disk_lba,
                            array.layout.stripe_unit_sectors,
                        )
                    )
                )
            array.stats.foreground_parity_writes += 1
            _Barrier(array.sim, writes, self._writes_done)
        except BaseException as exc:
            self.event.fail(exc)

    def _writes_done(self, exc: BaseException | None) -> None:
        if exc is not None:
            self.event.fail(exc)
            return
        array = self.array
        try:
            if self.was_dirty:
                stripe = self.stripe
                array.marks.clear_stripe(stripe)
                array._lag_changed()
                if array.exposure is not None:
                    array.exposure.stripe_cleaned(stripe, array.sim.now, cause="write")
        except BaseException as raised:
            self.event.fail(raised)
            return
        # Trigger ``event`` — scheduled only when someone is listening
        # (the request's barrier always is).
        done = self.event
        callbacks = done.callbacks
        if callbacks:
            if array.sim.quiet():
                # Quiet kernel: succeed() would schedule the dispatch as
                # the very next one — settle the event and run its
                # listeners in place, exactly as the kernel would.
                done._value = None
                done._scheduled = True
                done._handled = True
                done.callbacks = None
                for callback in callbacks:
                    callback(done)
            else:
                done.succeed(None)
        else:
            done._value = None
            done.callbacks = None


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
      dispatches by mode: AFRAID marks and data writes, one
      :class:`_StripeWrite` per stripe for RAID 5, or the rare mirrored
      and degraded protocols, run as generator bodies by :class:`_Tail`.

    Each state registers one callback where a process would wait, so
    same-instant tie-breaks are those of a process.  Where the kernel is
    quiet, an event that would dispatch next is elided and its handler
    runs in place.
    """

    __slots__ = (
        "array", "request", "done", "nbytes",
        "stripe_items", "stripe_list", "stripe_index",
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
            events = []
            for run in runs:
                if run.disk in array._failed_disks:
                    if array._mirrored:
                        events.extend(array._submit_mirror_read(run))
                    else:
                        events.extend(array._submit_degraded_read(run))
                else:
                    events.append(
                        drivers[run.disk].submit(
                            DiskIO(IoKind.READ, run.disk_lba, run.nsectors)
                        )
                    )
                    array.stats.foreground_data_reads += 1
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
        array = self.array
        if array._mirrored:
            body = array._write_mirror(self.request, dict(self.stripe_items))
            _Tail(body, self._write_finish).start()
        elif array._degraded_disk is not None:
            body = array._write_degraded(self.request, dict(self.stripe_items))
            _Tail(body, self._write_finish).start()
        elif array.policy.write_mode(tuple(self.stripe_list)) is WriteMode.AFRAID:
            self._write_afraid()
        else:
            self._write_raid5()

    def _write_afraid(self) -> None:
        array = self.array
        stripe_items = self.stripe_items
        plan = self.request.plan
        array._mark_runs(stripe_items, plan.mark_targets if plan is not None else None)
        events = []
        append = events.append
        drivers = array.drivers
        write = IoKind.WRITE
        for _stripe, runs in stripe_items:
            for run in runs:
                append(
                    drivers[run.disk].submit(
                        DiskIO(write, run.disk_lba, run.nsectors)
                    )
                )
        array.stats.foreground_data_writes += len(events)
        _Barrier(array.sim, events, self._afraid_done)

    def _afraid_done(self, exc: BaseException | None) -> None:
        if exc is not None:
            self._write_finish(exc)
            return
        array = self.array
        try:
            if array.functional is not None:
                array.functional.write(
                    self.request.offset_sectors,
                    array._payload(self.request),
                    update_parity=False,
                )
            array.policy.on_stripes_marked()
        except BaseException as raised:
            self._write_finish(raised)
            return
        self._write_finish(None)

    def _write_raid5(self) -> None:
        array = self.array
        stripe_writes = [
            _StripeWrite(array, stripe, runs) for stripe, runs in self.stripe_items
        ]
        # tail=True: the per-stripe events have no listener but us.  The
        # barrier attaches before the bodies run so a body failure always
        # has its handler (start() may run the body inline).
        _Barrier(
            array.sim,
            [write.event for write in stripe_writes],
            self._raid5_done,
            tail=True,
        )
        for write in stripe_writes:
            write.start()

    def _raid5_done(self, exc: BaseException | None) -> None:
        if exc is not None:
            self._write_finish(exc)
            return
        array = self.array
        request = self.request
        try:
            if array.functional is not None:
                array.functional.write(
                    request.offset_sectors, array._payload(request), update_parity=False
                )
                for stripe in self.stripe_list:
                    array.functional.scrub_stripe(stripe)
        except BaseException as exc:
            self._write_finish(exc)
            return
        self._write_finish(None)

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
        if array.hists is not None or array.tracer is not None:
            array._observe_client(request)
        done = self.done
        if done.callbacks:
            done.succeed(request)
        else:
            # Nobody is listening yet (the replay feeder collects its
            # completions after the fact): complete the event in place,
            # skipping the no-op dispatch.  Late add_callback listeners
            # fire immediately on the processed event, and pollers see
            # triggered/processed exactly as after a real dispatch.
            done._value = request
            done.callbacks = None
