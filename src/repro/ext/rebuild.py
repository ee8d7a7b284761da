"""Degraded-mode rebuild onto a spare disk.

Section 2 of the paper notes that "all the well-known techniques that
have been developed for performing stripe rebuilds in a recently repaired
disk array can be applied to the problem of rebuilding the parity in
AFRAID" — and conversely, an AFRAID array needs the standard machinery
too: when a member dies, the array runs degraded (reads reconstruct
through parity) while a background sweep regenerates the lost disk's
contents onto a spare, stripe by stripe, optionally yielding to
foreground traffic between stripes ([Muntz90, Holland92] style).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.array.controller import DiskArray
from repro.disk import DiskFailedError, DiskIO, IoKind, LatentSectorError, MechanicalDisk
from repro.sched import DiskDriver, FcfsScheduler
from repro.sim import AllOf, Event, Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - optional observability
    from repro.obs import HistogramSet, MetricsRegistry, Tracer


@dataclasses.dataclass
class RebuildStats:
    stripes_rebuilt: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at


class RebuildManager:
    """Coordinates failure handling and spare rebuild for one array."""

    def __init__(self, sim: Simulator, array: DiskArray, yield_to_foreground: bool = True) -> None:
        self.sim = sim
        self.array = array
        #: Pause between stripes while clients are active (rebuild still
        #: makes progress in every idle moment; set False for a flat-out
        #: sweep that competes with the foreground).
        self.yield_to_foreground = yield_to_foreground
        self.stats = RebuildStats()
        # Inherit the array's observability sinks (if any were attached):
        # per-stripe rebuild latencies land in the "rebuild" class and the
        # sweep shows up as spans on a "rebuild" track.
        self.tracer: "Tracer | None" = array.tracer
        self.hists: "HistogramSet | None" = array.hists
        self.registry: "MetricsRegistry | None" = array.registry

    def fail_and_rebuild(self, disk_index: int, spare: MechanicalDisk) -> Event:
        """Kill member ``disk_index`` and rebuild it onto ``spare``.

        Returns an event that fires when the array is whole again (the
        spare installed as the new member, degraded mode left).  Any
        stripes that were dirty at failure time have already lost their
        vulnerable unit (AFRAID's exposure); the rebuild regenerates what
        parity can express.
        """
        array = self.array
        if spare.geometry.total_sectors < array.layout.disk_sectors:
            raise ValueError("spare is smaller than the failed member")
        array.disks[disk_index].fail()
        if array.functional is not None:
            array.functional.fail_disk(disk_index)
        array.enter_degraded(disk_index)
        if self.tracer is not None:
            self.tracer.instant(
                "disk_failed", track="rebuild", category="fault",
                disk=disk_index, dirty_stripes=array.dirty_stripe_count,
            )
        return self.rebuild_onto(disk_index, spare)

    def rebuild_onto(self, disk_index: int, spare: MechanicalDisk) -> Event:
        """Rebuild an *already failed*, degraded member onto ``spare``.

        The half of :meth:`fail_and_rebuild` after the failure itself —
        what a repair technician (or the fault-campaign engine, some
        repair delay after an injected failure) triggers.  Returns an
        event that fires when the array is whole again.
        """
        array = self.array
        if disk_index not in array.failed_disks:
            raise ValueError(
                f"array is degraded on {array.degraded_disk}, not disk {disk_index}"
            )
        if spare.geometry.total_sectors < array.layout.disk_sectors:
            raise ValueError("spare is smaller than the failed member")
        done = self.sim.event(name=f"{array.name}.rebuilt")
        self.sim.process(self._rebuild(disk_index, spare, done), name=f"{array.name}.rebuild")
        return done

    def _rebuild(self, disk_index: int, spare: MechanicalDisk, done: Event):
        array = self.array
        spare_driver = DiskDriver(self.sim, spare, FcfsScheduler(), name=f"{array.name}.spare")
        unit_sectors = array.layout.stripe_unit_sectors
        self.stats.started_at = self.sim.now

        organization = array.organization
        declustered = organization.declustered
        partner = disk_index ^ 1 if organization.mirrored else None

        for stripe in range(array.layout.nstripes):
            if declustered and disk_index not in array.layout.stripe_members(stripe):
                continue  # this disk holds no unit of the stripe
            if self.yield_to_foreground:
                while not array.detector.is_idle:
                    # Re-check shortly after the array drains.
                    yield self.sim.timeout(array.detector.threshold_s)
            stripe_started = self.sim.now
            # Read enough survivors to regenerate the lost unit: the
            # mirror partner for mirrored organizations (every other
            # member via parity if the whole pair died under RAID 1+5),
            # every surviving stripe member otherwise.  A latent sector
            # error on a survivor is repaired in place (rewrite) and the
            # stripe retried, scrubber-style.
            attempts = 0
            while True:
                reads = []
                repair_units = None
                if organization.mirrored:
                    if not array.disks[partner].failed:
                        reads.append(
                            array.drivers[partner].submit(
                                DiskIO(IoKind.READ, stripe * unit_sectors, unit_sectors)
                            )
                        )
                    elif array.layout.has_parity:
                        # Whole pair dead: reconstruct through parity from
                        # one alive copy of every other pair's unit.
                        for member in range(array.ndisks):
                            if member in (disk_index, partner) or member % 2:
                                continue
                            source = member if not array.disks[member].failed else member ^ 1
                            if array.disks[source].failed:
                                continue  # that pair is gone too; data is lost
                            reads.append(
                                array.drivers[source].submit(
                                    DiskIO(IoKind.READ, stripe * unit_sectors, unit_sectors)
                                )
                            )
                    # RAID 1 / RAID 1/0 with the pair dead: contents are
                    # unrecoverable (already recorded as a data-loss
                    # event); the spare comes back zero-filled.
                elif declustered:
                    repair_units = list(array.layout.data_units(stripe))
                    repair_units.append(array.layout.parity_unit(stripe))
                    for member in array.layout.stripe_members(stripe):
                        if member == disk_index:
                            continue
                        reads.append(
                            array.drivers[member].submit(
                                DiskIO(
                                    IoKind.READ,
                                    array.layout.unit_lba(stripe, member),
                                    unit_sectors,
                                )
                            )
                        )
                else:
                    for member in range(array.ndisks):
                        if member == disk_index:
                            continue
                        reads.append(
                            array.drivers[member].submit(
                                DiskIO(IoKind.READ, stripe * unit_sectors, unit_sectors)
                            )
                        )
                try:
                    if reads:
                        yield AllOf(self.sim, reads)
                except LatentSectorError:
                    attempts += 1
                    if attempts > 3:
                        raise
                    repaired = array._repair_latent_extent(
                        stripe * unit_sectors, unit_sectors, units=repair_units
                    )
                    if repaired is not None:
                        yield repaired
                    continue
                except DiskFailedError:
                    # A survivor died mid-read (a RAID 1+5 mirror partner
                    # may, its pair being absorbable through parity):
                    # plan the stripe again from the members still alive.
                    attempts += 1
                    if attempts > 3:
                        raise
                    continue
                break
            target_lba = array.layout.unit_lba(stripe, disk_index)
            yield spare_driver.submit(DiskIO(IoKind.WRITE, target_lba, unit_sectors))
            self.stats.stripes_rebuilt += 1
            if self.registry is not None:
                self.registry.counter(
                    "rebuild_stripes_total", "stripes regenerated onto a spare"
                ).inc()
            if self.hists is not None:
                self.hists.record("rebuild", self.sim.now - stripe_started)
            if self.tracer is not None:
                self.tracer.complete(
                    "rebuild_stripe", start_s=stripe_started,
                    duration_s=self.sim.now - stripe_started,
                    track="rebuild", category="rebuild", stripe=stripe,
                )

        # Install the spare as the new member.
        array.disks[disk_index] = spare
        array.drivers[disk_index] = spare_driver
        if array.functional is not None:
            self._rebuild_functional(disk_index)
        array.leave_degraded(disk_index)
        if array.marks.count:
            # Parity debt accrued before/during the failure: now that the
            # array is whole again, let the scrubber drain it.
            array.request_scrub(force=True)
        self.stats.finished_at = self.sim.now
        if self.tracer is not None:
            self.tracer.complete(
                "rebuild", start_s=self.stats.started_at,
                duration_s=self.stats.duration_s,
                track="rebuild", category="rebuild",
                disk=disk_index, stripes=self.stats.stripes_rebuilt,
            )
        done.succeed(self.stats)

    def _rebuild_functional(self, disk_index: int) -> None:
        """Regenerate the replaced disk's bytes in the functional twin.

        Clean rows reconstruct the lost unit exactly through parity —
        sub-unit aware, so a partially dirty stripe still recovers its
        clean slices; rows under dirty marks lost that unit for good and
        come back zero-filled, with parity recomputed so the twin stays
        internally consistent for later failures.
        """
        functional = self.array.functional
        assert functional is not None
        layout = functional.layout
        unit_sectors = layout.stripe_unit_sectors

        # Phase 1: reconstruct what parity can express, before replacing.
        recovered: dict[int, object] = {}  # disk_lba -> unit contents
        needs_parity_rebuild: list[int] = []
        for stripe in range(layout.nstripes):
            parity = layout.parity_unit(stripe)
            if parity.disk == disk_index:
                needs_parity_rebuild.append(stripe)  # only parity was lost
                continue
            if functional.dirty_sub_units(stripe):
                needs_parity_rebuild.append(stripe)  # dirty slices zero-fill
            recovered[stripe * unit_sectors] = functional.reconstruct_data_unit(
                stripe, disk_index
            )

        # Phase 2: install the fresh disk and write everything back.
        functional.store.replace(disk_index)
        for disk_lba, data in recovered.items():
            functional.store.write(disk_index, disk_lba, data)
        for stripe in needs_parity_rebuild:
            functional.scrub_stripe(stripe)