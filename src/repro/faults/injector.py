"""Fault injection: disk deaths, marking-memory loss, latent sectors.

These exercise the failure modes §3 analyses:

* a **single disk failure** while stripes are dirty loses exactly the
  dirty slices of one stripe unit per dirty stripe (unless the lost unit
  was parity);
* a **marking-memory failure** forces a conservative whole-array parity
  rebuild (§3.1);
* a **latent sector error** makes one sector unreadable until the
  scrubber (or any write) heals it by rewriting; a :class:`LatentProbe`
  reads it, rewrites it and checks the heal, for the campaign and the
  nemesis alike.

Injectors operate on arrays built with a functional twin
(``with_functional=True``), so losses are measured in actual bytes, not
just predicted by the formulas — letting tests check formula against fact.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.array.controller import DiskArray
from repro.disk import DiskFailedError, DiskIO, IoKind, LatentSectorError
from repro.nvram import sub_unit_extent
from repro.sim import Simulator


@dataclasses.dataclass(frozen=True)
class DiskFailureReport:
    """What a single injected disk failure cost."""

    disk: int
    at_time: float
    dirty_stripes_at_failure: int
    parity_lag_bytes_at_failure: float
    lost_data_bytes: int
    #: The eq.-(4) prediction captured from the NVRAM marks in the same
    #: instant, before the twin was destroyed — what the invariant
    #: checker compares ``lost_data_bytes`` against.
    predicted_loss_bytes: int = 0

    @property
    def any_loss(self) -> bool:
        return self.lost_data_bytes > 0


@dataclasses.dataclass(frozen=True)
class SkippedStrike:
    """A disk-failure injection that found no healthy target."""

    disk: int
    at_time: float
    reason: str


class FaultInjector:
    """Schedules failures against one array."""

    def __init__(self, sim: Simulator, array: DiskArray) -> None:
        self.sim = sim
        self.array = array
        self.reports: list[DiskFailureReport] = []
        self.skipped: list[SkippedStrike] = []
        self._taken = (0, 0)  # reports, skips already taken

    def fail_disk_at(self, disk: int, at_time: float) -> None:
        """Kill member ``disk`` at simulated time ``at_time``.

        The member fails through :meth:`DiskArray.fail_member
        <repro.array.controller.DiskArray.fail_member>`, exactly as in
        :meth:`repro.ext.rebuild.RebuildManager.fail_and_rebuild`: the
        mechanical disk starts erroring, the array drops into degraded
        mode (reads reconstruct through parity), and, if a functional twin
        is attached, its contents are destroyed; a loss report with the
        matching eq.-(4) prediction is recorded.

        A strike against an already-failed member — or one the degraded
        organization could not absorb (a second RAID 5 failure, a mirror
        pair's partner on RAID 1/0), where destroying more data would
        fabricate a bogus loss report — is a no-op recorded in
        :attr:`skipped` with a traced warning.  Organizations that survive
        several failures (RAID 1/0, RAID 1+5) take the additional strikes.
        """
        if not 0 <= disk < self.array.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if at_time < self.sim.now:
            raise ValueError("cannot schedule a failure in the past")

        self.sim.timeout(at_time - self.sim.now, name=f"fail.d{disk}").callbacks.append(
            functools.partial(self._strike_disk, disk)
        )

    def _strike_disk(self, disk: int, _event) -> None:
        array = self.array
        predicted = predicted_loss_bytes(array, disk)
        try:
            dirty, lag, lost = array.fail_member(disk)
        except ValueError as refused:
            reason = str(refused)
            self.skipped.append(SkippedStrike(disk=disk, at_time=self.sim.now, reason=reason))
            if array.obs is not None:
                array.obs.event("disk_failure_skipped", disk=disk, reason=reason)
            return
        self.reports.append(
            DiskFailureReport(
                disk=disk,
                at_time=self.sim.now,
                dirty_stripes_at_failure=dirty,
                parity_lag_bytes_at_failure=lag,
                lost_data_bytes=lost,
                predicted_loss_bytes=predicted,
            )
        )

    def take_strikes(self) -> tuple[list[DiskFailureReport], list[SkippedStrike]]:
        """The disk-failure reports and skipped strikes since the last call."""
        reports, skips = self._taken
        self._taken = (len(self.reports), len(self.skipped))
        return self.reports[reports:], self.skipped[skips:]

    def fail_mark_memory_at(self, at_time: float, auto_recover: bool = True) -> None:
        """Lose the NVRAM marks at ``at_time``.

        With ``auto_recover`` the array immediately starts the §3.1
        recovery: mark everything, rebuild parity array-wide.
        """
        if at_time < self.sim.now:
            raise ValueError("cannot schedule a failure in the past")

        self.sim.timeout(at_time - self.sim.now, name="fail.nvram").callbacks.append(
            functools.partial(self._strike_mark_memory, auto_recover)
        )

    def _strike_mark_memory(self, auto_recover: bool, _event) -> None:
        self.array.marks.fail()
        if self.array.obs is not None:
            self.array.obs.event("nvram_failure", auto_recover=auto_recover)
        if auto_recover:
            self.array.recover_mark_memory()

    def inject_latent_error_at(self, disk: int, lba: int, at_time: float) -> None:
        """Flip sector ``lba`` of member ``disk`` unreadable at ``at_time``.

        A no-op (with a traced warning) if the member has already failed
        outright by then — a dead disk has no individually bad sectors.
        """
        if not 0 <= disk < self.array.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if at_time < self.sim.now:
            raise ValueError("cannot schedule a failure in the past")

        self.sim.timeout(at_time - self.sim.now, name=f"lse.d{disk}").callbacks.append(
            functools.partial(self._strike_latent, disk, lba)
        )

    def _strike_latent(self, disk: int, lba: int, _event) -> None:
        target = self.array.disks[disk]
        if not target.failed:
            target.inject_latent_error(lba)
        if self.array.obs is not None:
            name = "latent_error_skipped" if target.failed else "latent_error"
            self.array.obs.event(name, disk=disk, lba=lba)


class LatentProbe:
    """Probe and heal one latent sector, scrub-style (§3.1), as callback states.

    At a kick, where a process would boot, it reads sector ``lba`` of
    member ``disk``: a :class:`~repro.disk.LatentSectorError` there is the
    detection (``detected``).  ``on_read(probe)``, if given, runs when
    the read completes, before the rewrite is submitted.  Then it
    rewrites the sector — a write heals a latent sector — and checks the
    heal (``healed``).  ``on_done(probe)`` runs once, at the end.  A dead
    member ends the probe early: ``lost`` names the step that found it
    dead ("start", "read" or "write"), and is None after a full probe.
    Any other read or write error escapes the run loop.  ``tag`` carries
    the caller's context.
    """

    __slots__ = ("array", "disk", "lba", "on_done", "on_read", "tag", "detected", "healed", "lost")

    def __init__(
        self, array: DiskArray, disk: int, lba: int, on_done, on_read=None, tag=None
    ) -> None:
        self.array = array
        self.disk = disk
        self.lba = lba
        self.on_done = on_done
        self.on_read = on_read
        self.tag = tag
        self.detected = False
        self.healed = False
        self.lost: str | None = None
        array.sim.call_soon(self._read)

    def _read(self, _kick) -> None:
        array = self.array
        if array.disks[self.disk].failed:
            self._end("start")
        else:
            read = array.drivers[self.disk].submit(DiskIO(IoKind.READ, self.lba, 1))
            read.add_callback(self._rewrite)

    def _rewrite(self, read) -> None:
        exc = read.exception
        if isinstance(exc, DiskFailedError):
            self._end("read")
            return
        if exc is not None and not isinstance(exc, LatentSectorError):
            raise exc  # not a fault the probe handles: escape the run loop
        self.detected = exc is not None
        if self.on_read is not None:
            self.on_read(self)
        write = self.array.drivers[self.disk].submit(DiskIO(IoKind.WRITE, self.lba, 1))
        write.add_callback(self._written)

    def _written(self, write) -> None:
        if isinstance(write.exception, DiskFailedError):
            self._end("write")
            return
        if write.exception is not None:
            raise write.exception
        self.healed = not self.array.disks[self.disk].latent_errors_within(self.lba, 1)
        self._end(None)

    def _end(self, lost: str | None) -> None:
        self.lost = lost
        self.on_done(self)


def predicted_loss_bytes(array: DiskArray, failed_disk: int) -> int:
    """Eq.-(4)-style prediction of loss for a failure of ``failed_disk`` now.

    Per NVRAM mark whose deferred work the failure makes unrecoverable:
    the marked slice of one stripe unit.  With one bit per stripe that is
    a whole stripe unit per dirty stripe (the paper's headline rate); with
    ``bits_per_stripe = M > 1`` each mark contributes only its 1/M
    horizontal slice.  Compare with
    :class:`DiskFailureReport.lost_data_bytes` (the functional twin's
    ground truth).

    What makes a mark exposed depends on the organization:

    * RAID 5 (rotated or declustered): any mark whose stripe's parity is
      *not* on the failed disk (for declustered layouts the failed disk
      must be a member of the stripe at all);
    * RAID 1 / RAID 1/0 with deferred mirror copy: marks whose stripe
      keeps a data (primary) unit on the failed disk — the mirror copy
      is stale, so the slice's fresh content dies with the primary;
    * RAID 1+5: data is always mirrored inline (only parity defers), so
      a mark is only exposed when the strike kills a whole pair holding
      one of the stripe's data units.
    """
    layout = array.layout
    organization = array.organization
    bits = array.marks.bits_per_stripe

    def mark_exposed(stripe: int) -> bool:
        if organization.mirrored:
            if organization.has_parity:
                partner = layout.mirror_disk(failed_disk)
                if not array.disks[partner].failed:
                    return False
                return layout.parity_disk(stripe) not in (failed_disk, partner)
            return any(
                unit.disk == failed_disk for unit in layout.data_units(stripe)
            )
        if organization.declustered and failed_disk not in layout.stripe_members(stripe):
            return False
        return layout.parity_disk(stripe) != failed_disk

    if bits == 1:
        return array.unit_bytes * sum(
            1 for stripe in array.marks.marked_stripes if mark_exposed(stripe)
        )
    unit_sectors = layout.stripe_unit_sectors
    sector_bytes = array.sector_bytes
    lost = 0
    for stripe, sub_unit in array.marks.marks_in_order():
        if mark_exposed(stripe):
            _start, count = sub_unit_extent(sub_unit, unit_sectors, bits)
            lost += count * sector_bytes
    return lost
