"""The mechanical disk: seek + rotation + transfer timing, one I/O at a time.

The model follows [Ruemmler94]: a fixed controller overhead per command, the
seek curve from :mod:`repro.disk.seek`, rotational latency computed from the
absolute rotational position (a pure function of simulated time, so equal
``spindle_phase`` values give the spin-synchronised arrays the paper
simulates), and per-track media transfer where head/cylinder switches along
a long access are hidden by track/cylinder skew.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from bisect import bisect_right as _bisect_right

from repro.disk.geometry import DiskGeometry
from repro.disk.seek import SeekModel
from repro.sim import Event, Simulator


class IoKind(enum.Enum):
    """Direction of a disk access."""

    READ = "read"
    WRITE = "write"


# Enum member lookups are LOAD_ATTR chains; one module-level binding keeps
# the per-command paths to a single fast global load.
_READ = IoKind.READ


#: Seek tables keyed by (curve coefficients, cylinder count), shared by
#: every :class:`MechanicalDisk` built from equal parameters.
_SEEK_TABLE_CACHE: dict[tuple, list[float]] = {}


def _seek_table(seek_model: SeekModel, cylinders: int) -> list[float]:
    """Seek time by cylinder distance, tabulated once per curve.

    The seek curve is a pure function of distance and the hot path pays a
    sqrt plus branchy float math per I/O without it.  ~4k floats per
    geometry, shared across drives with identical curve parameters
    (arrays build dozens of identical drives; tabulating per drive was
    measurable in replay setup).  Subclassed seek models get a private
    table — their coefficients do not determine their behaviour.
    """
    if type(seek_model) is not SeekModel:
        return [seek_model.seek_time(d) for d in range(cylinders)]
    key = (
        seek_model.a,
        seek_model.b,
        seek_model.c,
        seek_model.e,
        seek_model.crossover,
        cylinders,
    )
    table = _SEEK_TABLE_CACHE.get(key)
    if table is None:
        table = _SEEK_TABLE_CACHE[key] = [seek_model.seek_time(d) for d in range(cylinders)]
    return table


class DiskFailedError(Exception):
    """An I/O was issued to (or in flight on) a failed disk."""


class LatentSectorError(Exception):
    """A read touched a latent (media-defect) sector.

    Unlike a whole-disk failure the drive stays in service: the read
    fails after a full mechanical attempt, and a *write* covering the
    sector heals it (the drive remaps it to a spare), which is how the
    array's scrub/rebuild machinery repairs latent errors it discovers.
    """

    def __init__(self, disk_name: str, lbas: list[int]) -> None:
        super().__init__(f"{disk_name}: unreadable sector(s) {lbas}")
        self.disk_name = disk_name
        self.lbas = lbas


class DiskIO:
    """One physical disk access: ``nsectors`` starting at ``lba``.

    A plain ``__slots__`` class rather than a frozen dataclass: the
    controller creates one per physical command (millions per replay) and
    the dataclass ``__init__``/``__post_init__`` machinery was measurable.
    Value semantics (eq/hash/repr) are preserved.
    """

    __slots__ = ("kind", "lba", "nsectors", "tag")

    def __init__(self, kind: IoKind, lba: int, nsectors: int, tag: typing.Any = None) -> None:
        if lba < 0:
            raise ValueError(f"lba must be >= 0, got {lba}")
        if nsectors < 1:
            raise ValueError(f"nsectors must be >= 1, got {nsectors}")
        self.kind = kind
        self.lba = lba
        self.nsectors = nsectors
        self.tag = tag

    @property
    def last_lba(self) -> int:
        return self.lba + self.nsectors - 1

    def __repr__(self) -> str:
        return (
            f"DiskIO(kind={self.kind!r}, lba={self.lba!r}, "
            f"nsectors={self.nsectors!r}, tag={self.tag!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiskIO):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.lba == other.lba
            and self.nsectors == other.nsectors
            and self.tag == other.tag
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.lba, self.nsectors, self.tag))


class ServiceBreakdown:
    """Where the time of one disk access went."""

    __slots__ = ("overhead", "seek", "rotational_latency", "transfer")

    def __init__(
        self, overhead: float, seek: float, rotational_latency: float, transfer: float
    ) -> None:
        self.overhead = overhead
        self.seek = seek
        self.rotational_latency = rotational_latency
        self.transfer = transfer

    @property
    def total(self) -> float:
        return self.overhead + self.seek + self.rotational_latency + self.transfer

    def __repr__(self) -> str:
        return (
            f"ServiceBreakdown(overhead={self.overhead!r}, seek={self.seek!r}, "
            f"rotational_latency={self.rotational_latency!r}, transfer={self.transfer!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceBreakdown):
            return NotImplemented
        return (
            self.overhead == other.overhead
            and self.seek == other.seek
            and self.rotational_latency == other.rotational_latency
            and self.transfer == other.transfer
        )

    def __hash__(self) -> int:
        return hash((self.overhead, self.seek, self.rotational_latency, self.transfer))


@dataclasses.dataclass
class DiskStats:
    """Cumulative per-disk counters."""

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_time: float = 0.0
    seek_time: float = 0.0
    rotational_latency: float = 0.0
    transfer_time: float = 0.0
    readahead_hits: int = 0

    @property
    def ios(self) -> int:
        return self.reads + self.writes


class MechanicalDisk:
    """A single spindle that services one :class:`DiskIO` at a time.

    Queueing lives in the back-end device driver (:mod:`repro.sched`); the
    disk itself refuses overlapping commands.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: DiskGeometry,
        seek_model: SeekModel,
        rpm: float,
        controller_overhead_s: float = 0.0005,
        head_switch_s: float = 0.001,
        spindle_phase: float = 0.0,
        immediate_report: bool = False,
        readahead_segments: int = 0,
        name: str = "disk",
    ) -> None:
        """``immediate_report`` and ``readahead_segments`` enable the
        drive-level caches [Ruemmler94] describes.  Both default off —
        the paper's configuration disables immediate reporting (writes
        are write-through to media) and relies on host caches instead of
        drive read-ahead (§4.1)."""
        if rpm <= 0:
            raise ValueError(f"rpm must be positive, got {rpm}")
        if not 0.0 <= spindle_phase < 1.0:
            raise ValueError(f"spindle_phase must be in [0, 1), got {spindle_phase}")
        if readahead_segments < 0:
            raise ValueError("readahead_segments must be >= 0")
        self.sim = sim
        self.geometry = geometry
        self.seek_model = seek_model
        self.rpm = rpm
        self.rotation_period = 60.0 / rpm
        self.controller_overhead_s = controller_overhead_s
        self.head_switch_s = head_switch_s
        self.spindle_phase = spindle_phase
        self.immediate_report = immediate_report
        self.readahead_segments = readahead_segments
        self.name = name
        self._seek_table = _seek_table(seek_model, geometry.cylinders)
        self.stats = DiskStats()
        self._current_cylinder = 0
        self._current_head = 0
        self._busy_until = 0.0
        self._failed = False
        #: The queued completion event of the command in flight (if any);
        #: ``fail()`` converts it so waiters see the failure at the
        #: scheduled completion time.
        self._inflight: Event | None = None
        # Read-ahead cache: LRU list of (first_lba, last_lba) segments,
        # newest last.  A segment is the tail of a track the drive kept
        # streaming after a host read finished.
        self._segments: list[tuple[int, int]] = []
        #: Latent (unreadable) sectors; empty on the fault-free path so
        #: the per-I/O check is a single falsy test.
        self._latent_errors: set[int] = set()

    # A snapshot carries the seek curve, not its table (most of a fresh
    # array's pickled bytes): a revived drive fetches the shared table.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_seek_table"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._seek_table = _seek_table(self.seek_model, self.geometry.cylinders)

    # -- state -------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a command occupies the mechanism."""
        return self.sim.now < self._busy_until

    @property
    def busy_until(self) -> float:
        """When the mechanism finishes its current command."""
        return self._busy_until

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def current_cylinder(self) -> int:
        return self._current_cylinder

    def fail(self) -> None:
        """Mark the disk failed: all subsequent accesses error.

        A command in flight fails too: its (already queued) completion
        event is converted to a failure, which waiters observe at the
        originally scheduled completion time — exactly when the old
        completion-time status check would have reported it.
        """
        self._failed = True
        inflight = self._inflight
        if inflight is not None:
            self._inflight = None
            if inflight.callbacks is not None:  # not yet dispatched
                inflight._exception = DiskFailedError(f"{self.name} failed mid-flight")

    def repair(self) -> None:
        """Return a failed disk to service (contents are NOT restored)."""
        self._failed = False

    # -- latent sector errors --------------------------------------------------------

    def inject_latent_error(self, lba: int) -> None:
        """Make sector ``lba`` unreadable until something writes over it."""
        if not 0 <= lba < self.geometry.total_sectors:
            raise ValueError(f"lba {lba} outside {self.name} ({self.geometry.total_sectors} sectors)")
        self._latent_errors.add(lba)

    @property
    def latent_error_count(self) -> int:
        return len(self._latent_errors)

    @property
    def latent_error_lbas(self) -> list[int]:
        """The currently-unreadable sectors, ascending."""
        return sorted(self._latent_errors)

    def latent_errors_within(self, lba: int, nsectors: int) -> list[int]:
        """Latent sectors inside [lba, lba + nsectors), ascending."""
        if not self._latent_errors:
            return []
        last = lba + nsectors - 1
        return sorted(bad for bad in self._latent_errors if lba <= bad <= last)

    # -- rotational position -------------------------------------------------------

    def rotational_fraction(self, at_time: float) -> float:
        """Fraction of a revolution completed at ``at_time`` (0 ≤ f < 1)."""
        return (at_time / self.rotation_period + self.spindle_phase) % 1.0

    # -- timing ---------------------------------------------------------------------

    def _service_parts(
        self, lba: int, nsectors: int, start_time: float
    ) -> tuple[float, float, float, int, int]:
        """One flat pass over the access: (seek, rotational latency,
        transfer, last cylinder, last head), with no side effects.

        This is :meth:`compute_service` with the per-segment
        :class:`~repro.disk.geometry.PhysicalAddress` objects and repeated
        attribute loads stripped out; the floating-point operations and
        their order are *identical*, so results are bit-equal — the golden
        replay gate depends on that.
        """
        geometry = self.geometry
        if 0 <= lba and 1 <= nsectors and lba + nsectors <= geometry.total_sectors:
            # Decode the start position inline; when the whole access fits
            # in one track run (the common case for trace-replay I/O sizes)
            # skip iter_segments' per-segment list/tuple construction.
            zone_first_lba = geometry._zone_first_lba
            index = _bisect_right(zone_first_lba, lba) - 1
            spt = geometry.zones[index].sectors_per_track
            offset = lba - zone_first_lba[index]
            sectors_per_cylinder = geometry.heads * spt
            cylinder = geometry._zone_first_cyl[index] + offset // sectors_per_cylinder
            within = offset % sectors_per_cylinder
            head = within // spt
            sector = within % spt
            if spt - sector >= nsectors:
                distance = cylinder - self._current_cylinder
                if distance < 0:
                    distance = -distance
                seek = self._seek_table[distance]
                if seek == 0.0 and head != self._current_head:
                    seek = self.head_switch_s
                rotation_period = self.rotation_period
                clock = start_time + self.controller_overhead_s + seek
                sector_period = rotation_period / spt
                target_fraction = sector / spt
                now_fraction = (clock / rotation_period + self.spindle_phase) % 1.0
                rotational_latency = ((target_fraction - now_fraction) % 1.0) * rotation_period
                return seek, rotational_latency, nsectors * sector_period, cylinder, head
        segments = geometry.iter_segments(lba, nsectors)
        cylinder, head, sector, spt, run = segments[0]
        distance = cylinder - self._current_cylinder
        if distance < 0:
            distance = -distance
        seek = self._seek_table[distance]
        if seek == 0.0 and head != self._current_head:
            seek = self.head_switch_s  # pure head switch, no arm motion
        rotation_period = self.rotation_period
        head_switch_s = self.head_switch_s
        clock = start_time + self.controller_overhead_s + seek

        # First segment: rotational wait to the target sector, then media.
        sector_period = rotation_period / spt
        target_fraction = sector / spt
        now_fraction = (clock / rotation_period + self.spindle_phase) % 1.0
        rotational_latency = ((target_fraction - now_fraction) % 1.0) * rotation_period
        clock += rotational_latency
        transfer = 0.0
        run_time = run * sector_period
        transfer += run_time
        clock += run_time

        if len(segments) > 1:
            cylinder_skew = self.geometry.cylinder_skew
            track_skew = self.geometry.track_skew
            previous_cylinder = cylinder
            for index in range(1, len(segments)):
                cylinder, head, sector, spt, run = segments[index]
                sector_period = rotation_period / spt
                skew = cylinder_skew if cylinder != previous_cylinder else track_skew
                skew_time = skew * sector_period
                if head_switch_s <= skew_time:
                    switch_cost = skew_time
                else:
                    # Skew too small to hide the switch: we miss the first
                    # sector and pay a full extra revolution.
                    switch_cost = skew_time + rotation_period
                transfer += switch_cost
                clock += switch_cost
                run_time = run * sector_period
                transfer += run_time
                clock += run_time
                previous_cylinder = cylinder
        return seek, rotational_latency, transfer, cylinder, head

    def compute_service(self, io: DiskIO, start_time: float) -> ServiceBreakdown:
        """Compute the full service-time breakdown, without side effects."""
        seek, rotational_latency, transfer, _cyl, _head = self._service_parts(
            io.lba, io.nsectors, start_time
        )
        return ServiceBreakdown(
            overhead=self.controller_overhead_s,
            seek=seek,
            rotational_latency=rotational_latency,
            transfer=transfer,
        )

    def execute(self, io: DiskIO, into: Event | None = None) -> Event:
        """Service ``io`` now; returns an event firing at completion.

        The caller (a back-end driver) must not overlap commands.

        ``into`` lets the caller supply the completion event (the driver
        passes its own per-command event, eliminating a relay event and a
        dispatch per disk I/O).
        """
        if self._failed:
            failure = into if into is not None else self.sim.event(name=f"{self.name}.failed_io")
            failure.fail(DiskFailedError(f"{self.name} has failed"))
            return failure
        now = self.sim._now
        if now < self._busy_until:
            raise RuntimeError(f"{self.name} is busy until t={self._busy_until:.6f}")

        bad_lbas: list[int] | None = None
        if self._latent_errors:
            if io.kind is IoKind.WRITE:
                # Writing over a latent sector heals it (drive remap).
                for lba in self.latent_errors_within(io.lba, io.nsectors):
                    self._latent_errors.discard(lba)
            else:
                bad_lbas = self.latent_errors_within(io.lba, io.nsectors) or None

        # `self._segments and` elides the _readahead_hit call when no
        # segments are buffered (always, with read-ahead disabled): a hit
        # needs a live segment regardless of the configured segment count.
        if io.kind is _READ and bad_lbas is None and self._segments and self._readahead_hit(io):
            done = into if into is not None else self.sim.event(name="cached_read")
            return self.issue(io, done, None)

        done = into if into is not None else self.sim.event(name=io.kind.value)
        # A latent sector error: the mechanism makes the full attempt
        # (timing and stats are real); the completion reports the error.
        error = LatentSectorError(self.name, bad_lbas) if bad_lbas is not None else None
        self.issue(io, done, self._service_parts(io.lba, io.nsectors, now), error)
        if io.kind is _READ:
            if bad_lbas is None and self.readahead_segments:
                self._record_readahead(io)
        elif self._segments:
            self._invalidate_segments(io)
        return done

    def issue(
        self,
        io: DiskIO,
        done: Event,
        timing: tuple | None,
        exception: BaseException | None = None,
    ) -> Event:
        """Start ``io`` now with precomputed ``timing``; ``done`` fires at completion.

        The one place a command becomes disk state: head position,
        ``busy_until``, :class:`DiskStats`, the in-flight completion
        (which :meth:`fail` converts), and ``done`` triggered through
        :meth:`~repro.sim.Simulator.trigger_at` with the
        :class:`ServiceBreakdown` — or failed with ``exception``.

        ``timing`` starts ``(seek, rotational_latency, transfer, cylinder,
        head)`` as :meth:`_service_parts` (or, chained, by
        :func:`~repro.disk.vector.batch_service_parts`) computes it from
        the current state; ``None`` is a read served from the read-ahead
        buffer, which costs the overhead only and neither moves nor
        occupies the mechanism.  The caller has made :meth:`execute`'s
        checks: the disk is healthy and idle, and ``timing`` accounts for
        the drive caches.
        """
        sim = self.sim
        now = sim._now
        overhead = self.controller_overhead_s
        stats = self.stats
        if io.kind is _READ:
            stats.reads += 1
            stats.sectors_read += io.nsectors
        else:
            stats.writes += 1
            stats.sectors_written += io.nsectors
        if timing is None:
            stats.readahead_hits += 1
            breakdown = ServiceBreakdown(overhead, 0.0, 0.0, 0.0)
            when = now + breakdown.total
        else:
            seek, rotational_latency, transfer, cylinder, head = timing[:5]
            # Same addition order as ServiceBreakdown.total.
            total = overhead + seek + rotational_latency + transfer
            self._current_cylinder = cylinder
            self._current_head = head
            self._busy_until = when = now + total
            stats.busy_time += total
            stats.seek_time += seek
            stats.rotational_latency += rotational_latency
            stats.transfer_time += transfer
            breakdown = ServiceBreakdown(overhead, seek, rotational_latency, transfer)
            if self.immediate_report and io.kind is not _READ:
                # Immediate reporting: the host sees completion as soon as
                # the data is in the drive buffer; the mechanism stays
                # busy until the media write really finishes.
                when = now + overhead
        self._inflight = done
        return sim.trigger_at(done, when, breakdown, exception)

    # -- drive-level caches ----------------------------------------------------------

    def _readahead_hit(self, io: DiskIO) -> bool:
        if not self.readahead_segments:
            return False
        for index, (first, last) in enumerate(self._segments):
            if first <= io.lba and io.last_lba <= last:
                # LRU refresh.
                self._segments.append(self._segments.pop(index))
                return True
        return False

    def _record_readahead(self, io: DiskIO) -> None:
        """After a media read the drive keeps streaming to the end of the
        track; remember that tail (plus the read itself) as a segment."""
        if not self.readahead_segments:
            return
        # Integer-only decode of the last LBA's in-track sector; avoids
        # lba_to_physical's PhysicalAddress construction per media read.
        geometry = self.geometry
        zone_first_lba = geometry._zone_first_lba
        last_lba = io.lba + io.nsectors - 1
        index = _bisect_right(zone_first_lba, last_lba) - 1
        spt = geometry.zones[index].sectors_per_track
        sector = (last_lba - zone_first_lba[index]) % (geometry.heads * spt) % spt
        track_end = last_lba + (spt - 1 - sector)
        self._segments.append((io.lba, track_end))
        while len(self._segments) > self.readahead_segments:
            self._segments.pop(0)

    def _invalidate_segments(self, io: DiskIO) -> None:
        """Writes invalidate overlapping read-ahead segments."""
        if not self._segments:
            return
        self._segments = [
            (first, last)
            for first, last in self._segments
            if last < io.lba or first > io.last_lba
        ]

    # -- derived figures ----------------------------------------------------------

    def sustained_read_rate(self) -> float:
        """Bytes/second streaming from the media, averaged over zones."""
        total_bytes = 0
        total_time = 0.0
        for zone in self.geometry.zones:
            track_bytes = zone.sectors_per_track * self.geometry.sector_bytes
            tracks = zone.cylinders * self.geometry.heads
            total_bytes += track_bytes * tracks
            total_time += self.rotation_period * tracks
        return total_bytes / total_time

    def __repr__(self) -> str:
        return f"<MechanicalDisk {self.name!r} {self.geometry!r} @{self.rpm:g} rpm>"
