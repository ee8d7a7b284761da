"""The striped layout every organization shares, and its unit types.

Terminology (matching the paper): a *stripe* is one row of *stripe units*
across all disks; the stripe unit ("stripe depth") is 8 KB in the paper's
configuration.  For RAID 5, each stripe holds N data units plus one parity
unit on an array of N+1 disks.

:class:`StripedLayout` is the one mapping algorithm: the extent walk,
the unit lookups, their caches, pickling, and every bounds check.  A
layout class states only where its units live — which disk holds each
data unit (and the parity unit) of a stripe in each rotation *phase*,
and, where a unit does not start at ``stripe * stripe_unit_sectors`` on
its disk, the ``unit_lba`` rule that places it.
"""

from __future__ import annotations

import enum


class UnitKind(enum.Enum):
    """What a stripe unit on some disk holds."""

    DATA = "data"
    PARITY = "parity"
    PARITY_Q = "parity_q"  # second parity of RAID 6
    MIRROR = "mirror"  # secondary copy of a mirrored unit


class StripeUnit:
    """One stripe unit's physical placement.

    A plain ``__slots__`` class rather than a frozen dataclass: layouts
    build one per stripe unit on every mapping-cache miss, and the frozen
    dataclass ``__init__`` (one ``object.__setattr__`` per field) was
    measurable at whole-trace replay scale.  Value semantics (eq/hash/
    repr) are preserved.
    """

    __slots__ = ("stripe", "kind", "unit_index", "disk", "disk_lba")

    def __init__(
        self, stripe: int, kind: UnitKind, unit_index: int, disk: int, disk_lba: int
    ) -> None:
        self.stripe = stripe
        self.kind = kind
        #: Data-unit ordinal within the stripe; 0 for parity units.
        self.unit_index = unit_index
        self.disk = disk
        #: First sector of the unit on that disk.
        self.disk_lba = disk_lba

    def _astuple(self) -> tuple:
        return (self.stripe, self.kind, self.unit_index, self.disk, self.disk_lba)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StripeUnit):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"StripeUnit(stripe={self.stripe!r}, kind={self.kind!r}, "
            f"unit_index={self.unit_index!r}, disk={self.disk!r}, "
            f"disk_lba={self.disk_lba!r})"
        )


class ExtentRun:
    """A contiguous piece of a logical extent landing on one disk.

    ``logical_sector`` is where this run starts in array-logical space;
    the run never crosses a stripe-unit boundary.

    Like :class:`StripeUnit`, a plain ``__slots__`` class: extent mapping
    constructs these in bulk (scalar walks and the vectorised batch
    planner both), and dataclass construction overhead was measurable.
    """

    __slots__ = ("stripe", "unit_index", "disk", "disk_lba", "nsectors", "logical_sector")

    def __init__(
        self,
        stripe: int,
        unit_index: int,
        disk: int,
        disk_lba: int,
        nsectors: int,
        logical_sector: int,
    ) -> None:
        self.stripe = stripe
        self.unit_index = unit_index
        self.disk = disk
        #: First sector of the run on the disk.
        self.disk_lba = disk_lba
        self.nsectors = nsectors
        self.logical_sector = logical_sector

    def _astuple(self) -> tuple:
        return (
            self.stripe, self.unit_index, self.disk,
            self.disk_lba, self.nsectors, self.logical_sector,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtentRun):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"ExtentRun(stripe={self.stripe!r}, unit_index={self.unit_index!r}, "
            f"disk={self.disk!r}, disk_lba={self.disk_lba!r}, "
            f"nsectors={self.nsectors!r}, logical_sector={self.logical_sector!r})"
        )


def check_layout_args(
    ndisks: int, stripe_unit_sectors: int, disk_sectors: int, min_disks: int
) -> None:
    """Validate common layout constructor arguments."""
    if ndisks < min_disks:
        raise ValueError(f"need >= {min_disks} disks, got {ndisks}")
    if stripe_unit_sectors < 1:
        raise ValueError(f"stripe unit must be >= 1 sector, got {stripe_unit_sectors}")
    if disk_sectors < stripe_unit_sectors:
        raise ValueError(
            f"disk ({disk_sectors} sectors) smaller than one stripe unit ({stripe_unit_sectors})"
        )


def rotated_rows(width: int, data_units: int) -> tuple[tuple, tuple[int, ...]]:
    """Left-symmetric rotation over ``width`` positions, one row per phase.

    In phase ``p`` the parity sits at position ``width - 1 - p`` and the
    ``data_units`` data units follow just right of it, wrapping.  Returns
    ``(data rows, parity row)``.
    """
    parity = tuple(width - 1 - phase for phase in range(width))
    data = tuple(
        tuple((position + 1 + index) % width for index in range(data_units))
        for position in parity
    )
    return data, parity


class StripedLayout:
    """Maps array-logical sectors onto member disks, one stripe at a time.

    Logical space is cut into stripes of ``data_units_per_stripe`` units;
    stripe ``s`` is in phase ``s % len(_data_disks_by_phase)``, and row
    ``_data_disks_by_phase[phase]`` names the disk of each of its data
    units in logical order (``_parity_disk_by_phase[phase]`` its parity
    disk, for layouts with parity).  A unit on disk ``d`` starts at
    :meth:`unit_lba` ``(s, d)``.

    Parameters
    ----------
    ndisks, stripe_unit_sectors, disk_sectors:
        Member count, stripe unit ("depth") in sectors, and usable
        sectors per member; the caller has validated them.
    data_disks_by_phase, parity_disk_by_phase:
        The placement tables; ``parity_disk_by_phase`` is None for
        layouts without parity.
    nstripes:
        Stripes in the array; defaults to one per stripe unit of a disk.
    """

    #: Bounds for the per-layout mapping caches.  Extent/locate keys follow
    #: the client address stream (bounded by the trace working set); the
    #: per-stripe caches follow the stripes in flight.  Eviction is FIFO —
    #: the working sets fit comfortably, so hit-promotion would be pure
    #: overhead on the hot path.
    _EXTENT_CACHE_MAX = 8192
    _LOCATE_CACHE_MAX = 8192
    _STRIPE_CACHE_MAX = 4096

    def __init__(
        self,
        ndisks: int,
        stripe_unit_sectors: int,
        disk_sectors: int,
        data_disks_by_phase: tuple[tuple[int, ...], ...],
        parity_disk_by_phase: tuple[int, ...] | None = None,
        nstripes: int | None = None,
    ) -> None:
        self.ndisks = ndisks
        self.stripe_unit_sectors = stripe_unit_sectors
        self.disk_sectors = disk_sectors
        self.data_units_per_stripe = len(data_disks_by_phase[0])
        self.stripe_data_sectors = self.data_units_per_stripe * stripe_unit_sectors
        self.nstripes = disk_sectors // stripe_unit_sectors if nstripes is None else nstripes
        self.total_data_sectors = self.nstripes * self.stripe_data_sectors
        self._phases = len(data_disks_by_phase)
        self._data_disks_by_phase = data_disks_by_phase
        self._parity_disk_by_phase = parity_disk_by_phase
        self.__setstate__({})  # empty caches, as after unpickling

    # -- pickling ---------------------------------------------------------------

    #: Derived memoisation state a snapshot must not carry: it is rebuilt
    #: on demand (and re-warmed in bulk by the replay harness), and a full
    #: extent cache multiplies the pickled size of every shard snapshot.
    _TRANSIENT = (
        "_extent_cache",
        "_locate_cache",
        "_parity_cache",
        "_units_cache",
        "_batchplan_disk_table",
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in self._TRANSIENT:
            state.pop(key, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._extent_cache: dict[tuple[int, int], tuple[ExtentRun, ...]] = {}
        self._locate_cache: dict[int, StripeUnit] = {}
        self._parity_cache: dict[int, StripeUnit] = {}
        self._units_cache: dict[int, tuple[StripeUnit, ...]] = {}

    # -- per-stripe structure ---------------------------------------------------

    def unit_lba(self, stripe: int, disk: int) -> int:
        """First sector of ``stripe``'s unit on member ``disk``."""
        return stripe * self.stripe_unit_sectors

    @property
    def disk_sectors_used(self) -> int:
        """Sectors of each member the striped region occupies.

        Every member is filled to the same depth: the end of the last
        stripe's unit on the last disk.
        """
        return self.unit_lba(self.nstripes - 1, self.ndisks - 1) + self.stripe_unit_sectors

    def parity_disk(self, stripe: int) -> int:
        """Disk holding the parity unit of ``stripe``."""
        self._check_stripe(stripe)
        return self._parity_disk_by_phase[stripe % self._phases]

    def parity_unit(self, stripe: int) -> StripeUnit:
        """Placement of the parity unit of ``stripe``."""
        cache = self._parity_cache
        unit = cache.get(stripe)
        if unit is not None:
            return unit
        disk = self.parity_disk(stripe)
        unit = StripeUnit(stripe, UnitKind.PARITY, 0, disk, self.unit_lba(stripe, disk))
        if len(cache) >= self._STRIPE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[stripe] = unit
        return unit

    def data_disk(self, stripe: int, unit_index: int) -> int:
        """Disk holding data unit ``unit_index`` of ``stripe``."""
        if not 0 <= unit_index < self.data_units_per_stripe:
            raise ValueError(f"unit_index {unit_index} out of range")
        self._check_stripe(stripe)
        return self._data_disks_by_phase[stripe % self._phases][unit_index]

    def data_units(self, stripe: int) -> tuple[StripeUnit, ...]:
        """All data units of ``stripe``, in logical order."""
        cache = self._units_cache
        units = cache.get(stripe)
        if units is not None:
            return units
        self._check_stripe(stripe)
        units = tuple(
            StripeUnit(stripe, UnitKind.DATA, index, disk, self.unit_lba(stripe, disk))
            for index, disk in enumerate(self._data_disks_by_phase[stripe % self._phases])
        )
        if len(cache) >= self._STRIPE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[stripe] = units
        return units

    # -- logical address mapping ------------------------------------------------

    def stripe_of(self, logical_sector: int) -> int:
        """The stripe containing ``logical_sector``."""
        self._check_logical(logical_sector)
        return logical_sector // self.stripe_data_sectors

    def locate(self, logical_sector: int) -> StripeUnit:
        """The stripe unit containing ``logical_sector``."""
        cache = self._locate_cache
        unit = cache.get(logical_sector)
        if unit is not None:
            return unit
        self._check_logical(logical_sector)
        stripe, within = divmod(logical_sector, self.stripe_data_sectors)
        unit_index = within // self.stripe_unit_sectors
        disk = self._data_disks_by_phase[stripe % self._phases][unit_index]
        unit = StripeUnit(stripe, UnitKind.DATA, unit_index, disk, self.unit_lba(stripe, disk))
        if len(cache) >= self._LOCATE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[logical_sector] = unit
        return unit

    def map_extent(self, logical_sector: int, nsectors: int) -> tuple[ExtentRun, ...]:
        """Split a logical extent into per-disk runs (stripe-unit bounded).

        Results are immutable and cached on ``(logical_sector, nsectors)``:
        replayed traces, scrub passes, and sequential access patterns
        re-map the same extents constantly, and the divmod walk plus run
        construction dominated layout time in whole-trace profiles.
        """
        cache = self._extent_cache
        key = (logical_sector, nsectors)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if nsectors < 1:
            raise ValueError(f"nsectors must be >= 1, got {nsectors}")
        self._check_logical(logical_sector)
        if logical_sector + nsectors > self.total_data_sectors:
            raise ValueError("extent extends past end of array")
        stripe_data_sectors = self.stripe_data_sectors
        unit_sectors = self.stripe_unit_sectors
        disks_by_phase = self._data_disks_by_phase
        phases = self._phases
        unit_lba = self.unit_lba
        runs: list[ExtentRun] = []
        position = logical_sector
        remaining = nsectors
        while remaining > 0:
            stripe, within = divmod(position, stripe_data_sectors)
            unit_index, unit_offset = divmod(within, unit_sectors)
            run = unit_sectors - unit_offset
            if run > remaining:
                run = remaining
            disk = disks_by_phase[stripe % phases][unit_index]
            runs.append(
                ExtentRun(
                    stripe, unit_index, disk, unit_lba(stripe, disk) + unit_offset, run, position
                )
            )
            position += run
            remaining -= run
        frozen = tuple(runs)
        if len(cache) >= self._EXTENT_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[key] = frozen
        return frozen

    def stripes_touched(self, logical_sector: int, nsectors: int) -> range:
        """The stripes a logical extent intersects."""
        if nsectors < 1:
            raise ValueError(f"nsectors must be >= 1, got {nsectors}")
        first = self.stripe_of(logical_sector)
        last = self.stripe_of(logical_sector + nsectors - 1)
        return range(first, last + 1)

    def logical_sector_of_unit(self, stripe: int, unit_index: int) -> int:
        """First logical sector stored in data unit ``unit_index`` of ``stripe``."""
        self._check_stripe(stripe)
        return stripe * self.stripe_data_sectors + unit_index * self.stripe_unit_sectors

    def _unit_at(self, stripe: int, disk: int) -> StripeUnit:
        """The data or parity unit of ``stripe`` on member ``disk``."""
        phase = stripe % self._phases
        parity = self._parity_disk_by_phase
        if parity is not None and disk == parity[phase]:
            return self.parity_unit(stripe)
        unit_index = self._data_disks_by_phase[phase].index(disk)
        return StripeUnit(stripe, UnitKind.DATA, unit_index, disk, self.unit_lba(stripe, disk))

    # -- bounds checks ----------------------------------------------------------

    def _check_stripe(self, stripe: int) -> None:
        if not 0 <= stripe < self.nstripes:
            raise ValueError(f"stripe {stripe} out of range [0, {self.nstripes})")

    def _check_logical(self, logical_sector: int) -> None:
        if not 0 <= logical_sector < self.total_data_sectors:
            raise ValueError(
                f"logical sector {logical_sector} out of range [0, {self.total_data_sectors})"
            )

    def _check_disk_lba(self, disk: int, disk_lba: int) -> None:
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= disk_lba < self.disk_sectors_used:
            raise ValueError(f"disk_lba {disk_lba} outside striped region")

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.ndisks} disks, unit={self.stripe_unit_sectors} "
            f"sectors, {self.nstripes} stripes>"
        )
