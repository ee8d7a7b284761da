"""Left-symmetric RAID 5 layout.

In the left-symmetric organisation the parity unit rotates one disk to the
*left* each stripe, and data units start just right of parity and wrap:

    disk:      0    1    2    3    4
    stripe 0  D0   D1   D2   D3   P
    stripe 1  D1   D2   D3   P    D0
    stripe 2  D2   D3   P    D0   D1
    ...

This places consecutive data units of consecutive stripes on consecutive
disks, so large sequential reads hit all spindles evenly — the reason it is
the canonical RAID 5 layout and the one the paper uses.
"""

from __future__ import annotations


from repro.layout.base import ExtentRun, StripeUnit, UnitKind, check_layout_args


class Raid5Layout:
    """Maps array-logical sectors to (disk, disk_lba) with rotating parity.

    Parameters
    ----------
    ndisks:
        Total member disks, N+1.  The paper's arrays are 5 disks wide.
    stripe_unit_sectors:
        Stripe unit ("depth") in sectors — 16 for the paper's 8 KB units.
    disk_sectors:
        Usable sectors per member disk; one stripe unit per disk per stripe.
    """

    #: Bounds for the per-layout mapping caches.  Extent/locate keys follow
    #: the client address stream (bounded by the trace working set); the
    #: per-stripe caches follow the stripes in flight.  Eviction is FIFO —
    #: the working sets fit comfortably, so hit-promotion would be pure
    #: overhead on the hot path.
    _EXTENT_CACHE_MAX = 8192
    _LOCATE_CACHE_MAX = 8192
    _STRIPE_CACHE_MAX = 4096

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        check_layout_args(ndisks, stripe_unit_sectors, disk_sectors, min_disks=3)
        self.ndisks = ndisks
        self.stripe_unit_sectors = stripe_unit_sectors
        self.disk_sectors = disk_sectors
        self.data_units_per_stripe = ndisks - 1
        self.stripe_data_sectors = self.data_units_per_stripe * stripe_unit_sectors
        self.nstripes = disk_sectors // stripe_unit_sectors
        self.total_data_sectors = self.nstripes * self.stripe_data_sectors
        # The rotation is periodic in ``stripe % ndisks``; tabulating the
        # parity disk and the data-disk tuple per phase turns the per-unit
        # modular arithmetic into one index each.
        self._parity_disk_by_phase = tuple(ndisks - 1 - phase for phase in range(ndisks))
        self._data_disks_by_phase = tuple(
            tuple((parity + 1 + index) % ndisks for index in range(self.data_units_per_stripe))
            for parity in self._parity_disk_by_phase
        )
        self._extent_cache: dict[tuple[int, int], tuple[ExtentRun, ...]] = {}
        self._locate_cache: dict[int, StripeUnit] = {}
        self._parity_cache: dict[int, StripeUnit] = {}
        self._units_cache: dict[int, tuple[StripeUnit, ...]] = {}

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
        self._extent_cache = {}
        self._locate_cache = {}
        self._parity_cache = {}
        self._units_cache = {}

    # -- per-stripe structure ---------------------------------------------------

    @property
    def disk_sectors_used(self) -> int:
        """Sectors of each member the striped region occupies (one unit per stripe)."""
        return self.nstripes * self.stripe_unit_sectors

    def parity_disk(self, stripe: int) -> int:
        """Disk holding the parity unit of ``stripe``."""
        self._check_stripe(stripe)
        return self._parity_disk_by_phase[stripe % self.ndisks]

    def parity_unit(self, stripe: int) -> StripeUnit:
        """Placement of the parity unit of ``stripe``."""
        cache = self._parity_cache
        unit = cache.get(stripe)
        if unit is not None:
            return unit
        unit = StripeUnit(
            stripe=stripe,
            kind=UnitKind.PARITY,
            unit_index=0,
            disk=self.parity_disk(stripe),
            disk_lba=stripe * self.stripe_unit_sectors,
        )
        if len(cache) >= self._STRIPE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[stripe] = unit
        return unit

    def data_disk(self, stripe: int, unit_index: int) -> int:
        """Disk holding data unit ``unit_index`` of ``stripe``."""
        if not 0 <= unit_index < self.data_units_per_stripe:
            raise ValueError(f"unit_index {unit_index} out of range")
        self._check_stripe(stripe)
        return self._data_disks_by_phase[stripe % self.ndisks][unit_index]

    def data_units(self, stripe: int) -> tuple[StripeUnit, ...]:
        """All data units of ``stripe``, in logical order."""
        cache = self._units_cache
        units = cache.get(stripe)
        if units is not None:
            return units
        self._check_stripe(stripe)
        disks = self._data_disks_by_phase[stripe % self.ndisks]
        disk_lba = stripe * self.stripe_unit_sectors
        units = tuple(
            StripeUnit(
                stripe=stripe,
                kind=UnitKind.DATA,
                unit_index=index,
                disk=disks[index],
                disk_lba=disk_lba,
            )
            for index in range(self.data_units_per_stripe)
        )
        if len(cache) >= self._STRIPE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[stripe] = units
        return units

    # -- logical address mapping ---------------------------------------------------

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
        unit = StripeUnit(
            stripe=stripe,
            kind=UnitKind.DATA,
            unit_index=unit_index,
            disk=self._data_disks_by_phase[stripe % self.ndisks][unit_index],
            disk_lba=stripe * self.stripe_unit_sectors,
        )
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
        ndisks = self.ndisks
        runs: list[ExtentRun] = []
        position = logical_sector
        remaining = nsectors
        while remaining > 0:
            stripe, within = divmod(position, stripe_data_sectors)
            unit_index, unit_offset = divmod(within, unit_sectors)
            run = unit_sectors - unit_offset
            if run > remaining:
                run = remaining
            runs.append(
                ExtentRun(
                    stripe=stripe,
                    unit_index=unit_index,
                    disk=disks_by_phase[stripe % ndisks][unit_index],
                    disk_lba=stripe * unit_sectors + unit_offset,
                    nsectors=run,
                    logical_sector=position,
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

    def logical_of(self, disk: int, disk_lba: int) -> StripeUnit:
        """Inverse map: what does sector ``disk_lba`` of ``disk`` hold?

        Returns the :class:`StripeUnit` the sector belongs to (its
        ``unit_index`` is 0 for parity).  Use the unit's kind to tell
        whether the sector is data or parity.
        """
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= disk_lba < self.nstripes * self.stripe_unit_sectors:
            raise ValueError(f"disk_lba {disk_lba} outside striped region")
        stripe = disk_lba // self.stripe_unit_sectors
        parity_disk = self.parity_disk(stripe)
        if disk == parity_disk:
            return self.parity_unit(stripe)
        unit_index = (disk - parity_disk - 1) % self.ndisks
        return StripeUnit(
            stripe=stripe,
            kind=UnitKind.DATA,
            unit_index=unit_index,
            disk=disk,
            disk_lba=stripe * self.stripe_unit_sectors,
        )

    def logical_sector_of_unit(self, stripe: int, unit_index: int) -> int:
        """First logical sector stored in data unit ``unit_index`` of ``stripe``."""
        self._check_stripe(stripe)
        return stripe * self.stripe_data_sectors + unit_index * self.stripe_unit_sectors

    # -- helpers ---------------------------------------------------------------------

    def _check_stripe(self, stripe: int) -> None:
        if not 0 <= stripe < self.nstripes:
            raise ValueError(f"stripe {stripe} out of range [0, {self.nstripes})")

    def _check_logical(self, logical_sector: int) -> None:
        if not 0 <= logical_sector < self.total_data_sectors:
            raise ValueError(
                f"logical sector {logical_sector} out of range [0, {self.total_data_sectors})"
            )

    def __repr__(self) -> str:
        return (
            f"<Raid5Layout {self.ndisks} disks, unit={self.stripe_unit_sectors} sectors, "
            f"{self.nstripes} stripes>"
        )
