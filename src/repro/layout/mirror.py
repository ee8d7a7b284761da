"""Mirrored layouts: RAID 1, RAID 1/0, and hybrid RAID 1+5.

RAID 1/0 stripes data units across mirrored pairs of disks: pair ``i``
is disks ``(2i, 2i+1)``, the even disk is the *primary* copy and the odd
disk the *mirror*.  Data unit ``u`` of every stripe lives on pair ``u``:

    pair:      0         1         2
    disk:    0    1    2    3    4    5
    stripe0  D0   D0'  D1   D1'  D2   D2'
    stripe1  D0   D0'  D1   D1'  D2   D2'

RAID 1 is the two-disk special case (one pair, no striping).

RAID 1+5 layers left-symmetric RAID 5 parity rotation *over the pairs*:
each stripe has ``npairs - 1`` data units plus one parity unit, and every
unit (data and parity alike) is mirrored within its pair.  With 3 pairs:

    pair:      0         1         2
    stripe 0  D0   D0'  D1   D1'  P    P'
    stripe 1  D1   D1'  P    P'   D0   D0'
    stripe 2  P    P'   D0   D0'  D1   D1'

The AFRAID deferral analogue for mirrors writes only the primary copy in
the fast path and marks the stripe in NVRAM; the scrubber copies primary
to mirror during idle, exactly as deferred parity is scrubbed in.  For
RAID 1+5 both copies of the data are written inline (dirty stripes stay
mirror-protected) and only the parity update is deferred.
"""

from __future__ import annotations


from repro.layout.base import ExtentRun, StripeUnit, UnitKind, check_layout_args


class Raid10Layout:
    """Striped mirror pairs: data unit ``u`` on disk ``2u``, copy on ``2u+1``.

    Parameters
    ----------
    ndisks:
        Total member disks; must be even and >= 2.
    stripe_unit_sectors:
        Stripe unit ("depth") in sectors.
    disk_sectors:
        Usable sectors per member disk.
    """

    _EXTENT_CACHE_MAX = 8192
    _LOCATE_CACHE_MAX = 8192
    _STRIPE_CACHE_MAX = 4096

    #: Organization traits consumed by the controller and rebuild paths.
    mirrored = True
    has_parity = False

    _MIN_DISKS = 4

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        check_layout_args(ndisks, stripe_unit_sectors, disk_sectors, min_disks=self._MIN_DISKS)
        if ndisks % 2:
            raise ValueError(f"mirrored layouts need an even disk count, got {ndisks}")
        self.ndisks = ndisks
        self.npairs = ndisks // 2
        self.stripe_unit_sectors = stripe_unit_sectors
        self.disk_sectors = disk_sectors
        self.data_units_per_stripe = self.npairs
        self.stripe_data_sectors = self.data_units_per_stripe * stripe_unit_sectors
        self.nstripes = disk_sectors // stripe_unit_sectors
        self.total_data_sectors = self.nstripes * self.stripe_data_sectors
        self._extent_cache: dict[tuple[int, int], tuple[ExtentRun, ...]] = {}
        self._locate_cache: dict[int, StripeUnit] = {}
        self._units_cache: dict[int, tuple[StripeUnit, ...]] = {}

    # -- pickling ---------------------------------------------------------------

    _TRANSIENT = ("_extent_cache", "_locate_cache", "_units_cache")

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in self._TRANSIENT:
            state.pop(key, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._extent_cache = {}
        self._locate_cache = {}
        self._units_cache = {}

    # -- mirror structure -------------------------------------------------------

    @property
    def disk_sectors_used(self) -> int:
        """Sectors of each member the striped region occupies (one unit per stripe)."""
        return self.nstripes * self.stripe_unit_sectors

    @staticmethod
    def mirror_disk(disk: int) -> int:
        """The other member of ``disk``'s mirror pair."""
        return disk ^ 1

    @staticmethod
    def pair_of(disk: int) -> int:
        """The mirror-pair index holding ``disk``."""
        return disk // 2

    def data_disk(self, stripe: int, unit_index: int) -> int:
        """Primary disk holding data unit ``unit_index`` of ``stripe``."""
        if not 0 <= unit_index < self.data_units_per_stripe:
            raise ValueError(f"unit_index {unit_index} out of range")
        self._check_stripe(stripe)
        return 2 * unit_index

    def data_units(self, stripe: int) -> tuple[StripeUnit, ...]:
        """All primary data units of ``stripe``, in logical order."""
        cache = self._units_cache
        units = cache.get(stripe)
        if units is not None:
            return units
        self._check_stripe(stripe)
        disk_lba = stripe * self.stripe_unit_sectors
        units = tuple(
            StripeUnit(
                stripe=stripe,
                kind=UnitKind.DATA,
                unit_index=index,
                disk=2 * index,
                disk_lba=disk_lba,
            )
            for index in range(self.data_units_per_stripe)
        )
        if len(cache) >= self._STRIPE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[stripe] = units
        return units

    def mirror_unit(self, stripe: int, unit_index: int) -> StripeUnit:
        """The secondary copy of data unit ``unit_index`` of ``stripe``."""
        self._check_stripe(stripe)
        if not 0 <= unit_index < self.data_units_per_stripe:
            raise ValueError(f"unit_index {unit_index} out of range")
        return StripeUnit(
            stripe=stripe,
            kind=UnitKind.MIRROR,
            unit_index=unit_index,
            disk=2 * unit_index + 1,
            disk_lba=stripe * self.stripe_unit_sectors,
        )

    # -- logical address mapping ------------------------------------------------

    def stripe_of(self, logical_sector: int) -> int:
        """The stripe containing ``logical_sector``."""
        self._check_logical(logical_sector)
        return logical_sector // self.stripe_data_sectors

    def locate(self, logical_sector: int) -> StripeUnit:
        """The primary stripe unit containing ``logical_sector``."""
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
            disk=2 * unit_index,
            disk_lba=stripe * self.stripe_unit_sectors,
        )
        if len(cache) >= self._LOCATE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[logical_sector] = unit
        return unit

    def map_extent(self, logical_sector: int, nsectors: int) -> tuple[ExtentRun, ...]:
        """Split a logical extent into primary-copy per-disk runs."""
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
                    disk=2 * unit_index,
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
        """Inverse map: what does sector ``disk_lba`` of ``disk`` hold?"""
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= disk_lba < self.nstripes * self.stripe_unit_sectors:
            raise ValueError(f"disk_lba {disk_lba} outside striped region")
        stripe = disk_lba // self.stripe_unit_sectors
        unit_index = disk // 2
        return StripeUnit(
            stripe=stripe,
            kind=UnitKind.DATA if disk % 2 == 0 else UnitKind.MIRROR,
            unit_index=unit_index,
            disk=disk,
            disk_lba=stripe * self.stripe_unit_sectors,
        )

    def logical_sector_of_unit(self, stripe: int, unit_index: int) -> int:
        """First logical sector stored in data unit ``unit_index`` of ``stripe``."""
        self._check_stripe(stripe)
        return stripe * self.stripe_data_sectors + unit_index * self.stripe_unit_sectors

    # -- helpers ----------------------------------------------------------------

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
            f"<{type(self).__name__} {self.ndisks} disks ({self.npairs} pairs), "
            f"unit={self.stripe_unit_sectors} sectors, {self.nstripes} stripes>"
        )


class Raid1Layout(Raid10Layout):
    """Basic mirroring: exactly one pair, no striping across pairs."""

    _MIN_DISKS = 2

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        if ndisks != 2:
            raise ValueError(f"RAID 1 needs exactly 2 disks, got {ndisks}")
        super().__init__(ndisks, stripe_unit_sectors, disk_sectors)


class Raid15Layout(Raid10Layout):
    """Hybrid RAID 1+5: left-symmetric parity rotation over mirrored pairs.

    Each stripe holds ``npairs - 1`` data units and one parity unit; every
    unit's primary copy is on the even disk of its pair and mirrored on
    the odd disk.  Parity rotates across pairs exactly as RAID 5 rotates
    it across disks, so the stripe phase is ``stripe % npairs``.
    """

    has_parity = True

    _MIN_DISKS = 6

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        super().__init__(ndisks, stripe_unit_sectors, disk_sectors)
        self.data_units_per_stripe = self.npairs - 1
        self.stripe_data_sectors = self.data_units_per_stripe * stripe_unit_sectors
        self.total_data_sectors = self.nstripes * self.stripe_data_sectors
        self._parity_pair_by_phase = tuple(
            self.npairs - 1 - phase for phase in range(self.npairs)
        )
        self._data_pairs_by_phase = tuple(
            tuple((parity + 1 + index) % self.npairs for index in range(self.data_units_per_stripe))
            for parity in self._parity_pair_by_phase
        )
        self._parity_cache: dict[int, StripeUnit] = {}

    _TRANSIENT = ("_extent_cache", "_locate_cache", "_units_cache", "_parity_cache")

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        self._parity_cache = {}

    # -- per-stripe structure ---------------------------------------------------

    def parity_pair(self, stripe: int) -> int:
        """Mirror pair holding the parity unit of ``stripe``."""
        self._check_stripe(stripe)
        return self._parity_pair_by_phase[stripe % self.npairs]

    def parity_disk(self, stripe: int) -> int:
        """Primary disk holding the parity unit of ``stripe``."""
        return 2 * self.parity_pair(stripe)

    def parity_unit(self, stripe: int) -> StripeUnit:
        """Placement of the (primary) parity unit of ``stripe``."""
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
        if not 0 <= unit_index < self.data_units_per_stripe:
            raise ValueError(f"unit_index {unit_index} out of range")
        self._check_stripe(stripe)
        return 2 * self._data_pairs_by_phase[stripe % self.npairs][unit_index]

    def data_units(self, stripe: int) -> tuple[StripeUnit, ...]:
        cache = self._units_cache
        units = cache.get(stripe)
        if units is not None:
            return units
        self._check_stripe(stripe)
        pairs = self._data_pairs_by_phase[stripe % self.npairs]
        disk_lba = stripe * self.stripe_unit_sectors
        units = tuple(
            StripeUnit(
                stripe=stripe,
                kind=UnitKind.DATA,
                unit_index=index,
                disk=2 * pairs[index],
                disk_lba=disk_lba,
            )
            for index in range(self.data_units_per_stripe)
        )
        if len(cache) >= self._STRIPE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[stripe] = units
        return units

    def mirror_unit(self, stripe: int, unit_index: int) -> StripeUnit:
        self._check_stripe(stripe)
        if not 0 <= unit_index < self.data_units_per_stripe:
            raise ValueError(f"unit_index {unit_index} out of range")
        pair = self._data_pairs_by_phase[stripe % self.npairs][unit_index]
        return StripeUnit(
            stripe=stripe,
            kind=UnitKind.MIRROR,
            unit_index=unit_index,
            disk=2 * pair + 1,
            disk_lba=stripe * self.stripe_unit_sectors,
        )

    # -- logical address mapping ------------------------------------------------

    def locate(self, logical_sector: int) -> StripeUnit:
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
            disk=2 * self._data_pairs_by_phase[stripe % self.npairs][unit_index],
            disk_lba=stripe * self.stripe_unit_sectors,
        )
        if len(cache) >= self._LOCATE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[logical_sector] = unit
        return unit

    def map_extent(self, logical_sector: int, nsectors: int) -> tuple[ExtentRun, ...]:
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
        pairs_by_phase = self._data_pairs_by_phase
        npairs = self.npairs
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
                    disk=2 * pairs_by_phase[stripe % npairs][unit_index],
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

    def logical_of(self, disk: int, disk_lba: int) -> StripeUnit:
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= disk_lba < self.nstripes * self.stripe_unit_sectors:
            raise ValueError(f"disk_lba {disk_lba} outside striped region")
        stripe = disk_lba // self.stripe_unit_sectors
        pair = disk // 2
        parity = self._parity_pair_by_phase[stripe % self.npairs]
        if pair == parity:
            if disk % 2 == 0:
                return self.parity_unit(stripe)
            return StripeUnit(
                stripe=stripe,
                kind=UnitKind.MIRROR,
                unit_index=0,
                disk=disk,
                disk_lba=stripe * self.stripe_unit_sectors,
            )
        unit_index = (pair - parity - 1) % self.npairs
        return StripeUnit(
            stripe=stripe,
            kind=UnitKind.DATA if disk % 2 == 0 else UnitKind.MIRROR,
            unit_index=unit_index,
            disk=disk,
            disk_lba=stripe * self.stripe_unit_sectors,
        )
