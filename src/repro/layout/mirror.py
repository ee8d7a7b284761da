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

from repro.layout.base import (
    StripeUnit,
    StripedLayout,
    UnitKind,
    check_layout_args,
    rotated_rows,
)


class Raid10Layout(StripedLayout):
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

    #: Organization traits consumed by the controller and rebuild paths.
    mirrored = True
    has_parity = False

    _MIN_DISKS = 4

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        check_layout_args(ndisks, stripe_unit_sectors, disk_sectors, min_disks=self._MIN_DISKS)
        if ndisks % 2:
            raise ValueError(f"mirrored layouts need an even disk count, got {ndisks}")
        self.npairs = ndisks // 2
        data, parity = self._pair_rows(self.npairs)
        # Every unit's primary copy is on the even disk of its pair.
        super().__init__(
            ndisks,
            stripe_unit_sectors,
            disk_sectors,
            tuple(tuple(2 * pair for pair in row) for row in data),
            None if parity is None else tuple(2 * pair for pair in parity),
        )

    @staticmethod
    def _pair_rows(npairs: int):
        """(data pairs by phase, parity pair by phase): one pair per data unit."""
        return (tuple(range(npairs)),), None

    # -- mirror structure -------------------------------------------------------

    @staticmethod
    def mirror_disk(disk: int) -> int:
        """The other member of ``disk``'s mirror pair."""
        return disk ^ 1

    @staticmethod
    def pair_of(disk: int) -> int:
        """The mirror-pair index holding ``disk``."""
        return disk // 2

    def mirror_unit(self, stripe: int, unit_index: int) -> StripeUnit:
        """The secondary copy of data unit ``unit_index`` of ``stripe``."""
        self._check_stripe(stripe)
        primary = self.data_disk(stripe, unit_index)
        return StripeUnit(
            stripe, UnitKind.MIRROR, unit_index, primary + 1, self.unit_lba(stripe, primary)
        )

    def logical_of(self, disk: int, disk_lba: int) -> StripeUnit:
        """Inverse map: what does sector ``disk_lba`` of ``disk`` hold?"""
        self._check_disk_lba(disk, disk_lba)
        stripe = disk_lba // self.stripe_unit_sectors
        primary = self._unit_at(stripe, 2 * self.pair_of(disk))
        if disk == primary.disk:
            return primary
        return StripeUnit(stripe, UnitKind.MIRROR, primary.unit_index, disk, primary.disk_lba)


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

    @staticmethod
    def _pair_rows(npairs: int):
        return rotated_rows(npairs, npairs - 1)

    def parity_pair(self, stripe: int) -> int:
        """Mirror pair holding the parity unit of ``stripe``."""
        return self.pair_of(self.parity_disk(stripe))
