"""Parity-declustered RAID 5 via a complete block design.

A declustered layout spreads each stripe over only ``k`` of the ``n``
member disks, cycling through every ``k``-subset of the disks (the
*complete block design* of Holland & Gibson).  With ``P = C(n, k)``
stripes per period, each disk appears in ``r = C(n-1, k-1)`` of them, so
after a disk failure a rebuild reads only the fraction ``r / P = k / n``
of every surviving disk — rebuild load declusters across the whole
array instead of hammering the ``k - 1`` survivors of one stripe group.

Stripe ``s`` uses the ``(s % P)``-th ``k``-subset in lexicographic
order; parity rotates within the subset (``s % k``) so no member
becomes a parity hotspot.  Unlike :class:`~repro.layout.raid5.Raid5Layout`,
per-disk LBAs of one stripe differ: each disk packs only the stripes it
participates in, so the unit slot on a disk is its *ordinal* appearance
within the period, not the stripe number.
"""

from __future__ import annotations

import itertools
import math

from repro.layout.base import StripeUnit, StripedLayout, check_layout_args

#: Upper bound on stripes per period (``C(n, k)``); beyond this the
#: per-period tables stop being "small metadata".
_MAX_PERIOD = 65536


class DeclusteredRaid5Layout(StripedLayout):
    """Maps array-logical sectors with parity declustered over ``k``-of-``n`` disks.

    Parameters
    ----------
    ndisks:
        Total member disks ``n``; must be >= 4.
    stripe_unit_sectors:
        Stripe unit ("depth") in sectors.
    disk_sectors:
        Usable sectors per member disk.
    stripe_width:
        Units per stripe ``k`` (data + parity), ``3 <= k < ndisks``.
        Defaults to ``ndisks - 1``, the gentlest declustering.
    """

    mirrored = False
    has_parity = True

    def __init__(
        self,
        ndisks: int,
        stripe_unit_sectors: int,
        disk_sectors: int,
        stripe_width: int | None = None,
    ) -> None:
        check_layout_args(ndisks, stripe_unit_sectors, disk_sectors, min_disks=4)
        k = ndisks - 1 if stripe_width is None else stripe_width
        if not 3 <= k < ndisks:
            raise ValueError(
                f"stripe width must satisfy 3 <= k < ndisks, got k={k} for {ndisks} disks"
            )
        period = math.comb(ndisks, k)
        if period > _MAX_PERIOD:
            raise ValueError(
                f"block design period C({ndisks}, {k}) = {period} exceeds {_MAX_PERIOD}"
            )
        self.stripe_width = k
        #: Stripes per block-design period and per-disk units per period.
        self.period = period
        self.units_per_disk_per_period = math.comb(ndisks - 1, k - 1)
        disk_units = disk_sectors // stripe_unit_sectors
        nstripes = (disk_units // self.units_per_disk_per_period) * period
        if nstripes == 0:
            raise ValueError(
                f"disk too small for one block-design period: need "
                f"{self.units_per_disk_per_period} units/disk, have {disk_units}"
            )
        # One lexicographic k-subset per period stripe, plus each disk's
        # ordinal appearance within the period (its unit slot) and the
        # inverse map (disk, ordinal) -> period stripe for logical_of.
        self._members_by_period_stripe = tuple(
            itertools.combinations(range(ndisks), k)
        )
        ordinals: list[dict[int, int]] = []
        seen = [0] * ndisks
        stripes_by_disk: list[list[int]] = [[] for _ in range(ndisks)]
        for index, members in enumerate(self._members_by_period_stripe):
            table = {}
            for disk in members:
                table[disk] = seen[disk]
                seen[disk] += 1
                stripes_by_disk[disk].append(index)
            ordinals.append(table)
        self._ordinal_by_period_stripe = tuple(ordinals)
        self._period_stripes_by_disk = tuple(tuple(rows) for rows in stripes_by_disk)
        # The placement repeats every lcm(period, k) stripes: stripe s
        # uses the (s % period)-th subset with parity at its (s % k)-th
        # member, and data units follow the parity, wrapping.
        data, parity = [], []
        for phase in range(math.lcm(period, k)):
            members = self._members_by_period_stripe[phase % period]
            position = phase % k
            parity.append(members[position])
            data.append(tuple(members[(position + 1 + index) % k] for index in range(k - 1)))
        super().__init__(
            ndisks, stripe_unit_sectors, disk_sectors, tuple(data), tuple(parity), nstripes
        )

    def stripe_members(self, stripe: int) -> tuple[int, ...]:
        """The disks participating in ``stripe``, ascending."""
        self._check_stripe(stripe)
        return self._members_by_period_stripe[stripe % self.period]

    def unit_lba(self, stripe: int, disk: int) -> int:
        """First sector of ``stripe``'s unit on member ``disk``: each disk
        packs only the stripes it participates in."""
        self._check_stripe(stripe)
        period_stripe = stripe % self.period
        ordinal = self._ordinal_by_period_stripe[period_stripe].get(disk)
        if ordinal is None:
            raise ValueError(f"disk {disk} not a member of stripe {stripe}")
        slot = (stripe // self.period) * self.units_per_disk_per_period + ordinal
        return slot * self.stripe_unit_sectors

    def logical_of(self, disk: int, disk_lba: int) -> StripeUnit:
        """Inverse map: what does sector ``disk_lba`` of ``disk`` hold?"""
        self._check_disk_lba(disk, disk_lba)
        repetition, ordinal = divmod(
            disk_lba // self.stripe_unit_sectors, self.units_per_disk_per_period
        )
        stripe = repetition * self.period + self._period_stripes_by_disk[disk][ordinal]
        return self._unit_at(stripe, disk)
