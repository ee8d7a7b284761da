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

from repro.layout.base import StripeUnit, StripedLayout, check_layout_args, rotated_rows


class Raid5Layout(StripedLayout):
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

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        check_layout_args(ndisks, stripe_unit_sectors, disk_sectors, min_disks=3)
        # The rotation is periodic in ``stripe % ndisks``.
        data, parity = rotated_rows(ndisks, ndisks - 1)
        super().__init__(ndisks, stripe_unit_sectors, disk_sectors, data, parity)

    def logical_of(self, disk: int, disk_lba: int) -> StripeUnit:
        """Inverse map: what does sector ``disk_lba`` of ``disk`` hold?

        Returns the :class:`StripeUnit` the sector belongs to (its
        ``unit_index`` is 0 for parity).  Use the unit's kind to tell
        whether the sector is data or parity.
        """
        self._check_disk_lba(disk, disk_lba)
        return self._unit_at(disk_lba // self.stripe_unit_sectors, disk)
