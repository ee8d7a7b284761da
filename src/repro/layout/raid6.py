"""Rotating P+Q (RAID 6) layout — substrate for the paper's §5 extension.

The paper suggests combining AFRAID with RAID 6: defer one or both parity
updates, giving partial redundancy immediately and full redundancy after
the background rebuild.  This layout places two parity units per stripe
(P and Q on adjacent disks, rotating left each stripe) and N−2 data units.
"""

from __future__ import annotations

from repro.layout.base import StripeUnit, StripedLayout, UnitKind, check_layout_args, rotated_rows


class Raid6Layout(StripedLayout):
    """Maps array-logical sectors with two rotating parity units.

    P rotates left one disk per stripe exactly as in RAID 5, Q sits just
    left of P, and the data units fill the other disks starting just
    right of P.
    """

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        check_layout_args(ndisks, stripe_unit_sectors, disk_sectors, min_disks=4)
        data, parity = rotated_rows(ndisks, ndisks - 2)
        super().__init__(ndisks, stripe_unit_sectors, disk_sectors, data, parity)

    def parity_q_disk(self, stripe: int) -> int:
        """Disk holding the Q unit of ``stripe`` (immediately left of P)."""
        return (self.parity_disk(stripe) - 1) % self.ndisks

    def parity_q_unit(self, stripe: int) -> StripeUnit:
        """Placement of the Q unit of ``stripe``."""
        disk = self.parity_q_disk(stripe)
        return StripeUnit(stripe, UnitKind.PARITY_Q, 0, disk, self.unit_lba(stripe, disk))
