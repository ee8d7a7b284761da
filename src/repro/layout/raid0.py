"""Plain striping (RAID 0), no redundancy.

Provided for completeness and for capacity/addressing comparisons.  Note
that the paper's RAID 0 *performance* datapoint is an AFRAID that never
scrubs (so all three models share one code path); this class is the true
RAID 0 layout where every unit holds data.
"""

from __future__ import annotations

from repro.layout.base import StripedLayout, check_layout_args


class Raid0Layout(StripedLayout):
    """Maps array-logical sectors across ``ndisks`` with no parity."""

    def __init__(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        check_layout_args(ndisks, stripe_unit_sectors, disk_sectors, min_disks=2)
        super().__init__(ndisks, stripe_unit_sectors, disk_sectors, (tuple(range(ndisks)),))
