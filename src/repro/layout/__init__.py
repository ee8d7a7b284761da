"""Data layouts: how array-logical addresses map onto member disks.

The paper uses a left-symmetric RAID 5 layout (§2, last paragraph) with an
8 KB stripe unit.  :class:`~repro.layout.raid5.Raid5Layout` implements it;
:class:`~repro.layout.raid0.Raid0Layout` is plain striping (provided for
completeness — the paper's RAID 0 datapoint is actually an AFRAID that
never scrubs, which reuses the RAID 5 layout); and
:class:`~repro.layout.raid6.Raid6Layout` is the P+Q extension discussed in
§5 of the paper.

Beyond the paper's organization, :mod:`repro.layout.mirror` adds RAID 1,
RAID 1/0, and hybrid RAID 1+5 (each with a deferred-copy AFRAID variant),
and :mod:`repro.layout.declustered` adds parity-declustered RAID 5.  The
:class:`~repro.layout.organization.ArrayOrganization` registry declares
them all for the controller, factory, availability models, and CLI.

Every layout is a :class:`~repro.layout.base.StripedLayout`, which holds
the one mapping algorithm (extent walk, unit lookups, caches, pickling
and bounds checks); each class states only where its units live — its
per-phase data-disk and parity rows, and ``unit_lba`` where a unit does
not start at ``stripe * stripe_unit_sectors`` — plus its own extras.
"""

from repro.layout.base import ExtentRun, StripeUnit, UnitKind
from repro.layout.declustered import DeclusteredRaid5Layout
from repro.layout.mirror import Raid1Layout, Raid10Layout, Raid15Layout
from repro.layout.organization import (
    DEFAULT_ORGANIZATION,
    ORGANIZATIONS,
    ArrayOrganization,
    get_organization,
)
from repro.layout.raid0 import Raid0Layout
from repro.layout.raid5 import Raid5Layout
from repro.layout.raid6 import Raid6Layout

__all__ = [
    "DEFAULT_ORGANIZATION",
    "ORGANIZATIONS",
    "ArrayOrganization",
    "DeclusteredRaid5Layout",
    "ExtentRun",
    "Raid0Layout",
    "Raid1Layout",
    "Raid10Layout",
    "Raid15Layout",
    "Raid5Layout",
    "Raid6Layout",
    "StripeUnit",
    "UnitKind",
    "get_organization",
]
