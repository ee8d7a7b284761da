"""Declarative array organizations.

An :class:`ArrayOrganization` bundles everything the rest of the stack
needs to know about a redundancy scheme — geometry constraints, which
layout class realises it, whether units are mirrored, whether a parity
unit exists, and what set of concurrent disk failures loses data — so
the controller, factory, rebuild manager, availability models, harness,
and CLI all branch on one declared object instead of assuming RAID 5.

The registry covers the organizations of the paper plus the mirrored and
hybrid schemes of Thomasian's surveys:

``raid5``
    Left-symmetric rotated parity (the paper's array; the default).
``raid5d``
    Parity-declustered RAID 5 over a complete block design; rebuild
    load spreads over all survivors.
``raid1``
    One mirrored pair.
``raid10``
    Striping over mirrored pairs.
``raid15``
    Hybrid RAID 1+5: RAID 5 parity rotation over mirrored pairs.

The AFRAID deferral applies to each: deferred parity for the parity
organizations, deferred mirror copy for the mirrored ones, and deferred
parity with inline mirror copies for the hybrid.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.layout.declustered import DeclusteredRaid5Layout
from repro.layout.mirror import Raid1Layout, Raid10Layout, Raid15Layout
from repro.layout.raid5 import Raid5Layout


#: The most member disks any organization is built over.
MAX_DISKS = 64


@dataclasses.dataclass(frozen=True)
class ArrayOrganization:
    """One redundancy scheme, declared once and consumed everywhere."""

    name: str
    #: Human-readable name used in error messages ("RAID 5", "RAID 1/0"...).
    display: str
    min_disks: int
    #: Disk count must be a multiple of this (2 for pair-mirrored schemes).
    disks_multiple_of: int
    #: Exact disk count when the scheme fixes it (RAID 1), else None.
    exact_disks: int | None
    mirrored: bool
    has_parity: bool
    declustered: bool
    #: Disk count a run uses when none is given: the paper's 5 for the
    #: RAID 5 family, each mirrored scheme's smallest sensible array.
    default_disks: int
    #: Layout class; called as ``(ndisks, stripe_unit_sectors, disk_sectors)``.
    layout_factory: typing.Callable = dataclasses.field(compare=False)

    def validate(self, ndisks: int) -> None:
        """Reject disk counts the organization cannot be built over.

        Past :data:`MAX_DISKS` a layout's per-phase tables stop being small
        metadata (RAID 5's grow with the square of the width, declustered
        RAID 5's with its cube), so larger arrays are refused up front.
        """
        if ndisks > MAX_DISKS:
            raise ValueError(f"need <= {MAX_DISKS} disks for {self.display}, got {ndisks}")
        if self.exact_disks is not None and ndisks != self.exact_disks:
            raise ValueError(
                f"need exactly {self.exact_disks} disks for {self.display}, got {ndisks}"
            )
        if ndisks < self.min_disks:
            raise ValueError(f"need >= {self.min_disks} disks for {self.display}, got {ndisks}")
        if ndisks % self.disks_multiple_of:
            raise ValueError(
                f"need a multiple of {self.disks_multiple_of} disks for "
                f"{self.display}, got {ndisks}"
            )

    def __reduce__(self):
        # A registry entry pickles by name: a stored checkpoint holds no
        # copy of the entry's fields, and unpickles to the registry's own.
        return get_organization, (self.name,)

    def build_layout(self, ndisks: int, stripe_unit_sectors: int, disk_sectors: int):
        """Construct the layout realising this organization."""
        self.validate(ndisks)
        return self.layout_factory(ndisks, stripe_unit_sectors, disk_sectors)

    # -- failure semantics ------------------------------------------------------

    def loses_data(self, failed_disks: typing.Iterable[int]) -> bool:
        """Whether the concurrent failure of ``failed_disks`` loses data.

        This is the *catastrophic* criterion (all redundancy of some
        stripe gone); deferred-update exposure on top of it is accounted
        separately by the availability models.
        """
        failed = set(failed_disks)
        if not self.mirrored:
            # Single parity (or none): any second concurrent failure is fatal.
            return len(failed) >= 2 if self.has_parity else len(failed) >= 1
        dead_pairs = sum(
            1 for disk in failed if disk % 2 == 0 and disk + 1 in failed
        )
        if self.has_parity:
            # RAID 1+5 reconstructs one fully-dead pair through parity.
            return dead_pairs >= 2
        return dead_pairs >= 1

    def can_absorb(self, failed_disks: typing.Iterable[int]) -> bool:
        """Whether the array still serves all data with ``failed_disks`` down."""
        return not self.loses_data(failed_disks)


ORGANIZATIONS: dict[str, ArrayOrganization] = {
    org.name: org
    for org in (
        ArrayOrganization(
            name="raid5",
            display="RAID 5",
            min_disks=3,
            disks_multiple_of=1,
            exact_disks=None,
            mirrored=False,
            has_parity=True,
            declustered=False,
            default_disks=5,
            layout_factory=Raid5Layout,
        ),
        ArrayOrganization(
            name="raid5d",
            display="declustered RAID 5",
            min_disks=4,
            disks_multiple_of=1,
            exact_disks=None,
            mirrored=False,
            has_parity=True,
            declustered=True,
            default_disks=5,
            layout_factory=DeclusteredRaid5Layout,
        ),
        ArrayOrganization(
            name="raid1",
            display="RAID 1",
            min_disks=2,
            disks_multiple_of=2,
            exact_disks=2,
            mirrored=True,
            has_parity=False,
            declustered=False,
            default_disks=2,
            layout_factory=Raid1Layout,
        ),
        ArrayOrganization(
            name="raid10",
            display="RAID 1/0",
            min_disks=4,
            disks_multiple_of=2,
            exact_disks=None,
            mirrored=True,
            has_parity=False,
            declustered=False,
            default_disks=6,
            layout_factory=Raid10Layout,
        ),
        ArrayOrganization(
            name="raid15",
            display="RAID 1+5",
            min_disks=6,
            disks_multiple_of=2,
            exact_disks=None,
            mirrored=True,
            has_parity=True,
            declustered=False,
            default_disks=6,
            layout_factory=Raid15Layout,
        ),
    )
}

#: The organization every existing entry point assumed before the
#: abstraction existed; all defaults resolve to it.
DEFAULT_ORGANIZATION = "raid5"


def get_organization(name: "str | ArrayOrganization") -> ArrayOrganization:
    """Resolve an organization by name (idempotent on instances)."""
    if isinstance(name, ArrayOrganization):
        return name
    org = ORGANIZATIONS.get(name) if isinstance(name, str) else None
    if org is None:
        known = ", ".join(sorted(ORGANIZATIONS))
        raise ValueError(f"unknown organization {name!r} (known: {known})")
    return org
