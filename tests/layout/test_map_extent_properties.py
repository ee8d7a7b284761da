"""Property tests for the extent mapper, over every layout class.

Each example draws the layout class along with its geometry and extent.

The fast-path work leans on ``map_extent`` caching and on the controller
re-deriving per-stripe groupings from its runs, so these pin the mapper's
contract over the whole parameter space rather than a few worked examples:
runs tile the logical extent exactly, never overlap on disk, and agree
with the inverse map ``logical_of`` wherever the class has one.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import (
    DeclusteredRaid5Layout,
    Raid0Layout,
    Raid1Layout,
    Raid5Layout,
    Raid6Layout,
    Raid10Layout,
    Raid15Layout,
)
from repro.layout.base import UnitKind

#: Disk counts each class accepts (the declustered layout draws its own).
DISK_COUNTS = {
    Raid5Layout: range(3, 9),
    Raid1Layout: (2,),
    Raid10Layout: (4, 6, 8),
    Raid15Layout: (6, 8, 10),
    Raid0Layout: range(2, 9),
    Raid6Layout: range(4, 9),
}
LAYOUTS = [*DISK_COUNTS, DeclusteredRaid5Layout]
#: The classes with an inverse map.
INVERTIBLE = [cls for cls in LAYOUTS if hasattr(cls, "logical_of")]


@st.composite
def layout_and_extent(draw, classes=LAYOUTS):
    cls = draw(st.sampled_from(classes))
    unit = draw(st.integers(min_value=1, max_value=64))
    slack = draw(st.integers(min_value=0, max_value=unit - 1))
    if cls is DeclusteredRaid5Layout:
        ndisks = draw(st.integers(min_value=4, max_value=7))
        width = draw(st.integers(min_value=3, max_value=ndisks - 1))
        periods = draw(st.integers(min_value=1, max_value=3))
        units = periods * math.comb(ndisks - 1, width - 1)
        layout = cls(ndisks, unit, units * unit + slack, stripe_width=width)
    else:
        ndisks = draw(st.sampled_from(DISK_COUNTS[cls]))
        nstripes = draw(st.integers(min_value=1, max_value=40))
        layout = cls(ndisks, unit, nstripes * unit + slack)
    total = layout.total_data_sectors
    start = draw(st.integers(min_value=0, max_value=total - 1))
    nsectors = draw(st.integers(min_value=1, max_value=total - start))
    return layout, start, nsectors


@settings(max_examples=700, deadline=None)
@given(layout_and_extent())
def test_runs_tile_the_extent_exactly(case):
    layout, start, nsectors = case
    runs = layout.map_extent(start, nsectors)
    assert sum(run.nsectors for run in runs) == nsectors
    position = start
    for run in runs:
        assert run.logical_sector == position
        assert run.nsectors >= 1
        # A run never crosses a stripe-unit boundary.
        offset_in_unit = run.disk_lba - layout.unit_lba(run.stripe, run.disk)
        assert 0 <= offset_in_unit
        assert offset_in_unit + run.nsectors <= layout.stripe_unit_sectors
        position += run.nsectors
    assert position == start + nsectors


@settings(max_examples=700, deadline=None)
@given(layout_and_extent())
def test_runs_are_disjoint_on_disk(case):
    layout, start, nsectors = case
    runs = layout.map_extent(start, nsectors)
    extents = sorted((run.disk, run.disk_lba, run.disk_lba + run.nsectors) for run in runs)
    for (disk_a, _lo_a, hi_a), (disk_b, lo_b, _hi_b) in zip(extents, extents[1:]):
        assert disk_a != disk_b or hi_a <= lo_b


@settings(max_examples=700, deadline=None)
@given(layout_and_extent(INVERTIBLE))
def test_runs_round_trip_through_logical_of(case):
    layout, start, nsectors = case
    for run in layout.map_extent(start, nsectors):
        unit = layout.logical_of(run.disk, run.disk_lba)
        assert unit.kind is UnitKind.DATA
        assert unit.stripe == run.stripe
        assert unit.unit_index == run.unit_index
        assert unit.disk == run.disk
        offset_in_unit = run.disk_lba - unit.disk_lba
        logical = layout.logical_sector_of_unit(run.stripe, run.unit_index) + offset_in_unit
        assert logical == run.logical_sector
        # And sector-level agreement with the forward map.
        assert layout.locate(run.logical_sector).disk == run.disk
