"""Golden-equivalence gate for every layout's forward and inverse maps.

Every replay maps extents through the layout layer, so a change there
must keep each class's answers bit-identical.  This fixture pins them for
2–4 geometries of each layout class: for every public method the class
offers, it records the sha256 of the method's results over a grid of
arguments that includes out-of-range values (whose error text is part of
the record), plus the geometry attributes and the constructor's error
text for a few bad argument sets.

The methods are listed per class, not discovered, so a method a class
newly inherits does not change the fixture.  Results are recorded as
plain JSON values, so a list result and a tuple result with the same
elements record the same.

Regenerate (only when *intentionally* changing a layout)::

    PYTHONPATH=src python tests/layout/test_golden_layouts.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.layout import (
    DeclusteredRaid5Layout,
    Raid0Layout,
    Raid1Layout,
    Raid5Layout,
    Raid6Layout,
    Raid10Layout,
    Raid15Layout,
)
from repro.layout.base import ExtentRun, StripeUnit

FIXTURE = pathlib.Path(__file__).with_name("golden_layouts.json")

#: name -> (class, constructor args, constructor keyword args).
GEOMETRIES = {
    "raid5/5x16": (Raid5Layout, (5, 16, 16 * 40 + 3), {}),
    "raid5/3x1": (Raid5Layout, (3, 1, 7), {}),
    "raid5/4x8": (Raid5Layout, (4, 8, 8 * 13), {}),
    "raid5d/5x4": (DeclusteredRaid5Layout, (5, 4, 4 * 4 * 6 + 3), {}),
    "raid5d/6x2k4": (DeclusteredRaid5Layout, (6, 2, 2 * 10 * 3 + 5), {"stripe_width": 4}),
    "raid5d/4x3k3": (DeclusteredRaid5Layout, (4, 3, 3 * 3 * 5), {"stripe_width": 3}),
    "raid5d/7x1k3": (DeclusteredRaid5Layout, (7, 1, 31), {"stripe_width": 3}),
    "raid1/2x8": (Raid1Layout, (2, 8, 8 * 20), {}),
    "raid1/2x1": (Raid1Layout, (2, 1, 5), {}),
    "raid10/4x4": (Raid10Layout, (4, 4, 4 * 12), {}),
    "raid10/6x8": (Raid10Layout, (6, 8, 8 * 9 + 5), {}),
    "raid10/8x1": (Raid10Layout, (8, 1, 17), {}),
    "raid15/6x4": (Raid15Layout, (6, 4, 4 * 14), {}),
    "raid15/8x2": (Raid15Layout, (8, 2, 2 * 11 + 1), {}),
    "raid15/10x1": (Raid15Layout, (10, 1, 23), {}),
    "raid0/2x4": (Raid0Layout, (2, 4, 40), {}),
    "raid0/4x16": (Raid0Layout, (4, 16, 16 * 10 + 7), {}),
    "raid0/3x1": (Raid0Layout, (3, 1, 9), {}),
    "raid6/4x4": (Raid6Layout, (4, 4, 48), {}),
    "raid6/6x2": (Raid6Layout, (6, 2, 2 * 15 + 1), {}),
    "raid6/5x8": (Raid6Layout, (5, 8, 8 * 7), {}),
}

_RAID5_METHODS = (
    "map_extent", "locate", "stripe_of", "stripes_touched", "data_units", "data_disk",
    "parity_disk", "parity_unit", "logical_of", "logical_sector_of_unit",
    "disk_sectors_used",
)
_RAID10_METHODS = (
    "map_extent", "locate", "stripe_of", "stripes_touched", "data_units", "data_disk",
    "mirror_unit", "mirror_disk", "pair_of", "logical_of", "logical_sector_of_unit",
    "disk_sectors_used",
)

#: The public methods each class defined when the fixture was captured.
METHODS = {
    Raid5Layout: _RAID5_METHODS,
    DeclusteredRaid5Layout: (*_RAID5_METHODS, "stripe_members", "unit_lba"),
    Raid1Layout: _RAID10_METHODS,
    Raid10Layout: _RAID10_METHODS,
    Raid15Layout: (*_RAID10_METHODS, "parity_pair", "parity_disk", "parity_unit"),
    Raid0Layout: ("map_extent", "locate", "stripe_of"),
    Raid6Layout: (
        "map_extent", "stripe_of", "stripes_touched", "data_units", "data_disk",
        "parity_disk", "parity_unit", "parity_q_disk", "parity_q_unit",
    ),
}

#: Geometry attributes every class records, and the ones only some define.
ATTRIBUTES = (
    "ndisks", "stripe_unit_sectors", "disk_sectors", "data_units_per_stripe",
    "stripe_data_sectors", "nstripes", "total_data_sectors",
)
_MIRROR_ATTRIBUTES = ("npairs", "mirrored", "has_parity")
EXTRA_ATTRIBUTES = {
    DeclusteredRaid5Layout: (
        "period", "stripe_width", "units_per_disk_per_period", "mirrored", "has_parity",
    ),
    Raid1Layout: _MIRROR_ATTRIBUTES,
    Raid10Layout: _MIRROR_ATTRIBUTES,
    Raid15Layout: _MIRROR_ATTRIBUTES,
}

#: Constructor arguments every class must reject, with its own error text.
BAD_CONSTRUCTORS = {
    Raid5Layout: [(2, 8, 64), (3, 0, 64), (3, -8, 64), (3, 8, 7), (3, 10**9, 3903552)],
    DeclusteredRaid5Layout: [
        (3, 8, 640), (4, 0, 640), (5, 8, 7), (5, 8, 8 * 3),
        (5, 8, 640, 2), (5, 8, 640, 5), (24, 1, 10**6, 12),
    ],
    Raid1Layout: [(3, 8, 64), (4, 8, 64), (2, 0, 64), (2, 8, 7), (1, 8, 64)],
    Raid10Layout: [(2, 8, 64), (5, 8, 64), (4, 0, 64), (4, 8, 7), (3, 8, 64)],
    Raid15Layout: [(4, 8, 64), (7, 8, 64), (6, 0, 64), (6, 8, 7), (5, 8, 64)],
    Raid0Layout: [(1, 8, 64), (2, 0, 64), (2, 8, 7)],
    Raid6Layout: [(3, 8, 64), (4, 0, 64), (4, 8, 7)],
}


def _plain(value):
    """A JSON-able form of a layout result; lists and tuples record alike."""
    if isinstance(value, StripeUnit):
        return ["unit", value.stripe, value.kind.value, value.unit_index, value.disk,
                value.disk_lba]
    if isinstance(value, ExtentRun):
        return ["run", value.stripe, value.unit_index, value.disk, value.disk_lba,
                value.nsectors, value.logical_sector]
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, range):
        return ["range", value.start, value.stop, value.step]
    return value


def _construct(cls, args: tuple) -> str | None:
    """The constructor's error text for ``args``, or None if it accepts them."""
    try:
        cls(*args)
    except ValueError as error:
        return str(error)
    return None


def _call(function, *args):
    try:
        return _plain(function(*args))
    except Exception as error:  # noqa: BLE001 - the error text is the record
        return ["error", type(error).__name__, str(error)]


def _sample(lo: int, hi: int, budget: int = 48) -> list[int]:
    """``lo .. hi`` inclusive when short, else its ends plus an even spread."""
    if hi - lo + 1 <= budget:
        return list(range(lo, hi + 1))
    step = (hi - lo) // (budget - 8)
    return sorted({*range(lo, lo + 4), *range(lo, hi + 1, step), *range(hi - 3, hi + 1)})


def _grids(layout) -> dict[str, list[tuple]]:
    """The argument tuples each method is probed with."""
    unit = layout.stripe_unit_sectors
    total = layout.total_data_sectors
    sds = layout.stripe_data_sectors
    sectors = _sample(-1, total)
    lengths = sorted({-1, 0, 1, 2, unit - 1, unit, unit + 1, sds - 1, sds, sds + 1,
                      2 * sds + 3, total})
    stripes = _sample(-1, layout.nstripes)
    units = list(range(-1, layout.data_units_per_stripe + 1))
    disks = list(range(-1, layout.ndisks + 1))
    depth = layout.nstripes * unit
    if isinstance(layout, DeclusteredRaid5Layout):
        depth = (layout.nstripes // layout.period) * layout.units_per_disk_per_period * unit
    lbas = _sample(-1, depth, budget=32)
    extents = [(start, length) for start in _sample(-1, total, budget=24) for length in lengths]
    return {
        "map_extent": extents,
        "stripes_touched": extents,
        "locate": [(sector,) for sector in sectors],
        "stripe_of": [(sector,) for sector in sectors],
        "data_units": [(stripe,) for stripe in stripes],
        "parity_disk": [(stripe,) for stripe in stripes],
        "parity_unit": [(stripe,) for stripe in stripes],
        "parity_q_disk": [(stripe,) for stripe in stripes],
        "parity_q_unit": [(stripe,) for stripe in stripes],
        "parity_pair": [(stripe,) for stripe in stripes],
        "stripe_members": [(stripe,) for stripe in stripes],
        "data_disk": [(stripe, index) for stripe in stripes for index in units],
        "mirror_unit": [(stripe, index) for stripe in stripes for index in units],
        "logical_sector_of_unit": [(stripe, index) for stripe in stripes for index in units],
        "unit_lba": [(stripe, disk) for stripe in stripes for disk in disks],
        "logical_of": [(disk, lba) for disk in disks for lba in lbas],
        "mirror_disk": [(disk,) for disk in disks],
        "pair_of": [(disk,) for disk in disks],
    }


def capture_geometry(cls, args: tuple, kwargs: dict) -> dict:
    layout = cls(*args, **kwargs)
    grids = _grids(layout)
    record = {
        "attributes": {
            name: getattr(layout, name)
            for name in (*ATTRIBUTES, *EXTRA_ATTRIBUTES.get(cls, ()))
        },
        "methods": {},
    }
    for method in METHODS[cls]:
        if method == "disk_sectors_used":
            results = _plain(layout.disk_sectors_used)
        else:
            function = getattr(layout, method)
            # Twice over the grid: the second pass answers from the caches.
            results = [_call(function, *call) for _ in range(2) for call in grids[method]]
        text = json.dumps(results, separators=(",", ":"))
        record["methods"][method] = hashlib.sha256(text.encode()).hexdigest()
    return record


def capture_all() -> dict:
    geometries = {
        name: capture_geometry(cls, args, kwargs)
        for name, (cls, args, kwargs) in GEOMETRIES.items()
    }
    constructors = {
        cls.__name__: [_construct(cls, args) for args in bad]
        for cls, bad in BAD_CONSTRUCTORS.items()
    }
    return {"geometries": geometries, "constructors": constructors}


def test_layouts_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    fresh = capture_all()
    assert set(fresh["geometries"]) == set(golden["geometries"])
    for name, expected in golden["geometries"].items():
        actual = fresh["geometries"][name]
        assert actual["attributes"] == expected["attributes"], name
        for method, digest in expected["methods"].items():
            assert actual["methods"][method] == digest, f"{name}: {method} diverged"
    assert fresh["constructors"] == golden["constructors"]


def test_bad_constructors_all_raise():
    """Every bad argument set is rejected with a ValueError."""
    constructors = json.loads(FIXTURE.read_text(encoding="utf-8"))["constructors"]
    for name, errors in constructors.items():
        assert all(isinstance(error, str) for error in errors), name


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("run with --regen to overwrite the committed fixture")
    FIXTURE.write_text(json.dumps(capture_all(), indent=1), encoding="utf-8")
    print(f"wrote {FIXTURE}")
