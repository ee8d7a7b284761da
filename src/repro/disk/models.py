"""Concrete disk instances.

:func:`hp_c3325` approximates the HP C3325 3.5" 2 GB 5400 RPM SCSI-2 drive
the paper's arrays use [HPC3324].  The full datasheet is not reproducible
here, so the parameters below are chosen to match every figure the paper
itself relies on:

* 5400 RPM (11.11 ms revolution),
* ~2 GB formatted capacity,
* ~5 MB/s sustained media rate (the paper: rebuilding a 2 GB disk "about
  ten minutes" at "a sustained rate of 5MB/s"),
* early-90s HP seek profile (≈2 ms single-cylinder, ≈9.5 ms average).

:func:`toy_disk` is a miniature geometry for fast functional tests.
"""

from __future__ import annotations

import functools

from repro.disk.disk import MechanicalDisk
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.seek import SeekModel
from repro.sim import Simulator

# 8 zones x 502 cylinders x 9 heads; mean 108 sectors/track.
_C3325_ZONE_SPT = (144, 132, 120, 112, 104, 96, 84, 72)
_C3325_CYLS_PER_ZONE = 502
_C3325_HEADS = 9
_C3325_RPM = 5400.0
_C3325_SINGLE_SEEK_S = 0.0022
_C3325_AVERAGE_SEEK_S = 0.0095
_C3325_FULL_SEEK_S = 0.0180
_C3325_HEAD_SWITCH_S = 0.0008
_C3325_OVERHEAD_S = 0.0007


@functools.cache
def c3325_geometry() -> DiskGeometry:
    """The zoned geometry of the modelled HP C3325 (≈1.999 GB).

    Built once per process and shared by every drive, like the seek
    curve below: neither is ever mutated.
    """
    zones = [Zone(cylinders=_C3325_CYLS_PER_ZONE, sectors_per_track=spt) for spt in _C3325_ZONE_SPT]
    return DiskGeometry(
        heads=_C3325_HEADS,
        zones=zones,
        sector_bytes=512,
        track_skew=12,
        cylinder_skew=20,
    )


@functools.cache
def c3325_seek_model() -> SeekModel:
    """Seek curve fitted to the C3325 anchor times."""
    geometry = c3325_geometry()
    return SeekModel.fit(
        single_cylinder_s=_C3325_SINGLE_SEEK_S,
        average_s=_C3325_AVERAGE_SEEK_S,
        full_stroke_s=_C3325_FULL_SEEK_S,
        cylinders=geometry.cylinders,
    )


def hp_c3325(sim: Simulator, name: str = "c3325", spindle_phase: float = 0.0) -> MechanicalDisk:
    """Build one HP C3325-like drive attached to ``sim``.

    All drives built with the same ``spindle_phase`` are spin-synchronised,
    matching the paper's §4.1 simplification.
    """
    return MechanicalDisk(
        sim=sim,
        geometry=c3325_geometry(),
        seek_model=c3325_seek_model(),
        rpm=_C3325_RPM,
        controller_overhead_s=_C3325_OVERHEAD_S,
        head_switch_s=_C3325_HEAD_SWITCH_S,
        spindle_phase=spindle_phase,
        name=name,
    )


def toy_disk(sim: Simulator, name: str = "toy", cylinders: int = 64, heads: int = 2, spt: int = 32) -> MechanicalDisk:
    """A small, fast disk for unit tests (single zone, gentle seek curve)."""
    geometry = DiskGeometry(
        heads=heads,
        zones=[Zone(cylinders=cylinders, sectors_per_track=spt)],
        sector_bytes=512,
        track_skew=4,
        cylinder_skew=6,
    )
    seek = SeekModel.fit(
        single_cylinder_s=0.001,
        average_s=0.005,
        full_stroke_s=0.010,
        cylinders=cylinders,
    )
    return MechanicalDisk(
        sim=sim,
        geometry=geometry,
        seek_model=seek,
        rpm=6000.0,
        controller_overhead_s=0.0002,
        head_switch_s=0.0003,
        spindle_phase=0.0,
        name=name,
    )
