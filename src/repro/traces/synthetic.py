"""Seeded synthetic bursty-workload generation.

The arrival process is ON/OFF: bursts of geometrically many requests with
exponential within-burst gaps, separated by lognormal (heavy-tailed) idle
gaps — the structure [Ruemmler93] reports for UNIX disk access patterns.
Addresses mix sequential runs, a hot region, and uniform traffic; sizes
mix a small (file-system block) and a large (transfer) class.

Everything is driven by one :class:`numpy.random.Generator` with an
explicit seed, so a (params, seed) pair always yields the identical trace.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.disk import IoKind
from repro.traces.records import Trace, TraceRecord


@dataclasses.dataclass(frozen=True)
class BurstyWorkloadParams:
    """Knobs describing one workload class."""

    name: str
    duration_s: float
    address_space_sectors: int
    write_fraction: float
    # Arrival process:
    requests_per_burst_mean: float = 8.0
    within_burst_gap_s: float = 0.010
    idle_gap_mean_s: float = 1.0
    idle_gap_sigma: float = 1.2  # lognormal shape: bigger = heavier tail
    # Request sizes (sectors of 512 B):
    small_size_sectors: int = 8  # a 4 KB file-system block
    large_size_sectors: int = 64  # a 32 KB transfer
    large_fraction: float = 0.10
    # Locality:
    sequential_fraction: float = 0.30
    hotspot_fraction: float = 0.40
    hotspot_span_fraction: float = 0.05
    sync_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration must be a finite number > 0, got {self.duration_s}")
        if self.address_space_sectors < self.large_size_sectors:
            raise ValueError("address space smaller than one large request")
        for name in ("write_fraction", "large_fraction", "sequential_fraction",
                     "hotspot_fraction", "hotspot_span_fraction", "sync_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.requests_per_burst_mean < 1.0:
            raise ValueError("bursts must average >= 1 request")
        if self.within_burst_gap_s < 0 or self.idle_gap_mean_s < 0:
            raise ValueError("gaps must be >= 0")

    @property
    def approximate_iops(self) -> float:
        """Long-run arrival rate implied by the burst/gap structure."""
        burst = self.requests_per_burst_mean
        cycle = burst * self.within_burst_gap_s + self.idle_gap_mean_s
        return burst / cycle if cycle > 0 else float("inf")


class BurstyWorkloadGenerator:
    """Generates :class:`Trace` objects from :class:`BurstyWorkloadParams`."""

    def __init__(self, params: BurstyWorkloadParams, seed: int = 42) -> None:
        self.params = params
        self.seed = seed

    def generate(self) -> Trace:
        """Produce the full trace for the configured duration."""
        params = self.params
        rng = np.random.default_rng(self.seed)
        records: list[TraceRecord] = []
        # Start just before a burst (as if the trace were cut from a longer
        # capture mid-activity), so short traces are never empty even for
        # workloads with long idle gaps.
        clock = float(rng.exponential(params.within_burst_gap_s + 1e-9))
        # Sequential-run state: where the previous request ended.
        next_sequential = int(rng.integers(0, params.address_space_sectors))
        hot_span = max(
            params.large_size_sectors,
            int(params.address_space_sectors * params.hotspot_span_fraction),
        )
        hot_start = int(rng.integers(0, max(1, params.address_space_sectors - hot_span)))
        # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
        sigma = params.idle_gap_sigma
        mu = math.log(max(params.idle_gap_mean_s, 1e-9)) - sigma * sigma / 2.0

        while clock < params.duration_s:
            burst_size = max(1, int(rng.geometric(1.0 / params.requests_per_burst_mean)))
            for _ in range(burst_size):
                if clock >= params.duration_s:
                    break
                records.append(self._make_record(rng, clock, next_sequential, hot_start, hot_span))
                next_sequential = records[-1].offset_sectors + records[-1].nsectors
                clock += float(rng.exponential(params.within_burst_gap_s + 1e-12))
            clock += float(rng.lognormal(mu, sigma))
        return Trace(params.name, records, duration_s=params.duration_s)

    def _make_record(
        self,
        rng: np.random.Generator,
        clock: float,
        next_sequential: int,
        hot_start: int,
        hot_span: int,
    ) -> TraceRecord:
        params = self.params
        if rng.random() < params.large_fraction:
            nsectors = params.large_size_sectors
        else:
            nsectors = params.small_size_sectors
        limit = params.address_space_sectors - nsectors

        roll = rng.random()
        if roll < params.sequential_fraction:
            offset = next_sequential
        elif roll < params.sequential_fraction + params.hotspot_fraction:
            offset = hot_start + int(rng.integers(0, max(1, hot_span - nsectors)))
        else:
            offset = int(rng.integers(0, max(1, limit)))
        # Align to the request's own size (file-system-block alignment).
        offset = (offset // nsectors) * nsectors
        offset = min(max(offset, 0), (limit // nsectors) * nsectors)

        is_write = rng.random() < params.write_fraction
        sync = is_write and rng.random() < params.sync_fraction
        return TraceRecord(
            time_s=clock,
            kind=IoKind.WRITE if is_write else IoKind.READ,
            offset_sectors=offset,
            nsectors=nsectors,
            sync=sync,
        )
